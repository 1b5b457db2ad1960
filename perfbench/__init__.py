"""End-to-end and per-layer benchmark of the EDE simulator (see README.md)."""
