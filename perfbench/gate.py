"""The correctness gate every run passes through, and the digests it uses.

Each check returns a list of failure strings, one per failed job; the
workloads count them into ``failed`` and print them.  The gate is the
same in the untraced and the traced run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping

#: Configurations whose persist ordering is guaranteed by construction.
SAFE_BY_SPEC = ("B", "IQ", "WB")


def verdict_failures(cell: str, config: str, result,
                     require_unsafe_u: bool = False) -> List[str]:
    """A safe-by-spec config must be ``safe``; with ``require_unsafe_u``
    (the paper matrix) U must still be observed UNSAFE."""
    verdict = result.consistency.verdict
    if config in SAFE_BY_SPEC and verdict != "safe":
        return ["%s: safe-by-spec config reports %r" % (cell, verdict)]
    if require_unsafe_u and config == "U" and \
            result.consistency.observed_safe:
        return ["%s: U no longer observed UNSAFE (%r)" % (cell, verdict)]
    return []


def digest_failures(label: str, got: Mapping[str, str],
                    want: Mapping[str, str]) -> List[str]:
    """Every cell of ``want`` must appear in ``got`` with the same digest."""
    return ["%s %s: digest %s != reference %s"
            % (label, cell, got.get(cell, "missing")[:12], digest[:12])
            for cell, digest in sorted(want.items())
            if got.get(cell) != digest]


def crash_failures(cell: str, reports) -> List[str]:
    """One failure when any crash point of the sweep recovers wrongly."""
    bad = [report for report in reports if not report.consistent]
    if not bad:
        return []
    return ["%s: %d of %d crash points recover inconsistently (first at "
            "%d: %s)" % (cell, len(bad), len(reports), bad[0].crash_point,
                         bad[0].mismatches[0])]


def combined_digest(digests: Mapping[str, str]) -> str:
    """One SHA-256 over every (cell, digest) pair, in cell order."""
    hasher = hashlib.sha256()
    for cell in sorted(digests):
        hasher.update(("%s=%s\n" % (cell, digests[cell])).encode())
    return hasher.hexdigest()


def sim_totals(results: Iterable) -> Dict[str, int]:
    """Simulated counters summed over results (exact, not host time)."""
    totals = dict.fromkeys(
        ("sim.cycles", "sim.retired", "sim.retire_stall_wb_full",
         "sim.retire_stall_dsb", "sim.retire_stall_wait",
         "sim.dispatch_stall_iq", "sim.nvm_media_writes",
         "sim.nvm_coalesced_writes"), 0)
    for result in results:
        stats = result.stats
        totals["sim.cycles"] += result.cycles
        totals["sim.retired"] += stats.retired
        totals["sim.retire_stall_wb_full"] += stats.retire_stall_wb_full
        totals["sim.retire_stall_dsb"] += stats.retire_stall_dsb
        totals["sim.retire_stall_wait"] += stats.retire_stall_wait
        totals["sim.dispatch_stall_iq"] += stats.dispatch_stall_iq
        totals["sim.nvm_media_writes"] += result.nvm_media_writes
        totals["sim.nvm_coalesced_writes"] += result.nvm_coalesced_writes
    return totals
