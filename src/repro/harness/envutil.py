"""Shared, strict parsing of ``REPRO_*`` environment knobs.

Every boolean knob in the harness (``REPRO_RESULT_CACHE``,
``REPRO_TRACE_CACHE``, ``REPRO_PROFILE``) historically grew its own
parser, and the oldest of them silently accepted junk — setting it to
``yes`` meant *enabled* because only the literal ``"0"`` disabled it.
A mistyped knob then changes behaviour without any signal.  This module
centralizes the parsing and makes every knob loud, mirroring
``resolve_workers``'s handling of ``REPRO_PARALLEL``: unset and empty
mean the default, a small set of spellings is accepted, and anything
else raises ``ValueError`` naming the variable and the offending value.

:func:`describe_env` is the registry of *every* knob any ``repro``
module reads, with its parser kind, default and one-line description —
surfaced by the ``--env`` flag on the service and analysis CLIs and
kept in sync with the code by a grep-based test
(``tests/harness/test_envutil.py``).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Tuple

#: Accepted spellings for boolean knobs (case-insensitive).
_TRUE = ("1", "true")
_FALSE = ("0", "false")


def env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean env knob: ``0``/``1``/``true``/``false`` only.

    Unset or empty returns ``default``; any other value raises a
    ``ValueError`` that names the variable, so a typo can never silently
    flip a cache or profiler on or off.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(
        "%s must be one of 0/1/true/false, got %r" % (name, raw))


def env_int(name: str, default: int, minimum: Optional[int] = None) -> int:
    """Parse an integer env knob, enforcing an optional lower bound."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        value = default
    else:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                "%s must be an integer, got %r" % (name, raw)) from None
    if minimum is not None and value < minimum:
        raise ValueError(
            "%s must be >= %d, got %d" % (name, minimum, value))
    return value


def env_float(name: str, default: float,
              minimum: Optional[float] = None) -> float:
    """Parse a float env knob, enforcing an optional lower bound."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        value = default
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                "%s must be a number, got %r" % (name, raw)) from None
    if minimum is not None and value < minimum:
        raise ValueError(
            "%s must be >= %g, got %g" % (name, minimum, value))
    return value


def env_positive_int(name: str, default: int) -> int:
    """A strictly positive integer knob (bench scales, worker counts)."""
    return env_int(name, default, minimum=1)


def env_str(name: str, default: str) -> str:
    """A free-form string knob (paths, host names); empty means default."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return raw


@dataclasses.dataclass(frozen=True)
class EnvKnob:
    """One documented environment knob: how it parses, what it does."""

    name: str
    kind: str          # flag | int | positive_int | float | str | json
    default: str       # human-rendered default
    description: str


def describe_env() -> Tuple[EnvKnob, ...]:
    """Every ``REPRO_*`` knob the codebase reads, with parser and default.

    The authoritative user-facing list: ``python -m repro.service --env``
    and ``python -m repro.analysis --env`` print it, and a grep-based
    test asserts it matches the variables actually read under
    ``src/repro``, so a new knob cannot ship undocumented.
    """
    from repro.harness import supervisor
    from repro.harness.profiling import DEFAULT_PROFILE_DIR
    from repro.harness.result_cache import DEFAULT_CACHE_DIR

    return (
        EnvKnob("REPRO_PARALLEL", "int", "cpu count",
                "Worker-pool size for matrix runs; 0/1 force the "
                "in-process serial path."),
        EnvKnob("REPRO_RESULT_CACHE", "flag", "1",
                "Persistent content-addressed result cache on/off."),
        EnvKnob("REPRO_TRACE_CACHE", "flag", "1",
                "Persistent compiled-trace cache on/off."),
        EnvKnob("REPRO_CACHE_DIR", "str", DEFAULT_CACHE_DIR,
                "Directory for result and trace caches."),
        EnvKnob("REPRO_TIMEOUT", "float",
                "%g" % supervisor.DEFAULT_TIMEOUT_S,
                "Per-group wall-clock timeout in seconds (0 disables)."),
        EnvKnob("REPRO_RETRIES", "int", "%d" % supervisor.DEFAULT_RETRIES,
                "Failed attempts tolerated per group beyond the first."),
        EnvKnob("REPRO_BACKOFF", "float",
                "%g" % supervisor.DEFAULT_BACKOFF_S,
                "Base retry backoff in seconds, doubled per failure."),
        EnvKnob("REPRO_PROFILE", "flag", "0",
                "Dump per-phase cProfile stats for build/simulate."),
        EnvKnob("REPRO_PROFILE_DIR", "str", DEFAULT_PROFILE_DIR,
                "Directory for cProfile dumps."),
        EnvKnob("REPRO_BENCH_OPS", "positive_int", "25",
                "Benchmark scale: operations per transaction."),
        EnvKnob("REPRO_BENCH_TXNS", "positive_int", "20",
                "Benchmark scale: transaction count."),
        EnvKnob("REPRO_FUSION", "flag", "1",
                "Superinstruction fusion in the functional machine "
                "(codegen'd basic-block handlers) on/off."),
        EnvKnob("REPRO_CORES", "positive_int", "2",
                "Core count for the multi-core hazard-pointer "
                "experiment (capped by the modeled maximum)."),
        EnvKnob("REPRO_INTERLEAVE", "str", "round_robin",
                "Multi-core build interleaver policy: round_robin or "
                "weighted."),
        EnvKnob("REPRO_INTERLEAVE_SEED", "int", "0",
                "Multi-core interleaver seed override (0 derives it "
                "from the workload scale seed)."),
        EnvKnob("REPRO_COHERENCE", "flag", "1",
                "MESI-lite invalidation coherence model in multi-core "
                "runs on/off."),
        EnvKnob("REPRO_STATIC_CHECK", "flag", "0",
                "Gate every interpreted workload build through the "
                "static analyzer."),
        EnvKnob("REPRO_AUTOTUNE_BUDGET", "positive_int", "64",
                "Fence-autotuner trial budget: max candidate programs "
                "the static oracle evaluates per target."),
        EnvKnob("REPRO_AUTOTUNE_VALIDATE", "flag", "1",
                "Fence-autotuner dynamic oracle (simulation, crash "
                "sweep, result digest) on/off."),
        EnvKnob("REPRO_CHAOS", "json", "unset",
                "Serialized fault-injection plan (set by the chaos "
                "harness, not by hand)."),
        EnvKnob("REPRO_SERVICE_HOST", "str", "127.0.0.1",
                "Bind address for `python -m repro.service serve`."),
        EnvKnob("REPRO_SERVICE_PORT", "int", "0",
                "Bind port for the service (0 = ephemeral)."),
        EnvKnob("REPRO_SERVICE_QUEUE_DEPTH", "positive_int", "64",
                "Admission-control bound on queued service jobs."),
        EnvKnob("REPRO_DRAIN_TIMEOUT", "float", "60",
                "Seconds a SIGTERM'd server may spend finishing "
                "admitted work before exiting anyway."),
        EnvKnob("REPRO_CLUSTER_SHARDS", "positive_int", "2",
                "Worker-process count for `repro-cluster up` and the "
                "local cluster manager."),
        EnvKnob("REPRO_CLUSTER_PROBE_INTERVAL", "float", "1",
                "Seconds between the coordinator's shard health-probe "
                "rounds."),
        EnvKnob("REPRO_CLUSTER_RATE", "float", "100",
                "Per-tenant sustained submissions/second admitted by "
                "the cluster coordinator."),
        EnvKnob("REPRO_CLUSTER_BURST", "positive_int", "200",
                "Per-tenant burst capacity (token-bucket size) at the "
                "cluster coordinator."),
        EnvKnob("REPRO_BREAKER_THRESHOLD", "float", "0.5",
                "EWMA failure rate that trips a shard's circuit "
                "breaker open."),
        EnvKnob("REPRO_BREAKER_RESET", "float", "2",
                "Seconds an open circuit breaker waits before "
                "admitting half-open probes."),
        EnvKnob("REPRO_CLUSTER_JOURNAL_DIR", "str", "unset",
                "Directory for the coordinator's crash-recovery "
                "write-ahead journal (unset = journaling off)."),
        EnvKnob("REPRO_JOURNAL_FSYNC_INTERVAL", "float", "0",
                "Seconds between journal fsync batches (0 fsyncs "
                "every append)."),
        EnvKnob("REPRO_JOURNAL_COMPACT_BYTES", "int", "1048576",
                "Journal size in bytes that triggers a compacting "
                "rewrite."),
        EnvKnob("REPRO_NETPROXY_PLAN", "json", "unset",
                "Serialized network fault plan; when set, the cluster "
                "CLI inserts a fault-injection TCP proxy before every "
                "shard."),
        EnvKnob("REPRO_REQUEST_DEADLINE", "float", "0",
                "Default end-to-end deadline in seconds clients send "
                "as X-Deadline (0 = none)."),
        EnvKnob("REPRO_PROXY_TIMEOUT", "float", "600",
                "Seconds one coordinator->shard submit exchange may "
                "take before counting as a transport failure."),
        EnvKnob("REPRO_HEDGE_DELAY", "float", "0.25",
                "Seconds the coordinator waits on the owning shard "
                "before hedging a status/result read to the next "
                "candidate."),
    )


def render_env_table() -> str:
    """Human-readable rendering of :func:`describe_env` (``--env``)."""
    knobs = describe_env()
    width = max(len(k.name) for k in knobs)
    lines = ["%-*s  %-12s  %-18s  %s"
             % (width, "knob", "kind", "default", "description"),
             "%-*s  %-12s  %-18s  %s" % (width, "-" * width, "-" * 12,
                                         "-" * 18, "-" * 11)]
    for knob in knobs:
        lines.append("%-*s  %-12s  %-18s  %s"
                     % (width, knob.name, knob.kind, knob.default,
                        knob.description))
    return "\n".join(lines)
