"""Run one workload of the EDE simulator benchmark and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper_figures --seed 2021 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` runs one untraced and one traced pass and prints the per-layer
metrics.  The host-time end-to-end metrics are scaled to a reference host
speed by a calibration job timed throughout the run
(:mod:`perfbench.calibrate`); their unscaled values are printed too.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say what
each number is, with its clock (host or simulated) and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
#: What a user imports before the first job; timed in a fresh interpreter
#: as part of every set-up, so work moved to import time shows.
IMPORTS = ("import repro.harness, repro.service, repro.cluster, "
           "repro.multicore, repro.consistency")
SETUP_REPEATS = 5
#: Metrics measured on simulated, not host, time or events.
SIMULATED = ("sim.", "fig9_err", "fig11_ipc_err")
#: Host-time metrics scaled to the reference host speed.
CALIBRATED = ("setup_s", "wall_s", "host_kips")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert("
                    "0, %r); %s" % (str(SRC), IMPORTS)], check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this run started to exit."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


def measure(workload, seconds: float, trace: bool):
    """Set up, warm up, run passes until ``seconds`` of pass wall time and
    at least the workload's ``MIN_PASSES`` are measured, and tear down;
    returns (setups, passes, tracer) where ``setups`` holds (seconds,
    calibration seconds) pairs and ``passes`` is [untraced, traced] when
    tracing.  The calibration job runs right after each set-up and right
    after each pass."""
    from perfbench.calibrate import REFERENCE_S, calibrate
    from perfbench.tracing import NullTracer, Tracer, instrument

    setups = []

    def calibration():
        if trace or not workload.CALIBRATED:
            return REFERENCE_S  # scales by 1
        return calibrate(workload.PROCESSES)

    def timed_setup():
        start = time.perf_counter()
        import_seconds()
        state = workload.setup()
        setups.append((time.perf_counter() - start, calibration()))
        return state

    for _ in range(SETUP_REPEATS - 1):
        workload.teardown(timed_setup())
    workload.warmup()
    passes = []
    tracer = None
    while True:
        state = timed_setup()
        # Earlier passes' and set-ups' garbage is collected here, outside
        # the window, so a pass pays only for the collections it causes.
        gc.collect()
        try:
            if trace and passes:
                tracer = Tracer()
                with instrument(tracer):
                    one = workload.run_pass(state, tracer)
            else:
                one = workload.run_pass(state, NullTracer())
            one.calib_s = calibration()
            workload.finish(state, one, tracer or NullTracer())
            passes.append(one)
        finally:
            workload.teardown(state)
        if trace and tracer is not None:
            break
        if not trace and len(passes) >= workload.MIN_PASSES and \
                sum(one.wall_s for one in passes) >= seconds:
            break
    return setups, passes, tracer


def layer_seconds(tracer) -> dict:
    return {name: {"calls": entry["calls"],
                   "total_s": round(entry["total_s"], 6),
                   "self_s": round(entry["self_s"], 6)}
            for name, entry in sorted(tracer.layers().items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: simulator sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    workloads = {entry["name"] for entry in manifest["workloads"]}
    if args.workload not in workloads:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(sorted(workloads))),
              file=sys.stderr)
        return 2
    # Knobs inherited from the environment would change what is measured.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.gate import combined_digest
    from perfbench.workloads import WORKLOADS, common_layers

    workdir = WORKDIR / ("run-%d" % os.getpid())
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if workload.CPUS:
        # Before any thread starts, so every thread inherits it.
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, allowed[:workload.CPUS])
    try:
        setups, passes, tracer = measure(workload, args.seconds,
                                         bool(args.trace))
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)

    from perfbench.calibrate import scaled

    failures = [failure for one in passes for failure in one.failures]
    attempted = sum(one.jobs for one in passes)
    digests = {json.dumps(sorted(one.digests.items())) for one in passes}
    last = passes[-1]
    sim_digest = combined_digest(last.digests)
    if len(digests) > 1:
        failures.append("passes of one run disagree on their digests")

    values = {}
    unscaled = {}
    if args.trace:
        spec = manifest["per_layer"]
        untraced, traced = passes
        values.update(common_layers(tracer, traced.wall_s))
        values.update(traced.sim)
        values.update(workload.layer_metrics(tracer, traced, untraced))
        spans_dir = WORKDIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / ("%s-seed%d.json"
                                  % (args.workload, args.seed))
        tracer.write(spans_path)
    else:
        spec = manifest["end_to_end"]
        # One calibration for the run: single samples of the job vary
        # by about a fifth, their median follows the host's drift.
        calib = statistics.median([c for _, c in setups]
                                  + [one.calib_s for one in passes])
        unscaled = {
            "setup_s": (statistics.median(raw for raw, _ in setups), "s"),
            "wall_s": (statistics.median(one.wall_s for one in passes), "s"),
            "host_kips": (statistics.median(
                one.retired / one.sim_wall_s / 1e3 for one in passes),
                "kinst/s"),
            "calibration_s": (calib, "s"),
        }
        values["setup_s"] = scaled(unscaled["setup_s"][0], calib)
        values["wall_s"] = scaled(unscaled["wall_s"][0], calib)
        values["host_kips"] = unscaled["host_kips"][0] / scaled(1.0, calib)
        values["peak_rss_mb"] = peak_rss_mb()
        if not workload.CALIBRATED:
            unscaled = {}
    samples = {"setup_s": len(setups), "wall_s": len(passes),
               "host_kips": len(passes)}

    print("perfbench %s  seed=%d  trace=%d  scale: %s" % (
        args.workload, args.seed, args.trace, workload.describe_scale()))
    print("  provenance: cpu_count=%d python=%s; not comparable with the "
          "BENCH_*.json ledgers at the repo root" % (
              os.cpu_count() or 0, platform.python_version()))
    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name, 0)
        clock = "simulated" if name.startswith(SIMULATED) else \
            "host@ref" if name in CALIBRATED and unscaled else "host"
        metrics[name] = {"value": value, "unit": unit}
        print("  %-28s %14.6g %-8s %-9s n=%s" % (
            name, value, unit, clock, samples.get(name, 1)))
    for name, (value, unit) in unscaled.items():
        print("  %-28s %14.6g %-8s host      unscaled" % (
            "unscaled." + name, value, unit))
    for name, (value, unit, sampled) in workload.host_summary(
            passes).items():
        print("  %-28s %14.6g %-8s host      %s" % (name, value, unit,
                                                  sampled))
    if "fig9_err" in last.notes:
        print("  %-28s %14.6g %-8s simulated vs the paper's published "
              "geomeans, the only reference; the model is otherwise "
              "unvalidated" % ("fig9_err", last.notes["fig9_err"], "ratio"))
        print("  %-28s %14.6g %-8s simulated vs the paper's quoted IPCs"
              % ("fig11_ipc_err", last.notes["fig11_ipc_err"], "IPC"))
    failed = min(len(failures), attempted)
    print("  %-28s %14.6g %-8s %d failed of %d jobs" % (
        "failed_frac", failed / max(1, attempted), "frac", failed,
        attempted))
    print("  %-28s %s" % ("sim_digest", sim_digest))
    for failure in failures[:20]:
        print("  FAILED %s" % failure)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": workload.describe_scale(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "setup_s_samples": [raw for raw, _ in setups],
        "calibration_s": {"setups": [calib for _, calib in setups],
                          "passes": [one.calib_s for one in passes]}
        if workload.CALIBRATED and not args.trace else None,
        "passes": [{"wall_s": one.wall_s, "retired": one.retired,
                    "host": {k: v[0] for k, v in one.host.items()}}
                   for one in passes],
        "failed_frac": failed / max(1, attempted),
        "sim_digest": sim_digest,
    }
    if "fig9_err" in last.notes:
        detail["fig9_err"] = last.notes["fig9_err"]
        detail["fig11_ipc_err"] = last.notes["fig11_ipc_err"]
    if tracer is not None:
        detail["layers"] = layer_seconds(tracer)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
