"""Tiny-scale smoke of each workload and the correctness gate's teeth.

Outside the tier-1 collection (``testpaths = ["tests"]``); run with::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gate
from perfbench.run import measure
from perfbench.tracing import NullTracer, Tracer, instrument
from perfbench.workloads import (
    ContendedMulticore,
    PaperFigures,
    ServiceMixed,
    common_layers,
)
from repro.workloads import Scale

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(kind, tmp_path):
    """The workload at the scale of its own warm-up pass."""
    return kind(2021, tmp_path).tiny()


@pytest.mark.parametrize("kind", [PaperFigures, ContendedMulticore,
                                  ServiceMixed])
def test_workload_smoke_traced(kind, tmp_path):
    workload = tiny(kind, tmp_path)
    setups, (untraced, traced), tracer = measure(workload, 0, trace=True)
    assert len(setups) == 6
    assert untraced.failures == [] and traced.failures == []
    assert untraced.digests == traced.digests
    layers = dict(common_layers(tracer, traced.wall_s))
    layers.update(workload.layer_metrics(tracer, traced, untraced))
    names = {entry["name"] for entry in MANIFEST["per_layer"]}
    assert set(layers) <= names
    assert 0 <= layers["trace.unattributed_frac"] < 1


def test_service_hits_never_build_or_simulate(tmp_path):
    workload = tiny(ServiceMixed, tmp_path)
    _, (untraced, traced), tracer = measure(workload, 0, trace=True)
    metrics = workload.layer_metrics(tracer, traced, untraced)
    assert metrics["service.hit_build_calls"] == 0
    assert metrics["service.hit_pipeline_calls"] == 0
    assert traced.notes["service.simulations"] > 0


def test_gate_fires_on_tampered_warm_digest(tmp_path):
    workload = tiny(PaperFigures, tmp_path)
    state = workload.setup()
    try:
        one = workload.run_pass(state, NullTracer())
    finally:
        workload.teardown(state)
    tampered = dict(one.digests)
    cell = sorted(tampered)[0]
    tampered[cell] = "0" * 64
    failures = gate.digest_failures("warm", tampered, one.digests)
    assert len(failures) == 1 and cell in failures[0]


def test_gate_fires_on_safe_config_violation(tmp_path):
    from repro.harness import configuration, run_one

    result = run_one("update", configuration("U"), Scale(5, 3))
    assert not result.consistency.observed_safe
    # The same unsafe run presented as a safe-by-spec config must fail.
    assert gate.verdict_failures("cell", "WB", result)
    assert gate.verdict_failures("cell", "U", result,
                                 require_unsafe_u=True) == []


def test_gate_failure_reaches_failed_count(tmp_path, monkeypatch):
    """A broken verdict inside a pass raises the run's failed count."""
    from repro.consistency.checker import CheckResult

    workload = tiny(ContendedMulticore, tmp_path)
    state = workload.setup()[:4]
    monkeypatch.setattr(CheckResult, "observed_safe",
                        property(lambda self: False))
    one = workload.run_pass(state, NullTracer())
    assert len(one.failures) == 3 and one.jobs == 4


def test_tracer_self_time_and_restore():
    from repro.harness import runner

    original = runner.check_run
    tracer = Tracer()
    with instrument(tracer):
        assert runner.check_run is not original
        with tracer.span("pass", "job-1"):
            with tracer.span("build"):
                pass
    assert runner.check_run is original
    layers = tracer.layers()
    assert layers["build"]["calls"] == 1
    assert tracer.spans[1][4] == "job-1"
    assert layers["pass"]["self_s"] <= layers["pass"]["total_s"]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    (tmp_path / "perfbench").symlink_to(ROOT / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_is_independent_of_the_collector():
    import gc

    from perfbench.calibrate import REFERENCE_S, calibrate, scaled

    gc.disable()
    try:
        assert calibrate() > 0 and not gc.isenabled()
    finally:
        gc.enable()
    assert calibrate() > 0 and gc.isenabled()
    assert scaled(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)
