"""The service and the matrix share one worker path and one cache.

Cells either front end simulated are served by the other from the
result cache — no trace build, no core run — and the ``worker`` chaos
point fires for service batches exactly as for matrix groups.
"""

import asyncio

from repro.chaos import FaultPlan, FaultSpec, summarize_state
from repro.harness.configs import configuration
from repro.harness.parallel import run_matrix_parallel
from repro.harness.runner import run_one
from repro.pipeline.core import OutOfOrderCore
from repro.service.jobs import JobSpec, JobState, result_digest
from repro.service.scheduler import Scheduler
from repro.workloads import TEST_SCALE, base as workload_base

CONFIGS = ["B", "IQ", "WB"]


def serve(specs, **scheduler_kwargs):
    """Submit ``specs`` to a fresh in-process scheduler; wait for every
    job and return ``[(job, disposition)]``."""
    async def main():
        scheduler = Scheduler(max_workers=1, **scheduler_kwargs)
        scheduler.start()
        try:
            admitted = [scheduler.submit(spec) for spec in specs]
            for job, _ in admitted:
                await asyncio.wait_for(job.done_event.wait(), timeout=300)
            return admitted
        finally:
            await scheduler.stop()
    return asyncio.run(main())


def specs(workload="update"):
    return [JobSpec(kind="simulate", workload=workload, config=name)
            for name in CONFIGS]


def test_matrix_serves_cells_the_service_simulated(tmp_path, monkeypatch):
    served = serve(specs(), cache_dir=tmp_path)
    assert [disposition for _, disposition in served] == ["created"] * 3

    core_runs = []
    original_run = OutOfOrderCore.run

    def counting_run(self, *args, **kwargs):
        core_runs.append(1)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(OutOfOrderCore, "run", counting_run)
    builds = workload_base.BUILD_COUNT
    matrix = run_matrix_parallel(
        ["update"], [configuration(name) for name in CONFIGS], TEST_SCALE,
        max_workers=1, cache_dir=tmp_path)
    assert workload_base.BUILD_COUNT == builds
    assert core_runs == []
    for job, _ in served:
        assert (result_digest(matrix["update"][job.spec.config])
                == result_digest(job.result))


def test_service_admits_cells_the_matrix_stored_as_cached(tmp_path):
    run_matrix_parallel(["swap"], [configuration(name) for name in CONFIGS],
                        TEST_SCALE, max_workers=1, cache_dir=tmp_path)
    served = serve(specs("swap"), cache_dir=tmp_path)
    assert [disposition for _, disposition in served] == ["cached"] * 3


def test_worker_fault_on_a_service_batch_is_retried(tmp_path):
    plan = FaultPlan(
        faults=[FaultSpec(point="worker", action="raise", match="update/*",
                          times=1)],
        state_dir=str(tmp_path / "chaos-state"), seed=2021)
    with plan.installed():
        served = serve(specs(), cache_dir=tmp_path / "cache", retries=2,
                       backoff=0.01)
    assert summarize_state(plan)["worker[update/*]:raise"] == 1
    for job, _ in served:
        assert job.state == JobState.DONE
        reference = run_one("update", job.spec.configuration, TEST_SCALE)
        assert result_digest(job.result) == result_digest(reference)
