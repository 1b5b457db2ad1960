"""A fixed pure-Python job that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
VM a fixed loop ran anywhere from 0.08 s to 0.19 s within one minute, and
the same workload's wall halved within twenty minutes.  No run length
averages that away, so the host-time end-to-end metrics are reported
scaled to a reference host speed: ``raw × REFERENCE_S / calibration``,
where the calibration is the median time of this job over the run,
timed after every set-up and every pass, in the same process and on the
same CPUs.  One sample varies by about a fifth; the median follows the
drift.  A workload that keeps two worker processes busy is calibrated by
two copies of the job running at once, one per process, so the
calibration sees both CPUs.  A workload whose run is one long pass is
not scaled: samples from its start and end do not follow the host during
the pass.

The job is interpreter work of the simulator's kind (small objects,
attribute and dict access, short loops, a sort) but none of the
simulator's code, so a change to the simulator cannot change it.  The
garbage collector is off while it runs, so the size of the benchmark's
heap cannot change it either.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import statistics
import time

#: Seconds the job takes on the reference host speed.  Scaled metrics are
#: seconds on a host where :func:`calibrate` returns this.
REFERENCE_S = 0.2
CELLS = 20000
ROUNDS = 3


class _Cell:
    __slots__ = ("key", "value", "ready", "deps")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value
        self.ready = 0
        self.deps: list = []


def _round(rng: random.Random) -> int:
    cells = [_Cell(key, rng.randrange(1 << 16)) for key in range(CELLS)]
    index = {cell.key: cell for cell in cells}
    for cell in cells:
        cell.deps = [index[(cell.key * 7 + j) % CELLS] for j in range(3)]
    for cycle in range(4):
        for cell in cells:
            if cell.ready <= cycle:
                cell.ready = cycle + 1 + (cell.value & 3)
                cell.value = (cell.value * 31 + sum(
                    dep.value for dep in cell.deps)) & 0xFFFF
    cells.sort(key=lambda cell: (cell.ready, cell.value))
    checksum = cells[0].value
    for cell in cells:
        cell.deps = []  # no reference cycles left for the collector
    return checksum


def calibrate(processes: int = 1) -> float:
    """Seconds the fixed job takes now; with ``processes`` > 1, the mean
    over that many copies run at once in forked processes."""
    if processes <= 1:
        return _timed()
    context = multiprocessing.get_context("fork")
    pipes, workers = [], []
    for _ in range(processes):
        receive, send = context.Pipe(duplex=False)
        worker = context.Process(target=_timed_into, args=(send,))
        worker.start()
        send.close()
        pipes.append(receive)
        workers.append(worker)
    try:
        return statistics.fmean(pipe.recv() for pipe in pipes)
    finally:
        for worker in workers:
            worker.join()


def _timed_into(pipe) -> None:
    pipe.send(_timed())
    pipe.close()


def _timed() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(2021)
        start = time.perf_counter()
        for _ in range(ROUNDS):
            _round(rng)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(raw_s: float, calibration_s: float) -> float:
    """``raw_s`` host seconds as seconds on the reference host speed."""
    return raw_s * REFERENCE_S / calibration_s
