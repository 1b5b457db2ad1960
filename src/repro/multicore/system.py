"""N-core machines: one global clock over N coherent pipelines.

:func:`simulate_built` builds one :class:`~repro.multicore.core.CoherentCore`
per core trace, over per-core
:class:`~repro.multicore.coherence.CoherentHierarchy` instances that share
one memory controller and coherence directory, plus the
:class:`~repro.multicore.edm_bus.SharedEdmBus`.  It runs them under
:func:`repro.pipeline.core.drive`, the same clock every single-core run
uses: each cycle resumes every live core's engine in ascending core-id
order — the deterministic total order underneath every cross-core
interaction (bus publishes, coherence probes, controller traffic) — and
idle stretches fast-forward to the earliest event across the cores.

At N=1 it runs a plain :class:`~repro.pipeline.core.OutOfOrderCore` on a
plain :class:`~repro.memory.hierarchy.CacheHierarchy` — no bus, no
coherence directory — so results are bit-identical to the single-core
runner.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, warm_hierarchy
from repro.multicore import knobs
from repro.multicore.coherence import CoherenceDirectory, CoherentHierarchy
from repro.multicore.core import CoherentCore
from repro.multicore.edm_bus import SharedEdmBus
from repro.pipeline.core import OutOfOrderCore, drive
from repro.pipeline.replay import core_meta_for, meta_for
from repro.pipeline.stats import PipelineStats


@dataclasses.dataclass
class MulticoreResult:
    """What one N-core simulation produces for the harness."""

    cores: int
    stats: PipelineStats               # merged machine view
    core_stats: List[PipelineStats]    # per-core, ascending core id
    store_visibility: List[tuple]      # merged, deterministic order
    controller: MemoryController
    coherence: Optional[CoherenceDirectory]
    bus: Optional[SharedEdmBus]


def merge_stats(core_stats: List[PipelineStats]) -> PipelineStats:
    """Machine-level stats: counters summed, cycles = slowest core."""
    merged = PipelineStats()
    merged.cycles = max(s.cycles for s in core_stats)
    for stats in core_stats:
        merged.dispatched += stats.dispatched
        merged.issued += stats.issued
        merged.retired += stats.retired
        merged.squashes += stats.squashes
        merged.retire_stall_wb_full += stats.retire_stall_wb_full
        merged.retire_stall_dsb += stats.retire_stall_dsb
        merged.retire_stall_wait += stats.retire_stall_wait
        merged.dispatch_stall_rob += stats.dispatch_stall_rob
        merged.dispatch_stall_iq += stats.dispatch_stall_iq
        merged.dispatch_stall_lsq += stats.dispatch_stall_lsq
        for issued, count in stats.issue_histogram.items():
            merged.issue_histogram[issued] = (
                merged.issue_histogram.get(issued, 0) + count)
    return merged


def _merge_visibility(cores: List[OutOfOrderCore]) -> List[tuple]:
    """Merged (cycle, seq, tag, addr) records in (cycle, core, seq) order.

    Persist tags are globally unique (per-core op-id offsets), so the
    consistency checker needs no core column; the core id only breaks
    same-cycle ties deterministically.
    """
    tagged = []
    for index, core in enumerate(cores):
        for entry in core.store_visibility:
            tagged.append((entry[0], index, entry[1], entry))
    tagged.sort(key=lambda item: item[:3])
    return [item[3] for item in tagged]


def simulate_built(built, config, params, warm: bool = True,
                   max_cycles: int = 500_000_000) -> MulticoreResult:
    """Simulate a built workload on ``built.cores`` coherent cores."""
    cores_n = getattr(built, "cores", 1)
    controller = MemoryController(
        address_map=params.address_map,
        dram_params=params.dram,
        nvm_params=params.nvm,
    )
    if cores_n == 1:
        hierarchy = CacheHierarchy(controller, params.hierarchy)
        if warm:
            warm_hierarchy(hierarchy, built)
        core = OutOfOrderCore(built.trace, hierarchy, config.policy,
                              params.core, replay=meta_for(built))
        drive([core], max_cycles=max_cycles)
        return MulticoreResult(
            cores=1,
            stats=core.stats,
            core_stats=[core.stats],
            store_visibility=list(core.store_visibility),
            controller=controller,
            coherence=None,
            bus=None,
        )
    directory = CoherenceDirectory(enabled=knobs.coherence_enabled())
    bus = SharedEdmBus()
    cores: List[CoherentCore] = []
    for core_id in range(cores_n):
        hierarchy = CoherentHierarchy(controller, params.hierarchy,
                                      directory, core_id)
        if warm:
            warm_hierarchy(hierarchy, built)
        cores.append(CoherentCore(core_id, bus, built.core_traces[core_id],
                                  hierarchy, config.policy, params.core,
                                  replay=core_meta_for(built, core_id)))
    drive(cores, max_cycles=max_cycles)
    core_stats = [core.stats for core in cores]
    return MulticoreResult(
        cores=cores_n,
        stats=merge_stats(core_stats),
        core_stats=core_stats,
        store_visibility=_merge_visibility(cores),
        controller=controller,
        coherence=directory,
        bus=bus,
    )
