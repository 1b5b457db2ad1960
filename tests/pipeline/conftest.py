"""Shared pipeline test fixtures and helpers."""

import dataclasses
import hashlib
from typing import List, Optional, Sequence

from repro.core.policies import EnforcementPolicy, FENCE_POLICY
from repro.harness.configs import DEFAULT_PARAMS
from repro.harness.runner import warm_hierarchy
from repro.isa.instructions import Instruction, halt
from repro.memory.controller import AddressMap, MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.params import CoreParams

NVM = AddressMap().nvm_base


def make_core(trace: Sequence[Instruction],
              policy: EnforcementPolicy = FENCE_POLICY,
              params: CoreParams = CoreParams(),
              warm_lines: Optional[List[int]] = None,
              squash_at: Sequence[int] = ()):
    """Build a core over a fresh memory system; warm the given lines."""
    trace = list(trace)
    if not trace or trace[-1].opcode.name != "HALT":
        trace.append(halt())
    controller = MemoryController()
    hierarchy = CacheHierarchy(controller)
    for line in warm_lines or ():
        for cache in (hierarchy.l3, hierarchy.l2, hierarchy.l1d):
            cache.insert(line)
    core = OutOfOrderCore(trace, hierarchy, policy, params,
                          squash_at=squash_at)
    return core, controller


def run_and_capture(trace, policy=FENCE_POLICY, params=CoreParams(),
                    warm_lines=None, squash_at=()):
    """Run a trace; return (core, controller, completed DynInsts by seq)."""
    core, controller = make_core(trace, policy, params, warm_lines, squash_at)
    completed = {}

    def capture(dyn):
        completed[dyn.seq] = dyn

    core.on_complete = capture
    core.run()
    return core, controller, completed


def observables_digest(core, controller) -> str:
    """One hash over every observable of a finished simulation.

    Covers ``dataclasses.asdict(stats)`` (the issue histogram sorted, so
    the digest does not depend on the order its cycles were recorded in),
    the store-visibility records and the persist log.  Golden digests are
    literals of this function, so the engine is pinned without a second
    implementation to compare against.
    """
    stats = dataclasses.asdict(core.stats)
    stats["issue_histogram"] = sorted(stats["issue_histogram"].items())
    payload = (stats, list(core.store_visibility),
               [dataclasses.astuple(record)
                for record in controller.persist_log.records()])
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def simulate_digest(built, config, replay=None, squash_at=()):
    """Simulate a built workload on warm caches; digest its observables."""
    params = DEFAULT_PARAMS
    controller = MemoryController(
        address_map=params.address_map,
        dram_params=params.dram,
        nvm_params=params.nvm,
    )
    hierarchy = CacheHierarchy(controller, params.hierarchy)
    warm_hierarchy(hierarchy, built)
    core = OutOfOrderCore(built.trace, hierarchy, config.policy,
                          params.core, squash_at=squash_at, replay=replay)
    stats = core.run()
    controller.nvm.drain_all(stats.cycles)
    return observables_digest(core, controller)
