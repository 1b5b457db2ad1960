"""Progress watchdog: livelocks and budget blowouts die loudly."""

import dataclasses

import pytest

from repro.isa import instructions as ops
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.core import OutOfOrderCore, SimulationError
from repro.pipeline.params import CoreParams

from tests.pipeline.conftest import NVM, make_core

#: Far beyond every watchdog limit and cycle budget used below (and the
#: default 500M-cycle budget).
NEVER = 10 ** 12


class StallingHierarchy(CacheHierarchy):
    """Test double: every load's data returns ``NEVER`` cycles later."""

    def load(self, addr: int, cycle: int) -> int:
        return cycle + NEVER


def livelocked_core(params=CoreParams()):
    """A core whose ROB head never drains although an event is still
    scheduled: the head is a load whose data return lies beyond the
    watchdog limit and the cycle budget.  Because something is always
    scheduled, the quiescence-based deadlock detector never fires — only
    the watchdog (or, with it off, the budget) can catch it."""
    trace = [ops.ldr(0, 1, addr=NVM)] + [ops.nop() for _ in range(4)]
    trace.append(ops.halt())
    return OutOfOrderCore(trace, StallingHierarchy(MemoryController()),
                          params=params)


class TestNoRetireWatchdog:
    def test_livelock_raises_with_report(self):
        core = livelocked_core()
        with pytest.raises(SimulationError) as excinfo:
            core.run(no_retire_limit=500)
        message = str(excinfo.value)
        assert "no instruction retired" in message
        assert "watchdog limit 500" in message
        # The rich pipeline-state report rides along.
        assert "ROB:" in message and "event heap" in message

    def test_limit_defaults_to_params(self):
        params = dataclasses.replace(CoreParams(), watchdog_no_retire=300)
        core = livelocked_core(params=params)
        with pytest.raises(SimulationError, match="watchdog limit 300"):
            core.run()

    def test_zero_disables_the_watchdog(self):
        core = livelocked_core()
        # With the watchdog off, only the cycle budget stops the livelock.
        with pytest.raises(SimulationError, match="cycle budget"):
            core.run(max_cycles=2_000, no_retire_limit=0)

    def test_healthy_run_unaffected(self):
        trace = [ops.mov_imm(r % 8, r) for r in range(32)]
        core, _ = make_core(trace)
        stats = core.run(no_retire_limit=100)
        assert stats.retired == len(trace) + 1  # + HALT

    def test_param_validates_zero_but_not_negative(self):
        dataclasses.replace(CoreParams(), watchdog_no_retire=0).validate()
        with pytest.raises(ValueError, match="watchdog_no_retire"):
            dataclasses.replace(CoreParams(),
                                watchdog_no_retire=-1).validate()


class TestCycleBudget:
    def test_budget_blowout_carries_state_report(self):
        core = livelocked_core()
        with pytest.raises(SimulationError) as excinfo:
            core.run(max_cycles=1_000, no_retire_limit=0)
        message = str(excinfo.value)
        assert "exceeded the 1000-cycle budget" in message
        assert "fetch index" in message
