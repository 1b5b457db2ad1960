"""Golden programs under other run settings.

The module name dates from the superinstruction interpreter these programs
were once compared against; ``Machine.run`` is now the only interpreter.
The checks here vary what the caller controls: the memory object, the
step budget, and whether the machine has already completed a run.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.machine import Machine, MachineError
from repro.isa.opcodes import Opcode
from tests.isa.test_machine import (
    GOLDEN_DIGESTS,
    GOLDEN_PROGRAMS,
    DictMemory,
    state_digest,
)


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_equality_fused(name):
    """A memory object that is not a SparseMemory gives the golden run."""
    machine = Machine(memory=DictMemory())
    trace = machine.run(assemble(GOLDEN_PROGRAMS[name]))
    assert state_digest(machine, trace) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_knob_off_and_on_agree(name):
    """The step budget only bounds a run: the default budget and a budget
    of exactly the retired count give the golden run; one less faults."""
    program = assemble(GOLDEN_PROGRAMS[name])
    default = Machine()
    retired = len(default.run(program))
    exact = Machine()
    exact.run(program, max_steps=retired)
    assert state_digest(default, default.trace) == GOLDEN_DIGESTS[name]
    assert state_digest(exact, exact.trace) == GOLDEN_DIGESTS[name]
    with pytest.raises(MachineError,
                       match=r"^exceeded %d steps" % (retired - 1)):
        Machine().run(program, max_steps=retired - 1)


class TestFaultParity:
    """A fault is the same on a fresh machine and on one that has already
    completed a run: the step budget counts the current run only."""

    def _fault_after(self, prior_runs, source, max_steps=100):
        machine = Machine()
        for _ in range(prior_runs):
            machine.run(assemble("mov x9, #1\nhalt"))
        done = len(machine.trace)
        with pytest.raises(MachineError) as err:
            machine.run(assemble(source), max_steps=max_steps)
        return str(err.value), machine.trace[done:]

    @pytest.mark.parametrize("prior_runs", [0, 1])
    def test_runaway_through_fused_loop(self, prior_runs):
        message, trace = self._fault_after(prior_runs, """
            mov x0, #0
        loop:
            add x0, x0, #1
            eor x1, x0, x0
            b loop
            halt
        """)
        assert message == "exceeded 100 steps; runaway loop?"
        assert len(trace) == 100

    @pytest.mark.parametrize("prior_runs", [0, 1])
    def test_unaligned_load_mid_chunk(self, prior_runs):
        message, trace = self._fault_after(
            prior_runs, "mov x0, #4097\nadd x1, x0, #0\nldr x2, [x0]\nhalt")
        assert message == "unaligned 8-byte load at 0x1001"
        assert [i.opcode for i in trace] == [Opcode.MOV, Opcode.ADD]

    @pytest.mark.parametrize("prior_runs", [0, 1])
    def test_unaligned_stp_mid_chunk(self, prior_runs):
        message, trace = self._fault_after(
            prior_runs, "mov x0, #4100\nmov x1, #1\nstp x1, x1, [x0]\nhalt")
        assert message == "unaligned 8-byte store at 0x1004"
        assert [i.opcode for i in trace] == [Opcode.MOV, Opcode.MOV]
