"""Golden programs are repeatable, and a fault retires nothing.

Running a :class:`Program` does not change it: the same program object
gives the same trace and state on every fresh machine.  A faulting
instruction is not retired: it is missing from the trace and has written
no register or memory word.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.machine import Machine, MachineError
from repro.isa.opcodes import Opcode
from tests.isa.test_machine import GOLDEN_DIGESTS, GOLDEN_PROGRAMS, state_digest


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_equality(name):
    program = assemble(GOLDEN_PROGRAMS[name])
    before = list(program.instructions)
    first, second = Machine(), Machine()
    first_trace = first.run(program)
    second_trace = second.run(program)
    assert program.instructions == before
    assert second_trace == first_trace
    assert state_digest(first, first_trace) == GOLDEN_DIGESTS[name]
    assert state_digest(second, second_trace) == GOLDEN_DIGESTS[name]


class TestFaultParity:
    """Each fault raises its exact message before the instruction retires."""

    def _fault(self, source, message, max_steps=100):
        machine = Machine()
        with pytest.raises(MachineError) as err:
            machine.run(assemble(source), max_steps=max_steps)
        assert str(err.value) == message
        return machine

    def test_runaway(self):
        machine = self._fault("loop:\nb loop\nhalt",
                              "exceeded 100 steps; runaway loop?")
        assert [i.opcode for i in machine.trace] == [Opcode.B] * 100

    def test_unaligned_load(self):
        machine = self._fault("mov x0, #4097\nmov x1, #5\nldr x1, [x0]\nhalt",
                              "unaligned 8-byte load at 0x1001")
        assert [i.opcode for i in machine.trace] == [Opcode.MOV, Opcode.MOV]
        assert machine.regs[1] == 5

    def test_unaligned_stp(self):
        machine = self._fault(
            "mov x0, #4100\nmov x1, #1\nstp x1, x1, [x0]\nhalt",
            "unaligned 8-byte store at 0x1004")
        assert [i.opcode for i in machine.trace] == [Opcode.MOV, Opcode.MOV]
        assert machine.memory.snapshot() == {}
