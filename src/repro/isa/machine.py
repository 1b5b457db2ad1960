"""Functional (architectural) execution of assembled programs.

The timing model is trace-driven, so something must first execute a program
architecturally to resolve branches and effective addresses.  For workloads
that is the NVM framework (which executes in Python and emits instructions
directly); for hand-written assembly — the paper's Figures 4, 7 and 12 —
this module provides a simple sequential machine.

The machine models 64-bit registers, NZCV-style flags (only N and Z are
needed by the supported branches), and a sparse 64-bit word-addressed
memory.  Persist and barrier instructions have no functional effect; they
are recorded in the emitted trace for the timing model.

One interpreter is enough
-------------------------

:meth:`Machine.run` dispatches on the opcode once per retired instruction.
Workload traces never come through here — :mod:`repro.nvmfw` emits them
directly — so the machine only runs hand-written listings (the paper's
figures, the examples and the tests) of a few hundred instructions, where
interpretation speed does not matter.  Keeping one step semantics keeps
the traces it emits easy to audit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import dataclasses

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REG_ENCODINGS, XZR

_MASK64 = (1 << 64) - 1


class MachineError(RuntimeError):
    """Raised on an illegal architectural event (bad address, runaway loop)."""


@dataclasses.dataclass
class Flags:
    negative: bool = False
    zero: bool = False


class SparseMemory:
    """Sparse little-endian memory, stored as aligned 8-byte words.

    Every access must be naturally aligned (``addr % size == 0``), so a
    1-, 2- or 4-byte access never straddles two words.
    """

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    def load(self, addr: int, size: int = 8) -> int:
        if size not in (1, 2, 4, 8):
            raise MachineError("unsupported load size %d" % size)
        if addr % size:
            raise MachineError("unaligned %d-byte load at %#x" % (size, addr))
        word = self._words.get(addr - addr % 8, 0)
        if size == 8:
            return word
        return (word >> ((addr % 8) * 8)) & ((1 << (size * 8)) - 1)

    def store(self, addr: int, value: int, size: int = 8) -> None:
        if size not in (1, 2, 4, 8):
            raise MachineError("unsupported store size %d" % size)
        if addr % size:
            raise MachineError("unaligned %d-byte store at %#x" % (size, addr))
        value &= (1 << (size * 8)) - 1
        if size == 8:
            self._words[addr] = value
            return
        base = addr - addr % 8
        shift = (addr % 8) * 8
        mask = ((1 << (size * 8)) - 1) << shift
        word = self._words.get(base, 0)
        self._words[base] = (word & ~mask) | (value << shift)

    def snapshot(self) -> Dict[int, int]:
        return dict(self._words)


class Machine:
    """Executes a :class:`Program` and emits a dynamic trace."""

    def __init__(self, memory: Optional[SparseMemory] = None):
        self.regs = [0] * NUM_REG_ENCODINGS
        self.flags = Flags()
        self.memory = memory if memory is not None else SparseMemory()
        self.trace: List[Instruction] = []

    # --- register helpers ---------------------------------------------------

    def read_reg(self, reg: int) -> int:
        if reg == XZR:
            return 0
        return self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        if reg == XZR:
            return
        self.regs[reg] = value & _MASK64

    # --- execution ------------------------------------------------------------

    def run(self, program: Program, start: int = 0,
            max_steps: int = 1_000_000) -> List[Instruction]:
        """Execute until HALT (or falling off the end); return the trace.

        Raises :class:`MachineError` before retiring instruction
        ``max_steps + 1``, so a runaway trace holds exactly ``max_steps``.
        """
        pc = start
        steps = 0
        instructions = program.instructions
        labels = program.labels
        while pc < len(instructions):
            steps += 1
            if steps > max_steps:
                raise MachineError("exceeded %d steps; runaway loop?" % max_steps)
            inst = instructions[pc]
            next_pc = pc + 1
            opcode = inst.opcode

            if opcode is Opcode.HALT:
                self._emit(inst)
                break
            if opcode is Opcode.NOP:
                self._emit(inst)
            elif opcode is Opcode.MOV:
                value = self.read_reg(inst.src[0]) if inst.src else inst.imm
                self.write_reg(inst.dst[0], value)
                self._emit(inst)
            elif opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR,
                            Opcode.EOR, Opcode.MUL, Opcode.LSL, Opcode.LSR):
                lhs = self.read_reg(inst.src[0])
                rhs = self.read_reg(inst.src[1]) if len(inst.src) == 2 else inst.imm
                self.write_reg(inst.dst[0], _alu(opcode, lhs, rhs))
                self._emit(inst)
            elif opcode is Opcode.CMP:
                lhs = self.read_reg(inst.src[0])
                rhs = self.read_reg(inst.src[1]) if len(inst.src) == 2 else inst.imm
                result = (lhs - rhs) & _MASK64
                self.flags.zero = result == 0
                self.flags.negative = bool(result >> 63)
                self._emit(inst)
            elif opcode in (Opcode.LDR, Opcode.LDR_EDE):
                addr = self.read_reg(inst.src[0]) + inst.imm
                self.write_reg(inst.dst[0], self.memory.load(addr, inst.size))
                self._emit(inst, addr)
            elif opcode in (Opcode.STR, Opcode.STR_EDE):
                addr = self.read_reg(inst.src[1]) + inst.imm
                self.memory.store(addr, self.read_reg(inst.src[0]), inst.size)
                self._emit(inst, addr)
            elif opcode in (Opcode.STP, Opcode.STP_EDE):
                addr = self.read_reg(inst.src[2]) + inst.imm
                self.memory.store(addr, self.read_reg(inst.src[0]), 8)
                self.memory.store(addr + 8, self.read_reg(inst.src[1]), 8)
                self._emit(inst, addr)
            elif opcode in (Opcode.DC_CVAP, Opcode.DC_CVAP_EDE):
                addr = self.read_reg(inst.src[0])
                self._emit(inst, addr)
            elif opcode in (Opcode.DSB_SY, Opcode.DMB_ST, Opcode.DMB_SY,
                            Opcode.JOIN, Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS):
                self._emit(inst)
            elif opcode is Opcode.B:
                next_pc = _resolve_target(inst, labels)
                self._emit(inst)
            elif opcode is Opcode.BL:
                self.write_reg(30, pc + 1)
                next_pc = _resolve_target(inst, labels)
                self._emit(inst)
            elif opcode is Opcode.RET:
                next_pc = self.read_reg(30)
                self._emit(inst)
            elif opcode in (Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE):
                taken = _condition_holds(opcode, self.flags)
                if taken:
                    next_pc = _resolve_target(inst, labels)
                self._emit(inst)
            else:
                raise MachineError("unhandled opcode %s" % opcode.name)

            pc = next_pc
        return self.trace

    def _emit(self, inst: Instruction, addr: Optional[int] = None) -> None:
        if addr is not None and inst.addr != addr:
            inst = dataclasses.replace(inst, addr=addr)
        self.trace.append(inst)


def _alu(opcode: Opcode, lhs: int, rhs: int) -> int:
    if opcode is Opcode.ADD:
        return lhs + rhs
    if opcode is Opcode.SUB:
        return lhs - rhs
    if opcode is Opcode.AND:
        return lhs & rhs
    if opcode is Opcode.ORR:
        return lhs | rhs
    if opcode is Opcode.EOR:
        return lhs ^ rhs
    if opcode is Opcode.MUL:
        return lhs * rhs
    if opcode is Opcode.LSL:
        return lhs << (rhs & 63)
    if opcode is Opcode.LSR:
        return (lhs & _MASK64) >> (rhs & 63)
    raise MachineError("not an ALU opcode: %s" % opcode.name)


def _condition_holds(opcode: Opcode, flags: Flags) -> bool:
    if opcode is Opcode.B_EQ:
        return flags.zero
    if opcode is Opcode.B_NE:
        return not flags.zero
    if opcode is Opcode.B_LT:
        return flags.negative
    if opcode is Opcode.B_GE:
        return not flags.negative
    raise MachineError("not a conditional branch: %s" % opcode.name)


def _resolve_target(inst: Instruction, labels: Dict[str, int]) -> int:
    if inst.target is not None:
        try:
            return labels[inst.target]
        except KeyError:
            raise MachineError("undefined label %r" % (inst.target,)) from None
    return inst.imm
