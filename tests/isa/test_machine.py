"""Tests for the functional machine."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, halt, mov_imm
from repro.isa.machine import Machine, MachineError, SparseMemory
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


def run(source, memory=None, max_steps=10_000):
    machine = Machine(memory)
    trace = machine.run(assemble(source + "\nhalt\n"), max_steps=max_steps)
    return machine, trace


class DictMemory:
    """A memory object that is not a :class:`SparseMemory`: aligned
    8-byte words in a plain dict."""

    def __init__(self):
        self.words = {}

    def load(self, addr, size=8):
        assert size == 8 and addr % 8 == 0
        return self.words.get(addr, 0)

    def store(self, addr, value, size=8):
        assert size == 8 and addr % 8 == 0
        self.words[addr] = value & ((1 << 64) - 1)

    def snapshot(self):
        return dict(self.words)


class TestSparseMemory:
    def test_default_zero(self):
        assert SparseMemory().load(0x1000) == 0

    def test_store_load_roundtrip(self):
        mem = SparseMemory()
        mem.store(0x1000, 0xDEADBEEF)
        assert mem.load(0x1000) == 0xDEADBEEF

    def test_subword_access(self):
        mem = SparseMemory()
        mem.store(0x1000, 0x1122334455667788)
        assert mem.load(0x1000, 1) == 0x88
        assert mem.load(0x1002, 2) == 0x5566
        assert mem.load(0x1004, 4) == 0x11223344

    def test_subword_store_preserves_rest(self):
        mem = SparseMemory()
        mem.store(0x1000, 0x1122334455667788)
        mem.store(0x1000, 0xFF, 1)
        assert mem.load(0x1000) == 0x11223344556677FF

    def test_unaligned_raises(self):
        mem = SparseMemory()
        with pytest.raises(MachineError):
            mem.load(0x1001, 8)
        with pytest.raises(MachineError):
            mem.store(0x1004, 1, 8)

    @pytest.mark.parametrize("size, addr", [
        (2, 0x1007), (4, 0x1006),   # straddle the word boundary at 0x1008
        (2, 0x1001), (4, 0x1002),   # inside one word, but misaligned
    ])
    def test_unaligned_subword_raises(self, size, addr):
        # Sub-word accesses follow the 8-byte rule: naturally aligned, so
        # none can spill into (or be truncated at) the next word.
        mem = SparseMemory()
        mem.store(0x1000, 0x1122334455667788)
        mem.store(0x1008, 0x99AABBCCDDEEFF00)
        with pytest.raises(MachineError,
                           match="unaligned %d-byte load at %#x" % (size, addr)):
            mem.load(addr, size)
        with pytest.raises(MachineError,
                           match="unaligned %d-byte store at %#x" % (size, addr)):
            mem.store(addr, 0xAABBCCDD, size)
        assert mem.snapshot() == {0x1000: 0x1122334455667788,
                                  0x1008: 0x99AABBCCDDEEFF00}


class TestArithmetic:
    def test_mov_add_sub(self):
        machine, _ = run("mov x0, #10\nadd x1, x0, #5\nsub x2, x1, x0")
        assert machine.regs[1] == 15
        assert machine.regs[2] == 5

    def test_logic(self):
        machine, _ = run(
            "mov x0, #12\nmov x1, #10\nand x2, x0, x1\n"
            "orr x3, x0, x1\neor x4, x0, x1")
        assert machine.regs[2] == 12 & 10
        assert machine.regs[3] == 12 | 10
        assert machine.regs[4] == 12 ^ 10

    def test_shifts_and_mul(self):
        machine, _ = run("mov x0, #3\nlsl x1, x0, #4\nlsr x2, x1, #2\n"
                         "mul x3, x0, x1")
        assert machine.regs[1] == 48
        assert machine.regs[2] == 12
        assert machine.regs[3] == 144

    def test_wraparound_64bit(self):
        machine, _ = run("mov x0, #0\nsub x1, x0, #1")
        assert machine.regs[1] == (1 << 64) - 1

    def test_xzr_reads_zero_and_discards_writes(self):
        machine, _ = run("mov x0, #7\nadd xzr, x0, #1\nadd x1, xzr, #0")
        assert machine.regs[1] == 0


class TestMemoryOps:
    def test_str_ldr(self):
        machine, trace = run("mov x0, #4096\nmov x1, #99\nstr x1, [x0]\n"
                             "ldr x2, [x0]")
        assert machine.regs[2] == 99
        assert trace[2].addr == 4096

    def test_stp_writes_two_words(self):
        machine, _ = run("mov x0, #4096\nmov x1, #1\nmov x2, #2\n"
                         "stp x1, x2, [x0]\nldr x3, [x0]\nldr x4, [x0, #8]")
        assert machine.regs[3] == 1
        assert machine.regs[4] == 2

    def test_offsets(self):
        machine, _ = run("mov x0, #4096\nmov x1, #5\nstr x1, [x0, #24]\n"
                         "ldr x2, [x0, #24]")
        assert machine.regs[2] == 5

    def test_cvap_and_barriers_traced_without_effect(self):
        machine, trace = run("mov x0, #4096\ndc cvap, x0\ndsb sy\ndmb st")
        opcodes = [inst.opcode for inst in trace]
        assert Opcode.DC_CVAP in opcodes
        assert Opcode.DSB_SY in opcodes
        assert trace[1].addr == 4096


class TestControlFlow:
    def test_loop(self):
        machine, trace = run("""
            mov x0, #0
        loop:
            add x0, x0, #1
            cmp x0, #5
            b.ne loop
        """)
        assert machine.regs[0] == 5
        # 1 mov + 5 * (add, cmp, b.ne)
        assert len(trace) == 1 + 15 + 1

    def test_b_ge_and_b_lt(self):
        machine, _ = run("""
            mov x0, #3
            cmp x0, #5
            b.lt less
            mov x1, #111
            b done
        less:
            mov x1, #222
        done:
            nop
        """)
        assert machine.regs[1] == 222

    def test_call_and_return(self):
        machine, _ = run("""
            mov x0, #1
            bl callee
            add x2, x0, #100
            b finish
        callee:
            add x0, x0, #10
            ret
        finish:
            nop
        """)
        assert machine.regs[0] == 11
        assert machine.regs[2] == 111

    def test_runaway_detection(self):
        with pytest.raises(MachineError):
            run("loop:\nb loop", max_steps=100)

    def test_trace_resolves_dynamic_addresses(self):
        _, trace = run("""
            mov x0, #4096
            mov x2, #0
        loop:
            str x2, [x0]
            add x0, x0, #8
            add x2, x2, #1
            cmp x2, #3
            b.ne loop
        """)
        store_addrs = [i.addr for i in trace if i.opcode is Opcode.STR]
        assert store_addrs == [4096, 4104, 4112]


class TestEdeTransparency:
    def test_ede_variants_execute_like_plain(self):
        machine, trace = run("""
            mov x0, #4096
            mov x3, #77
            dc cvap (1, 0), x0
            str (0, 1), x3, [x0]
            ldr x4, [x0]
            join (2, 1, 0)
            wait_key (2)
            wait_all_keys
        """)
        assert machine.regs[4] == 77
        assert any(i.opcode is Opcode.JOIN for i in trace)


class TestHypothesisAlu:
    @given(st.integers(0, (1 << 63) - 1), st.integers(0, (1 << 16) - 1))
    def test_add_matches_python(self, a, b):
        machine = Machine()
        machine.regs[0] = a
        _ = machine.run(assemble("add x1, x0, #%d\nhalt" % b))
        assert machine.regs[1] == (a + b) & ((1 << 64) - 1)

    @given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
    def test_cmp_flags_match_subtraction(self, a, b):
        machine = Machine()
        machine.regs[0] = a
        machine.regs[1] = b
        machine.run(assemble("cmp x0, x1\nhalt"))
        result = (a - b) & ((1 << 64) - 1)
        assert machine.flags.zero == (result == 0)
        assert machine.flags.negative == bool(result >> 63)


class TestRunBehaviour:
    def test_runaway_fires_at_exactly_max_steps(self):
        machine = Machine()
        program = assemble("""
            mov x0, #0
        loop:
            add x0, x0, #1
            eor x1, x0, x0
            b loop
            halt
        """)
        with pytest.raises(MachineError,
                           match=r"^exceeded 100 steps; runaway loop\?$"):
            machine.run(program, max_steps=100)
        assert len(machine.trace) == 100

    def test_exact_budget_succeeds(self):
        source = """
            mov x0, #0
        loop:
            add x0, x0, #1
            cmp x0, #3
            b.ne loop
            halt
        """
        # 1 mov + 3 * (add, cmp, b.ne) + halt retire 11 instructions.
        trace = Machine().run(assemble(source), max_steps=11)
        assert len(trace) == 11
        with pytest.raises(MachineError):
            Machine().run(assemble(source), max_steps=10)

    @pytest.mark.parametrize("source, message", [
        ("mov x0, #4097\nadd x1, x0, #0\nldr x2, [x0]",
         "unaligned 8-byte load at 0x1001"),
        ("mov x0, #4097\nmov x1, #1\nstr x1, [x0]",
         "unaligned 8-byte store at 0x1001"),
        ("mov x0, #4100\nmov x1, #1\nstp x1, x1, [x0]",
         "unaligned 8-byte store at 0x1004"),
    ], ids=["ldr", "str", "stp"])
    def test_unaligned_fault_messages(self, source, message):
        with pytest.raises(MachineError) as err:
            run(source)
        assert str(err.value) == message

    def test_non_sparse_memory_object(self):
        """Any object with ``load``/``store``/``snapshot`` serves as memory."""
        machine = Machine(memory=DictMemory())
        trace = machine.run(assemble(GOLDEN_PROGRAMS["tight_loop"]))
        assert state_digest(machine, trace) == GOLDEN_DIGESTS["tight_loop"]

    def test_mid_block_entry_via_computed_ret(self):
        machine = Machine()
        machine.run(assemble(GOLDEN_CASES["mid_block_ret"]))
        assert machine.regs[0] == 4  # only pcs 0-2 and 6-7 executed

    def test_repeated_runs_accumulate_trace(self):
        program = assemble("mov x0, #1\nhalt")
        machine = Machine()
        for _ in range(3):
            machine.run(program)
        assert [i.opcode for i in machine.trace] == [Opcode.MOV,
                                                     Opcode.HALT] * 3

    def test_grown_program_runs_new_instructions(self):
        program = assemble("mov x0, #1\nhalt")
        Machine().run(program)
        program.add(mov_imm(2, 9))
        program.add(halt())
        machine = Machine()
        machine.run(program, start=2)
        assert machine.regs[2] == 9

    def test_trace_objects_expose_timing_metadata(self):
        """Instructions rewritten with resolved addresses keep the
        precomputed timing-model views."""
        _, trace = run("mov x0, #4096\nmov x1, #5\nstr x1, [x0]")
        store = next(i for i in trace if i.opcode is Opcode.STR)
        assert store.addr == 4096
        assert store.timing_src_regs == (1, 0)
        assert store.consumer_keys() == ()
        assert store.enters_iq


# ---------------------------------------------------------------------------
# Golden digests: trace, registers, flags and memory of each program, as
# committed literals.  Any change to the interpreter's semantics shows up
# here.
# ---------------------------------------------------------------------------

# The paper listings and one program per construct family.  test_fusion and
# test_threaded_machine rerun these under other run settings.
GOLDEN_PROGRAMS = {
    "figure4_undo_log": """
        mov x0, #8519680
        mov x2, #9568256
        ldr x1, [x0]
        stp x0, x1, [x2]
        dc cvap, x2
        dsb sy
        mov x3, #6
        str x3, [x0]
        dc cvap, x0
        halt
    """,
    "figure7_ede": """
        mov x0, #8519680
        mov x2, #9568256
        ldr x1, [x0]
        stp x0, x1, [x2]
        dc cvap (1, 0), x2
        mov x3, #6
        str (0, 1), x3, [x0]
        dc cvap, x0
        halt
    """,
    "tight_loop": """
        mov x0, #4096
        mov x1, #0
    loop:
        str x1, [x0]
        ldr x2, [x0]
        stp x1, x2, [x0, #8]
        add x0, x0, #32
        add x1, x1, #3
        cmp x1, #90
        b.ne loop
        halt
    """,
    "call_ret_chain": """
        mov x0, #1
        bl callee
        add x2, x0, #100
        bl callee
        b finish
    callee:
        add x0, x0, #10
        ret
    finish:
        halt
    """,
    "flags_negative_path": """
        mov x0, #3
        cmp x0, #5
        b.lt less
        mov x1, #111
        b done
    less:
        mov x1, #222
    done:
        cmp x0, #3
        b.eq equal
        mov x3, #1
    equal:
        cmp xzr, #0
        b.ge end
        mov x4, #9
    end:
        halt
    """,
    "xzr_sinks_and_sources": """
        mov x0, #7
        add xzr, x0, #1
        add x1, xzr, #0
        mov xzr, #42
        mov x2, xzr
        mul x3, x0, x0
        eor x3, x3, x0
        lsl x4, x0, #5
        lsr x5, x4, #2
        orr x6, x4, x5
        and x7, x6, x0
        halt
    """,
    "wraparound_and_barriers": """
        mov x0, #0
        sub x1, x0, #1
        dmb st
        dmb sy
        join (2, 1, 0)
        wait_key (2)
        wait_all_keys
        halt
    """,
    "ede_memory_variants": """
        mov x0, #4096
        mov x3, #77
        dc cvap (1, 0), x0
        str (0, 1), x3, [x0]
        ldr (2, 0), x4, [x0]
        stp (0, 2), x3, x4, [x0, #16]
        halt
    """,
}


def _random_alu_programs():
    rng = random.Random(2021)
    ops = ("add", "sub", "and", "orr", "eor", "mul", "lsl", "lsr")
    programs = {}
    for index in range(10):
        lines = ["mov x%d, #%d" % (r, rng.randrange(1 << 12))
                 for r in range(8)]
        for _ in range(40):
            op = rng.choice(ops)
            rd, rn, rm = (rng.randrange(8) for _ in range(3))
            if op in ("lsl", "lsr") or rng.random() < 0.4:
                lines.append("%s x%d, x%d, #%d"
                             % (op, rd, rn, rng.randrange(64)))
            else:
                lines.append("%s x%d, x%d, x%d" % (op, rd, rn, rm))
        lines.append("halt")
        programs["random_alu_%d" % index] = "\n".join(lines)
    return programs


def _branch_edge_programs():
    # Every condition on both sides of the zero/negative boundary.
    programs = {}
    for lhs, rhs in ((0, 0), (1, 0), (0, 1), (5, 5), (4, 5), (6, 5)):
        for cond in ("eq", "ne", "lt", "ge"):
            programs["branch_%s_%d_%d" % (cond, lhs, rhs)] = """
                mov x0, #%d
                cmp x0, #%d
                b.%s taken
                mov x1, #1
                b out
            taken:
                mov x1, #2
            out:
                halt
            """ % (lhs, rhs, cond)
    return programs


def _subword_program():
    """Aligned 1/2/4-byte accesses (the assembler only emits 8-byte ones)."""
    program = Program()
    program.add(mov_imm(0, 4096))
    program.add(mov_imm(1, 0x1122334455667788))
    program.add(Instruction(Opcode.STR, src=(1, 0)))
    for size, offset in ((1, 3), (2, 6), (4, 4)):
        program.add(Instruction(Opcode.LDR, dst=(2 + size,), src=(0,),
                                imm=offset, size=size))
    program.add(mov_imm(7, 0xFFFFEEEE))
    program.add(Instruction(Opcode.STR, src=(7, 0), imm=12, size=4))
    program.add(Instruction(Opcode.STR, src=(7, 0), imm=1, size=1))
    program.add(Instruction(Opcode.LDR, dst=(8,), src=(0,)))
    program.add(halt())
    return program


GOLDEN_CASES = dict(
    GOLDEN_PROGRAMS, **_random_alu_programs(), **_branch_edge_programs(),
    subword_aligned=_subword_program(),
    store_then_load="""
        mov x0, #4096
        mov x1, #255
        str x1, [x0]
        ldr x2, [x0]
        halt
    """,
    # A computed RET into the middle of a straight-line run.
    mid_block_ret="""
        mov x0, #1
        mov x30, #6
        ret
        add x0, x0, #100
        add x0, x0, #1000
        add x0, x0, #10000
        add x0, x0, #3
        halt
    """)


def state_digest(machine, trace):
    """Digest of a run: every trace entry's opcode, operands, ``addr`` and
    ``size``, then the register file, the flags and the memory snapshot."""
    h = hashlib.sha256()
    for inst in trace:
        h.update(repr((inst.opcode.name, inst.dst, inst.src, inst.imm,
                       inst.edk_def, inst.edk_use, inst.edk_use2, inst.addr,
                       inst.size, inst.target)).encode())
    h.update(repr(list(machine.regs)).encode())
    h.update(repr((machine.flags.negative, machine.flags.zero)).encode())
    h.update(repr(sorted(machine.memory.snapshot().items())).encode())
    return h.hexdigest()[:16]


GOLDEN_DIGESTS = {
    "branch_eq_0_0": "9f2b5667babf4042",
    "branch_eq_0_1": "06361d7e7774295d",
    "branch_eq_1_0": "17d3555d8527fd30",
    "branch_eq_4_5": "1a427bef4eae9bd7",
    "branch_eq_5_5": "ecbe99d29090252e",
    "branch_eq_6_5": "0262a99d10baf0c3",
    "branch_ge_0_0": "e2bc325ee0ed6024",
    "branch_ge_0_1": "81177fc2a1fcaf78",
    "branch_ge_1_0": "a8ddc1c2ca2a3429",
    "branch_ge_4_5": "457f7cb99fd8e289",
    "branch_ge_5_5": "a00018c937d3d68e",
    "branch_ge_6_5": "28ca0f4a3d89f591",
    "branch_lt_0_0": "91e3851c315248a0",
    "branch_lt_0_1": "d3d07c5740025480",
    "branch_lt_1_0": "38c80cd3d53ae386",
    "branch_lt_4_5": "e8c5780a6a312c7b",
    "branch_lt_5_5": "fc3f1a7e3f0caec4",
    "branch_lt_6_5": "d13f978a0a74d78c",
    "branch_ne_0_0": "4c507cdac8aa4536",
    "branch_ne_0_1": "6d085e6dc65ea2e8",
    "branch_ne_1_0": "cce7a7d7bd780aac",
    "branch_ne_4_5": "6adcb43ffc8d3e73",
    "branch_ne_5_5": "d730f53d129155b7",
    "branch_ne_6_5": "9564ca2faac312b9",
    "call_ret_chain": "6f45c4fd0df01013",
    "ede_memory_variants": "04c9305f910d096f",
    "figure4_undo_log": "b61260c7b3fd54ad",
    "figure7_ede": "384f0e9cf94c6a51",
    "flags_negative_path": "07b9b8385f28878a",
    "mid_block_ret": "16f4b05d81cdd751",
    "random_alu_0": "8f1bbba98e09b98a",
    "random_alu_1": "f7e608065e368906",
    "random_alu_2": "0b03d0df564a040f",
    "random_alu_3": "924b13e95e95c845",
    "random_alu_4": "30729bf90f1ae27e",
    "random_alu_5": "70385a7568e72eba",
    "random_alu_6": "4e0d5f9b1ed92b40",
    "random_alu_7": "05ee01dc448d85e0",
    "random_alu_8": "d73c3f236f0293a1",
    "random_alu_9": "fe13ba2140d34a7c",
    "store_then_load": "0bd4449f844046a6",
    "subword_aligned": "d3a8a9d3a6f6fc22",
    "tight_loop": "532ce4da02e75a86",
    "wraparound_and_barriers": "7efb6481935e1bcd",
    "xzr_sinks_and_sources": "9f979b8d88228850",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_digest(name):
    case = GOLDEN_CASES[name]
    program = assemble(case) if isinstance(case, str) else case
    machine = Machine()
    trace = machine.run(program, max_steps=100_000)
    assert state_digest(machine, trace) == GOLDEN_DIGESTS[name]
