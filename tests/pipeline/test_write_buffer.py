"""Unit tests for the write buffer (srcID CAM, counters, eligibility)."""

import pytest

from repro.isa import instructions as ops
from repro.pipeline.dyninst import DynInst
from repro.pipeline.replay import build_rows
from repro.pipeline.write_buffer import PUSHING, WriteBuffer


def store_dyn(seq, addr, src_ids=(), edk_def=0, edk_use=0, epoch=0):
    if edk_def or edk_use:
        inst = ops.store_ede(1, 0, edk_def=edk_def, edk_use=edk_use, addr=addr)
    else:
        inst = ops.store(1, 0, addr=addr)
    dyn = DynInst(seq, build_rows([inst])[0])
    dyn.src_ids = tuple(src_ids)
    dyn.store_epoch = epoch
    return dyn


def join_dyn(seq, src_ids=(), edk_def=3):
    dyn = DynInst(seq, build_rows([ops.join(edk_def, 1, 2)])[0])
    dyn.src_ids = tuple(src_ids)
    return dyn


def always_ok(_epoch):
    return True


class TestDeposit:
    def test_space_accounting(self):
        wb = WriteBuffer(capacity=2)
        wb.deposit(store_dyn(0, 0x40), 0, enforce_src_ids=False)
        assert wb.has_space()
        wb.deposit(store_dyn(1, 0x80), 0, enforce_src_ids=False)
        assert not wb.has_space()
        with pytest.raises(RuntimeError):
            wb.deposit(store_dyn(2, 0xC0), 0, enforce_src_ids=False)

    def test_cam_clears_absent_producers(self):
        """Deposit CAM: srcIDs whose producer already left are cleared."""
        wb = WriteBuffer(capacity=4)
        entry = wb.deposit(store_dyn(5, 0x40, src_ids=(3,)), 0,
                           enforce_src_ids=True)
        assert entry.src_ids == set()

    def test_cam_keeps_resident_producers(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(store_dyn(3, 0x40), 0, enforce_src_ids=True)
        entry = wb.deposit(store_dyn(5, 0x80, src_ids=(3,)), 0,
                           enforce_src_ids=True)
        assert entry.src_ids == {3}

    def test_no_enforcement_drops_src_ids(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(store_dyn(3, 0x40), 0, enforce_src_ids=False)
        entry = wb.deposit(store_dyn(5, 0x80, src_ids=(3,)), 0,
                           enforce_src_ids=False)
        assert entry.src_ids == set()


class TestCompletion:
    def test_remove_clears_matching_src_ids(self):
        wb = WriteBuffer(capacity=4)
        producer = wb.deposit(store_dyn(3, 0x40), 0, enforce_src_ids=True)
        consumer = wb.deposit(store_dyn(5, 0x80, src_ids=(3,)), 0,
                              enforce_src_ids=True)
        wb.remove(producer)
        assert consumer.src_ids == set()

    def test_remove_frees_space(self):
        wb = WriteBuffer(capacity=1)
        entry = wb.deposit(store_dyn(0, 0x40), 0, enforce_src_ids=False)
        wb.remove(entry)
        assert wb.has_space()


class TestEligibility:
    def test_src_id_blocks_push(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(store_dyn(3, 0x40), 0, enforce_src_ids=True)
        wb.deposit(store_dyn(5, 0x80, src_ids=(3,)), 0, enforce_src_ids=True)
        ready = wb.eligible_entries(always_ok)
        assert [e.seq for e in ready] == [3]

    def test_same_line_blocks_younger(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(store_dyn(1, 0x40), 0, enforce_src_ids=False)
        wb.deposit(store_dyn(2, 0x48), 0, enforce_src_ids=False)  # same line
        ready = wb.eligible_entries(always_ok)
        assert [e.seq for e in ready] == [1]

    def test_same_line_blocks_even_while_pushing(self):
        wb = WriteBuffer(capacity=4)
        first = wb.deposit(store_dyn(1, 0x40), 0, enforce_src_ids=False)
        first.state = PUSHING
        wb.deposit(store_dyn(2, 0x48), 0, enforce_src_ids=False)
        assert wb.eligible_entries(always_ok) == []

    def test_epoch_gate(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(store_dyn(1, 0x40, epoch=0), 0, enforce_src_ids=False)
        wb.deposit(store_dyn(2, 0x80, epoch=1), 0, enforce_src_ids=False)
        ready = wb.eligible_entries(lambda epoch: epoch == 0)
        assert [e.seq for e in ready] == [1]

    def test_pushing_entries_not_re_selected(self):
        wb = WriteBuffer(capacity=4)
        entry = wb.deposit(store_dyn(1, 0x40), 0, enforce_src_ids=False)
        entry.state = PUSHING
        assert wb.eligible_entries(always_ok) == []

    def test_oldest_first_order(self):
        wb = WriteBuffer(capacity=4)
        for seq in (1, 2, 3):
            wb.deposit(store_dyn(seq, 0x40 * (seq + 1)), 0,
                       enforce_src_ids=False)
        ready = wb.eligible_entries(always_ok)
        assert [e.seq for e in ready] == [1, 2, 3]


class TestCounters:
    def test_key_counters_track_residency(self):
        wb = WriteBuffer(capacity=4)
        entry = wb.deposit(store_dyn(1, 0x40, edk_def=5), 0,
                           enforce_src_ids=True)
        assert wb.key_counters[5] == 1
        assert wb.total_ede == 1
        wb.remove(entry)
        assert wb.key_counters[5] == 0
        assert wb.total_ede == 0

    def test_join_counts_all_its_keys(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(join_dyn(1), 0, enforce_src_ids=True)
        assert wb.key_counters[3] == 1
        assert wb.key_counters[1] == 1
        assert wb.key_counters[2] == 1

    def test_plain_stores_do_not_count(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(store_dyn(1, 0x40), 0, enforce_src_ids=True)
        assert wb.total_ede == 0

    def test_older_ede_queries(self):
        wb = WriteBuffer(capacity=4)
        wb.deposit(store_dyn(1, 0x40, edk_def=5), 0, enforce_src_ids=True)
        assert wb.older_ede_with_key(5, seq=10)
        assert not wb.older_ede_with_key(6, seq=10)
        assert not wb.older_ede_with_key(5, seq=0)  # younger than the entry
        assert wb.older_ede_any(seq=10)
        assert not wb.older_ede_any(seq=0)
