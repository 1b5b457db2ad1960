"""Tests for squash injection and EDM checkpoint recovery (Section V-A1)."""

import pytest

import repro.workloads  # noqa: F401  (registers workloads)
from repro.core.policies import IQ_POLICY, WB_POLICY
from repro.harness.configs import configuration
from repro.isa import instructions as ops
from repro.isa.opcodes import Opcode
from repro.workloads import Scale
from repro.workloads import base as workload_base

from tests.pipeline.conftest import (
    NVM,
    make_core,
    observables_digest,
    simulate_digest,
)

LINE_A = NVM + 0x4000
LINE_B = NVM + 0x8000
LINES = [LINE_A, LINE_B]


def ede_trace():
    return [
        ops.mov_imm(0, LINE_A),
        ops.mov_imm(1, 1),
        ops.store(1, 0, addr=LINE_A),
        ops.dc_cvap_ede(0, edk_def=1, edk_use=0, addr=LINE_A, comment="p"),
        ops.mov_imm(2, LINE_B),
        ops.mov_imm(3, 2),
        ops.store_ede(3, 2, edk_def=0, edk_use=1, addr=LINE_B, comment="c"),
        ops.wait_all_keys(),
    ]


class TestSquashRecovery:
    def test_run_completes_after_squash(self):
        core, _ = make_core(ede_trace(), policy=WB_POLICY,
                            warm_lines=LINES, squash_at=[5])
        stats = core.run()
        assert stats.squashes == 1
        # Squashed instructions are refetched, so more retire than the
        # no-squash count only if flushed; total retired >= trace length.
        assert stats.retired >= len(ede_trace()) + 1

    def test_ordering_preserved_across_squash(self):
        """After the squash, refetched consumers must still link to the
        producer through the restored (and repaired) EDM."""
        for policy in (IQ_POLICY, WB_POLICY):
            core, controller = make_core(
                ede_trace(), policy=policy, warm_lines=LINES, squash_at=[5])
            completions = {}

            def capture(dyn, completions=completions):
                if dyn.inst.comment:
                    completions[dyn.inst.comment] = dyn.complete_cycle

            core.on_complete = capture
            core.run()
            assert completions["c"] >= completions["p"]

    def test_cycles_similar_to_clean_run(self):
        clean_core, _ = make_core(ede_trace(), policy=WB_POLICY,
                                  warm_lines=LINES)
        clean = clean_core.run().cycles
        squashed_core, _ = make_core(ede_trace(), policy=WB_POLICY,
                                     warm_lines=LINES, squash_at=[5])
        squashed = squashed_core.run().cycles
        assert squashed >= clean
        assert squashed < clean + 500

    def test_multiple_squashes(self):
        core, _ = make_core(ede_trace(), policy=WB_POLICY,
                            warm_lines=LINES, squash_at=[3, 6])
        stats = core.run()
        assert stats.squashes == 2

    def test_edm_clean_after_squashed_run(self):
        core, _ = make_core(ede_trace(), policy=WB_POLICY,
                            warm_lines=LINES, squash_at=[5])
        core.run()
        assert len(core.edm.spec) == 0

    def test_squash_at_start_is_harmless(self):
        core, _ = make_core(ede_trace(), policy=IQ_POLICY,
                            warm_lines=LINES, squash_at=[0])
        stats = core.run()
        assert stats.retired == len(core.trace)


#: ``observables_digest`` of ``ede_trace`` squashed at the given trace
#: indices, keyed ``<policy>-<indices>``.  Computed from the stage-by-stage
#: reference loop the replay engine replaced.
EDE_SQUASH_GOLDEN = {
    "ede-IQ-0": "4f7bce87b1c7bb54",
    "ede-IQ-3": "e6fec19656f3a169",
    "ede-IQ-3_6": "38affc53460496c3",
    "ede-IQ-5": "9f3bfdebe6381f3e",
    "ede-WB-0": "9cf3cee19c5aee83",
    "ede-WB-3": "a5017e5cb87cf346",
    "ede-WB-3_6": "208d9fcfd8a64153",
    "ede-WB-5": "4b1b8242a51c7cfa",
}

#: The same for workload traces at ``SQUASH_SCALE``, keyed
#: ``<workload>-<config>-<indices>``.  Every SU point flushes at least one
#: dispatched DMB (``16_66`` flushes one, then five more), so the refetched
#: instructions carry DMB epochs offset from the static row epochs; every
#: B point flushes a DSB.
WORKLOAD_SQUASH_GOLDEN = {
    "btree-SU-31_101": "4a3194eea3980d8e",
    "btree-SU-60": "af45254abcf118e2",
    "update-B-13": "b2f914a64bdd4a88",
    "update-B-29_68": "fccd488292e77a63",
    "update-SU-12": "99455cca766be068",
    "update-SU-16_66": "02336cef38b58bc2",
    "update-SU-57": "c136f8d79815b753",
}

SQUASH_SCALE = Scale(ops_per_txn=4, txns=3)


def _points(key):
    return [int(point) for point in key.rsplit("-", 1)[1].split("_")]


class TestSquashGolden:
    @pytest.mark.parametrize("key", sorted(EDE_SQUASH_GOLDEN))
    def test_ede_trace_digest(self, key):
        policy = {"IQ": IQ_POLICY, "WB": WB_POLICY}[key.split("-")[1]]
        core, controller = make_core(ede_trace(), policy=policy,
                                     warm_lines=LINES,
                                     squash_at=_points(key))
        core.run()
        assert observables_digest(core, controller) == \
            EDE_SQUASH_GOLDEN[key]

    @pytest.mark.parametrize("key", sorted(WORKLOAD_SQUASH_GOLDEN))
    def test_workload_digest(self, key):
        workload, config_name, _ = key.split("-")
        config = configuration(config_name)
        built = workload_base.build(workload, config.fence_mode,
                                    SQUASH_SCALE)
        assert simulate_digest(built, config, squash_at=_points(key)) == \
            WORKLOAD_SQUASH_GOLDEN[key]

    @pytest.mark.parametrize("point", [19, 27, 42])
    def test_flushed_completed_load_keeps_epochs_balanced(self, point):
        """A load that completed before the squash already released its
        DMB-epoch count; flushing it must not release it again.  (A
        double release drove the count negative and stalled every younger
        memory operation behind that epoch: a deadlock.)"""
        config = configuration("SU")
        built = workload_base.build("update", config.fence_mode,
                                    SQUASH_SCALE)
        core, _ = make_core(built.trace, policy=config.policy,
                            warm_lines=built.warm_lines(),
                            squash_at=[point])
        flushed_completed_load = []
        inject = core._inject_squash

        def probe(*args):
            flushed_completed_load.append(any(
                dyn.is_load and dyn.completed for dyn in core._rob))
            return inject(*args)

        core._inject_squash = probe
        stats = core.run()
        assert flushed_completed_load == [True]
        assert stats.squashes == 1
        assert stats.retired == len(built.trace)
        assert any(inst.opcode is Opcode.DMB_ST for inst in built.trace)
