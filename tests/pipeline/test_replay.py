"""The one out-of-order engine, pinned by golden digests.

:class:`~repro.pipeline.core.OutOfOrderCore` runs a single replay loop
driven by the packed rows of :mod:`repro.pipeline.replay`.  Every
observable — the full stats dataclass, store visibility and the persist
log — is hashed by :func:`tests.pipeline.conftest.observables_digest` and
compared with a committed literal, for every workload under every
configuration.  The literals were computed from the stage-by-stage
reference loop the engine replaced, and checked equal to the replay loop
of that time, so they stand in for that reference.
"""

import pytest

import repro.workloads  # noqa: F401  (registers workloads)
from repro.harness.configs import CONFIGURATIONS, DEFAULT_PARAMS
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.replay import (
    R_INST,
    TraceMeta,
    build_rows,
    core_meta_for,
    meta_for,
)
from repro.workloads import Scale
from repro.workloads import base as workload_base

from tests.pipeline.conftest import simulate_digest

#: Small but structurally complete: several transactions, enough ops to
#: exercise the write buffer, EDM keys and DMB epochs in every mode.
TEST_SCALE = Scale(ops_per_txn=4, txns=3)

#: ``observables_digest`` of every (workload, configuration) cell at
#: ``TEST_SCALE``, warm caches, default parameters.
GOLDEN = {
    "btree-B": "3087403642daeccb",
    "btree-IQ": "51c013aa0ae10190",
    "btree-SU": "e33678de6610299f",
    "btree-U": "6b5b52ec58b865ba",
    "btree-WB": "76a9414a7b28fc9a",
    "counter-B": "7741e09212ca4743",
    "counter-IQ": "973cbcc840dad2b3",
    "counter-SU": "a6dee3c44fcc865d",
    "counter-U": "1d58cd1007fdd0f7",
    "counter-WB": "9d9cb11415a733fd",
    "ctree-B": "3ee303e071bcf456",
    "ctree-IQ": "940124460886ee8b",
    "ctree-SU": "5844fc2eeed64dc8",
    "ctree-U": "05a423c6de2bdba6",
    "ctree-WB": "13b750ee523faeeb",
    "hazard-B": "cfa8593aeb313056",
    "hazard-IQ": "7963937cffb4c401",
    "hazard-SU": "cfa8593aeb313056",
    "hazard-U": "382227fa1917bce4",
    "hazard-WB": "7963937cffb4c401",
    "mpsc-B": "e0af8f730222654c",
    "mpsc-IQ": "788be8fc095054cf",
    "mpsc-SU": "c32f57e65ad5ab10",
    "mpsc-U": "3bab3068e1fbdefa",
    "mpsc-WB": "9a6308447d0304d5",
    "publication-B": "d7b13f008158ac0c",
    "publication-IQ": "f45cca9b516c2e00",
    "publication-SU": "d7b13f008158ac0c",
    "publication-U": "0b2742c63a7f1e99",
    "publication-WB": "5eb6b234c261b608",
    "rbtree-B": "2f95dbebf8f6feae",
    "rbtree-IQ": "2441745182e0ed16",
    "rbtree-SU": "9ce20d7da0d40aff",
    "rbtree-U": "22d9ab6bfde7c5ae",
    "rbtree-WB": "0ef762a7bac8cf74",
    "rtree-B": "6ee05a015345e9fa",
    "rtree-IQ": "7f94929d692bf945",
    "rtree-SU": "15b6c6612cd4ca84",
    "rtree-U": "dcb76af71e8e0c11",
    "rtree-WB": "e868b3d1378e5017",
    "swap-B": "b5b945091a7943be",
    "swap-IQ": "6ec4d0d30a610586",
    "swap-SU": "047253d454e45494",
    "swap-U": "0dfc662140d67853",
    "swap-WB": "ae7889c0c78a86ae",
    "update-B": "00f06dea290919df",
    "update-IQ": "07de845eb343eac9",
    "update-SU": "8d32ffb572a482c3",
    "update-U": "ba1b800b86f6e0b4",
    "update-WB": "17843cff19f2d769",
}


@pytest.mark.parametrize("workload", sorted(workload_base.workload_names()))
@pytest.mark.parametrize("config", CONFIGURATIONS, ids=lambda c: c.name)
def test_replay_matches_legacy_loop(workload, config):
    built = workload_base.build(workload, config.fence_mode, TEST_SCALE)
    assert simulate_digest(built, config, replay=meta_for(built)) == GOLDEN[
        "%s-%s" % (workload, config.name)]


def test_default_run_uses_replay_and_matches():
    """``replay=None`` (the constructor default) builds its own rows and
    reproduces the golden digest of the shared ones."""
    config = CONFIGURATIONS[0]
    built = workload_base.build("btree", config.fence_mode, TEST_SCALE)
    assert simulate_digest(built, config, replay=None) == GOLDEN[
        "btree-%s" % config.name]


class TestTraceMeta:
    def _built(self):
        return workload_base.build("update", "ede", TEST_SCALE)

    def test_rows_parallel_the_trace(self):
        built = self._built()
        rows = build_rows(built.trace)
        assert len(rows) == len(built.trace)
        assert all(row[R_INST] is inst
                   for row, inst in zip(rows, built.trace))

    def test_matches_rejects_other_traces(self):
        built = self._built()
        other = workload_base.build("btree", "ede", TEST_SCALE)
        meta = TraceMeta(built.trace)
        assert meta.matches(built.trace)
        assert not meta.matches(other.trace)
        assert not meta.matches(built.trace[:-1])

    def test_meta_for_is_memoized_per_workload(self):
        built = self._built()
        assert meta_for(built) is meta_for(built)

    def test_core_meta_for_is_memoized_per_core(self):
        built = workload_base.build(
            "counter", "ede", Scale(ops_per_txn=4, txns=3, cores=2))
        metas = [core_meta_for(built, core) for core in (0, 1)]
        assert [core_meta_for(built, core) for core in (0, 1)] == metas
        assert metas[0] is not metas[1]
        for meta, trace in zip(metas, built.core_traces):
            assert meta.matches(trace)

    def test_mismatched_meta_is_rejected_at_construction(self):
        built = self._built()
        other = workload_base.build("btree", "ede", TEST_SCALE)
        params = DEFAULT_PARAMS
        controller = MemoryController(
            address_map=params.address_map,
            dram_params=params.dram,
            nvm_params=params.nvm,
        )
        hierarchy = CacheHierarchy(controller, params.hierarchy)
        config = CONFIGURATIONS[0]
        with pytest.raises(ValueError):
            OutOfOrderCore(built.trace, hierarchy, config.policy,
                           params.core, replay=meta_for(other))
