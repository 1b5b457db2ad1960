"""The subsystem's determinism contract.

Three claims, each asserted as *bit identity* via the service's
:func:`~repro.service.jobs.result_digest` (which covers cycles, the full
pipeline statistics, the NVM counters and buffer samples, the complete
persist log and the consistency verdict):

1. a (seed, core count) pair yields identical results on repeated runs;
2. an N=1 build pushed through the multi-core lockstep driver equals the
   classic single-core pipeline on every existing workload;
3. the serial and parallel matrix engines agree at ``cores=2``;
4. the digests of the contended workloads at 2 and 4 cores equal the
   committed golden values, computed from the per-stage lockstep driver
   the one replay engine replaced.
"""

import pytest

from repro.harness.configs import configuration
from repro.harness.runner import run_one
from repro.service.jobs import result_digest
from repro.workloads.base import Scale, workload_names

SAFE = ("B", "IQ", "WB")
MULTI = ("hazard", "mpsc", "counter")
SCALE2 = Scale(ops_per_txn=5, txns=3, seed=2021, cores=2)

#: ``result_digest`` prefixes keyed ``<workload>-<config>-<cores>`` at
#: ``SCALE2`` with the given core count.
GOLDEN = {
    "counter-B-2": "39dc9c485d42356a",
    "counter-B-4": "b0322437d37b1703",
    "counter-IQ-2": "4fa3ab70666a8250",
    "counter-IQ-4": "b1ed60450d1c7272",
    "counter-SU-2": "6f4a68fced14cc7c",
    "counter-SU-4": "c9a02950157a4bc9",
    "counter-U-2": "f29e10f74dec2410",
    "counter-U-4": "46a6519516e170bb",
    "counter-WB-2": "8b1b009679f43289",
    "counter-WB-4": "b7fe913f20ce3cc8",
    "hazard-B-2": "48beadc1cc1e3393",
    "hazard-B-4": "e953dae971c9b4d3",
    "hazard-IQ-2": "68063fa3e9ad8b65",
    "hazard-IQ-4": "25c4020c561de9fb",
    "hazard-SU-2": "6e9baeac7b4ff516",
    "hazard-SU-4": "0afd7ca10d82cc1b",
    "hazard-U-2": "c2c86117d1290885",
    "hazard-U-4": "00ab644d292a8c3d",
    "hazard-WB-2": "00b58388910f7c3a",
    "hazard-WB-4": "77650540ebcaefe4",
    "mpsc-B-2": "fee4d9e578d27a73",
    "mpsc-B-4": "e88ac1d34b351f01",
    "mpsc-IQ-2": "baf319e42bfdf88d",
    "mpsc-IQ-4": "e8ec62546622f711",
    "mpsc-SU-2": "f6bbde08f30529b9",
    "mpsc-SU-4": "b7c6b9a8b09c474d",
    "mpsc-U-2": "0d9d09d68845d47a",
    "mpsc-U-4": "4dc701e99d26acdd",
    "mpsc-WB-2": "f35d5f34806d3fc7",
    "mpsc-WB-4": "2f1f6dea0858d00b",
}


class TestRepeatRuns:
    @pytest.mark.parametrize("workload", MULTI)
    @pytest.mark.parametrize("config", SAFE)
    def test_same_seed_same_digest(self, workload, config):
        first = result_digest(run_one(workload, configuration(config),
                                      SCALE2))
        second = result_digest(run_one(workload, configuration(config),
                                       SCALE2))
        assert first == second

    def test_seed_changes_digest(self):
        # Hazard's element/mutation draws come from the scale seed, so a
        # different seed builds observably different traces.  (counter and
        # mpsc only vary *written values* with the seed under the default
        # round-robin interleaver, and values are not timing-visible.)
        base = result_digest(run_one("hazard", configuration("IQ"), SCALE2))
        other = result_digest(run_one(
            "hazard", configuration("IQ"),
            Scale(ops_per_txn=5, txns=3, seed=7, cores=2)))
        assert base != other

    def test_interleaving_changes_digest(self, monkeypatch):
        # The consumer's per-transaction `take` count depends on how many
        # produces the interleaver ran before each consume — a genuinely
        # interleaving-dependent trace.  Weighted seed 3 front-loads the
        # consumer ([0,0,0,1,1,1]) vs round-robin's strict turns.
        base = result_digest(run_one("mpsc", configuration("IQ"), SCALE2))
        monkeypatch.setenv("REPRO_INTERLEAVE", "weighted")
        monkeypatch.setenv("REPRO_INTERLEAVE_SEED", "3")
        other = result_digest(run_one("mpsc", configuration("IQ"), SCALE2))
        assert base != other

    def test_core_count_changes_digest(self):
        two = result_digest(run_one("counter", configuration("IQ"), SCALE2))
        three = result_digest(run_one(
            "counter", configuration("IQ"),
            Scale(ops_per_txn=5, txns=3, seed=2021, cores=3)))
        assert two != three


class TestSingleCoreReduction:
    """N=1 through the lockstep driver is bit-identical to the classic
    pipeline — for every registered workload, under every configuration."""

    @pytest.mark.parametrize("workload", workload_names())
    def test_forced_multicore_equals_classic(self, workload):
        scale = Scale(ops_per_txn=5, txns=3, seed=2021)
        for name in ("B", "SU", "IQ", "WB", "U"):
            config = configuration(name)
            classic = run_one(workload, config, scale)
            lockstep = run_one(workload, config, scale, force_multicore=True)
            assert result_digest(classic) == result_digest(lockstep), name
            assert lockstep.core_stats is None

    def test_multicore_result_carries_core_stats(self):
        result = run_one("mpsc", configuration("WB"), SCALE2)
        assert result.core_stats is not None
        assert len(result.core_stats) == 2
        assert sum(s.retired for s in result.core_stats) == \
            result.stats.retired


class TestSerialParallelEquality:
    def test_matrix_engines_agree_at_two_cores(self, tmp_path):
        from repro.harness.parallel import run_matrix_parallel
        from repro.harness.runner import run_matrix

        configs = [configuration(n) for n in SAFE]
        serial = run_matrix(list(MULTI), configs, SCALE2,
                            parallel=False, cache=False)
        parallel = run_matrix_parallel(
            list(MULTI), configs, SCALE2, max_workers=2,
            cache=True, cache_dir=tmp_path)
        for workload in MULTI:
            for name in SAFE:
                assert result_digest(serial[workload][name]) == \
                    result_digest(parallel[workload][name]), (workload, name)


class TestGoldenDigest:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_lockstep_digest(self, key):
        workload, config, cores = key.split("-")
        scale = Scale(ops_per_txn=SCALE2.ops_per_txn, txns=SCALE2.txns,
                      seed=SCALE2.seed, cores=int(cores))
        digest = result_digest(run_one(workload, configuration(config),
                                       scale))
        assert digest[:16] == GOLDEN[key]
