"""The three workloads: what each runs, checks and reports.

Each workload has ``setup() -> state``, ``run_pass(state, tracer) ->
Pass``, ``finish(state, pass, tracer)`` for checks outside the timed
window, and ``teardown(state)``.  A pass is one fixed amount of work made
from the seed; the runner makes one small untimed pass first
(``warmup``), then repeats timed passes until the requested seconds are
measured.  ``layer_metrics`` turns the traced pass's spans into the per-layer
metrics.  Every pass runs the correctness gate (:mod:`perfbench.gate`).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import shutil
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import gate
from perfbench.tracing import FRAMES, NullTracer, cell_id

from repro.cluster import ThreadedCoordinator
from repro.consistency import crash_sim
from repro.harness import (
    CONFIGURATIONS,
    ResultCache,
    configuration,
    last_matrix_report,
    run_matrix,
    run_matrix_parallel,
)
from repro.harness import runner
from repro.harness.experiments import (
    APPLICATIONS,
    PAPER_FIG9_GEOMEAN,
    PAPER_FIG11_IPC,
    fig9_execution_time,
    fig11_issue_distribution,
)
from repro.service import JobSpec, ServiceClient, ThreadedServer, result_digest
from repro.service.jobs import result_cache_key
from repro.workloads import Scale


@dataclasses.dataclass
class Pass:
    """What one pass measured and checked."""

    wall_s: float
    #: Simulated instructions retired by simulations this pass ran, and
    #: the host seconds they are divided by for ``host_kips``.
    retired: int
    sim_wall_s: float
    jobs: int
    failures: List[str]
    digests: Dict[str, str]
    #: Exact simulated counters (:func:`gate.sim_totals`).
    sim: Dict[str, int]
    #: Workload-specific host metrics: name -> (value, unit, samples).
    host: Dict[str, tuple]
    #: Anything the per-layer metrics need from the pass.
    notes: dict = dataclasses.field(default_factory=dict)
    #: Calibration job seconds right after the pass
    #: (:mod:`perfbench.calibrate`).
    calib_s: float = 0.0


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100), nearest rank on sorted values."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _self_s(layers: dict, name: str) -> float:
    return layers.get(name, {}).get("self_s", 0.0)


def _calls(layers: dict, name: str) -> int:
    return layers.get(name, {}).get("calls", 0)


def _dir_bytes(path: Path, pattern: str) -> int:
    return sum(entry.stat().st_size for entry in path.glob(pattern))


def _unattributed(layers: dict, wall: float) -> float:
    """Frame self time over the wall: what no layer accounts for."""
    frames = sum(_self_s(layers, name) for name in FRAMES)
    covered = sum(entry["total_s"] for name, entry in layers.items()
                  if name == "pass")
    # Time outside every top-level pass span is unattributed too.
    return _share(frames + max(0.0, wall - covered), wall)


def common_layers(tracer, wall: float) -> dict:
    """Layers every workload can exercise, from the traced pass's spans."""
    layers = tracer.layers()
    counters = tracer.counters

    def share(name):
        return _share(_self_s(layers, name), wall)

    def hit_ratio(layer):
        return _share(counters[layer + ".load_hits"],
                      _calls(layers, layer + ".load"))

    metas = counters["replay.meta_builds"]
    return {
        "build.calls": _calls(layers, "build"),
        "build.busy_share": share("build"),
        "build.kips": _share(counters["build.instructions"],
                             _self_s(layers, "build")) / 1e3,
        "trace_cache.load_calls": _calls(layers, "trace_cache.load"),
        "trace_cache.load_share": share("trace_cache.load"),
        "trace_cache.hit_ratio": hit_ratio("trace_cache"),
        "trace_cache.store_share": share("trace_cache.store"),
        "replay.meta_builds": metas,
        "replay.meta_share": share("replay.meta"),
        "replay.sims_per_meta": _share(_calls(layers, "pipeline.run"), metas),
        "pipeline.run_calls": _calls(layers, "pipeline.run"),
        "pipeline.run_share": share("pipeline.run"),
        "pipeline.host_kips": _share(counters["pipeline.retired"],
                                     _self_s(layers, "pipeline.run")) / 1e3,
        "consistency.check_share": share("consistency.check"),
        "result_cache.load_calls": _calls(layers, "result_cache.load"),
        "result_cache.load_share": share("result_cache.load"),
        "result_cache.hit_ratio": hit_ratio("result_cache"),
        "result_cache.store_share": share("result_cache.store"),
    }


class Workload:
    name = ""
    #: CPUs the run is pinned to, or None to use every CPU it may.
    CPUS: Optional[int] = None
    #: Timed passes a run makes at least, however short they are.
    MIN_PASSES = 1
    #: Whether host times are scaled by the calibration job, and in how
    #: many processes at once it runs: as many as a timed pass keeps busy
    #: (:mod:`perfbench.calibrate`).
    CALIBRATED = True
    PROCESSES = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._dirs = itertools.count()

    def fresh_dir(self) -> Path:
        path = self.workdir / ("%s-%d" % (self.name, next(self._dirs)))
        path.mkdir(parents=True)
        return path

    def describe_scale(self) -> str:
        raise NotImplementedError

    def finish(self, state, one: "Pass", tracer) -> None:
        """Checks that must not be traced or timed; most gate in the pass."""

    def tiny(self) -> "Workload":
        """The same workload at a small scale, in its own directory."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed pass at a small scale, so first-call costs (lazy
        imports, first connections, cold code paths) stay out of the
        timed passes."""
        small = self.tiny()
        state = small.setup()
        try:
            small.run_pass(state, NullTracer())
        finally:
            small.teardown(state)

    def host_summary(self, passes: List["Pass"]) -> Dict[str, tuple]:
        """Workload-specific host metrics over the run: name -> (value,
        unit, how it was sampled).  By default the median over passes."""
        series: Dict[str, tuple] = {}
        for one in passes:
            for name, (value, unit, count) in one.host.items():
                series.setdefault(name, ([], unit, count))[0].append(value)
        return {name: (statistics.median(values), unit,
                       "median of %d pass(es), %d samples each"
                       % (len(values), count))
                for name, (values, unit, count) in series.items()}


# ---------------------------------------------------------------------------
# paper_figures
# ---------------------------------------------------------------------------


class PaperFigures(Workload):
    """The Fig. 9/10/11 matrix through ``run_matrix_parallel``, cold then
    warm over the same result and trace caches."""

    name = "paper_figures"
    #: EXPERIMENTS.md records Figures 9-11 at 25 ops/txn x 20 txns.
    OPS, TXNS = 25, 20
    WORKERS = 2
    #: One pass is the whole run, so calibration samples cannot bracket
    #: it closely; scaled by them its wall spread twice as far (14% vs
    #: 6% between runs) as unscaled, so it is reported unscaled.
    CALIBRATED = False

    def __init__(self, seed: int, workdir: Path, scale: Optional[Scale] = None,
                 apps=APPLICATIONS):
        super().__init__(seed, workdir)
        self.scale = scale or Scale(self.OPS, self.TXNS, seed=seed)
        self.apps = list(apps)
        self.configs = list(CONFIGURATIONS)

    def describe_scale(self) -> str:
        return "%dx%d, %d apps x %d configs, 1 core" % (
            self.scale.ops_per_txn, self.scale.txns, len(self.apps),
            len(self.configs))

    def tiny(self) -> "PaperFigures":
        return PaperFigures(self.seed, self.workdir / "warmup",
                            scale=Scale(5, 3, seed=self.seed),
                            apps=self.apps[:2])

    def setup(self):
        return self.fresh_dir()

    def teardown(self, cache_dir) -> None:
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _matrix(self, cache_dir, workers: int):
        return run_matrix_parallel(self.apps, self.configs, self.scale,
                                   max_workers=workers, cache=True,
                                   cache_dir=cache_dir, trace_cache=True)

    def run_pass(self, cache_dir, tracer) -> Pass:
        # The traced pass runs in-process so its spans see every call.
        workers = 1 if tracer.enabled else self.WORKERS
        with tracer.span("pass", "paper_figures/cold"):
            start = time.perf_counter()
            cold = self._matrix(cache_dir, workers)
            cold_s = time.perf_counter() - start
        report = last_matrix_report()

        failures: List[str] = []
        cold_digests: Dict[str, str] = {}
        for app in self.apps:
            for config in self.configs:
                cell = cell_id(app, config.name, self.scale)
                result = cold[app][config.name]
                cold_digests[cell] = result_digest(result)
                failures += gate.verdict_failures(cell, config.name, result,
                                                  require_unsafe_u=True)
        cold_results = [r for per in cold.values() for r in per.values()]
        retired = sum(r.instructions for r in cold_results)
        sim = gate.sim_totals(cold_results)
        fig9 = fig9_execution_time(self.scale, self.apps, results=cold)
        fig11 = fig11_issue_distribution(self.scale, self.apps, results=cold)
        names = list(PAPER_FIG9_GEOMEAN)
        fig9_err = statistics.fmean(
            abs(fig9.geomean_normalized[n] - PAPER_FIG9_GEOMEAN[n])
            for n in names)
        fig11_err = statistics.fmean(
            abs(fig11.mean_ipc[n] - PAPER_FIG11_IPC[n]) for n in names)
        # Only one matrix is held at a time, as a figure script would.
        del cold, cold_results, result

        with tracer.span("pass", "paper_figures/warm"):
            start = time.perf_counter()
            warm = self._matrix(cache_dir, workers)
            warm_s = time.perf_counter() - start
        warm_digests = {
            cell_id(app, name, self.scale): result_digest(result)
            for app, per in warm.items() for name, result in per.items()}
        del warm
        failures += gate.digest_failures("warm", warm_digests, cold_digests)
        return Pass(
            wall_s=cold_s + warm_s,
            retired=retired,
            sim_wall_s=cold_s,
            jobs=2 * len(cold_digests),
            failures=failures,
            digests=cold_digests,
            sim=sim,
            host={"cold_s": (cold_s, "s", 1), "warm_s": (warm_s, "s", 1)},
            notes={
                "fig9_err": fig9_err,
                "fig11_ipc_err": fig11_err,
                "parallel.groups": len(report.groups),
                "workers": workers,
                "parallel.retries": report.total_retries,
                "parallel.respawns": report.pool_respawns,
                "cold_s": cold_s,
                "warm_s": warm_s,
                "result_cache.bytes": _dir_bytes(Path(cache_dir), "*.pkl"),
                "trace_cache.bytes": _dir_bytes(Path(cache_dir) / "traces",
                                                "*.trace"),
            },
        )

    def layer_metrics(self, tracer, traced: Pass, untraced: Pass) -> dict:
        layers = tracer.layers()
        wall = traced.wall_s
        warm_load_s = sum(span[2] - span[1] for span in tracer.spans
                          if span[0] == "result_cache.load"
                          and span[4] == "paper_figures/warm")
        notes = untraced.notes
        return {
            "result_cache.bytes": traced.notes["result_cache.bytes"],
            "result_cache.warm_share": _share(
                warm_load_s, traced.notes["warm_s"]),
            "trace_cache.bytes": traced.notes["trace_cache.bytes"],
            "parallel.groups": notes["parallel.groups"],
            # Serial work (the in-process traced cold pass) over the pool's
            # worker-seconds: 1.0 is a perfect speed-up.
            "parallel.utilization": _share(
                traced.notes["cold_s"], notes["cold_s"] * notes["workers"]),
            "parallel.retries": notes["parallel.retries"],
            "parallel.respawns": notes["parallel.respawns"],
            "fig9_err": traced.notes["fig9_err"],
            "fig11_ipc_err": traced.notes["fig11_ipc_err"],
            # Same in-process warm pass with and without spans.
            "trace.overhead_frac": traced.notes["warm_s"]
            / notes["warm_s"] - 1.0,
            "trace.unattributed_frac": _unattributed(layers, wall),
        }


# ---------------------------------------------------------------------------
# contended_multicore
# ---------------------------------------------------------------------------


def _contended_cell(kernel: str, name: str, scale: Scale, sweep: bool,
                    tracer=NullTracer()) -> dict:
    """One ``run_one`` cell (and its crash sweep), reduced to what the
    pass reports, so a worker process sends back a few numbers only."""
    cell = cell_id(kernel, name, scale)
    start = time.perf_counter()
    # Looked up at call time so the traced run's patch applies.
    result = runner.run_one(kernel, configuration(name), scale)
    failures = gate.verdict_failures(cell, name, result)
    points = inconsistent = 0
    if sweep:
        with tracer.span("crash.sweep", cell):
            reports = crash_sim.validate_multicore(result.built,
                                                   result.persist_log)
        points = len(reports)
        inconsistent = sum(not r.consistent for r in reports)
        failures = gate.crash_failures(cell, reports) + failures
    busy_s = time.perf_counter() - start
    return {"cell": cell, "busy_s": busy_s, "failures": failures,
            "points": points, "inconsistent": inconsistent,
            "retired": result.instructions,
            "sim": gate.sim_totals([result]),
            "digest": result_digest(result)}


class ContendedMulticore(Workload):
    """``run_one`` (no caches) over the three concurrent kernels at 2 and
    4 cores, plus a crash sweep over every persist prefix of the
    safe-by-spec runs that record per-core committed states.

    The untraced pass shares the cells out to two worker processes,
    heaviest first; each cell is one serial ``run_one``.  The traced pass
    runs them in-process so its spans see every call."""

    name = "contended_multicore"
    #: Half the txns of the EXPERIMENTS.md multicore table: the crash
    #: sweep grows with the square of the persist log, and 20 txns put
    #: one pass near a minute.
    OPS, TXNS = 25, 10
    KERNELS = ("hazard", "mpsc", "counter")
    CORES = (2, 4)
    CONFIGS = ("B", "IQ", "WB", "U")
    #: hazard records no per-core committed states: nothing to recover.
    SWEPT = ("mpsc", "counter")
    WORKERS = PROCESSES = 2
    #: A pass on two workers is about as long as the usual --seconds;
    #: the run reports the median (here the mean) of at least two.
    MIN_PASSES = 2

    def __init__(self, seed: int, workdir: Path, ops: int = OPS,
                 txns: int = TXNS):
        super().__init__(seed, workdir)
        self.ops, self.txns = ops, txns

    def describe_scale(self) -> str:
        return "%dx%d at %s cores, %s x %s" % (
            self.ops, self.txns, "/".join(map(str, self.CORES)),
            "/".join(self.KERNELS), "/".join(self.CONFIGS))

    def tiny(self) -> "ContendedMulticore":
        return ContendedMulticore(self.seed, self.workdir / "warmup",
                                  ops=3, txns=2)

    def setup(self):
        return [(kernel, cores, name,
                 Scale(self.ops, self.txns, seed=self.seed, cores=cores))
                for kernel in self.KERNELS for cores in self.CORES
                for name in self.CONFIGS]

    def _swept(self, kernel: str, name: str) -> bool:
        return kernel in self.SWEPT and name in gate.SAFE_BY_SPEC

    def teardown(self, state) -> None:
        pass

    def run_pass(self, cells, tracer) -> Pass:
        # Heaviest first (swept, then more cores), so neither worker is
        # left alone with a long cell at the end of the pass.
        args = sorted(((kernel, name, scale, self._swept(kernel, name))
                       for kernel, _cores, name, scale in cells),
                      key=lambda one: (not one[3], -one[2].cores))
        start = time.perf_counter()
        with tracer.span("pass", "contended_multicore"):
            if tracer.enabled:
                done = [_contended_cell(*one, tracer=tracer)
                        for one in args]
            else:
                with ProcessPoolExecutor(self.WORKERS) as pool:
                    done = list(pool.map(_contended_cell, *zip(*args)))
        wall = time.perf_counter() - start
        sim = {key: sum(one["sim"][key] for one in done)
               for key in gate.sim_totals([])}
        return Pass(
            wall_s=wall,
            retired=sum(one["retired"] for one in done),
            sim_wall_s=wall,
            jobs=len(cells),
            failures=[f for one in done for f in one["failures"]],
            digests={one["cell"]: one["digest"] for one in done},
            sim=sim,
            host={},
            notes={"crash.points": sum(one["points"] for one in done),
                   "crash.inconsistent": sum(one["inconsistent"]
                                             for one in done),
                   "busy_s": sum(one["busy_s"] for one in done)},
        )

    def layer_metrics(self, tracer, traced: Pass, untraced: Pass) -> dict:
        layers = tracer.layers()
        counters = tracer.counters
        sweep_s = layers.get("crash.sweep", {}).get("total_s", 0.0)
        return {
            "multicore.sim_calls": _calls(layers, "multicore.sim"),
            "multicore.sim_share": _share(_self_s(layers, "multicore.sim"),
                                          traced.wall_s),
            "multicore.host_kips_2c": _share(
                counters["multicore.retired_2c"],
                counters["multicore.sim_s_2c"]) / 1e3,
            "multicore.host_kips_4c": _share(
                counters["multicore.retired_4c"],
                counters["multicore.sim_s_4c"]) / 1e3,
            "crash.points": traced.notes["crash.points"],
            "crash.sweep_share": _share(sweep_s, traced.wall_s),
            "crash.points_per_s": _share(traced.notes["crash.points"],
                                         sweep_s),
            "crash.inconsistent": traced.notes["crash.inconsistent"],
            # The untraced cells ran in workers: compare with the sum of
            # their in-worker times, the same work done serially.
            "trace.overhead_frac": traced.wall_s / untraced.notes["busy_s"]
            - 1.0,
            "trace.unattributed_frac": _unattributed(layers, traced.wall_s),
        }


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _ServiceState:
    cache_dir: Path
    shard: ThreadedServer
    coordinator: ThreadedCoordinator
    #: cell -> run_one result of every hot cell, computed in set-up.
    references: Dict[str, object]


def _latency_metrics(records: List[dict], wall: float) -> Dict[str, tuple]:
    """Hit and miss latency percentiles and throughput of served requests:
    name -> (value, unit, samples)."""

    def latencies(kind):
        return [r["latency"] for r in records
                if r["kind"] == kind and "error" not in r]

    hits, misses = latencies("hit"), latencies("miss")
    return {
        "hit_p50_ms": (1e3 * percentile(hits, 50), "ms", len(hits)),
        "hit_p99_ms": (1e3 * percentile(hits, 99), "ms", len(hits)),
        "miss_p50_ms": (1e3 * percentile(misses, 50), "ms", len(misses)),
        "miss_p90_ms": (1e3 * percentile(misses, 90), "ms", len(misses)),
        "jobs_per_s": (len(hits + misses) / wall, "1/s", len(records)),
    }


class ServiceMixed(Workload):
    """A closed loop of two client threads through a coordinator in front
    of one shard: about 9 in 10 requests hit cells completed in set-up,
    the rest are cells never seen before."""

    name = "service_mixed"
    CLIENTS = 2
    #: Clients, coordinator and shard share one interpreter lock, so a
    #: second CPU adds only cross-CPU wake-ups to every hop; on a shared
    #: host those stretch the wall by more than the host slows.
    CPUS = 1
    #: A pass is short (a few seconds) so a run holds several and reports
    #: their median wall.  Latency percentiles pool every pass of the run:
    #: four passes give 120 misses and about 1080 hits, so at least ten
    #: samples lie beyond the reported p90 and p99.
    REQUESTS = 300
    MIN_PASSES = 4
    WARMUP_REQUESTS = 40
    MISS_EVERY = 10
    OPS, TXNS = 5, 3
    HOT_WORKLOADS = ("update", "swap", "btree", "ctree", "rbtree")
    HOT_CONFIGS = ("B", "WB")
    #: IQ and WB share the EDE trace, so the second finds it cached.
    MISS_CONFIGS = ("IQ", "WB", "B", "SU", "U")
    POLL_S = 0.01
    #: Hit requests replayed via the coordinator and directly to the shard
    #: in the traced run, to split out the coordinator hop.
    HOP_SAMPLES = 100

    def __init__(self, seed: int, workdir: Path,
                 requests: int = REQUESTS):
        super().__init__(seed, workdir)
        self.requests = self._request_list(requests)
        #: cell -> (digest, simulated counters) of every miss cell; the
        #: same for each pass of a run, so computed once.
        self._miss_references: Optional[Dict[str, tuple]] = None

    def describe_scale(self) -> str:
        misses = sum(1 for kind, _ in self.requests if kind == "miss")
        return "%d requests (%d misses) at %dx%d, %d client threads" % (
            len(self.requests), misses, self.OPS, self.TXNS, self.CLIENTS)

    def tiny(self) -> "ServiceMixed":
        return ServiceMixed(self.seed, self.workdir / "warmup",
                            requests=self.WARMUP_REQUESTS)

    def _spec(self, workload: str, config: str, seed: int) -> JobSpec:
        return JobSpec(kind="simulate", workload=workload, config=config,
                       ops_per_txn=self.OPS, txns=self.TXNS, seed=seed)

    def hot_specs(self) -> List[JobSpec]:
        return [self._spec(w, c, self.seed) for w in self.HOT_WORKLOADS
                for c in self.HOT_CONFIGS]

    def _request_list(self, count: int) -> List[tuple]:
        """The pass's requests, in order, as (kind, spec); fixed by seed."""
        rng = random.Random(self.seed)
        hot = self.hot_specs()
        misses = set(rng.sample(range(count), count // self.MISS_EVERY))
        used = {self.seed}

        def miss_cells():
            for index in itertools.count():
                seed = self.seed
                while seed in used:
                    seed = rng.randrange(1, 2 ** 31)
                used.add(seed)
                workload = APPLICATIONS[index % len(APPLICATIONS)]
                for config in self.MISS_CONFIGS:
                    yield self._spec(workload, config, seed)

        fresh = miss_cells()
        return [("miss", next(fresh)) if index in misses
                else ("hit", rng.choice(hot)) for index in range(count)]

    def setup(self) -> _ServiceState:
        cache_dir = self.fresh_dir()
        store = ResultCache(cache_dir)
        references = {}
        for spec in self.hot_specs():
            result = runner.run_one(spec.workload, spec.configuration,
                                    spec.scale)
            references[cell_id(spec.workload, spec.config, spec.scale)] = \
                result
            store.store(result_cache_key(spec), result)
        shard = ThreadedServer(max_workers=1, cache_dir=cache_dir).start()
        coordinator = ThreadedCoordinator(
            shards=[("127.0.0.1", shard.port)]).start()
        return _ServiceState(cache_dir, shard, coordinator, references)

    def teardown(self, state: _ServiceState) -> None:
        state.coordinator.stop()
        state.shard.stop()
        shutil.rmtree(state.cache_dir, ignore_errors=True)

    def _request(self, client: ServiceClient, spec: JobSpec, tracer) -> dict:
        """submit -> wait -> JSON result; returns the timings and result."""
        times = {}
        start = time.perf_counter()
        with tracer.span("service.submit"):
            status = client.submit(spec)
        times["submit"] = time.perf_counter()
        with tracer.span("service.wait"):
            client.wait(status["id"], poll_s=self.POLL_S)
        times["wait"] = time.perf_counter()
        with tracer.span("service.result"):
            result = client.result(status["id"])
        end = time.perf_counter()
        return {"latency": end - start,
                "submit": times["submit"] - start,
                "wait": times["wait"] - times["submit"],
                "result": end - times["wait"],
                "disposition": status.get("disposition"),
                "body": result}

    def _client_loop(self, port: int, index: int, work, lock, out,
                     thread_s, tracer):
        client = ServiceClient(port=port, client_id="client%d" % index)
        began = time.perf_counter()
        while True:
            with lock:
                item = next(work, None)
            if item is None:
                break
            position, (kind, spec) = item
            cell = cell_id(spec.workload, spec.config, spec.scale)
            record = {"kind": kind, "cell": cell, "config": spec.config}
            try:
                with tracer.span("service.request", cell):
                    record.update(self._request(client, spec, tracer))
            except Exception as exc:  # counted as a failed request
                record["error"] = "%s: %s" % (type(exc).__name__, exc)
            out[position] = record
        thread_s.append(time.perf_counter() - began)

    def run_pass(self, state: _ServiceState, tracer) -> Pass:
        work = iter(enumerate(self.requests))
        lock = threading.Lock()
        out: Dict[int, dict] = {}
        thread_s: List[float] = []
        threads = [threading.Thread(
            target=self._client_loop,
            args=(state.coordinator.port, index, work, lock, out, thread_s,
                  tracer),
            name="perfbench-client%d" % index)
            for index in range(self.CLIENTS)]
        with tracer.span("pass", "service_mixed"):
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
        records = [out[index] for index in range(len(self.requests))]
        samples = ServiceClient(port=state.coordinator.port).metric_samples()

        def metric(prefix):
            return sum(value for key, value in samples.items()
                       if key.split("{")[0] == prefix)

        notes = {
            "records": records,
            "thread_s": sum(thread_s),
            "service.cache_hits": metric("repro_result_cache_hits_total"),
            "service.cache_misses": metric(
                "repro_result_cache_misses_total"),
            "service.simulations": metric("repro_simulations_run_total"),
            "service.groups": metric("repro_groups_executed_total"),
            "service.coalesced": metric("repro_singleflight_coalesced_total"),
            "service.rejected": metric("repro_jobs_rejected_total"),
            "cluster.routed": metric("repro_cluster_jobs_routed_total"),
            "cluster.proxy_errors": metric(
                "repro_cluster_proxy_errors_total"),
            "cluster.hedged_reads": metric(
                "repro_cluster_hedged_reads_total"),
        }
        retired = {r["cell"]: r["body"]["instructions"] for r in records
                   if r["kind"] == "miss" and "error" not in r}
        return Pass(
            wall_s=wall,
            retired=sum(retired.values()),
            sim_wall_s=wall,
            jobs=len(records),
            failures=[],
            digests={},
            sim={},
            host=_latency_metrics(records, wall),
            notes=notes,
        )

    def host_summary(self, passes: List[Pass]) -> Dict[str, tuple]:
        """Latency percentiles over the requests of every pass pooled."""
        records = [r for one in passes for r in one.notes["records"]]
        wall = sum(one.wall_s for one in passes)
        return {name: (value, unit, "%d samples over %d pass(es)"
                       % (count, len(passes)))
                for name, (value, unit, count)
                in _latency_metrics(records, wall).items()}

    def _reference_misses(self) -> Dict[str, tuple]:
        """References for the miss cells, from run_matrix outside the
        timed window, one build per fence mode; only their digests and
        counters are kept."""
        references: Dict[str, tuple] = {}
        groups: Dict[tuple, List[str]] = {}
        for kind, spec in self.requests:
            if kind == "miss":
                groups.setdefault((spec.workload, spec.seed), []).append(
                    spec.config)
        for (workload, seed), configs in groups.items():
            scale = Scale(self.OPS, self.TXNS, seed=seed)
            matrix = run_matrix([workload], [configuration(c)
                                             for c in configs], scale)
            for name, result in matrix[workload].items():
                references[cell_id(workload, name, scale)] = (
                    result_digest(result), gate.sim_totals([result]))
        return references

    def finish(self, state: _ServiceState, one: Pass, tracer) -> None:
        """Gate the pass's answers against run_one, outside the window."""
        if self._miss_references is None:
            self._miss_references = self._reference_misses()
        references = dict(self._miss_references)
        for cell, result in state.references.items():
            references[cell] = (result_digest(result),
                                gate.sim_totals([result]))
        expected = {cell: ref[0] for cell, ref in references.items()}
        cell_sims = {cell: ref[1] for cell, ref in references.items()}

        failures: List[str] = []
        served: Dict[str, str] = {}
        for record in one.notes["records"]:
            cell = record["cell"]
            if "error" in record:
                failures.append("%s: %s" % (cell, record["error"]))
                continue
            body = record["body"]
            if body["digest"] != expected[cell]:
                failures.append("%s: service digest %s != run_one %s" % (
                    cell, body["digest"][:12], expected[cell][:12]))
            elif record["config"] in gate.SAFE_BY_SPEC and \
                    body["verdict"] != "safe":
                failures.append("%s: safe-by-spec config reports %r"
                                % (cell, body["verdict"]))
            served[cell] = body["digest"]
        one.failures, one.digests = failures, served
        one.sim = {key: sum(cell_sims[cell][key] for cell in served)
                   for key in gate.sim_totals([])}
        if tracer.enabled:
            one.notes["hop"] = self._hop_samples(state)

    def _hop_samples(self, state: _ServiceState) -> dict:
        """The same hit requests via the coordinator and straight to the
        shard, alternating, after the timed window."""
        null = NullTracer()
        via = ServiceClient(port=state.coordinator.port, client_id="hop")
        direct = ServiceClient(port=state.shard.port, client_id="hop")
        hits = [spec for kind, spec in self.requests if kind == "hit"]
        timings = {"via": [], "direct": []}
        for spec in hits[:self.HOP_SAMPLES]:
            timings["via"].append(self._request(via, spec, null)["latency"])
            timings["direct"].append(
                self._request(direct, spec, null)["latency"])
        return {name: statistics.median(values)
                for name, values in timings.items()}

    def layer_metrics(self, tracer, traced: Pass, untraced: Pass) -> dict:
        layers = tracer.layers()
        notes = traced.notes
        client_s = notes["thread_s"]
        hot = {cell_id(s.workload, s.config, s.scale)
               for s in self.hot_specs()}
        hot_groups = {cell_id(s.workload, s.configuration.fence_mode,
                              s.scale) for s in self.hot_specs()}
        hop = notes["hop"]
        metrics = {
            "service.submit_share": _share(
                _self_s(layers, "service.submit"), client_s),
            "service.wait_share": _share(
                _self_s(layers, "service.wait"), client_s),
            "service.result_share": _share(
                _self_s(layers, "service.result"), client_s),
            "cluster.hop_share": _share(hop["via"] - hop["direct"],
                                        hop["via"]),
            "service.hit_build_calls": tracer.calls_for_jobs(
                "build", hot_groups),
            "service.hit_pipeline_calls": tracer.calls_for_jobs(
                "pipeline.run", hot),
            "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
            # Client threads run the requests; the server's layers run on
            # its own threads, overlapping the client waits.
            "trace.unattributed_frac": _share(
                client_s - sum(_self_s(layers, name) for name in (
                    "service.submit", "service.wait", "service.result")),
                client_s),
        }
        for key in ("service.cache_hits", "service.cache_misses",
                    "service.simulations", "service.groups",
                    "service.coalesced", "service.rejected",
                    "cluster.routed", "cluster.proxy_errors",
                    "cluster.hedged_reads"):
            metrics[key] = notes[key]
        return metrics


WORKLOADS = {cls.name: cls for cls in (PaperFigures, ContendedMulticore,
                                       ServiceMixed)}
