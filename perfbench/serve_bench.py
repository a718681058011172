"""The serve workloads: open loop over real HTTP against a running server.

The server runs in this process; the load comes from one child process
(:mod:`openloop`, started as a plain subprocess) with at most
``min(2, nproc)`` connections open at once.  Requests arrive evenly
spaced at fixed rates (a constant-rate open loop of independent users,
each request on a connection of its own), the workload seed draws their
payloads, and a request's latency is timed from when it was due to be
sent.

``serve_predict``
    The default in-process :class:`~repro.serve.app.ServeApp` serving the
    D' forest.  ``/predict`` with 1-32 rows per request at a light and a
    heavy rate, then a closed loop of keep-alive clients for the
    saturation rate.  Back-to-back requests on one keep-alive connection
    hit a delayed-ACK stall of the HTTP layer (about 45 ms: the response
    head and body leave in two segments with Nagle's algorithm on), so
    that rate, about 42 req/s on a 2-CPU host, is set by the stall.
``serve_swap``
    A :class:`~repro.serve.fleet.FleetApp` with ``min(2, nproc)`` workers
    and the ledger on.  ``/predict`` runs beside surrogate reads
    (``/gam/predict`` and ``/explain`` with an instance) while periodic
    ``POST /models`` hot swaps roll out model versions never seen before,
    more than the surrogate cache holds, so every swap pays the shared
    memory export, the ledger write-through and one surrogate refit.
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from common import (
    FOREST_SEED,
    WARMUP,
    CheckFailed,
    SpanTable,
    median,
    nproc,
    op_seed,
    parse_prometheus,
    peak_rss_mb,
    percentile,
    surrogate_probe,
    swap_model_versions,
    train_d_prime_forest,
)
from layers import delta, flatten, layer_metrics
import openloop

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of a traced run spent on the untraced reference phase.
REFERENCE_SHARE = 0.35

# serve_predict: about 8% and 20% of the rate two connections sustain
# when every request opens its own (about 240 req/s on a 2-CPU host).
# On a shared 2-CPU host the run-to-run spread of the latencies grew
# with the rate (at 150 req/s the queue grew in some runs).
# The gated ``p25_ms`` is the heavy rate's: at the light rate the server
# idles between requests and its latencies spread about twice as widely
# from run to run.
LIGHT_RPS = 20.0
HEAVY_RPS = 50.0
#: Shares of an untraced serve_predict run: light, heavy, saturation.
PREDICT_SHARES = (0.3, 0.6, 0.1)
#: Requests generated per second of the closed-loop saturation phase; a
#: server faster than this runs out of requests before the phase ends.
SATURATION_CAP_RPS = 1_000

# serve_swap
SWAP_PREDICT_RPS = 30.0
SWAP_SURROGATE_RPS = 10.0
SWAPS = 8
SURROGATE_CAPACITY = 2
SWAP_GEF_SAMPLES = 5_000
MODEL_ID = "bench"
WARMUP_REQUESTS = 40


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
class Sender:
    """The open-loop sender child process and the pipes to it.

    A plain subprocess rather than a ``multiprocessing`` one: the spawn
    start method also starts a resource-tracker process that outlives
    the benchmark.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(openloop.__file__))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def play(self, port: int, lanes, items, until=None) -> list:
        pickle.dump(("run", port, lanes, items, until), self._proc.stdin)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def close(self) -> None:
        try:
            pickle.dump(("stop",), self._proc.stdin)
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _lanes(classes_by_lane):
    """At most ``nproc`` connections: fold every class into one lane on a
    single-CPU host."""
    if nproc() >= len(classes_by_lane):
        return classes_by_lane
    return [tuple(c for lane in classes_by_lane for c in lane)]


def _arrivals(rng, rate: float, seconds: float, offset: float = 0.0):
    """Evenly spaced arrival times in ``[offset, offset + seconds)``."""
    return list(offset + np.arange(int(rate * seconds)) / rate)


def _predict_item(due, rows):
    body = json.dumps({"model": MODEL_ID, "rows": rows.tolist()}).encode("utf-8")
    return {"due": due, "cls": "predict", "method": "POST", "path": "/predict",
            "body": body, "rows": rows}


def _strip(items):
    """The items without the fields the sender does not need."""
    return [{k: v for k, v in item.items() if k != "rows"} for item in items]


class Phase:
    """One played schedule: its items, the sender's records, derived stats."""

    def __init__(self, items, records):
        self.items = items
        self.records = records

    def select(self, cls):
        return [
            (item, rec) for item, rec in zip(self.items, self.records)
            if item["cls"] == cls
        ]

    @staticmethod
    def latencies(pairs) -> list[float]:
        """Seconds from due to response end, successful requests only."""
        return [rec[1] - item["due"] for item, rec in pairs
                if rec is not None and rec[2] == 200]

    def attempted(self) -> int:
        return len(self.records)

    def throughput(self) -> float:
        """Answered requests per second, first send to last answer."""
        done = [rec for rec in self.records if rec is not None and rec[2] == 200]
        return len(done) / (max(r[1] for r in done) - min(r[0] for r in done))

    def failed(self) -> int:
        return sum(1 for rec in self.records if rec is None or rec[2] != 200)

    def lost(self) -> int:
        """Requests with no answer or an answer other than 200 or a 429 shed."""
        return sum(1 for rec in self.records
                   if rec is None or rec[2] not in (200, 429))

    def lags(self) -> list[float]:
        return [rec[0] - item["due"] for item, rec in zip(self.items, self.records)
                if rec is not None]

    def service(self, cls) -> list[float]:
        """Seconds from send start to response end (no queueing in the
        sender), successful requests of ``cls`` only."""
        return [rec[1] - rec[0] for item, rec in self.select(cls)
                if rec is not None and rec[2] == 200]


def _play(sender, port, lanes, items, until=None) -> Phase:
    records = sender.play(port, lanes, _strip(items), until)
    if until is not None:
        # A closed loop stops at ``until``: items it never sent were
        # never attempted.
        kept = [i for i, rec in enumerate(records) if rec is not None]
        items = [items[i] for i in kept]
        records = [records[i] for i in kept]
    return Phase(items, records)


def _set_up_repeatedly(bench, handles: list):
    """Set up ``SETUPS`` times, closing each server before the next; the
    last one stays open (in ``handles``) for the measurement."""
    seconds = []
    for _ in range(SETUPS):
        if handles:
            handles.pop().close()
        handle, setup_s, _ = bench.setup()
        handles.append(handle)
        seconds.append(setup_s)
    return handles[0], seconds


def _check_predictions(phase: Phase, forests: dict) -> None:
    """Every 200 ``/predict`` body equals ``predict_raw`` on its rows,
    bit for bit, for the forest whose fingerprint it names."""
    for item, rec in phase.select("predict"):
        if rec is None or rec[2] != 200:
            continue
        body = json.loads(rec[3])
        forest = forests.get(body["fingerprint"])
        if forest is None:
            raise CheckFailed(f"/predict named unknown fingerprint {body['fingerprint']}")
        expected = forest.predict_raw(item["rows"]).tolist()
        if body["predictions"] != expected:
            raise CheckFailed("a /predict body differs from predict_raw")


# ----------------------------------------------------------------------
# serve_predict
# ----------------------------------------------------------------------
class _PredictBench:
    def __init__(self, seed: int, sender: Sender):
        self.seed = seed
        self.sender = sender
        self.lanes = [("predict",)] * min(2, nproc())

    def setup(self):
        """Train the forest, serve it from a default ServeApp over HTTP and
        warm up the whole request path."""
        from repro.serve import ServeApp
        from repro.serve.http import start_server

        start = time.perf_counter()
        forest, data = train_d_prime_forest()
        train_s = time.perf_counter() - start
        app = ServeApp()
        app.add_model(MODEL_ID, forest)
        handle = start_server(app)
        self.forest = forest
        self.pool = data.X_test
        self.fingerprint = app.registry.get(MODEL_ID).fingerprint
        rng = np.random.default_rng(op_seed(self.seed, 0, WARMUP))
        warm = self.schedule(rng, [0.0] * WARMUP_REQUESTS)
        if _play(self.sender, handle.port, self.lanes, warm).failed():
            raise CheckFailed("warm-up requests failed")
        return handle, time.perf_counter() - start, train_s

    def schedule(self, rng, dues):
        return [
            _predict_item(due, self.pool[rng.integers(
                0, len(self.pool), size=int(rng.integers(1, 33)))])
            for due in dues
        ]

    def open_loop(self, handle, index, rate, seconds) -> Phase:
        rng = np.random.default_rng(op_seed(self.seed, index))
        items = self.schedule(rng, _arrivals(rng, rate, seconds))
        return _play(self.sender, handle.port, self.lanes, items)

    def closed_loop(self, handle, index, seconds) -> Phase:
        """``len(lanes)`` callers sending back to back for ``seconds``."""
        rng = np.random.default_rng(op_seed(self.seed, index))
        items = self.schedule(rng, [0.0] * int(SATURATION_CAP_RPS * seconds))
        return _play(self.sender, handle.port, self.lanes, items, until=seconds)


def run_predict(seed: int, seconds: float, trace: bool):
    sender = Sender()
    bench = _PredictBench(seed, sender)
    handles = []
    try:
        if trace:
            return _predict_traced(bench, seconds, handles)
        handle, setups = _set_up_repeatedly(bench, handles)
        light_s, heavy_s, saturation_s = (seconds * s for s in PREDICT_SHARES)
        light = bench.open_loop(handle, 0, LIGHT_RPS, light_s)
        heavy = bench.open_loop(handle, 1, HEAVY_RPS, heavy_s)
        saturation = bench.closed_loop(handle, 2, saturation_s)
        rss = peak_rss_mb()
    finally:
        for handle in handles:
            handle.close()
        sender.close()
    phases = (light, heavy, saturation)
    for phase in phases:
        _check_predictions(phase, {bench.fingerprint: bench.forest})
    light_lat = Phase.latencies(light.select("predict"))
    heavy_lat = Phase.latencies(heavy.select("predict"))
    attempted = sum(phase.attempted() for phase in phases)
    failed = sum(phase.failed() for phase in phases)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - failed / attempted,
        "p25_ms": percentile(heavy_lat, 25) * 1e3,
        "rate_per_s": saturation.throughput(),
    }
    detail = {
        "predict.p50_ms": median(light_lat) * 1e3,
        "predict.p90_ms": percentile(light_lat, 90) * 1e3,
        "predict.p99_ms": percentile(light_lat, 99) * 1e3,
        "predict_heavy.p50_ms": median(heavy_lat) * 1e3,
        "predict_heavy.p90_ms": percentile(heavy_lat, 90) * 1e3,
        "predict_heavy.p99_ms": percentile(heavy_lat, 99) * 1e3,
        "saturation_rps": metrics["rate_per_s"],
        "requests": {"light": len(light_lat), "heavy": len(heavy_lat),
                     "saturation": saturation.attempted()},
        "lag_p99_ms": percentile(light.lags() + heavy.lags(), 99) * 1e3,
    }
    return attempted, failed, metrics, detail


def _predict_traced(bench, seconds, handles):
    from repro.obs import disable_metrics, disable_tracing, enable_metrics, enable_tracing

    handle, _, train_s = bench.setup()
    handles.append(handle)
    reference = bench.open_loop(handle, 0, LIGHT_RPS, seconds * REFERENCE_SHARE)
    traced_s = seconds * (1.0 - REFERENCE_SHARE) / 2
    probe = surrogate_probe()
    tracer = enable_tracing()
    registry = enable_metrics()
    try:
        with probe.active():
            light = bench.open_loop(handle, 1, LIGHT_RPS, traced_s)
            heavy = bench.open_loop(handle, 2, HEAVY_RPS, traced_s)
        events = tracer.to_chrome_trace()["traceEvents"]
        counters = flatten(registry.snapshot())
    finally:
        disable_tracing()
        disable_metrics()
    phases = (reference, light, heavy)
    for phase in phases:
        _check_predictions(phase, {bench.fingerprint: bench.forest})
    table = SpanTable(events)
    ops = light.attempted() + heavy.attempted()
    metrics = layer_metrics(table, counters, ops, probe)
    metrics.update(
        _http_layers(table, light.service("predict") + heavy.service("predict"))
    )
    metrics.update(
        {
            "forest.train_s": train_s,
            "serve.fleet.transit_s": 0.0,
            "loadgen.lag_p99_ms": percentile(light.lags() + heavy.lags(), 99) * 1e3,
            "trace.overhead_ratio": median(Phase.latencies(light.select("predict")))
            / median(Phase.latencies(reference.select("predict"))),
        }
    )
    attempted = sum(phase.attempted() for phase in phases)
    failed = sum(phase.failed() for phase in phases)
    return attempted, failed, metrics, {"traced_requests": ops}


def _http_layers(table: SpanTable, service: list[float]) -> dict[str, float]:
    """HTTP overhead: client-side send-to-response time minus the
    server's ``serve.request`` time, and the share the spans cover."""
    client = float(np.mean(service))
    handled = table.mean_s("serve.request", (1,), endpoint="predict")
    return {
        "serve.http.overhead_s": client - handled,
        "trace.coverage": handled / client,
    }


# ----------------------------------------------------------------------
# serve_swap
# ----------------------------------------------------------------------
class _SwapBench:
    def __init__(self, seed: int, sender: Sender, workdir: Path):
        self.seed = seed
        self.sender = sender
        self.workdir = workdir
        self.lanes = _lanes([("predict",), ("surrogate", "swap")])
        self.setups = 0

    def gef_config(self):
        from repro.core import GEFConfig

        return GEFConfig(n_univariate=5, n_samples=SWAP_GEF_SAMPLES)

    def setup(self):
        """Build every model version, start a fleet with a fresh ledger
        and an HTTP server, and warm up predict and surrogate reads."""
        from repro.forest import forest_fingerprint, save_forest
        from repro.serve import FleetApp, FleetConfig, ServeConfig
        from repro.serve.http import start_server

        start = time.perf_counter()
        forests = swap_model_versions(SWAPS + 1)
        train_s = time.perf_counter() - start
        self.setups += 1
        root = self.workdir / f"setup{self.setups}"
        root.mkdir()
        self.paths = []
        for version, forest in enumerate(forests):
            path = root / f"model_v{version}.json"
            save_forest(forest, path)
            self.paths.append(str(path))
        app = FleetApp(
            ServeConfig(
                surrogate_capacity=SURROGATE_CAPACITY,
                gef=self.gef_config(),
                ledger_path=str(root / "ledger"),
            ),
            FleetConfig(workers=min(2, nproc())),
        )
        app.add_model(MODEL_ID, forests[0])
        app.start_fleet()
        handle = start_server(app)
        self.forests = {forest_fingerprint(f): f for f in forests}
        self.order = [forest_fingerprint(f) for f in forests]
        self.pool = np.random.default_rng(FOREST_SEED).uniform(
            0.0, 1.0, size=(4_096, forests[0].n_features_)
        )
        rng = np.random.default_rng(op_seed(self.seed, 0, WARMUP))
        warm = self.schedule(rng, WARMUP_REQUESTS / 100.0, swaps=False)
        phase = _play(self.sender, handle.port, self.lanes, warm)
        if phase.failed():
            raise CheckFailed("warm-up requests failed")
        return handle, time.perf_counter() - start, train_s

    def _rows(self, rng):
        return self.pool[rng.integers(0, len(self.pool), size=int(rng.integers(1, 33)))]

    def schedule(self, rng, seconds, swaps=True):
        items = [_predict_item(due, self._rows(rng))
                 for due in _arrivals(rng, SWAP_PREDICT_RPS, seconds)]
        for k, due in enumerate(_arrivals(rng, SWAP_SURROGATE_RPS, seconds)):
            if k % 2 == 0:
                rows = self._rows(rng)
                body = {"model": MODEL_ID, "rows": rows.tolist()}
                items.append({"due": due, "cls": "surrogate", "method": "POST",
                              "path": "/gam/predict", "rows": rows,
                              "body": json.dumps(body).encode("utf-8")})
            else:
                x = self._rows(rng)[0]
                body = {"model": MODEL_ID, "instance": x.tolist(), "top": 3}
                items.append({"due": due, "cls": "surrogate", "method": "POST",
                              "path": "/explain", "rows": x[None, :],
                              "body": json.dumps(body).encode("utf-8")})
        if swaps:
            for k in range(SWAPS):
                body = {"id": MODEL_ID, "path": self.paths[k + 1]}
                items.append({"due": seconds * (k + 0.5) / SWAPS, "cls": "swap",
                              "kind": "swap", "method": "POST", "path": "/models",
                              "body": json.dumps(body).encode("utf-8"),
                              "version": k + 1})
        return items

    def phase(self, handle, index, seconds) -> Phase:
        rng = np.random.default_rng(op_seed(self.seed, index))
        return _play(self.sender, handle.port, self.lanes,
                     self.schedule(rng, seconds))

    def check(self, phase: Phase) -> None:
        """Each answer matches the forest whose fingerprint it names."""
        from repro.core import GEF

        if phase.lost():
            raise CheckFailed(f"{phase.lost()} requests were lost")
        _check_predictions(phase, self.forests)
        surrogates = {}
        for item, rec in phase.select("surrogate"):
            if rec[2] != 200:
                continue
            body = json.loads(rec[3])
            fingerprint = body["fingerprint"]
            if fingerprint not in self.forests:
                raise CheckFailed(f"{item['path']} named unknown fingerprint")
            if fingerprint not in surrogates:
                surrogates[fingerprint] = GEF(self.gef_config()).explain(
                    self.forests[fingerprint]
                )
            expected = surrogates[fingerprint]
            if item["path"] == "/gam/predict":
                if body["predictions"] != expected.predict(item["rows"]).tolist():
                    raise CheckFailed("a /gam/predict body differs from a refit")
            else:
                local = expected.local_explanation(item["rows"][0])
                if body["local"]["prediction"] != local.prediction:
                    raise CheckFailed("an /explain body differs from a refit")
                if body["degraded"]:
                    raise CheckFailed("a served surrogate is degraded")
        for item, rec in phase.select("swap"):
            body = json.loads(rec[3])
            if body["fingerprint"] != self.order[item["version"]] or rec[4] is None:
                raise CheckFailed(f"swap to version {item['version']} did not land")

    @staticmethod
    def swap_seconds(phase: Phase) -> list[float]:
        return [rec[4] - rec[0] for _, rec in phase.select("swap")]

    @staticmethod
    def worker_pids(app) -> list[int]:
        workers = json.loads(app.handle("GET", "/healthz").body)["fleet"]["workers"]
        return [w["pid"] for w in workers.values() if w.get("pid")]


def run_swap(seed: int, seconds: float, trace: bool, workdir: Path):
    sender = Sender()
    bench = _SwapBench(seed, sender, workdir)
    handles = []
    try:
        if trace:
            return _swap_traced(bench, seconds, handles)
        handle, setups = _set_up_repeatedly(bench, handles)
        phase = bench.phase(handle, 0, seconds)
        rss = peak_rss_mb(bench.worker_pids(handle.app))
    finally:
        for handle in handles:
            handle.close()
        sender.close()
    bench.check(phase)
    predict = Phase.latencies(phase.select("predict"))
    surrogate = Phase.latencies(phase.select("surrogate"))
    swap_s = bench.swap_seconds(phase)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - phase.failed() / len(phase.records),
        "p25_ms": percentile(predict, 25) * 1e3,
        "rate_per_s": 1.0 / median(swap_s),
    }
    detail = {
        "predict.p50_ms": median(predict) * 1e3,
        "predict.p90_ms": percentile(predict, 90) * 1e3,
        "predict.p99_ms": percentile(predict, 99) * 1e3,
        "surrogate.p50_ms": median(surrogate) * 1e3,
        "surrogate.p90_ms": percentile(surrogate, 90) * 1e3,
        "surrogate.p99_ms": percentile(surrogate, 99) * 1e3,
        "swap_s": median(swap_s),
        "requests": len(phase.records),
        "surrogate_reads": len(surrogate),
    }
    return len(phase.records), phase.failed(), metrics, detail


def _fleet_counters(app) -> dict[str, float]:
    """Worker-side counters from the fleet series of ``GET /metrics``."""
    samples = parse_prometheus(app.handle("GET", "/metrics").body.decode())
    return {
        "predict.rows": samples.get("fleet_predict_rows_total", 0.0),
        "serve.shed": samples.get("fleet_serve_shed_total", 0.0),
        "serve.requests.predict": samples.get("fleet_serve_requests_predict_total", 0.0),
        "serve.batch_size.sum": samples.get("fleet_serve_batch_size_sum", 0.0),
        "serve.batch_size.count": samples.get("fleet_serve_batch_size_count", 0.0),
    }


def _swap_traced(bench, seconds, handles):
    from repro.obs import disable_metrics, disable_tracing, enable_metrics, enable_tracing

    handle, _, _ = bench.setup()
    handles.append(handle)
    reference = bench.phase(handle, 0, seconds * REFERENCE_SHARE)
    handles.remove(handle)
    handle.close()
    # Fleet workers trace only when tracing is on at spawn time, so the
    # traced phase runs on a fleet set up after it is enabled.
    tracer = enable_tracing()
    registry = enable_metrics()
    try:
        handle, _, train_s = bench.setup()
        handles.append(handle)
        app = handle.app
        app.fleet.sync_obs()
        marks = {}
        for event in app.fleet.merged_trace()["traceEvents"]:
            marks[event["pid"]] = marks.get(event["pid"], 0) + 1
        tracer.drain()
        front_before = flatten(registry.snapshot())
        fleet_before = _fleet_counters(app)
        probe = surrogate_probe()
        with probe.active():
            phase = bench.phase(handle, 1, seconds * (1.0 - REFERENCE_SHARE))
        fleet_after = _fleet_counters(app)
        front = delta(front_before, flatten(registry.snapshot()))
        seen: dict[int, int] = {}
        events = []
        for event in app.fleet.merged_trace()["traceEvents"]:
            pid = event["pid"]
            seen[pid] = seen.get(pid, 0) + 1
            if pid == 1 or seen[pid] > marks.get(pid, 0):
                events.append(event)
    finally:
        disable_tracing()
        disable_metrics()
    bench.check(reference)
    bench.check(phase)
    fleet = delta(fleet_before, fleet_after)
    predicts = len(phase.select("predict"))
    fallbacks = front.get("fleet.local_fallback", 0.0)
    if fleet["serve.requests.predict"] + fallbacks != predicts:
        raise CheckFailed(
            f"the workers counted {fleet['serve.requests.predict']:.0f} predicts "
            f"and the front end {fallbacks:.0f} fallbacks for {predicts} sent"
        )
    counters = dict(front)
    for name, value in fleet.items():
        counters[name] = counters.get(name, 0.0) + value
    table = SpanTable(events)
    workers = {e["pid"] for e in events if e["pid"] != 1}
    ops = len(phase.records)
    metrics = layer_metrics(table, counters, ops, probe, batch_pids=workers)
    metrics.update(_http_layers(table, phase.service("predict")))
    metrics.update(
        {
            "forest.train_s": train_s,
            "serve.fleet.transit_s": table.mean_s(
                "serve.request", (1,), endpoint="predict"
            ) - table.mean_s("serve.request", workers, endpoint="predict"),
            "loadgen.lag_p99_ms": percentile(phase.lags(), 99) * 1e3,
            "trace.overhead_ratio": median(Phase.latencies(phase.select("predict")))
            / median(Phase.latencies(reference.select("predict"))),
        }
    )
    attempted = len(reference.records) + ops
    return attempted, reference.failed() + phase.failed(), metrics, {
        "traced_requests": ops,
        "swap_s": median(bench.swap_seconds(phase)),
    }


def make_workdir(root: Path) -> Path:
    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="serve_swap-", dir=base))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
