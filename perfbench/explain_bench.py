"""The explain workloads: one caller, closed loop, ``GEF.explain`` calls.

Each operation explains the same fixed forest with a fresh sampling seed
derived from the workload seed, so the forest's content-hashed predict
cache never hits.  Each call is followed by reads of the fresh surrogate,
as a user would make them: GAM predictions for batches of 1-32 D*_test
rows, timed and reported on the detail line, and local explanations of
single rows, checked against those predictions.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from common import (
    SIDE,
    WARMUP,
    CheckFailed,
    SpanTable,
    median,
    op_seed,
    peak_rss_mb,
    percentile,
    surrogate_probe,
    train_census_forest,
    train_d_prime_forest,
)
from layers import flatten, layer_metrics

SPECS = {
    "explain_reg": {
        "train": train_d_prime_forest,
        "n_interactions": 3,
        "n_samples": 20_000,
        "fidelity_floor": 0.97,
    },
    "explain_logit": {
        "train": train_census_forest,
        "n_interactions": 0,
        "n_samples": 10_000,
        "fidelity_floor": 0.6,
    },
}
N_UNIVARIATE = 5
#: D* size of the warm-up explain each set-up ends with.
WARMUP_SAMPLES = 2_000
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Timed surrogate predictions and checked local explanations per explain.
PREDICT_READS = 32
LOCAL_CHECKS = 4
#: Share of a traced run spent on the untraced reference phase.
REFERENCE_SHARE = 0.35


def _config(spec, random_state, n_samples=None):
    from repro.core import GEFConfig

    return GEFConfig(
        n_univariate=N_UNIVARIATE,
        n_interactions=spec["n_interactions"],
        n_samples=n_samples or spec["n_samples"],
        random_state=random_state,
    )


def _setup(spec, seed: int):
    """Train the forest, then warm up: the first explain packs the
    prediction engines and loads every lazily imported module."""
    from repro.core import GEF

    start = time.perf_counter()
    forest, _ = spec["train"]()
    train_s = time.perf_counter() - start
    GEF(_config(spec, op_seed(seed, 0, WARMUP), WARMUP_SAMPLES)).explain(forest)
    return forest, time.perf_counter() - start, train_s


def _side_reads(explanation, rng) -> list[float]:
    """Time the surrogate's predictions for batches of D*_test rows, then
    check local explanations of single rows against those predictions."""
    X = explanation.dataset.X_test
    latencies = []
    for _ in range(PREDICT_READS):
        rows = X[rng.integers(0, len(X), size=int(rng.integers(1, 33)))]
        start = time.perf_counter()
        mu = explanation.predict(rows)
        latencies.append(time.perf_counter() - start)
        if mu.shape != (len(rows),) or not np.all(np.isfinite(mu)):
            raise CheckFailed("surrogate predictions are not finite")
    for _ in range(LOCAL_CHECKS):
        x = X[int(rng.integers(0, len(X)))]
        local = explanation.local_explanation(x)
        direct = float(explanation.predict(x[None, :])[0])
        if not np.isclose(local.prediction, direct, rtol=1e-9, atol=1e-12):
            raise CheckFailed(
                f"local explanation predicts {local.prediction}, "
                f"the surrogate {direct}"
            )
    return latencies


def _run_ops(forest, spec, seed, first, seconds, expected_features):
    """Closed loop until ``seconds`` have passed.

    Returns the records of the explain calls that answered and the number
    that raised a typed pipeline error.
    """
    from repro.core import GEF, ReproError

    records = []
    failed = 0
    deadline = time.perf_counter() + seconds
    for index in itertools.count(first):
        if time.perf_counter() >= deadline and (records or failed):
            break
        config = _config(spec, op_seed(seed, index))
        start = time.perf_counter()
        try:
            explanation = GEF(config).explain(forest)
        except ReproError:
            failed += 1
            continue
        elapsed = time.perf_counter() - start
        report = explanation.stage_report
        if report.degraded:
            raise CheckFailed(f"op {index} degraded: {report.fallbacks}")
        if list(explanation.features) != expected_features:
            raise CheckFailed(
                f"op {index} selected {explanation.features}, an independent "
                f"select_univariate gives {expected_features}"
            )
        if len(explanation.pairs) != spec["n_interactions"]:
            raise CheckFailed(f"op {index} kept pairs {explanation.pairs}")
        r2 = float(explanation.fidelity["r2"])
        if not r2 >= spec["fidelity_floor"]:
            raise CheckFailed(
                f"op {index} fidelity R2 {r2:.4f} is below the floor "
                f"{spec['fidelity_floor']}"
            )
        side = _side_reads(
            explanation, np.random.default_rng(op_seed(seed, index, SIDE))
        )
        records.append({"seconds": elapsed, "r2": r2, "side": side})
    if not records:
        raise CheckFailed(f"all {failed} explain calls failed")
    return records, failed


def run(name: str, seed: int, seconds: float, trace: bool):
    """One run of an explain workload; returns (attempted, failed, metrics, detail)."""
    from repro.core import select_univariate

    spec = SPECS[name]
    if trace:
        return _run_traced(spec, seed, seconds)
    setups = [_setup(spec, seed) for _ in range(SETUPS)]
    forest = setups[-1][0]
    expected = list(select_univariate(forest, N_UNIVARIATE))
    records, failed = _run_ops(forest, spec, seed, 0, seconds, expected)
    times = [r["seconds"] for r in records]
    side = [s for r in records for s in r["side"]]
    metrics = {
        "setup_s": median([s[1] for s in setups]),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": len(records) / (len(records) + failed),
        "p25_ms": percentile(times, 25) * 1e3,
        "rate_per_s": len(times) / sum(times),
    }
    detail = {
        "explain_p50_s": median(times),
        "explain_p90_s": percentile(times, 90),
        "fidelity_r2": float(np.mean([r["r2"] for r in records])),
        "surrogate_predict.p50_ms": median(side) * 1e3,
        "surrogate_predict.p90_ms": percentile(side, 90) * 1e3,
        "surrogate_predict.p99_ms": percentile(side, 99) * 1e3,
        "ops": len(times),
        "surrogate_predicts": len(side),
    }
    return len(records) + failed, failed, metrics, detail


def _run_traced(spec, seed: int, seconds: float):
    from repro.core import select_univariate
    from repro.obs import disable_metrics, disable_tracing, enable_metrics, enable_tracing
    from repro.obs.summary import stage_totals

    forest, _, train_s = _setup(spec, seed)
    expected = list(select_univariate(forest, N_UNIVARIATE))
    reference, reference_failed = _run_ops(
        forest, spec, seed, 0, seconds * REFERENCE_SHARE, expected
    )
    probe = surrogate_probe()
    tracer = enable_tracing()
    registry = enable_metrics()
    try:
        with probe.active():
            records, traced_failed = _run_ops(
                forest, spec, seed, len(reference) + reference_failed,
                seconds * (1.0 - REFERENCE_SHARE), expected,
            )
        payload = tracer.to_chrome_trace()
        counters = flatten(registry.snapshot())
    finally:
        disable_tracing()
        disable_metrics()
    if counters.get("predict.cache_hits", 0.0) != 0.0:
        raise CheckFailed("the forest's predict cache hit during explain ops")
    table = SpanTable(payload["traceEvents"])
    wall = sum(r["seconds"] for r in records)
    covered = sum(e["seconds"] for e in stage_totals(payload).values())
    metrics = layer_metrics(table, counters, len(records), probe)
    metrics.update(
        {
            "forest.train_s": train_s,
            "serve.http.overhead_s": 0.0,
            "serve.fleet.transit_s": 0.0,
            "loadgen.lag_p99_ms": 0.0,
            "trace.coverage": covered / wall,
            "trace.overhead_ratio": median([r["seconds"] for r in records])
            / median([r["seconds"] for r in reference]),
        }
    )
    failed = reference_failed + traced_failed
    attempted = len(reference) + len(records) + failed
    return attempted, failed, metrics, {"traced_ops": len(records)}
