"""Per-layer metrics of one traced phase, named by the program's modules.

Every count and every ``busy_s`` is divided by the number of workload
operations the phase completed (explain calls on the explain workloads,
requests on the serve workloads), so runs that complete a different
number of operations in the same window stay comparable.  Ratios and
means (``rows_per_s``, ``hit_ratio``, ``size_mean``, ``wait_s``,
``compute_s``, ``overhead_s``, ``transit_s``) are not divided.
"""

from __future__ import annotations

from common import Probe, SpanTable

PREDICT_SPANS = ("bitvector.predict", "packed.predict")
PACK_SPANS = ("bitvector.pack", "packed.pack")
ENDPOINTS = ("predict", "gam_predict", "explain", "models")


def flatten(snapshot: dict) -> dict[str, float]:
    """Counters plus ``<hist>.sum``/``<hist>.count`` of a registry snapshot."""
    flat = {k: float(v) for k, v in snapshot.get("counters", {}).items()}
    for name, hist in snapshot.get("histograms", {}).items():
        flat[f"{name}.sum"] = float(hist.get("sum") or 0.0)
        flat[f"{name}.count"] = float(hist.get("count") or 0)
    return flat


def delta(before: dict, after: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    table: SpanTable,
    counters: dict[str, float],
    ops: int,
    probe: Probe,
    batch_pids=None,
) -> dict[str, float]:
    """Per-layer metrics from the phase's spans and counter deltas.

    ``batch_pids`` are the process lanes that batch ``/predict`` (``None``:
    every lane); with a fleet they are the workers, whose ``serve.request``
    spans measure the worker side of a request.
    """
    per = 1.0 / max(ops, 1)
    c = counters.get
    rows = c("predict.rows", 0.0)
    predict_busy = table.busy_s(PREDICT_SPANS)
    lookups = c("predict.cache_hits", 0.0) + c("predict.cache_misses", 0.0)
    batches = c("serve.batch_size.count", 0.0)
    batch_compute = table.mean_s("serve.batch")
    batched_request = table.mean_s(
        "serve.request", batch_pids, endpoint="predict"
    )
    metrics = {
        "forest.predict.calls": table.count(PREDICT_SPANS) * per,
        "forest.predict.rows": rows * per,
        "forest.predict.busy_s": predict_busy * per,
        "forest.predict.rows_per_s": _ratio(rows, predict_busy),
        "forest.pack.count": c("pack.count", 0.0) * per,
        "forest.pack.busy_s": table.busy_s(PACK_SPANS) * per,
        "forest.cache.hit_ratio": _ratio(c("predict.cache_hits", 0.0), lookups),
        "core.validate.busy_s": table.busy_s("stage.validate") * per,
        "core.select.busy_s": table.busy_s("stage.select") * per,
        "core.domains.busy_s": table.busy_s("stage.domains") * per,
        "core.sample.busy_s": table.busy_s("stage.sample") * per,
        "core.interactions.busy_s": table.busy_s("stage.interactions") * per,
        "core.fidelity.busy_s": table.busy_s("fidelity") * per,
        "core.stage_retries": sum(
            v for k, v in counters.items() if k.endswith(".retries")
        ) * per,
        "core.degraded": c("fit.rung_descents", 0.0) * per,
        "gam.fit.calls": table.count("gam.fit") * per,
        "gam.fit.busy_s": table.busy_s("gam.fit") * per,
        "gam.pirls_iters": c("fit.pirls_iters", 0.0) * per,
        "gam.gcv.busy_s": table.busy_s("gam.gcv") * per,
        "gam.gcv.candidates": c("fit.gcv_candidates", 0.0) * per,
        "gam.predict.busy_s": probe.busy.get("gam.predict", 0.0) * per,
        "serve.batch.size_mean": _ratio(c("serve.batch_size.sum", 0.0), batches),
        "serve.batch.compute_s": batch_compute,
        "serve.batch.wait_s": (
            max(batched_request - batch_compute, 0.0) if batches else 0.0
        ),
        "serve.shed": c("serve.shed", 0.0) * per,
        "serve.surrogate.hits": c("surrogate.hits", 0.0) * per,
        "serve.surrogate.misses": c("surrogate.misses", 0.0) * per,
        "serve.surrogate.fits": c("surrogate.fits", 0.0) * per,
        "serve.fleet.dispatched": c("fleet.dispatched", 0.0) * per,
        "ledger.append.calls": table.count("ledger.append") * per,
        "ledger.append.busy_s": table.busy_s("ledger.append") * per,
        "ledger.write_errors": c("ledger.write_errors", 0.0) * per,
    }
    for endpoint in ENDPOINTS:
        metrics[f"serve.request.{endpoint}.busy_s"] = (
            table.busy_s("serve.request", (1,), endpoint=endpoint) * per
        )
    return metrics
