"""Tier-2 perf smoke: end-to-end traced explain with per-stage timings.

Runs the full GEF pipeline with the ``repro.obs`` tracing/metrics
subsystem enabled on two cells, prints each cell's per-stage breakdown
and the GAM fit's sub-stages (``gam.basis`` / ``gam.gram`` /
``gam.solve``), and writes a ``BENCH_explain.json`` trajectory artifact
at the repo root (following the ``BENCH_predict.json`` conventions):

* ``regression_d_prime`` — the D' GBDT, identity link, N = 20,000 D*;
* ``logit_census`` — the census GBDT classifier, logit link (the PIRLS
  refit path of the GCV search), N = 10,000 D*.

Each cell is explained ``REPEATS`` times with a fresh tracer and keeps the
fastest run (best-of-N wall time); the artifact records the host
(``cpu_count`` and the BLAS thread environment) next to the timings.  The
run *fails* if a cell's stage spans cover less than 95% of its end-to-end
``explain`` wall time — the observability acceptance gate, pinned in CI.

Run with ``pytest benchmarks/test_perf_explain.py -q``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import GEF
from repro.obs import disable_metrics, disable_tracing, enable_metrics, enable_tracing
from repro.obs.summary import stage_totals, trace_coverage

from _report import header, report

REPO_ROOT = Path(__file__).resolve().parents[1]

SEED = 0
N_UNIVARIATE = 5
K_POINTS = 200
REPEATS = 3
COVERAGE_FLOOR = 0.95
#: Environment variables that set the BLAS/OpenMP thread pools.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: The GAM fit's sub-stages, and with them the GCV search and PIRLS fit spans.
FIT_SUB_SPANS = ("gam.basis", "gam.gram", "gam.solve")
FIT_SPANS = ("gam.gcv", "gam.fit", *FIT_SUB_SPANS)


def _traced_explain(forest, n_samples):
    """One traced+metered explain: (explanation, wall seconds, tracer, registry)."""
    gef = GEF(
        n_univariate=N_UNIVARIATE,
        n_samples=n_samples,
        k_points=K_POINTS,
        random_state=SEED,
    )
    tracer = enable_tracing()
    registry = enable_metrics()
    start = time.perf_counter()
    try:
        explanation = gef.explain(forest)
    finally:
        wall_seconds = time.perf_counter() - start
        disable_tracing()
        disable_metrics()
    return explanation, wall_seconds, tracer, registry


def _run_cell(name, forest, n_samples, forest_config):
    runs = [_traced_explain(forest, n_samples) for _ in range(REPEATS)]
    explanation, wall_seconds, tracer, registry = min(runs, key=lambda r: r[1])

    payload = tracer.to_chrome_trace(extra={"metrics": registry.snapshot()})
    totals = stage_totals(payload)
    coverage = trace_coverage(payload)
    (explain_span,) = tracer.find("explain")
    traced_seconds = explain_span.duration_s

    header(f"GEF end-to-end explain [{name}]: per-stage wall-time breakdown")
    stages = []
    for stage, entry in sorted(totals.items(), key=lambda kv: -kv[1]["seconds"]):
        share = entry["seconds"] / traced_seconds if traced_seconds > 0 else 0.0
        stages.append(
            {
                "stage": stage,
                "spans": entry["count"],
                "seconds": round(entry["seconds"], 4),
                "share": round(share, 4),
            }
        )
        report(
            f"{stage:<22}{entry['count']:>4} span(s)  "
            f"{entry['seconds']:>9.4f}s  {share * 100:>5.1f}%"
        )
    fit_breakdown = []
    for span_name in FIT_SPANS:
        spans = tracer.find(span_name)
        seconds = sum(s.duration_s for s in spans)
        fit_breakdown.append(
            {"span": span_name, "spans": len(spans), "seconds": round(seconds, 4)}
        )
        report(f"  {span_name:<20}{len(spans):>4} span(s)  {seconds:>9.4f}s")
    report(
        f"{'end-to-end':<22}{'':>4}          {wall_seconds:>9.4f}s  "
        f"(best of {REPEATS}: "
        f"{', '.join(f'{r[1]:.4f}' for r in runs)}; traced "
        f"{traced_seconds:.4f}s, span coverage {coverage * 100:.1f}%)"
    )

    counters = registry.snapshot()["counters"]
    cell = {
        "name": name,
        "config": {
            "n_univariate": N_UNIVARIATE,
            "n_samples": n_samples,
            "k_points": K_POINTS,
            "seed": SEED,
            "link": explanation.gam.link.name,
            "forest": forest_config,
        },
        "wall_seconds": round(wall_seconds, 4),
        "wall_seconds_runs": [round(r[1], 4) for r in runs],
        "traced_seconds": round(traced_seconds, 4),
        "span_coverage": round(coverage, 4),
        "n_spans": len(tracer.spans()),
        "stages": stages,
        "fit_breakdown": fit_breakdown,
        "counters": {k: v for k, v in sorted(counters.items())},
        "fidelity": {
            k: round(float(v), 4) for k, v in sorted(explanation.fidelity.items())
        },
    }
    return cell, explanation, counters


def test_perf_explain(d_prime_forest, census_forest):
    cells = []
    for name, forest, n_samples, forest_config in (
        ("regression_d_prime", d_prime_forest, 20_000,
         {"n_trees": 200, "num_leaves": 32}),
        ("logit_census", census_forest, 10_000,
         {"n_trees": 120, "num_leaves": 32}),
    ):
        cell, explanation, counters = _run_cell(
            name, forest, n_samples, forest_config
        )
        cells.append(cell)
        assert counters.get("predict.rows", 0) >= n_samples
        assert explanation.stage_report is not None
        assert all(
            rec.duration_s > 0.0
            for rec in explanation.stage_report.records
            if rec.status != "skipped"
        )
        breakdown = {entry["span"]: entry for entry in cell["fit_breakdown"]}
        sub_seconds = sum(breakdown[s]["seconds"] for s in FIT_SUB_SPANS)
        assert all(breakdown[s]["spans"] > 0 for s in FIT_SUB_SPANS), breakdown
        # Rounded to 0.1 ms per entry: allow that much slack per summand.
        assert sub_seconds <= breakdown["gam.gcv"]["seconds"] + 3e-4, breakdown

    artifact = {
        "benchmark": "explain",
        "host": {
            "cpu_count": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": REPEATS,
        "cells": cells,
    }
    (REPO_ROOT / "BENCH_explain.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )

    for cell in cells:
        assert cell["span_coverage"] >= COVERAGE_FLOOR, (
            f"{cell['name']}: stage spans cover only "
            f"{cell['span_coverage'] * 100:.1f}% of the explain wall time "
            f"(acceptance floor is {COVERAGE_FLOOR:.0%})"
        )
