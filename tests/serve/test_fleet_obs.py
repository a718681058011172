"""Fleet observability: SLO cycle, healthz supervision, merged traces.

The SLO chaos test drives the full ``ok -> warn -> breach -> recovered``
cycle on the synthetic clock: skew offsets are *computed* from the drift
reservoir (a constant offset ``c`` costs exactly ``n*c^2/ss_tot`` of R²)
so the fidelity lands in a chosen band deterministically — no sleeping,
no model corruption, no tuning by hand.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.config import GEFConfig
from repro.devtools.faultinject import skew_surrogate
from repro.obs import enable_metrics, enable_tracing
from repro.obs.metrics import validate_prometheus_text
from repro.obs.slo import LEVELS, default_slo_config
from repro.obs.summary import pid_breakdown
from repro.obs.trace import advance, validate_chrome_trace
from repro.serve import FleetApp, FleetConfig, ServeApp, ServeConfig

_GEF_SMALL = dict(
    n_univariate=3, n_samples=1_500, k_points=8, random_state=0
)


def _body(payload: dict) -> str:
    return json.dumps(payload)


# ----------------------------------------------------------------------
# SLO engine end to end (single-process app; the engine is identical
# under FleetApp — the fleet feeds the same drift reservoir)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def slo_app(serve_forest, serve_rows):
    """One app with the SLO plane on and a primed surrogate cache.

    Latency/error thresholds are parked far away so the fidelity rule is
    the only one in play; the GAM fit is paid once per module.
    """
    app = ServeApp(
        ServeConfig(
            max_batch=8,
            batch_delay_s=0.002,
            gef=GEFConfig(**_GEF_SMALL),
            slo=default_slo_config(
                fidelity_warn=0.6,
                fidelity_breach=0.3,
                p99_s=600.0,
                error_budget=0.9,
            ),
        )
    )
    app.add_model("demo", serve_forest)
    response = app.handle("POST", "/explain", _body({"model": "demo"}))
    assert response.status == 200, response.body
    response = app.handle(
        "POST",
        "/predict",
        _body({"model": "demo", "rows": serve_rows[:64].tolist()}),
    )
    assert response.status == 200, response.body
    yield app
    app.close(drain=True)


def _offset_for(app, target_fidelity: float) -> float:
    """The skew offset that lands fidelity exactly on ``target_fidelity``.

    With residuals ``r_i = approx_i - truth_i`` a constant offset ``c``
    gives ``ss_res(c) = ss_res0 + 2c*sum(r) + n*c^2`` — solve the
    quadratic for the ``c`` that pins R² to the target.
    """
    pairs = app.drift.samples()["demo"]
    rows = [row for row, _ in pairs]
    truth = [score for _, score in pairs]
    approx = app.surrogate_replay("demo", rows)
    n = len(truth)
    mean = sum(truth) / n
    ss_tot = sum((t - mean) ** 2 for t in truth)
    resid = [a - t for a, t in zip(approx, truth)]
    s = sum(resid)
    ss_res0 = sum(r * r for r in resid)
    constant = ss_res0 - (1.0 - target_fidelity) * ss_tot
    return (-s + math.sqrt(s * s - n * constant)) / n


class TestSloCycle:
    def test_ok_warn_breach_recovered_without_sleeping(self, slo_app):
        app = slo_app
        app.slo.reset()
        assert app.slo_tick() == "ok"
        base = app.drift.last()["fidelity"]
        assert base is not None and base > 0.6, (
            f"baseline surrogate fidelity {base} does not clear the warn "
            f"threshold; the cycle below would start degraded"
        )

        warn_offset = _offset_for(app, 0.45)     # in [0.3, 0.6)
        breach_offset = _offset_for(app, -0.5)   # well below 0.3
        with skew_surrogate(app, warn_offset):
            advance(5.0)
            assert app.slo_tick() == "warn"            # escalation: instant
        with skew_surrogate(app, breach_offset):
            advance(5.0)
            assert app.slo_tick() == "breach"
        # skew is gone; recover_after=2 holds the breach one tick
        advance(5.0)
        assert app.slo_tick() == "breach"
        advance(5.0)
        assert app.slo_tick() == "ok"

        view = app.slo.view()
        fidelity_shifts = [
            t for t in view["transitions"] if t["rule"] == "fidelity_floor"
        ]
        assert [t["to"] for t in fidelity_shifts] == ["warn", "breach", "ok"]
        assert fidelity_shifts[-1]["reason"] == "recovered"
        stamps = [t["at_s"] for t in fidelity_shifts]
        assert stamps == sorted(stamps) and stamps[0] < stamps[-1]

    def test_skew_restores_on_context_exit(self, slo_app):
        app = slo_app
        app.slo.reset()
        app.slo_tick()
        base = app.drift.last()["fidelity"]
        with skew_surrogate(app, _offset_for(app, -1.0)):
            pass
        app.slo_tick()
        assert app.drift.last()["fidelity"] == pytest.approx(base)

    def test_skew_requires_slo_enabled(self, serve_forest):
        app = ServeApp(ServeConfig())
        try:
            with pytest.raises(ValueError, match="SLO"):
                with skew_surrogate(app, 1.0):
                    pass
        finally:
            app.close(drain=True)

    def test_healthz_carries_slo_and_drift_blocks(self, slo_app):
        app = slo_app
        app.slo.reset()
        app.slo_tick()
        payload = json.loads(
            app.handle("GET", "/healthz").body.decode("utf-8")
        )
        block = payload["slo"]
        assert block["state"] in LEVELS
        assert set(block["rules"]) == {
            "fidelity_floor", "p99_latency", "error_budget"
        }
        assert block["rules"]["fidelity_floor"]["level"] == "ok"
        assert block["drift"]["fidelity"] == pytest.approx(
            app.drift.last()["fidelity"]
        )
        assert block["drift"]["models"]["demo"]["samples"] == 64

    def test_error_budget_rule_sees_counter_deltas(self, slo_app):
        app = slo_app
        app.slo.reset()
        enable_metrics()
        # every request in this window is a 404 -> error rate 1.0 beats
        # even the parked 0.9 budget
        for _ in range(8):
            assert app.handle("POST", "/predict", "not json").status == 400
        app.slo_tick()   # establishes the baseline window
        for _ in range(8):
            app.handle("GET", "/nope")
        state = app.slo_tick()
        values = app.slo.view()["rules"]["error_budget"]
        assert values["value"] is not None
        assert values["value"] == pytest.approx(0.0)   # 404s are not 5xx
        assert state == "ok"


# ----------------------------------------------------------------------
# fleet: supervision healthz, aggregated /metrics, merged traces
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_app(serve_forest):
    app = FleetApp(
        ServeConfig(max_batch=16, queue_limit=4096),
        FleetConfig(workers=2, quorum=1),
    )
    app.add_model("m", serve_forest)
    app.start_fleet()
    yield app
    app.close(drain=True)


def _predict_body(rows, model="m"):
    return json.dumps({"model": model, "rows": np.asarray(rows).tolist()})


class TestFleetHealthz:
    def test_per_worker_uptime_and_transitions(self, fleet_app):
        payload = json.loads(
            fleet_app.handle("GET", "/healthz").body.decode("utf-8")
        )
        fleet = payload["fleet"]
        assert fleet["state"] == "ok"
        assert set(fleet["workers"]) == {"w0", "w1"}
        for name, entry in fleet["workers"].items():
            assert entry["state"] == "up"
            assert entry["restarts"] == 0
            assert entry["uptime_s"] is not None and entry["uptime_s"] >= 0.0
            # the per-worker slice contains only this worker's shifts,
            # ending in the boot transition to "up"
            assert entry["transitions"], name
            assert all(
                t["worker"] == name for t in entry["transitions"]
            )
            assert entry["transitions"][-1]["to"] == "up"
        # the fleet-wide log is still there for cross-worker forensics
        assert len(fleet["transitions"]) >= 2


class TestFleetMetrics:
    def test_scrape_appends_validated_fleet_series(self, fleet_app,
                                                   serve_rows):
        enable_metrics()
        before = fleet_app.fleet.aggregator.fleet_snapshot()["counters"].get(
            "predict.rows", 0.0
        )
        for i in range(4):
            response = fleet_app.handle(
                "POST", "/predict", _predict_body(serve_rows[i * 4:i * 4 + 4])
            )
            assert response.status == 200
        response = fleet_app.handle("GET", "/metrics")
        text = response.body.decode("utf-8")
        assert validate_prometheus_text(text) > 0
        assert "fleet_predict_rows_total" in text
        assert 'fleet_worker_predict_rows_total{worker="w0"}' in text
        # exact parity: the aggregated fleet counter grew by precisely
        # the rows this test dispatched (the scrape ran sync_obs)
        after = fleet_app.fleet.aggregator.fleet_snapshot()["counters"][
            "predict.rows"
        ]
        assert after - before == 16.0


class TestMergedTrace:
    def test_fleet_trace_merges_worker_lanes(self, serve_forest, serve_rows):
        enable_tracing()
        app = FleetApp(
            ServeConfig(max_batch=16, queue_limit=4096),
            FleetConfig(workers=2, quorum=1),
        )
        try:
            app.add_model("m", serve_forest)
            app.start_fleet()
            for i in range(8):
                response = app.handle(
                    "POST",
                    "/predict",
                    _predict_body(serve_rows[i * 2:i * 2 + 2]),
                )
                assert response.status == 200
            assert app.fleet.sync_obs() == 2
            payload = app.fleet.merged_trace()
            assert validate_chrome_trace(payload) > 0
            events = payload["traceEvents"]
            pids = {e["pid"] for e in events}
            assert 1 in pids           # the front end's own lane
            assert len(pids) >= 2      # plus at least one worker lane
            # propagation: worker spans carry front-end trace ids, so
            # the merged trace stitches into end-to-end requests
            front_traces = {
                e["args"]["trace_id"] for e in events if e["pid"] == 1
            }
            stitched = [
                e for e in events
                if e["pid"] != 1 and e["args"]["trace_id"] in front_traces
            ]
            assert stitched
            # and the summary layer sees one lane per process
            lanes = pid_breakdown(payload)
            assert set(lanes) == pids
            assert all(lane["spans"] > 0 for lane in lanes.values())
        finally:
            app.close(drain=True)

    def test_worker_span_ids_never_collide(self, serve_forest, serve_rows):
        enable_tracing()
        app = FleetApp(
            ServeConfig(max_batch=16, queue_limit=4096),
            FleetConfig(workers=2, quorum=1),
        )
        try:
            app.add_model("m", serve_forest)
            app.start_fleet()
            for i in range(6):
                app.handle(
                    "POST", "/predict", _predict_body(serve_rows[i:i + 1])
                )
            app.fleet.sync_obs()
            events = app.fleet.merged_trace()["traceEvents"]
            ids = [e["args"]["span_id"] for e in events]
            assert len(ids) == len(set(ids))
        finally:
            app.close(drain=True)
