"""Fleet routing, parity, lifecycle, and the loadgen/benchmark plumbing.

One module-scoped fleet (2 workers, full replication) is shared by the
read-only tests; spawn cost is paid once.  Tests that mutate fleet state
(model add/remove) restore it before returning the fixture.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.errors import FleetDegradedError, ModelNotFoundError
from repro.serve import FleetApp, FleetConfig, ServeConfig
from repro.serve.admission import Deadline
from repro.serve.fleet import HashRing
from repro.serve.shm import live_segments


@pytest.fixture(scope="module")
def fleet_app(serve_forest):
    app = FleetApp(
        ServeConfig(max_batch=16, queue_limit=4096),
        FleetConfig(workers=2, replication=2, quorum=1),
    )
    app.add_model("m", serve_forest)
    app.start_fleet()
    yield app
    app.close(drain=True)


def _predict_body(rows, model="m"):
    return json.dumps({"model": model, "rows": np.asarray(rows).tolist()})


class TestHashRing:
    def test_replicas_distinct_and_bounded(self):
        ring = HashRing([f"w{i}" for i in range(5)], vnodes=16)
        replicas = ring.replicas("model-a", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert ring.replicas("model-a", 10) == ring.replicas("model-a", 5)

    def test_assignment_is_stable_across_instances(self):
        a = HashRing(["w0", "w1", "w2"], vnodes=32)
        b = HashRing(["w0", "w1", "w2"], vnodes=32)
        for key in (0, 1, "fingerprint", 123456789):
            assert a.replicas(key, 2) == b.replicas(key, 2)

    def test_keys_spread_over_nodes(self):
        ring = HashRing([f"w{i}" for i in range(4)], vnodes=64)
        owners = {ring.replicas(k, 1)[0] for k in range(50)}
        assert len(owners) == 4

    def test_empty_ring(self):
        assert HashRing([], vnodes=4).replicas("x", 2) == []


class TestFleetServing:
    def test_predict_bitwise_identical_to_local(
        self, fleet_app, serve_rows
    ):
        response = fleet_app.handle(
            "POST", "/predict", _predict_body(serve_rows[:8])
        )
        assert response.status == 200
        expected = fleet_app.registry.get("m").predict_raw(serve_rows[:8])
        assert response.json()["predictions"] == expected.tolist()

    def test_dispatch_spreads_over_replicas(self, fleet_app, serve_rows):
        fleet = fleet_app.fleet
        deadline = Deadline(30.0)
        body = _predict_body(serve_rows[:2])
        for _ in range(4):
            response = fleet.dispatch("m", "POST", "/predict", body, deadline)
            assert response.status == 200
        # Round-robin over both replicas: the rotation counter advanced.
        assert fleet._rr[fleet_app.registry.get("m").fingerprint] >= 4

    def test_dispatch_unknown_model(self, fleet_app):
        with pytest.raises(ModelNotFoundError):
            fleet_app.fleet.dispatch(
                "ghost", "POST", "/predict", "{}", Deadline(5.0)
            )

    def test_healthz_reports_fleet(self, fleet_app):
        payload = fleet_app.handle("GET", "/healthz").json()
        fleet = payload["fleet"]
        assert fleet["state"] == "ok"
        assert set(fleet["workers"]) == {"w0", "w1"}
        assert all(w["state"] == "up" for w in fleet["workers"].values())
        assert fleet["models"]["m"]["assigned"]
        assert fleet["started"] is True and fleet["closed"] is False

    def test_bad_request_still_400_through_fleet(self, fleet_app):
        response = fleet_app.handle(
            "POST", "/predict", json.dumps({"model": "m"})
        )
        assert response.status == 400

    def test_worker_errors_surface_as_statuses(self, fleet_app):
        # Unknown model resolves on the front end (404 from _entry_for).
        response = fleet_app.handle(
            "POST", "/predict", _predict_body([[0.0] * 9], model="ghost")
        )
        assert response.status == 404


class TestFleetModels:
    def test_hot_swap_and_remove_unlink_segments(
        self, fleet_app, serve_forest, serve_rows
    ):
        before = set(live_segments())
        fleet_app.add_model("swap", serve_forest)
        mid = set(live_segments())
        # One segment per model: the one encoding the engine ladder picked.
        assert len(mid) == len(before) + 1
        # Hot swap: same id, new segments, old ones unlinked.
        fleet_app.add_model("swap", serve_forest)
        after_swap = set(live_segments())
        assert len(after_swap) == len(mid)
        assert after_swap != mid
        response = fleet_app.handle(
            "POST", "/predict", _predict_body(serve_rows[:4], model="swap")
        )
        assert response.status == 200
        fleet_app.remove_model("swap")
        assert set(live_segments()) == before

    def test_assignment_respects_replication(self, fleet_app, serve_forest):
        fleet_app.add_model("solo", serve_forest, replicas=1)
        try:
            assert len(fleet_app.fleet.assignment("solo")) == 1
            assert len(fleet_app.fleet.assignment("m")) == 2
        finally:
            fleet_app.remove_model("solo")


class TestDegradedServing:
    def test_unstarted_fleet_serves_locally(self, serve_forest, serve_rows):
        # The module-scoped fleet_app may still own segments; compare
        # against a snapshot rather than demanding an empty set.
        before = set(live_segments())
        app = FleetApp(ServeConfig(), FleetConfig(workers=1))
        try:
            app.add_model("m", serve_forest)
            assert not app.fleet.active()
            response = app.handle(
                "POST", "/predict", _predict_body(serve_rows[:4])
            )
            assert response.status == 200
            expected = app.registry.get("m").predict_raw(serve_rows[:4])
            assert response.json()["predictions"] == expected.tolist()
        finally:
            app.close(drain=True)
        assert set(live_segments()) == before

    def test_dispatch_on_closed_fleet_is_typed(self, serve_forest):
        app = FleetApp(ServeConfig(), FleetConfig(workers=1))
        app.add_model("m", serve_forest)
        app.close(drain=True)
        with pytest.raises(FleetDegradedError):
            app.fleet.dispatch("m", "POST", "/predict", "{}", Deadline(5.0))
