"""Fleet routing, parity, lifecycle, and the loadgen/benchmark plumbing.

One module-scoped fleet (2 workers, each holding every model) is shared by the
read-only tests; spawn cost is paid once.  Tests that mutate fleet state
(model add/remove) restore it before returning the fixture.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

from repro.core.errors import FleetDegradedError, ModelNotFoundError
from repro.devtools.faultinject import kill_worker
from repro.forest import forest_fingerprint, forest_from_dict, forest_to_dict
from repro.obs import fleet_to_prometheus
from repro.obs.trace import advance
from repro.serve import FleetApp, FleetConfig, ServeConfig
from repro.serve.admission import Deadline
from repro.serve.fleet import _Pending
from repro.serve.shm import live_segments

#: Request ids for messages sent straight to one worker; far above the
#: fleet's own counter so the two never share an id on one pipe.
_DIRECT_RIDS = itertools.count(10**9)


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


def _worker_healthz(fleet, name):
    """``GET /healthz`` sent straight to worker ``name``, past the router."""
    rid = next(_DIRECT_RIDS)
    pending = _Pending()
    message = ("req", rid, "GET", "/healthz", b"", None)
    assert fleet.handle(name).submit(rid, message, pending)
    assert pending.event.wait(30.0)
    assert pending.outcome == "ok" and pending.status == 200
    return json.loads(pending.body)


def _worker_predicts(fleet):
    """Per-worker ``fleet_worker_*`` predict counters, freshly synced."""
    fleet.sync_obs()
    text = fleet_to_prometheus(fleet.aggregator)
    return {
        worker: float(value)
        for worker, value in re.findall(
            r'^fleet_worker_serve_requests_predict_total\{worker="(\w+)"\} (\S+)$',
            text,
            re.MULTILINE,
        )
    }


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
        before = _worker_predicts(fleet)
        for _ in range(4):
            response = fleet.dispatch("m", "POST", "/predict", body, deadline)
            assert response.status == 200
        after = _worker_predicts(fleet)
        # Round-robin over both workers: each served half of the four.
        spread = {w: after[w] - before.get(w, 0.0) for w in after}
        assert spread == {"w0": 2.0, "w1": 2.0}

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
        assert fleet["models"]["m"] == {
            "fingerprint": fleet_app.registry.get("m").fingerprint
        }
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

    def test_every_worker_holds_every_model_across_swaps(
        self, fleet_app, serve_forest
    ):
        # Four versions, none equal to the fixture's "m": v_k drops k trees.
        versions = []
        for k in range(1, 5):
            forest = forest_from_dict(forest_to_dict(serve_forest))
            del forest.trees_[-k:]
            versions.append(forest)
        fingerprints = [forest_fingerprint(f) for f in versions]
        assert len(set(fingerprints)) == 4
        try:
            # Added after start_fleet(), then hot swapped three times.
            for step, forest in enumerate(versions):
                fleet_app.add_model("rolling", forest)
                stale = set(fingerprints[:step])
                for name in ("w0", "w1"):
                    models = _worker_healthz(fleet_app.fleet, name)["models"]
                    assert models["rolling"]["fingerprint"] == fingerprints[step]
                    held = {m["fingerprint"] for m in models.values()}
                    assert not held & stale, (name, step)
        finally:
            fleet_app.remove_model("rolling")
        for name in ("w0", "w1"):
            assert "rolling" not in _worker_healthz(fleet_app.fleet, name)["models"]

    def test_model_added_during_respawn_reaches_the_new_worker(
        self, serve_forest, monkeypatch
    ):
        # The add lands after the respawn snapshots its bundles and before
        # the new handle is published, so neither the spawn arguments nor
        # the broadcast carry it; the respawned worker must still load it.
        app = FleetApp(
            ServeConfig(),
            FleetConfig(workers=2, quorum=1, backoff_base_s=1000.0),
        )
        app.add_model("m", serve_forest)
        app.start_fleet()
        fleet, sup = app.fleet, app.fleet.supervisor
        try:
            sup.tick()
            kill_worker(fleet, "w0")
            sup.tick()
            options = fleet._worker_options

            def add_mid_spawn():
                monkeypatch.setattr(fleet, "_worker_options", options)
                app.add_model("late", serve_forest)
                return options()

            monkeypatch.setattr(fleet, "_worker_options", add_mid_spawn)
            advance(1001.0)
            sup.tick()
            assert fleet.await_ready("w0", 60.0)
            for name in ("w0", "w1"):
                assert "late" in _worker_healthz(fleet, name)["models"]
        finally:
            app.close(drain=True)


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
