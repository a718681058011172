"""Hot swap under traffic: a /predict names the forest that computed it.

A swap publishes the new registry entry before its micro-batcher.  These
tests force a request into exactly that window — from inside
``install_entry``, which runs after the registry publish and before the
batcher swap — and check that the response's fingerprint and scores
belong to the same forest, whichever of the two versions answered.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.forest import (
    engine_for,
    forest_fingerprint,
    forest_from_dict,
    forest_to_dict,
)
from repro.serve.app import ServeApp
from repro.serve.shm import export_model
from repro.serve.worker import install_shared_model


@pytest.fixture()
def versions(serve_forest):
    """Two forests with different fingerprints: v0 and v0 minus a tree."""
    v1 = forest_from_dict(forest_to_dict(serve_forest))
    del v1.trees_[-1]
    forests = {forest_fingerprint(f): f for f in (serve_forest, v1)}
    assert len(forests) == 2
    return serve_forest, v1, forests


def _predict_mid_swap(app, monkeypatch, rows):
    """Patch ``app.install_entry`` to fire one /predict before it runs."""
    responses = []
    install = app.install_entry

    def install_with_request(entry):
        body = json.dumps({"model": "m", "rows": rows.tolist()})
        responses.append(app.handle("POST", "/predict", body))
        return install(entry)

    monkeypatch.setattr(app, "install_entry", install_with_request)
    return responses


def _assert_self_consistent(response, forests, rows):
    assert response.status == 200, response.body
    payload = response.json()
    forest = forests[payload["fingerprint"]]
    assert payload["predictions"] == forest.predict_raw(rows).tolist()


def test_in_process_swap_window(versions, serve_rows, monkeypatch):
    v0, v1, forests = versions
    rows = serve_rows[:16]
    app = ServeApp()
    try:
        app.add_model("m", v0)
        responses = _predict_mid_swap(app, monkeypatch, rows)
        app.add_model("m", v1)
        assert len(responses) == 1
        _assert_self_consistent(responses[0], forests, rows)
        after = app.handle(
            "POST", "/predict", json.dumps({"model": "m", "rows": rows.tolist()})
        )
        assert after.json()["fingerprint"] == forest_fingerprint(v1)
        _assert_self_consistent(after, forests, rows)
    finally:
        app.close(drain=True)


def test_fleet_worker_swap_window(versions, serve_rows, monkeypatch):
    v0, v1, forests = versions
    rows = serve_rows[:16]
    app = ServeApp()
    owned, attached = [], []
    try:
        for forest in (v0, v1):
            bundle, segments = export_model(
                "m", forest_fingerprint(forest), forest.n_features_,
                engine_for(forest),
            )
            owned.extend(segments)
            if forest is v1:
                responses = _predict_mid_swap(app, monkeypatch, rows)
            # The attached segments must outlive the entry serving them.
            attached.append(install_shared_model(app, bundle)[1])
        assert len(responses) == 1
        _assert_self_consistent(responses[0], forests, rows)
    finally:
        app.close(drain=True)
        for segment in owned:
            segment.unlink()
