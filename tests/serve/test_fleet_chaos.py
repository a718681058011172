"""Fleet chaos suite: crash-only failover, proven without a single sleep.

Synchronization contract (no wall-clock sleeps anywhere):

* :func:`kill_worker` returns only after the process is joined and the
  handle has run failover (``dead_event``) — detection state is settled.
* Restart due-times live on the pipeline clock; tests cross them with
  :func:`repro.obs.trace.advance` and drive detection with explicit
  ``Supervisor.tick()`` calls.
* ``_settle`` is a pipe-FIFO barrier: a chaos no-op round trip per
  worker guarantees every previously sent ping has been answered *and*
  the answer processed, so consecutive ticks can never count a false
  heartbeat miss against a healthy worker.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.devtools.faultinject import corrupt_heartbeat, hang_worker, kill_worker
from repro.devtools.loadgen import run_load
from repro.obs import enable_metrics
from repro.obs.metrics import get_metrics
from repro.obs.trace import advance
from repro.serve import FleetApp, FleetConfig, ServeConfig
from repro.serve.shm import live_segments
from repro.serve.supervisor import (
    STATE_FAILED,
    STATE_RESTARTING,
    STATE_UP,
)

#: Bound for event waits (process joins, ready barriers) — a ceiling for
#: hung tests, not a pacing sleep; the events fire as soon as the
#: condition holds.
WAIT_S = 60.0


def _settle(fleet, *names):
    """Pipe-FIFO barrier: all pings sent so far are answered & processed."""
    for name in names:
        fleet.chaos(name, "mute_pings", False)


def _predict(app, rows, model="m"):
    return app.handle(
        "POST",
        "/predict",
        json.dumps({"model": model, "rows": np.asarray(rows).tolist()}),
    )


def _build(serve_forest, **overrides):
    defaults = dict(workers=2, quorum=2, backoff_base_s=1000.0)
    defaults.update(overrides)
    app = FleetApp(
        ServeConfig(max_batch=16, queue_limit=8192),
        FleetConfig(**defaults),
    )
    app.add_model("m", serve_forest)
    app.start_fleet()
    return app


def test_kill_failover_restart_recovery(serve_forest):
    """The acceptance scenario end to end, fully deterministic.

    SIGKILL a worker mid-load: zero requests lost beyond shed; the
    supervisor detects the crash, schedules an exponential-backoff
    restart on the pipeline clock, the slot recovers, ``/healthz``
    records the degraded→recovered transition — and after drain not one
    shared-memory segment is leaked.
    """
    enable_metrics()
    app = _build(serve_forest)
    fleet, sup = app.fleet, app.fleet.supervisor
    sup.tick()
    assert sup.state() == "ok"

    # --- kill mid-load: zero lost beyond shed -------------------------
    cell = run_load(
        app,
        clients=8,
        requests_per_client=8,
        rows_per_request=4,
        seed=3,
        mid_load=lambda: kill_worker(fleet, "w0"),
    )
    assert cell["errors"] == 0, cell
    assert cell["ok"] + cell["shed"] == cell["requests"]

    # --- detection: crash -> restarting with backoff ------------------
    _settle(fleet, "w1")
    sup.tick()
    assert sup.worker_state("w0") == STATE_RESTARTING
    assert sup.state() == "degraded"
    counters = get_metrics().snapshot()["counters"]
    assert counters.get("fleet.worker_crashes", 0) >= 1
    assert counters.get("fleet.degraded_transitions", 0) >= 1

    # Degraded serving: requests keep answering (replica or in-proc).
    response = _predict(app, np.zeros((2, app.registry.get("m").n_features)))
    assert response.status == 200

    # Backoff holds until the pipeline clock crosses the due time.
    _settle(fleet, "w1")
    sup.tick()
    assert sup.worker_state("w0") == STATE_RESTARTING

    # --- restart: advance the clock past the backoff ------------------
    advance(1001.0)
    _settle(fleet, "w1")
    sup.tick()
    assert fleet.await_ready("w0", WAIT_S)
    sup.tick()
    assert sup.worker_state("w0") == STATE_UP
    assert sup.state() == "ok"
    counters = get_metrics().snapshot()["counters"]
    assert counters.get("fleet.worker_restarts", 0) >= 1
    assert counters.get("fleet.recovered_transitions", 0) >= 1

    # --- /healthz carries the whole story -----------------------------
    payload = app.handle("GET", "/healthz").json()["fleet"]
    assert payload["state"] == "ok"
    assert payload["workers"]["w0"]["restarts"] == 1
    quorum_moves = [
        (t["from"], t["to"]) for t in payload["transitions"]
        if t["worker"] is None
    ]
    assert ("ok", "degraded") in quorum_moves
    assert ("degraded", "ok") in quorum_moves

    # Restarted worker serves bitwise-identical predictions.
    rows = np.asarray(
        np.random.default_rng(5).standard_normal(
            (4, app.registry.get("m").n_features)
        )
    )
    expected = app.registry.get("m").predict_raw(rows)
    assert _predict(app, rows).json()["predictions"] == expected.tolist()

    # --- drain: shared-memory hygiene ---------------------------------
    app.close(drain=True)
    assert live_segments() == []
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        mine = [
            name for name in os.listdir(shm_dir)
            if name.startswith(f"repro-fleet-{os.getpid()}-")
        ]
        assert mine == []


def test_hang_worker_escalates_to_kill(serve_forest):
    """A muted-heartbeat hang is detected by miss count and SIGKILLed."""
    app = _build(serve_forest, quorum=1, miss_threshold=2)
    fleet, sup = app.fleet, app.fleet.supervisor
    try:
        sup.tick()
        handle = fleet.handle("w1")
        with hang_worker(fleet, "w1"):
            # Each tick sends a ping w1 swallows; two unanswered pings
            # cross miss_threshold and the supervisor kills the worker.
            _settle(fleet, "w0")
            sup.tick()
            _settle(fleet, "w0")
            sup.tick()
            _settle(fleet, "w0")
            sup.tick()
        assert sup.worker_state("w1") == STATE_RESTARTING
        assert handle.dead_event.wait(WAIT_S)
        # The healthy worker keeps the fleet serving (quorum=1).
        assert sup.state() == "ok"
        assert sup.worker_state("w0") == STATE_UP
    finally:
        app.close(drain=True)
    assert live_segments() == []


def test_corrupt_heartbeat_counts_and_escalates(serve_forest):
    """Garbled pongs are counted as corrupt and never ack the sequence."""
    enable_metrics()
    app = _build(serve_forest, quorum=1, miss_threshold=2)
    fleet, sup = app.fleet, app.fleet.supervisor
    try:
        sup.tick()
        with corrupt_heartbeat(fleet, "w0"):
            sup.tick()
            # FIFO barrier: the corrupt pong for the tick above has been
            # received and classified before this ack returns.
            fleet.chaos("w0", "corrupt_pings", True)
            counters = get_metrics().snapshot()["counters"]
            assert counters.get("fleet.heartbeats_corrupt", 0) >= 1
            _settle(fleet, "w1")
            sup.tick()
            fleet.chaos("w0", "corrupt_pings", True)
            _settle(fleet, "w1")
            sup.tick()
        # Corrupt pongs never acknowledged the sequence: the miss
        # counter crossed the threshold and the worker went down the
        # one crash-only path.
        assert sup.worker_state("w0") == STATE_RESTARTING
        assert sup.state() == "ok"
    finally:
        app.close(drain=True)
    assert live_segments() == []


def test_restart_storm_opens_circuit_breaker(serve_forest):
    """More crashes than max_restarts parks the slot in ``failed``."""
    app = _build(
        serve_forest, workers=1, quorum=1, max_restarts=0
    )
    fleet, sup = app.fleet, app.fleet.supervisor
    try:
        sup.tick()
        kill_worker(fleet, "w0")
        sup.tick()
        assert sup.worker_state("w0") == STATE_FAILED
        assert sup.state() == "degraded"
        # The breaker never schedules another spawn, however far the
        # clock advances.
        advance(10_000.0)
        sup.tick()
        assert sup.worker_state("w0") == STATE_FAILED
        # Degraded serving still answers in-process.
        response = _predict(
            app, np.zeros((1, app.registry.get("m").n_features))
        )
        assert response.status == 200
    finally:
        app.close(drain=True)
    assert live_segments() == []


def test_failover_responses_stay_bitwise_identical(serve_forest, serve_rows):
    """Replies during and after failover match local predict_raw exactly."""
    app = _build(serve_forest, quorum=1)
    try:
        app.fleet.supervisor.tick()
        expected = app.registry.get("m").predict_raw(serve_rows[:8])
        before = _predict(app, serve_rows[:8])
        assert before.json()["predictions"] == expected.tolist()
        kill_worker(app.fleet, "w0")
        after = _predict(app, serve_rows[:8])
        assert after.status == 200
        assert after.json()["predictions"] == expected.tolist()
    finally:
        app.close(drain=True)
    assert live_segments() == []
