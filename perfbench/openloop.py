"""Open-loop HTTP sender for the serve workloads.

Runs as a child process of its own (``python3 openloop.py``), so the load
generator never shares an interpreter lock with the server it measures.
It imports only the standard library.

Protocol, one pickled message at a time over the child's standard input
and output (:func:`sender_main`):

    parent -> child   ("run", port, lanes, items, until)  play one schedule
                      ("stop",) or end of input           exit
    child -> parent   list of records, one per item, in item order

``lanes`` is a list with one tuple of request classes per connection: a
lane sends only requests of its classes, and lanes serving the same class
take the next due request from one shared queue, as a connection pool
does.  Each item is a dict with ``due`` (seconds after the schedule's
start), ``cls``, ``method``, ``path`` and ``body``; an item with
``kind == "swap"`` is a ``POST /models`` followed, on the same lane, by
``POST /explain`` until the answer names the new fingerprint.

Without ``until`` the schedule is an open loop of independent users:
each request opens its own connection and asks the server to close it,
so at most ``len(lanes)`` connections are open at once.  With ``until``
set, every lane keeps one connection alive, stops taking items once that
many seconds have passed, and leaves the rest unsent (no record, i.e.
``None``): a schedule whose items are all due at 0 is then a closed loop
of ``len(lanes)`` callers that lasts ``until`` seconds.

Each record is ``(start, end, status, body, ready)``: send start and
response end in seconds after the schedule's start, the HTTP status
(-1 for a transport error), the response body, and for a swap the time
its first explanation on the new fingerprint arrived (else ``None``).
Latency measured from ``due`` rather than ``start`` counts the wait a
stalled connection imposes on the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import pickle
import socket
import sys
import threading
import time
from collections import deque

#: Delay between receiving a schedule and its first due time, so every
#: lane thread is up before the first request is due.
START_DELAY_S = 0.05

#: Per-request socket timeout; a request slower than this counts as failed.
TIMEOUT_S = 60.0

#: Upper bound on how long a swap waits for its first explanation.
SWAP_READY_TIMEOUT_S = 60.0


class _Connection(http.client.HTTPConnection):
    """A client connection with Nagle's algorithm off, as common HTTP
    client libraries (urllib3, curl) configure theirs.  Without
    ``keepalive`` every request asks the server to close the connection,
    and the next request opens a new one."""

    def __init__(self, port: int, keepalive: bool):
        super().__init__("127.0.0.1", port, timeout=TIMEOUT_S)
        self.keepalive = keepalive

    def connect(self):
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _post(conn: _Connection, method: str, path: str, body):
    headers = {"Content-Type": "application/json"} if body else {}
    if not conn.keepalive:
        headers["Connection"] = "close"
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    answer = response.status, response.read()
    if not conn.keepalive:
        # The server closes its end without saying so in the response.
        conn.close()
    return answer


def _swap(conn, item, clock):
    """POST /models, then /explain until the new fingerprint answers."""
    status, body = _post(conn, item["method"], item["path"], item["body"])
    end = clock()
    if status != 200:
        return status, body, end, None
    fingerprint = json.loads(body)["fingerprint"]
    model_id = json.loads(item["body"])["id"]
    probe = json.dumps({"model": model_id}).encode("utf-8")
    deadline = clock() + SWAP_READY_TIMEOUT_S
    while clock() < deadline:
        probe_status, probe_body = _post(conn, "POST", "/explain", probe)
        if probe_status == 200 and (
            json.loads(probe_body)["fingerprint"] == fingerprint
        ):
            return status, body, end, clock()
    return status, body, end, None


def run_schedule(port: int, lanes, items, until=None) -> list:
    """Play ``items`` over ``len(lanes)`` connections (see module doc)."""
    queues: dict = {}
    for index in sorted(range(len(items)), key=lambda i: items[i]["due"]):
        queues.setdefault(items[index]["cls"], deque()).append(index)
    lock = threading.Lock()
    records: list = [None] * len(items)
    origin = time.perf_counter() + START_DELAY_S

    def clock() -> float:
        return time.perf_counter() - origin

    def lane(classes) -> None:
        conn = _Connection(port, until is not None)
        try:
            while True:
                with lock:
                    heads = [
                        (items[queues[c][0]]["due"], c)
                        for c in classes
                        if queues.get(c)
                    ]
                    if not heads or (until is not None and clock() >= until):
                        return
                    index = queues[min(heads)[1]].popleft()
                item = items[index]
                delay = item["due"] - clock()
                if delay > 0:
                    time.sleep(delay)
                start = clock()
                ready = None
                try:
                    if item.get("kind") == "swap":
                        status, body, end, ready = _swap(conn, item, clock)
                    else:
                        status, body = _post(
                            conn, item["method"], item["path"], item["body"]
                        )
                        end = clock()
                except (OSError, http.client.HTTPException, ValueError):
                    # One failed request, not a dead lane: reconnect.
                    conn.close()
                    conn = _Connection(port, until is not None)
                    status, body, end = -1, b"", clock()
                records[index] = (start, end, status, body, ready)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=lane, args=(tuple(classes),), daemon=True)
        for classes in lanes
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def sender_main(inbox, outbox) -> None:
    """Child-process entry point: play schedules until told to stop."""
    while True:
        try:
            message = pickle.load(inbox)
        except EOFError:
            return
        if message[0] == "stop":
            return
        _, port, lanes, items, until = message
        pickle.dump(run_schedule(port, lanes, items, until), outbox)
        outbox.flush()


if __name__ == "__main__":
    sender_main(sys.stdin.buffer, sys.stdout.buffer)
