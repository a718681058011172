"""Fleet worker process: a :class:`ServeApp` over a pipe transport.

:func:`worker_main` is the (spawn-picklable) entry point of one fleet
worker.  The worker attaches every model from shared memory
(:mod:`repro.serve.shm`), installs them into a private
:class:`~repro.serve.app.ServeApp`, and serves requests received over a
``multiprocessing`` pipe.  The protocol is deliberately tiny — plain
tuples, first element the message kind:

Front end -> worker::

    ("req", rid, method, path, body, ctx)  serve one request (ctx = trace
                                           context dict or None)
    ("ping", seq)                      heartbeat probe (answer with pong)
    ("load", bundle)                   attach + install a SharedModelBundle
    ("unload", model_id)               remove a model
    ("obs-pull", token)                request a fresh observability payload
    ("chaos", flag, value)             fault-injection switch (acked)
    ("stop", drain)                    drain (or abort) and exit

Worker -> front end::

    ("ready", pid, model_ids)          boot finished, models installed
    ("res", rid, status, body, ctype)  one finished response
    ("pong", seq, obs)                 heartbeat answer + piggybacked
                                       observability payload
    ("loaded"|"unloaded", model_id)    model lifecycle ack
    ("obs", token, obs)                answer to an obs-pull
    ("chaos-ack", flag, value)         fault switch applied
    ("stopped",)                       clean exit imminent

The observability payload carries the worker pid, a monotonic metrics
snapshot (the front end delta-merges these into fleet totals, so a
restart's counter reset is detected rather than double counted), and —
when tracing is on — the tracer epoch plus the finished spans drained
since the previous payload.  Workers run their spans under a per-pid
``span_id_base`` so ids stay globally unique in the merged trace, and
``("req", ...)`` carries the front end's trace context so worker spans
join the originating request's trace tree.

Requests run on a small thread pool so the receive loop stays responsive
— a worker saturated with slow predicts still answers heartbeats, which
is exactly what distinguishes *busy* from *hung* for the supervisor.
The ``chaos`` switches implement the deterministic fleet faults
(:func:`repro.devtools.faultinject.hang_worker` mutes pongs,
``corrupt_heartbeat`` garbles them); pipe FIFO ordering makes their
effects exact — every ping sent after the ack is affected.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..core.errors import ServeError
from ..obs.metrics import enable_metrics, get_metrics
from ..obs.trace import enable_tracing, get_tracer
from .app import ServeApp, ServeConfig
from .registry import ModelEntry
from .shm import SharedModelBundle, attach_model_engine

__all__ = ["WorkerOptions", "install_shared_model", "worker_main"]


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable slice of the front end's config a worker needs."""

    max_batch: int = 32
    batch_delay_s: float = 0.002
    queue_limit: int = 256
    max_inflight: int = 1024
    threads: int = 4
    trace: bool = False


class _SharedForestStub:
    """Placeholder model object for shared-memory entries.

    Workers serve predict from the attached encoding; the paths that need
    the original forest object (surrogate fits, the ``"loop"`` engine)
    are front-end concerns and fail typed if reached in a worker.
    """

    def __init__(self, model_id: str, n_features: int):
        self._model_id = model_id
        self.n_features_ = int(n_features)
        self.trees_ = None

    def predict_raw(self, X):
        raise ServeError(
            f"model {self._model_id!r} is served from shared memory; the "
            f"original forest object is not available in this worker"
        )


def install_shared_model(
    app: ServeApp, bundle: SharedModelBundle
) -> tuple[ModelEntry, list]:
    """Attach a bundle's encoding and install the model into ``app``.

    Returns the installed entry and the attached shared-memory segment
    handles (which must stay referenced while the entry is in use).
    """
    engine, segments = attach_model_engine(bundle)
    if engine is None:
        raise ServeError(
            f"bundle for model {bundle.model_id!r} carries no engine state"
        )
    entry = ModelEntry(
        model_id=bundle.model_id,
        model=_SharedForestStub(bundle.model_id, bundle.n_features),
        fingerprint=int(bundle.fingerprint),
        engine=engine,
        path=None,
        n_features=int(bundle.n_features),
    )
    app.registry.add_entry(entry)
    app.install_entry(entry)
    return entry, segments


class _WorkerRuntime:
    """One worker process's event loop state."""

    def __init__(self, name, conn, bundles, options: WorkerOptions):
        self._name = name
        self._conn = conn
        self._send_lock = threading.Lock()
        self._chaos = {"mute_pings": False, "corrupt_pings": False}
        self._attached: dict[str, list] = {}
        self._app = ServeApp(
            ServeConfig(
                max_batch=options.max_batch,
                batch_delay_s=options.batch_delay_s,
                queue_limit=options.queue_limit,
                max_inflight=options.max_inflight,
                # The front end owns the request deadline; a second,
                # skewed clock in the worker would double-time-out.
                request_timeout_s=None,
            )
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(options.threads)),
            thread_name_prefix=f"repro-fleet-{name}",
        )
        # Metrics are always on in a worker: the snapshot is its only
        # path back to the front end's fleet aggregation.  Tracing is
        # opt-in (mirrors the front end); the per-pid span_id_base keeps
        # span ids globally unique in the merged multi-process trace.
        enable_metrics()
        if options.trace:
            enable_tracing(span_id_base=os.getpid() * 1_000_000)
        for bundle in bundles:
            self._install(bundle)

    def _install(self, bundle: SharedModelBundle) -> None:
        _entry, segments = install_shared_model(self._app, bundle)
        self._attached[bundle.model_id] = segments

    def _send(self, message) -> None:
        with self._send_lock:
            self._conn.send(message)

    def _serve_one(self, rid, method, path, body, ctx=None) -> None:
        tracer = get_tracer()
        if tracer is not None and ctx is not None:
            with tracer.trace_context(
                ctx["trace_id"], ctx["parent_span_id"]
            ):
                response = self._app.handle(method, path, body)
        else:
            response = self._app.handle(method, path, body)
        try:
            self._send(("res", rid, response.status, response.body,
                        response.content_type))
        except (OSError, ValueError, BrokenPipeError):
            # The front end went away mid-response; predict is pure, a
            # restarted front end simply re-dispatches.
            pass

    def _obs_payload(self) -> dict:
        """The worker's shippable observability state (see module doc)."""
        registry = get_metrics()
        tracer = get_tracer()
        payload = {
            "pid": os.getpid(),
            "metrics": registry.snapshot() if registry is not None else {},
        }
        if tracer is not None:
            payload["epoch_s"] = tracer.epoch_s
            payload["spans"] = tracer.drain()
        return payload

    def _on_ping(self, seq) -> None:
        if self._chaos["mute_pings"]:
            return
        if self._chaos["corrupt_pings"]:
            self._send(("pong", None))
            return
        self._send(("pong", seq, self._obs_payload()))

    def run(self) -> None:
        """Answer messages until ``stop`` or the pipe closes."""
        self._send(("ready", os.getpid(), self._app.registry.ids()))
        drain = True
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                drain = False
                break
            kind = message[0]
            if kind == "req":
                _, rid, method, path, body, ctx = message
                self._pool.submit(
                    self._serve_one, rid, method, path, body, ctx
                )
            elif kind == "ping":
                self._on_ping(message[1])
            elif kind == "obs-pull":
                self._send(("obs", message[1], self._obs_payload()))
            elif kind == "load":
                self._install(message[1])
                self._send(("loaded", message[1].model_id))
            elif kind == "unload":
                model_id = message[1]
                self._app.remove_model(model_id)
                self._attached.pop(model_id, None)
                self._send(("unloaded", model_id))
            elif kind == "chaos":
                _, flag, value = message
                if flag in self._chaos:
                    self._chaos[flag] = bool(value)
                self._send(("chaos-ack", flag, value))
            elif kind == "stop":
                drain = bool(message[1])
                break
        self._pool.shutdown(wait=drain)
        self._app.close(drain=drain)
        try:
            self._send(("stopped",))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self._conn.close()


def worker_main(name, conn, bundles, options: WorkerOptions) -> None:
    """Process entry point of fleet worker ``name`` (see module docstring)."""
    try:
        _WorkerRuntime(name, conn, bundles, options).run()
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        pass
