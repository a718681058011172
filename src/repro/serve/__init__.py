"""repro.serve — zero-dependency model/explanation serving.

A stdlib-only (``http.server`` + ``threading``) HTTP/JSON serving
subsystem that turns the repository's GEF pipeline into a long-running
service:

* :mod:`~repro.serve.registry` — hot-swappable model registry keyed by
  the forest's structural fingerprint;
* :mod:`~repro.serve.batcher` — micro-batching executor that coalesces
  concurrent ``/predict`` requests into single engine calls,
  bitwise identical to per-request evaluation;
* :mod:`~repro.serve.surrogate` — singleflight LRU cache of fitted GAM
  surrogates, realizing GEF's fit-once/explain-forever asymmetry;
* :mod:`~repro.serve.admission` — bounded queues, 429-style shedding,
  request deadlines on the pipeline clock, graceful drain;
* :mod:`~repro.serve.app` / :mod:`~repro.serve.http` — the endpoint
  dispatcher and the thin stdlib HTTP adapter over it;
* :mod:`~repro.serve.fleet` / :mod:`~repro.serve.supervisor` /
  :mod:`~repro.serve.shm` / :mod:`~repro.serve.worker` — the
  multi-process fleet: forests exported once into shared memory,
  N supervised worker processes with heartbeats, crash-only failover,
  backoff restarts and quorum-based degradation to in-proc serving.

Start a server from Python::

    from repro.serve import ServeApp, ServeConfig, start_server

    app = ServeApp(ServeConfig(max_batch=32))
    app.add_model("demo", "model.json")
    handle = start_server(app)          # port 0 -> OS-assigned
    ...
    handle.close(drain=True)

or from the command line with ``repro serve model.json``.
"""

from .admission import AdmissionController, Deadline
from .app import Response, ServeApp, ServeConfig
from .batcher import MicroBatcher
from .fleet import Fleet, FleetApp, FleetConfig
from .http import ServerHandle, get_server, start_server, stop_server
from .registry import ModelEntry, ModelRegistry
from .supervisor import Supervisor
from .surrogate import SurrogateCache

__all__ = [
    "AdmissionController",
    "Deadline",
    "Fleet",
    "FleetApp",
    "FleetConfig",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "Response",
    "ServeApp",
    "ServeConfig",
    "ServerHandle",
    "Supervisor",
    "SurrogateCache",
    "get_server",
    "start_server",
    "stop_server",
]
