"""Structured exception taxonomy of the GEF pipeline.

GEF operates *data-free* on an arbitrary trained forest, so the pipeline
boundary must assume hostile inputs: forests with non-finite thresholds,
degenerate sampling domains, rank-deficient GAM designs.  Every failure a
pipeline stage can produce is typed here, rooted at :class:`ReproError`,
so callers (the CLI, a serving worker) can catch one base class and react
per failure family instead of fishing tracebacks out of ``ValueError``.

Taxonomy::

    ReproError
    ├── ForestValidationError   broken forest structure (also a ValueError)
    ├── SamplingError           domain construction / D* generation failed
    ├── SelectionError          F' or F'' selection failed (also a ValueError)
    ├── FitDivergenceError      PIRLS/GCV diverged or went singular
    ├── StageTimeoutError       a stage exceeded its wall-clock budget
    ├── StageFailureError       untyped crash wrapped at a stage boundary
    ├── ServeError              serving-layer failure (repro.serve)
    │   ├── BadRequestError     malformed request payload (HTTP 400)
    │   ├── ModelNotFoundError  unknown model id / path (HTTP 404)
    │   ├── ShedError           admission control rejected the request
    │   │                       (HTTP 429: queue depth / inflight limit)
    │   ├── WorkerCrashError    a fleet worker process died mid-request
    │   │                       and no worker could absorb it (HTTP 503)
    │   └── FleetDegradedError  the worker fleet is below quorum or its
    │                           restart circuit breaker is open (HTTP 503)
    └── LedgerError             versioned model/explanation ledger failure
        ├── LedgerCorruptionError    a segment's content hash does not
        │                            match its recorded entry id
        └── LedgerEntryNotFoundError unknown entry id / key (HTTP 404)

Errors that replace historical ``ValueError``s keep ``ValueError`` as a
secondary base, so ``except ValueError`` call sites (and tests) written
against the old boundary keep working.  Every error carries a ``stage``
attribute naming the pipeline stage that raised it (filled in by the
stage runner when the raising code did not).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ForestValidationError",
    "SamplingError",
    "SelectionError",
    "FitDivergenceError",
    "StageTimeoutError",
    "StageFailureError",
    "ServeError",
    "BadRequestError",
    "ModelNotFoundError",
    "ShedError",
    "WorkerCrashError",
    "FleetDegradedError",
    "LedgerError",
    "LedgerCorruptionError",
    "LedgerEntryNotFoundError",
]


class ReproError(Exception):
    """Base class of every typed GEF pipeline error.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    stage:
        Name of the pipeline stage the error belongs to (``"validate"``,
        ``"select"``, ``"domains"``, ``"sample"``, ``"interactions"``,
        ``"fit"``); the stage runner fills it in when omitted.
    """

    def __init__(self, message: str = "", stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class ForestValidationError(ReproError, ValueError):
    """The forest structure violates the GEF input contract.

    Raised by :func:`repro.core.validate.validate_forest` for out-of-range
    child/feature indices, orphan or cyclic nodes, and non-finite
    thresholds, gains or leaf values.
    """


class SamplingError(ReproError, ValueError):
    """Sampling-domain construction or D* generation failed.

    Covers empty threshold lists, invalid domain budgets, and degenerate
    synthetic datasets (constant labels, constant selected features) that
    survived the per-attempt reseeding retries.
    """


class SelectionError(ReproError, ValueError):
    """Univariate (F') or interaction (F'') selection failed."""


class FitDivergenceError(ReproError):
    """The GAM fit diverged or hit a singular/ill-conditioned solve.

    Raised when PIRLS or the GCV path meets a singular system or a
    numerics fault, after the recoverable in-stage retries (lambda-grid
    escalation, ridge bump) and — unless ``strict`` — the degradation
    ladder have all been exhausted.
    """


class StageTimeoutError(ReproError):
    """A pipeline stage exceeded its wall-clock budget."""


class StageFailureError(ReproError):
    """An untyped exception crossed a stage boundary (wrapped verbatim)."""


class ServeError(ReproError):
    """Base class of ``repro.serve`` failures.

    The serving layer maps subclasses onto HTTP status codes; anything
    that is a plain :class:`ServeError` (a stopped batcher, a failed
    component) surfaces as a 500.
    """


class BadRequestError(ServeError, ValueError):
    """The request payload is malformed (missing keys, wrong shapes).

    Maps to HTTP 400; ``ValueError`` stays a secondary base so library
    callers driving :class:`~repro.serve.app.ServeApp` directly can keep
    their existing ``except ValueError`` handling.
    """


class ModelNotFoundError(ServeError, KeyError):
    """No model with the requested id is registered (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its message; undo that.
        return self.args[0] if self.args else ""


class ShedError(ServeError):
    """Admission control rejected the request (HTTP 429).

    Raised synchronously at submit time when a bounded queue is at its
    depth limit or the server-wide inflight cap is reached — the caller
    gets an immediate, cheap rejection instead of unbounded queueing.
    """


class WorkerCrashError(ServeError):
    """A fleet worker died mid-request and no other worker absorbed it.

    Under normal failover a crashed worker's in-flight requests are
    re-dispatched to a surviving worker (predict is pure given the
    forest fingerprint, so a re-dispatch is idempotent) and, when no
    worker is alive, served in-process.  This error marks the
    pathological leftovers — e.g. every re-dispatch target died too —
    and maps to HTTP 503.
    """


class FleetDegradedError(ServeError):
    """The worker fleet cannot serve: below quorum or breaker open.

    Raised when the fleet fails to reach quorum at startup or a dispatch
    is attempted against a closed/degraded fleet; the front-end degrades
    to single-process in-proc serving where possible.  Maps to HTTP 503.
    """


class LedgerError(ReproError):
    """Base class of ``repro.ledger`` failures.

    Covers append/replay I/O faults, malformed entry payloads handed to
    the record builders, and rollback targets that cannot be
    materialized.  Serving maps it (and any subclass without its own
    entry) onto HTTP 500.
    """

    def __init__(self, message: str = "", stage: str | None = None):
        super().__init__(message, stage=stage or "ledger")


class LedgerCorruptionError(LedgerError):
    """A ledger segment's content hash does not match its entry id.

    The content-addressing audit (``LedgerStore.audit`` and the CLI's
    ``repro ledger log --audit``) raises this when a committed segment
    was tampered with or bit-rotted; ordinary replay *skips* unreadable
    segments (crash leftovers) instead of raising.
    """


class LedgerEntryNotFoundError(LedgerError, KeyError):
    """No ledger entry matches the requested id or key (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its message; undo that.
        return self.args[0] if self.args else ""
