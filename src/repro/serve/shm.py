"""Shared-memory export/attach of forest engine buffers for the fleet.

Every evaluation engine is structure-of-arrays by construction
(:meth:`~repro.forest.engines.EncodedForest.export_state`): every
buffer prediction reads is one contiguous numpy array.  This module
places those buffers in ``multiprocessing.shared_memory`` so N worker
processes evaluate the *same physical copy* of a forest — attach is a
zero-copy ``np.ndarray`` view over the segment, not a deserialization.

Layout: one segment per model, holding the one encoding the engine
ladder picked at registration.  A :class:`SharedBlock` is the picklable
description a worker needs to attach — segment name plus one
``(offset, shape, dtype)`` record per array plus the engine's scalar
metadata.  A :class:`SharedModelBundle` pairs that block, tagged with the
engine name, with the model's identity (id, fingerprint, feature count).

Lifecycle hygiene
-----------------
Segment ownership is strictly front-end-side.  Every created segment is
tracked in a process-wide live set (:func:`live_segments`); the owner
unlinks through :meth:`SharedSegment.unlink` on model removal, fleet
drain and worker-crash cleanup, and an ``atexit`` sweep unlinks anything
left if the front-end itself dies.  Workers *attach* only — they share
the front end's ``resource_tracker`` process (spawned children inherit
it), so a SIGKILL-ed or crashed worker can never drag a segment out from
under the surviving workers, and POSIX unlink-while-mapped semantics
keep an already-attached worker working even after the owner unlinks.
The fleet chaos suite asserts zero leaked segments after a
kill-restart-drain cycle.
"""

from __future__ import annotations

import atexit
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ArraySpec",
    "SharedBlock",
    "SharedModelBundle",
    "SharedSegment",
    "attach_block",
    "attach_model_engine",
    "export_block",
    "export_model",
    "live_segments",
]

#: Byte alignment of every array inside a segment (cache-line friendly).
_ALIGN = 64

# Module-state discipline (see repro.devtools.registry): the live-segment
# set and the segment-name counter are only touched under _shm_lock; the
# atexit sweep snapshots under the lock and unlinks outside it.
_shm_lock = threading.Lock()
_live_segments: set[str] = set()
_segment_counter = 0


def _next_segment_name(tag: str) -> str:
    """A process-unique shared-memory segment name (``repro-fleet-*``)."""
    global _segment_counter
    with _shm_lock:
        _segment_counter += 1
        counter = _segment_counter
    return f"repro-fleet-{os.getpid()}-{counter}-{tag}"


def live_segments() -> list[str]:
    """Names of every shared-memory segment this process still owns."""
    with _shm_lock:
        return sorted(_live_segments)


@dataclass(frozen=True)
class ArraySpec:
    """One array inside a segment: key, byte offset, shape, dtype string."""

    key: str
    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedBlock:
    """Picklable description of one exported engine state.

    ``segment`` names the shared-memory segment, ``arrays`` lists every
    buffer inside it, and ``meta`` carries the engine's scalar metadata
    (the second element of ``export_state()``).
    """

    segment: str
    nbytes: int
    arrays: tuple[ArraySpec, ...]
    meta: dict


@dataclass(frozen=True)
class SharedModelBundle:
    """Everything a worker needs to serve one model from shared memory.

    ``block`` holds the encoding by engine ``engine``; both are ``None``
    when the engine ladder landed on the loop, which workers cannot run
    (:func:`~repro.serve.worker.install_shared_model` refuses the bundle).
    """

    model_id: str
    fingerprint: int
    n_features: int
    engine: str | None
    block: SharedBlock | None


class SharedSegment:
    """Owner-side handle of one created segment (close/unlink exactly once)."""

    def __init__(self, name: str, size: int):
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(int(size), 1), name=name
        )
        self._unlinked = False
        with _shm_lock:
            _live_segments.add(name)

    @property
    def name(self) -> str:
        """The segment's name in the shared-memory namespace."""
        return self._shm.name

    @property
    def buf(self):
        """The segment's writable buffer (owner-side, export time only)."""
        return self._shm.buf

    def unlink(self) -> bool:
        """Close and unlink the segment; ``True`` if this call removed it.

        Idempotent: the live-segment registry entry and the OS object are
        released exactly once, no matter how many cleanup paths (drain,
        crash cleanup, atexit sweep) race to call this.
        """
        with _shm_lock:
            if self._unlinked:
                return False
            self._unlinked = True
            _live_segments.discard(self._shm.name)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            return False
        return True


def _sweep() -> None:
    """Atexit backstop: unlink whatever segments were never cleaned up."""
    with _shm_lock:
        leaked = sorted(_live_segments)
        _live_segments.clear()
    for name in leaked:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            pass


atexit.register(_sweep)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def export_block(
    tag: str, arrays: dict[str, np.ndarray], meta: dict
) -> tuple[SharedBlock, SharedSegment]:
    """Copy ``arrays`` into a fresh shared-memory segment.

    Returns the picklable :class:`SharedBlock` (hand to workers) and the
    owning :class:`SharedSegment` (keep for :meth:`~SharedSegment.unlink`).
    """
    specs: list[ArraySpec] = []
    offset = 0
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        offset = _aligned(offset)
        specs.append(
            ArraySpec(
                key=key,
                offset=offset,
                shape=tuple(int(n) for n in arr.shape),
                dtype=np.dtype(arr.dtype).str,
            )
        )
        offset += arr.nbytes
    segment = SharedSegment(_next_segment_name(tag), offset)
    for spec in specs:
        src = np.ascontiguousarray(arrays[spec.key])
        dst = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        dst[...] = src
    block = SharedBlock(
        segment=segment.name,
        nbytes=offset,
        arrays=tuple(specs),
        meta=dict(meta),
    )
    return block, segment


def attach_block(
    block: SharedBlock,
) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Attach a :class:`SharedBlock`: read-only views, no copies.

    The returned ``SharedMemory`` object must stay referenced for as long
    as any view is used (its buffer backs them all).  Fleet workers are
    spawned ``multiprocessing`` children and therefore share the front
    end's ``resource_tracker`` process: attaching re-registers the same
    name into the same tracker set (a no-op), so a SIGKILL-ed worker can
    never drag a segment out from under the other workers, and the tracker
    still unlinks everything if the whole process tree dies.
    """
    segment = shared_memory.SharedMemory(name=block.segment)
    views: dict[str, np.ndarray] = {}
    for spec in block.arrays:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        view.flags.writeable = False
        views[spec.key] = view
    return segment, views


def export_model(
    model_id: str, fingerprint: int, n_features: int, engine
) -> tuple[SharedModelBundle, list[SharedSegment]]:
    """Export a registered model's encoding into shared memory.

    ``engine`` is the model's :class:`~repro.forest.engines.EncodedForest`
    (``None`` exports an empty bundle).  Returns the worker-facing bundle
    and the owned segments to unlink later.
    """
    segments: list[SharedSegment] = []
    name = block = None
    if engine is not None:
        name = engine.name
        block, segment = export_block(name, *engine.export_state())
        segments.append(segment)
    bundle = SharedModelBundle(
        model_id=str(model_id),
        fingerprint=int(fingerprint),
        n_features=int(n_features),
        engine=name,
        block=block,
    )
    return bundle, segments


def attach_model_engine(bundle: SharedModelBundle):
    """Attach a bundle's encoding: ``(engine, segments)``.

    The rebuilt engine evaluates directly over the shared buffers and is
    bitwise identical to the exporting process's engine (``None`` for an
    empty bundle).  ``segments`` (the attached ``SharedMemory`` objects)
    must outlive the engine.
    """
    from ..forest.engines import restore_encoding

    if bundle.block is None:
        return None, []
    segment, views = attach_block(bundle.block)
    engine = restore_encoding(bundle.engine, views, bundle.block.meta)
    return engine, [segment]
