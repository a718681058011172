"""Prediction engines: one shell, two kernels, and the loop as reference.

Every batch evaluation engine is a *kernel* that encodes a forest into
flat buffers and evaluates rows against them.  Everything around the
kernel lives here, once:

* the engine registry and the process-wide knob
  (:func:`set_prediction_engine`), which validates against the registry
  so the selectable names can never drift from the dispatchable ones;
* the structural :func:`forest_fingerprint`;
* one per-model encoding slot (:func:`encoding_for`,
  :func:`invalidate_encodings`), re-packed whenever the fingerprint
  changes;
* the :class:`EncodedForest` shell: row digitization and block
  evaluation are the kernel's, while chunk validation, the sequential
  reduction, staged prediction, the ``<engine>.predict`` span, the
  ``predict.rows`` counter, the finiteness checks and the flat-buffer
  ``export_state``/``from_state`` are shared.

Each spec names its *fallback* engine, forming a declining ladder: when
the selected engine cannot encode a forest (its ``pack`` returns
``None``), dispatch walks to the fallback instead of failing.  The
shipped ladder is ``bitvector -> packed -> loop``:

* ``bitvector`` — traversal-free QuickScorer-style evaluation
  (:mod:`repro.forest.bitvector`), the default;
* ``packed`` — batched breadth-synchronous descent
  (:mod:`repro.forest.packed`);
* ``loop`` — the per-tree loop implemented by the models themselves, the
  bitwise reference the kernels are tested against (its spec has no
  ``pack``, which tells dispatch to hand control back to the caller).

Engine selection is a process-wide knob guarded by ``_state_lock``
(registered in the thread-safety registry); reads on the hot path are
single atomic loads under the GIL and stay lock-free.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.numerics import assert_all_finite
from ..obs.metrics import get_metrics, inc as metric_inc, observe as metric_observe
from ..obs.trace import monotonic as obs_monotonic, span as obs_span

__all__ = [
    "DEFAULT_ENGINE",
    "EncodedForest",
    "EngineSpec",
    "dispatch_predict_raw",
    "dispatch_staged_predict_raw",
    "encoding_for",
    "engine_for",
    "engine_names",
    "forest_fingerprint",
    "get_prediction_engine",
    "invalidate_encodings",
    "register_engine",
    "restore_encoding",
    "set_prediction_engine",
]

#: The engine selected at process start (falls back down its ladder for
#: forests it cannot encode).
DEFAULT_ENGINE = "bitvector"

#: Fall back to the loop for staged prediction above this many
#: (tree, row) leaf values (the staged path materializes all of them).
_STAGED_MAX_ELEMENTS = 25_000_000

#: The ``model.__dict__`` key holding ``(fingerprint, {engine: encoding})``.
_SLOT = "_engine_encodings"

# Module-state discipline (see repro.devtools.registry): the knob and the
# spec table are mutated under _state_lock; hot-path reads are single
# atomic loads under the GIL.  Specs are only added (at engine-module
# import), never replaced or removed mid-run.  Per-model encoding slots
# hang off model.__dict__ under _slot_lock.
_state_lock = threading.Lock()
_slot_lock = threading.Lock()
_engine = DEFAULT_ENGINE
_ENGINE_SPECS: dict[str, "EngineSpec"] = {}


@dataclass(frozen=True)
class EngineSpec:
    """One registered evaluation engine.

    Attributes
    ----------
    name:
        The knob value selecting this engine.
    pack:
        ``(trees, init_score, n_features) -> EncodedForest | None`` — the
        kernel's encoder (an :class:`EncodedForest` subclass's ``pack``
        classmethod); ``None`` (the hook itself) marks the model-owned
        loop, a returned ``None`` means "this forest is unsupported, fall
        back".
    fallback:
        Name of the engine to try when this one declines a forest, or
        ``None`` to hand back to the caller's loop.
    """

    name: str
    pack: Callable | None = None
    fallback: str | None = None


def register_engine(spec: EngineSpec) -> None:
    """Add ``spec`` to the registry (idempotent per engine name)."""
    with _state_lock:
        _ENGINE_SPECS[spec.name] = spec


def engine_names() -> tuple[str, ...]:
    """Sorted names of every registered engine."""
    with _state_lock:
        return tuple(sorted(_ENGINE_SPECS))


def set_prediction_engine(name: str) -> None:
    """Select the process-wide prediction engine by registered name."""
    with _state_lock:
        if name not in _ENGINE_SPECS:
            known = tuple(sorted(_ENGINE_SPECS))
            raise ValueError(  # repro: allow(raise-outside-taxonomy) harness misuse, not a pipeline failure
                f"unknown engine {name!r}; choose from {known}"
            )
        global _engine
        _engine = name


def get_prediction_engine() -> str:
    """The currently selected prediction engine name."""
    return _engine


# ----------------------------------------------------------------------
# structural identity and the per-model encoding slot
# ----------------------------------------------------------------------
def _fingerprint(trees, init_score: float) -> int:
    """Cheap structural checksum covering everything prediction depends on."""
    h = zlib.crc32(np.float64(init_score).tobytes())
    h = zlib.crc32(np.int64(len(trees)).tobytes(), h)
    for tree in trees:
        for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
            h = zlib.crc32(np.ascontiguousarray(arr), h)
    return h


def forest_fingerprint(model) -> int:
    """The structural fingerprint of a fitted forest.

    Covers everything prediction depends on (tree structure, thresholds,
    leaf values, init score), so two forests with equal fingerprints are
    interchangeable for serving.  The model registry and surrogate cache
    in :mod:`repro.serve` key on this value.
    """
    trees = getattr(model, "trees_", None)
    if not trees:
        raise ValueError("model is not fitted")  # repro: allow(raise-outside-taxonomy) caller misuse, not a pipeline failure
    return _fingerprint(trees, model.init_score_)


def encoding_for(model, name: str) -> "EncodedForest | None":
    """The up-to-date encoding of a fitted forest by engine ``name``.

    Encodings live in one per-model slot keyed by the structural
    fingerprint, so mutating a fitted model (early-stopping truncation,
    manual editing) transparently triggers a re-pack.  Returns ``None``
    when the engine declines the forest (the decline is cached too) or
    is the loop.
    """
    trees = getattr(model, "trees_", None)
    pack = _ENGINE_SPECS[name].pack
    if not trees or pack is None:
        return None
    fingerprint = _fingerprint(trees, model.init_score_)
    with _slot_lock:
        slot = model.__dict__.get(_SLOT)
        if slot is not None and slot[0] == fingerprint and name in slot[1]:
            return slot[1][name]
    # Pack outside the lock (it is the expensive part); a concurrent
    # packer may race us, but both produce equivalent objects and the
    # last write simply wins.
    registry = get_metrics()
    t0 = obs_monotonic() if registry is not None else 0.0
    with obs_span(f"{name}.pack", n_trees=len(trees)):
        encoded = pack(trees, model.init_score_, int(model.n_features_))
    if registry is not None:
        metric_inc("pack.count")
        metric_observe("pack.seconds", obs_monotonic() - t0)
    with _slot_lock:
        slot = model.__dict__.get(_SLOT)
        if slot is None or slot[0] != fingerprint:
            slot = model.__dict__[_SLOT] = (fingerprint, {})
        slot[1][name] = encoded
    return encoded


def invalidate_encodings(model) -> None:
    """Drop every cached encoding of ``model`` (call after mutating it).

    Mutations are also caught by the fingerprint check in
    :func:`encoding_for`; this hook makes the common sites (fit,
    early-stopping truncation) explicit and cheap.
    """
    with _slot_lock:
        model.__dict__.pop(_SLOT, None)


def _spec_chain():
    """Specs from the selected engine down its fallback ladder."""
    name = _engine
    seen = set()
    while name is not None and name not in seen:
        seen.add(name)
        spec = _ENGINE_SPECS.get(name)
        if spec is None:
            return
        yield spec
        name = spec.fallback


def engine_for(model) -> "EncodedForest | None":
    """The encoding the selected engine's ladder lands on for ``model``.

    ``None`` when every engine on the ladder declined or the loop is
    selected — the caller then runs the model's own per-tree loop.
    """
    for spec in _spec_chain():
        encoded = encoding_for(model, spec.name)
        if encoded is not None:
            return encoded
    return None


def dispatch_predict_raw(model, X):
    """``predict_raw`` through the ladder, or ``None`` for the caller's loop."""
    encoded = engine_for(model)
    return None if encoded is None else encoded.predict_raw(X)


def dispatch_staged_predict_raw(model, X):
    """Staged-prediction generator through the ladder, or ``None``."""
    encoded = engine_for(model)
    if encoded is None:
        return None
    if encoded.n_trees * np.atleast_2d(X).shape[0] > _STAGED_MAX_ELEMENTS:
        return None
    return encoded.staged_predict_raw(X)


def restore_encoding(name: str, arrays: dict, meta: dict) -> "EncodedForest":
    """Rebuild engine ``name``'s encoding from :meth:`EncodedForest.export_state`."""
    kernel = _ENGINE_SPECS[name].pack.__self__
    return kernel.from_state(arrays, meta)


# ----------------------------------------------------------------------
# the shell every kernel shares
# ----------------------------------------------------------------------
class EncodedForest:
    """One forest encoded by a kernel, plus the evaluation shell around it.

    A kernel subclass sets :attr:`name` and its buffer lists and provides
    ``pack`` (a classmethod returning an instance or ``None``),
    ``digitize(X)`` (per-row codes), ``_auto_chunk()`` and
    ``_eval_block(codes, chunk)``, a generator yielding the per-tree leaf
    values, shape ``(n_trees, rows)``, of each successive ``chunk``-row
    block of ``codes`` (a view the next step may overwrite).

    The reduction replays the exact sequential accumulation order of the
    per-tree loop — ``((init + v_0) + v_1) + ...`` — via a cumulative sum
    over the leaf values, so every kernel is bit-for-bit equal to the
    loop, independent of chunking.
    """

    #: Engine name: registry key and span prefix (``<name>.predict``).
    name = ""
    #: Array attributes evaluation reads.
    _BUFFERS: tuple[str, ...] = ()
    #: Per-feature array lists; ``None`` entries mark absent arrays.
    _RAGGED: tuple[str, ...] = ()
    #: Kernel-specific scalar attributes.
    _SCALARS: tuple[str, ...] = ()

    def __init__(self, trees, init_score: float, n_features: int):
        self.n_trees = len(trees)
        self.n_features = int(n_features)
        self.init_score = float(init_score)

    def _evaluate(
        self,
        X: np.ndarray,
        out: np.ndarray | None,
        out_values: np.ndarray | None,
        chunk: int | None,
    ) -> None:
        if chunk is None:
            chunk = self._auto_chunk()
        if chunk < 1 or chunk & (chunk - 1):
            raise ValueError(  # repro: allow(raise-outside-taxonomy) harness misuse, not a pipeline failure
                "chunk must be a positive power of two"
            )
        codes = self.digitize(X)
        acc = np.empty((self.n_trees + 1, chunk)) if out is not None else None
        lo = 0
        for values in self._eval_block(codes, chunk):
            hi = lo + values.shape[1]
            if out_values is not None:
                out_values[:, lo:hi] = values
            if out is not None:
                a = acc[:, : hi - lo]
                a[0] = self.init_score
                a[1:] = values
                np.cumsum(a, axis=0, out=a)
                out[lo:hi] = a[-1]
            lo = hi
        if out is not None:
            assert_all_finite(out, f"{self.name} predict reduction")
        if out_values is not None:
            assert_all_finite(out_values, f"{self.name} leaf-value matrix")

    def predict_raw(self, X: np.ndarray, chunk: int | None = None) -> np.ndarray:
        """``init + sum of trees`` for every row, bitwise equal to the loop."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        metric_inc("predict.rows", X.shape[0])
        out = np.empty(X.shape[0])
        with obs_span(
            f"{self.name}.predict", rows=int(X.shape[0]), trees=int(self.n_trees)
        ):
            self._evaluate(X, out, None, chunk)
        return out

    def leaf_value_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values, shape ``(n_trees, n_rows)`` (staged helper)."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        values = np.empty((self.n_trees, X.shape[0]))
        self._evaluate(X, None, values, None)
        return values

    def staged_predict_raw(self, X: np.ndarray):
        """Yield the raw score after each tree, bitwise equal to the loop."""
        values = self.leaf_value_matrix(X)
        raw = np.full(values.shape[1], self.init_score)
        for t in range(self.n_trees):
            raw = raw + values[t]
            yield raw.copy()

    # ------------------------------------------------------------------
    # flat-buffer export (shared-memory serving fleet)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """The encoding as flat buffers plus scalar metadata.

        Every buffer evaluation reads is returned under a stable key
        (ragged per-feature lists use ``"<attr>:<f>"`` keys; absent
        entries have none), and :meth:`from_state` rebuilds an equivalent
        engine from views over those buffers — the contract
        :mod:`repro.serve.shm` uses to place one copy of a forest in
        shared memory and attach it zero-copy from every fleet worker.
        """
        arrays = {key: getattr(self, key) for key in self._BUFFERS}
        for key in self._RAGGED:
            for f, arr in enumerate(getattr(self, key)):
                if arr is not None:
                    arrays[f"{key}:{f}"] = arr
        meta = {
            key: getattr(self, key)
            for key in ("n_trees", "n_features", "init_score") + self._SCALARS
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray], meta: dict):
        """Rebuild an encoding from :meth:`export_state` output.

        The arrays are adopted as-is (typically read-only shared-memory
        views); evaluation never writes into them, so the rebuilt engine
        is bitwise identical to the exporting one.
        """
        self = cls.__new__(cls)
        for key, value in meta.items():
            setattr(self, key, value)
        for key in cls._BUFFERS:
            setattr(self, key, arrays[key])
        for key in cls._RAGGED:
            setattr(
                self, key,
                [arrays.get(f"{key}:{f}") for f in range(self.n_features)],
            )
        return self


# The per-tree loop lives in the models themselves; registering it here
# (with no pack hook) makes it selectable and ends every fallback ladder.
register_engine(EngineSpec(name="loop"))
