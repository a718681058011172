"""Traversal-free bitvector forest evaluation (QuickScorer-style).

The packed engine still *walks* trees — one gather per level per active
(row, tree) pair.  This module removes the walk entirely by re-encoding
each tree as threshold-sorted **false-node bitmasks** (Lucchese et al.'s
QuickScorer family, the same authors as the source paper): prediction
becomes branch-free columnar numpy work with no level-by-level descent
and no per-node branching.

Encoding
--------
Number each tree's leaves left-to-right (in-order), so every subtree's
leaves form one contiguous bit range.  For an internal node testing
``x[f] <= t``, a *false* outcome sends the row right, making the left
subtree's leaves unreachable — so the node's mask is all-ones except the
left-subtree bit range.  Evaluating a row against a tree is then:

1. start from the tree's init vector (low ``n_leaves`` bits set),
2. AND in the mask of every condition that evaluates false,
3. the lowest surviving set bit *is* the exit leaf (QuickScorer's
   theorem), found with ``v & -v`` plus ``frexp``.

Conditions are organized per feature and sorted by threshold.  Because
``x[f] <= t`` is false exactly when ``t < x[f]``, the false conditions of
feature ``f`` for a row are a *prefix* of that sorted order, located with
one ``np.searchsorted`` per feature.  NaN and ``+inf`` sort past every
threshold (every condition false — always right) and ``-inf`` before all
of them (always left), matching IEEE comparison semantics bit-for-bit.

To turn the per-row prefix into one AND per feature, packing
precomputes, for every feature, a **prefix-mask table**: row ``p`` holds,
for every tree, the AND of that tree's masks among the first ``p``
sorted conditions (built with a scatter plus one
``np.bitwise_and.accumulate``).  Evaluation per feature is then a single
contiguous row gather (``np.take(table, pos, axis=0)``) and one AND into
the (row, tree) accumulator — the whole forest evaluates in
``n_features`` passes regardless of depth.

Mask words adapt to the forest: ``uint32`` for trees up to 32 leaves
(halving table traffic — the paper's ``num_leaves=31`` shape), one
``uint64`` word up to 64 leaves, and multi-word ``uint64`` lanes above
that (up to :data:`MAX_LEAF_WORDS` words).  Forests that exceed the word
budget or whose prefix tables would exceed :data:`MAX_TABLE_BYTES`
decline packing and fall back to the packed engine (see
:mod:`repro.forest.engines` for the ladder).

The reduction (shared by every engine, see
:class:`repro.forest.engines.EncodedForest`) replays the exact sequential
accumulation order of the per-tree loop, so bitvector, packed and loop
outputs are bit-for-bit equal.
"""

from __future__ import annotations

import numpy as np

from ..core.numerics import NumericsError, strict_enabled
from ..obs.metrics import inc as metric_inc
from .engines import EncodedForest, EngineSpec, register_engine
from .tree import LEAF, Tree

__all__ = ["MAX_LEAF_WORDS", "MAX_TABLE_BYTES", "BitvectorForest"]

#: Trees wider than ``64 * MAX_LEAF_WORDS`` leaves decline packing.
MAX_LEAF_WORDS = 8

#: Prefix-mask tables above this many bytes decline packing (the packed
#: engine's O(nodes) buffers then take over).
MAX_TABLE_BYTES = 256 * 1024 * 1024


def _leaf_order(tree: Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-to-right leaf numbering and per-node subtree leaf ranges.

    Returns ``(leaf_nodes, lo, hi)``: node ids of the leaves in
    left-to-right order, and for every node the half-open range
    ``[lo, hi)`` of leaf numbers its subtree covers.
    """
    n = tree.n_nodes
    feat, left, right = tree.feature, tree.left, tree.right
    lo = np.zeros(n, dtype=np.int64)
    hi = np.zeros(n, dtype=np.int64)
    leaf_nodes: list[int] = []
    # Iterative DFS: first visit assigns ``lo``, the post-visit (after
    # both children) assigns ``hi``; leaves get numbered on sight.
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        node, done = stack.pop()
        if done:
            hi[node] = len(leaf_nodes)
            continue
        lo[node] = len(leaf_nodes)
        if feat[node] == LEAF:
            leaf_nodes.append(node)
            hi[node] = len(leaf_nodes)
            continue
        stack.append((node, True))
        stack.append((int(right[node]), False))
        stack.append((int(left[node]), False))
    return np.asarray(leaf_nodes, dtype=np.int64), lo, hi


def _range_mask_words(lb: int, le: int, n_words: int, width: int) -> list[int]:
    """All-ones words with bits ``[lb, le)`` cleared, low word first."""
    full = (1 << (width * n_words)) - 1
    mask = full ^ (((1 << (le - lb)) - 1) << lb)
    word_max = (1 << width) - 1
    return [(mask >> (width * w)) & word_max for w in range(n_words)]


class BitvectorForest(EncodedForest):
    """One forest encoded as per-feature threshold-sorted prefix masks.

    Build with :meth:`pack`; it returns ``None`` when the forest cannot
    be encoded (non-finite thresholds, too many leaves per tree, or
    prefix tables over the byte budget), in which case dispatch falls
    back to the packed engine.
    """

    name = "bitvector"
    _BUFFERS = ("leaf_values", "leaf_offsets", "init_vec")
    _RAGGED = ("feat_thr", "tables")
    _SCALARS = ("n_words", "word_bits")

    @classmethod
    def pack(
        cls, trees: list[Tree], init_score: float, n_features: int
    ) -> "BitvectorForest | None":
        """Encode ``trees`` into a :class:`BitvectorForest`; ``None`` if unsupported."""
        if not trees or n_features < 1:
            return None
        max_leaves = 0
        for tree in trees:
            internal = tree.feature != LEAF
            if internal.any() and not np.all(np.isfinite(tree.threshold[internal])):
                return None
            max_leaves = max(max_leaves, tree.n_leaves)
        if max_leaves > 64 * MAX_LEAF_WORDS:
            return None

        self = cls(trees, init_score, n_features)
        if max_leaves <= 32:
            self.word_bits, self.n_words, dtype = 32, 1, np.uint32
        elif max_leaves <= 64:
            self.word_bits, self.n_words, dtype = 64, 1, np.uint64
        else:
            self.word_bits, dtype = 64, np.uint64
            self.n_words = -(-max_leaves // 64)
        width, n_words = self.word_bits, self.n_words

        # Walk every tree once: leaf order, leaf values, conditions.
        per_feat_thr: list[list[float]] = [[] for _ in range(n_features)]
        per_feat_tree: list[list[int]] = [[] for _ in range(n_features)]
        per_feat_mask: list[list[list[int]]] = [[] for _ in range(n_features)]
        init_words = np.empty((self.n_trees, n_words), dtype)
        leaf_parts: list[np.ndarray] = []
        leaf_off = np.empty(self.n_trees, np.int64)
        offset = 0
        for ti, tree in enumerate(trees):
            leaf_nodes, lo, hi = _leaf_order(tree)
            leaf_parts.append(tree.value[leaf_nodes])
            leaf_off[ti] = offset
            offset += leaf_nodes.size
            n_leaves = leaf_nodes.size
            init_words[ti] = [
                (1 << min(max(n_leaves - width * w, 0), width)) - 1
                for w in range(n_words)
            ]
            for node in np.flatnonzero(tree.feature != LEAF):
                f = int(tree.feature[node])
                lchild = int(tree.left[node])
                per_feat_thr[f].append(float(tree.threshold[node]))
                per_feat_tree[f].append(ti)
                per_feat_mask[f].append(
                    _range_mask_words(int(lo[lchild]), int(hi[lchild]), n_words, width)
                )
        self.leaf_values = np.concatenate(leaf_parts)
        self.leaf_offsets = leaf_off
        self.init_vec = init_words

        # Byte budget: every feature's prefix table is (C_f + 1, T, W).
        itemsize = np.dtype(dtype).itemsize
        table_bytes = sum(
            (len(v) + 1) * self.n_trees * n_words * itemsize
            for v in per_feat_thr
            if v
        )
        if table_bytes > MAX_TABLE_BYTES:
            return None

        # Per-feature prefix-mask tables: scatter each condition's mask at
        # its sorted position, then one bitwise-AND prefix scan.
        self.feat_thr = []
        self.tables = []
        for f in range(n_features):
            thr = np.asarray(per_feat_thr[f], dtype=np.float64)
            if thr.size == 0:
                self.feat_thr.append(thr)
                self.tables.append(None)
                continue
            order = np.argsort(thr, kind="stable")
            self.feat_thr.append(thr[order])
            table = np.full(
                (thr.size + 1, self.n_trees, n_words),
                (1 << width) - 1,
                dtype=dtype,
            )
            tree_idx = np.asarray(per_feat_tree[f], dtype=np.int64)[order]
            masks = np.asarray(per_feat_mask[f], dtype=np.uint64)[order].astype(dtype)
            table[1 + np.arange(thr.size), tree_idx, :] = masks
            np.bitwise_and.accumulate(table, axis=0, out=table)
            if n_words == 1:
                table = np.ascontiguousarray(table[:, :, 0])
            self.tables.append(table)
        return self

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def digitize(self, X: np.ndarray) -> np.ndarray:
        """False-condition prefix lengths per (row, feature).

        One ``searchsorted`` per feature with conditions: the result
        counts thresholds strictly below the row value — exactly the
        conditions that evaluate false (ties are true, matching
        ``x <= t``; NaN sorts past everything and goes all-right).
        """
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self.n_features:
            raise ValueError(  # repro: allow(raise-outside-taxonomy) harness misuse, not a pipeline failure
                f"X has {X.shape[1]} features, forest expects {self.n_features}"
            )
        pos = np.zeros(X.shape, np.int64)
        searched = 0
        for f in range(self.n_features):
            if self.feat_thr[f].size:
                pos[:, f] = np.searchsorted(self.feat_thr[f], X[:, f], side="left")
                searched += 1
        metric_inc("bitvector.searchsorted", searched)
        return pos

    def _eval_block(self, pos: np.ndarray, chunk: int):
        """Evaluate each ``chunk``-row block; yield its leaf values."""
        T, W = self.n_trees, self.n_words
        dtype = self.init_vec.dtype
        features = [f for f in range(self.n_features) if self.tables[f] is not None]
        single = W == 1
        if single:
            acc = np.empty((chunk, T), dtype)
            buf = np.empty((chunk, T), dtype)
        else:
            acc = np.empty((chunk, T, W), dtype)
            buf = np.empty((chunk, T, W), dtype)
        low = np.empty((chunk, T), dtype)
        mant = np.empty((chunk, T), np.float64)
        expo = np.empty((chunk, T), np.int32)
        flat = np.empty((chunk, T), np.int64)
        vals = np.empty((chunk, T))
        init_row = self.init_vec[:, 0] if single else self.init_vec
        leaf_off = self.leaf_offsets
        pv = self.leaf_values
        N = pos.shape[0]
        for clo in range(0, N, chunk):
            chi = min(clo + chunk, N)
            R = chi - clo
            a = acc[:R]
            a[:] = init_row
            for f in features:
                b = buf[:R]
                np.take(self.tables[f], pos[clo:chi, f], axis=0, out=b)
                np.bitwise_and(a, b, out=a)
            if single:
                word = a
            else:
                # First non-empty word per (row, tree); the surviving
                # exit-leaf bit makes at least one word non-zero.  (buf is
                # free after the AND loop, so borrow its word-0 plane.)
                word = buf[:R, :, 0]
                word[:] = a[:, :, 0]
                base = np.zeros((R, T), np.int64)
                remaining = word == 0
                for w in range(1, W):
                    if not remaining.any():
                        break
                    nxt = a[:, :, w]
                    take = remaining & (nxt != 0)
                    word[take] = nxt[take]
                    base[take] = 64 * w
                    remaining &= ~take
            lb = low[:R]
            np.negative(word, out=lb)
            np.bitwise_and(word, lb, out=lb)
            if strict_enabled() and not lb.all():
                raise NumericsError(
                    "bitvector exit-leaf invariant violated: a (row, tree) "
                    "pair retained no candidate leaf"
                )
            m, e = mant[:R], expo[:R]
            np.frexp(lb.astype(np.float64), m, e)
            fl = flat[:R]
            np.subtract(e, 1, out=e)
            np.add(e, leaf_off[None, :], out=fl, casting="unsafe")
            if not single:
                np.add(fl, base, out=fl)
            v = vals[:R]
            np.take(pv, fl, out=v)
            yield v.T

    def _auto_chunk(self) -> int:
        """Largest power-of-two chunk keeping ~256k (row, tree, word) lanes.

        Big forests get small chunks (the accumulator stays cache
        resident while the prefix tables stream); small forests get big
        chunks (fewer per-chunk setups and reductions).
        """
        lanes = max(self.n_trees * self.n_words, 1)
        chunk = 64
        while chunk < 4096 and chunk * 2 * lanes <= 262144:
            chunk *= 2
        return chunk


register_engine(
    EngineSpec(name="bitvector", pack=BitvectorForest.pack, fallback="packed")
)
