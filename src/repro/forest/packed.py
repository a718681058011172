"""Packed forest evaluation engine: single-pass batched prediction.

The per-tree prediction loop pays the full vectorized-descent overhead
(index gathers, comparison, child select) once per tree.  This module
concatenates *all* trees of a forest into flat structure-of-arrays buffers
and advances every (row, tree) pair simultaneously in one
breadth-synchronous descent, then reduces with a single sequential pass —
bitwise identical to the loop, several times faster.

Layout
------
Trees are renumbered breadth-first at pack time so that each internal
node's right child immediately follows its left child.  That collapses the
whole per-node test into one integer record::

    record = (left_child << L1_SHIFT) | (feature << F_SHIFT) | code
    next   = (record >> L1_SHIFT) - (x_code <= code)    # 0 -> right, 1 -> left

where ``code`` indexes a per-feature codebook of the distinct thresholds
used anywhere in the forest.  Rows are digitized once per predict call
(``code(x) = searchsorted(thresholds_f, x, side="left")``), which maps the
float comparison ``x <= t`` onto the integer comparison ``code(x) <=
code(t)`` exactly — including NaN and infinities, which sort past every
threshold and therefore always go right, matching IEEE comparison
semantics.  Bit widths adapt to the forest: small forests fit the whole
record in an ``int32``, halving gather traffic.

Leaves carry an all-ones sentinel code, which makes the comparison always
true and their stored child pointer points back at themselves, so finished
pairs self-loop harmlessly until the periodic compaction sweep retires
them (every ``_CSHIFT`` levels the active set is filtered through double
buffers, so deep leaf-wise trees do not drag every pair to the maximum
depth).

The reduction (shared by every engine, see
:class:`repro.forest.engines.EncodedForest`) replays the exact sequential
accumulation order of the per-tree loop, so packed and loop outputs are
bit-for-bit equal.  ``"packed"`` registers in the engine registry as the
fallback of the default ``"bitvector"`` engine.
"""

from __future__ import annotations

import numpy as np

from .engines import EncodedForest, EngineSpec, register_engine
from .tree import LEAF, Tree

__all__ = ["PackedForest"]

#: Compact the active (row, tree) set every this many descent levels.
_CSHIFT = 5


def _bfs_order(tree: Tree) -> np.ndarray:
    """Node ids level by level, each node's children adjacent (left, right)."""
    feat, lft, rgt = tree.feature, tree.left, tree.right
    levels = [np.zeros(1, dtype=np.int64)]
    frontier = levels[0]
    while frontier.size:
        internal = frontier[feat[frontier] != LEAF]
        if internal.size == 0:
            break
        children = np.empty(internal.size * 2, dtype=np.int64)
        children[0::2] = lft[internal]
        children[1::2] = rgt[internal]
        levels.append(children)
        frontier = children
    return np.concatenate(levels)


class PackedForest(EncodedForest):
    """All trees of one forest packed into flat buffers for batched descent.

    Build with :meth:`pack`; it returns ``None`` when the forest cannot be
    packed (non-finite thresholds, or a record wider than 63 bits), in
    which case callers fall back to the per-tree loop.
    """

    name = "packed"
    _BUFFERS = ("records", "leaf_values", "roots", "single_leaf", "active_trees")
    _RAGGED = ("feat_thr",)
    _SCALARS = ("code_bits", "f_bits")

    @classmethod
    def pack(
        cls, trees: list[Tree], init_score: float, n_features: int
    ) -> "PackedForest | None":
        """Pack ``trees`` into a :class:`PackedForest`; ``None`` if unsupported."""
        if not trees or n_features < 1:
            return None
        for tree in trees:
            internal = tree.feature != LEAF
            if internal.any() and not np.all(np.isfinite(tree.threshold[internal])):
                return None

        self = cls(trees, init_score, n_features)

        # Per-feature codebook: every distinct threshold in the forest.
        per_feature: list[list[np.ndarray]] = [[] for _ in range(n_features)]
        for tree in trees:
            internal = tree.feature != LEAF
            feats = tree.feature[internal]
            thrs = tree.threshold[internal]
            for f in np.unique(feats):
                per_feature[f].append(thrs[feats == f])
        self.feat_thr = [
            np.unique(np.concatenate(v)) if v else np.empty(0, dtype=np.float64)
            for v in per_feature
        ]
        n_codes = max((len(v) for v in self.feat_thr), default=0)

        # Adaptive bit layout; the all-ones code is the leaf sentinel.
        self.code_bits = max(int(n_codes + 1).bit_length(), 1)
        self.f_bits = max(int(max(n_features - 1, 1)).bit_length(), 1)
        total_nodes = sum(t.n_nodes for t in trees)
        l1_bits = int(total_nodes + 1).bit_length()
        if self.code_bits + self.f_bits + l1_bits > 63:
            return None
        leaf_code = (1 << self.code_bits) - 1
        f_shift, l1_shift = self.code_bits, self.code_bits + self.f_bits
        use32 = (self.code_bits + self.f_bits + l1_bits) <= 31

        rec = np.empty(total_nodes, np.int64)
        self.leaf_values = np.empty(total_nodes, np.float64)
        self.roots = np.empty(self.n_trees, np.int64)
        self.single_leaf = np.zeros(self.n_trees, np.bool_)
        parts_f: list[np.ndarray] = []
        parts_thr: list[np.ndarray] = []
        parts_leaf: list[np.ndarray] = []
        offset = 0
        for ti, tree in enumerate(trees):
            n = tree.n_nodes
            bfs = _bfs_order(tree)
            new_id = np.empty(n, np.int64)
            new_id[bfs] = np.arange(n)
            is_leaf = tree.feature[bfs] == LEAF
            fv = np.where(is_leaf, 0, tree.feature[bfs]).astype(np.int64)
            # Stored pointer is left_child - 1; for leaves (comparison is
            # always true) it must be the node itself so they self-loop.
            l1m1 = np.where(
                is_leaf, np.arange(n), new_id[np.where(is_leaf, 0, tree.left[bfs])]
            ).astype(np.int64) + offset
            rec[offset : offset + n] = (l1m1 << l1_shift) | (fv << f_shift)
            self.leaf_values[offset : offset + n] = tree.value[bfs]
            self.roots[ti] = offset
            self.single_leaf[ti] = bool(is_leaf[0])
            parts_f.append(fv)
            parts_thr.append(tree.threshold[bfs])
            parts_leaf.append(is_leaf)
            offset += n

        # Threshold codes for every node, one searchsorted per feature.
        all_f = np.concatenate(parts_f)
        all_thr = np.concatenate(parts_thr)
        all_leaf = np.concatenate(parts_leaf)
        code = np.full(total_nodes, leaf_code, np.int64)
        internal_idx = np.flatnonzero(~all_leaf)
        f_internal = all_f[internal_idx]
        for f in np.unique(f_internal):
            sel = internal_idx[f_internal == f]
            code[sel] = np.searchsorted(self.feat_thr[f], all_thr[sel])
        rec |= code
        self.records = rec.astype(np.int32 if use32 else np.int64)
        self.active_trees = np.flatnonzero(~self.single_leaf)
        return self

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def digitize(self, X: np.ndarray) -> np.ndarray:
        """Integer code matrix of ``X`` under the forest's threshold codebook."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, forest expects {self.n_features}"
            )
        codes = np.empty(X.shape, np.int32)
        for f in range(self.n_features):
            if len(self.feat_thr[f]):
                codes[:, f] = np.searchsorted(self.feat_thr[f], X[:, f], side="left")
            else:
                codes[:, f] = 0
        return codes

    def _eval_block(self, codes: np.ndarray, chunk: int):
        """Descend each ``chunk``-row block; yield its leaf values."""
        d = self.n_features
        rec, pv, roots = self.records, self.leaf_values, self.roots
        active_trees, n_trees = self.active_trees, self.n_trees
        nt_act = active_trees.size
        leaf_code = (1 << self.code_bits) - 1
        f_shift, l1_shift = self.code_bits, self.code_bits + self.f_bits
        idt = rec.dtype
        f_base_mask = (1 << self.f_bits) - 1
        A0 = nt_act * chunk
        cA = np.empty(A0, idt)
        cB = np.empty(A0, idt)
        pairA = np.empty(A0, idt)
        pairB = np.empty(A0, idt)
        rowdA = np.empty(A0, idt)
        rowdB = np.empty(A0, idt)
        node = np.empty(A0, idt)
        scr = np.empty(A0, idt)
        scr2 = np.empty(A0, idt)
        xc = np.empty(A0, np.int32)
        leaf_buf = np.empty(A0, np.bool_)
        vals = np.empty((n_trees, chunk))
        pair0 = (
            np.repeat(active_trees, chunk) * chunk
            + np.tile(np.arange(chunk, dtype=np.int64), nt_act)
        ).astype(idt)
        rowd0 = ((pair0 & (chunk - 1)) * d).astype(idt)
        node0 = np.repeat(roots[active_trees], chunk).astype(idt)
        for ti in np.flatnonzero(self.single_leaf):
            vals[ti, :] = pv[roots[ti]]
        row_mask = chunk - 1
        vflat = vals.reshape(-1)
        N = codes.shape[0]
        for clo in range(0, N, chunk):
            chi = min(clo + chunk, N)
            R = chi - clo
            Cf = codes[clo:chi].reshape(-1)
            if R == chunk:
                A = A0
                node[:A] = node0
                pairA[:A] = pair0
                rowdA[:A] = rowd0
            else:
                A = nt_act * R
                node[:A] = np.repeat(roots[active_trees], R).astype(idt)
                pairA[:A] = (
                    np.repeat(active_trees, R) * chunk
                    + np.tile(np.arange(R, dtype=np.int64), nt_act)
                ).astype(idt)
                rowdA[:A] = (pairA[:A] & row_mask) * d
            level = 0
            while A:
                c = cA[:A]
                np.take(rec, node[:A], out=c)
                level += 1
                if level % _CSHIFT == 0:
                    # Retire finished pairs and compact the active set.
                    finished = leaf_buf[:A]
                    cl = scr[:A]
                    np.bitwise_and(c, leaf_code, out=cl)
                    np.equal(cl, leaf_code, out=finished)
                    if np.count_nonzero(finished):
                        done = np.flatnonzero(finished)
                        vflat[pairA[:A].take(done)] = pv.take(node[:A].take(done))
                        keep = np.flatnonzero(np.logical_not(finished, out=finished))
                        A2 = keep.size
                        np.take(c, keep, out=cB[:A2])
                        np.take(pairA[:A], keep, out=pairB[:A2])
                        np.take(rowdA[:A], keep, out=rowdB[:A2])
                        cA, cB = cB, cA
                        pairA, pairB = pairB, pairA
                        rowdA, rowdB = rowdB, rowdA
                        A = A2
                        if A == 0:
                            break
                        c = cA[:A]
                # flat code-matrix index = rowd + feature, where the
                # row-offset rowd = (pair & (chunk-1)) * d is maintained
                # through compactions instead of recomputed every level.
                f = scr[:A]
                np.right_shift(c, f_shift, out=f)
                np.bitwise_and(f, f_base_mask, out=f)
                np.add(f, rowdA[:A], out=f)
                x = xc[:A]
                np.take(Cf, f, out=x)
                # sign trick: (code - x_code) >> 31 is 0 (left) or -1 (right)
                s = scr2[:A]
                np.bitwise_and(c, leaf_code, out=s)
                np.subtract(s, x, out=s)
                np.right_shift(s, 31, out=s)
                np.right_shift(c, l1_shift, out=c)
                np.subtract(c, s, out=node[:A])
            yield vals[:, :R]

    def _auto_chunk(self) -> int:
        """Largest power-of-two chunk keeping ~32k active (row, tree) pairs.

        Deep forests want small chunks (the compacted active set stays
        cache-resident); small forests want big chunks (fewer per-chunk
        setups and reductions).
        """
        nt_act = max(self.active_trees.size, 1)
        chunk = 64
        while chunk < 1024 and chunk * 2 * nt_act <= 32768:
            chunk *= 2
        return chunk


register_engine(EngineSpec(name="packed", pack=PackedForest.pack, fallback=None))
