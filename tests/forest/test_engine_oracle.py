"""Differential oracle: loop, packed and bitvector agree bit for bit.

Hypothesis draws random tree shapes over a small threshold pool (so rows
and thresholds tie exactly, also across trees and as ``-0.0``/``0.0``),
leaf values spread over many magnitudes (so a different summation order
would show in the last bits) and rows mixing ties, neighbours of ties,
``±inf``, NaN and ``-0.0``.  The per-tree loop is the reference; every
engine must match it bitwise both locally and after its one-block
shared-memory export and attach.  Trees wider than the bitvector word
budget must make bitvector decline and the ladder land on packed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import (
    BitvectorForest,
    PackedForest,
    Tree,
    encoding_for,
    engine_for,
)
from repro.forest.bitvector import MAX_LEAF_WORDS
from repro.forest.tree import LEAF
from repro.serve.shm import attach_model_engine, export_model

THRESHOLDS = np.array([-2.5, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])
SPECIALS = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])


class Forest:
    """Minimal forest-protocol carrier for generated trees."""

    def __init__(self, trees, init_score, n_features):
        self.trees_ = trees
        self.init_score_ = init_score
        self.n_features_ = n_features


def random_tree(rng, n_leaves, n_features):
    """A random binary tree grown by splitting random leaves."""
    feature, threshold, left, right = [LEAF], [0.0], [-1], [-1]
    leaves = [0]
    while len(leaves) < n_leaves:
        node = leaves.pop(int(rng.integers(len(leaves))))
        feature[node] = int(rng.integers(n_features))
        threshold[node] = float(rng.choice(THRESHOLDS))
        left[node], right[node] = len(feature), len(feature) + 1
        for _ in range(2):
            leaves.append(len(feature))
            feature.append(LEAF)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
    n = len(feature)
    value = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 6, size=n)
    value[np.asarray(feature) != LEAF] = 0.0
    return Tree(
        feature=np.asarray(feature, np.int32),
        threshold=np.asarray(threshold),
        left=np.asarray(left, np.int32),
        right=np.asarray(right, np.int32),
        value=value,
        gain=np.zeros(n),
        n_samples=np.ones(n, np.int64),
    )


def random_rows(rng, n_rows, n_features):
    """Rows mixing exact ties, their float neighbours, specials and noise."""
    ties = rng.choice(THRESHOLDS, size=(n_rows, n_features))
    pools = [
        ties,
        np.nextafter(ties, np.inf),
        np.nextafter(ties, -np.inf),
        rng.choice(SPECIALS, size=(n_rows, n_features)),
        rng.standard_normal((n_rows, n_features)) * 3.0,
    ]
    pick = rng.integers(len(pools), size=(n_rows, n_features))
    return np.choose(pick, pools)


def loop_predict_raw(forest, X):
    raw = np.full(X.shape[0], forest.init_score_)
    for tree in forest.trees_:
        raw += tree.predict(X)
    return raw


def assert_attached_equal(forest, encoded, X, expected):
    """Export ``encoded`` as one shm block, attach it, compare bitwise."""
    bundle, segments = export_model("m", 0, forest.n_features_, encoded)
    try:
        attached, shms = attach_model_engine(bundle)
        assert type(attached) is type(encoded)
        assert np.array_equal(attached.predict_raw(X), expected)
        del attached
        for shm in shms:
            shm.close()
    finally:
        for segment in segments:
            segment.unlink()


@st.composite
def forests(draw, min_leaves, max_leaves):
    """A random forest of 1-5 trees plus a matching block of rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 4))
    sizes = draw(
        st.lists(st.integers(min_leaves, max_leaves), min_size=1, max_size=5)
    )
    trees = [random_tree(rng, n, n_features) for n in sizes]
    init = draw(st.floats(-1e3, 1e3, allow_nan=False))
    X = random_rows(rng, draw(st.integers(1, 70)), n_features)
    return Forest(trees, init, n_features), X


@given(forests(1, 40))
@settings(max_examples=60, deadline=None)
def test_engines_match_loop_bitwise(case):
    forest, X = case
    expected = loop_predict_raw(forest, X)
    for name, kind in (("packed", PackedForest), ("bitvector", BitvectorForest)):
        encoded = encoding_for(forest, name)
        assert isinstance(encoded, kind)
        assert np.array_equal(encoded.predict_raw(X), expected)
        staged = list(encoded.staged_predict_raw(X))
        assert np.array_equal(staged[-1], expected)
        assert_attached_equal(forest, encoded, X, expected)


@given(forests(64 * MAX_LEAF_WORDS + 1, 64 * MAX_LEAF_WORDS + 40))
@settings(max_examples=5, deadline=None)
def test_wide_trees_decline_bitvector_to_packed(case):
    forest, X = case
    expected = loop_predict_raw(forest, X)
    assert encoding_for(forest, "bitvector") is None
    encoded = engine_for(forest)
    assert isinstance(encoded, PackedForest)
    assert np.array_equal(encoded.predict_raw(X), expected)
    assert_attached_equal(forest, encoded, X, expected)
