"""Equivalence tests for the traversal-free bitvector evaluation engine.

The bitvector engine must be *bitwise identical* to both the per-tree
loop and the packed descent on every forest shape: that is the contract
that lets it be the default ``predict_raw`` path.  These tests sweep
model families, mask widths (uint32, single-word uint64, multi-word),
degenerate trees, edge thresholds and special float inputs — all under
``REPRO_NUMERICS=strict`` (the suite-wide default from conftest) —
always comparing with ``np.array_equal`` (no tolerances).
"""

import numpy as np
import pytest

from repro.core.numerics import strict_enabled
from repro.forest import (
    BitvectorForest,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    OneVsRestGBDTClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
    Tree,
    encoding_for,
    engine_names,
    get_prediction_engine,
    invalidate_encodings,
    set_prediction_engine,
)
from repro.forest import bitvector as bitvector_mod
from repro.forest.engines import _SLOT, DEFAULT_ENGINE
from repro.forest.tree import LEAF


def loop_predict_raw(model, X):
    """Reference per-tree loop, independent of the engine knob."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    raw = np.full(X.shape[0], model.init_score_)
    for tree in model.trees_:
        raw += tree.predict(X)
    return raw


def chain_tree(depth, n_features=3):
    """A left-spine chain: ``depth`` internal nodes, ``depth + 1`` leaves."""
    n = 2 * depth + 1
    feature = np.full(n, LEAF, np.int32)
    threshold = np.zeros(n)
    left = np.full(n, -1, np.int32)
    right = np.full(n, -1, np.int32)
    value = np.zeros(n)
    node = 0
    for d in range(depth):
        feature[node] = d % n_features
        threshold[node] = 0.1 * d - 0.2
        left[node] = node + 1
        right[node] = node + 2
        value[node + 1] = float(d) - 1.5
        node += 2
    value[node] = 99.0
    return Tree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        gain=np.zeros(n),
        n_samples=np.ones(n, np.int64),
    )


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((800, 5))
    y = X[:, 0] * 2 + np.sin(3 * X[:, 1]) + X[:, 2] * X[:, 3]
    y = y + 0.1 * rng.standard_normal(800)
    X_test = rng.standard_normal((700, 5))
    return X, y, X_test


@pytest.fixture(autouse=True)
def bitvector_engine():
    set_prediction_engine("bitvector")
    yield
    set_prediction_engine(DEFAULT_ENGINE)


class TestEquivalence:
    @pytest.mark.parametrize("max_depth", [1, 2, 4, -1])
    def test_gbdt_regressor_bitwise_identical(self, data, max_depth):
        X, y, X_test = data
        model = GradientBoostingRegressor(
            n_estimators=30, num_leaves=15, max_depth=max_depth, random_state=0
        )
        model.fit(X, y)
        out = model.predict_raw(X_test)
        assert np.array_equal(out, loop_predict_raw(model, X_test))
        packed = encoding_for(model, "packed")
        assert np.array_equal(out, packed.predict_raw(X_test))

    def test_gbdt_classifier_bitwise_identical(self, data):
        X, y, X_test = data
        model = GradientBoostingClassifier(
            n_estimators=25, num_leaves=15, random_state=0
        )
        model.fit(X, (y > 0).astype(float))
        out = model.predict_raw(X_test)
        assert np.array_equal(out, loop_predict_raw(model, X_test))
        assert np.array_equal(
            out, encoding_for(model, "packed").predict_raw(X_test)
        )

    @pytest.mark.parametrize("num_leaves", [2, 31])
    def test_random_forests_bitwise_identical(self, data, num_leaves):
        X, y, X_test = data
        reg = RandomForestRegressor(
            n_estimators=15, num_leaves=num_leaves, random_state=0
        )
        reg.fit(X, y)
        assert np.array_equal(reg.predict_raw(X_test), loop_predict_raw(reg, X_test))
        clf = RandomForestClassifier(
            n_estimators=15, num_leaves=num_leaves, random_state=0
        )
        clf.fit(X, (y > 0).astype(float))
        assert np.array_equal(clf.predict_raw(X_test), loop_predict_raw(clf, X_test))

    def test_multiclass_bitwise_identical(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((400, 4))
        y = np.argmax(X[:, :3] + 0.3 * rng.standard_normal((400, 3)), axis=1)
        model = OneVsRestGBDTClassifier(n_estimators=10, num_leaves=7, random_state=0)
        model.fit(X, y)
        X_test = rng.standard_normal((150, 4))
        raw = model.predict_raw(X_test)
        assert raw.shape == (150, model.n_classes_)
        for k, forest in enumerate(model.forests_):
            assert np.array_equal(raw[:, k], loop_predict_raw(forest, X_test))
        set_prediction_engine("loop")
        proba_loop = model.predict_proba(X_test)
        set_prediction_engine("bitvector")
        assert np.array_equal(model.predict_proba(X_test), proba_loop)

    def test_special_float_inputs_under_strict_numerics(self, data):
        X, y, _ = data
        assert strict_enabled(), "suite must run under REPRO_NUMERICS=strict"
        model = GradientBoostingRegressor(n_estimators=10, num_leaves=15, random_state=0)
        model.fit(X, y)
        X_test = np.zeros((4, 5))
        X_test[0, :] = np.nan
        X_test[1, :] = np.inf
        X_test[2, :] = -np.inf
        X_test[3, :] = 0.0
        out = model.predict_raw(X_test)
        assert np.array_equal(out, loop_predict_raw(model, X_test))
        assert np.all(np.isfinite(out))

    def test_staged_predict_bitwise_identical(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=12, num_leaves=7, random_state=0)
        model.fit(X, y)
        bv_stages = list(model.staged_predict_raw(X_test))
        set_prediction_engine("loop")
        loop_stages = list(model.staged_predict_raw(X_test))
        assert len(bv_stages) == len(loop_stages) == 12
        for b, l in zip(bv_stages, loop_stages):
            assert np.array_equal(b, l)

    def test_leaf_value_matrix_matches_per_tree_outputs(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=9, num_leaves=15, random_state=0)
        model.fit(X, y)
        encoded = encoding_for(model, "bitvector")
        values = encoded.leaf_value_matrix(X_test)
        assert values.shape == (9, X_test.shape[0])
        per_tree = np.stack([tree.predict(X_test) for tree in model.trees_])
        assert np.array_equal(values, per_tree)


class TestMaskWidths:
    """The three mask layouts: uint32, single-word uint64, multi-word."""

    def _stub(self, trees, init=0.25, n_features=3):
        class Stub:
            """Minimal forest-protocol carrier for hand-built trees."""

        model = Stub()
        model.trees_ = trees
        model.init_score_ = init
        model.n_features_ = n_features
        return model

    @pytest.mark.parametrize(
        "depth, words, bits",
        [(31, 1, 32), (32, 1, 64), (63, 1, 64), (64, 2, 64), (200, 4, 64)],
    )
    def test_word_layout_and_equality(self, depth, words, bits):
        model = self._stub([chain_tree(depth), chain_tree(3)])
        encoded = encoding_for(model, "bitvector")
        assert encoded is not None
        assert encoded.n_words == words
        assert encoded.word_bits == bits
        rng = np.random.default_rng(depth)
        X = rng.uniform(-1.0, 7.0, size=(257, 3))
        X[0] = np.nan
        X[1] = [0.1 * min(depth, 3) - 0.2, 0.0, 0.0]  # exact boundary
        assert np.array_equal(
            encoded.predict_raw(X), loop_predict_raw(model, X)
        )

    def test_trained_multiword_forest(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4000, 6))
        y = np.sum(np.sin(X * np.arange(1, 7)), axis=1)
        model = GradientBoostingRegressor(
            n_estimators=12, num_leaves=100, max_depth=-1, random_state=0
        )
        model.fit(X, y)
        assert max(t.n_leaves for t in model.trees_) > 64
        encoded = encoding_for(model, "bitvector")
        assert encoded.n_words >= 2
        X_test = rng.standard_normal((900, 6))
        assert np.array_equal(
            model.predict_raw(X_test), loop_predict_raw(model, X_test)
        )


class TestDegenerateTrees:
    def _stub(self, trees, init=0.5, n_features=3):
        class Stub:
            """Minimal forest-protocol carrier for hand-built trees."""

        model = Stub()
        model.trees_ = trees
        model.init_score_ = init
        model.n_features_ = n_features
        return model

    def test_single_leaf_trees_only(self):
        model = self._stub([Tree.single_leaf(1.0), Tree.single_leaf(-0.25)])
        encoded = encoding_for(model, "bitvector")
        assert encoded is not None
        X = np.random.default_rng(0).standard_normal((10, 3))
        assert np.array_equal(
            encoded.predict_raw(X), loop_predict_raw(model, X)
        )

    def test_mixed_single_leaf_chain_and_stump(self):
        stump = Tree(
            feature=np.array([0, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.25, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -1.0, 2.0]),
            gain=np.array([1.0, 0.0, 0.0]),
            n_samples=np.array([10, 6, 4], dtype=np.int64),
        )
        model = self._stub([Tree.single_leaf(3.0), chain_tree(70), stump])
        encoded = encoding_for(model, "bitvector")
        assert encoded.n_words == 2  # chain(70) has 71 leaves
        X = np.array([[0.25, 0.0, 0.0], [0.2500001, 0.0, 0.0], [-5.0, 1.0, 1.0]])
        assert np.array_equal(
            encoded.predict_raw(X), loop_predict_raw(model, X)
        )

    def test_edge_thresholds_exact_boundary(self):
        """Rows sitting exactly on a threshold must go left, as in the loop."""
        t = np.nextafter(1.0, 0.0)
        tree = Tree(
            feature=np.array([1, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([t, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, 10.0, 20.0]),
            gain=np.array([1.0, 0.0, 0.0]),
            n_samples=np.array([4, 2, 2], dtype=np.int64),
        )
        model = self._stub([tree], init=0.0)
        encoded = encoding_for(model, "bitvector")
        X = np.array([[0.0, t, 0.0], [0.0, np.nextafter(t, 2.0), 0.0]])
        out = encoded.predict_raw(X)
        assert np.array_equal(out, np.array([10.0, 20.0]))
        assert np.array_equal(out, loop_predict_raw(model, X))


class TestEligibilityAndFallback:
    def test_nan_threshold_declines_everywhere_loop_serves(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        root = int(np.flatnonzero(model.trees_[0].feature != LEAF)[0])
        model.trees_[0].threshold[root] = np.nan
        invalidate_encodings(model)
        assert encoding_for(model, "bitvector") is None
        assert encoding_for(model, "packed") is None
        # predict_raw still works, now through the loop at the ladder's end.
        assert np.array_equal(model.predict_raw(X_test), loop_predict_raw(model, X_test))

    def test_too_wide_tree_declines(self):
        wide = chain_tree(64 * bitvector_mod.MAX_LEAF_WORDS)  # one leaf too many
        assert BitvectorForest.pack([wide], 0.0, 3) is None

    def test_table_budget_decline_falls_back_to_packed(self, data, monkeypatch):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=8, num_leaves=15, random_state=0)
        model.fit(X, y)
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", 0)
        invalidate_encodings(model)
        assert encoding_for(model, "bitvector") is None
        # The engine ladder lands on packed: output unchanged, pack cached.
        out = model.predict_raw(X_test)
        assert np.array_equal(out, loop_predict_raw(model, X_test))
        assert model.__dict__[_SLOT][1]["packed"] is not None

    def test_decline_is_cached_until_invalidated(self, data, monkeypatch):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=4, num_leaves=7, random_state=0)
        model.fit(X, y)
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", 0)
        invalidate_encodings(model)
        assert encoding_for(model, "bitvector") is None
        assert model.__dict__[_SLOT][1]["bitvector"] is None
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", 256 * 1024 * 1024)
        # Same fingerprint: the cached decline persists until invalidated.
        assert encoding_for(model, "bitvector") is None
        invalidate_encodings(model)
        assert encoding_for(model, "bitvector") is not None


class TestCacheAndInvalidation:
    def test_mutation_triggers_reencode(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=10, num_leaves=15, random_state=0)
        model.fit(X, y)
        before = model.predict_raw(X_test)
        encoded_before = encoding_for(model, "bitvector")
        model.trees_[0].value *= 2.0
        after = model.predict_raw(X_test)
        assert encoding_for(model, "bitvector") is not encoded_before
        assert not np.array_equal(before, after)
        assert np.array_equal(after, loop_predict_raw(model, X_test))

    def test_invalidate_packed_clears_every_engine(self, data):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        assert encoding_for(model, "bitvector") is not None
        assert encoding_for(model, "packed") is not None
        # One slot holds every engine's encoding; one call drops them all.
        invalidate_encodings(model)
        assert _SLOT not in model.__dict__

    def test_explicit_bitvector_invalidation_hook(self, data):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        before = encoding_for(model, "bitvector")
        assert before is not None
        invalidate_encodings(model)
        assert encoding_for(model, "bitvector") is not before


class TestEngineKnobAndRegistry:
    def test_bitvector_is_the_default_engine(self):
        assert DEFAULT_ENGINE == "bitvector"
        assert get_prediction_engine() == "bitvector"

    def test_all_three_engines_registered(self):
        assert set(engine_names()) >= {"bitvector", "packed", "loop"}

    def test_engine_knob_roundtrip(self):
        for name in ("loop", "packed", "bitvector"):
            set_prediction_engine(name)
            assert get_prediction_engine() == name
        with pytest.raises(ValueError):
            set_prediction_engine("warp-drive")

    def test_loop_engine_skips_encoding(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        set_prediction_engine("loop")
        out = model.predict_raw(X_test)
        assert _SLOT not in model.__dict__
        set_prediction_engine("bitvector")
        assert np.array_equal(out, model.predict_raw(X_test))

    def test_packed_engine_skips_bitvector_encoding(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        set_prediction_engine("packed")
        out = model.predict_raw(X_test)
        assert set(model.__dict__[_SLOT][1]) == {"packed"}
        assert np.array_equal(out, loop_predict_raw(model, X_test))


class TestChunkingAndThreads:
    def test_chunking_invariance(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=20, num_leaves=31, random_state=0)
        model.fit(X, y)
        encoded = encoding_for(model, "bitvector")
        reference = loop_predict_raw(model, X_test)
        for chunk in (64, 256, 2048):
            out = encoded.predict_raw(X_test, chunk=chunk)
            assert np.array_equal(out, reference)
        with pytest.raises(ValueError):
            encoded.predict_raw(X_test, chunk=100)

    def test_feature_count_mismatch_rejected(self, data):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=4, num_leaves=7, random_state=0)
        model.fit(X, y)
        encoded = encoding_for(model, "bitvector")
        with pytest.raises(ValueError, match="features"):
            encoded.predict_raw(np.zeros((3, 9)))

    def test_direct_pack_roundtrip(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=8, num_leaves=15, random_state=0)
        model.fit(X, y)
        encoded = BitvectorForest.pack(
            model.trees_, model.init_score_, model.n_features_
        )
        assert encoded is not None
        assert encoded.n_trees == 8
        assert np.array_equal(
            encoded.predict_raw(X_test),
            loop_predict_raw(model, X_test),
        )
