"""Forest substrate: histogram GBDTs and random forests built from scratch.

This subpackage replaces LightGBM in the reproduction.  Every model exposes
the *forest protocol* GEF relies on:

* ``trees_`` — list of :class:`~repro.forest.tree.Tree` with per-node
  feature, threshold, gain, cover and leaf values;
* ``init_score_`` — constant base score;
* ``n_features_`` — input dimensionality;
* ``predict_raw(X)`` — ``init_score_ + sum of trees``.

Prediction runs on the traversal-free bitvector engine by default
(QuickScorer-style threshold-sorted bitmasks, see
:mod:`repro.forest.bitvector`), falling back to the packed single-pass
descent (:mod:`repro.forest.packed`) for forests the bitvector encoding
declines; ``set_prediction_engine("packed")`` or ``"loop"`` selects the
other engines, which are bitwise identical but slower.  The engine
registry, the per-model encoding slot and the evaluation shell both
kernels share live in :mod:`repro.forest.engines`.
"""

from .binning import BinMapper
from .bitvector import BitvectorForest
from .boosting import GradientBoostingClassifier, GradientBoostingRegressor
from .engines import (
    encoding_for,
    engine_for,
    engine_names,
    forest_fingerprint,
    get_prediction_engine,
    invalidate_encodings,
    set_prediction_engine,
)
from .grower import TreeGrowerParams, grow_tree
from .losses import LogisticLoss, SquaredLoss, get_loss, sigmoid
from .multiclass import OneVsRestGBDTClassifier
from .model_io import (
    forest_from_dict,
    forest_to_dict,
    forests_equal,
    load_forest,
    save_forest,
)
from .packed import PackedForest
from .random_forest import RandomForestClassifier, RandomForestRegressor
from .text_dump import dump_tree, forest_summary
from .tree import LEAF, Tree
from .validation import GridSearch, cross_val_score, kfold_indices, train_test_split

__all__ = [
    "BinMapper",
    "BitvectorForest",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "GridSearch",
    "LEAF",
    "LogisticLoss",
    "OneVsRestGBDTClassifier",
    "PackedForest",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "SquaredLoss",
    "Tree",
    "TreeGrowerParams",
    "cross_val_score",
    "dump_tree",
    "encoding_for",
    "engine_for",
    "engine_names",
    "forest_fingerprint",
    "forest_from_dict",
    "forest_summary",
    "forest_to_dict",
    "forests_equal",
    "get_loss",
    "get_prediction_engine",
    "grow_tree",
    "invalidate_encodings",
    "kfold_indices",
    "load_forest",
    "save_forest",
    "set_prediction_engine",
    "sigmoid",
    "train_test_split",
]
