"""The runtime numerics sanitizer: mode knob, guard, check helpers, and
their wiring into the hot kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import get_numerics_mode, set_numerics_mode
from repro.core.numerics import (
    NumericsError,
    assert_all_finite,
    assert_psd_diagonal,
    assert_strictly_increasing,
    numerics_guard,
    strict_enabled,
)


@pytest.fixture(autouse=True)
def restore_strict_mode():
    """The suite runs strict (conftest); leave it that way after each test."""
    yield
    set_numerics_mode("strict")


class TestModeKnob:
    def test_suite_runs_strict(self):
        assert get_numerics_mode() == "strict"
        assert strict_enabled()

    def test_mode_round_trip(self):
        set_numerics_mode("off")
        assert get_numerics_mode() == "off"
        assert not strict_enabled()
        set_numerics_mode("strict")
        assert strict_enabled()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown numerics mode"):
            set_numerics_mode("paranoid")
        assert get_numerics_mode() == "strict"  # knob untouched on error

    def test_config_reexports_the_knob(self):
        from repro.core import config

        assert "set_numerics_mode" in config.__all__
        assert "get_numerics_mode" in config.__all__


class TestNumericsGuard:
    def test_invalid_operation_raises_tagged(self):
        with pytest.raises(NumericsError, match="my kernel"):
            with numerics_guard("my kernel"):
                np.sqrt(np.array([-1.0]))

    def test_zero_divide_raises(self):
        with pytest.raises(NumericsError):
            with numerics_guard("kernel"):
                np.array([1.0]) / np.array([0.0])

    def test_overflow_policy_configurable(self):
        with numerics_guard("kernel", over="ignore"):
            np.exp(np.array([1e4]))  # saturates to inf, allowed
        with pytest.raises(NumericsError):
            with numerics_guard("kernel", over="raise"):
                np.exp(np.array([1e4]))

    def test_underflow_always_silent(self):
        with numerics_guard("kernel"):
            np.exp(np.array([-1e4]))

    def test_error_is_a_floating_point_error(self):
        assert issubclass(NumericsError, FloatingPointError)

    def test_noop_when_off(self):
        set_numerics_mode("off")
        with numerics_guard("kernel"), np.errstate(invalid="ignore"):
            assert np.isnan(np.sqrt(np.array([-1.0]))[0])


class TestCheckHelpers:
    def test_all_finite_passes_and_fails(self):
        assert_all_finite(np.ones(3), "x")  # no raise
        with pytest.raises(NumericsError, match="2 non-finite"):
            assert_all_finite(np.array([1.0, np.nan, np.inf]), "x")

    def test_all_finite_ignores_integer_arrays(self):
        assert_all_finite(np.arange(5), "ints")

    def test_strictly_increasing(self):
        assert_strictly_increasing(np.array([1.0, 2.0, 5.0]), "dom")
        with pytest.raises(NumericsError, match="not strictly increasing"):
            assert_strictly_increasing(np.array([1.0, 1.0, 2.0]), "dom")
        with pytest.raises(NumericsError, match="not strictly increasing"):
            assert_strictly_increasing(np.array([2.0, 1.0]), "dom")

    def test_psd_diagonal(self):
        assert_psd_diagonal(np.eye(3), "S")
        with pytest.raises(NumericsError, match="negative diagonal"):
            assert_psd_diagonal(-np.eye(3), "S")
        with pytest.raises(NumericsError, match="not square"):
            assert_psd_diagonal(np.ones((2, 3)), "S")
        with pytest.raises(NumericsError, match="not symmetric"):
            assert_psd_diagonal(np.array([[1.0, 2.0], [0.0, 1.0]]), "S")

    def test_helpers_are_noops_when_off(self):
        set_numerics_mode("off")
        assert_all_finite(np.array([np.nan]), "x")
        assert_strictly_increasing(np.array([2.0, 1.0]), "x")
        assert_psd_diagonal(np.ones((2, 3)), "x")


class TestKernelWiring:
    """The sanitizer actually guards the kernels the docs promise."""

    def test_bspline_design_rejects_nonfinite_input(self):
        from repro.gam.bsplines import bspline_design, uniform_knots

        knots = uniform_knots(0.0, 1.0, n_splines=8)
        with pytest.raises(NumericsError):
            bspline_design(np.array([0.5, np.nan]), knots)

    def test_domain_monotonicity_checked(self):
        from repro.core.sampling import build_domain

        domain = build_domain(np.array([0.1, 0.4, 0.9]), "equi-width", k=8)
        assert np.all(np.diff(domain) > 0)

    def test_packed_predict_flags_nonfinite_leaf(self, small_forest):
        from repro.forest.packed import PackedForest

        packed = PackedForest.pack(
            small_forest.trees_, small_forest.init_score_, 5
        )
        packed.leaf_values[:] = np.nan
        X = np.full((4, 5), 0.5)
        with pytest.raises(NumericsError):
            packed.predict_raw(X)

    def test_explain_pipeline_finite_end_to_end(self, small_forest):
        # A normal fit under strict mode must sail through every guard.
        from repro.core.config import GEFConfig
        from repro.core.explainer import GEF

        config = GEFConfig(n_samples=600, k_points=8, n_splines=6)
        explanation = GEF(config).explain(small_forest)
        assert np.isfinite(explanation.fidelity["r2"])
