"""Oracles for the local de Boor kernel in ``bspline_design``.

``reference_design`` is the dense Cox–de Boor recursion the kernel
replaced, frozen here as a test-only reference: every basis at every
degree, one Python loop over the columns.  The kernel must reproduce it
bit for bit (values and zero signs) on any domain, including degenerate
ones, and must match ``scipy.interpolate.BSpline.design_matrix`` inside
the domain.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from repro.core.numerics import NumericsError, get_numerics_mode, set_numerics_mode
from repro.gam import bspline_design, uniform_knots


def reference_design(x, knots, degree=3):
    """Dense Cox–de Boor recursion over all columns (the former kernel)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    knots = np.asarray(knots, dtype=np.float64)
    n_bases = len(knots) - degree - 1
    lo = knots[degree]
    hi = knots[-degree - 1]
    eps = 1e-12 * max(1.0, abs(hi))
    xc = np.clip(x, lo, hi - eps if hi > lo else lo)

    n0 = len(knots) - 1
    basis = np.zeros((len(xc), n0))
    interval = np.clip(np.searchsorted(knots, xc, side="right") - 1, 0, n0 - 1)
    basis[np.arange(len(xc)), interval] = 1.0
    for d in range(1, degree + 1):
        n_d = n0 - d
        new = np.zeros((len(xc), n_d))
        for i in range(n_d):
            denom_l = knots[i + d] - knots[i]
            denom_r = knots[i + d + 1] - knots[i + 1]
            if denom_l > 0:
                new[:, i] += (xc - knots[i]) / denom_l * basis[:, i]
            if denom_r > 0:
                new[:, i] += (knots[i + d + 1] - xc) / denom_r * basis[:, i + 1]
        basis = new
    return basis[:, :n_bases]


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _probe_points(knots, lo, hi, interior):
    span = max(hi - lo, 1.0)
    return np.concatenate(
        [
            knots,
            [lo, hi, np.nextafter(hi, -np.inf), np.nextafter(lo, np.inf)],
            [lo - 1e6 * span, hi + 1e6 * span, -1e300, 1e300],
            lo + (hi - lo) * np.asarray(interior),
        ]
    )


# Domains: ordinary ranges, degenerate lo == hi, and offsets large enough
# (|lo| >> width) that the clamp leaves the supported interval and the
# local window overhangs the basis range.
_lows = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, 1.0, -3.5, 1e13, -2e12]),
)
_widths = st.one_of(
    st.just(0.0),
    st.floats(1e-9, 1e6),
    st.sampled_from([1e-3, 1.0, 0.1]),
)


class TestLocalDeBoorOracle:
    @given(
        lo=_lows,
        width=_widths,
        degree=st.integers(1, 3),
        extra=st.integers(1, 10),
        interior=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_dense_recursion(
        self, lo, width, degree, extra, interior
    ):
        hi = lo + width
        try:
            knots = uniform_knots(lo, hi, degree + extra, degree)
        except NumericsError:
            # Too narrow a domain at too large an offset for float64 to
            # hold distinct knots; uniform_knots refuses it.
            assume(False)
        x = _probe_points(knots, lo, hi, interior)
        _assert_bitwise(
            bspline_design(x, knots, degree), reference_design(x, knots, degree)
        )

    @given(
        lo=st.floats(-1e4, 1e4),
        width=st.floats(1e-3, 1e4),
        degree=st.integers(1, 3),
        extra=st.integers(1, 10),
        interior=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_inside_domain(self, lo, width, degree, extra, interior):
        hi = lo + width
        knots = uniform_knots(lo, hi, degree + extra, degree)
        x = np.concatenate([knots, lo + (hi - lo) * np.asarray(interior)])
        # The clamp moves points within eps of hi; scipy evaluates them
        # as they are, so compare strictly inside the supported interval.
        eps = 1e-12 * max(1.0, abs(knots[-degree - 1]))
        x = x[(x >= knots[degree]) & (x < knots[-degree - 1] - 2 * eps)]
        if x.size == 0:
            return
        expected = BSpline.design_matrix(x, knots, degree).toarray()
        np.testing.assert_allclose(
            bspline_design(x, knots, degree), expected, rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_degenerate_overhang_bitwise(self, degree):
        # lo == hi at a large offset: the widened domain is narrower than
        # the clamp's eps, so points land left of knots[degree].
        knots = uniform_knots(1e13, 1e13, degree + 4, degree)
        x = np.array([1e13, 1e13 - 5.0, 1e13 + 5.0, 0.0, -np.inf, np.inf])
        _assert_bitwise(
            bspline_design(x, knots, degree), reference_design(x, knots, degree)
        )

    @pytest.mark.parametrize("offset", [0.0, 1e13])
    def test_repeated_knots_bitwise(self, offset):
        # A clamped knot vector: zero-width spans at both ends.  At a large
        # offset the clamp's eps exceeds the domain, every point lands left
        # of knots[0], and the recursion meets those zero-width spans.
        knots = offset + np.array(
            [0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0]
        )
        x = offset + np.linspace(-0.5, 1.5, 81)
        _assert_bitwise(bspline_design(x, knots, 3), reference_design(x, knots, 3))

    def test_nan_rows_match_with_sanitizer_off(self):
        # Strict mode rejects NaN input (tests/core/test_numerics.py); with
        # the sanitizer off, a NaN row is NaN throughout, as in the dense
        # recursion, where NaN reaches every column.
        knots = uniform_knots(0.0, 1.0, 8, 3)
        x = np.array([0.25, np.nan, 0.75])
        mode = get_numerics_mode()
        set_numerics_mode("off")
        try:
            actual = bspline_design(x, knots, 3)
            expected = reference_design(x, knots, 3)
        finally:
            set_numerics_mode(mode)
        np.testing.assert_array_equal(actual, expected)
        assert np.isnan(actual[1]).all()
