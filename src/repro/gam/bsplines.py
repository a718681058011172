"""B-spline bases and difference penalties (the P-spline machinery).

GEF fits its surrogate with penalized B-splines: third-order spline terms
with a fixed number of basis functions per feature, smoothed by a
second-order difference penalty on the coefficients (Eilers & Marx
P-splines, the same construction PyGAM uses).

The basis here uses uniformly spaced knots extended ``degree`` intervals
beyond each end of the feature domain, so the basis forms a partition of
unity on the whole domain.  Evaluation outside the domain clamps to the
boundary, giving constant extrapolation — the safe choice for a surrogate
queried slightly outside the sampled region.

:func:`bspline_design` evaluates the basis by local de Boor, computing only
the ``degree + 1`` nonzeros of each row.
"""

from __future__ import annotations

import numpy as np

from ..core.numerics import (
    assert_all_finite,
    assert_psd_diagonal,
    assert_strictly_increasing,
    numerics_guard,
)

__all__ = ["uniform_knots", "bspline_design", "difference_penalty"]


def uniform_knots(lo: float, hi: float, n_splines: int, degree: int = 3) -> np.ndarray:
    """Uniform (unclamped) knot vector supporting ``n_splines`` bases.

    Produces ``n_splines + degree + 1`` knots: the domain ``[lo, hi]`` is cut
    into ``n_splines - degree`` equal intervals and extended ``degree``
    intervals past each boundary.
    """
    if n_splines <= degree:
        raise ValueError(f"n_splines must exceed degree ({degree}), got {n_splines}")
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError("domain bounds must be finite")
    if hi <= lo:
        # Degenerate (constant) feature: widen artificially so the basis
        # is well defined; all evaluations clamp to the same point anyway.
        hi = lo + 1.0
    n_interior = n_splines - degree
    step = (hi - lo) / n_interior
    knots = lo + step * np.arange(-degree, n_interior + degree + 1)
    assert_strictly_increasing(knots, "uniform_knots")
    return knots


def bspline_design(
    x: np.ndarray, knots: np.ndarray, degree: int = 3
) -> np.ndarray:
    """Dense design matrix of B-spline basis functions evaluated at ``x``.

    Local de Boor: the Cox–de Boor recursion runs only on the
    ``degree + 1`` bases that are nonzero on each row's knot interval,
    with the full recursion's floating-point operations in its order, so
    the design is bitwise equal to it.  Inputs are clamped to the
    knot-supported domain, which yields constant extrapolation of the
    fitted spline beyond it.

    Returns an ``(len(x), len(knots) - degree - 1)`` array whose rows sum to
    one (partition of unity).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    knots = np.asarray(knots, dtype=np.float64)
    n_bases = len(knots) - degree - 1
    if n_bases < 1:
        raise ValueError("knot vector too short for the requested degree")

    # Clamp into the fully supported interval [knots[degree], knots[-degree-1]).
    lo = knots[degree]
    hi = knots[-degree - 1]
    eps = 1e-12 * max(1.0, abs(hi))
    xc = np.clip(x, lo, hi - eps if hi > lo else lo)
    n = len(xc)

    # Degree 0: the indicator of each row's half-open knot interval k.
    n0 = len(knots) - 1
    interval = np.clip(np.searchsorted(knots, xc, side="right") - 1, 0, n0 - 1)

    # Window row j at degree d is basis k - d + j; its two Cox–de Boor
    # denominators are both ``tr - tl``.  Padding the knots keeps windows
    # that overhang the basis range (degenerate clamps) on real indices.
    # A zero-width span divides to zero where the full recursion skips
    # it, and adding onto zeros, as it does, keeps even the zero signs.
    padded = np.concatenate(
        [np.full(degree, knots[0]), knots, np.full(degree, knots[-1])]
    )
    window = padded[interval + np.arange(1, 2 * degree + 1)[:, None]]
    local = np.ones((1, n))
    with numerics_guard("bspline_design (Cox-de Boor recursion)"):
        for d in range(1, degree + 1):
            tl = window[degree - d : degree]
            tr = window[degree : degree + d]
            width = tr - tl
            width[width <= 0] = np.inf
            new = np.zeros((d + 1, n))
            new[1:] += (xc - tl) / width * local
            new[:-1] += (tr - xc) / width * local
            local = new

    # Scatter into the dense design, dropping overhang columns.
    cols = interval - degree + np.arange(degree + 1)[:, None]
    flat = cols + np.arange(0, n * n_bases, n_bases)
    inside = (cols >= 0) & (cols < n_bases)
    if not inside.all():
        flat, local = flat[inside], local[inside]
    basis = np.zeros((n, n_bases))
    basis.reshape(-1)[flat] = local
    nan_rows = np.isnan(xc)
    if nan_rows.any():
        basis[nan_rows] = np.nan
    assert_all_finite(basis, "bspline_design")
    return basis


def difference_penalty(n_coefs: int, order: int = 2) -> np.ndarray:
    """P-spline penalty ``D'D`` with ``order``-th differences ``D``.

    Penalizes the squared ``order``-th finite differences of adjacent spline
    coefficients — the discrete analogue of the integrated squared
    ``order``-th derivative in the paper's GAM cost function.
    """
    if n_coefs < 1:
        raise ValueError("n_coefs must be positive")
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_coefs <= order:
        return np.zeros((n_coefs, n_coefs))
    d = np.diff(np.eye(n_coefs), n=order, axis=0)
    penalty = d.T @ d
    assert_psd_diagonal(penalty, "difference_penalty")
    return penalty
