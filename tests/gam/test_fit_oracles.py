"""Fit-level oracles: closed forms and fresh-fit references for the GAM.

The fit builds each term's basis once and reuses the design blocks across
PIRLS iterations and lambda candidates; these tests pin what that reuse
must not change.
"""

import numpy as np
import pytest

import repro.gam.terms as terms_module
from repro.gam import GAM, SplineTerm, TensorTerm


def _data(n=240, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 2.0, (n, 3))
    f = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.3 * X[:, 0] * X[:, 2]
    return X, f, rng


def _terms():
    return [SplineTerm(0, 8), SplineTerm(1, 6), TensorTerm(0, 2, n_splines=5)]


def _dense_design(gam, X):
    return np.hstack([term.design(X) for term in gam.terms])


class TestIdentityClosedForm:
    def test_coefficients_match_penalized_least_squares(self):
        X, f, rng = _data()
        y = f + rng.normal(0.0, 0.1, len(f))
        # A visible ridge makes every coefficient well determined, so the
        # comparison can be on coefficients, not just fitted values.
        gam = GAM(_terms(), lam=0.7, ridge=1e-3).fit(X, y)
        D = _dense_design(gam, X)
        S = gam.penalty_matrix()
        beta = np.linalg.solve(D.T @ D + S, D.T @ y)
        np.testing.assert_allclose(gam.coef_, beta, rtol=1e-9, atol=1e-10)

    def test_fitted_values_match_at_default_ridge(self):
        X, f, rng = _data(seed=1)
        y = f + rng.normal(0.0, 0.1, len(f))
        gam = GAM(_terms(), lam=0.3).fit(X, y)
        D = _dense_design(gam, X)
        beta = np.linalg.solve(D.T @ D + gam.penalty_matrix(), D.T @ y)
        np.testing.assert_allclose(gam.predict(X), D @ beta, rtol=0, atol=1e-8)

    def test_chunked_design_matches_single_block(self):
        X, f, rng = _data(seed=2)
        y = f + rng.normal(0.0, 0.1, len(f))
        whole = GAM(_terms(), lam=0.5).fit(X, y)
        chunked = GAM(_terms(), lam=0.5, chunk_size=37).fit(X, y)
        np.testing.assert_allclose(chunked.predict(X), whole.predict(X), atol=1e-10)


class TestGcvEdofOracle:
    @pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
    def test_edof_is_trace_of_explicit_hat_matrix(self, lam):
        X, f, rng = _data(seed=3)
        y = f + rng.normal(0.0, 0.1, len(f))
        # The default 1e-8 ridge leaves the centered bases' constant
        # directions nearly singular; a visible ridge keeps the explicit
        # inverse accurate enough for a tight comparison.
        gam = GAM(_terms(), ridge=1e-3).gridsearch(X, y, lam_grid=np.array([lam]))
        D = _dense_design(gam, X)
        hat = D @ np.linalg.solve(D.T @ D + gam.penalty_matrix(), D.T)
        n = len(y)
        edof = np.trace(hat)
        rss = float(np.sum((y - hat @ y) ** 2))
        assert gam.statistics_["edof"] == pytest.approx(edof, rel=1e-9)
        assert gam.statistics_["GCV"] == pytest.approx(
            n * rss / (n - edof) ** 2, rel=1e-9
        )


class TestLogitGridsearchReference:
    GRID = np.logspace(-2, 2, 5)

    def test_bitwise_equal_to_fresh_fit_per_lambda(self):
        X, f, rng = _data(n=300, seed=4)
        y = (rng.uniform(size=len(f)) < 1.0 / (1.0 + np.exp(-f + 1.0))).astype(float)
        searched = GAM(_terms(), link="logit").gridsearch(X, y, lam_grid=self.GRID)

        lam_path = []
        best = None
        for lam in self.GRID:
            fresh = GAM(_terms(), link="logit", lam=float(lam)).fit(X, y)
            gcv = fresh.statistics_["GCV"]
            lam_path.append((float(lam), gcv))
            if best is None or gcv < best.statistics_["GCV"]:
                best = fresh

        assert searched.statistics_["lam_path"] == lam_path
        assert searched.lam == best.lam
        assert searched.coef_.tobytes() == best.coef_.tobytes()
        stats = dict(searched.statistics_)
        stats.pop("lam_path")
        assert stats.keys() == best.statistics_.keys()
        for key, value in best.statistics_.items():
            if isinstance(value, np.ndarray):
                assert stats[key].tobytes() == value.tobytes(), key
            else:
                assert stats[key] == value, key


class TestBasisBuiltOncePerFit:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = terms_module.bspline_design

        def spy(x, knots, degree=3):
            calls.append(len(np.ravel(x)))
            return real(x, knots, degree)

        monkeypatch.setattr(terms_module, "bspline_design", spy)
        return calls

    @pytest.mark.parametrize("n_lams", [5, 13])
    def test_logit_gridsearch_calls_independent_of_grid(self, counted, n_lams):
        X, f, rng = _data(n=300, seed=5)
        y = (rng.uniform(size=len(f)) < 1.0 / (1.0 + np.exp(-f))).astype(float)
        gam = GAM(_terms(), link="logit")
        gam.gridsearch(X, y, lam_grid=np.logspace(-2, 2, n_lams))
        # Two spline marginals plus the tensor's two: one evaluation for
        # the centering means and one for the design, on the training rows.
        marginals = 4
        assert len(counted) == 2 * marginals
        assert all(rows == len(X) for rows in counted)
