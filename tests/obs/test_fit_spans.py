"""The GAM fit breakdown spans: ``gam.basis``, ``gam.gram``, ``gam.solve``.

They sit under ``gam.gcv`` (the logit refit path nests ``gam.gram`` and
``gam.solve`` in one ``gam.fit`` per lambda) and, being disjoint
sub-phases, never add up to more than their parent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gam import GAM, SplineTerm, TensorTerm
from repro.obs import disable_tracing, enable_tracing

SUB_SPANS = ("gam.basis", "gam.gram", "gam.solve")


def _data(link):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (400, 3))
    f = np.sin(6.0 * X[:, 0]) + X[:, 1] * X[:, 2]
    if link == "logit":
        y = (rng.uniform(size=len(f)) < 1.0 / (1.0 + np.exp(-2.0 * f))).astype(float)
    else:
        y = f + rng.normal(0.0, 0.1, len(f))
    return X, y


def _traced_gridsearch(link, n_lams):
    X, y = _data(link)
    gam = GAM([SplineTerm(0, 8), TensorTerm(1, 2, n_splines=5)], link=link)
    tracer = enable_tracing()
    try:
        gam.gridsearch(X, y, lam_grid=np.logspace(-2, 2, n_lams))
    finally:
        disable_tracing()
    return tracer.spans()


def _ancestors(span, by_id):
    names = []
    parent = by_id.get(span.parent_id)
    while parent is not None:
        names.append(parent.name)
        parent = by_id.get(parent.parent_id)
    return names


@pytest.mark.parametrize("link", ["identity", "logit"])
def test_sub_spans_nest_under_gcv_within_its_time(link):
    spans = _traced_gridsearch(link, n_lams=5)
    by_id = {s.span_id: s for s in spans}
    (gcv,) = [s for s in spans if s.name == "gam.gcv"]
    subs = [s for s in spans if s.name in SUB_SPANS]
    assert {s.name for s in subs} == set(SUB_SPANS)
    for sub in subs:
        assert "gam.gcv" in _ancestors(sub, by_id), sub.name
        assert not set(SUB_SPANS) & set(_ancestors(sub, by_id)), sub.name
    assert sum(s.duration_s for s in subs) <= gcv.duration_s


def test_logit_refit_builds_basis_once_and_fits_per_lambda():
    spans = _traced_gridsearch("logit", n_lams=5)
    by_id = {s.span_id: s for s in spans}
    fits = [s for s in spans if s.name == "gam.fit"]
    assert len(fits) == 5
    fit_ids = {s.span_id for s in fits}
    for span in spans:
        if span.name in ("gam.gram", "gam.solve"):
            assert span.parent_id in fit_ids
        if span.name == "gam.basis":
            assert by_id[span.parent_id].name == "gam.gcv"
    for fit in fits:
        children = [s for s in spans if s.parent_id == fit.span_id]
        assert sum(s.duration_s for s in children) <= fit.duration_s
