"""Shared pieces of the benchmark: statistics, host record, forests, traces.

Nothing here adds tracing to the program.  The per-layer numbers come from
the program's own ``repro.obs`` spans and counters, from its ``/metrics``
exposition, and from :class:`Probe`, which times calls into public entry
points from outside by wrapping them for the length of a traced phase.
"""

from __future__ import annotations

import os
import platform
import re
import resource
import threading
import time
from contextlib import contextmanager

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


#: Seed of every forest the workloads train.  The forests are fixed so
#: that the workload seed varies only the inputs sent to them.
FOREST_SEED = 0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


#: Independent seed streams derived from one workload seed.
OPS, SIDE, WARMUP = 0, 1, 2


def op_seed(seed: int, index: int, stream: int = OPS) -> int:
    """The seed of operation ``index`` of ``stream``, from the workload seed."""
    return int(
        np.random.SeedSequence([seed, stream, index]).generate_state(1)[0]
    )


def peak_rss_mb(pids=()) -> float:
    """Peak resident memory of this process plus each of ``pids``, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def host_record() -> dict:
    """The host facts a reader needs to compare two runs."""
    from repro.core.numerics import get_numerics_mode

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    threads = {
        var: os.environ[var]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads or f"library default ({os.cpu_count()})",
        "repro_numerics": get_numerics_mode(),
    }


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


# ----------------------------------------------------------------------
# forests
# ----------------------------------------------------------------------
def train_d_prime_forest():
    """The paper's D' GBDT, 200 trees x 32 leaves."""
    from repro.datasets import make_d_prime
    from repro.forest import GradientBoostingRegressor

    data = make_d_prime(n=10_000, seed=FOREST_SEED)
    forest = GradientBoostingRegressor(
        n_estimators=200, num_leaves=32, learning_rate=0.05,
        random_state=FOREST_SEED,
    )
    return forest.fit(data.X_train, data.y_train), data


def train_census_forest():
    """A GBDT classifier on the census-like data, 60 trees x 32 leaves."""
    from repro.datasets import load_census
    from repro.forest import GradientBoostingClassifier

    data = load_census(n=8_000, seed=FOREST_SEED)
    forest = GradientBoostingClassifier(
        n_estimators=60, num_leaves=32, learning_rate=0.15,
        random_state=FOREST_SEED,
    )
    return forest.fit(data.X_train, data.y_train), data


def swap_model_versions(count: int):
    """``count`` model versions for the swap workload: one small D' GBDT
    (60 trees x 16 leaves) and its truncations to fewer boosting stages,
    one tree fewer per version, each with a fingerprint of its own."""
    from repro.datasets import make_d_prime
    from repro.forest import (
        GradientBoostingRegressor,
        forest_from_dict,
        forest_to_dict,
    )

    data = make_d_prime(n=3_000, seed=FOREST_SEED)
    base = GradientBoostingRegressor(
        n_estimators=60, num_leaves=16, learning_rate=0.1,
        random_state=FOREST_SEED,
    ).fit(data.X_train, data.y_train)
    archive = forest_to_dict(base)
    return [
        forest_from_dict({**archive, "trees": archive["trees"][: 60 - v]})
        for v in range(count)
    ]


# ----------------------------------------------------------------------
# reading the program's traces and metrics
# ----------------------------------------------------------------------
class SpanTable:
    """Per-name totals over Chrome trace events (``dur`` in microseconds).

    Every query takes span names, an optional ``pid`` collection that
    restricts it to those process lanes, and span attributes to match.
    """

    def __init__(self, events):
        self.events = list(events)

    def _select(self, names, pid=None, **attrs):
        if isinstance(names, str):
            names = (names,)
        for event in self.events:
            if event.get("name") not in names:
                continue
            if pid is not None and event.get("pid", 1) not in pid:
                continue
            args = event.get("args", {})
            if all(args.get(k) == v for k, v in attrs.items()):
                yield event

    def count(self, names, pid=None, **attrs) -> int:
        return sum(1 for _ in self._select(names, pid, **attrs))

    def busy_s(self, names, pid=None, **attrs) -> float:
        return sum(
            float(e["dur"]) for e in self._select(names, pid, **attrs)
        ) / 1e6

    def mean_s(self, names, pid=None, **attrs) -> float:
        n = self.count(names, pid, **attrs)
        return self.busy_s(names, pid, **attrs) / n if n else 0.0


_PROM_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*) (\S+)$")


def parse_prometheus(text: str) -> dict[str, float]:
    """Unlabeled samples of a Prometheus text exposition, by name."""
    samples = {}
    for line in text.splitlines():
        match = _PROM_LINE.match(line)
        if match:
            samples[match.group(1)] = float(match.group(2))
    return samples


# ----------------------------------------------------------------------
# timing public entry points from outside
# ----------------------------------------------------------------------
_MISSING = object()


class Probe:
    """Times calls into public entry points by wrapping them in place.

    ``watch(owner, attr, label)`` replaces ``owner.attr`` with a wrapper
    that adds the wall time of each call to ``busy[label]`` and counts it
    in ``calls[label]``.  Leaving the :meth:`active` block restores every
    original attribute.
    """

    def __init__(self):
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def watch(self, owner, attr: str, label: str) -> None:
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.busy[label] = self.busy.get(label, 0.0) + elapsed
                    self.calls[label] = self.calls.get(label, 0) + 1

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, raw))

    @contextmanager
    def active(self):
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(self._patches):
                if raw is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)
            self._patches.clear()


def surrogate_probe() -> Probe:
    """A probe on ``GAM.predict_mu``, the surrogate's predict entry point,
    which the program has no span for."""
    from repro.gam import GAM

    probe = Probe()
    probe.watch(GAM, "predict_mu", "gam.predict")
    return probe
