"""The repository benchmark: explain and serve workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explain_reg --seed 1 --seconds 24 --trace 0

``--trace 0`` runs the workload as users run it, with ``repro.obs``
tracing and metrics off, and reports every end-to-end metric named in
``BENCHMARK.json``.  ``--trace 1`` turns them on for a separate run and
reports every per-layer metric instead (see :mod:`layers`), plus the
tracing overhead against an untraced reference phase of the same run.
The program is imported from ``src/`` of the checkout and gets only the
inputs the benchmark generates from ``--seed``.

Every workload reports the same end-to-end metrics: the lower-quartile
latency of its main operation (``p25_ms``) and a capacity figure
(``rate_per_s``):

=============  =============================  ===================================
workload       main operation (``p25_ms``)    ``rate_per_s``
=============  =============================  ===================================
explain_reg    one ``GEF.explain`` call       explain calls per second
explain_logit  one ``GEF.explain`` call       explain calls per second
serve_predict  ``/predict`` at 50 req/s       saturation rate of keep-alive clients
serve_swap     ``/predict`` beside hot swaps  1 / median swap time
=============  =============================  ===================================

``serve_swap`` is not listed in ``BENCHMARK.json``: its check that every
``/predict`` answer matches the forest whose fingerprint it names fails
in some runs.  A hot swap publishes the new registry entry before the
new micro-batcher (``ServeApp.add_model``, and ``install_shared_model``
in fleet workers), so a request arriving in between is answered by the
old forest under the new fingerprint.

Medians, tail latencies and the second operation of each workload
(surrogate predictions after each explain call, ``/predict`` at 20 req/s,
surrogate reads beside swaps) are reported on the detail line only: on a
shared 2-CPU host, where other tenants slow a share of the operations
that varies from minute to minute, their spread from run to run was
larger than any bound a regression gate could use.

Every run also reports ``setup_s`` (the median of several set-ups, each
training the forests, packing the engines, starting the server or fleet
and warming up), ``peak_rss_mb`` (this process plus any fleet workers)
and ``ok_ratio`` (operations answered over operations attempted).  The
line before the result carries the host record and the figures under
the names the workloads were specified with (``explain_p50_s``,
``fidelity_r2``, ``predict_heavy.p99_ms``, ``swap_s``, ...).

BLAS libraries run one thread per process unless ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set (see :func:`main`).

Correctness checks run in the same command; a failed check prints a
result with ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

WORKLOADS = ("explain_reg", "explain_logit", "serve_predict", "serve_swap")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args, root: Path):
    import explain_bench
    import serve_bench

    if args.workload in explain_bench.SPECS:
        return explain_bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    if args.workload == "serve_predict":
        return serve_bench.run_predict(args.seed, args.seconds, bool(args.trace))
    workdir = serve_bench.make_workdir(root)
    try:
        return serve_bench.run_swap(
            args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        serve_bench.remove_workdir(workdir)


def _reap_children() -> None:
    """Wait for every child process the program started, and stop the
    resource tracker that ``multiprocessing`` starts beside a fleet of
    spawned workers: it would otherwise outlive the benchmark."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no program to measure: {root / 'src' / 'repro'} is missing; "
            f"run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # One BLAS thread per process unless the caller chose otherwise, set
    # before numpy loads.  With the library default (a thread per CPU) an
    # explain call slowed down sevenfold on a 2-CPU host while one other
    # process was busy, and the serve workloads always run several
    # processes side by side.  The host record reports the setting.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(root / "src"))
    import common

    catalogue = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in catalogue}
    try:
        attempted, failed, values, detail = _run(args, root)
    except common.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        _reap_children()
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, extra "
            f"{sorted(set(values) - set(units))}"
        )
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": common.host_record(),
                      "detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
