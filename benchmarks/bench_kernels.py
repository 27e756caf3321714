"""A6 — Kernel backend layer: per-trial and batched SSA throughput.

The kernel layer (:mod:`repro.sim.kernels`) runs every SSA firing loop over
preallocated columnar buffers, chunked random blocks and compiled stopping
plans.  This harness times a full outcome-classification ensemble of the
Example-1 stochastic module (γ = 10³, scale 100, outcome declared after 10
working firings) on each array-kernel engine and backend:

* ``direct`` on the numpy reference backend and, when installed, numba;
* ``next-reaction`` — the :class:`ArrayHeap` port of the Gibson–Bruck queue;
* ``batch-direct`` — the interpreted numpy lock-step sweep and, when
  installed, the fully JIT-compiled numba sweep;

and checks that

* numpy ``direct`` runs at least :data:`NUMPY_DIRECT_FLOOR` trials/s at the
  full 10,000-trial size: 3× the retired object-level template's recorded
  throughput (836.2 trials/s in the last ``BENCH_kernels.json`` entry that
  had a template row), the acceptance bar the kernel layer was built
  against.  Smoke runs check
  the softer :data:`TEMPLATE_TRIALS_PER_S` (at least the template's speed);
* the JIT batch-direct sweep is ≥ 10× faster than the interpreted numpy
  batch-direct sweep at the full size (asserted only when numba is
  installed);
* every backend reproduces the programmed (0.3, 0.4, 0.3) distribution;
* seeded runs are bit-identical between the numpy and numba backends (when
  numba is available) and across worker counts.

The floors are absolute throughputs measured on one core of the machine
that recorded ``BENCH_kernels.json``; a much slower machine can miss them
without a regression in the code.

Full-size runs append to ``BENCH_kernels.json`` at the repository root so
the perf trajectory of the hot path is recorded across changes (smoke runs
skip the file — their numbers are not comparable and would dirty the tree
on every CI-style invocation).

Run directly for a wall-clock report (CI uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke] [--trials N]

or through pytest-benchmark with the other harnesses::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for `import _config` under direct run

import numpy as np

from _config import report, trials

from repro.analysis import format_table, total_variation
from repro.api import Experiment
from repro.core import synthesize_distribution
from repro.sim import EnsembleRunner, SimulationOptions, numba_available

TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
FULL_TRIALS = 10_000
SMOKE_TRIALS = 1_000
#: Throughput of the retired object-level template (``direct``, 10,000
#: trials), as last recorded in BENCH_kernels.json.
TEMPLATE_TRIALS_PER_S = 836.2
#: Full-size floor for numpy ``direct``: 3× the template's throughput.
NUMPY_DIRECT_FLOOR = 2509.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _runner(backend: str, engine: str = "direct") -> EnsembleRunner:
    """An Example-1 outcome ensemble, pinned to an engine and backend."""
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    return EnsembleRunner(
        system.network_with_inputs(None),
        engine=engine,
        stopping=system.stopping_condition(10),
        options=SimulationOptions(record_firings=False, backend=backend),
        outcome_classifier=system.classify_outcome,
    )


def _timed_row(engine: str, backend: str, n_trials: int, seed: int) -> dict[str, object]:
    """One warmed, timed ensemble run → a display/record row."""
    runner = _runner(backend, engine=engine)
    runner.run(min(200, n_trials), seed=seed + 1)  # warm caches / JIT
    start = time.perf_counter()
    result = runner.run(n_trials, seed=seed)
    elapsed = time.perf_counter() - start
    return {
        "backend": backend,
        "engine": engine,
        "trials": n_trials,
        "seconds": elapsed,
        "trials/s": n_trials / elapsed,
        "tv_vs_target": total_variation(result.outcome_distribution(), TARGET),
    }


def measure(n_trials: int, seed: int = 2007) -> list[dict[str, object]]:
    """Time the ensemble once per (engine, backend); one row each."""
    array_backends = ["numpy"] + (["numba"] if numba_available() else [])
    return [
        _timed_row(engine, backend, n_trials, seed)
        for engine in ("direct", "next-reaction", "batch-direct")
        for backend in array_backends
    ]


def check_determinism(n_trials: int = 400, seed: int = 97) -> dict[str, bool]:
    """Bit-identity of seeded runs across backends and worker counts."""
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    experiment = Experiment.from_system(system)
    checks: dict[str, bool] = {}

    numpy_1w = experiment.simulate(
        trials=n_trials, seed=seed, backend="numpy", workers=1, chunk_size=100
    )
    numpy_2w = experiment.simulate(
        trials=n_trials, seed=seed, backend="numpy", workers=2, chunk_size=100
    )
    checks["workers_invariant"] = bool(
        numpy_1w.ensemble.outcome_counts == numpy_2w.ensemble.outcome_counts
        and np.array_equal(numpy_1w.ensemble.final_counts, numpy_2w.ensemble.final_counts)
        and np.array_equal(numpy_1w.ensemble.final_times, numpy_2w.ensemble.final_times)
    )
    assert checks["workers_invariant"], "numpy backend results depend on worker count"

    if numba_available():
        numba_run = experiment.simulate(
            trials=n_trials, seed=seed, backend="numba", workers=1, chunk_size=100
        )
        checks["numba_bit_identical"] = bool(
            numpy_1w.ensemble.outcome_counts == numba_run.ensemble.outcome_counts
            and np.array_equal(
                numpy_1w.ensemble.final_counts, numba_run.ensemble.final_counts
            )
            and np.array_equal(
                numpy_1w.ensemble.final_times, numba_run.ensemble.final_times
            )
        )
        assert checks["numba_bit_identical"], "numpy and numba backends diverged"

    return checks


def record(rows, checks, n_trials: int) -> None:
    """Append this run to BENCH_kernels.json (the hot-path perf trajectory)."""
    history = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            history = []
    numpy_row = next(
        r for r in rows if r["backend"] == "numpy" and r["engine"] == "direct"
    )
    entry = {
        "benchmark": "bench_kernels",
        "trials": n_trials,
        "numba_available": numba_available(),
        "numpy_direct_trials_per_s": round(float(numpy_row["trials/s"]), 1),
        "numpy_direct_floor": NUMPY_DIRECT_FLOOR,
        "rows": [
            {
                "engine": r["engine"],
                "backend": r["backend"],
                "trials": int(r["trials"]),
                "seconds": round(float(r["seconds"]), 4),
                "trials_per_s": round(float(r["trials/s"]), 1),
                "tv_vs_target": round(float(r["tv_vs_target"]), 4),
            }
            for r in rows
        ],
        "determinism": checks,
    }
    history.append(entry)
    RESULT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def run_report(n_trials: int, full_assertions: bool) -> list[dict[str, object]]:
    """Measure, report, record and apply the acceptance checks."""
    rows = measure(n_trials)
    display = [
        {"path": f"{r['engine']} [{r['backend']}]", "trials": r["trials"],
         **{k: r[k] for k in ("seconds", "trials/s", "tv_vs_target")}}
        for r in rows
    ]
    report(
        f"A6: kernel backends ({n_trials} trials of the Example-1 module)",
        format_table(display, floatfmt="{:.3g}"),
    )
    for row in rows:
        assert row["tv_vs_target"] < 0.1, (
            f"{row['engine']}[{row['backend']}]: TV {row['tv_vs_target']:.3f}"
        )
    numpy_row = next(
        r for r in rows if r["backend"] == "numpy" and r["engine"] == "direct"
    )
    floor = NUMPY_DIRECT_FLOOR if full_assertions else TEMPLATE_TRIALS_PER_S
    assert numpy_row["trials/s"] >= floor, (
        f"numpy direct ran {numpy_row['trials/s']:.0f} trials/s < the "
        f"{floor:.0f} trials/s floor at {n_trials} trials"
    )
    if numba_available():
        # the acceptance bar for the JIT lock-step sweep: >= 10x over the
        # interpreted numpy batch-direct sweep on the same ensemble.
        bd_numpy = next(
            r for r in rows if r["engine"] == "batch-direct" and r["backend"] == "numpy"
        )
        bd_numba = next(
            r for r in rows if r["engine"] == "batch-direct" and r["backend"] == "numba"
        )
        jit_speedup = bd_numpy["seconds"] / bd_numba["seconds"]
        if full_assertions:
            assert jit_speedup >= 10.0, (
                f"JIT batch-direct speedup {jit_speedup:.2f}x < 10x over the "
                f"interpreted numpy sweep at {n_trials} trials"
            )
        else:
            assert jit_speedup > 1.0, (
                f"JIT batch-direct slower than the interpreted numpy sweep "
                f"({jit_speedup:.2f}x)"
            )
    checks = check_determinism()
    if full_assertions:
        record(rows, checks, n_trials)
    return rows


def test_kernel_backend_speedup(benchmark):
    """pytest-benchmark entry point (full-size unless REPRO_TRIALS shrinks it)."""
    n_trials = max(trials(10.0, minimum=FULL_TRIALS // 10), SMOKE_TRIALS)
    rows = benchmark.pedantic(
        run_report, args=(n_trials, n_trials >= FULL_TRIALS), rounds=1, iterations=1
    )
    benchmark.extra_info["rows"] = rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=None,
                        help=f"ensemble size (default {FULL_TRIALS})")
    parser.add_argument("--smoke", "--quick", dest="smoke", action="store_true",
                        help=f"CI smoke mode: {SMOKE_TRIALS} trials, soft throughput floor")
    args = parser.parse_args(argv)
    n_trials = args.trials or (SMOKE_TRIALS if args.smoke else FULL_TRIALS)
    run_report(n_trials, full_assertions=not args.smoke and n_trials >= FULL_TRIALS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
