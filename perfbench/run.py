"""The repository benchmark: three workloads through the public user paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload example1-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures half the time untraced and half with the layer
wrappers of ``tracing.py`` installed, and reports the per-layer metrics of a
fixed part of the seeded schedule plus the tracing overhead.  Report
lines come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
correctness check makes the exit code 1.  See README.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import common
import measure
import tracing

#: Example-1 ensembles: engine, trials per ensemble, traced prefix length.
ENSEMBLES = {
    "example1-batch": {"engine": "batch-direct", "trials": 20_000, "prefix": 2},
    "example1-direct": {"engine": "direct", "trials": 4_000, "prefix": 3},
}
WORKLOADS = (*ENSEMBLES, "serve-zoo")
#: serve-zoo schedule indices whose requests give the per-layer figures.  At
#: 540 the store holds 174 results (12 warm-up, 162 new), more than its
#: 128-entry hot tier, so hits in the window also read gzip files and every
#: put rewrites a grown index.
SERVE_WINDOW = (540, 780)

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("hit_latency_p50_ms", "ms"),
    ("hit_latency_p90_ms", "ms"),
    ("miss_latency_p50_ms", "ms"),
    ("miss_latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

COUNTS = (
    ("sim.firings", "count"),
    ("store.bytes_written", "bytes"),
    ("store.artifacts", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("service.transport_s", "s"),
    ("trace.overhead_share", "ratio"),
)

PER_LAYER = tuple(
    (f"{layer}.{field}", unit)
    for layer in tracing.LAYER_NAMES
    for field, unit in tracing.LAYER_FIELDS
) + COUNTS


# -- example1-* ------------------------------------------------------------------


def worker(spec: dict, mode: str, seed: int, *extra: str) -> dict:
    command = [
        sys.executable, str(common.HERE / "ensemble_worker.py"), "--mode", mode,
        "--engine", spec["engine"], "--trials", str(spec["trials"]), "--seed", str(seed),
        *extra,
    ]
    completed = subprocess.run(
        command, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
        text=True, timeout=common.CHILD_TIMEOUT_S, check=True,
    )
    return common.last_json_line(completed.stdout)


def ensemble_setup(spec: dict, seed: int) -> float:
    """Process start to first result of a fresh workload process."""
    started = time.monotonic()
    return worker(spec, "probe", seed)["ready"] - started


def ensemble_e2e(phase: dict) -> dict:
    misses = [op for op in phase["ops"] if op[0] == "miss"]
    return {
        "records": len(phase["ops"]),
        "trials_per_s": sum(op[2] for op in misses) / sum(op[1] for op in misses),
        "requests_per_s": len(phase["ops"]) / sum(op[1] for op in phase["ops"]),
        "hit_latency_ms": [op[1] * 1e3 for op in phase["ops"] if op[0] == "hit"],
        "miss_latency_ms": [op[1] * 1e3 for op in misses],
    }


def run_ensemble(name: str, seed: int, seconds: float) -> dict:
    spec = ENSEMBLES[name]
    setups = [ensemble_setup(spec, seed) for _ in range(common.SETUP_STARTS)]
    work = common.run_dir()
    try:
        report = worker(spec, "run", seed, "--seconds", str(seconds),
                        "--store", str(work / "store"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    phase = report["run"]
    return {
        "env": report["env"],
        "setup_s": setups,
        "peak_rss_mb": report["peak_rss_mb"],
        "failures": report["failures"] + phase["failures"],
        "first_sha256": phase["first_sha256"],
        **ensemble_e2e(phase),
    }


def trace_ensemble(name: str, seed: int, seconds: float) -> dict:
    spec = ENSEMBLES[name]
    work = common.run_dir()
    try:
        spans_path = str(work / "spans.json")
        report = worker(spec, "trace", seed, "--seconds", str(seconds),
                        "--prefix", str(spec["prefix"]), "--store", str(work / "store"),
                        "--spans", spans_path)
        spans = tracing.load_spans(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    untraced, traced = report["untraced"], report["traced"]
    failures = report["failures"] + untraced["failures"] + traced["failures"]
    both = min(len(untraced["digests"]), len(traced["digests"]))
    if untraced["digests"][:both] != traced["digests"][:both]:
        failures.append("traced ensembles differ from untraced ones on the same seeds")
    window = [
        span for start, end in traced["windows"] for span in tracing.within(spans, start, end)
    ]
    layers = tracing.layer_metrics([window], root="api.experiment.simulate")
    # The window holds misses only: the store and the service are idle in it.
    layers.update({
        "sim.firings": traced["firings"],
        "store.bytes_written": 0,
        "store.artifacts": 0,
        "store.hits": 0,
        "store.misses": 0,
        "store.hit_ratio": 0.0,
        "service.transport_s": 0.0,
    })
    return {
        "env": report["env"],
        "failures": failures,
        "attempted": len(untraced["ops"]) + len(traced["ops"]),
        "first_sha256": traced["first_sha256"],
        "layers": layers,
        "untraced": {**ensemble_e2e(untraced), "latencies": dict(enumerate(
            op[1] for op in untraced["ops"]))},
        "traced": {**ensemble_e2e(traced), "latencies": dict(enumerate(
            op[1] for op in traced["ops"]))},
    }


# -- reporting -------------------------------------------------------------------


def overhead_share(untraced: dict, traced: dict) -> float:
    """Traced over untraced time for the operations both phases completed, minus 1."""
    both = sorted(set(untraced) & set(traced))
    return measure.share(sum(traced[i] for i in both), sum(untraced[i] for i in both)) - 1.0


def e2e_values(result: dict) -> "dict[str, tuple[float, int]]":
    """Each end-to-end metric as (value, sample count).

    A latency metric with no samples (every request of its kind failed) is
    left out; the run is then reported as incorrect anyway.
    """
    values = {}
    for kind in ("hit", "miss"):
        samples = result[f"{kind}_latency_ms"]
        if samples:
            for q in (50, 90):
                values[f"{kind}_latency_p{q}_ms"] = (measure.percentile(samples, q), len(samples))
    values["trials_per_s"] = (result["trials_per_s"], result["records"])
    values["requests_per_s"] = (result["requests_per_s"], result["records"])
    if "setup_s" in result:
        values["setup_s"] = (statistics.median(result["setup_s"]), len(result["setup_s"]))
        values["peak_rss_mb"] = (result["peak_rss_mb"], 1)
    return values


def print_e2e(title: str, values: dict, result: dict) -> None:
    print(f"# {title}")
    for name, unit in END_TO_END:
        if name in values:
            value, count = values[name]
            print(f"  {name:<22} {value:>14.4f} {unit:<6} n={count}")
        elif name.endswith("_ms"):
            print(f"  {name:<22} {'-':>14} {unit:<6} n=0")
    for kind in ("hit", "miss"):
        tail = measure.tail_report(result[f"{kind}_latency_ms"])
        if tail is None:
            print(f"  {kind}_latency tail      (fewer than 20 samples; no tail figure)")
        else:
            print(f"  {kind}_latency_p{tail['percentile']:g}_ms"
                  f" {tail['value']:>14.4f} ms     n={tail['samples']} (reported only)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not common.source_present():
        print(f"perfbench: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    common.use_source()
    common.pin_to_one_cpu()
    # Compile the sources once, so no timed process start pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(common.SRC)],
                   check=True, stdout=subprocess.DEVNULL, timeout=common.CHILD_TIMEOUT_S)

    import serve_zoo

    if args.trace:
        if args.workload == "serve-zoo":
            result = serve_zoo.trace(args.seed, args.seconds, SERVE_WINDOW)
        else:
            result = trace_ensemble(args.workload, args.seed, args.seconds)
        result["layers"]["trace.overhead_share"] = overhead_share(
            result["untraced"]["latencies"], result["traced"]["latencies"]
        )
    elif args.workload == "serve-zoo":
        result = serve_zoo.run(args.seed, args.seconds)
    else:
        result = run_ensemble(args.workload, args.seed, args.seconds)
    return report(args, result)


def report(args: argparse.Namespace, result: dict) -> int:
    """Print the report and the final JSON line; the exit code (1 on any failure)."""
    failures = result["failures"]
    attempted = result["attempted"] if args.trace else result["records"]
    failed = min(len(failures), attempted)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    print(f"# environment {json.dumps(result['env'], sort_keys=True)}")
    print(f"# first result payload sha256 {result['first_sha256']}")
    if args.trace:
        for phase in ("untraced", "traced"):
            print_e2e(f"end to end, {phase} half", e2e_values(result[phase]), result[phase])
        print("# per layer (a fixed part of the seeded schedule, traced)")
        for name, unit in PER_LAYER:
            print(f"  {name:<48} {result['layers'][name]:>16.6f} {unit}")
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = e2e_values(result)
        values["success_ratio"] = (1.0 - measure.share(failed, attempted), attempted)
        print_e2e("end to end", values, result)
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit in END_TO_END if name in values}
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
