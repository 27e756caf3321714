"""The Example-1 ensemble workloads, run in a fresh interpreter by ``run.py``.

Example 1 of the paper programs the outcome distribution (0.3, 0.4, 0.3) at
gamma = 1e3 and declares an outcome after 10 working firings.  Each
operation of the closed loop (one caller, next call after the previous one
returns) is:

* a *miss*: ``Experiment.simulate(engine=..., trials=..., workers=1)`` on a
  new seed, classified by the design's own ``classify_outcome``;
* followed by ``HITS_PER_MISS`` *hits*: the design asked again with
  ``store=`` for one of the ``HIT_SIZES`` ensembles stored before the
  window, answered from the result store without simulating.

Hits come in several sizes because a hit of one fixed size takes one of two
durations, about 1.5x apart, depending on how busy the shared host is at
that moment.  The median of such hits jumps from one to the other when a run
spends about half its time in each state: over ten runs of one 20,000-trial
size its quartiles lay a third of the median apart.  Sizes spread over 4x
make the hit latencies a continuum, whose median follows the host's speed
in proportion, as a mean does.  Both workloads use the same sizes: on
``example1-direct`` a hit of a few hundred trials costs about the same as
one of a thousand, so sizes relative to its 4,000-trial miss would not
spread.

Modes: ``probe`` builds the design and returns a first small result, so the
parent can time process start to first result; ``run`` measures for
``--seconds``; ``trace`` measures half the time untraced, then installs the
layer wrappers and measures the other half, the first ``--prefix``
misses of which give the per-layer figures.  The last stdout line is
one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import time

import common
import measure

TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
PROBE_TRIALS = 64
#: Hits follow each miss as one group: four rounds, each a seeded permutation
#: of the stored sizes, so every size is asked for equally often.
HITS_PER_MISS = 32
#: Trial counts of the stored ensembles the hits ask for: 1,250 to 5,000 in
#: eight geometric steps.
HIT_SIZES = tuple(round(1250 * 4 ** (k / 7)) for k in range(8))
SCHEDULE_LENGTH = 10_000


def build_experiment():
    from repro import synthesize_distribution
    from repro.api import Experiment

    return Experiment.from_system(synthesize_distribution(TARGET, gamma=1e3, scale=100))


def schedule(seed: int) -> "tuple[int, list[int]]":
    """The stored entries' seed and the miss seeds, all drawn from ``seed``."""
    rng = random.Random(f"example1:{seed}")
    stored = rng.getrandbits(31)
    return stored, [rng.getrandbits(31) for _ in range(SCHEDULE_LENGTH)]


def check_ensemble(label: str, result, n_trials: int) -> list[str]:
    """Failures of one Example-1 ensemble of ``n_trials`` requested trials.

    Every trial must decide (Example 1 always reaches its 10 working
    firings), and the total variation over all requested trials, undecided
    ones counted as an outcome of their own, must stay within
    :func:`measure.tv_bound`.
    """
    failures = []
    decided = result.decided_fraction()
    if decided < 1.0:
        failures.append(f"{label}: only {decided:.4f} of the trials decided")
    tv = measure.total_variation(result.ensemble.outcome_counts, n_trials, TARGET)
    bound = measure.tv_bound(TARGET, n_trials)
    if not tv <= bound:
        failures.append(f"{label}: total variation {tv:.4f} above {bound:.4f}")
    return failures


def result_digest(result) -> str:
    """SHA-256 over a result's fields, with the per-trial arrays hashed as bytes.

    Cheap enough to check every hit: ``to_payload`` would turn the per-trial
    arrays into Python lists on every call, which costs about as much as the
    hit itself.  Comparing digests rather than results keeps no per-trial
    objects alive between operations, where they would slow the garbage
    collector and with it the next ensemble.
    """
    ensemble = result.ensemble
    fields = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "ensemble"
    }
    summary = [fields, ensemble.n_trials, dict(ensemble.outcome_counts),
               [species.name for species in ensemble.species]]
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True, default=repr).encode("utf-8"))
    for array in (ensemble.final_counts, ensemble.final_times, ensemble.n_firings):
        digest.update(array.tobytes())
    return digest.hexdigest()


def run_phase(experiment, args, seeds, store, stored_seed, stored_digests, seconds, prefix=0):
    """Closed loop for ``seconds`` (and at least ``prefix`` misses).

    ``stored_digests`` maps each stored size to its result's digest.

    ``windows`` holds the start and end of each of the first ``prefix``
    misses: the per-layer figures cover those ensembles and not the hits
    between them, so a layer's ``share`` bounds the gain in ``trials_per_s``.
    """
    ops: list[list] = []
    failures: list[str] = []
    digests: list[str] = []
    first_sha256 = None
    firings = 0
    windows: list[list[float]] = []
    hit_order = random.Random(f"example1-hits:{args.seed}")
    start = time.monotonic()
    i = 0
    while i < prefix or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        result = experiment.simulate(
            engine=args.engine, trials=args.trials, workers=1, seed=seeds[i]
        )
        t1 = time.monotonic()
        ops.append(["miss", t1 - t0, args.trials])
        if i < prefix:
            windows.append([t0, t1])
        failures += check_ensemble(f"ensemble {i}", result, args.trials)
        if i == 0:
            first_sha256 = common.payload_sha256(result.to_payload())
        if args.mode == "trace":
            digests.append(result_digest(result))
        if i < prefix:
            firings += int(result.ensemble.n_firings.sum())
        del result
        group = [
            size for _ in range(HITS_PER_MISS // len(HIT_SIZES))
            for size in hit_order.sample(HIT_SIZES, len(HIT_SIZES))
        ]
        for size in group:
            t0 = time.monotonic()
            hit = experiment.simulate(
                engine=args.engine, trials=size, workers=1, seed=stored_seed, store=store
            )
            ops.append(["hit", time.monotonic() - t0, size])
            if result_digest(hit) != stored_digests[size]:
                failures.append(f"ensemble {i}: store hit differs from the stored result")
        i += 1
    return {
        "ops": ops,
        "failures": failures,
        "digests": digests,
        "first_sha256": first_sha256,
        "firings": firings,
        "windows": windows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--engine", required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--prefix", type=int, default=0)
    parser.add_argument("--store", help="result-store directory (run, trace)")
    parser.add_argument("--spans", help="span output file (trace)")
    args = parser.parse_args(argv)
    common.use_source()

    experiment = build_experiment()
    if args.mode == "probe":
        experiment.simulate(engine=args.engine, trials=PROBE_TRIALS, workers=1, seed=args.seed)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    from repro.store import ResultStore

    store = ResultStore(args.store)
    stored_seed, seeds = schedule(args.seed)
    failures = []
    stored_digests = {}
    for size in HIT_SIZES:
        stored = experiment.simulate(
            engine=args.engine, trials=size, workers=1, seed=stored_seed, store=store
        )
        failures += check_ensemble(f"stored ensemble of {size}", stored, size)
        stored_digests[size] = result_digest(stored)
        del stored

    report = {"env": common.env_record(), "failures": failures}
    if args.mode == "run":
        report["run"] = run_phase(
            experiment, args, seeds, store, stored_seed, stored_digests, args.seconds
        )
    else:
        from tracing import Tracer

        half = args.seconds / 2.0
        report["untraced"] = run_phase(
            experiment, args, seeds, store, stored_seed, stored_digests, half
        )
        tracer = Tracer()
        tracer.install()
        report["traced"] = run_phase(
            experiment, args, seeds, store, stored_seed, stored_digests, half, prefix=args.prefix
        )
        tracer.dump(args.spans)
    report["peak_rss_mb"] = common.own_peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
