"""The ``serve-zoo`` workload: one closed-loop client against ``repro serve``.

Shape: one ``repro serve --port 0`` subprocess on a fresh store, and one
client in this process that sends its next ``ServiceClient.simulate_entry``
only after the previous reply arrived (a closed loop: no arrival schedule,
so a slower server receives less load).  Requests cover the conformance
corpus (``repro.zoo.corpus.corpus_entries()``) on ``batch-direct`` at
``TRIALS`` trials.

One client, not one per core: with two, most hits ran on the server beside
a miss and waited for it on the interpreter lock, so the hit percentiles
measured how requests happened to overlap, and swung by about 30% between
runs.  ``run.py`` keeps the client and the server on one CPU, so each
request passes between them without waking the other core.

A seeded schedule fixes the request sequence: 30% of requests carry a new
seed (a cache miss: the server simulates and stores the result), the rest
repeat an earlier new request, uniformly over all of them (a hit).  A third
of the repeats send an ``Experiment.renamed`` copy, which must hit the same
content key.  Because repeats draw from every earlier
key, the key set soon outgrows the store's 128-entry in-process tier and
hits also read gzip files from disk.  Requests go out in schedule order, so
which requests hit is fixed by the seed.
"""

from __future__ import annotations

import inspect
import random
import select
import shutil
import subprocess
import sys
import time
from typing import NamedTuple

import common
import measure
import tracing

TRIALS = 500
ENGINE = "batch-direct"
#: New requests (misses) per block of requests: 30% new, 70% repeats.
BLOCK = 10
NEW_PER_BLOCK = 3
RENAMED_EVERY = 3
SCHEDULE_LENGTH = 20_000
REQUEST_TIMEOUT_S = 60.0
#: Schedule seeds start here; warm-up seeds lie below, so they never collide.
SCHEDULE_SEED_FLOOR = 1 << 20
#: Corpus models whose misses compute several times longer than any other's
#: (birth-death, a gambler's-ruin walk: about 0.2 s per 500-trial miss against
#: 25-45 ms end to end for the rest).  They take part in one round of new
#: requests in every ``HEAVY_EVERY``: with an equal share (1/12 of the
#: misses) the 90th percentile of miss latency fell on the gap between them
#: and the other models and swung from run to run with a handful of samples.
HEAVY_MODELS = ("birth-death",)
HEAVY_EVERY = 4


class Request(NamedTuple):
    index: int
    model: int
    seed: int
    original: "int | None"  # index of the new request a repeat repeats
    renamed: bool


class Record(NamedTuple):
    index: int
    latency: float
    error: "str | None"
    cached: bool
    key: str
    sha: str
    frequencies: dict
    firings: int


def build_schedule(seed: int, names: "list[str]", length: int = SCHEDULE_LENGTH) -> list[Request]:
    """The seeded request sequence, stratified so every seed sends the same mix.

    Each block of ``BLOCK`` requests holds exactly ``NEW_PER_BLOCK`` new
    requests at seeded positions; new requests walk through rounds, each a
    seeded permutation of the models (of the ``HEAVY_MODELS`` too in every
    ``HEAVY_EVERY``-th round), so every seed gives each model the same share
    of the misses (the models' compute costs differ by two orders of
    magnitude); every third repeat is renamed.
    """
    rng = random.Random(f"serve-zoo:{seed}")
    light = [i for i, name in enumerate(names) if name not in HEAVY_MODELS]
    originals: list[int] = []
    models: list[int] = []
    rounds = 0
    used: set[tuple[int, int]] = set()
    schedule: list[Request] = []
    repeats = 0
    while len(schedule) < length:
        if schedule:
            new_offsets = set(rng.sample(range(BLOCK), NEW_PER_BLOCK))
        else:  # the first request has nothing to repeat
            new_offsets = {0, *rng.sample(range(1, BLOCK), NEW_PER_BLOCK - 1)}
        for offset in range(min(BLOCK, length - len(schedule))):
            index = len(schedule)
            if offset in new_offsets:
                if not models:
                    pool = range(len(names)) if rounds % HEAVY_EVERY == 0 else light
                    models = rng.sample(pool, len(pool))
                    rounds += 1
                model = models.pop()
                request_seed = rng.randrange(SCHEDULE_SEED_FLOOR, 1 << 31)
                while (model, request_seed) in used:
                    request_seed = rng.randrange(SCHEDULE_SEED_FLOOR, 1 << 31)
                used.add((model, request_seed))
                schedule.append(Request(index, model, request_seed, None, False))
                originals.append(index)
            else:
                first = schedule[rng.choice(originals)]
                repeats += 1
                renamed = repeats % RENAMED_EVERY == 0
                schedule.append(Request(index, first.model, first.seed, first.index, renamed))
    return schedule


def warmup_seeds(seed: int, n_models: int) -> list[int]:
    rng = random.Random(f"serve-zoo-warmup:{seed}")
    return [rng.randrange(SCHEDULE_SEED_FLOOR) for _ in range(n_models)]


def build_experiments() -> "tuple[list, list, list]":
    """Each corpus model's name, its experiment, and a copy with every species renamed."""
    from repro.zoo.corpus import corpus_entries

    names, plain, renamed = [], [], []
    for entry in corpus_entries():
        names.append(entry.name)
        experiment = entry.model.experiment()
        plain.append(experiment)
        species = [s.name for s in experiment.network.species_order]
        renamed.append(experiment.renamed({name: f"{name}_r" for name in species}))
    return names, plain, renamed


class Server:
    """A ``repro serve`` subprocess; ``traced`` runs it under serve_launcher.py."""

    def __init__(self, store: str, spans: "str | None" = None) -> None:
        from repro.client import ServiceClient

        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", "--store", store,
                       "--port", "0", "--quiet"]
        else:
            command = [sys.executable, str(common.HERE / "serve_launcher.py"),
                       "--store", store, "--spans", spans]
        started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], common.CHILD_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else ""
            if not line.startswith("repro service listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split()[4]
            self.client = ServiceClient(self.url, timeout=REQUEST_TIMEOUT_S)
            self.client.healthz()
        except BaseException:
            common.stop(self.process)
            raise
        self.setup_s = time.monotonic() - started

    def peak_rss_mb(self) -> float:
        return common.process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        common.stop(self.process)


class ClosedLoop:
    """The client, working through the schedule in index order."""

    def __init__(self, client, schedule, plain, renamed) -> None:
        self.client = client
        self.schedule = schedule
        self.plain = plain
        self.renamed = renamed
        self.next = 0

    def run(self, stop_index: "int | None" = None, deadline: "float | None" = None) -> list:
        """Send requests until ``stop_index`` is reached or ``deadline`` passes."""
        stop = len(self.schedule) if stop_index is None else min(stop_index, len(self.schedule))
        records = []
        while self.next < stop and (deadline is None or time.monotonic() < deadline):
            records.append(self._send(self.schedule[self.next]))
            self.next += 1
        return records

    def _send(self, request: Request) -> Record:
        experiment = (self.renamed if request.renamed else self.plain)[request.model]
        started = time.monotonic()
        try:
            reply = self.client.simulate_entry(
                experiment, trials=TRIALS, engine=ENGINE, seed=request.seed
            )
            latency = time.monotonic() - started
            payload = reply.artifact["payload"]
            return Record(
                request.index,
                latency,
                None,
                reply.cached,
                reply.key,
                common.payload_sha256(payload),
                dict(reply.result.frequencies),
                int(sum(payload["ensemble"]["n_firings"])),
            )
        except Exception as exc:  # noqa: BLE001 - a failed request is a counted outcome
            return Record(request.index, time.monotonic() - started,
                          f"{type(exc).__name__}: {exc}", False, "", "", {}, 0)


def check(records: list[Record], schedule: list[Request]) -> list[str]:
    """Correctness of each reply, in schedule order."""
    failures = []
    originals: dict[int, Record] = {}
    for record in records:
        request = schedule[record.index]
        if record.error is not None:
            failures.append(f"request {record.index}: {record.error}")
            continue
        if request.original is None:
            originals[record.index] = record
            if record.cached:
                failures.append(f"request {record.index}: new seed answered from cache")
            continue
        first = originals.get(request.original)
        if not record.cached:
            failures.append(f"request {record.index}: repeat was not a cache hit")
        if first is None:
            failures.append(f"request {record.index}: repeats a request that failed")
        elif request.renamed:
            if record.key != first.key or record.frequencies != first.frequencies:
                failures.append(f"request {record.index}: renamed repeat differs")
        elif record.sha != first.sha:
            failures.append(f"request {record.index}: repeat payload differs from the first reply")
    return failures


def warm_up(server: Server, plain, seeds) -> None:
    """One new request per model before timing, so lazy set-up is done."""
    for experiment, seed in zip(plain, seeds):
        server.client.simulate_entry(experiment, trials=TRIALS, engine=ENGINE, seed=seed)


def e2e_metrics(records: list[Record], wall_s: float) -> dict:
    hits = [r.latency * 1e3 for r in records if r.error is None and r.cached]
    misses = [r.latency * 1e3 for r in records if r.error is None and not r.cached]
    return {
        "records": len(records),
        "requests_per_s": len(records) / wall_s,
        "trials_per_s": len(misses) * TRIALS / wall_s,
        "hit_latency_ms": hits,
        "miss_latency_ms": misses,
    }


def run(seed: int, seconds: float) -> dict:
    """The untraced run: set-up times, then the closed loop for ``seconds``."""
    names, plain, renamed = build_experiments()
    schedule = build_schedule(seed, names)
    work = common.run_dir()
    server = None
    try:
        setups = []
        for start in range(common.SETUP_STARTS):
            server = Server(str(work / f"store-{start}"))
            setups.append(server.setup_s)
            if start < common.SETUP_STARTS - 1:
                server.stop()
        warm_up(server, plain, warmup_seeds(seed, len(plain)))
        before = server.client.healthz()
        loop = ClosedLoop(server.client, schedule, plain, renamed)
        started = time.monotonic()
        records = loop.run(deadline=started + seconds)
        wall = time.monotonic() - started
        after = server.client.healthz()
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    failures = check(records, schedule) + cross_check(records, before, after)
    return {
        "env": common.env_record(),
        "setup_s": setups,
        "peak_rss_mb": peak_rss,
        "failures": failures,
        "first_sha256": records[0].sha if records else None,
        **e2e_metrics(records, wall),
    }


def cross_check(records, before: dict, after: dict) -> list[str]:
    """The server's hit and miss counters must agree with the replies."""
    hits = sum(1 for r in records if r.error is None and r.cached)
    misses = sum(1 for r in records if r.error is None and not r.cached)
    served = (after["hits"] - before["hits"], after["misses"] - before["misses"])
    if served != (hits, misses):
        return [f"server counted hits/misses {served}, clients saw {(hits, misses)}"]
    return []


def hot_capacity() -> int:
    """Entries the store keeps in its in-process tier (``ResultStore``'s default)."""
    from repro.store import ResultStore

    return inspect.signature(ResultStore).parameters["hot_capacity"].default


def trace(seed: int, seconds: float, window: "tuple[int, int]") -> dict:
    """Half the time untraced, half traced; per-layer figures from a fixed window.

    ``window`` is a range of schedule indices.  The traced half runs at least
    to its end; the client pauses at both of its edges, so exactly the
    requests inside it fall between the two ``/healthz`` snapshots.
    """
    names, plain, renamed = build_experiments()
    schedule = build_schedule(seed, names)
    warm_seeds = warmup_seeds(seed, len(plain))
    half = seconds / 2.0
    work = common.run_dir()
    server = None
    try:
        server = Server(str(work / "store-untraced"))
        warm_up(server, plain, warm_seeds)
        loop = ClosedLoop(server.client, schedule, plain, renamed)
        started = time.monotonic()
        untraced = loop.run(deadline=started + half)
        untraced_wall = time.monotonic() - started
        server.stop()
        server = None

        client_tracer = tracing.Tracer()
        client_tracer.install()
        spans_path = str(work / "server-spans.json")
        server = Server(str(work / "store-traced"), spans=spans_path)
        warm_up(server, plain, warm_seeds)
        loop = ClosedLoop(server.client, schedule, plain, renamed)
        started = time.monotonic()
        traced = loop.run(stop_index=window[0])
        before = server.client.healthz()
        window_start = time.monotonic()
        traced += loop.run(stop_index=window[1])
        window_end = time.monotonic()
        after = server.client.healthz()
        traced += loop.run(deadline=started + half)
        traced_wall = time.monotonic() - started
        server.stop()
        server = None
        server_spans = tracing.load_spans(spans_path)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    failures = check(untraced, schedule) + check(traced, schedule)
    in_window = [r for r in traced if window[0] <= r.index < window[1]]
    failures += cross_check(in_window, before, after)
    if before["artifacts"] <= hot_capacity():
        failures.append(
            f"traced window opens with {before['artifacts']} stored results, not more than"
            f" the {hot_capacity()}-entry hot tier, so its hits never read from disk"
        )
    spans = [
        tracing.within(client_tracer.spans, window_start, window_end),
        tracing.within(server_spans, window_start, window_end),
    ]
    layers = tracing.layer_metrics(spans, root="service.client.simulate_entry")
    # Client latency minus the client's own serialize/deserialize work and
    # the server handler's busy time: HTTP, sockets and reply JSON.
    transport = (
        layers["service.client.simulate_entry.self_s"] - layers["service.server.simulate.busy_s"]
    )
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    counts = {
        "sim.firings": sum(r.firings for r in in_window if not r.cached),
        "store.bytes_written": after["bytes"] - before["bytes"],
        "store.artifacts": after["artifacts"] - before["artifacts"],
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": measure.hit_ratio(hits, misses),
        "service.transport_s": transport,
    }
    return {
        "env": common.env_record(),
        "failures": failures,
        "attempted": len(untraced) + len(traced),
        "first_sha256": traced[0].sha if traced else None,
        "layers": {**layers, **counts},
        "untraced": {**e2e_metrics(untraced, untraced_wall), "latencies": latency_map(untraced)},
        "traced": {**e2e_metrics(traced, traced_wall), "latencies": latency_map(traced)},
    }


def latency_map(records: list[Record]) -> dict:
    return {record.index: record.latency for record in records}
