"""Tests of the benchmark's own arithmetic, plus a smoke run of each workload.

Run with ``python3 -m pytest -q perfbench/selftest.py`` (the file name keeps
it out of the repository's own test collection).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import types

import pytest

import common
import ensemble_worker
import measure
import run
import serve_zoo
import tracing
from tracing import Span

# -- percentile rule ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("n", "expected"),
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99),
     (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert measure.highest_supported_percentile(n) == expected


def test_samples_beyond_is_exact_where_floats_are_not():
    # 0.9 * 100 == 90.00000000000001 in floating point; the rule must not
    # round that up to rank 91.
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(1000, 99.9) == 1
    assert measure.samples_beyond(20, 50) == 10


def test_percentile_interpolates_between_order_statistics():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(samples, 0) == 1.0
    assert measure.percentile(samples, 50) == 2.5
    assert measure.percentile(samples, 100) == 4.0
    assert measure.percentile(list(range(11)), 90) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_tail_report_names_percentile_value_and_count():
    assert measure.tail_report(list(range(19))) is None
    tail = measure.tail_report([float(i) for i in range(100)])
    assert tail == {"percentile": 90, "value": pytest.approx(89.1), "samples": 100}


# -- self time -----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    assert measure.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # [1, 5] from two overlapping children, [7, 8] from a third.
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]
    assert measure.self_time(0.0, 10.0, children) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    assert measure.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(8.0)
    assert measure.self_time(0.0, 10.0, [(11.0, 12.0)]) == pytest.approx(10.0)
    assert measure.self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(0.0)


def test_layer_metrics_self_busy_and_share():
    name_a, name_b = tracing.LAYER_NAMES[0], tracing.LAYER_NAMES[1]
    spans = [
        Span(1, None, 1, name_a, 0.0, 10.0),
        Span(2, 1, 1, name_b, 1.0, 4.0),
        Span(3, 2, 1, name_b, 2.0, 3.0),  # recursion: nested in the same name
        Span(4, 1, 1, name_b, 3.5, 6.0),  # overlaps its sibling
        Span(5, None, 5, name_a, 20.0, 30.0),
    ]
    metrics = tracing.layer_metrics([spans], root=name_a)
    assert metrics[f"{name_a}.calls"] == 2
    assert metrics[f"{name_a}.busy_s"] == pytest.approx(20.0)
    assert metrics[f"{name_a}.self_s"] == pytest.approx(10.0 - 5.0 + 10.0)
    assert metrics[f"{name_b}.calls"] == 3
    assert metrics[f"{name_b}.busy_s"] == pytest.approx(3.0 + 2.5)
    assert metrics[f"{name_b}.self_s"] == pytest.approx(2.0 + 1.0 + 2.5)
    assert metrics[f"{name_b}.share"] == pytest.approx(5.5 / 20.0)
    assert metrics[f"{name_a}.share"] == pytest.approx(1.0)
    untouched = tracing.LAYER_NAMES[2]
    assert metrics[f"{untouched}.calls"] == 0
    assert metrics[f"{untouched}.share"] == 0.0


def test_layer_metrics_sums_process_span_sets():
    name = tracing.LAYER_NAMES[0]
    client = [Span(1, None, 1, name, 0.0, 2.0)]
    server = [Span(1, None, 1, name, 0.5, 1.0)]  # ids repeat across processes
    metrics = tracing.layer_metrics([client, server], root=name)
    assert metrics[f"{name}.calls"] == 2
    assert metrics[f"{name}.busy_s"] == pytest.approx(2.5)


# -- shares and ratios ------------------------------------------------------------------


def test_share_and_hit_ratio():
    assert measure.share(1.0, 4.0) == 0.25
    assert measure.share(1.0, 0.0) == 0.0
    assert measure.hit_ratio(3, 1) == 0.75
    assert measure.hit_ratio(0, 0) == 0.0
    assert measure.hit_ratio(0, 5) == 0.0


def test_overhead_share_uses_operations_both_halves_completed():
    untraced = {0: 1.0, 1: 1.0, 2: 1.0}
    traced = {0: 1.1, 1: 1.1}
    assert run.overhead_share(untraced, traced) == pytest.approx(0.1)


def test_tv_bound_shrinks_with_trials_to_the_allowance():
    target = {"1": 0.3, "2": 0.4, "3": 0.3}
    small, large = measure.tv_bound(target, 4_000), measure.tv_bound(target, 20_000)
    assert small > large > 0.01
    assert measure.tv_bound(target, 10**12) == pytest.approx(0.01, abs=1e-4)
    with pytest.raises(ValueError):
        measure.tv_bound(target, 0)


def test_total_variation_counts_undecided_trials_against_the_ensemble():
    target = {"1": 0.3, "2": 0.4, "3": 0.3}
    assert measure.total_variation({"1": 30, "2": 40, "3": 30}, 100, target) == 0.0
    # Same proportions over the 90 decided trials: the 10 undecided ones
    # count as an outcome whose target is 0, and the requested total rules.
    partly = {"1": 27, "2": 36, "3": 27, "(undecided)": 10}
    assert measure.total_variation(partly, 100, target) == pytest.approx(0.1)
    # Trials missing from the counts altogether count the same way.
    assert measure.total_variation({"1": 27, "2": 36, "3": 27}, 100, target) == (
        pytest.approx(0.1)
    )
    assert measure.total_variation({"1": 100}, 100, target) == pytest.approx(0.7)


class _FakeEnsemble:
    """Just what ``check_ensemble`` reads from a ``RunResult``."""

    def __init__(self, counts: dict) -> None:
        self.ensemble = types.SimpleNamespace(outcome_counts=counts)
        self._decided = 1.0 - counts.get("(undecided)", 0) / sum(counts.values())

    def decided_fraction(self) -> float:
        return self._decided


def test_check_ensemble_fails_a_partly_undecided_ensemble():
    n = 4_000
    exact = {"1": 1_200, "2": 1_600, "3": 1_200}
    assert ensemble_worker.check_ensemble("e", _FakeEnsemble(exact), n) == []
    # Undecided trials, decided ones in exactly the programmed proportions:
    # frequencies over decided trials alone would show no distance at all.
    # 2% undecided stays inside the sampling bound, but not every trial decided.
    few = {"1": 1_176, "2": 1_568, "3": 1_176, "(undecided)": 80}
    (failure,) = ensemble_worker.check_ensemble("e", _FakeEnsemble(few), n)
    assert "only 0.9800 of the trials decided" in failure
    # 10% undecided also moves the total variation over all trials out of bound.
    many = {"1": 1_080, "2": 1_440, "3": 1_080, "(undecided)": 400}
    failures = ensemble_worker.check_ensemble("e", _FakeEnsemble(many), n)
    assert len(failures) == 2
    assert "total variation 0.1000" in failures[1]
    skewed = {"1": 1_600, "2": 1_200, "3": 1_200}
    (failure,) = ensemble_worker.check_ensemble("e", _FakeEnsemble(skewed), n)
    assert "total variation 0.1000" in failure


# -- tracer --------------------------------------------------------------------------


def test_tracer_links_parents_and_shares_request_ids_per_thread():
    tracer = tracing.Tracer()

    def inner():
        return "x"

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda: traced_inner())
    threads = [threading.Thread(target=traced_outer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.id: span for span in tracer.spans}
    outers = [span for span in tracer.spans if span.name == "outer"]
    inners = [span for span in tracer.spans if span.name == "inner"]
    assert len(outers) == len(inners) == 4
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "outer"
        assert span.request == parent.request == parent.id
        assert parent.start <= span.start <= span.end <= parent.end
    assert len({span.request for span in outers}) == 4


def test_tracer_install_wraps_methods_classmethods_and_copied_functions(monkeypatch):
    source = types.ModuleType("repro_selftest_source")
    copy = types.ModuleType("repro_selftest_copy")

    def helper(value):
        return value + 1

    class Thing:
        def method(self):
            return helper(1)

        @classmethod
        def build(cls):
            return cls()

    source.helper = helper
    source.Thing = Thing
    copy.helper = helper  # as after ``from repro_selftest_source import helper``
    monkeypatch.setitem(sys.modules, source.__name__, source)
    monkeypatch.setitem(sys.modules, copy.__name__, copy)

    tracer = tracing.Tracer()
    tracer.install([
        ("t.helper", source.__name__, "helper"),
        ("t.method", source.__name__, "Thing.method"),
        ("t.build", source.__name__, "Thing.build"),
    ])
    assert Thing.build().method() == 2
    assert copy.helper(1) == 2
    assert [span.name for span in tracer.spans] == ["t.build", "t.method", "t.helper"]
    assert isinstance(Thing.build(), Thing)


def test_spans_round_trip_through_a_file(tmp_path):
    tracer = tracing.Tracer()
    tracer.wrap("f", lambda: None)()
    path = str(tmp_path / "spans.json")
    tracer.dump(path)
    assert tracing.load_spans(path) == tracer.spans
    (span,) = tracer.spans
    assert tracing.within(tracer.spans, span.start, span.end) == [span]
    assert tracing.within(tracer.spans, span.start + 1.0, span.end + 2.0) == []


# -- schedule and declared metrics ---------------------------------------------------------


#: A corpus of twelve models, the first of them heavy.
MODEL_NAMES = [serve_zoo.HEAVY_MODELS[0], *(f"model-{i}" for i in range(11))]


def test_serve_schedule_is_seeded_and_stratified():
    schedule = serve_zoo.build_schedule(7, MODEL_NAMES, length=1200)
    assert schedule == serve_zoo.build_schedule(7, MODEL_NAMES, length=1200)
    assert schedule != serve_zoo.build_schedule(8, MODEL_NAMES, length=1200)
    new = [request for request in schedule if request.original is None]
    assert len(new) == 360
    # 360 new requests are 8 cycles of 4 rounds: one of 12 models, three of 11.
    assert sum(1 for r in new if r.model == 0) == 8
    assert all(sum(1 for r in new if r.model == m) == 32 for m in range(1, 12))
    repeats = [request for request in schedule if request.original is not None]
    assert sum(1 for r in repeats if r.renamed) == len(repeats) // 3
    for request in repeats:
        first = schedule[request.original]
        assert first.original is None and first.index < request.index
        assert (first.model, first.seed) == (request.model, request.seed)
    assert len({(r.model, r.seed) for r in new}) == len(new)
    warm = serve_zoo.warmup_seeds(7, 12)
    assert all(seed < serve_zoo.SCHEDULE_SEED_FLOOR <= min(r.seed for r in new) for seed in warm)


def test_benchmark_json_declares_what_run_py_reports():
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)


def test_report_when_every_request_fails(capsys):
    schedule = serve_zoo.build_schedule(5, MODEL_NAMES, length=30)
    records = [serve_zoo.Record(r.index, 0.01, "HTTPError: HTTP Error 500", False, "", "", {}, 0)
               for r in schedule]
    result = {
        "env": {}, "setup_s": [1.0], "peak_rss_mb": 100.0, "first_sha256": "",
        "failures": serve_zoo.check(records, schedule), **serve_zoo.e2e_metrics(records, 1.0),
    }
    args = argparse.Namespace(workload="serve-zoo", seed=5, seconds=1.0, trace=0)
    assert run.report(args, result) == 1
    output = capsys.readouterr().out
    last = json.loads(output.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["attempted"] == last["failed"] == 30
    assert last["metrics"]["success_ratio"]["value"] == 0.0
    assert not any("latency" in name for name in last["metrics"])
    assert "# FAILED request 0: HTTPError" in output


# -- smoke runs ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=common.ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stdout[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == dict(expected)
    if trace:
        assert result["metrics"]["api.experiment.simulate.calls"]["value"] > 0
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
