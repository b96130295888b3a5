"""Tests of the benchmark itself: span arithmetic, wrapper removal, metric
names, and a tiny-size run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import bench
import spans
import uapaudio
from uapaudio import greedy, models, penalty
from workloads import TINY, WORKLOADS, Outcome, Workload

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
        tracer = spans.Tracer(clock=fake_clock([0, 1, 2, 3, 6, 7, 9, 10]))
        with tracer.root("root") as root:
            a = tracer.open("a")
            b = tracer.open("b")
            tracer.close(b)
            tracer.close(a)
            c = tracer.open("c")
            tracer.close(c, amount=5)
        agg = spans.aggregate(tracer, [root])
        assert agg.self_time == {"root": 3.0, "a": 4.0, "b": 1.0, "c": 2.0}
        assert agg.total == {"root": 10.0, "a": 5.0, "b": 1.0, "c": 2.0}
        assert sum(agg.self_time.values()) == agg.wall == 10.0
        assert agg.amount["c"] == 5.0
        assert agg.by_parent[("b", "a")] == [1, 1.0, 0.0]

    def test_repeated_names_accumulate_over_roots(self):
        tracer = spans.Tracer(clock=fake_clock(range(100)))
        roots = []
        for _ in range(3):
            with tracer.root("it") as root:
                for _ in range(2):
                    tracer.close(tracer.open("x"))
            roots.append(root)
        agg = spans.aggregate(tracer, roots)
        assert agg.calls == {"it": 3, "x": 6}
        assert agg.self_time["x"] == 6.0
        assert agg.self_time["it"] == agg.wall - 6.0

    def test_self_times_vector(self):
        starts = np.array([0.0, 1.0, 2.0])
        ends = np.array([5.0, 4.0, 3.0])
        assert spans.self_times(starts, ends, np.array([-1, 0, 1])).tolist() == [2.0, 2.0, 1.0]

    def test_out_of_order_close_is_an_error(self):
        tracer = spans.Tracer()
        a = tracer.open("a")
        tracer.open("b")
        with pytest.raises(RuntimeError):
            tracer.close(a)


class TestWrappers:
    def test_install_and_remove(self):
        originals = (greedy.greedy_uap, penalty.perturbed_sample, models.VictimModel.__dict__["predict"],
                     models.Conv1D.__dict__["forward"], uapaudio.train)
        assert spans.installed_wrappers() == []
        installation = spans.install(spans.Tracer())
        try:
            wrapped = set(spans.installed_wrappers())
            # the names the callers look up, including `from ... import` copies
            for name in ("uapaudio.greedy.greedy_uap", "uapaudio.penalty.perturbed_sample",
                         "uapaudio.evaluation.perturbed_sample", "uapaudio.data.save_wav",
                         "uapaudio.models.adam_update", "uapaudio.train",
                         "uapaudio.models.VictimModel.predict", "uapaudio.models.Conv1D.forward"):
                assert name in wrapped
        finally:
            installation.uninstall()
        assert installation.missing == []
        assert spans.installed_wrappers() == []
        assert (greedy.greedy_uap, penalty.perturbed_sample, models.VictimModel.__dict__["predict"],
                models.Conv1D.__dict__["forward"], uapaudio.train) == originals

    def test_missing_target_is_skipped(self, monkeypatch):
        targets = spans._targets
        monkeypatch.setattr(spans, "_targets", lambda tracer: targets(tracer) + [
            ("penalty", "no_such_function", "x", None), ("models", "Conv1D.no_such_method", "y", None),
            ("no_such_module", "f", "z", None)])
        installation = spans.install(spans.Tracer())
        installation.uninstall()
        assert installation.missing == ["uapaudio.penalty.no_such_function",
                                        "uapaudio.models.Conv1D.no_such_method",
                                        "uapaudio.no_such_module.f"]
        assert spans.installed_wrappers() == []

    def test_spans_recorded_per_layer_and_batch(self):
        model = models.build_victim("rand-cnn", 1024, 3, seed=0)
        tracer = spans.Tracer()
        installation = spans.install(tracer)
        try:
            with tracer.root("bench.iteration") as root:
                model.predict(np.full(1024, 0.5))
                model.predict(np.full((4, 1024), 0.5))
        finally:
            installation.uninstall()
        agg = spans.aggregate(tracer, [root])
        assert agg.calls["models.conv1.fwd.b1"] == agg.calls["models.conv2.fwd.bN"] == 1
        assert agg.calls["models.relu.fwd.bN"] == 3
        metrics = spans.layer_metrics(agg, 1)
        assert metrics["models.predict.bN.samples"] == 4
        assert metrics["models.forward.b1.calls"] == 1
        assert abs(sum(agg.self_time.values()) - agg.wall) <= 1e-9 * agg.wall


class TestMetricNames:
    def test_names_and_units(self):
        for name in itertools.chain(spans.PER_LAYER, bench.END_TO_END_UNITS, bench.DETAIL_UNITS):
            assert NAME.fullmatch(name), name
        assert len(set(spans.PER_LAYER)) == len(spans.PER_LAYER) <= 128
        for name in spans.PER_LAYER:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", bench.per_layer_unit(name))

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        for metric in spec["per_layer"]:
            assert metric["unit"] == bench.per_layer_unit(metric["name"])


class Fake(Workload):
    """A workload that does no library work: its time is all outside traced
    calls, and its fingerprint changes on every iteration if `flaky`."""

    name = "fake"
    flaky = False

    def __init__(self, sizes, seed, workdir):
        self.n = 0

    def setup(self, out):
        out.gate(True, "set-up")

    def iteration(self, pace=lambda: None):
        self.n += 1
        pace()
        time.sleep(bench.UNTRACED_FLOOR_S + 0.01)
        out = Outcome(quality={"victim_test_acc": 1.0})
        out.gate(True, "iteration")
        out.fingerprint["n"] = self.n if self.flaky else 0
        return out


class Flaky(Fake):
    flaky = True


def test_pacer_normalises_each_step_by_the_references_around_it():
    pacer = bench.Pacer(1.0)
    pacer.steps, pacer.references = [1.0, 3.0], [1.0, 3.0, 1.0]
    assert pacer.wall_ref() == 1.0 / 2.0 + 3.0 / 2.0


class TestChecks:
    def test_divergences(self):
        assert bench._divergences([{"a": 1, "b": 2}] * 3) == (4, [])
        compared, found = bench._divergences([{"a": 1, "b": 2}, {"a": 1, "b": 3}])
        assert compared == 2 and found == ["iteration 1: b 3 != 2"]

    def test_divergence_is_a_failed_operation(self, monkeypatch, tmp_path):
        monkeypatch.setitem(bench.WORKLOADS, "fake", Fake)
        monkeypatch.setitem(bench.WORKLOADS, "flaky", Flaky)
        steady, _ = bench.run("fake", 0, 0.01, False, work_root=tmp_path)
        flaky, details = bench.run("flaky", 0, 0.01, False, work_root=tmp_path)
        iterations = details["iterations"]
        assert steady["correct"] and steady["failed"] == 0
        assert not flaky["correct"] and flaky["failed"] == iterations - 1
        assert flaky["attempted"] == steady["attempted"] == 1 + iterations + (iterations - 1)
        assert flaky["metrics"]["pass_ratio"]["value"] < 1.0

    def test_work_outside_traced_calls_is_a_problem(self, monkeypatch, tmp_path):
        monkeypatch.setitem(bench.WORKLOADS, "fake", Fake)
        result, details = bench.run("fake", 0, 0.01, True, work_root=tmp_path)
        assert not result["correct"] and result["failed"] == 0
        assert details["problems"] == ["100.0% of a traced iteration is outside every traced call"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace, tmp_path):
    result, details = bench.run(workload, 3, 0.01, trace, work_root=tmp_path, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert details["problems"] == []
    assert result["attempted"] >= 1 and result["failed"] == len(details["failures"])
    expected = spans.PER_LAYER if trace else bench.END_TO_END_UNITS
    assert list(result["metrics"]) == list(expected)
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    assert details["iterations"] >= (2 * bench.TRACED_ITERATIONS if trace else bench.MIN_ITERATIONS)
    assert details["untraced_targets"] == []
    assert spans.installed_wrappers() == []
    assert [p.name for p in tmp_path.iterdir()] == ([f"trace-{workload}-seed3.jsonl"] if trace else [])
