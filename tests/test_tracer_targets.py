"""The benchmark's tracer (perfbench/spans.py) still finds every function it wraps.

A renamed or moved target would otherwise drop out of the per-layer metrics
without any tier-1 test noticing, and so would one the attacks no longer
call, say because its body was inlined into its caller.
"""

from pathlib import Path

import numpy as np

import uapaudio.cli  # noqa: F401  (the tracer wraps two CLI commands; the benchmark imports it too)
from uapaudio import (
    GreedyConfig,
    PenaltyConfig,
    build_victim,
    evaluate_uap,
    greedy_uap,
    penalty_uap,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    done = spans.install(spans.Tracer())
    try:
        assert done.missing == []
        assert done.patches
    finally:
        done.uninstall()
    assert spans.installed_wrappers() == []


def test_attack_spans_are_reached_from_their_callers(monkeypatch):
    # the per-layer metrics greedy.asr_check_s, greedy.visits, greedy.inner_per_visit,
    # penalty.asr_check_s and evaluation.applied_perturbation.self_s read these pairs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    model = build_victim("linear", 256, 3, seed=0)
    x = np.random.default_rng(0).uniform(0.3, 0.7, (6, 256))
    tracer = spans.Tracer()
    done = spans.install(tracer)
    try:
        greedy_uap(model, x, GreedyConfig(max_epochs=1, inner_steps=3))
        craft = penalty_uap(model, x, None, PenaltyConfig(max_iters=2))
        evaluate_uap(model, (x, None), craft.perturbation)
    finally:
        done.uninstall()
    pairs = {(name, tracer.names[parent])
             for name, parent in zip(tracer.names, tracer.parents) if parent >= 0}
    assert {("greedy.asr", "greedy"), ("models.predict.b1", "greedy"), ("ddn", "greedy"),
            ("penalty.asr_check", "penalty"),
            ("evaluation.applied_perturbation", "evaluation.evaluate_uap")} <= pairs
