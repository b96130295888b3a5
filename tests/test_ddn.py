"""Minimal-norm inner attack against linear oracles and trained victims."""

import numpy as np
import pytest

from uapaudio import InvalidInputError, ddn_minimal_perturbation
from uapaudio.ddn import check_mode, craft_loop, fooled

from oracles import linear_victim_from_params


def two_class_model(w, b):
    return linear_victim_from_params(np.column_stack([w, -w]), np.array([b, -b]))


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        model, x = two_class_model(np.ones(8), 0.0), np.full(8, 0.5)
        with pytest.raises(InvalidInputError):
            ddn_minimal_perturbation(model, x, steps=0)
        with pytest.raises(InvalidInputError, match="target class"):
            ddn_minimal_perturbation(model, x, mode="targeted")
        for target in (2, -1):  # the model has classes 0 and 1
            with pytest.raises(InvalidInputError, match="not a class"):
                ddn_minimal_perturbation(model, x, mode="targeted", target=target)

    def test_rejects_bad_samples(self, rng):
        model = two_class_model(rng.normal(size=8), 0.0)
        with pytest.raises(InvalidInputError):
            ddn_minimal_perturbation(model, np.full((2, 8), 0.5), steps=2)
        with pytest.raises(InvalidInputError):
            ddn_minimal_perturbation(model, np.full(8, 1.5), steps=2)


class TestSuccessPredicate:
    def test_scalar_predictions(self):
        assert fooled(2, "targeted", 2) and not fooled(1, "targeted", 2)
        assert fooled(1, "untargeted", 0) and not fooled(0, "untargeted", 0)

    def test_array_predictions(self):
        preds = np.array([0, 1, 2, 1])
        np.testing.assert_array_equal(fooled(preds, "targeted", np.full(4, 1)), [False, True, False, True])
        # untargeted: against one class or against per-sample classes
        np.testing.assert_array_equal(fooled(preds, "untargeted", 1), [True, False, True, False])
        np.testing.assert_array_equal(fooled(preds, "untargeted", np.array([0, 0, 2, 2])),
                                      [False, True, False, True])

    def test_mode_check(self):
        check_mode("untargeted", None)
        check_mode("targeted", 0)
        with pytest.raises(InvalidInputError, match="mode must be"):
            check_mode("sideways", 0)
        with pytest.raises(InvalidInputError, match="target class"):
            check_mode("targeted", None)
        with pytest.raises(InvalidInputError, match="no target class, got target 2"):
            check_mode("untargeted", 2)


@pytest.mark.parametrize("asr_trace,delta,cap,floor,reason", [
    ([0.0], 1.0, 5, 0, "converged"),
    ([0.2, 0.9], 0.1, 5, 0, "converged"),
    ([0.2, 0.95], 0.1, 5, 2, None),
    ([0.2, 0.3, 0.95], 0.1, 5, 2, "converged"),
    ([0.2, 0.3, 0.95], 0.1, 2, 2, "converged"),
    ([0.2, 0.3, 0.85], 0.1, 2, 0, "cap"),
    ([0.2, 0.3, 0.85], 0.1, 5, 0, None),
    ([0.2], 0.1, 5, 0, None),
], ids=["delta-one-at-start", "at-one-minus-delta", "floor-defers", "floor-reached", "converged-beats-cap",
        "cap", "between", "start"])
def test_stop_reason(asr_trace, delta, cap, floor, reason):
    """Converged at 1 - delta once floor updates have run, else cap after cap updates, else go on.

    The iterates are the rates themselves, scored by float. A craft that goes on
    draws one iterate past the trace, which raises GoOn here."""
    class GoOn(Exception):
        pass

    def iterates():
        yield from asr_trace
        raise GoOn

    if reason is None:
        with pytest.raises(GoOn):
            craft_loop(iterates(), float, delta, cap, floor)
        return
    kept, trace, converged = craft_loop(iterates(), float, delta, cap, floor)
    assert converged == (reason == "converged")
    assert trace == asr_trace and kept == asr_trace[-1]  # the whole trace, and no iterate past it


def test_craft_loop_keeps_the_best_iterate_with_ties_to_the_latest():
    rates = [0.1, 0.5, 0.2, 0.5, 0.3]
    kept, trace, converged = craft_loop(iter(range(5)), lambda k: rates[k], 0.1, 4)
    assert (kept, trace, converged) == (3, rates, False)


class TestHyperplaneOracle:
    def test_norm_within_five_percent_of_distance(self, rng):
        # for a linear two-class model the optimal L2 flip norm is the
        # point-to-hyperplane distance |w.x + b| / ||w||
        for _ in range(20):
            d = 32
            w = rng.normal(size=d)
            x = rng.uniform(0.3, 0.7, d)
            margin = rng.uniform(0.05, 0.2)
            b = margin * np.linalg.norm(w) - w @ x
            model = two_class_model(w, b)
            assert model.predict(x) == 0
            res = ddn_minimal_perturbation(model, x, steps=60)
            assert res.success
            assert model.predict(np.clip(x + res.delta, 0.0, 1.0)) == 1
            assert res.l2_norm <= 1.05 * margin
            assert res.l2_norm >= margin * (1.0 - 1e-9)

    def test_targeted_reaches_requested_class(self, rng):
        w = rng.normal(size=(16, 3))
        model = linear_victim_from_params(w, np.zeros(3))
        x = rng.uniform(0.3, 0.7, 16)
        for target in range(3):
            res = ddn_minimal_perturbation(model, x, steps=40, mode="targeted", target=target)
            assert res.success
            assert model.predict(np.clip(x + res.delta, 0.0, 1.0)) == target


class TestRadiusSchedule:
    def test_trace_shape_and_start(self, rng):
        model = two_class_model(rng.normal(size=8), 0.1)
        res = ddn_minimal_perturbation(model, rng.uniform(0.3, 0.7, 8), steps=13)
        assert res.radius_trace.shape == (14,)
        assert res.radius_trace[0] == 0.2

    def test_every_step_scales_by_gamma(self, rng):
        model = two_class_model(rng.normal(size=8), 0.1)
        res = ddn_minimal_perturbation(model, rng.uniform(0.3, 0.7, 8), steps=25)
        trace = res.radius_trace
        for k in range(len(trace) - 1):
            assert trace[k + 1] in (trace[k] * 0.95, trace[k] * 1.05)

    def test_failure_grows_radius_every_step(self):
        # constant classifier: gradient is identically zero, never flips
        model = linear_victim_from_params(np.zeros((8, 2)), np.array([1.0, 0.0]))
        res = ddn_minimal_perturbation(model, np.full(8, 0.5), steps=6)
        assert not res.success
        assert res.l2_norm == 0.0
        np.testing.assert_allclose(res.radius_trace, 0.2 * 1.05 ** np.arange(7), atol=1e-15)


class TestDeterminismAndVictim:
    def test_repeat_call_is_bit_identical(self, rng):
        w = rng.normal(size=(16, 3))
        model = linear_victim_from_params(w, np.zeros(3))
        x = rng.uniform(0.3, 0.7, 16)
        a = ddn_minimal_perturbation(model, x, steps=30)
        b = ddn_minimal_perturbation(model, x, steps=30)
        np.testing.assert_array_equal(a.delta, b.delta)
        np.testing.assert_array_equal(a.radius_trace, b.radius_trace)

    def test_flips_trained_cnn_predictions(self, victim, test_xy):
        x, _ = test_xy
        for i in range(0, 30, 3):
            clean = int(victim.predict(x[i]))
            res = ddn_minimal_perturbation(victim, x[i])
            assert res.success
            assert int(victim.predict(np.clip(x[i] + res.delta, 0.0, 1.0))) != clean

    def test_does_not_mutate_model(self, victim, test_xy):
        x, _ = test_xy
        before = victim.parameter_vector().copy()
        ddn_minimal_perturbation(victim, x[0], steps=10)
        np.testing.assert_array_equal(victim.parameter_vector(), before)
