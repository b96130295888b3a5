"""Penalty-method crafting: hinge, objective, descent loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uapaudio import (
    AdamState,
    InvalidInputError,
    PenaltyConfig,
    build_victim,
    generate_synthetic_dataset,
    penalty_uap,
    to_tanh_space,
    train,
)
from uapaudio.audio import spl
from uapaudio.optim import _EPS
from uapaudio.penalty import _hinge_batch, _objective, _spl_gradient
from uapaudio.tanhspace import perturbed_sample

from oracles import linear_victim_from_params

logit_vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=2, max_size=8
).map(np.asarray)


def hinge(logits, ref, kappa, mode):
    """The batch hinge of a single logit vector."""
    values, _ = _hinge_batch(np.asarray(logits)[None], np.array([ref]), kappa, mode)
    return values[0]


def one_row_loss(model, x_tanh, v, ref, c, kappa, mode="untargeted"):
    """SPL(v') + c * G for one sample, and its gradient w.r.t. v'."""
    spl_v, hinges, grad = _objective(model, x_tanh[None], v, np.array([ref]), c, kappa, mode)
    return spl_v + c * hinges[0], grad


class TestHinge:
    def test_untargeted_examples(self):
        assert hinge([3.0, 1.0], 0, 0.0, "untargeted") == 2.0
        assert hinge([1.0, 3.0], 0, 0.0, "untargeted") == 0.0
        assert hinge([1.0, 3.0], 0, 5.0, "untargeted") == -2.0
        assert hinge([1.0, 9.0], 0, 5.0, "untargeted") == -5.0

    def test_targeted_examples(self):
        assert hinge([3.0, 1.0, 2.0], 1, 0.0, "targeted") == 2.0
        assert hinge([1.0, 5.0, 2.0], 1, 10.0, "targeted") == -3.0
        assert hinge([0.0, 20.0, 1.0], 1, 5.0, "targeted") == -5.0

    @given(logit_vectors, st.integers(min_value=0, max_value=7))
    def test_zero_kappa_dichotomy(self, logits, label):
        """At kappa = 0 the hinge vanishes exactly when the label is dethroned."""
        label %= logits.size
        value = hinge(logits, label, 0.0, "untargeted")
        others = np.delete(logits, label)
        if logits[label] > others.max():
            assert value > 0.0
        else:
            assert value == 0.0

    @given(logit_vectors, st.integers(min_value=0, max_value=7),
           st.floats(min_value=0.0, max_value=100.0))
    def test_floor_and_formula(self, logits, target, kappa):
        target %= logits.size
        value = hinge(logits, target, kappa, "targeted")
        others = np.delete(logits, target)
        assert value == max(float(others.max() - logits[target]), -kappa)
        assert value >= -kappa

    @given(logit_vectors, st.integers(min_value=0, max_value=7),
           st.floats(min_value=-30.0, max_value=30.0))
    def test_shift_invariant(self, logits, label, shift):
        label %= logits.size
        assert hinge(logits + shift, label, 7.0, "untargeted") == pytest.approx(
            hinge(logits, label, 7.0, "untargeted"), abs=1e-9)


class TestPenaltyLoss:
    """The objective and its gradient w.r.t. v', as the descent loop uses them."""

    def _setup(self, rng, d=32):
        weight = rng.normal(size=(d, 3))
        model = linear_victim_from_params(weight, np.zeros(3))
        x = rng.uniform(0.3, 0.7, d)
        return model, x, to_tanh_space(x)

    def test_zero_perturbation_hits_spl_floor(self, rng):
        model, x, x_tanh = self._setup(rng)
        zero = np.zeros_like(x_tanh)
        loss, _ = one_row_loss(model, x_tanh, zero, ref=0, c=0.5, kappa=10.0)
        w = perturbed_sample(x_tanh, zero)
        expected_hinge = hinge(model.logits(w), 0, 10.0, "untargeted")
        assert loss == pytest.approx(-240.0 + 0.5 * expected_hinge, abs=1e-9)

    def test_satisfied_attack_reduces_to_spl(self, rng):
        model, x, x_tanh = self._setup(rng)
        label = int(model.predict(x))
        loser = 1 - label if label <= 1 else 0
        # at kappa = 0 a dethroned reference contributes exactly nothing
        loss, _ = one_row_loss(model, x_tanh, np.zeros_like(x_tanh), ref=loser, c=3.0, kappa=0.0)
        assert loss == -240.0

    def test_gradient_matches_central_differences(self, rng):
        model, x, x_tanh = self._setup(rng)
        v = rng.normal(scale=0.3, size=x.size)
        ref = int(model.predict(x))
        _, grad = one_row_loss(model, x_tanh, v, ref, c=0.4, kappa=25.0)
        step = 1e-6
        for i in rng.choice(x.size, size=8, replace=False):
            e = np.zeros(x.size)
            e[i] = step
            hi, _ = one_row_loss(model, x_tanh, v + e, ref, 0.4, 25.0)
            lo, _ = one_row_loss(model, x_tanh, v - e, ref, 0.4, 25.0)
            assert grad[i] == pytest.approx((hi - lo) / (2 * step), rel=1e-3, abs=1e-8)

    def test_targeted_mode_gradient(self, rng):
        model, x, x_tanh = self._setup(rng)
        v = rng.normal(scale=0.2, size=x.size)
        _, grad = one_row_loss(model, x_tanh, v, ref=2, c=1.0, kappa=30.0, mode="targeted")
        step = 1e-6
        for i in [0, 7, 19]:
            e = np.zeros(x.size)
            e[i] = step
            hi, _ = one_row_loss(model, x_tanh, v + e, 2, 1.0, 30.0, mode="targeted")
            lo, _ = one_row_loss(model, x_tanh, v - e, 2, 1.0, 30.0, mode="targeted")
            assert grad[i] == pytest.approx((hi - lo) / (2 * step), rel=1e-3, abs=1e-8)

    @pytest.mark.parametrize("mode,refs", [("untargeted", [0, 1, 2, 1]),
                                           ("targeted", [2, 2, 2, 2])])
    def test_batch_gradient_matches_central_differences(self, rng, mode, refs):
        """Over a 4-row batch the gradient carries the SPL term once per row and
        each row's own squash chain: sum_i SPL(v') + c * G_i."""
        model = build_victim("rand-cnn", 1024, 3, seed=5)
        x_tanh = to_tanh_space(rng.uniform(0.2, 0.8, (4, 1024)))
        v = rng.normal(scale=0.3, size=1024)
        refs = np.array(refs)

        def loss(v):
            spl_v, hinges, _ = _objective(model, x_tanh, v, refs, 1.0, 50.0, mode)
            return refs.size * spl_v + 1.0 * float(np.sum(hinges))

        _, _, grad = _objective(model, x_tanh, v, refs, 1.0, 50.0, mode)
        step = 1e-4
        for i in rng.choice(1024, size=6, replace=False):
            e = np.zeros(1024)
            e[i] = step
            fd = (loss(v + e) - loss(v - e)) / (2.0 * step)
            assert abs(grad[i] - fd) <= 1e-3 * max(abs(fd), 1e-6)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 100, 257])
    @pytest.mark.parametrize("mode", ["untargeted", "targeted"])
    def test_row_blocks_match_one_pass(self, rows, mode):
        """_objective runs its passes on row blocks; one forward_cached pass over the
        whole batch gives the same hinges and gradient up to rounding."""
        rng = np.random.default_rng(rows)
        model = build_victim("rand-cnn", 4096, 3, seed=7)
        x_tanh = to_tanh_space(rng.uniform(0.2, 0.8, (rows, 4096)))
        v = rng.normal(scale=0.3, size=4096)
        refs = np.full(rows, 2) if mode == "targeted" else rng.integers(0, 3, rows)
        spl_v, hinges, grad = _objective(model, x_tanh, v, refs, 10.0, 50.0, mode)

        w = perturbed_sample(x_tanh, v)
        logits, caches = model.forward_cached(w)
        ref_hinges, dlogits = _hinge_batch(logits, refs, 50.0, mode)
        ref_grad = rows * _spl_gradient(v) + 10.0 * np.sum(
            model.backward_input(caches, dlogits) * 2.0 * w * (1.0 - w), axis=0)
        assert spl_v == spl(v)
        np.testing.assert_allclose(hinges, ref_hinges, rtol=1e-12, atol=1e-12 * np.abs(ref_hinges).max())
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())


class TestPenaltyConfig:
    def test_mode_defaults(self):
        cfg = PenaltyConfig()
        assert cfg.c == 0.2 and cfg.kappa == 0.0
        tgt = PenaltyConfig(mode="targeted", target=1)
        assert tgt.c == 0.15 and tgt.kappa == 10.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            PenaltyConfig(mode="targeted")
        with pytest.raises(InvalidInputError):
            PenaltyConfig(c=0.0)
        with pytest.raises(InvalidInputError):
            PenaltyConfig(kappa=-1.0)
        with pytest.raises(InvalidInputError):
            PenaltyConfig(delta=0.0)
        with pytest.raises(InvalidInputError):
            PenaltyConfig(batch_size=0)
        with pytest.raises(InvalidInputError):
            PenaltyConfig(min_iters=11, max_iters=10)
        with pytest.raises(InvalidInputError):
            PenaltyConfig(project=(3.0, 0.1))
        with pytest.raises(InvalidInputError):
            PenaltyConfig(project=(2.0, 0.0))


class TestPenaltyLoop:
    def test_delta_one_returns_immediately(self, victim, train_xy):
        x, y = train_xy
        res = penalty_uap(victim, x[:5], y[:5], PenaltyConfig(delta=1.0))
        assert res.converged and res.iterations == 0 and res.trace == []
        assert np.all(res.perturbation.v_signal == 0.5)
        np.testing.assert_array_equal(res.perturbation.v_tanh, np.zeros(x.shape[1]))

    def test_min_iters_defers_the_success_check(self, victim, train_xy):
        x, y = train_xy
        res = penalty_uap(victim, x[:5], y[:5],
                          PenaltyConfig(delta=1.0, min_iters=5, c=20.0))
        assert res.converged and res.iterations == 5 and len(res.trace) == 5
        assert len(res.asr_trace) == 6

    def test_first_update_follows_the_batch_gradient(self, rng):
        # with zero initial v the SPL term sits on its floor, so the descent
        # direction is the summed hinge gradient; step one of Adam is then
        # -lr * g / (|g| + eps) componentwise
        d = 24
        weight = rng.normal(size=(d, 3))
        model = linear_victim_from_params(weight, np.zeros(3))
        x = rng.uniform(0.35, 0.65, (3, d))
        y = np.asarray(model.predict(x))
        cfg = PenaltyConfig(c=0.7, kappa=50.0, batch_size=3, max_iters=1,
                            delta=0.01, seed=0)
        adam = AdamState()  # the penalty loop's Adam settings
        res = penalty_uap(model, x, y, cfg)

        x_tanh = to_tanh_space(x)
        step = 1e-6

        def total_objective(v):
            total = 0.0
            for i in range(3):
                w = perturbed_sample(x_tanh[i], v)
                total += -240.0 + cfg.c * hinge(model.logits(w), y[i], cfg.kappa, "untargeted")
            return total

        v_after = res.perturbation.v_tanh
        for j in rng.choice(d, size=6, replace=False):
            e = np.zeros(d)
            e[j] = step
            g = (total_objective(e) - total_objective(-e)) / (2 * step)
            expected = -adam.lr * g / (abs(g) + _EPS)
            assert v_after[j] == pytest.approx(expected, rel=1e-3)

    def test_spl_never_exceeds_objective_at_zero_kappa(self, victim, train_xy):
        x, y = train_xy
        cfg = PenaltyConfig(c=20.0, kappa=0.0, min_iters=30, max_iters=30, seed=0)
        res = penalty_uap(victim, x, y, cfg)
        assert len(res.trace) == 30
        for record in res.trace:
            floor = record["spl_vprime"]
            assert record["loss_min"] >= floor - 1e-9 * abs(floor)
            assert record["hinge_mean"] >= 0.0

    def test_converges_on_victim_training_set(self, victim, train_xy, test_xy):
        x, y = train_xy
        res = penalty_uap(victim, x, y, PenaltyConfig(c=20.0, seed=0))
        assert res.converged
        assert res.asr_trace[-1] >= 0.9
        assert res.perturbation.train_asr == max(res.asr_trace)
        assert len(res.asr_trace) == res.iterations + 1
        from uapaudio import evaluate_uap

        assert evaluate_uap(victim, test_xy, res.perturbation).test_asr >= 0.8

    def test_capped_craft_keeps_its_best_iterate(self, victim, train_xy):
        # at the default c this craft's best rate comes early (0.044 after update 1) and then falls
        x, y = train_xy
        res = penalty_uap(victim, x, y, PenaltyConfig(max_iters=6))
        rates = res.asr_trace
        best = max(range(len(rates)), key=lambda k: (rates[k], k))  # ties go to the latest
        assert not res.converged and 0 < best < res.iterations == 6
        assert res.perturbation.train_asr == rates[best] > rates[-1]
        # the kept vector is the iterate after update `best`: a craft capped there ends on it
        rerun = penalty_uap(victim, x, y, PenaltyConfig(max_iters=best))
        assert rerun.perturbation.v_tanh.tobytes() == res.perturbation.v_tanh.tobytes()

    def test_single_sample_flips_itself(self, victim, train_xy):
        x, y = train_xy
        i = 0
        cfg = PenaltyConfig(c=20.0, kappa=90.0, batch_size=1, max_iters=50, seed=0)
        res = penalty_uap(victim, x[i : i + 1], y[i : i + 1], cfg)
        assert res.converged
        from uapaudio import applied_perturbation

        perturbed = x[i] + applied_perturbation(x[i], res.perturbation)[0]
        assert int(victim.predict(perturbed)) != int(y[i])

    def test_targeted_converges(self, victim, train_xy):
        x, y = train_xy
        keep = y != 2
        cfg = PenaltyConfig(mode="targeted", target=2, c=20.0, kappa=10.0,
                            max_iters=100, seed=0)
        res = penalty_uap(victim, x[keep], None, cfg)
        assert res.converged
        assert res.perturbation.mode == "targeted" and res.perturbation.target == 2

    def test_projection_bound_honored(self, victim, train_xy):
        x, y = train_xy
        cfg = PenaltyConfig(c=20.0, max_iters=15, min_iters=15,
                            project=(np.inf, 0.05), seed=0)
        res = penalty_uap(victim, x[:30], y[:30], cfg)
        assert np.max(np.abs(res.perturbation.v_signal - 0.5)) <= 0.05 + 1e-9
        assert res.perturbation.params["projection"] == ["inf", 0.05]

    def test_deterministic_given_seed(self, victim, train_xy):
        x, y = train_xy
        cfg = PenaltyConfig(c=20.0, max_iters=8, min_iters=8, seed=4)
        a = penalty_uap(victim, x[:20], y[:20], cfg)
        b = penalty_uap(victim, x[:20], y[:20], cfg)
        np.testing.assert_array_equal(a.perturbation.v_tanh, b.perturbation.v_tanh)
        assert a.asr_trace == b.asr_trace

    def test_recorded_params(self, victim, train_xy):
        x, y = train_xy
        res = penalty_uap(victim, x[:5], y[:5], PenaltyConfig(delta=1.0))
        assert set(res.perturbation.params) == {"c", "kappa", "S", "lr", "epsilon",
                                                "projection"}
        assert res.perturbation.method == "penalty"

    def test_does_not_mutate_model(self, victim, train_xy):
        x, y = train_xy
        before = victim.parameter_vector().copy()
        penalty_uap(victim, x[:10], y[:10], PenaltyConfig(c=20.0, max_iters=3, min_iters=3))
        np.testing.assert_array_equal(victim.parameter_vector(), before)

    def test_validation(self, victim, train_xy):
        x, y = train_xy
        with pytest.raises(InvalidInputError):
            penalty_uap(victim, x[:4], y[:3], PenaltyConfig())
        with pytest.raises(InvalidInputError):
            penalty_uap(victim, np.zeros((0, 8)), None,
                        PenaltyConfig(mode="targeted", target=0))


def test_untargeted_default_floor_converges_where_kappa_40_stalled():
    """On the desk victim (seed 0, 30 epochs) the untargeted c=50 craft at
    craft seed 27 stalled at its 100-step cap under the old floor kappa=40,
    with one class never fooled; the default floor kappa=0 converges."""
    ds = generate_synthetic_dataset(3, 200, 4096, seed=0, test_per_class=100)
    model = build_victim("rand-cnn", 4096, 3, seed=0)
    train(model, ds, epochs=30, seed=0)
    x, y = ds.arrays("train")
    res = penalty_uap(model, x, y, PenaltyConfig(c=50.0, seed=27))
    assert res.converged and res.perturbation.train_asr >= 0.9
    assert res.iterations < 30
