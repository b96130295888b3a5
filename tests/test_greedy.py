"""Greedy universal perturbation: projection, success rates, crafting loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uapaudio import (
    GreedyConfig,
    InvalidInputError,
    asr,
    build_victim,
    ddn_minimal_perturbation,
    greedy_uap,
    project_lp,
    train,
)

from oracles import linear_victim_from_params

vectors = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=32
).map(np.asarray)


def two_class_model(w, b):
    return linear_victim_from_params(np.column_stack([w, -w]), np.array([b, -b]))


class TestProjectLp:
    def test_inf_ball_clips(self):
        out = project_lp(np.array([0.5, -0.5, 0.1]), np.inf, 0.2)
        np.testing.assert_allclose(out, [0.2, -0.2, 0.1])

    def test_l2_ball_rescales(self):
        out = project_lp(np.array([3.0, 4.0]), 2, 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8])

    def test_inside_ball_unchanged(self):
        v = np.array([0.05, -0.03])
        np.testing.assert_array_equal(project_lp(v, 2, 1.0), v)
        np.testing.assert_array_equal(project_lp(v, np.inf, 0.1), v)

    @given(vectors, st.sampled_from([2.0, np.inf]), st.floats(min_value=0.01, max_value=5.0))
    def test_idempotent_and_bounded(self, v, p, xi):
        once = project_lp(v, p, xi)
        np.testing.assert_allclose(project_lp(once, p, xi), once, atol=1e-12)
        norm = np.linalg.norm(once) if p == 2 else np.max(np.abs(once))
        assert norm <= xi * (1.0 + 1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            project_lp(np.ones(3), 2, 0.0)
        with pytest.raises(InvalidInputError):
            project_lp(np.ones(3), 3, 1.0)


class TestAsr:
    def test_zero_perturbation_is_zero_rate(self, rng):
        model = two_class_model(rng.normal(size=8), 0.0)
        x = rng.uniform(0, 1, (10, 8))
        assert asr(model, x, "untargeted", model.predict(x)) == 0.0

    def test_counts_flipped_fraction(self, rng):
        # move half the samples across the hyperplane x0 = 0.5
        w = np.zeros(8)
        w[0] = 1.0
        model = two_class_model(w, -0.5)
        x = np.full((4, 8), 0.5)
        x[:, 0] = [0.6, 0.7, 0.2, 0.1]  # classes 0, 0, 1, 1
        v = np.zeros(8)
        v[0] = -0.25  # flips the 0.6 and 0.7 rows only
        assert asr(model, np.clip(x + v, 0.0, 1.0), "untargeted", model.predict(x)) == pytest.approx(0.5)

    def test_targeted_rate(self, rng):
        w = np.zeros(4)
        w[0] = 1.0
        model = two_class_model(w, -0.5)
        x = np.full((3, 4), 0.5)
        x[:, 0] = [0.9, 0.8, 0.1]
        assert asr(model, x, "targeted", np.zeros(3, dtype=int)) == pytest.approx(2 / 3)

    def test_explicit_reference_labels(self, rng):
        w = np.zeros(4)
        w[0] = 1.0
        model = two_class_model(w, -0.5)
        x = np.full((2, 4), 0.5)
        x[:, 0] = [0.9, 0.1]
        # against ground truth [0, 0]: the second sample is already "fooled"
        rate = asr(model, x, "untargeted", np.array([0, 0]))
        assert rate == pytest.approx(0.5)

    def test_validation(self, rng):
        model = two_class_model(rng.normal(size=4), 0.0)
        with pytest.raises(InvalidInputError):
            asr(model, np.zeros((0, 4)), "untargeted", np.zeros(0, dtype=int))


class TestGreedyLoop:
    def test_delta_one_returns_immediately(self, rng):
        model = two_class_model(rng.normal(size=8), 0.1)
        x = rng.uniform(0.3, 0.7, (5, 8))
        res = greedy_uap(model, x, GreedyConfig(delta=1.0))
        assert res.converged and res.inner_calls == 0
        assert res.asr_trace == [0.0]
        np.testing.assert_array_equal(res.perturbation.v_signal, np.zeros(8))

    def test_identical_samples_need_one_inner_call(self, rng):
        w = rng.normal(size=8)
        x0 = rng.uniform(0.4, 0.6, 8)
        b = 0.05 * np.linalg.norm(w) - w @ x0  # margin 0.05, within xi
        model = two_class_model(w, b)
        x = np.tile(x0, (6, 1))
        res = greedy_uap(model, x, GreedyConfig(seed=3))
        assert res.converged and res.inner_calls == 1
        assert res.asr_trace == [0.0, 1.0]

    def test_single_sample_reduces_to_inner_attack(self, rng):
        w = rng.normal(size=16)
        x0 = rng.uniform(0.4, 0.6, 16)
        b = 0.08 * np.linalg.norm(w) - w @ x0
        model = two_class_model(w, b)
        cfg = GreedyConfig(p=2.0, xi=100.0)  # projection inactive
        res = greedy_uap(model, x0[None, :], cfg)
        direct = ddn_minimal_perturbation(model, x0, steps=cfg.inner_steps)
        np.testing.assert_array_equal(res.perturbation.v_signal, direct.delta)

    def test_norm_constraint_honored(self, victim, train_xy):
        x, _ = train_xy
        res = greedy_uap(victim, x[:12], GreedyConfig(max_epochs=2))
        assert np.linalg.norm(res.perturbation.v_signal, np.inf) <= 0.2 + 1e-9
        res2 = greedy_uap(victim, x[:12], GreedyConfig(p=2.0, xi=1.5, max_epochs=2))
        assert np.linalg.norm(res2.perturbation.v_signal) <= 1.5 + 1e-9

    def test_deterministic_given_seed(self, victim, train_xy):
        x, _ = train_xy
        cfg = GreedyConfig(seed=5, max_epochs=2)
        a = greedy_uap(victim, x[:9], cfg)
        b = greedy_uap(victim, x[:9], GreedyConfig(seed=5, max_epochs=2))
        np.testing.assert_array_equal(a.perturbation.v_signal, b.perturbation.v_signal)
        assert a.asr_trace == b.asr_trace and a.inner_calls == b.inner_calls

    def test_untargeted_converges_on_victim(self, victim, train_xy):
        x, _ = train_xy
        res = greedy_uap(victim, x[::6], GreedyConfig(seed=0))
        assert res.converged
        assert res.asr_trace[-1] >= 0.9
        assert res.perturbation.method == "greedy"
        assert res.perturbation.train_asr == res.asr_trace[-1]

    def test_targeted_converges_on_victim(self, victim, train_xy):
        x, _ = train_xy
        res = greedy_uap(victim, x[::6], GreedyConfig(mode="targeted", target=1, seed=0))
        assert res.converged
        perturbed = np.clip(x[::6] + res.perturbation.v_signal, 0.0, 1.0)
        assert asr(victim, perturbed, "targeted", np.ones(len(perturbed), dtype=int)) >= 0.9
        assert res.perturbation.mode == "targeted" and res.perturbation.target == 1

    def test_does_not_mutate_model(self, victim, train_xy):
        x, _ = train_xy
        before = victim.parameter_vector().copy()
        greedy_uap(victim, x[:6], GreedyConfig(max_epochs=1))
        np.testing.assert_array_equal(victim.parameter_vector(), before)

    def test_epoch_cap_without_convergence(self, victim, train_xy):
        x, _ = train_xy
        cfg = GreedyConfig(max_epochs=1, delta=0.01, inner_steps=2)
        res = greedy_uap(victim, x[:20], cfg)
        assert len(res.asr_trace) - 1 == 1
        assert not res.converged or res.asr_trace[-1] >= 0.99

    def test_capped_craft_keeps_its_best_walk(self, bandtone_ds, train_xy):
        # on this linear victim the rate falls after its first walk: the capped craft keeps that walk
        model = build_victim("linear", bandtone_ds.dim, bandtone_ds.num_classes, seed=0)
        train(model, bandtone_ds, epochs=25, seed=0)
        x, _ = train_xy
        res = greedy_uap(model, x[::6], GreedyConfig(max_epochs=3, seed=1, inner_steps=5))
        assert not res.converged and res.iterations == 3
        assert res.perturbation.train_asr == max(res.asr_trace) > res.asr_trace[-1]
        kept = np.clip(x[::6] + res.perturbation.v_signal, 0.0, 1.0)
        assert asr(model, kept, "untargeted", model.predict(x[::6])) == max(res.asr_trace)

    def test_targeted_craft_takes_its_goal_from_the_craft(self, victim, train_xy):
        # the inner config carries no goal of its own: naming it changes nothing
        x, _ = train_xy
        default = greedy_uap(victim, x[:6], GreedyConfig(mode="targeted", target=1, max_epochs=1))
        named = greedy_uap(victim, x[:6], GreedyConfig(mode="targeted", target=1, max_epochs=1,
                                                       inner_steps=50))
        np.testing.assert_array_equal(named.perturbation.v_signal, default.perturbation.v_signal)
        assert named.inner_calls == default.inner_calls > 0

    def test_validation(self, rng):
        model = two_class_model(rng.normal(size=8), 0.0)
        with pytest.raises(InvalidInputError):
            greedy_uap(model, np.zeros((0, 8)), GreedyConfig())
        with pytest.raises(InvalidInputError):
            greedy_uap(model, np.full((2, 8), 1.5), GreedyConfig())
        with pytest.raises(InvalidInputError):
            GreedyConfig(mode="targeted")
        with pytest.raises(InvalidInputError):
            GreedyConfig(p=1.0)
        with pytest.raises(InvalidInputError):
            GreedyConfig(delta=0.0)
        with pytest.raises(InvalidInputError):
            GreedyConfig(xi=-0.1)

    def test_recorded_params(self, rng):
        model = two_class_model(rng.normal(size=8), 0.2)
        res = greedy_uap(model, np.full((2, 8), 0.5), GreedyConfig(delta=1.0, seed=7))
        pert = res.perturbation
        assert pert.seed == 7 and pert.xi == 0.2 and np.isinf(pert.p)
        assert set(pert.params) == {"delta", "max_epochs", "inner_steps",
                                    "inner_init_norm", "inner_gamma"}
        # the radius schedule is fixed; greedy files still record it
        assert (pert.params["inner_init_norm"], pert.params["inner_gamma"]) == (0.2, 0.05)
