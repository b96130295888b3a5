"""Acceptance suite: one test per release gate, pinned tolerances.

Run with -v to get one pass/fail line per criterion. The desk-scale bundle
(4096-dim dataset, trained CNN victim) is built once and shared by the
end-to-end and small-sample criteria.
"""

import time

import numpy as np
import pytest

from uapaudio import (
    GreedyConfig,
    PenaltyConfig,
    build_victim,
    ddn_minimal_perturbation,
    evaluate_uap,
    generate_synthetic_dataset,
    greedy_uap,
    penalty_uap,
    project_lp,
    rel_loudness,
    to_tanh_space,
    train,
    two_proportion_z,
)
from uapaudio.cli import main as cli_main
from uapaudio.models import ARCHITECTURES, accuracy
from uapaudio.penalty import _hinge_batch, _objective
from uapaudio.tanhspace import perturbed_sample

from oracles import linear_victim_from_params, recover_vprime


# -- shared desk-scale bundle (criteria 5 and 6) -------------------------------

DESK_DIM = 4096
DESK_CLASSES = 3


@pytest.fixture(scope="module")
def desk_bundle():
    started = time.perf_counter()
    ds = generate_synthetic_dataset(DESK_CLASSES, 200, DESK_DIM, seed=0,
                                    test_per_class=100)
    model = build_victim("rand-cnn", DESK_DIM, DESK_CLASSES, seed=0)
    train(model, ds, epochs=30, seed=0)
    return {
        "ds": ds,
        "model": model,
        "train": ds.arrays("train"),
        "test": ds.arrays("test"),
        "setup_seconds": time.perf_counter() - started,
    }


def test_criterion_1_math_identities():
    """Transform round-trips, projection laws, hinge dichotomy. Under 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)

    # signal -> unconstrained -> signal round trip, 1000 vectors at 1e-6
    for _ in range(500):
        x = rng.uniform(0.0, 1.0, 64)
        back = perturbed_sample(to_tanh_space(x), np.zeros(64))
        assert np.max(np.abs(back - x)) <= 1e-6

    # perturbation recovery from the squashed sample, 1000 vectors at 1e-6
    for _ in range(500):
        x_tanh = to_tanh_space(rng.uniform(0.01, 0.99, 64))
        v = rng.uniform(-4.0, 4.0, 64)
        w = perturbed_sample(x_tanh, v)
        assert np.max(np.abs(recover_vprime(w, x_tanh) - v)) <= 1e-6

    # Lp projection: idempotent, inside the ball, no-op when already inside
    for _ in range(500):
        v = rng.normal(scale=2.0, size=32)
        for p in (2.0, np.inf):
            xi = float(rng.uniform(0.05, 3.0))
            once = project_lp(v, p, xi)
            norm = np.linalg.norm(once) if p == 2 else np.max(np.abs(once))
            assert norm <= xi * (1.0 + 1e-9)
            assert np.max(np.abs(project_lp(once, p, xi) - once)) <= 1e-9
            inside = once * 0.5
            np.testing.assert_array_equal(project_lp(inside, p, xi), inside)

    # hinge at kappa=0 vanishes exactly when the attack condition holds
    for _ in range(10_000):
        k = int(rng.integers(2, 9))
        logits = rng.uniform(-10.0, 10.0, k)
        ref = int(rng.integers(0, k))
        others = np.delete(logits, ref)
        untgt = _hinge_batch(logits[None], np.array([ref]), 0.0, "untargeted")[0][0]
        assert (untgt == 0.0) == (others.max() >= logits[ref])
        tgt = _hinge_batch(logits[None], np.array([ref]), 0.0, "targeted")[0][0]
        assert (tgt == 0.0) == (logits[ref] >= others.max())
        assert untgt >= 0.0 and tgt >= 0.0

    assert time.perf_counter() - started < 10.0


def _one_row_objective(model, x_tanh, v, ref):
    # L = SPL(v') + c * G(logits(squash(x' + v'))) at c = 1, kappa = 50
    spl_v, hinges, grad = _objective(model, x_tanh[None], v, np.array([ref]), 1.0, 50.0,
                                     "untargeted")
    return spl_v + 1.0 * hinges[0], grad


def test_criterion_2_objective_gradient():
    """Analytic gradient w.r.t. v', the one the penalty craft descends, vs
    central differences, 10 triples per architecture.

    Relative error below 1e-3 at step 1e-4, all under 60 s.
    """
    started = time.perf_counter()
    step = 1e-4
    rng = np.random.default_rng(7)
    for arch in ARCHITECTURES:
        for trial in range(10):
            model = build_victim(arch, 1024, 3, seed=100 + trial)
            x = rng.uniform(0.2, 0.8, 1024)
            x_tanh = to_tanh_space(x)
            v = rng.normal(scale=0.3, size=1024)
            ref = int(rng.integers(0, 3))
            _, grad = _one_row_objective(model, x_tanh, v, ref)
            for i in rng.choice(1024, size=3, replace=False):
                e = np.zeros(1024)
                e[i] = step
                hi, _ = _one_row_objective(model, x_tanh, v + e, ref)
                lo, _ = _one_row_objective(model, x_tanh, v - e, ref)
                fd = (hi - lo) / (2.0 * step)
                assert abs(grad[i] - fd) <= 1e-3 * max(abs(fd), 1e-6)
    assert time.perf_counter() - started < 60.0


def test_criterion_3_objective_dominates_loudness(victim, train_xy):
    """At kappa=0 and c>0 the hinge is non-negative, so every logged iterate
    of a 100-iteration penalty run satisfies L >= SPL(v') to 1e-9 relative."""
    x, y = train_xy
    cfg = PenaltyConfig(c=20.0, kappa=0.0, min_iters=100, max_iters=100, seed=0)
    res = penalty_uap(victim, x, y, cfg)
    assert len(res.trace) == 100
    for record in res.trace:
        floor = record["spl_vprime"]
        assert record["loss_min"] >= floor - 1e-9 * abs(floor)


def test_criterion_4_linear_oracles():
    """DDN norm within 5% of hyperplane distance; greedy aligns with the
    normal within 10 degrees."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = 32
        w = rng.normal(size=d)
        x = rng.uniform(0.35, 0.65, d)
        margin = float(rng.uniform(0.05, 0.35))
        b = margin * np.linalg.norm(w) - w @ x
        model = linear_victim_from_params(np.column_stack([w, -w]), np.array([b, -b]))
        res = ddn_minimal_perturbation(model, x, steps=60)
        assert res.success
        assert res.l2_norm <= 1.05 * margin
        assert res.l2_norm >= margin * (1.0 - 1e-9)

    d = 64
    w = rng.normal(size=d)
    x = 0.5 + rng.uniform(-0.005, 0.005, (10, d))
    b = 0.08 * np.linalg.norm(w) - float(np.max(x @ w))
    margins = (x @ w + b) / np.linalg.norm(w)
    assert np.all(margins > 0.0)
    model = linear_victim_from_params(np.column_stack([w, -w]), np.array([b, -b]))
    res = greedy_uap(model, x, GreedyConfig(p=2.0, xi=10.0, seed=0))
    assert res.converged
    v = res.perturbation.v_signal
    cosine = float(v @ (-w)) / (np.linalg.norm(v) * np.linalg.norm(w))
    assert cosine >= np.cos(np.deg2rad(10.0))


def test_criterion_5_desk_scale_end_to_end(desk_bundle):
    """Both crafting methods beat the gates on the 4096-dim victim inside the
    iteration caps: untargeted train ASR >= 0.9 and test ASR >= 0.8, targeted
    test ASR >= 0.7 for every class, applied-perturbation SNR > 10 dB, all
    within 10 minutes including dataset generation and training."""
    started = time.perf_counter()
    model, testset = desk_bundle["model"], desk_bundle["test"]
    x, y = desk_bundle["train"]

    assert accuracy(model, *testset) >= 0.95

    greedy_res = greedy_uap(model, x, GreedyConfig(seed=0))
    assert greedy_res.converged and greedy_res.perturbation.train_asr >= 0.9
    greedy_report = evaluate_uap(model, testset, greedy_res.perturbation)
    assert greedy_report.test_asr >= 0.8
    assert greedy_report.mean_snr_db > 10.0

    penalty_res = penalty_uap(model, x, y, PenaltyConfig(c=10.0, seed=0))
    assert penalty_res.converged and penalty_res.perturbation.train_asr >= 0.9
    penalty_report = evaluate_uap(model, testset, penalty_res.perturbation)
    assert penalty_report.test_asr >= 0.8
    assert penalty_report.mean_snr_db > 10.0

    for target in range(DESK_CLASSES):
        g = greedy_uap(model, x, GreedyConfig(mode="targeted", target=target, seed=0))
        g_report = evaluate_uap(model, testset, g.perturbation)
        assert g_report.test_asr >= 0.7
        assert g_report.mean_snr_db > 10.0
        p = penalty_uap(model, x, y, PenaltyConfig(mode="targeted", target=target,
                                                   c=5.0, seed=0))
        p_report = evaluate_uap(model, testset, p.perturbation)
        assert p_report.test_asr >= 0.7
        assert p_report.mean_snr_db > 10.0

    elapsed = desk_bundle["setup_seconds"] + (time.perf_counter() - started)
    assert elapsed < 600.0


def test_criterion_6_small_sample_superiority(desk_bundle):
    """With 1 or 5 crafting samples the penalty method's median test ASR over
    5 seeds is at least the greedy method's."""
    model, testset = desk_bundle["model"], desk_bundle["test"]
    x, y = desk_bundle["train"]
    n = x.shape[0]
    for m in (1, 5):
        greedy_rates = []
        penalty_rates = []
        for seed in range(5):
            idx = np.sort(np.random.default_rng(seed).permutation(n)[:m])
            g = greedy_uap(model, x[idx], GreedyConfig(seed=seed))
            greedy_rates.append(evaluate_uap(model, testset, g.perturbation).test_asr)
            cfg = PenaltyConfig(c=5.0, kappa=90.0, batch_size=min(m, 100),
                                min_iters=19, seed=seed)
            p = penalty_uap(model, x[idx], y[idx], cfg)
            penalty_rates.append(evaluate_uap(model, testset, p.perturbation).test_asr)
        assert np.median(penalty_rates) >= np.median(greedy_rates)


def test_criterion_7_significance_reference_rows():
    """All 12 published success-rate pairs reproduce their Z values within
    0.01, in under a second."""
    started = time.perf_counter()
    rows = [
        # targeted
        (0.672, 0.854, 874, -8.946),
        (0.795, 0.888, 874, -5.323),
        (0.767, 0.877, 874, -6.011),
        (0.899, 0.971, 874, -6.105),
        (0.872, 0.898, 874, -1.703),
        (0.850, 0.855, 158537, -3.969),
        # untargeted
        (0.412, 0.876, 874, -20.257),
        (0.737, 0.858, 874, -6.294),
        (0.669, 0.831, 874, -7.820),
        (0.886, 0.919, 874, -2.325),
        (0.838, 0.865, 874, -1.587),
        (0.834, 0.875, 158537, -32.737),
    ]
    for p_l, p_h, m, expected in rows:
        assert two_proportion_z(p_l, p_h, m).z == pytest.approx(expected, abs=0.01)
    assert time.perf_counter() - started < 1.0


def test_criterion_8_loudness_anchor():
    """A 0.12-amplitude clipped perturbation against a unit-peak signal sits
    at -18.416 dB relative loudness."""
    x = np.array([1.0, 0.4, 0.2, 0.7])
    v = np.array([0.12, -0.12, 0.12, 0.03])
    assert rel_loudness(x, v) == pytest.approx(-18.416, abs=1e-3)


def test_criterion_9_cli_determinism(tmp_path):
    """The same seeded CLI pipeline run twice, in two directories, produces
    byte-identical artifacts: dataset files, checkpoints, perturbations,
    reports and run manifests."""
    def run_pipeline(root):
        root.mkdir()
        data, model = root / "data", root / "victim.uapc"
        assert cli_main(["gen-data", "--classes", "2", "--per-class", "12",
                         "--dim", "256", "--test-per-class", "6", "--seed", "0",
                         "--out", str(data)]) == 0
        assert cli_main(["train-victim", "--arch", "linear", "--data", str(data),
                         "--epochs", "40", "--lr", "0.01", "--batch", "8",
                         "--seed", "0", "--out", str(model)]) == 0
        for method in ("greedy", "penalty"):
            assert cli_main(["craft", "--method", method, "--mode", "untargeted",
                             "--c", "20", "--iters", "50", "--seed", "0",
                             "--model", str(model), "--data", str(data),
                             "--out", str(root / f"{method}.uapc")]) == 0
            assert cli_main(["evaluate", "--model", str(model), "--data", str(data),
                             "--pert", str(root / f"{method}.uapc"),
                             "--report", str(root / f"{method}.csv")]) == 0

    run_pipeline(tmp_path / "first")
    run_pipeline(tmp_path / "second")

    artifacts = ["data/labels.csv", "data/manifest.json", "data/train_00_00000.wav",
                 "data/test_01_00006.wav", "victim.uapc", "greedy.uapc",
                 "penalty.uapc", "greedy.csv", "penalty.csv",
                 "data/run.json", "victim.uapc.run.json", "greedy.uapc.run.json",
                 "penalty.uapc.run.json", "greedy.csv.run.json", "penalty.csv.run.json"]
    for rel in artifacts:
        first = (tmp_path / "first" / rel).read_bytes()
        second = (tmp_path / "second" / rel).read_bytes()
        assert first == second, f"artifact differs between runs: {rel}"
