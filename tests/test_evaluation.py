"""Evaluation harness: reports, transfer, sweeps, significance test."""

import tracemalloc

import numpy as np
import pytest

from uapaudio import (
    ARCHITECTURES,
    DegenerateVarianceError,
    GreedyConfig,
    InvalidInputError,
    PenaltyConfig,
    Perturbation,
    applied_perturbation,
    build_victim,
    evaluate_uap,
    greedy_uap,
    load_model,
    load_perturbation,
    penalty_uap,
    report_summary,
    rows_to_csv,
    save_model,
    save_perturbation,
    single_sample_attack,
    sweep_confidence,
    sweep_datacount,
    transfer_matrix,
    two_proportion_z,
)
from uapaudio.audio import rel_loudness, snr
from uapaudio.container import read_csv
from uapaudio.evaluation import REPORT_COLUMNS
from uapaudio.models import _row_blocks
from uapaudio.exceptions import UndefinedMetricError

from oracles import linear_victim_from_params


def axis_model():
    """Two-class threshold on coordinate 0 at 0.5."""
    w = np.zeros(8)
    w[0] = 1.0
    return linear_victim_from_params(np.column_stack([w, -w]), np.array([-0.5, 0.5]))


def axis_samples():
    x = np.full((4, 8), 0.5)
    x[:, 0] = [0.9, 0.7, 0.2, 0.1]
    y = np.array([0, 0, 1, 1])
    return x, y


class TestTwoProportionZ:
    # published success-rate pairs with known pooled-variance Z values
    @pytest.mark.parametrize("p_l,p_h,m,expected", [
        (0.672, 0.854, 874, -8.946),
        (0.795, 0.888, 874, -5.323),
        (0.412, 0.876, 874, -20.257),
        (0.850, 0.855, 158537, -3.969),
    ])
    def test_reference_values(self, p_l, p_h, m, expected):
        res = two_proportion_z(p_l, p_h, m)
        assert res.z == pytest.approx(expected, abs=1e-3)
        assert res.reject

    def test_critical_value(self):
        res = two_proportion_z(0.4, 0.5, 100, alpha=0.057)
        assert res.z_alpha == pytest.approx(1.580466818399361, abs=1e-12)
        assert res.alpha == 0.057

    def test_accept_when_close(self):
        res = two_proportion_z(0.50, 0.51, 100)
        assert not res.reject

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            two_proportion_z(0.0, 0.0, 10)
        with pytest.raises(DegenerateVarianceError):
            two_proportion_z(1.0, 1.0, 10)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            two_proportion_z(0.9, 0.5, 10)
        with pytest.raises(InvalidInputError):
            two_proportion_z(0.4, 0.5, 0)
        with pytest.raises(InvalidInputError):
            two_proportion_z(0.4, 0.5, 10, alpha=1.0)


class TestAppliedPerturbation:
    def test_additive_path_is_clipped_difference(self):
        x = np.array([[0.9, 0.5, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5]])
        pert = Perturbation(v_signal=np.full(8, 0.2), mode="untargeted")
        out = applied_perturbation(x, pert)
        np.testing.assert_allclose(out[0, 0], 0.1)  # clipped at 1
        np.testing.assert_allclose(out[0, 1:], 0.2)

    def test_tanh_path_matches_squash(self, rng):
        from uapaudio.tanhspace import perturbed_sample, to_tanh_space

        x = rng.uniform(0.2, 0.8, (3, 8))
        v_tanh = rng.normal(scale=0.4, size=8)
        pert = Perturbation(v_tanh=v_tanh, mode="untargeted")
        out = applied_perturbation(x, pert)
        np.testing.assert_array_equal(out, perturbed_sample(to_tanh_space(x), v_tanh) - x)

    def test_dimension_mismatch(self):
        pert = Perturbation(v_signal=np.zeros(4), mode="untargeted")
        with pytest.raises(InvalidInputError):
            applied_perturbation(np.zeros((2, 5)), pert)


class TestEvaluateUap:
    def test_closed_form_success_rate(self):
        model = axis_model()
        x, y = axis_samples()
        v = np.zeros(8)
        v[0] = -0.25  # pushes the 0.7 row across the threshold, 0.9 stays
        pert = Perturbation(v_signal=v, mode="untargeted")
        report = evaluate_uap(model, (x, y), pert)
        assert report.test_asr == pytest.approx(0.25)
        assert len(report.rows) == 4
        # the report's own rows recount to the same rate
        flipped = sum(r["clean_pred"] != r["perturbed_pred"] for r in report.rows)
        assert flipped / len(report.rows) == report.test_asr

    def test_zero_perturbation_scores_zero(self):
        model = axis_model()
        x, y = axis_samples()
        pert = Perturbation(v_signal=np.zeros(8), mode="untargeted")
        report = evaluate_uap(model, (x, y), pert)
        assert report.test_asr == 0.0
        assert np.isnan(report.mean_l_db)
        assert report.mean_snr_db > 60.0
        summary = report_summary(report)
        assert summary["mean_l_db"] is None and summary["samples"] == 4

    def test_targeted_rate(self):
        model = axis_model()
        x, y = axis_samples()
        v = np.zeros(8)
        v[0] = 1.0  # saturates coordinate 0, everything classifies as 0
        pert = Perturbation(v_signal=v, mode="targeted", target=0)
        report = evaluate_uap(model, (x, y), pert)
        assert report.test_asr == 1.0
        assert report.mode == "targeted"

    def test_validation(self):
        model = axis_model()
        x, y = axis_samples()
        pert = Perturbation(v_signal=np.zeros(8), mode="untargeted")
        with pytest.raises(InvalidInputError):
            evaluate_uap(model, (np.zeros((0, 8)), None), pert)
        with pytest.raises(InvalidInputError):
            evaluate_uap(model, (x, y[:2]), pert)

    def test_report_csv_round_trip(self, tmp_path):
        # one row the perturbation flips, and one (all 1.0) that nothing can be added to: l_db is nan
        model = axis_model()
        x, y = axis_samples()
        x[3] = 1.0
        v = np.zeros(8)
        v[0], v[1] = -0.25, 0.1
        report = evaluate_uap(model, (x, y), Perturbation(v_signal=v, mode="untargeted"))
        assert [list(r) for r in report.rows] == [list(REPORT_COLUMNS)] * 4
        f = tmp_path / "report.csv"
        rows_to_csv(report.rows, f)
        header, rows = read_csv(f)
        assert header == list(REPORT_COLUMNS)
        assert [float(r[3]) for r in rows] == [r["snr_db"] for r in report.rows]
        # exact bytes: a change to the row order, the key order or the cell rule shows here
        assert f.read_bytes() == (b"sample_id,clean_pred,perturbed_pred,snr_db,l_db\n"
                                  b"0,0,0,15.479019587408555,-19.084850188786497\n"
                                  b"1,0,1,14.89910011763169,-16.901960800285135\n"
                                  b"2,1,1,15.538830266438742,-13.979400086720375\n"
                                  b"3,0,0,21.072099696478684,nan\n")


def _whole_batch_report(model, x, pert):
    """evaluate_uap's rows and (test_asr, mean_snr_db, mean_l_db) from the whole perturbed batch at once."""
    applied = applied_perturbation(x, pert)
    clean, adv = model.predict(x), model.predict(x + applied)
    rows = []
    for i in range(len(x)):
        try:
            l_db = rel_loudness(x[i], applied[i])
        except UndefinedMetricError:
            l_db = float("nan")
        rows.append((i, clean[i], adv[i], snr(x[i], applied[i]), l_db))
    fooled = adv == pert.target if pert.mode == "targeted" else adv != clean
    snrs, l_dbs = np.array([r[3] for r in rows]), np.array([r[4] for r in rows])
    finite = l_dbs[np.isfinite(l_dbs)]
    return rows, (np.mean(fooled), np.mean(snrs), np.mean(finite) if finite.size else float("nan"))


class TestBlockwiseEvaluation:
    """evaluate_uap perturbs and scores one row block at a time; every number is the whole batch's."""

    @pytest.mark.parametrize("mode", ["untargeted", "targeted"])
    @pytest.mark.parametrize("method", ["greedy", "penalty"])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_equal_to_the_whole_batch(self, arch, method, mode):
        model = build_victim(arch, 1024, 3, seed=2)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (300, 1024))
        x[::7] = 1.0  # nothing can be added to these rows, so their l_db is nan
        vector = ({"v_signal": rng.uniform(-0.1, 0.1, 1024)} if method == "greedy"
                  else {"v_tanh": rng.normal(0.0, 0.5, 1024)})
        pert = Perturbation(mode=mode, target=1 if mode == "targeted" else None, **vector)
        for n in (1, 31, 32, 33, 65, 300):
            report = evaluate_uap(model, (x[:n], None), pert)
            rows, summary = _whole_batch_report(model, x[:n], pert)
            assert np.array([tuple(r.values()) for r in report.rows]).tobytes() \
                == np.array(rows, dtype=float).tobytes(), n
            assert np.array([report.test_asr, report.mean_snr_db, report.mean_l_db]).tobytes() \
                == np.array(summary).tobytes(), n
            assert (report.mode, report.method, report.train_asr) == (mode, method, None)

    def test_peak_memory_holds_no_perturbed_copy(self):
        # 1,500 rows of d=4096 are 47 MiB; the perturbed rows exist 32 at a time
        model = build_victim("rand-cnn", 4096, 3, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (1500, 4096))
        pert = Perturbation(v_tanh=rng.normal(0.0, 0.1, 4096), mode="untargeted")
        evaluate_uap(model, (x, None), pert)  # untraced: the first call pays one-time allocations
        tracemalloc.start()
        try:
            evaluate_uap(model, (x, None), pert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4


class TestRowOracle:
    """Each row's snr_db and l_db are the one-row metrics of that row's applied perturbation, bit for bit."""

    @pytest.mark.parametrize("vector", ["greedy", "penalty", "zero"])
    def test_rows_equal_the_one_row_metrics(self, vector):
        model = build_victim("linear", 512, 3, seed=0)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (70, 512))
        x[5] = 1.0  # no applied entry can be positive: l_db is nan
        assert [len(block) for (block,) in _row_blocks(x)] == [24, 23, 23]
        pert = Perturbation(mode="untargeted", **{
            "greedy": {"v_signal": rng.uniform(-0.1, 0.1, 512)},
            "penalty": {"v_tanh": rng.normal(0.0, 0.5, 512)},
            "zero": {"v_signal": np.zeros(512)},  # every row's perturbation sits at the SPL floor
        }[vector])
        report = evaluate_uap(model, (x, None), pert)
        assert len(report.rows) == 70 and np.isnan(report.rows[5]["l_db"])
        for row, xi in zip(report.rows, x):
            (applied,) = applied_perturbation(xi, pert)
            try:
                l_db = rel_loudness(xi, applied)
            except UndefinedMetricError:
                l_db = float("nan")
            assert np.float64(row["snr_db"]).tobytes() == np.float64(snr(xi, applied)).tobytes(), row
            assert np.float64(row["l_db"]).tobytes() == np.float64(l_db).tobytes(), row


def _craft(model, x, method, mode):
    target = 1 if mode == "targeted" else None
    if method == "greedy":
        return greedy_uap(model, x, GreedyConfig(mode=mode, target=target, max_epochs=1, seed=0))
    return penalty_uap(model, x, None, PenaltyConfig(mode=mode, target=target, c=10.0, max_iters=20, seed=0))


class TestSavedArtifacts:
    @pytest.mark.parametrize("mode", ["untargeted", "targeted"])
    @pytest.mark.parametrize("method", ["greedy", "penalty"])
    def test_loaded_victim_and_perturbation_file_reproduce_train_asr(self, method, mode, victim, train_xy,
                                                                     tmp_path):
        # points on the victim's decision boundaries, found by bisection, tell a
        # loaded victim whose logits moved in their last bits from the trained one
        x = train_xy[0]
        edges = []
        for a, b in [(x[0], x[70]), (x[0], x[150]), (x[70], x[150])]:
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if victim.predict((1 - mid) * a + mid * b) == victim.predict(a) else (lo, mid)
            edges += [(1 - lo) * a + lo * b, (1 - hi) * a + hi * b]
        crafting = np.vstack([x, edges])
        result = _craft(victim, crafting, method, mode)
        save_model(victim, tmp_path / "m.uapc")
        save_perturbation(result.perturbation, tmp_path / "p.uapc")
        pert = load_perturbation(tmp_path / "p.uapc")
        report = evaluate_uap(load_model(tmp_path / "m.uapc"), (crafting, None), pert)
        assert report.test_asr == pert.train_asr == result.perturbation.train_asr


class TestUntargetedReference:
    def test_every_path_escapes_the_clean_prediction(self):
        # two of the four labels are swapped, so the victim gets half the set
        # wrong; penalty, greedy and evaluate all judge untargeted success
        # against its clean predictions, so before any update nothing is fooled
        model = axis_model()
        x, y = axis_samples()
        y = y[[2, 1, 0, 3]]
        assert np.mean(model.predict(x) != y) == 0.5
        cfg = PenaltyConfig(c=20.0, max_iters=5, seed=0)
        penalty = penalty_uap(model, x, y, cfg)
        greedy = greedy_uap(model, x, GreedyConfig(max_epochs=1, seed=0))
        assert penalty.asr_trace[0] == 0.0 == greedy.asr_trace[0]
        assert evaluate_uap(model, (x, y), penalty.perturbation).test_asr == \
            penalty.perturbation.train_asr
        # the labels are only checked for alignment: without them the craft is the same
        unlabeled = penalty_uap(model, x, None, cfg)
        assert unlabeled.asr_trace == penalty.asr_trace
        np.testing.assert_array_equal(unlabeled.perturbation.v_tanh, penalty.perturbation.v_tanh)


class TestTransfer:
    def test_matrix_layout_and_diagonal(self):
        models = [axis_model(), axis_model()]
        v = np.zeros(8)
        v[0] = -0.25
        perts = [Perturbation(v_signal=v, mode="untargeted") for _ in range(2)]
        x, y = axis_samples()
        rows = transfer_matrix(models, perts, (x, y), labels=["a", "b"])
        assert [list(row) for row in rows] == [["source\\victim", "a", "b"]] * 2
        assert [row["source\\victim"] for row in rows] == ["a", "b"]
        assert rows[0]["a"] is None and rows[1]["b"] is None
        # identical source/victim pairs transfer symmetrically
        assert rows[0]["b"] == rows[1]["a"] == pytest.approx(0.25)

    def test_default_labels(self):
        models = [axis_model(), axis_model()]
        perts = [Perturbation(v_signal=np.zeros(8), mode="untargeted")] * 2
        rows = transfer_matrix(models, perts, axis_samples())
        assert list(rows[0])[1:] == ["linear-0", "linear-1"]

    def test_csv_blank_diagonal(self, tmp_path):
        v = np.zeros(8)
        v[0], v[1] = -0.25, 0.1
        perts = [Perturbation(v_signal=v, mode="untargeted"), Perturbation(v_signal=np.zeros(8), mode="untargeted")]
        f = tmp_path / "t.csv"
        rows_to_csv(transfer_matrix([axis_model()] * 2, perts, axis_samples(), labels=["a", "b"]), f)
        # exact bytes, blank diagonal included
        assert f.read_bytes() == b"source\\victim,a,b\na,,0.25\nb,0.0,\n"

    def test_validation(self):
        model = axis_model()
        pert = Perturbation(v_signal=np.zeros(8), mode="untargeted")
        with pytest.raises(InvalidInputError):
            transfer_matrix([model], [pert], axis_samples())
        with pytest.raises(InvalidInputError):
            transfer_matrix([model, model], [pert], axis_samples())
        small = linear_victim_from_params(np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(InvalidInputError):
            transfer_matrix([model, small], [pert, pert], axis_samples())

    def test_one_label_per_model(self):
        # one label for two models would write a ragged CSV, three would fail it with an IndexError
        models = [axis_model(), axis_model()]
        perts = [Perturbation(v_signal=np.zeros(8), mode="untargeted")] * 2
        for labels in (["a"], ["a", "b", "c"]):
            with pytest.raises(InvalidInputError, match="labels for 2 models"):
                transfer_matrix(models, perts, axis_samples(), labels=labels)

    @pytest.mark.parametrize("labels", [["a", "a"], ["source\\victim", "b"]], ids=["repeated", "corner"])
    def test_labels_name_distinct_columns(self, labels):
        # a repeated label, or one equal to the corner cell, would merge two columns of a row dict
        perts = [Perturbation(v_signal=np.zeros(8), mode="untargeted")] * 2
        with pytest.raises(InvalidInputError, match="repeat a label"):
            transfer_matrix([axis_model()] * 2, perts, axis_samples(), labels=labels)


class TestSweeps:
    def test_confidence_sweep_matches_direct_run(self, victim, train_xy, test_xy):
        x, y = train_xy
        base = PenaltyConfig(c=20.0, max_iters=8, min_iters=8, seed=0)
        rows = sweep_confidence(victim, x[:20], test_xy, kappa_grid=[40.0], cfg=base)
        assert len(rows) == 1
        assert rows[0]["kappa"] == 40.0
        direct = penalty_uap(victim, x[:20], y[:20], base)
        assert rows[0]["test_asr"] == evaluate_uap(victim, test_xy, direct.perturbation).test_asr
        assert rows[0]["train_asr"] == direct.perturbation.train_asr

    def test_confidence_rows_and_csv(self, victim, train_xy, test_xy, tmp_path):
        x, _ = train_xy
        base = PenaltyConfig(c=20.0, max_iters=2, min_iters=2, seed=0)
        rows = sweep_confidence(victim, x[:10], test_xy, kappa_grid=[0.0, 40.0], cfg=base)
        assert [r["kappa"] for r in rows] == [0.0, 40.0]
        f = tmp_path / "sweep.csv"
        rows_to_csv(rows, f)
        header, body = read_csv(f)
        assert header == ["kappa", "train_asr", "test_asr", "mean_snr_db", "mean_l_db"]
        assert len(body) == 2

    def test_empty_grid_rejected(self, victim, train_xy, test_xy, tmp_path):
        x, _ = train_xy
        with pytest.raises(InvalidInputError):
            sweep_confidence(victim, x[:5], test_xy, kappa_grid=[])
        with pytest.raises(InvalidInputError, match="no rows"):
            rows_to_csv([], tmp_path / "unused.csv")
        assert not (tmp_path / "unused.csv").exists()

    def test_datacount_full_set_equals_direct_craft(self, victim, train_xy, test_xy):
        x, y = train_xy
        n = 12
        greedy_cfg = GreedyConfig(seed=0, max_epochs=3)
        penalty_cfg = PenaltyConfig(c=20.0, max_iters=5, min_iters=5, seed=0)
        rows = sweep_datacount(victim, x[:n], test_xy, m_grid=[n],
                               greedy_cfg=greedy_cfg, penalty_cfg=penalty_cfg)
        assert [(r["method"], r["m"]) for r in rows] == [("greedy", n), ("penalty", n)]
        assert list(rows[0]) == ["method", "m", "train_asr", "test_asr", "mean_snr_db",
                                 "mean_l_db"]
        g_direct = greedy_uap(victim, x[:n], greedy_cfg)
        assert rows[0]["test_asr"] == \
            evaluate_uap(victim, test_xy, g_direct.perturbation).test_asr
        # the sweep crafts without labels; a labeled direct craft is the same
        p_direct = penalty_uap(victim, x[:n], y[:n], penalty_cfg)
        assert rows[1]["train_asr"] == p_direct.perturbation.train_asr
        assert rows[1]["test_asr"] == \
            evaluate_uap(victim, test_xy, p_direct.perturbation).test_asr

    def test_datacount_grid_filtered_to_feasible(self, victim, train_xy, test_xy):
        x, _ = train_xy
        greedy_cfg = GreedyConfig(seed=0, max_epochs=1)
        penalty_cfg = PenaltyConfig(c=20.0, max_iters=1, seed=0)
        rows = sweep_datacount(victim, x[:6], test_xy, m_grid=[3, 999, 10**400],
                               greedy_cfg=greedy_cfg, penalty_cfg=penalty_cfg)
        assert sorted({r["m"] for r in rows}) == [3]
        with pytest.raises(InvalidInputError):
            sweep_datacount(victim, x[:6], test_xy, m_grid=[0],
                            greedy_cfg=greedy_cfg, penalty_cfg=penalty_cfg)

    @pytest.mark.parametrize("m", [np.nan, np.inf, 1.5, float("1e400")], ids=["nan", "inf", "1.5", "1e400"])
    def test_datacount_grid_of_non_whole_numbers_rejected(self, victim, train_xy, test_xy, m):
        x, _ = train_xy
        with pytest.raises(InvalidInputError, match="whole number"):
            sweep_datacount(victim, x[:6], test_xy, m_grid=[3, m])


class TestSingleSample:
    def test_one_report_per_class_sorted(self, victim, train_xy, test_xy):
        x, y = train_xy
        picks = [int(np.flatnonzero(y == k)[0]) for k in (2, 0, 1)]
        cfg = PenaltyConfig(c=20.0, kappa=90.0, batch_size=1, max_iters=19, seed=0)
        results = single_sample_attack(victim, x[picks], y[picks], test_xy, cfg=cfg)
        assert [label for label, _ in results] == [0, 1, 2]
        for _, report in results:
            assert report.method == "penalty"

    def test_mislabeled_sample_escapes_its_clean_class(self):
        # the label (1) is wrong: the class to escape is the clean prediction
        # (0), so the sample does not count as fooled before any update and
        # the craft runs its iterations instead of returning the zero vector
        model = axis_model()
        x = np.full((1, 8), 0.5)
        x[0, 0] = 0.9  # model says class 0; label claims 1
        cfg = PenaltyConfig(c=20.0, kappa=90.0, batch_size=1, max_iters=19)
        res = penalty_uap(model, x, np.array([1]), cfg)
        assert res.asr_trace[0] == 0.0 and res.iterations > 0
        assert np.any(res.perturbation.v_tanh != 0.0)
        results = single_sample_attack(model, x, np.array([1]), (x, None), cfg=cfg)
        label, report = results[0]
        assert label == 1 and report.rows[0]["clean_pred"] == 0
        assert report.train_asr == res.perturbation.train_asr

    def test_default_runs_the_fixed_19_update_budget(self):
        # each sample sits one update from the boundary, so a run that
        # stops at its first success ends after one update
        model = axis_model()
        x = np.full((2, 8), 0.5)
        x[0, 0], x[1, 0] = 0.502, 0.499
        y = model.predict(x)
        first_success = PenaltyConfig(c=0.2, kappa=90.0, batch_size=1, max_iters=19)
        assert penalty_uap(model, x[:1], None, first_success).iterations == 1
        fixed = PenaltyConfig(c=0.2, kappa=90.0, batch_size=1, min_iters=19, max_iters=19)
        default = single_sample_attack(model, x, y, (x, None))
        assert repr(default) == repr(single_sample_attack(model, x, y, (x, None), cfg=fixed))

    def test_validation(self, victim, train_xy, test_xy):
        x, y = train_xy
        with pytest.raises(InvalidInputError):
            single_sample_attack(victim, x[:2], y[:1], test_xy)
        with pytest.raises(InvalidInputError):
            single_sample_attack(victim, x[:2], np.array([1, 1]), test_xy)
        with pytest.raises(InvalidInputError):
            single_sample_attack(victim, x[:1], np.array([99]), test_xy)
