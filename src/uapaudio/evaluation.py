"""Evaluation harness: reports, transfer matrices, sweeps, significance test.

Success is counted against the clean prediction for untargeted attacks (a
sample is fooled when the perturbed prediction differs from the unperturbed
one) and against the target class for targeted attacks. Loudness metrics are
computed on the applied perturbation, i.e. what is actually added to each
sample after box handling: squash(x' + v') - x for the penalty method,
clip(x + v) - x for the greedy method. They are taken one row block at a
time, one audio.snr and one audio.rel_loudness call per block; a row whose
peak ratio is undefined gets a NaN loudness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .audio import _count, _whole, rel_loudness, snr
from .container import write_csv
from .ddn import attack_set, fooled
from .exceptions import DegenerateVarianceError, InvalidInputError
from .greedy import GreedyConfig, greedy_uap
from .models import VictimModel, _row_blocks
from .penalty import PenaltyConfig, penalty_uap
from .perturbation import Perturbation
from .tanhspace import perturbed_sample, to_tanh_space

DEFAULT_ALPHA = 0.057
KAPPA_GRID = (0.0, 10.0, 20.0, 40.0, 60.0, 90.0)
DATACOUNT_GRID = (1, 5, 10, 50, 100, 500)

REPORT_COLUMNS = ("sample_id", "clean_pred", "perturbed_pred", "snr_db", "l_db")


@dataclass
class EvalRow:
    sample_id: int
    clean_pred: int
    perturbed_pred: int
    snr_db: float
    l_db: float  # nan when the peak ratio is undefined for this pair


@dataclass
class EvalReport:
    mode: str
    method: str
    train_asr: float | None
    test_asr: float
    mean_snr_db: float
    mean_l_db: float
    rows: list[EvalRow]


@dataclass
class TransferMatrix:
    values: np.ndarray  # (n, n); rows = source of the perturbation, cols = victim
    labels: list[str]


@dataclass
class ZTestResult:
    z: float
    z_alpha: float
    alpha: float
    reject: bool  # True when the lower rate is significantly lower


def applied_perturbation(x: np.ndarray, pert: Perturbation) -> np.ndarray:
    """Per-sample additive perturbation actually applied to x (same shape as x)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != pert.dim:
        raise InvalidInputError("perturbation dimension does not match samples")
    if pert.v_tanh is not None:
        return perturbed_sample(to_tanh_space(x), pert.v_tanh) - x
    return np.clip(x + pert.v_signal, 0.0, 1.0) - x


def evaluate_uap(model: VictimModel, testset: tuple[np.ndarray, np.ndarray],
                 pert: Perturbation) -> EvalReport:
    """Score a crafted perturbation against a model on an evaluation set.

    testset is an (X, y) pair. Success is judged on predictions alone: the labels y
    (None allowed) only have to be a 1-D array with one entry per row of X (they stay
    in the report rows' implicit order and are not consulted otherwise). Perturbed
    rows exist one row block (_row_blocks) at a time, scored as the model takes them.
    """
    x, y = testset
    x, refs = attack_set(model, x, y, pert.mode, pert.target)
    clean_preds = refs if pert.mode == "untargeted" else model.predict(x)
    snrs, l_dbs = [], []  # one array per row block

    def perturbed():
        for (block,) in _row_blocks(x):
            applied = applied_perturbation(block, pert)
            snrs.append(snr(block, applied))
            l_dbs.append(rel_loudness(block, applied))
            yield block + applied

    adv_preds = np.argmax(model._logits(perturbed()), axis=1)
    snrs, l_dbs = np.concatenate(snrs), np.concatenate(l_dbs)
    rows = [EvalRow(i, int(clean), int(adv), snr_db, l_db) for i, (clean, adv, snr_db, l_db)
            in enumerate(zip(clean_preds, adv_preds, snrs.tolist(), l_dbs.tolist()))]
    finite_l = l_dbs[np.isfinite(l_dbs)]
    return EvalReport(
        mode=pert.mode, method=pert.method, train_asr=pert.train_asr,
        test_asr=float(np.mean(fooled(adv_preds, pert.mode, refs))),
        mean_snr_db=float(np.mean(snrs)),
        mean_l_db=float(np.mean(finite_l)) if finite_l.size else float("nan"),
        rows=rows,
    )


def report_to_csv(report: EvalReport, path: str | Path) -> None:
    rows = [[r.sample_id, r.clean_pred, r.perturbed_pred, r.snr_db, r.l_db] for r in report.rows]
    write_csv(path, list(REPORT_COLUMNS), rows)


def report_summary(report: EvalReport) -> dict:
    """Headline numbers, JSON-ready (used by the CLI manifest and sweeps)."""
    return {
        "mode": report.mode,
        "method": report.method,
        "train_asr": report.train_asr,
        "test_asr": report.test_asr,
        "mean_snr_db": report.mean_snr_db,
        "mean_l_db": (None if not np.isfinite(report.mean_l_db) else report.mean_l_db),
        "samples": len(report.rows),
    }


def transfer_matrix(models: list[VictimModel], perts: list[Perturbation],
                    testset: tuple[np.ndarray, np.ndarray],
                    labels: list[str] | None = None) -> TransferMatrix:
    """Cross-model success rates: entry (i, j) scores source i's perturbation
    against victim j. The diagonal (self-attack) is left undefined."""
    if len(models) < 2:
        raise InvalidInputError("transfer needs at least 2 models")
    if len(perts) != len(models):
        raise InvalidInputError("one perturbation per source model required")
    labels = [f"{m.arch}-{k}" for k, m in enumerate(models)] if labels is None else list(labels)
    if len(labels) != len(models):
        raise InvalidInputError(f"{len(labels)} labels for {len(models)} models; give one label per model")
    dims = {m.input_dim for m in models}
    if len(dims) != 1:
        raise InvalidInputError("models must share an input dimension")
    n = len(models)
    values = np.full((n, n), np.nan)
    for i, pert in enumerate(perts):
        for j, victim in enumerate(models):
            if i == j:
                continue
            values[i, j] = evaluate_uap(victim, testset, pert).test_asr
    return TransferMatrix(values, labels)


def transfer_to_csv(matrix: TransferMatrix, path: str | Path) -> None:
    rows = [[name, *(v if np.isfinite(v) else None for v in matrix.values[i])]
            for i, name in enumerate(matrix.labels)]
    write_csv(path, ["source\\victim"] + matrix.labels, rows)


def two_proportion_z(p_l: float, p_h: float, m: int,
                     alpha: float = DEFAULT_ALPHA) -> ZTestResult:
    """Z statistic for comparing two success proportions over m samples.

    Uses the pooled-variance form Z = (p_l - p_h) / sqrt(2 p(1-p)/m) with
    p = (p_l + p_h)/2, and rejects equality (one-sided) when Z < -z_alpha.
    """
    if not 0.0 <= p_l <= p_h <= 1.0:
        raise InvalidInputError("need 0 <= p_l <= p_h <= 1")
    m = _count(m, 1, "m")
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("alpha must lie in (0, 1)")
    pooled = (p_l + p_h) / 2.0
    if pooled in (0.0, 1.0):
        raise DegenerateVarianceError("pooled proportion is degenerate (0 or 1)")
    z = (p_l - p_h) / np.sqrt(2.0 * pooled * (1.0 - pooled) / m)
    z_alpha = NormalDist().inv_cdf(1.0 - alpha)
    return ZTestResult(float(z), float(z_alpha), alpha, bool(z < -z_alpha))


def _seeded_subset(n: int, m: int, seed: int) -> np.ndarray:
    # first m of a seeded shuffle, kept in original order
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[:m])


def _sweep_row(model: VictimModel, testset: tuple[np.ndarray, np.ndarray],
               pert: Perturbation, **keys) -> dict:
    """The sweep's keys for one craft, then its evaluation's headline numbers."""
    r = evaluate_uap(model, testset, pert)
    return {**keys, "train_asr": float(r.train_asr), "test_asr": r.test_asr,
            "mean_snr_db": r.mean_snr_db, "mean_l_db": r.mean_l_db}


def sweep_confidence(model: VictimModel, x: np.ndarray,
                     testset: tuple[np.ndarray, np.ndarray],
                     kappa_grid=KAPPA_GRID,
                     cfg: PenaltyConfig | None = None) -> list[dict]:
    """One penalty craft+evaluate cycle per confidence value, one row each."""
    kappas = [float(k) for k in kappa_grid]
    if not kappas:
        raise InvalidInputError("empty confidence grid")
    if cfg is None:
        cfg = PenaltyConfig()
    out = []
    for kappa in kappas:
        run_cfg = replace(cfg, kappa=kappa)
        result = penalty_uap(model, x, None, run_cfg)
        out.append(_sweep_row(model, testset, result.perturbation, kappa=kappa))
    return out


def sweep_datacount(model: VictimModel, x: np.ndarray,
                    testset: tuple[np.ndarray, np.ndarray],
                    m_grid=DATACOUNT_GRID,
                    greedy_cfg: GreedyConfig | None = None,
                    penalty_cfg: PenaltyConfig | None = None,
                    seed: int = 0) -> list[dict]:
    """Craft with both methods from the first m samples of one seeded shuffle;
    one row per craft, greedy first at each m."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m_grid = list(m_grid)
    if not all(_whole(m) for m in m_grid):
        raise InvalidInputError(f"data-count grid {m_grid} holds a value that is not a whole number")
    counts = sorted({int(m) for m in m_grid if 1 <= m <= x.shape[0]})
    if not counts:
        raise InvalidInputError("data-count grid has no feasible sizes")
    if greedy_cfg is None:
        greedy_cfg = GreedyConfig()
    if penalty_cfg is None:
        penalty_cfg = PenaltyConfig(mode=greedy_cfg.mode, target=greedy_cfg.target)
    out = []
    for m in counts:
        idx = _seeded_subset(x.shape[0], m, seed)
        g = greedy_uap(model, x[idx], greedy_cfg)
        out.append(_sweep_row(model, testset, g.perturbation, method="greedy", m=m))
        p = penalty_uap(model, x[idx], None, penalty_cfg)
        out.append(_sweep_row(model, testset, p.perturbation, method="penalty", m=m))
    return out


def sweep_to_csv(rows: list[dict], path: str | Path) -> None:
    """Write sweep rows (uniform dict keys, scalar values) as CSV."""
    if not rows:
        raise InvalidInputError("no sweep rows to write")
    columns = list(rows[0].keys())
    write_csv(path, columns, [[row[col] for col in columns] for row in rows])


def single_sample_attack(model: VictimModel, x: np.ndarray, y: np.ndarray,
                         testset: tuple[np.ndarray, np.ndarray],
                         cfg: PenaltyConfig | None = None) -> list[tuple[int, EvalReport]]:
    """Craft one penalty perturbation per class from a single sample of it.

    x holds exactly one sample per class (y gives the classes, all distinct);
    by default each run has a fixed 19-iteration budget and a high-confidence hinge.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if x.shape[0] != y.shape[0] or y.size == 0:
        raise InvalidInputError("need one labeled sample per class")
    if np.unique(y).size != y.size:
        raise InvalidInputError("classes must be distinct")
    if np.any(y < 0) or np.any(y >= model.num_classes):
        raise InvalidInputError("class out of range for the victim")
    if cfg is None:
        cfg = PenaltyConfig(c=0.2, kappa=90.0, batch_size=1, min_iters=19, max_iters=19)
    out = []
    for k in np.argsort(y):
        label = int(y[k])
        result = penalty_uap(model, x[k : k + 1], y[k : k + 1], cfg)
        out.append((label, evaluate_uap(model, testset, result.perturbation)))
    return out
