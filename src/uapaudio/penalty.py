"""Penalty-method universal perturbation, optimized in tanh space with Adam.

The objective trades the perturbation's sound pressure level against a hinge
on the victim's logits:

    L(w_i) = SPL(v') + c * G(logits(w_i))      w_i = squash(x'_i + v')

where G is floored at -kappa and vanishes (at kappa = 0) exactly when the
attack condition holds. SPL is evaluated at v' directly (recovering v' from
w_i gives the same value in exact arithmetic, plus tanh round-trip noise).
_objective is the one implementation of the objective and its gradient
w.r.t. v': every update of the loop descends it, summed over a mini-batch and
applied with Adam at AdamState's default settings (step size 0.01). The
perturbed samples never need clipping because the squash keeps them strictly
inside (0, 1). ddn.craft_loop stops the craft once the full-set attack
success rate reaches 1 - delta (after at least min_iters updates), or at the
update cap, and keeps the iterate with the best rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import POWER_FLOOR, _count, rms_power, spl
from .ddn import CraftResult, attack_set, check_mode, craft_loop
from .exceptions import InvalidInputError
from .greedy import _check_ball, asr, project_lp
from .models import VictimModel, _row_blocks
from .optim import AdamState, adam_update, seeded_batches
from .perturbation import Perturbation, _encode_p
from .tanhspace import TANH_EPSILON, perturbed_sample, render_signal_v, to_tanh_space

_LOG10_SCALE = 20.0 / np.log(10.0)


@dataclass
class PenaltyConfig:
    mode: str = "untargeted"
    target: int | None = None
    c: float | None = None  # defaults: 0.2 untargeted, 0.15 targeted
    kappa: float | None = None  # defaults: 0 untargeted, 10 targeted
    delta: float = 0.1
    batch_size: int = 100
    max_iters: int = 100
    min_iters: int = 0  # defer the success check: forces at least this many updates
    project: tuple[float, float] | None = None  # optional (p, xi) post-projection
    seed: int = 0

    def __post_init__(self) -> None:
        check_mode(self.mode, self.target)
        if self.c is None:
            self.c = 0.2 if self.mode == "untargeted" else 0.15
        if self.kappa is None:
            self.kappa = 0.0 if self.mode == "untargeted" else 10.0
        if not 0.0 < self.c < np.inf:
            raise InvalidInputError("c must be positive and finite")
        if not 0.0 <= self.kappa < np.inf:
            raise InvalidInputError("kappa must be non-negative and finite")
        if not 0.0 < self.delta <= 1.0:
            raise InvalidInputError("delta must lie in (0, 1]")
        self.batch_size = _count(self.batch_size, 1, "batch size")
        self.max_iters = _count(self.max_iters, 1, "max_iters")
        self.min_iters = _count(self.min_iters, 0, "min_iters")
        if self.min_iters > self.max_iters:
            raise InvalidInputError("min_iters must lie in [0, max_iters]")
        if self.project is not None:
            _check_ball(self.project)


def _hinge_batch(logits: np.ndarray, refs: np.ndarray, kappa: float,
                 mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Hinge values and subgradients w.r.t. logits for a batch.

    At the floor (margin <= -kappa) the subgradient is taken as 0.
    """
    n = logits.shape[0]
    rows = np.arange(n)
    masked = logits.copy()
    masked[rows, refs] = -np.inf
    runner = masked.argmax(axis=1)  # best class other than the reference
    ref_logit = logits[rows, refs]
    other_logit = logits[rows, runner]
    margin = ref_logit - other_logit if mode == "untargeted" else other_logit - ref_logit
    values = np.maximum(margin, -kappa)
    active = (margin > -kappa).astype(np.float64)
    sign = 1.0 if mode == "untargeted" else -1.0
    dlogits = np.zeros_like(logits)
    dlogits[rows, refs] = sign * active
    dlogits[rows, runner] -= sign * active
    return values, dlogits


def _spl_gradient(u: np.ndarray) -> np.ndarray:
    # gradient of 20*log10(rms(u)); zero below the floor where SPL is constant
    if rms_power(u) <= POWER_FLOOR:
        return np.zeros_like(u)
    return _LOG10_SCALE * u / float(np.dot(u, u))


def _objective(model: VictimModel, x_tanh: np.ndarray, v: np.ndarray, refs: np.ndarray,
               c: float, kappa: float, mode: str) -> tuple[float, np.ndarray, np.ndarray]:
    """SPL(v'), each batch row's hinge, and the gradient w.r.t. v' of the batch sum.

    The sum is sum_i SPL(v') + c * G(logits(w_i)) over the rows
    w_i = squash(x'_i + v'); penalty_uap descends this gradient. The forward
    and backward passes run on the row blocks of models._row_blocks, whose
    working sets stay in cache; the batch sum is taken once over all rows.
    """
    w = perturbed_sample(x_tanh, v)
    hinges, hinge_grads = [], []
    for w_block, refs_block in _row_blocks(w, refs):
        logits, caches = model.forward_cached(w_block)
        values, dlogits = _hinge_batch(logits, refs_block, kappa, mode)
        hinges.append(values)
        hinge_grads.append(model.backward_input(caches, dlogits))  # (block, d)
        del caches  # the next block's forward runs without this block's activations
    # d(w)/d(v') = sech^2(x'+v')/2 = 2w(1-w); plain sum over the batch
    chain = 2.0 * w * (1.0 - w)
    grad = len(refs) * _spl_gradient(v) + c * np.sum(np.concatenate(hinge_grads) * chain, axis=0)
    return spl(v), np.concatenate(hinges), grad


def _asr_tanh(model: VictimModel, x_tanh: np.ndarray, v_tanh: np.ndarray, mode: str,
              refs: np.ndarray) -> float:
    return asr(model, perturbed_sample(x_tanh, v_tanh), mode, refs)


def penalty_uap(model: VictimModel, x: np.ndarray, y: np.ndarray | None,
                cfg: PenaltyConfig) -> CraftResult:
    """Craft a universal perturbation by penalty descent in tanh space.

    An untargeted attack escapes each sample's clean prediction: the hinge
    pushes against it, and a sample counts as fooled when its perturbed
    prediction differs from it. A targeted attack reaches cfg.target. The
    labels y (None allowed) only have to line up with x; they are not
    consulted otherwise.
    """
    x, refs = attack_set(model, x, y, cfg.mode, cfg.target)
    m, d = x.shape
    x_tanh = to_tanh_space(x)
    batches = seeded_batches(m, cfg.batch_size, np.random.default_rng(cfg.seed))
    adam = AdamState()
    records: list[dict] = []

    def updates(adam):
        v = np.zeros(d)
        while True:
            yield v
            batch = next(batches)
            spl_v, hinges, grad = _objective(model, x_tanh[batch], v, refs[batch], cfg.c, cfg.kappa, cfg.mode)
            records.append({"loss_min": float(np.min(spl_v + cfg.c * hinges)),
                            "hinge_mean": float(np.mean(hinges)), "spl_vprime": spl_v})
            step, adam = adam_update(adam, grad)
            v = v + step
            if cfg.project is not None:
                centered = render_signal_v(v) - 0.5
                projected = project_lp(centered, *cfg.project)
                if not np.array_equal(projected, centered):
                    v = to_tanh_space(projected + 0.5)

    best_v, asr_trace, converged = craft_loop(updates(adam), lambda v: _asr_tanh(model, x_tanh, v, cfg.mode, refs),
                                              cfg.delta, cfg.max_iters, cfg.min_iters)
    pert = Perturbation(
        v_tanh=best_v, mode=cfg.mode, target=cfg.target, seed=cfg.seed, train_asr=max(asr_trace),
        p=(cfg.project[0] if cfg.project else None),
        xi=(cfg.project[1] if cfg.project else None),
        params={"c": cfg.c, "kappa": cfg.kappa, "S": cfg.batch_size, "lr": adam.lr,
                "epsilon": TANH_EPSILON,
                "projection": ([_encode_p(cfg.project[0]), cfg.project[1]] if cfg.project else None)},
    )
    return CraftResult(pert, asr_trace, converged, trace=records)
