"""Iterative greedy universal perturbation.

Walk the training set in a seeded shuffled order; for every sample the current
universal perturbation does not already fool, find a minimal per-sample
perturbation with the inner attack, add it to the aggregate and project back
onto the Lp ball. Each walk is one update. ddn.craft_loop stops the craft once
the full-set attack success rate reaches 1 - delta, or at the cap; it keeps the best walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import _count
from .ddn import (_GAMMA, _INIT_NORM, CraftResult, attack_set, check_mode, craft_loop,
                  ddn_minimal_perturbation, fooled)
from .exceptions import InvalidInputError
from .models import VictimModel
from .perturbation import Perturbation


@dataclass
class GreedyConfig:
    mode: str = "untargeted"
    target: int | None = None
    p: float = np.inf
    xi: float | None = None  # defaults: 0.2 untargeted, 0.12 targeted
    delta: float = 0.1  # residual fooling tolerance
    max_epochs: int = 100
    seed: int = 0
    inner_steps: int = 50

    def __post_init__(self) -> None:
        check_mode(self.mode, self.target)
        if not 0.0 < self.delta <= 1.0:
            raise InvalidInputError("delta must lie in (0, 1]")
        self.max_epochs = _count(self.max_epochs, 1, "max_epochs")
        self.inner_steps = _count(self.inner_steps, 1, "inner_steps")
        if self.xi is None:
            self.xi = 0.2 if self.mode == "untargeted" else 0.12
        _check_ball((self.p, self.xi))


def _check_ball(ball) -> None:
    """Reject an Lp ball (p, xi) unless it is a pair with p in {2, inf} and a finite radius xi > 0."""
    try:
        p, xi = ball
    except (TypeError, ValueError):
        raise InvalidInputError(f"an Lp ball is a pair (p, xi), not {ball!r}") from None
    if p not in (2, np.inf):
        raise InvalidInputError("norm order must be 2 or inf")
    if not 0.0 < xi < np.inf:  # NaN fails too
        raise InvalidInputError("xi must be positive and finite")


def project_lp(v: np.ndarray, p: float, xi: float) -> np.ndarray:
    """Euclidean projection onto the Lp ball of radius xi, p in {2, inf}."""
    _check_ball((p, xi))
    v = np.asarray(v, dtype=np.float64)
    if np.isinf(p):
        return np.clip(v, -xi, xi)
    norm = float(np.linalg.norm(v))
    return v if norm <= xi else v * (xi / norm)


def asr(model: VictimModel, inputs: np.ndarray, mode: str, refs: np.ndarray) -> float:
    """Attack success rate of the victim on already perturbed inputs, judged
    against each row's reference class (see ddn.fooled)."""
    return float(np.mean(fooled(model.predict(inputs), mode, refs)))


def greedy_uap(model: VictimModel, x: np.ndarray, cfg: GreedyConfig) -> CraftResult:
    x, refs = attack_set(model, x, None, cfg.mode, cfg.target)
    m, d = x.shape
    rng = np.random.default_rng(cfg.seed)
    inner_calls = 0

    def walks():
        nonlocal inner_calls
        v = np.zeros(d)
        while True:
            yield v
            for i in rng.permutation(m):
                point = np.clip(x[i] + v, 0.0, 1.0)
                if fooled(int(model.predict(point)), cfg.mode, refs[i]):
                    continue
                result = ddn_minimal_perturbation(model, point, cfg.inner_steps, cfg.mode, cfg.target)
                inner_calls += 1
                v = project_lp(v + result.delta, cfg.p, cfg.xi)

    v, trace, converged = craft_loop(walks(), lambda v: asr(model, np.clip(x + v, 0.0, 1.0), cfg.mode, refs),
                                     cfg.delta, cfg.max_epochs)
    pert = Perturbation(
        v_signal=v, mode=cfg.mode, target=cfg.target,
        p=cfg.p, xi=cfg.xi, seed=cfg.seed, train_asr=max(trace),
        params={"delta": cfg.delta, "max_epochs": cfg.max_epochs,
                "inner_steps": cfg.inner_steps, "inner_init_norm": _INIT_NORM, "inner_gamma": _GAMMA},
    )
    return CraftResult(pert, trace, converged, inner_calls=inner_calls)
