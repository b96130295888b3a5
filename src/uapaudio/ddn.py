"""Minimal-norm L2 inner attack with a decoupled direction/norm schedule.

Each step takes a gradient-normalized cross-entropy step (cosine step size),
then rescales the perturbation onto a sphere whose radius shrinks by 5%
after an adversarial iterate and grows by 5% otherwise. The result is the
smallest-norm iterate that satisfied the attack condition; candidates are
always evaluated at clip(x + delta, 0, 1) so they honor the signal box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .audio import _check_labels, _check_samples, _count
from .exceptions import InvalidInputError
from .models import VictimModel, cross_entropy_grad

if TYPE_CHECKING:  # perturbation imports this module
    from .perturbation import Perturbation

# cosine step-size schedule, from the first step's size down to the last one's
_STEP_START, _STEP_END = 1.0, 0.01
# the radius starts at _INIT_NORM and shrinks or grows by the factor 1 -/+ _GAMMA each step
_INIT_NORM, _GAMMA = 0.2, 0.05


def check_mode(mode: str, target: int | None, num_classes: int | None = None) -> None:
    """Reject an unknown attack mode, a targeted attack without a target class,
    an untargeted attack with one, and, given the victim's class count, a
    target the victim does not have."""
    if mode not in ("untargeted", "targeted"):
        raise InvalidInputError("mode must be 'untargeted' or 'targeted'")
    if mode == "targeted" and target is None:
        raise InvalidInputError("targeted attack needs a target class")
    if mode == "untargeted" and target is not None:
        raise InvalidInputError(f"untargeted attack takes no target class, got target {target!r}")
    if mode == "targeted" and num_classes is not None and target not in range(num_classes):
        raise InvalidInputError(f"target class {target!r} is not a class of this {num_classes}-class victim")


def attack_set(model: VictimModel, x: np.ndarray, y: np.ndarray | None, mode: str,
               target: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The samples as a float64 batch, and each sample's reference class.

    Rejects an empty batch, values outside [0, 1], labels y (None allowed)
    that do not line up with the samples, and a bad mode or target. The
    reference is the target (targeted) or the victim's clean prediction
    (untargeted).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _check_samples(x)
    if y is not None:
        _check_labels(x, y)
    check_mode(mode, target, model.num_classes)
    if mode == "targeted":
        return x, np.full(len(x), target)
    return x, model.predict(x)


def fooled(preds, mode: str, refs):
    """Attack success of perturbed predictions against reference classes, elementwise.

    Targeted: the prediction is the reference (the target). Untargeted: it
    differs from the reference, the class the attack has to escape.
    """
    return preds == refs if mode == "targeted" else preds != refs


def craft_loop(iterates, check, delta: float, cap: int, floor: int = 0) -> tuple[np.ndarray, list[float], bool]:
    """Score each iterate with check, its full-set attack success rate, until the craft stops:
    converged at 1 - delta after at least floor updates, else capped after cap updates.

    iterates yields the start vector, then the iterate after each update; it is drawn only while
    the craft goes on. Returns the kept iterate (the best, ties to the latest), the rates, and
    whether the craft converged."""
    asr_trace: list[float] = []
    for updates, v in enumerate(iterates):
        asr_trace.append(rate := check(v))
        if rate >= max(asr_trace):
            kept = v
        if updates >= floor and rate >= 1.0 - delta:
            return kept, asr_trace, True
        if updates >= cap:
            return kept, asr_trace, False


@dataclass
class CraftResult:
    perturbation: Perturbation
    asr_trace: list[float]  # full-set rate at the start and after each update
    converged: bool
    trace: list[dict] = field(default_factory=list)  # penalty: one record per update
    inner_calls: int = 0  # greedy: inner attacks run

    @property
    def iterations(self) -> int:
        return len(self.asr_trace) - 1


@dataclass
class InnerAttackResult:
    delta: np.ndarray
    success: bool
    l2_norm: float
    radius_trace: np.ndarray  # initial radius followed by one entry per step


def ddn_minimal_perturbation(model: VictimModel, x: np.ndarray, steps: int = 50,
                             mode: str = "untargeted", target: int | None = None) -> InnerAttackResult:
    """Smallest-L2 additive perturbation, searched for over `steps` steps, that fools the victim on the
    single sample x: it escapes the victim's prediction of x (untargeted) or reaches target (targeted)."""
    steps = _count(steps, 1, "steps")
    if np.ndim(x) != 1:
        raise InvalidInputError("inner attack expects a single sample")
    (x,), (ref,) = attack_set(model, x, None, mode, target)

    delta = np.zeros_like(x)
    radius = _INIT_NORM
    trace = [radius]
    best: np.ndarray | None = None
    best_norm = np.inf

    # steps + 1 evaluations: the last one scores the final projected iterate
    for k in range(steps + 1):
        point = np.clip(x + delta, 0.0, 1.0)
        logits, caches = model.forward_cached(point)
        is_adv = fooled(int(np.argmax(logits[0])), mode, ref)
        if is_adv:
            norm = float(np.linalg.norm(delta))
            if norm < best_norm:
                best, best_norm = delta, norm
        if k == steps:
            break

        alpha = _STEP_END + 0.5 * (_STEP_START - _STEP_END) * (1.0 + np.cos(np.pi * k / steps))
        # cross-entropy gradient about the reference class at the current point
        grad = model.backward_input(caches, cross_entropy_grad(logits, [ref]))[0]
        gnorm = float(np.linalg.norm(grad))
        if gnorm > 0.0:
            step = (alpha / gnorm) * grad
            delta = delta + step if mode == "untargeted" else delta - step

        radius = radius * (1.0 - _GAMMA) if is_adv else radius * (1.0 + _GAMMA)
        trace.append(radius)
        dnorm = float(np.linalg.norm(delta))
        if dnorm > 0.0:
            delta = delta * (radius / dnorm)

    if best is None:
        return InnerAttackResult(delta, False, float(np.linalg.norm(delta)), np.asarray(trace))
    return InnerAttackResult(best, True, best_norm, np.asarray(trace))
