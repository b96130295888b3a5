"""Adam optimizer in functional form and the seeded mini-batch order, both
shared by the attack loop and training."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InvalidInputError

# Adam's moment decay rates and its denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamState:
    """Step size and moment estimates for one optimized vector."""

    lr: float = 0.01
    t: int = 0
    m: np.ndarray | None = None
    u: np.ndarray | None = None


def adam_update(state: AdamState, grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam step; returns (delta, new state).

    delta = -lr * m_hat / (sqrt(u_hat) + eps), to be added to the iterate.
    """
    g = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("gradient contains non-finite values")
    m = np.zeros_like(g) if state.m is None else state.m
    u = np.zeros_like(g) if state.u is None else state.u
    t = state.t + 1
    m = _BETA1 * m + (1.0 - _BETA1) * g
    u = _BETA2 * u + (1.0 - _BETA2) * np.square(g)
    m_hat = m / (1.0 - _BETA1**t)
    u_hat = u / (1.0 - _BETA2**t)
    delta = -state.lr * m_hat / (np.sqrt(u_hat) + _EPS)
    return delta, replace(state, t=t, m=m, u=u)


def seeded_batches(n: int, size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Endless index batches: a fresh permutation of range(n) per pass, cut in slices of size.

    The last batch of a pass is short when size does not divide n. Needs n >= 1.
    """
    while True:
        order = rng.permutation(n)
        for start in range(0, n, size):
            yield order[start : start + size]
