"""Change of variables between the [0, 1] signal box and unconstrained space.

A signal x maps to x' = arctanh((2x - 1)(1 - eps)); adding a perturbation v'
there and squashing back through tanh yields a perturbed sample that lies
strictly inside the box by construction, so no waveform clipping is needed.
The fixed guard eps = TANH_EPSILON keeps arctanh finite at the box boundary.
"""

from __future__ import annotations

import numpy as np

from .audio import _check_samples
from .exceptions import InvalidInputError

TANH_EPSILON = 1e-7

# float64 tanh saturates to exactly +-1 beyond |z| ~ 19, which would put the
# squashed sample on the box boundary and make the logit recovery singular.
# Saturated outputs are nudged one epsilon inside; inert for every x' reachable
# from a valid signal (|x'| <= 8.41) plus any |v'| <= 18.
_SATURATION_GUARD = float(np.finfo(np.float64).eps)


def to_tanh_space(x: np.ndarray) -> np.ndarray:
    """Map signal values in [0, 1] to unconstrained coordinates."""
    x = np.asarray(x, dtype=np.float64)
    _check_samples(x)
    return np.arctanh((2.0 * x - 1.0) * (1.0 - TANH_EPSILON))


def perturbed_sample(x_tanh: np.ndarray, v_tanh: np.ndarray) -> np.ndarray:
    """Squash x' + v' back into the box: w = (tanh(x' + v') + 1) / 2.

    Output entries are strictly inside (0, 1); v' may broadcast over a batch
    of x' rows.
    """
    x_tanh = np.asarray(x_tanh, dtype=np.float64)
    v_tanh = np.asarray(v_tanh, dtype=np.float64)
    if x_tanh.shape[-1] != v_tanh.shape[-1]:
        raise InvalidInputError("tanh-space vectors must have equal length")
    w = np.add(x_tanh, v_tanh)
    np.tanh(w, out=w)
    w += 1.0
    w *= 0.5
    return np.clip(w, _SATURATION_GUARD, 1.0 - _SATURATION_GUARD, out=w)


def render_signal_v(v_tanh: np.ndarray) -> np.ndarray:
    """Render a tanh-space perturbation as a signal in [0, 1].

    v = (tanh(v') + 1 - eps) / (2 - 2*eps), clamped to the box: beyond
    |v'| = arctanh(1 - eps) the raw formula overshoots [0, 1] by up to eps/2.
    """
    v_tanh = np.asarray(v_tanh, dtype=np.float64)
    if v_tanh.size and not np.all(np.isfinite(v_tanh)):
        raise InvalidInputError("tanh-space perturbation must be finite")
    v = (np.tanh(v_tanh) + 1.0 - TANH_EPSILON) / (2.0 - 2.0 * TANH_EPSILON)
    return np.clip(v, 0.0, 1.0)
