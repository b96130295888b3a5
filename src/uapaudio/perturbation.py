"""Universal perturbation artifact and its single-file format.

The artifact carries the signal-space vector (always) and, for the penalty
method, the tanh-space carrier it was optimized in. A file stores the carrier
if there is one, else the signal vector. A load renders the signal vector from
the carrier, and the manifest's norms and SPL describe what a load returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import spl
from .container import read_container, write_container
from .ddn import check_mode
from .exceptions import FormatError, InvalidInputError
from .tanhspace import TANH_EPSILON, render_signal_v


@dataclass
class Perturbation:
    v_signal: np.ndarray
    method: str  # "greedy" | "penalty"
    mode: str  # "untargeted" | "targeted"
    v_tanh: np.ndarray | None = None
    target: int | None = None
    p: float | None = None  # norm order of the crafting constraint (2 or inf)
    xi: float | None = None
    seed: int | None = None
    train_asr: float | None = None
    params: dict = field(default_factory=dict)  # method-specific settings

    def __post_init__(self) -> None:
        v = np.asarray(self.v_signal, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("perturbation must be a non-empty 1-D vector")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("perturbation must be finite")
        self.v_signal = v
        if self.v_tanh is not None:
            vt = np.asarray(self.v_tanh, dtype=np.float64)
            if vt.shape != v.shape:
                raise InvalidInputError("tanh-space and signal-space vectors must match in length")
            if not np.all(np.isfinite(vt)):
                raise InvalidInputError("tanh-space perturbation must be finite")
            self.v_tanh = vt
        if self.method not in ("greedy", "penalty"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        check_mode(self.mode, self.target)

    @property
    def dim(self) -> int:
        return int(self.v_signal.size)


def _encode_p(p: float | None) -> float | str | None:
    if p is None:
        return None
    return "inf" if np.isinf(p) else float(p)


def _decode_p(p) -> float | None:
    if p is None:
        return None
    if p == "inf":
        return np.inf
    if type(p) not in (int, float):
        raise FormatError(f"norm order p must be a number or \"inf\", got {p!r}")
    return float(p)


def save_perturbation(pert: Perturbation, path: str | Path) -> None:
    if pert.v_tanh is None:
        v, blobs = pert.v_signal, {"v_signal": pert.v_signal}
    else:  # the signal vector a load renders
        v, blobs = render_signal_v(pert.v_tanh), {"v_tanh": pert.v_tanh}
    manifest = {
        "kind": "perturbation",
        "method": pert.method,
        "mode": pert.mode,
        "target": pert.target,
        "p": _encode_p(pert.p),
        "xi": pert.xi,
        "d": pert.dim,
        "seed": pert.seed,
        "train_asr": pert.train_asr,
        "norms": {"l2": float(np.linalg.norm(v)), "linf": float(np.max(np.abs(v)))},
        "spl": spl(v),
        "params": pert.params,
    }
    write_container(path, manifest, blobs)


def load_perturbation(path: str | Path) -> Perturbation:
    manifest, blobs = read_container(path)
    if manifest.get("kind") != "perturbation":
        raise FormatError(f"not a perturbation file: {path}")
    target, xi, seed = manifest.get("target"), manifest.get("xi"), manifest.get("seed")
    train_asr, params = manifest.get("train_asr"), manifest.get("params", {})
    for name, value in (("target", target), ("seed", seed)):
        if not (value is None or type(value) is int):
            raise FormatError(f"perturbation file {path}: {name} must be an integer or null, got {value!r}")
    if not (xi is None or type(xi) in (int, float) and 0.0 < xi < np.inf):
        raise FormatError(f"perturbation file {path}: xi must be a positive finite number or null, got {xi!r}")
    if not (train_asr is None or type(train_asr) in (int, float) and 0.0 <= train_asr <= 1.0):
        raise FormatError(f"perturbation file {path}: train_asr must be a number in [0, 1] or null, "
                          f"got {train_asr!r}")
    if not isinstance(params, dict):
        raise FormatError(f"perturbation file {path}: params must be an object, got {params!r}")
    if params.get("epsilon", TANH_EPSILON) != TANH_EPSILON:
        raise FormatError(f"perturbation file {path}: params epsilon must be {TANH_EPSILON}, "
                          f"got {params['epsilon']!r}")
    v_tanh = blobs.get("v_tanh")
    try:
        return Perturbation(
            v_signal=blobs["v_signal"] if v_tanh is None else render_signal_v(v_tanh),
            method=manifest["method"],
            mode=manifest["mode"],
            v_tanh=v_tanh,
            target=target,
            p=_decode_p(manifest.get("p")),
            xi=xi,
            seed=seed,
            train_asr=train_asr,
            params=params,
        )
    except KeyError as exc:
        raise FormatError(f"perturbation file {path} has no entry {exc}") from exc
    except InvalidInputError as exc:
        raise FormatError(f"perturbation file {path}: {exc}") from exc
