"""Universal perturbation artifact and its single-file format.

A perturbation is built from one vector, and that vector decides its method:
greedy's signal-space vector, added to a sample and clipped into the box, or
penalty's tanh-space carrier, added in tanh space and squashed. For penalty,
the constructor renders the signal-space vector from the carrier. A file
stores the one vector, its manifest's method must match it, and the
manifest's norms and SPL describe the signal-space vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import spl
from .container import _int_or_null, read_container, write_container
from .ddn import check_mode
from .exceptions import FormatError, InvalidInputError
from .tanhspace import TANH_EPSILON, render_signal_v


@dataclass(frozen=True, kw_only=True)
class Perturbation:
    mode: str  # "untargeted" | "targeted"
    v_signal: np.ndarray | None = None  # greedy's; penalty's is v_tanh's rendering, which replace() passes
    v_tanh: np.ndarray | None = None  # penalty passes it
    target: int | None = None
    p: float | None = None  # norm order of the crafting constraint (2 or inf)
    xi: float | None = None
    seed: int | None = None
    train_asr: float | None = None
    params: dict = field(default_factory=dict)  # method-specific settings

    def __post_init__(self) -> None:
        v = np.asarray(self.v_signal if self.v_tanh is None else self.v_tanh, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:  # None, when neither vector is given
            raise InvalidInputError("a perturbation takes one vector, v_signal or v_tanh, non-empty and 1-D")
        if self.v_tanh is not None:
            object.__setattr__(self, "v_tanh", v)
            v = render_signal_v(v)  # refuses a non-finite carrier
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("perturbation must be finite")
        if self.v_tanh is not None and self.v_signal is not None and not np.array_equal(self.v_signal, v):
            raise InvalidInputError("a perturbation takes one vector (v_tanh may come with its rendering)")
        object.__setattr__(self, "v_signal", v)
        check_mode(self.mode, self.target)

    @property
    def method(self) -> str:
        return "greedy" if self.v_tanh is None else "penalty"

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
    v = pert.v_signal
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
    write_container(path, manifest, {"v_signal": v} if pert.v_tanh is None else {"v_tanh": pert.v_tanh})


def load_perturbation(path: str | Path) -> Perturbation:
    manifest, blobs = read_container(path)
    if manifest.get("kind") != "perturbation":
        raise FormatError(f"not a perturbation file: {path}")
    if {"v_signal", "v_tanh"} <= blobs.keys():
        raise FormatError(f"perturbation file {path} stores two vectors; a perturbation takes one vector")
    target, seed = (_int_or_null(manifest, key, f"perturbation file {path}") for key in ("target", "seed"))
    xi, train_asr, params = manifest.get("xi"), manifest.get("train_asr"), manifest.get("params", {})
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
    try:
        pert = Perturbation(
            mode=manifest["mode"],
            v_signal=blobs.get("v_signal"),
            v_tanh=blobs.get("v_tanh"),
            target=target,
            p=_decode_p(manifest.get("p")),
            xi=xi,
            seed=seed,
            train_asr=train_asr,
            params=params,
        )
        if manifest["method"] != pert.method:
            raise FormatError(f"perturbation file {path}: method {manifest['method']!r} does not match its "
                              f"stored vector, which is {pert.method}'s")
        return pert
    except KeyError as exc:
        raise FormatError(f"perturbation file {path} has no entry {exc}") from exc
    except InvalidInputError as exc:
        raise FormatError(f"perturbation file {path}: {exc}") from exc
