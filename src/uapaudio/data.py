"""Synthetic band-tone dataset: class k is an amplitude-modulated tone in band k.

Each sample is an AM sine whose carrier falls in a class-specific frequency
band, plus uniform noise, affinely mapped into [0, 1]. Carrier and envelope
frequencies are whole numbers of cycles per window, so zero-noise waveforms
are exactly periodic and class energy is leakage-free in the DFT.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import DEFAULT_SAMPLE_RATE, AudioSample, _check_sample_rate, _count, _decode, _read_pcm, save_wav
from .container import _int_or_null, canonical_json, read_csv, write_csv
from .exceptions import FormatError, InvalidInputError

SPLITS = ("train", "val", "test")

AM_DEPTH = 0.5
AM_CYCLES = 4  # envelope cycles per window; carriers are multiples of this
TONE_AMPLITUDE = 0.18  # peak of the class tone before noise, in zero-centred units


@dataclass
class SyntheticDataset:
    """Three splits of read-only (n, dim) float64 samples, with read-only int64
    label vectors in labels[split]."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    labels: dict[str, np.ndarray]
    num_classes: int
    dim: int
    sample_rate: int = DEFAULT_SAMPLE_RATE
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in SPLITS:
            getattr(self, name).flags.writeable = False
            self.labels[name].flags.writeable = False

    def arrays(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The stored (samples, labels) of a split, not copies."""
        if name not in SPLITS:
            raise InvalidInputError(f"unknown split {name!r}")
        return getattr(self, name), self.labels[name]


def band_edges(num_classes: int, dim: int) -> np.ndarray:
    """Class band boundaries in DFT bins, away from DC and Nyquist."""
    lo = max(16, dim // 64)
    hi = dim // 2 - lo
    if hi - lo < num_classes * 3 * AM_CYCLES:
        raise InvalidInputError(f"dimension {dim} too small for {num_classes} separable bands")
    return np.linspace(lo, hi, num_classes + 1)


def class_template(dim: int, lo: float, hi: float) -> np.ndarray:
    """The class's deterministic AM tone, zero-centred, peak |s| <= TONE_AMPLITUDE.

    The carrier sits mid-band on a multiple of the envelope frequency so the
    waveform is periodic, with both AM sidebands strictly inside (lo, hi).
    """
    first = int(np.ceil((lo + AM_CYCLES) / AM_CYCLES))
    last = int(np.floor((hi - AM_CYCLES) / AM_CYCLES))
    if last < first:
        raise InvalidInputError("band too narrow for an in-band carrier")
    carrier = AM_CYCLES * ((first + last) // 2)
    t = np.arange(dim) / dim
    amp = TONE_AMPLITUDE / (1.0 + AM_DEPTH)
    return amp * (1.0 + AM_DEPTH * np.sin(2.0 * np.pi * AM_CYCLES * t)) \
        * np.sin(2.0 * np.pi * carrier * t)


def generate_synthetic_dataset(num_classes: int, per_class: int, dim: int,
                               noise_level: float = 0.05, seed: int = 0, *,
                               val_per_class: int = 0, test_per_class: int | None = None,
                               sample_rate: int = DEFAULT_SAMPLE_RATE) -> SyntheticDataset:
    """Build a dataset with per_class training samples per class.

    Each class is a fixed in-band AM tone (peak TONE_AMPLITUDE); its samples differ
    only in their uniform noise. Test split defaults to per_class // 2 samples per
    class; validation is empty unless requested. Deterministic given the seed.
    """
    num_classes, per_class = _count(num_classes, 2, "class count"), _count(per_class, 1, "per-class count")
    dim, val_per_class = _count(dim, 1, "dimension"), _count(val_per_class, 0, "validation count")
    test_per_class = _count(per_class // 2 if test_per_class is None else test_per_class, 0, "test count")
    # the tone plus noise must stay in [-1, 1]
    if not 0.0 <= noise_level <= 1.0 - TONE_AMPLITUDE:
        raise InvalidInputError(f"noise level {noise_level} must lie in [0, {1.0 - TONE_AMPLITUDE:g}]")
    sample_rate = _check_sample_rate(sample_rate)
    edges = band_edges(num_classes, dim)
    templates = [class_template(dim, edges[k], edges[k + 1]) for k in range(num_classes)]
    rng = np.random.default_rng(seed)
    counts = {"train": per_class, "val": val_per_class, "test": test_per_class}
    splits, labels = {}, {}
    for name in SPLITS:
        count = counts[name]
        x = np.empty((num_classes * count, dim))
        for k in range(num_classes):
            # one draw per class block is the row-by-row stream; zero noise adds +-0.0, a no-op
            x[k * count : (k + 1) * count] = templates[k] + noise_level * rng.uniform(-1.0, 1.0, (count, dim))
        x += 1.0
        x /= 2.0
        splits[name] = x
        labels[name] = np.repeat(np.arange(num_classes, dtype=np.int64), count)
    return SyntheticDataset(**splits, labels=labels, num_classes=num_classes, dim=dim,
                            sample_rate=sample_rate, seed=seed)


def save_dataset_dir(dataset: SyntheticDataset, out_dir: str | Path) -> None:
    """Export as WAV files + labels.csv (filename,label,split) + manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name in SPLITS:
        for i, (x, label) in enumerate(zip(*dataset.arrays(name))):
            fname = f"{name}_{label:02d}_{i:05d}.wav"
            save_wav(AudioSample(x, dataset.sample_rate), out / fname)
            rows.append([fname, label, name])
    write_csv(out / "labels.csv", ["filename", "label", "split"], rows)
    manifest = {"kind": "dataset", "num_classes": dataset.num_classes, "dim": dataset.dim,
                "sample_rate": dataset.sample_rate, "seed": dataset.seed}
    (out / "manifest.json").write_bytes(canonical_json(manifest) + b"\n")


def load_dataset_dir(in_dir: str | Path) -> SyntheticDataset:
    """Check every labels.csv row, then decode each WAV straight into its row of its split's one array."""
    root = Path(in_dir)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"missing or corrupt dataset manifest in {in_dir}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"dataset manifest in {in_dir} is not a JSON object")
    dim, num_classes, sample_rate = (manifest.get(k) for k in ("dim", "num_classes", "sample_rate"))
    if not (all(type(n) is int and n >= 1 for n in (dim, sample_rate))
            and type(num_classes) is int and num_classes >= 2):
        raise FormatError(f"dataset manifest in {in_dir} needs integer dim >= 1, num_classes >= 2 "
                          "and sample_rate >= 1")
    try:
        _check_sample_rate(sample_rate)
    except InvalidInputError as exc:
        raise FormatError(f"dataset manifest in {in_dir}: {exc}") from exc
    seed = _int_or_null(manifest, "seed", f"dataset manifest in {in_dir}")
    header, rows = read_csv(root / "labels.csv")
    if header != ["filename", "label", "split"]:
        raise FormatError("labels.csv must have columns filename,label,split")
    labels: dict[str, list[int]] = {name: [] for name in SPLITS}
    reads = []  # (filename, path, split, row in the split): every row is checked before a WAV is read
    for row in rows:
        if len(row) != 3:
            raise FormatError(f"labels.csv row {row!r} needs 3 fields")
        fname, label, split = row
        if split not in SPLITS:
            raise FormatError(f"unknown split tag {split!r} in labels.csv")
        try:
            label = int(label)
        except ValueError as exc:
            raise FormatError(f"labels.csv: label {label!r} of {fname} is not an integer") from exc
        if not 0 <= label < num_classes:
            raise FormatError(f"labels.csv: label {label} of {fname} is not a class of this "
                              f"{num_classes}-class dataset")
        path = root / fname
        if not path.is_file():
            raise FormatError(f"labels.csv names {fname!r}, which is not a file in {in_dir}")
        reads.append((fname, path, split, len(labels[split])))
        labels[split].append(label)
    samples = {name: np.empty((0, dim)) for name in SPLITS}
    for fname, path, split, i in reads:
        pcm, rate = _read_pcm(path)
        if pcm.size != dim:
            raise FormatError(f"{fname}: length {pcm.size} != dataset dim {dim}")
        if rate != sample_rate:
            raise FormatError(f"{fname}: sample rate {rate} != dataset rate {sample_rate}")
        if i == 0:  # allocated after a WAV has the manifest's dim, so a damaged dim allocates nothing
            samples[split] = np.empty((len(labels[split]), dim))
        _decode(pcm, out=samples[split][i])
    return SyntheticDataset(
        **samples,
        labels={name: np.array(labels[name], dtype=np.int64) for name in SPLITS},
        num_classes=num_classes, dim=dim, sample_rate=sample_rate, seed=seed)
