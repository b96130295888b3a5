"""Waveform container, loudness metrics and 16-bit PCM WAV I/O.

Signals are unipolar floats in [0, 1], the input range the victim models are
trained on. PCM integers map into that range on load and back with rounding on
save, so a load -> save cycle is byte identical. The loudness metrics reduce over
the last axis: a (rows, d) block gives each row's value, bit for bit its vector's.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import FormatError, InvalidInputError, UndefinedMetricError

DEFAULT_SAMPLE_RATE = 16000

# RMS floor applied before taking logs, so silence has a defined level
# (20*log10(1e-12) = -240 dB) instead of -inf.
POWER_FLOOR = 1e-12


def _check_samples(x: np.ndarray) -> None:
    """Reject an empty array or one holding a value outside [0, 1]; NaN fails too."""
    if x.size == 0 or not 0.0 <= float(x.min()) <= float(x.max()) <= 1.0:
        raise InvalidInputError("samples must be non-empty and lie in [0, 1]")


def _check_labels(x, y) -> None:
    """Reject labels that are not a 1-D array with one entry per sample of x."""
    if np.shape(y) != (len(x),):
        raise InvalidInputError("labels must align with samples")


def _whole(value) -> bool:
    """Whether a count or rate is whole: not a fraction, NaN or inf. An int may lie past float range."""
    return isinstance(value, int) or float(value).is_integer()


def _count(value, least: int, name: str) -> int:
    """A count as an int: a whole number >= least; a whole float such as 3.0 passes."""
    if not (least <= value < np.inf and _whole(value)):
        raise InvalidInputError(f"{name} {value} must be a whole number >= {least}")
    return int(value)


def _check_sample_rate(rate) -> int:
    """The rate as an int; a WAV header stores rate * 2 bytes as uint32, so it must lie in [1, 2**31)."""
    if not (1 <= rate < 2**31 and _whole(rate)):
        raise InvalidInputError(f"sample rate {rate} must be a whole number in [1, 2**31)")
    return int(rate)


@dataclass(frozen=True)
class AudioSample:
    """A mono waveform in [0, 1]."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1:
            raise InvalidInputError("waveform must be a 1-D array")
        _check_samples(x)
        object.__setattr__(self, "sample_rate", _check_sample_rate(self.sample_rate))
        object.__setattr__(self, "samples", x)

    def __len__(self) -> int:
        return int(self.samples.size)


def _per_row(r) -> float | np.ndarray:
    """A last-axis reduction: a float for a vector, one value per row for a block."""
    return float(r) if np.ndim(r) == 0 else r


def rms_power(v: np.ndarray) -> float | np.ndarray:
    """Root mean square over the last axis: a float for a vector, one value per row for a block."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise InvalidInputError("rms of an empty vector is undefined")
    return _per_row(np.sqrt(np.mean(np.square(v), axis=-1)))


def spl(v: np.ndarray) -> float | np.ndarray:
    """Sound pressure level in dB, 20*log10(rms) floored at POWER_FLOOR, over the last axis."""
    return _per_row(20.0 * np.log10(np.maximum(rms_power(v), POWER_FLOOR)))


def snr(x: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Signal-to-noise ratio in dB of signal x against perturbation v, row by row for blocks."""
    if np.shape(x) != np.shape(v):
        raise InvalidInputError("snr requires equal-length vectors")
    return spl(x) - spl(v)


def _peak_db(v: np.ndarray) -> float | np.ndarray:
    # peak over strictly positive entries only (log10 of <= 0 is undefined): NaN for a block row with none
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise InvalidInputError("peak level of an empty vector is undefined")
    peak = np.fmax.reduce(v, axis=-1)  # skips NaN; when positive, it is the positive entries' peak
    if np.ndim(peak) == 0 and not peak > 0.0:
        raise UndefinedMetricError("no strictly positive entries")
    return _per_row(20.0 * np.log10(peak, out=np.full(np.shape(peak), np.nan), where=peak > 0.0))


def rel_loudness(x: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Peak level of v minus peak level of x, in dB, row by row for blocks.

    An audibility proxy close in spirit to the l-infinity norm: how far below the signal's
    loudest sample the perturbation's loudest sample sits (NaN for a block row without a peak).
    """
    return _peak_db(v) - _peak_db(x)


def _read_pcm(path: str | Path) -> tuple[np.ndarray, int]:
    """A mono 16-bit PCM WAV's samples as int16, and its sample rate."""
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            frames = fh.getnframes()
            raw = fh.readframes(frames)
    except (wave.Error, EOFError, RuntimeError) as exc:  # RuntimeError: a chunk size past the end
        raise FormatError(f"not a readable WAV file: {path}") from exc
    if channels != 1:
        raise FormatError("only mono WAV files are supported")
    if width != 2:
        raise FormatError("only 16-bit PCM WAV files are supported")
    if len(raw) != 2 * frames:
        raise FormatError(f"truncated WAV payload: {path}")
    pcm = np.frombuffer(raw, dtype="<i2")
    if pcm.size == 0:
        raise FormatError("empty WAV file")
    try:
        return pcm, _check_sample_rate(rate)
    except InvalidInputError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _decode(pcm: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """16-bit PCM into [0, 0.99998] by s -> (s/32768 + 1)/2, exactly, in place in out when given."""
    out = np.divide(pcm, 32768.0, out=out)
    return np.divide(np.add(out, 1.0, out=out), 2.0, out=out)


def load_wav(path: str | Path) -> AudioSample:
    """Read a mono 16-bit PCM WAV into [0, 1] (see _decode)."""
    pcm, rate = _read_pcm(path)
    return AudioSample(samples=_decode(pcm), sample_rate=rate)


def save_wav(sample: AudioSample, path: str | Path) -> None:
    """Write a mono 16-bit PCM WAV, inverting the load mapping with rounding."""
    s = np.rint((2.0 * sample.samples - 1.0) * 32768.0)
    pcm = np.clip(s, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample.sample_rate)
        fh.writeframes(pcm.tobytes())
