"""Single-file artifact container: magic, canonical JSON manifest, float64 blobs.

Both model checkpoints and perturbation files use this layout:

    bytes 0..8    magic b"UAPC0002", the format version (format 1's float32 blobs are refused)
    bytes 8..12   manifest length (uint32, little endian)
    ...           manifest JSON (UTF-8, sorted keys, no whitespace)
    ...           named blobs, concatenated little-endian float64: the arrays as computed

The manifest's "blobs" entry records each blob's name and shape in storage
order, so files are bit-reproducible from the same arrays and manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .exceptions import FormatError

MAGIC = b"UAPC0002"


def fmt_float(x: float) -> str:
    """Canonical float text: shortest repr, so parse -> re-emit is identity."""
    return repr(float(x))


def _cell(value) -> str:
    """The one cell rule: a float (float64 too) as fmt_float, None empty, anything else as str."""
    if value is None:
        return ""
    return fmt_float(value) if isinstance(value, float) else str(value)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write CSV, each cell by _cell, with a fixed newline convention so output bytes are canonical."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"CSV is not UTF-8 text: {path}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"empty CSV: {path}")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def canonical_json(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def write_container(path: str | Path, manifest: dict, blobs: dict[str, np.ndarray]) -> None:
    meta = dict(manifest)
    meta["blobs"] = [
        {"name": name, "shape": [int(n) for n in np.shape(arr)]} for name, arr in blobs.items()
    ]
    payload = canonical_json(meta)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(payload).to_bytes(4, "little"))
        fh.write(payload)
        for arr in blobs.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _int_or_null(manifest: dict, key: str, where: str) -> int | None:
    """A stored manifest's entry key, which must be an integer or null (an absent entry reads as null)."""
    if not ((value := manifest.get(key)) is None or type(value) is int):  # bool is refused too
        raise FormatError(f"{where}: {key} must be an integer or null, got {value!r}")
    return value


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] == b"UAPC0001":
        raise FormatError(f"{path} is a format-1 (float32) container; this version reads format 2 only")
    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"not an artifact container: {path}")
    length = int.from_bytes(data[len(MAGIC) : len(MAGIC) + 4], "little")
    offset = len(MAGIC) + 4
    try:
        manifest = json.loads(data[offset : offset + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt container manifest: {path}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"container manifest is not a JSON object: {path}")
    offset += length
    blobs: dict[str, np.ndarray] = {}
    for entry in manifest.get("blobs", []):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise FormatError(f"malformed blob entry {entry!r} in {path}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        chunk = data[offset : offset + 8 * count]
        if len(chunk) != 8 * count:
            raise FormatError(f"truncated blob {entry['name']!r} in {path}")
        flat = np.frombuffer(chunk, dtype="<f8")
        if not np.isfinite(flat).all():
            raise FormatError(f"non-finite values in blob {entry['name']!r} in {path}")
        blobs[entry["name"]] = flat.astype(np.float64).reshape(shape)
        offset += 8 * count
    if offset != len(data):
        raise FormatError(f"trailing bytes in container: {path}")
    return manifest, blobs
