"""Plain-text matrix, key=value and CSV file formats shared by the harness
and the CLI. Every file is written with LF line endings. A key=value file
names each key at most once.

Matrix files: first line "rows cols", then one whitespace-separated row per
line, written with repr-level precision so round-trips are exact.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def save_matrix(m: np.ndarray, path: str | Path) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    rows, cols = m.shape
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path: str | Path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: bad matrix header")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: expected {rows}x{cols}, got {data.shape}")
    return data


def save_keyvalues(d: dict, path: str | Path) -> None:
    with open(path, "w") as fh:
        for k, v in d.items():
            fh.write(f"{k}={v}\n")


def load_keyvalues(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: bad line {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in out:
            raise ValueError(f"{path}: repeated key {k!r}")
        out[k] = v
    return out


def parse_value(path: str | Path, key: str, raw: str, parse):
    """parse(raw) for the value of key in the key=value file at path; a
    value it rejects is a ValueError that names the key and the file."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: bad value {raw!r} for key {key!r}: {exc}") from None


def save_csv(header, rows, path: str | Path) -> None:
    """Comma-separated header and rows: floats at repr precision (numpy
    float scalars as plain floats, not np.float64(...)), every other value
    as str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")
