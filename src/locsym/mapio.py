"""File formats for phase-plane maps: 16-bit PGM and full-precision CSV.

PGM carries quantized, human-viewable grids (P2 ASCII and P5 binary, square
only, maxval up to 65535; two-byte samples are big-endian per the Netpbm
convention).  CSV carries exact float64 values, 17 significant digits, and
round-trips bit-for-bit; NaN sentinels survive CSV but are written as the
low end of the range in PGM.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import PgmError, ValidationError

PGM_MAXVAL = 65535


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        yield pos, data[pos:end]
        pos = end


def load_pgm(path, value_range=(0.0, 1.0)) -> np.ndarray:
    """Read a square P2/P5 PGM and map gray levels linearly onto the range."""
    lo, hi = value_range
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    try:
        _, magic = next(toks)
        if magic not in (b"P2", b"P5"):
            raise PgmError(f"{path}: unsupported magic {magic!r}")
        (_, w_tok), (_, h_tok), (last, max_tok) = (next(toks) for _ in range(3))
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError) as exc:
        raise PgmError(f"{path}: malformed header") from exc
    if width != height or width < 1:
        raise PgmError(f"{path}: image must be square, non-empty, got {width}x{height}")
    if not 0 < maxval <= PGM_MAXVAL:
        raise PgmError(f"{path}: maxval {maxval} outside 1..{PGM_MAXVAL}")
    if magic == b"P2":
        try:
            values = np.array([int(tok) for _, tok in toks], dtype=np.int64)
        except ValueError as exc:
            raise PgmError(f"{path}: non-numeric P2 sample") from exc
    else:
        # raster starts after exactly one whitespace byte past maxval
        raster = data[last + len(max_tok) + 1:]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = width * height * dtype.itemsize
        if len(raster) < expected:
            raise PgmError(f"{path}: truncated raster")
        values = np.frombuffer(raster[:expected], dtype=dtype).astype(np.int64)
    if values.size != width * height:
        raise PgmError(f"{path}: expected {width * height} samples, got {values.size}")
    if values.min() < 0 or values.max() > maxval:
        raise PgmError(f"{path}: sample outside 0..{maxval}")
    gray = values.reshape(height, width).astype(np.float64)
    return lo + (hi - lo) * gray / maxval


def save_pgm(grid, path, value_range=(0.0, 1.0)):
    """Write a square map as binary 16-bit PGM, clamped to the range."""
    lo, hi = value_range
    if not hi > lo:
        raise ValidationError(f"value range must be increasing, got {value_range}")
    f = np.asarray(grid, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValidationError(f"map must be square, got {f.shape}")
    f = np.nan_to_num(f, nan=lo, posinf=hi, neginf=lo)
    f = np.clip(f, lo, hi)
    gray = np.round((f - lo) / (hi - lo) * PGM_MAXVAL).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{f.shape[1]} {f.shape[0]}\n{PGM_MAXVAL}\n".encode())
        fh.write(gray.tobytes())


def save_csv(grid, path):
    """Write a map row-major with 17 significant digits (lossless)."""
    f = np.asarray(grid, dtype=np.float64)
    if f.ndim != 2:
        raise ValidationError("map must be 2-d")
    np.savetxt(path, f, fmt="%.17g", delimiter=",")


def load_csv(path) -> np.ndarray:
    """Read a square map written by :func:`save_csv`."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # an empty file only warns
        try:
            f = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    if f.shape[0] != f.shape[1]:
        raise ValidationError(f"{path}: expected a square map, got {f.shape}")
    return f


def load_map(path, value_range=(0.0, 1.0)) -> np.ndarray:
    """Dispatch on extension: .csv is exact, anything else is read as PGM."""
    if str(path).lower().endswith(".csv"):
        return load_csv(path)
    return load_pgm(path, value_range)
