"""File formats for phase-plane maps: 16-bit PGM and full-precision CSV.

PGM carries quantized, human-viewable grids (P2 ASCII and P5 binary, square
only, maxval up to 65535; two-byte samples are big-endian per the Netpbm
convention).  CSV carries exact float64 values, 17 significant digits, and
round-trips bit-for-bit; NaN sentinels survive CSV but are written as the
low end of the range in PGM.

``save_csv`` writes exactly the bytes of ``np.savetxt(path, grid,
fmt="%.17g", delimiter=",")`` but formats a block of rows at a time in
numpy.  The 17 significant digits of x are round(|x| * 10**(16 - k)), k its
decimal exponent, from a double-double power of ten and Dekker's exact
product (error below 1e-14); byte tables then lay them out by the ``%g``
rules.  A value that is not finite, lies outside 1e-270..1e270, whose
scaled product is within 1e-6 of a rounding tie, or whose digits do not
come out as a 17-digit integer is formatted on its own by Python's
``'%.17g' %``, so no digit depends on the approximation.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    check_value_range(value_range)
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


def check_value_range(value_range) -> None:
    """Raise ValidationError unless (lo, hi) is finite with lo < hi."""
    lo, hi = value_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(
            f"value range must be finite and increasing, got {tuple(value_range)}")


def save_pgm(grid, path, value_range=(0.0, 1.0)):
    """Write a square map as binary 16-bit PGM, clamped to the range."""
    check_value_range(value_range)
    lo, hi = value_range
    f = np.asarray(grid, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValidationError(f"map must be square, got {f.shape}")
    f = np.nan_to_num(f, nan=lo, posinf=hi, neginf=lo)
    f = np.clip(f, lo, hi)
    gray = np.round((f - lo) / (hi - lo) * PGM_MAXVAL).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{f.shape[1]} {f.shape[0]}\n{PGM_MAXVAL}\n".encode())
        fh.write(gray.tobytes())


# --- %.17g text, formatted a block at a time --------------------------------
# Decimal digits: for |x| with decimal exponent k = floor(log10|x|), the 17
# significant digits are D = round(|x| * 10**(16 - k)).  10**p is held as a
# double-double hi + lo (hi split in head + tail for Dekker's exact product),
# for p in [_P_MIN, _P_MAX].
_P_MIN, _P_MAX = -260, 290
_SPLIT = 134217729.0  # 2**27 + 1
_A_MIN, _A_MAX = 1e-270, 1e270  # |x| whose 16 - k stays in the table
_K_MIN = -300  # tables indexed by k cover k in [_K_MIN, -_K_MIN)
_BLOCK = 4096  # values per pass: fastest at L = 255..512, 0.2 MB staged

# Each value is staged in 48 bytes holding, in output order, every character
# its %.17g text can need: "-", "0.000" (as in 0.000ddd), NUL, d0, "." before
# each of d1..d16, "e", the exponent's sign and three digits, the separator,
# NUL, NUL.  A byte mask per layout then keeps the characters the value uses.
_WIDTH, _SEP = 48, 45
_DIGIT = [7 + 2 * i for i in range(17)]  # byte of d0..d16


def _pow10_table() -> np.ndarray:
    """Rows head, tail and lo of 10**p for p in [_P_MIN, _P_MAX]."""
    table = np.empty((3, _P_MAX - _P_MIN + 1))
    for col, p in enumerate(range(_P_MIN, _P_MAX + 1)):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den  # int division rounds correctly, as does lo's
        n, d = hi.as_integer_ratio()
        head = _SPLIT * hi - (_SPLIT * hi - hi)
        table[:, col] = head, hi - head, (num * d - n * den) / (den * d)
    return table


def _masks() -> np.ndarray:
    """Staged bytes kept (0xff) per layout (sign, form, significant digits).

    %.17g writes fixed notation for -4 <= k <= 16 (forms 0..20) and
    otherwise scientific notation with two or three exponent digits (forms
    21, 22).  The significant digits are those left once trailing zeros
    are cut, 1..17.
    """
    masks = np.zeros((2, 23, 17, _WIDTH), dtype=np.uint8)
    for neg, form, nd in itertools.product(range(2), range(23), range(1, 18)):
        k = form - 4
        keep = [0] * neg + [_SEP]
        if form > 20:  # d0[.d1..]e+dd
            keep += _DIGIT[:nd] + [_DIGIT[0] + 1] * (nd > 1)
            keep += [40, 41, 43, 44] + [42] * (form == 22)  # e+[h]tu
        elif k >= 0:  # d0..dk[.dk+1..]
            keep += _DIGIT[:max(nd, k + 1)] + [_DIGIT[k] + 1] * (nd > k + 1)
        else:  # 0.[000]d0..
            keep += [1, 2] + list(range(3, 2 - k)) + _DIGIT[:nd]
        masks[neg, form, nd - 1, keep] = 0xFF
    return masks.reshape(-1, _WIDTH).view("<u8")


@functools.cache
def _tables() -> tuple:
    """The formatter's lookup tables, built on the first ``save_csv``."""
    lead = np.frombuffer(b"".join(b"-0.000\0%d" % d for d in range(10)), "<u8")
    chunk = np.arange(10000)  # 4-digit chunks of d1..d16, as ".d.d.d.d" words
    digits4 = np.full((10000, 8), ord("."), dtype=np.uint8)
    digits4[:, 1::2] = ord("0") + chunk[:, None] // [1000, 100, 10, 1] % 10
    trailing0 = sum(chunk % 10 ** j == 0 for j in range(1, 5))  # 4 for 0000
    ks = range(_K_MIN, -_K_MIN)
    exp = np.frombuffer(b"".join(b"e%+04d\0\0\0" % k for k in ks), "<u8")
    form = np.array([k + 4 if -4 <= k <= 16 else 21 + (abs(k) >= 100)
                     for k in ks])
    return (_pow10_table(), lead, digits4.view("<u8").ravel(), trailing0,
            exp, form, _masks())


def _format_block(x: np.ndarray, ncol: int) -> bytes:
    """``%.17g`` CSV lines of ``x``, a flat block of whole rows of ``ncol``."""
    pow10, lead, digits4, trailing0, exp, form, masks = _tables()
    a = np.abs(x)
    exact = (a >= _A_MIN) & (a < _A_MAX)
    a = np.where(exact, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    head, tail, lo = (np.take(row, 16 - k - _P_MIN) for row in pow10)
    hi = a * (head + tail)
    # a * 10**p - hi to ~1e-15: Dekker's exact product error, plus a * lo
    a_head = _SPLIT * a - (_SPLIT * a - a)
    a_tail = a - a_head
    err = (((a_head * head - hi) + a_head * tail + a_tail * head)
           + a_tail * tail + a * lo)
    whole = np.floor(err)
    frac = err - whole
    below = hi.astype(np.int64) + whole.astype(np.int64)  # hi >= 2**53 is whole
    d = below + (frac > 0.5)
    # fall back near a rounding tie, and where D is not 17 digits: k was
    # misjudged by log10, or |x| rounds up to a power of ten (as 1e-14 does)
    exact &= (np.abs(frac - 0.5) > 1e-6) & (below >= 10 ** 16) & (d < 10 ** 17)
    zero = x == 0.0
    d[zero] = 0
    k[zero] = 0

    high, low = (part.astype(np.int32) for part in np.divmod(d, 10 ** 8))
    c1, c2 = np.divmod(high % 10 ** 8, 10 ** 4)
    c3, c4 = np.divmod(low, 10 ** 4)
    staged = np.empty((x.size, _WIDTH // 8), dtype="<u8")
    staged[:, 0] = lead[high // 10 ** 8]
    staged[:, 1] = digits4[c1]
    staged[:, 2] = digits4[c2]
    staged[:, 3] = digits4[c3]
    staged[:, 4] = digits4[c4]
    staged[:, 5] = exp[k - _K_MIN]
    sep = staged.view(np.uint8)[:, _SEP].reshape(-1, ncol)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")

    zeros = trailing0[c4]
    zeros += (zeros == 4) * trailing0[c3]
    zeros += (zeros == 8) * trailing0[c2]
    zeros += (zeros == 12) * trailing0[c1]
    layout = (np.signbit(x) * 23 + form[k - _K_MIN]) * 17 + 16 - zeros
    staged &= masks[layout]
    staged = staged.view(np.uint8)
    for i in np.flatnonzero(~(exact | zero)):
        text = ("%.17g" % x[i]).encode() + staged[i, _SEP:_SEP + 1].tobytes()
        staged[i] = 0
        staged[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return staged.tobytes().translate(None, b"\0")


def save_csv(grid, path):
    """Write a map row-major with 17 significant digits (lossless).

    The bytes are those of ``np.savetxt(path, grid, fmt="%.17g",
    delimiter=",")``: "," between values and a newline after every row.
    """
    f = np.asarray(grid, dtype=np.float64)
    if f.ndim != 2:
        raise ValidationError("map must be 2-d")
    nrow, ncol = f.shape
    with open(path, "wb") as fh:
        if ncol == 0:  # as np.savetxt: an empty line per row
            fh.write(b"\n" * nrow)
            return
        rows = max(1, _BLOCK // ncol)
        for start in range(0, nrow, rows):
            block = np.ascontiguousarray(f[start:start + rows]).ravel()
            fh.write(_format_block(block, ncol))


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
