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

Each value is staged in 32 bytes: a lead word ("-", "0.000", d0, "."),
d1..d16 as four 4-digit table words, and one word for the exponent and the
separator; a byte mask per layout keeps the characters the value shows.  A
point inside the digits (fixed notation with 1 <= k <= 15) comes from
shifting d1..dk one byte left over the lead ".", once per k and only on the
rows that need it.  One call allocates its work buffers once (0.6 MB) and
every block is formatted in them, each step writing through ``out=``; a
fresh temporary per step costs more in page faults than the arithmetic.
The lookup tables are built on the first call and kept.

Every file locsym writes is opened by ``_open_new``: an existing regular
file is unlinked and a new one created, never truncated and rewritten; a
device, FIFO or standard stream is written in place.
"""

from __future__ import annotations

import errno
import functools
import itertools
import math
import os
import re
import stat
import warnings

import numpy as np

from .errors import PgmError, ValidationError

PGM_MAXVAL = 65535

# a header token, or a # comment, which runs to the end of its line
_PGM_TOKEN = re.compile(rb"#[^\n]*|(\S+)")


def _open_new(path, mode="xb"):
    """Open a new file at ``path`` in place of any regular file there.

    ``mode`` is ``"xb"`` or ``"x"``.  The path is resolved first, so a
    symlink still points at the file written.  An existing regular file is
    unlinked, then the new one is created with ``O_CREAT | O_EXCL``; the
    old inode is never truncated.  On ext4 (``auto_da_alloc``) closing a
    file that was truncated and rewritten starts its writeback at once, and
    the next rewrite of the path waits on that I/O.  A file there that the
    user may not write raises PermissionError before anything is touched.
    Anything else at the path (a device such as /dev/null, a FIFO, a pipe
    or a standard stream named as /dev/stdout) is opened and truncated in
    place, since replacing it would cut off whoever reads it.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and (not stat.S_ISREG(st.st_mode) or _is_std_stream(st)):
        return open(path, mode.replace("x", "w"))
    target = os.path.realpath(path)
    if st is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    try:
        os.unlink(target)
    except FileNotFoundError:
        pass
    return open(target, mode)


def _is_std_stream(st) -> bool:
    """Whether ``st`` is the file of stdin, stdout or stderr."""
    for fd in (0, 1, 2):
        try:
            if os.path.samestat(st, os.fstat(fd)):
                return True
        except OSError:
            pass
    return False


def load_pgm(path, value_range=(0.0, 1.0)) -> np.ndarray:
    """Read a square P2/P5 PGM and map gray levels linearly onto the range."""
    check_value_range(value_range)
    lo, hi = value_range
    with open(path, "rb") as fh:
        data = fh.read()
    toks = ((m.start(), m[1]) for m in _PGM_TOKEN.finditer(data) if m[1])
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
    f = np.nan_to_num(f, nan=lo, posinf=hi, neginf=lo)  # the one work copy
    np.clip(f, lo, hi, out=f)
    f -= lo
    f /= hi - lo
    f *= PGM_MAXVAL
    gray = np.round(f, out=f).astype(">u2", order="C")
    with _open_new(path) as fh:
        fh.write(f"P5\n{f.shape[1]} {f.shape[0]}\n{PGM_MAXVAL}\n".encode())
        fh.write(gray)


# --- %.17g text, formatted a block at a time --------------------------------
# Decimal digits: for |x| with decimal exponent k = floor(log10|x|), the 17
# significant digits are D = round(|x| * 10**(16 - k)).  10**p is held as a
# double-double hi + lo (hi split in head + tail for Dekker's exact product),
# for p in [_P_MIN, _P_MAX].
_P_MIN, _P_MAX = -260, 290
_SPLIT = 134217729.0  # 2**27 + 1
_A_MIN, _A_MAX = 1e-270, 1e270  # |x| whose 16 - k stays in the table
_K_MIN = -300  # tables indexed by k cover k in [_K_MIN, -_K_MIN)
_BLOCK = 4096  # values per pass; a call's work buffers are then 0.6 MB

# The 32 staged bytes of a value, in output order: 0 "-", 1..5 "0.000",
# 6 d0, 7 ".", 8..23 d1..d16, 24 "e", 25 the exponent's sign, 26..28 its
# three digits, 29 the separator, 30..31 NUL.
_WIDTH, _SEP = 32, 29
_D0, _D1 = 6, 8  # bytes of d0 and d1; di is byte 7 + i for i >= 1
_MOVE = 31  # a mask byte that holds k when the point goes after dk
_NEG = 23 * 17  # layout offset of a negative value


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
        digits = list(range(_D1, _D1 + nd - 1))  # d1..d[nd-1]
        if form > 20:  # d0[.d1..]e+[h]tu
            keep += [_D0] + [_D0 + 1] * (nd > 1) + digits + [24, 25, 27, 28]
            keep += [26] * (form == 22)
        elif nd > k + 1 >= 1:  # d0..dk.dk+1..
            keep += [_D0, _D0 + 1] + digits
            masks[neg, form, nd - 1, _MOVE] = k
        elif k >= 0:  # d0..dk
            keep += [_D0] + list(range(_D1, _D1 + k))
        else:  # 0.[000]d0..
            keep += list(range(1, 2 - k)) + [_D0] + digits
        masks[neg, form, nd - 1, keep] = 0xFF
    return masks.reshape(-1, _WIDTH).view("<u8")


@functools.cache
def _tables() -> tuple:
    """The formatter's lookup tables, built on the first ``save_csv``."""
    lead = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), "<u8")
    chunk = np.arange(10000, dtype=np.uint32)  # 4-digit chunks of d1..d16
    digits4 = np.zeros(10000, dtype="<u4")  # their text, one word each
    last = np.zeros((4, 10000), dtype=np.uint8)  # last nonzero digit's place
    digit = np.empty_like(chunk)
    for place in range(1, 5):  # in byte place - 1 of the word
        np.floor_divide(chunk, 10 ** (4 - place), out=digit)
        digit %= 10
        np.copyto(last[0], place, where=digit != 0)
        digit += ord("0")
        digit <<= 8 * (place - 1)
        digits4 |= digit
    for i in range(1, 4):  # places in d1..d16 of the (i+1)-th chunk
        np.add(last[0], 4 * i, out=last[i], where=last[0] != 0)
    ks = range(_K_MIN, -_K_MIN)
    exp = np.frombuffer(b"".join(b"e%+04d,\0\0" % k for k in ks), "<u8")
    form = [k + 4 if -4 <= k <= 16 else 21 + (abs(k) >= 100) for k in ks]
    layout0 = np.array(form, dtype=np.intp) * 17
    return _pow10_table(), lead, digits4, last, exp, layout0, _masks()


def _work_buffers(size: int) -> tuple:
    """The arrays ``_format_block`` works in, for blocks of up to ``size``."""
    return (np.empty(size), np.empty((12, size)),
            np.empty((3, size), dtype=bool), np.empty((2, size), dtype=np.uint8),
            np.empty(size, dtype="<u4"), np.empty(size, dtype="<u8"),
            np.empty((size, _WIDTH), dtype=np.uint8))


def _format_block(block: np.ndarray, tables: tuple, work: tuple) -> bytes:
    """``%.17g`` CSV lines of the rows of ``block``.

    ``tables`` are ``_tables()``.  Every array is a view of ``work`` (see
    ``_work_buffers``), and every step writes into one.
    """
    pow10, lead, digits4, last, exp, layout0, masks = tables
    n, ncol = block.size, block.shape[1]
    x, bank, flags, places, digits, word, staged = work
    x = x[:n]
    np.copyto(x.reshape(block.shape), block)
    a, a_head, a_tail, head, tail, lo, hi, err = bank[:8, :n]
    k, idx, below, d = bank[8:, :n].view(np.intp)
    exact, flag, nonzero = flags[:, :n]
    nd, place = places[:, :n]
    digits, word, staged = digits[:n], word[:n], staged[:n]

    np.abs(x, out=a)
    np.greater_equal(a, _A_MIN, out=exact)
    exact &= np.less(a, _A_MAX, out=flag)
    np.fmin(np.fmax(a, _A_MIN, out=a), _A_MAX, out=a)  # nan to _A_MIN
    np.floor(np.log10(a, out=err), out=err)
    np.copyto(k, err, casting="unsafe")
    np.subtract(16 - _P_MIN, k, out=idx)
    for row, out in zip(pow10, (head, tail, lo)):
        row.take(idx, out=out, mode="clip")
    np.multiply(a, np.add(head, tail, out=hi), out=hi)
    # a * 10**p - hi to ~1e-15: Dekker's exact product error, plus a * lo
    np.multiply(a, _SPLIT, out=a_head)
    np.subtract(a_head, a, out=a_tail)
    np.subtract(a_head, a_tail, out=a_head)
    np.subtract(a, a_head, out=a_tail)
    np.multiply(a_head, head, out=err)
    err -= hi
    err += np.multiply(a_head, tail, out=a_head)
    err += np.multiply(a_tail, head, out=head)
    err += np.multiply(a_tail, tail, out=tail)
    err += np.multiply(a, lo, out=lo)
    whole = np.floor(err, out=head)
    frac = np.subtract(err, whole, out=err)
    np.copyto(below, hi, casting="unsafe")  # hi >= 2**53 is whole
    np.copyto(d, whole, casting="unsafe")
    below += d
    np.add(below, np.greater(frac, 0.5, out=flag), out=d)
    # fall back near a rounding tie, and where D is not 17 digits: k was
    # misjudged by log10, or |x| rounds up to a power of ten (as 1e-14 does)
    frac -= 0.5
    exact &= np.greater(np.abs(frac, out=frac), 1e-6, out=flag)
    exact &= np.greater_equal(below, 10 ** 16, out=flag)
    exact &= np.less(d, 10 ** 17, out=flag)
    np.not_equal(x, 0.0, out=nonzero)  # 0 and -0 are D = 0, k = 0
    d *= nonzero
    k *= nonzero

    # D = d0 c1 c2 c3 c4, the c's the 4-digit chunks of d1..d16, kept in
    # the float rows, which are free now
    chunks = bank[:4, :n].view(np.intp)
    c1, c2, c3, c4 = chunks
    np.floor_divide(d, 10 ** 8, out=below)
    d -= np.multiply(below, 10 ** 8, out=idx)
    np.floor_divide(d, 10 ** 4, out=c3)
    np.subtract(d, np.multiply(c3, 10 ** 4, out=c4), out=c4)
    np.floor_divide(below, 10 ** 4, out=c1)
    np.subtract(below, np.multiply(c1, 10 ** 4, out=c2), out=c2)
    np.floor_divide(c1, 10 ** 4, out=idx)
    c1 -= np.multiply(idx, 10 ** 4, out=below)
    words, words4 = staged.view("<u8"), staged.view("<u4")
    words[:, 0] = lead.take(idx, out=word, mode="clip")
    last[0].take(c1, out=nd, mode="clip")
    for col, (c, table) in enumerate(zip(chunks, last), 2):
        words4[:, col] = digits4.take(c, out=digits, mode="clip")
        np.maximum(nd, table.take(c, out=place, mode="clip"), out=nd)
    np.subtract(k, _K_MIN, out=idx)  # the row of k in the k tables
    words[:, 3] = exp.take(idx, out=word, mode="clip")
    staged[ncol - 1::ncol, _SEP] = ord("\n")

    layout = layout0.take(idx, out=d, mode="clip")
    layout += np.multiply(np.signbit(x, out=flag), _NEG, out=below)
    layout += nd  # the significant digits less one
    keep = bank[4:8].ravel()[:4 * n].view("<u8").reshape(n, 4)  # free rows
    words &= masks.take(layout, axis=0, out=keep, mode="clip")
    moves = keep.view(np.uint8)[:, _MOVE]
    inner = np.flatnonzero(moves)
    if inner.size:  # put the point after dk, one k at a time
        ks = moves[inner]
        for kv in map(int, np.unique(ks)):
            rows = inner[ks == kv]
            part = staged[rows]
            part[:, _D0 + 1:_D1 + kv - 1] = part[:, _D1:_D1 + kv]
            part[:, _D1 + kv - 1] = ord(".")
            staged[rows] = part
    for i in np.flatnonzero(nonzero > exact):
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
    with _open_new(path) as fh:
        if ncol == 0:  # as np.savetxt: an empty line per row
            fh.write(b"\n" * nrow)
            return
        rows = max(1, _BLOCK // ncol)
        tables = _tables()  # first, so that kept tables sit below the buffers
        work = _work_buffers(min(rows, nrow) * ncol)
        for start in range(0, nrow, rows):
            fh.write(_format_block(f[start:start + rows], tables, work))


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
