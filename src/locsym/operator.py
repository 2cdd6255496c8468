"""Localization operators: assembly, application and eigendecomposition.

A symbol f on the phase plane and a window system S define the dense L x L
matrix A = (1/L) sum_z f[z] sum_k s_k (pi(z) g_k)(pi(z) g_k)*.  The 1/L
normalization makes f = 1 give the identity.  Each diagonal of A is a
circular convolution, so assembly costs O(L^2 log L) per window.  A real
symbol gives a Hermitian A, so only the diagonals d = 0..L//2 are computed
and the rest are their conjugate mirror; a complex symbol is assembled as
A(Re f) + i A(Im f).

Every operator is held as the diagonals d = 0..L//2 of its Hermitian part,
its half-lattice rows, plus its asymmetry max |A - A*|.  ``build_locop``
of a real symbol computes the rows; any other matrix, given or loaded,
has them gathered in one pass over its half lattice.  The full-rank
estimators (gp, was and wawd with all L eigenpairs, the measured impulse
kernels) symbolize the rows, so a run of only those never forms an L x L
matrix.  ``eigh``, behind the truncated spectra and wn_limit, reads the
Hermitian matrix the rows give.  pt, wn, ``apply`` and ``save_locop``
read the dense matrix: the one an operator was given, or, when the rows
give it back bit for bit, one formed from the rows on first read and
kept.
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct

import numpy as np

from .core import WindowSystem, as_signal, check_length
from .errors import NotSelfAdjointError, ValidationError
from .gabor import (_hermitian_gather, _hermitian_matrix, _lag_table,
                    _make_hermitian)
from .mapio import _open_new

HERMITIAN_REJECT_TOL = 1e-6

_DUMP_MAGIC = b"LOCOP1"
_DUMP_HEADER = struct.Struct("<6s2xI4x")  # magic, 2 pad, u32 L, 4 pad


class LocOperator:
    """Dense localization operator with provenance.

    ``matrix`` must be a square 2-d array of size L in 4..MAX_LENGTH with
    finite entries (ValidationError otherwise).  ``symbol_hash`` records
    the symbol the matrix was built from; it is informational and empty
    for operators loaded from disk.

    ``rows`` holds the diagonals d = 0..L//2 of the Hermitian part
    (A + A*)/2, row d being its entries [s, s - d], and ``asymmetry`` is
    max |A - A*|, 0 for an operator that ``build_locop`` made from a real
    symbol.  A matrix that ``_hermitian_matrix(rows)`` gives back bit for
    bit, as it does every built one, is formed from the rows on first read
    and kept; any other is kept beside the rows, as a copy of the one
    given or, built from a complex symbol, as assembled.  Both arrays
    are read-only, and no attribute can be reassigned, so the two always
    agree.
    """

    def __init__(self, matrix: np.ndarray, symbol_hash: str = ""):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"operator matrix must be square, got shape {matrix.shape}")
        check_length(matrix.shape[0], "operator size")
        self._gather(matrix, symbol_hash, copy=True)

    @classmethod
    def _of_rows(cls, rows: np.ndarray, symbol_hash: str) -> "LocOperator":
        """The Hermitian operator of ``_make_hermitian`` rows, which it keeps."""
        op = cls.__new__(cls)
        op._hold(rows, 0.0, symbol_hash)
        return op

    def _gather(self, matrix: np.ndarray, symbol_hash: str, copy: bool):
        # keeps the matrix, or a copy of it, when the rows do not give it back
        rows, asymmetry, exact = _hermitian_gather(matrix)
        self._hold(rows, asymmetry, symbol_hash)
        if not exact:
            vars(self)["matrix"] = _read_only(np.array(matrix) if copy else matrix)

    def _hold(self, rows: np.ndarray, asymmetry: float, symbol_hash: str):
        # a non-finite entry of A gives a non-finite row, or on the main
        # diagonal, whose imaginary part the rows drop, a non-finite asymmetry
        if not (np.all(np.isfinite(rows)) and np.isfinite(asymmetry)):
            raise ValidationError("operator has non-finite entries")
        vars(self).update(rows=_read_only(rows), asymmetry=asymmetry,
                          symbol_hash=symbol_hash)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to LocOperator.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete LocOperator.{name}")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(_hermitian_matrix(self.rows))

    @property
    def size(self) -> int:
        return self.rows.shape[1]


class Spectrum:
    """Eigenvalues (descending |lambda|) and matching orthonormal eigenvectors.

    ``eigenvectors[i]`` is the eigenvector for ``eigenvalues[i]``.  Built
    either from eigenpairs, ``Spectrum(eigenvalues, eigenvectors)``, which
    takes finite 1-d eigenvalues and finite (N, N) eigenvectors, N an
    integer in 4..MAX_LENGTH, and keeps the arrays given, or by
    :func:`eigendecompose` from an operator's half-lattice rows, which
    defers ``eigh``: the first read of ``eigenvalues`` or ``eigenvectors``
    runs it (a ``LinAlgError`` surfaces there) and keeps the result.
    ``matrix`` is the Hermitian matrix the spectrum describes and ``rows``
    its half-lattice rows, read-only.  A spectrum of an operator holds the
    operator's rows and forms ``matrix`` from them on first read; one of
    eigenpairs forms ``matrix`` as their eigen-sum and ``rows`` from it,
    each on first read.  Neither ``size``, ``rows`` nor ``matrix`` of an
    operator's spectrum runs ``eigh``.
    ``matrix``, ``rows`` and the eigenpairs are ``functools.cached_property``
    values: on Python 3.10 and 3.11 a first read holds a lock, so concurrent
    first reads run ``eigh`` once; on 3.12 and later there is no lock and
    two threads may each run it.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        lam, vec = np.asarray(eigenvalues), np.asarray(eigenvectors)
        if lam.ndim != 1 or vec.shape != (lam.size, lam.size):
            raise ValidationError(
                f"eigenvalues must be 1-d and eigenvectors (N, N), got "
                f"shapes {lam.shape} and {vec.shape}")
        check_length(lam.size, "spectrum size")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(vec))):
            raise ValidationError("eigenpairs have non-finite entries")
        self._pairs = (lam, vec)

    @property
    def size(self) -> int:
        return self.rows.shape[1] if "rows" in vars(self) else self._pairs[0].size

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._pairs[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._pairs[1]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return (_eigen_sum(*self._pairs) if "_pairs" in vars(self)
                else _hermitian_matrix(self.rows))

    @functools.cached_property
    def rows(self) -> np.ndarray:
        return _read_only(_hermitian_gather(self.matrix)[0])

    @functools.cached_property
    def _pairs(self):
        lam, vec = np.linalg.eigh(self.matrix)
        order = np.lexsort((-lam, -np.abs(lam)))
        return lam[order], vec.T[order]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _eigen_sum(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_i values[i] h_i h_i* over the eigenvector rows h_i.

    Formed as conj(conj(V^T diag(values)) @ V): the BLAS call of
    (V^T diag(values)) @ conj(V) on negated imaginary parts, which gives
    its bits up to the sign of zeros and makes no conjugate copy of V.
    """
    scaled = vectors.T * values
    total = np.matmul(np.conjugate(scaled, out=scaled), vectors)
    return np.conjugate(total, out=total)


def _locop_rows(f: np.ndarray, windows: WindowSystem) -> np.ndarray:
    """Diagonals A[s, s - d], d = 0..L//2, of A for a real symbol.

    Diagonal d is the circular convolution over time shift n of
    ifft_m f[n, d] with the lag product g[u] conj(g[u - d]), summed over
    the windows; ``ihfft`` gives ifft_m of a real f at d = 0..L//2 only.
    Every window's term is formed in one work buffer, FFTs in place.
    ``_make_hermitian`` finishes the diagonals of an A that is Hermitian
    bit for bit.
    """
    rows_hat = np.fft.ihfft(f, axis=1)
    rows_hat = np.fft.fft(rows_hat, axis=0, out=rows_hat).T
    diag = np.zeros(rows_hat.shape, dtype=np.complex128)
    work = np.empty_like(diag)
    for w, g in windows:
        np.fft.fft(_lag_table(g, out=work), axis=1, out=work)
        work *= rows_hat
        np.fft.ifft(work, axis=1, out=work)
        work *= w
        diag += work
    return _make_hermitian(diag)


def build_locop(symbol, windows: WindowSystem) -> LocOperator:
    """Assemble the localization operator for ``symbol`` over ``windows``.

    The symbol must be a finite square map whose size L passes the length
    rule, checked before anything of size L is allocated.
    O(L^2 log L) per window.  A real symbol gives an exactly Hermitian
    operator held as its half-lattice rows; a complex one gives the dense
    A(Re f) + 1j * A(Im f).
    """
    f = np.asarray(symbol)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValidationError(f"symbol must be a square map, got {f.shape}")
    check_length(f.shape[0], "symbol size")  # before any L x L mask
    if not np.all(np.isfinite(f)):
        raise ValidationError("symbol has non-finite entries")
    length = f.shape[0]
    if windows.length != length:
        raise ValidationError(
            f"window length {windows.length} != symbol size {length}"
        )
    rows = _locop_rows(f.real, windows)
    digest = hashlib.sha256(np.ascontiguousarray(f)).hexdigest()[:16]
    if not np.iscomplexobj(f):
        return LocOperator._of_rows(rows, digest)
    matrix = _hermitian_matrix(rows)
    del rows  # freed before the imaginary part is assembled
    imag = _hermitian_matrix(_locop_rows(f.imag, windows))
    imag *= 1j
    matrix += imag
    op = LocOperator.__new__(LocOperator)
    op._gather(matrix, digest, copy=False)  # nothing else holds the matrix
    return op


def apply(op: LocOperator, psi) -> np.ndarray:
    """Apply the operator: plain matrix-vector product."""
    psi = as_signal(psi)
    if psi.size != op.size:
        raise ValidationError(f"signal length {psi.size} != operator size {op.size}")
    return op.matrix @ psi


def hermitian_part(op: LocOperator) -> np.ndarray:
    """(A + A*) / 2 of an operator that is Hermitian up to roundoff.

    Raises NotSelfAdjointError when its asymmetry max |A - A*| exceeds
    HERMITIAN_REJECT_TOL; otherwise scatters its half-lattice rows.
    """
    return eigendecompose(op).matrix


def eigendecompose(op: LocOperator) -> Spectrum:
    """Full spectrum of a Hermitian localization operator.

    Checks the operator's asymmetry now (NotSelfAdjointError) and returns
    the lazy spectrum of its Hermitian part, which holds the operator's
    half-lattice rows: the Hermitian matrix is formed, and ``eigh`` run on
    it, on the first read of an eigenpair, so a ``LinAlgError`` surfaces
    there, not here.
    Eigenpairs are ordered by descending |lambda| and then descending
    signed lambda with one stable sort, so exact ties keep ``eigh``'s
    order.
    Eigenvectors are orthonormal; their phases, and the basis chosen inside
    a degenerate cluster, are whatever LAPACK returns.
    """
    if op.asymmetry > HERMITIAN_REJECT_TOL:
        raise NotSelfAdjointError(
            f"operator asymmetry {op.asymmetry:.3e} exceeds {HERMITIAN_REJECT_TOL}"
            "; complex symbol or invalid window system?")
    spectrum = Spectrum.__new__(Spectrum)  # holds the rows, no eigenpairs yet
    spectrum.rows = op.rows
    return spectrum


def save_locop(op: LocOperator, path):
    """Binary dump: 16-byte header (magic ``LOCOP1``, u32 L), then the
    matrix row-major as little-endian float64 (real, imag) pairs."""
    with _open_new(path) as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, op.size))
        fh.write(np.ascontiguousarray(op.matrix, dtype="<c16").tobytes())


def load_locop(path) -> LocOperator:
    """Read a matrix dumped by :func:`save_locop`; ``LocOperator`` checks it.

    The header's L is checked before anything of size L is read.  The
    matrix is memory-mapped read-only while its rows are gathered, so a
    dump that the rows give back bit for bit, as every dump of a built
    operator is, puts only the rows on the heap.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(_DUMP_HEADER.size)
            if len(header) != _DUMP_HEADER.size or header[:6] != _DUMP_MAGIC:
                raise ValidationError("not a LOCOP1 dump")
            _, length = _DUMP_HEADER.unpack(header)
            check_length(length, "operator size")
            if os.fstat(fh.fileno()).st_size != _DUMP_HEADER.size + 16 * length ** 2:
                raise ValidationError(f"file size does not match L = {length}")
            data = np.memmap(fh, dtype="<c16", mode="r",
                             offset=_DUMP_HEADER.size, shape=(length, length))
        return LocOperator(data.astype(np.complex128, copy=False))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
