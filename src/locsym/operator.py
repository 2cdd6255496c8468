"""Localization operators: assembly, application and eigendecomposition.

A symbol f on the phase plane and a window system S define the dense L x L
matrix A = (1/L) sum_z f[z] sum_k s_k (pi(z) g_k)(pi(z) g_k)*.  The 1/L
normalization makes f = 1 give the identity.  Each diagonal of A is a
circular convolution, so assembly costs O(L^2 log L) per window.  A real
symbol gives a Hermitian A, so only the diagonals d = 0..L//2 are computed
and the rest are their conjugate mirror; a complex symbol is assembled as
A(Re f) + i A(Im f).

A Hermitian A built from a real symbol is held as those diagonals, its
half-lattice rows.  The full-rank estimators (gp, was and wawd with all L
eigenpairs, the measured impulse kernels) symbolize the rows directly, so
a run of only those never forms the L x L matrix.  ``eigh``, the
truncated spectra, pt, wn, ``apply`` and ``save_locop`` need the dense
matrix; it is formed from the rows on its first read and kept.
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct

import numpy as np

from .core import WindowSystem, as_signal
from .errors import NotSelfAdjointError, ValidationError
from .gabor import _hermitian_matrix, _lag_table, _make_hermitian
from .mapio import _open_new

HERMITIAN_REJECT_TOL = 1e-6
_ASYM_BLOCK = 4096  # entries per block of rows in the asymmetry check

_DUMP_MAGIC = b"LOCOP1"
_DUMP_HEADER = struct.Struct("<6s2xI4x")  # magic, 2 pad, u32 L, 4 pad


class LocOperator:
    """Dense localization operator with provenance.

    ``matrix`` must be a square 2-d array with finite entries
    (ValidationError otherwise).  ``symbol_hash`` records the symbol the
    matrix was built from; it is informational and empty for operators
    loaded from disk.

    ``rows`` holds the diagonals A[s, s - d], d = 0..L//2, of an operator
    that ``build_locop`` made from a real symbol, and is None for any other.
    Such an A is Hermitian bit for bit; its ``matrix`` is formed from the
    rows on first read and kept.  Both arrays are read-only, and no
    attribute can be reassigned, so the two always agree.
    """

    def __init__(self, matrix: np.ndarray, symbol_hash: str = ""):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"operator matrix must be square, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("operator has non-finite entries")
        vars(self).update(matrix=matrix, symbol_hash=symbol_hash, rows=None)

    @classmethod
    def _of_rows(cls, rows: np.ndarray, symbol_hash: str) -> "LocOperator":
        """The Hermitian operator of ``_make_hermitian`` rows, which it keeps."""
        if not np.all(np.isfinite(rows)):
            raise ValidationError("operator has non-finite entries")
        rows.flags.writeable = False
        op = cls.__new__(cls)
        vars(op).update(rows=rows, symbol_hash=symbol_hash)
        return op

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to LocOperator.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete LocOperator.{name}")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        matrix = _hermitian_matrix(self.rows)
        matrix.flags.writeable = False
        return matrix

    @property
    def size(self) -> int:
        return (self.matrix if self.rows is None else self.rows).shape[1]


class Spectrum:
    """Eigenvalues (descending |lambda|) and matching orthonormal eigenvectors.

    ``eigenvectors[i]`` is the eigenvector for ``eigenvalues[i]``.  Built
    either from eigenpairs, ``Spectrum(eigenvalues, eigenvectors)``, or from
    a Hermitian matrix by :meth:`of_hermitian`, which defers ``eigh``: the
    first read of ``eigenvalues`` or ``eigenvectors`` runs it (a
    ``LinAlgError`` surfaces there) and keeps the result.  ``matrix`` is
    the operator the spectrum describes: the Hermitian matrix it was built
    from, the Hermitian part of the built operator ``eigendecompose`` was
    given, formed on first read, or else the eigen-sum of its pairs, formed
    on first read.  Neither ``size`` nor ``matrix`` of a spectrum built
    from a matrix or an operator runs ``eigh``.  ``rows`` are the built
    operator's half-lattice rows, which are those of ``matrix``, and None
    for any other spectrum.
    ``matrix`` and the eigenpairs are ``functools.cached_property`` values:
    on Python 3.10 and 3.11 a first read holds a lock, so concurrent first
    reads run ``eigh`` once; on 3.12 and later there is no lock and two
    threads may each run it.
    """

    _op = None  # the built operator whose Hermitian part this is

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self._pairs = (eigenvalues, eigenvectors)

    @classmethod
    def of_hermitian(cls, matrix: np.ndarray) -> "Spectrum":
        """Spectrum of Hermitian ``matrix``, eigendecomposed on first read."""
        spectrum = cls.__new__(cls)
        spectrum.matrix = matrix
        return spectrum

    @classmethod
    def _of_built(cls, op: LocOperator) -> "Spectrum":
        """Spectrum of built ``op``'s Hermitian part, formed on first read."""
        spectrum = cls.__new__(cls)
        spectrum._op = op
        return spectrum

    @property
    def size(self) -> int:
        if self._op is not None:
            return self._op.size
        held = vars(self)
        return (held["matrix"] if "matrix" in held else self._pairs[0]).shape[0]

    @property
    def rows(self):
        return None if self._op is None else self._op.rows

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._pairs[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._pairs[1]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self._op is not None:
            return hermitian_part(self._op)
        return _eigen_sum(*self._pairs)

    @functools.cached_property
    def _pairs(self):
        lam, vec = np.linalg.eigh(self.matrix)
        order = np.lexsort((-lam, -np.abs(lam)))
        return lam[order], vec.T[order]


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

    O(L^2 log L) per window.  A real symbol gives an exactly Hermitian
    operator held as its half-lattice rows; a complex one gives the dense
    A(Re f) + 1j * A(Im f).
    """
    f = np.asarray(symbol)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValidationError(f"symbol must be a square map, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValidationError("symbol has non-finite entries")
    length = f.shape[0]
    if windows.length != length:
        raise ValidationError(
            f"window length {windows.length} != symbol size {length}"
        )
    rows = _locop_rows(f.real, windows)
    digest = hashlib.sha256(np.ascontiguousarray(f)).hexdigest()[:16]
    if np.iscomplexobj(f):
        matrix = _hermitian_matrix(rows)
        del rows  # freed before the imaginary part is assembled
        matrix = matrix + 1j * _hermitian_matrix(_locop_rows(f.imag, windows))
        return LocOperator(matrix, symbol_hash=digest)
    return LocOperator._of_rows(rows, digest)


def apply(op: LocOperator, psi) -> np.ndarray:
    """Apply the operator: plain matrix-vector product."""
    psi = as_signal(psi)
    if psi.size != op.size:
        raise ValidationError(f"signal length {psi.size} != operator size {op.size}")
    return op.matrix @ psi


def hermitian_part(op: LocOperator) -> np.ndarray:
    """(h + h*) / 2 of an operator that is Hermitian up to roundoff.

    Raises NotSelfAdjointError when the asymmetry max |h - h*| exceeds
    HERMITIAN_REJECT_TOL.  h* is formed once, in the result's buffer, and
    the asymmetry is taken against it a block of rows at a time, so the
    result is the only L x L array made.  An operator that holds ``rows``
    is Hermitian bit for bit and read-only, so its asymmetry is not taken.
    """
    h = op.matrix
    herm = np.conjugate(h.T, out=np.empty_like(h))
    if op.rows is None:
        rows = max(1, _ASYM_BLOCK // max(h.shape[0], 1))
        asym = max((float(np.max(np.abs(h[i:i + rows] - herm[i:i + rows])))
                    for i in range(0, h.shape[0], rows)), default=0.0)
        if asym > HERMITIAN_REJECT_TOL:
            raise NotSelfAdjointError(
                f"operator asymmetry {asym:.3e} exceeds {HERMITIAN_REJECT_TOL}; "
                "complex symbol or invalid window system?"
            )
    herm += h  # h* + h has the bits of h + h*
    herm /= 2  # not *= 0.5: complex division signs its zeros differently
    return herm


def eigendecompose(op: LocOperator) -> Spectrum:
    """Full spectrum of a Hermitian localization operator.

    Checks the asymmetry now (NotSelfAdjointError) and returns the lazy
    spectrum of the Hermitian part: ``eigh`` runs on the first read of an
    eigenpair, so a ``LinAlgError`` surfaces there, not here.  An operator
    that holds ``rows`` has no asymmetry to check, and its Hermitian part
    is formed only when an eigenpair or ``Spectrum.matrix`` is read.
    Eigenpairs are ordered by descending |lambda| and then descending
    signed lambda with one stable sort, so exact ties keep ``eigh``'s
    order.
    Eigenvectors are orthonormal; their phases, and the basis chosen inside
    a degenerate cluster, are whatever LAPACK returns.
    """
    if op.rows is not None:
        return Spectrum._of_built(op)
    return Spectrum.of_hermitian(hermitian_part(op))


def save_locop(op: LocOperator, path):
    """Binary dump: 16-byte header (magic ``LOCOP1``, u32 L), then the
    matrix row-major as little-endian float64 (real, imag) pairs."""
    with _open_new(path) as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, op.size))
        fh.write(np.ascontiguousarray(op.matrix, dtype="<c16").tobytes())


def load_locop(path) -> LocOperator:
    """Read a matrix dumped by :func:`save_locop`; ``LocOperator`` checks it."""
    with open(path, "rb") as fh:
        header = fh.read(_DUMP_HEADER.size)
        if len(header) != _DUMP_HEADER.size or header[:6] != _DUMP_MAGIC:
            raise ValidationError(f"{path}: not a LOCOP1 dump")
        _, length = _DUMP_HEADER.unpack(header)
        if os.fstat(fh.fileno()).st_size != _DUMP_HEADER.size + 16 * length * length:
            raise ValidationError(f"{path}: file size does not match L = {length}")
        data = np.fromfile(fh, dtype="<c16", count=length * length)
    matrix = data.reshape(length, length).astype(np.complex128, copy=False)
    try:
        return LocOperator(matrix)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
