"""Localization operators: assembly, application and eigendecomposition.

A symbol f on the phase plane and a window system S define the dense L x L
matrix A = (1/L) sum_z f[z] sum_k s_k (pi(z) g_k)(pi(z) g_k)*.  The 1/L
normalization makes f = 1 give the identity.  Each diagonal of A is a
circular convolution, so assembly costs O(L^2 log L) per window.  Dense
storage is deliberate: truncated spectral estimates need the full spectrum.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import WindowSystem, as_signal
from .errors import NotSelfAdjointError, ValidationError
from .gabor import _from_diagonals, _lag_product

HERMITIAN_REJECT_TOL = 1e-6

_DUMP_MAGIC = b"LOCOP1"


@dataclass(frozen=True)
class LocOperator:
    """Dense localization operator with provenance.

    ``matrix`` must be a square 2-d array with finite entries
    (ValidationError otherwise).  ``windows`` and ``symbol_hash`` record
    how the matrix was built; they are informational and may be absent for
    operators loaded from disk.
    """

    matrix: np.ndarray
    windows: Optional[WindowSystem] = None
    symbol_hash: str = ""

    def __post_init__(self):
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"operator matrix must be square, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("operator has non-finite entries")
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class Spectrum:
    """Eigenvalues (descending |lambda|) and matching orthonormal eigenvectors.

    ``eigenvectors[i]`` is the eigenvector for ``eigenvalues[i]``.  Built
    either from eigenpairs, ``Spectrum(eigenvalues, eigenvectors)``, or from
    a Hermitian matrix by :meth:`of_hermitian`, which defers ``eigh``: the
    first read of ``eigenvalues`` or ``eigenvectors`` runs it (a
    ``LinAlgError`` surfaces there) and keeps the result.  ``matrix`` is
    the operator the spectrum describes: the Hermitian matrix it was built
    from, or else the eigen-sum of its pairs, formed on first read.  Neither
    ``size`` nor ``matrix`` of a matrix-built spectrum runs ``eigh``.
    Concurrent first reads from several threads may each run ``eigh``.
    """

    __slots__ = ("_matrix", "_pairs")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self._pairs = (eigenvalues, eigenvectors)
        self._matrix = None

    @classmethod
    def of_hermitian(cls, matrix: np.ndarray) -> "Spectrum":
        """Spectrum of Hermitian ``matrix``, eigendecomposed on first read."""
        spectrum = cls.__new__(cls)
        spectrum._pairs = None
        spectrum._matrix = matrix
        return spectrum

    @property
    def size(self) -> int:
        held = self._matrix if self._pairs is None else self._pairs[0]
        return held.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenpairs()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenpairs()[1]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _eigen_sum(*self._pairs)
        return self._matrix

    def _eigenpairs(self):
        if self._pairs is None:
            lam, vec = np.linalg.eigh(self._matrix)
            order = np.lexsort((-lam, -np.abs(lam)))
            self._pairs = lam[order], vec.T[order]
        return self._pairs


def _eigen_sum(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_i values[i] h_i h_i* over the eigenvector rows h_i."""
    return (vectors.T * values) @ vectors.conj()


def build_locop(symbol, windows: WindowSystem) -> LocOperator:
    """Assemble the localization operator for ``symbol`` over ``windows``.

    Diagonal A[s, s-d] is the circular convolution over time shift n of
    ifft_m f[n, d] with g[u] conj(g[u-d]): O(L^2 log L) per window.
    Hermitian (up to roundoff) whenever the symbol is real.
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
    rows_hat = np.fft.fft(np.fft.ifft(f, axis=1), axis=0).T
    diag = np.zeros((length, length), dtype=np.complex128)
    for w, g in windows:
        diag += w * np.fft.ifft(rows_hat * np.fft.fft(_lag_product(g), axis=1),
                                axis=1)
    digest = hashlib.sha256(np.ascontiguousarray(f).tobytes()).hexdigest()[:16]
    return LocOperator(_from_diagonals(diag), windows, digest)


def apply(op: LocOperator, psi) -> np.ndarray:
    """Apply the operator: plain matrix-vector product."""
    psi = as_signal(psi)
    if psi.size != op.size:
        raise ValidationError(f"signal length {psi.size} != operator size {op.size}")
    return op.matrix @ psi


def hermitian_part(op: LocOperator) -> np.ndarray:
    """(h + h*) / 2 of an operator that is Hermitian up to roundoff.

    Raises NotSelfAdjointError when the asymmetry max |h - h*| exceeds
    HERMITIAN_REJECT_TOL.
    """
    h = op.matrix
    asym = np.max(np.abs(h - h.conj().T))
    if asym > HERMITIAN_REJECT_TOL:
        raise NotSelfAdjointError(
            f"operator asymmetry {asym:.3e} exceeds {HERMITIAN_REJECT_TOL}; "
            "complex symbol or invalid window system?"
        )
    return (h + h.conj().T) / 2


def eigendecompose(op: LocOperator) -> Spectrum:
    """Full spectrum of a Hermitian localization operator.

    Checks the asymmetry now (NotSelfAdjointError) and returns the lazy
    spectrum of the Hermitian part: ``eigh`` runs on the first read of an
    eigenpair, so a ``LinAlgError`` surfaces there, not here.  Eigenpairs
    are ordered by descending |lambda| and then descending signed lambda
    with one stable sort, so exact ties keep ``eigh``'s order.
    Eigenvectors are orthonormal; their phases, and the basis chosen inside
    a degenerate cluster, are whatever LAPACK returns.
    """
    return Spectrum.of_hermitian(hermitian_part(op))


def save_locop(op: LocOperator, path):
    """Binary dump: 16-byte header (magic ``LOCOP1``, u32 L), then the
    matrix row-major as little-endian float64 (real, imag) pairs."""
    header = _DUMP_MAGIC + b"\x00\x00" + struct.pack("<I", op.size) + b"\x00" * 4
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(op.matrix, dtype="<c16").tobytes())


def load_locop(path) -> LocOperator:
    """Read a matrix dumped by :func:`save_locop`; ``LocOperator`` checks it."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:6] != _DUMP_MAGIC:
            raise ValidationError(f"{path}: not a LOCOP1 dump")
        (length,) = struct.unpack("<I", header[8:12])
        if os.fstat(fh.fileno()).st_size != 16 + 16 * length * length:
            raise ValidationError(f"{path}: file size does not match L = {length}")
        data = np.frombuffer(fh.read(), dtype="<c16")
    try:
        return LocOperator(data.reshape(length, length).astype(np.complex128))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
