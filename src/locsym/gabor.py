"""Full-lattice discrete Gabor transform, synthesis, spectrograms, lower symbols.

The lattice is the full grid (hop 1, L frequency bins), which makes the
frame tight: synthesis carries a 1/L factor so analysis-then-synthesis is
exactly the identity for a unit-norm window.

The lower symbol works on the diagonals M[s, s - d] of a matrix.  The
estimators symbolize Hermitian matrices, whose diagonal -d is the
conjugate mirror of diagonal d, so the kernel gathers and transforms only
the half lattice d = 0..L//2 and finishes with a real inverse FFT over d.
A non-Hermitian M is split as H + iK into Hermitian H and K, each
symbolized that way.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import as_signal
from .errors import ValidationError


@functools.lru_cache(maxsize=8)
def _roll_table(length: int) -> np.ndarray:
    """idx[n, t] = (t - n) mod L, so g[idx][n] is g delayed by n."""
    t = np.arange(length)
    idx = (t[None, :] - t[:, None]) % length
    idx.flags.writeable = False
    return idx


def _half_lattice(length: int) -> np.ndarray:
    """idx[d, s] = (s - d) mod L for the diagonals d = 0..L//2.

    A Hermitian matrix is fixed by these diagonals: M[s - d, s] is the
    conjugate of M[s, s - d], and the lags above L//2 are those of the
    mirror.  A view of ``_roll_table``, so it costs no memory of its own.
    """
    return _roll_table(length)[:length // 2 + 1]


def _half_lag_spectrum(g: np.ndarray) -> np.ndarray:
    """FFT over u of the lag product g[u] conj(g[(u - d) mod L]), d = 0..L//2."""
    lag = g[_half_lattice(g.size)]
    np.conjugate(lag, out=lag)
    lag *= g
    return np.fft.fft(lag, axis=1)


def _half_diagonals(matrix: np.ndarray, phi: np.ndarray):
    """Diagonals d = 0..L//2 of M and of M*, and phi's lag spectrum.

    Row d of the first is M[s, s - d]; row d of the second, the mirror, is
    conj(M[s - d, s]).
    """
    length = phi.size
    if matrix.shape != (length, length):
        raise ValidationError(f"matrix {matrix.shape} != window length {length}")
    idx = _half_lattice(length)
    s = np.arange(length)
    mirror = matrix[idx, s]
    np.conjugate(mirror, out=mirror)
    return matrix[s, idx], mirror, _half_lag_spectrum(phi)


def _hermitian_rows(diag: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """Half-lattice diagonals of the Hermitian part (M + M*)/2."""
    rows = diag + mirror
    rows *= 0.5
    return rows


def _symbol_of_half(rows: np.ndarray, lag_hat: np.ndarray) -> np.ndarray:
    """Lower symbol of the Hermitian H with H[s, s - d] = rows[d, s], d <= L/2.

    Row d of the correlation C[d, n] = sum_s rows[d, s + n] conj(lag[d, s])
    satisfies C[-d] = conj(C[d]), so the FFT over d is real and one
    ``irfft`` over the half lattice gives it.  The FFT over s below
    yields L conj(C[d]), the input that ``irfft`` needs.
    """
    spec = np.fft.fft(rows, axis=1)
    np.conjugate(spec, out=spec)
    spec *= lag_hat
    return np.fft.irfft(np.fft.fft(spec, axis=1), n=rows.shape[1], axis=0).T


def hermitian_symbol(matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Re <M pi(n, m) phi, pi(n, m) phi> at every lattice point, O(L^2 log L).

    This is the (real) lower symbol of the Hermitian part (M + M*)/2, so
    only its diagonals d = 0..L//2 are gathered and transformed: half the
    FFT work of the complex :func:`lower_symbol`, whose real part it equals
    bit for bit.
    """
    diag, mirror, lag_hat = _half_diagonals(matrix, phi)
    return _symbol_of_half(_hermitian_rows(diag, mirror), lag_hat)


def lower_symbol(matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """<M pi(n, m) phi, pi(n, m) phi> at every lattice point, O(L^2 log L).

    M = H + iK with H = (M + M*)/2 and K = (M - M*)/2i both Hermitian, so
    the real part is the symbol of H, computed exactly as
    :func:`hermitian_symbol` does, and the imaginary part that of K.  Both
    share one pair of half-lattice gathers and one lag spectrum.
    """
    diag, mirror, lag_hat = _half_diagonals(matrix, phi)
    real = _symbol_of_half(_hermitian_rows(diag, mirror), lag_hat)
    out = real.astype(np.complex128)
    anti = np.subtract(diag, mirror, dtype=np.complex128)
    anti *= -0.5j
    out.imag = _symbol_of_half(anti, lag_hat)
    return out


def _check_pair(psi: np.ndarray, g: np.ndarray):
    if psi.size != g.size:
        raise ValidationError(
            f"signal length {psi.size} != window length {g.size}"
        )


def dgt(psi, g) -> np.ndarray:
    """Discrete Gabor transform V[n, m] = <psi, pi(n, m) g>.

    Computed as L length-L FFTs: V[n] = FFT(psi * conj(g delayed by n)).
    """
    psi, g = as_signal(psi), as_signal(g)
    _check_pair(psi, g)
    shifted = g[_roll_table(psi.size)]
    return np.fft.fft(psi[None, :] * shifted.conj(), axis=1)


def dgt_adjoint(coeffs, g) -> np.ndarray:
    """Synthesis (1/L) sum_{n,m} F[n, m] pi(n, m) g.

    Inverts dgt exactly for a unit-norm window; for ||g|| = c the round
    trip scales by c^2.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    g = as_signal(g)
    if coeffs.shape != (g.size, g.size):
        raise ValidationError(
            f"coefficient map must be {g.size}x{g.size}, got {coeffs.shape}"
        )
    shifted = g[_roll_table(g.size)]
    return np.sum(np.fft.ifft(coeffs, axis=1) * shifted, axis=0)


def spectrogram(psi, g) -> np.ndarray:
    """|dgt|^2, the energy distribution over the phase plane."""
    v = dgt(psi, g)
    return v.real ** 2 + v.imag ** 2
