"""Full-lattice discrete Gabor transform, synthesis, spectrograms, symbols.

The lattice is the full grid (hop 1, L frequency bins), which makes the
frame tight: synthesis carries a 1/L factor so analysis-then-synthesis is
exactly the identity for a unit-norm window.

One kernel, ``_symbol_of_half``, computes every quadratic symbol of a
matrix.  It works on the diagonals M[s, s - d] of the Hermitian part
(M + M*)/2, whose diagonal -d is the conjugate mirror of diagonal d, so
it gathers and transforms only the half lattice d = 0..L//2 and finishes
with a real inverse FFT over d.  The symbols differ only in the lag table
the diagonals are correlated with: a window's lag product
g[u] conj(g[u - d]) gives the lower symbol <M pi(z) g, pi(z) g>, a
weighted sum of them the symbol over a window system, and a unit mass at
the half-lag the Weyl symbol.
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


def _hermitian_rows(matrix: np.ndarray, length: int) -> np.ndarray:
    """Diagonals d = 0..L//2 of the Hermitian part (M + M*)/2 of an L x L M.

    Row d is (M[s, s - d] + conj(M[s - d, s])) / 2.
    """
    if matrix.shape != (length, length):
        raise ValidationError(f"matrix {matrix.shape} != window length {length}")
    idx = _half_lattice(length)
    s = np.arange(length)
    rows = matrix[idx, s]
    np.conjugate(rows, out=rows)
    rows += matrix[s, idx]
    rows *= 0.5
    return rows


def _symbol_of_half(rows: np.ndarray, lag_hat: np.ndarray) -> np.ndarray:
    """Symbol of the Hermitian H with H[s, s - d] = rows[d, s], d <= L/2.

    ``lag_hat`` is the FFT over u of a lag table lag[d, u]; the symbol is
    sum_d exp(-2 pi i m d / L) C[d, n] with the correlation
    C[d, n] = sum_s rows[d, s + n] conj(lag[d, s]).  Every lag table used
    here satisfies C[-d] = conj(C[d]), so the FFT over d is real and one
    ``irfft`` over the half lattice gives it.  The FFT over s below
    yields L conj(C[d]), the input that ``irfft`` needs.  The map is
    linear in ``lag_hat``: a weighted sum of lag spectra gives the same
    weighted sum of symbols.
    """
    spec = np.fft.fft(rows, axis=1)
    np.conjugate(spec, out=spec)
    spec *= lag_hat
    return np.fft.irfft(np.fft.fft(spec, axis=1), n=rows.shape[1], axis=0).T


@functools.lru_cache(maxsize=8)
def _midpoint_lag_spectrum(length: int) -> np.ndarray:
    """Lag spectrum of the Weyl symbol: a unit mass at each k with 2k = d mod L.

    Odd L has one, k = d (L + 1)/2 mod L.  Even L has two, d/2 and
    d/2 + L/2, for even d and none for odd d: the frequency aliasing of
    the even-length Wigner kernel.
    """
    k = np.arange(length)
    lag = (2 * k - k[:length // 2 + 1, None]) % length == 0
    lag_hat = np.fft.fft(lag.astype(np.float64), axis=1)
    lag_hat.flags.writeable = False
    return lag_hat


def hermitian_symbol(matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Re <M pi(n, m) phi, pi(n, m) phi> at every lattice point, O(L^2 log L).

    This is the (real) lower symbol of the Hermitian part (M + M*)/2: the
    symbol kernel with phi's lag product as the lag table.
    """
    return _symbol_of_half(_hermitian_rows(matrix, phi.size),
                           _half_lag_spectrum(phi))


def weyl_symbol(matrix: np.ndarray) -> np.ndarray:
    """Re sum_k M[n+k, n-k] exp(-4 pi i m k / L) at every lattice point.

    The discrete Wigner kernel with psi[n+k] conj(psi[n-k]) replaced by
    M[n+k, n-k].  Its real part is the Weyl-type symbol of the Hermitian
    part (M + M*)/2, which is the symbol kernel with a unit mass at the
    half-lag as the lag table.  O(L^2 log L).
    """
    length = matrix.shape[0]
    return _symbol_of_half(_hermitian_rows(matrix, length),
                           _midpoint_lag_spectrum(length))


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
