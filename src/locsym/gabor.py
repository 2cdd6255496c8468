"""Full-lattice discrete Gabor transform, synthesis, spectrograms, lower symbols.

The lattice is the full grid (hop 1, L frequency bins), which makes the
frame tight: synthesis carries a 1/L factor so analysis-then-synthesis is
exactly the identity for a unit-norm window.
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


def _from_diagonals(diag: np.ndarray) -> np.ndarray:
    """The matrix M with M[s, (s - d) mod L] = diag[d, s]."""
    out = np.empty_like(diag)
    out[np.arange(diag.shape[0]), _roll_table(diag.shape[0])] = diag
    return out


def _lag_product(g: np.ndarray) -> np.ndarray:
    """Q[d, u] = g[u] conj(g[(u - d) mod L])."""
    return g[None, :] * g[_roll_table(g.size)].conj()


def lower_symbol(matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """<M pi(n, m) phi, pi(n, m) phi> at every lattice point, O(L^2 log L).

    Each diagonal M[s, s-d] is cross-correlated over s with the lag product
    of phi, then an FFT runs over d.  Complex unless M is Hermitian.
    """
    length = phi.size
    if matrix.shape != (length, length):
        raise ValidationError(f"matrix {matrix.shape} != window length {length}")
    diag = matrix[np.arange(length), _roll_table(length)]
    corr_hat = (np.fft.fft(diag, axis=1)
                * np.fft.fft(_lag_product(phi), axis=1).conj())
    return np.fft.fft(np.fft.ifft(corr_hat, axis=1), axis=0).T


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
