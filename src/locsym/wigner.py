"""Discrete Wigner distribution, Weyl-type symbols and finite-rank Cohen's class.

The Wigner kernel used here is

    W[n, m] = sum_k psi[(n+k) mod L] conj(psi[(n-k) mod L]) exp(-4 pi i m k / L),

i.e. half-integer frequency sampling folded onto the integer grid.  For odd
L the map m -> 2m mod L is a bijection, so time/frequency marginals and
shift covariance are exact.  For even L the output is accepted but aliased:
bins m and m + L/2 coincide, which duplicates energy along the frequency
axis.  Downstream consumers flag even-length results accordingly.
"""

from __future__ import annotations

import numpy as np

from .core import WindowSystem, as_signal
from .errors import NumericalError, ValidationError
from .gabor import spectrogram

_IMAG_GUARD = 1e-8


def weyl_symbol(matrix: np.ndarray) -> np.ndarray:
    """The Wigner kernel with psi[n+k] conj(psi[n-k]) replaced by M[n+k, n-k]."""
    length = matrix.shape[0]
    n = np.arange(length)[:, None]
    k = np.arange(length)[None, :]
    full = np.fft.fft(matrix[(n + k) % length, (n - k) % length], axis=1)
    return full[:, (2 * np.arange(length)) % length]


def wigner(psi) -> np.ndarray:
    """Real Wigner distribution of ``psi`` over the L x L phase grid.

    Output is real for every input by conjugate symmetry of the cyclic
    autocorrelation; the (roundoff-level) imaginary part is checked and
    discarded.  Time marginal: sum_m W[n, m] = L |psi[n]|^2 for odd L.
    """
    psi = as_signal(psi)
    w = weyl_symbol(np.outer(psi, psi.conj()))
    residue = np.max(np.abs(w.imag))
    if residue > _IMAG_GUARD * max(1.0, float(np.max(np.abs(w.real)))):
        raise NumericalError(f"Wigner imaginary residue {residue:.3e} too large")
    return w.real


def cohen_class(psi, system: WindowSystem) -> np.ndarray:
    """Finite-rank Cohen's class: sum_k t_k |dgt(psi, tau_k)|^2.

    Non-negative for positive window systems; reduces to the spectrogram
    when the system is rank one.
    """
    psi = as_signal(psi)
    if system.length != psi.size:
        raise ValidationError(
            f"window length {system.length} != signal length {psi.size}"
        )
    out = np.zeros((psi.size, psi.size))
    for weight, tau in system:
        out += weight * spectrogram(psi, tau)
    return out
