"""Discrete Wigner distribution and finite-rank Cohen's class.

The Wigner kernel used here is

    W[n, m] = sum_k psi[(n+k) mod L] conj(psi[(n-k) mod L]) exp(-4 pi i m k / L),

i.e. half-integer frequency sampling folded onto the integer grid.  For odd
L the map m -> 2m mod L is a bijection, so time/frequency marginals and
shift covariance are exact.  For even L the output is accepted but aliased:
bins m and m + L/2 coincide, which duplicates energy along the frequency
axis.  Downstream consumers flag even-length results accordingly.

The distribution is ``gabor.weyl_symbol`` of the rank-one psi psi*: the
shared symbol kernel with a unit mass at the half-lag, k with 2k = d mod L,
as its lag table (two masses at even L and even d, none at odd d).
"""

from __future__ import annotations

import numpy as np

from .core import WindowSystem, as_signal
from .errors import ValidationError
from .gabor import spectrogram, weyl_symbol


def wigner(psi) -> np.ndarray:
    """Real Wigner distribution of ``psi`` over the L x L phase grid.

    The Weyl symbol of psi psi*, real by construction.  Time marginal:
    sum_m W[n, m] = L |psi[n]|^2 for odd L.
    """
    psi = as_signal(psi)
    return weyl_symbol(np.outer(psi, psi.conj()))


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
