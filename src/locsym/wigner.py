"""Discrete Wigner distribution and finite-rank Cohen's class.

The Wigner kernel used here is

    W[n, m] = sum_k psi[(n+k) mod L] conj(psi[(n-k) mod L]) exp(-4 pi i m k / L),

i.e. half-integer frequency sampling folded onto the integer grid.  For odd
L the map m -> 2m mod L is a bijection, so time/frequency marginals and
shift covariance are exact.  For even L the output is accepted but aliased:
bins m and m + L/2 coincide, which duplicates energy along the frequency
axis.  Downstream consumers flag even-length results accordingly.

The distribution is the Weyl symbol of the rank-one psi psi*: the shared
symbol kernel with a unit mass at the half-lag, k with 2k = d mod L, as
its lag table (two masses at even L and even d, none at odd d).  Cohen's
class over a window system is the lower symbol of the same psi psi*
against the system's lag table.  The diagonals of psi psi* are psi's own
lag table psi[u] conj(psi[u - d]) (``gabor._lag_table``), so the L x L
outer product is never formed.
"""

from __future__ import annotations

import numpy as np

from .core import WindowSystem, as_signal
from .gabor import _lag_table, _midpoint_lag_spectrum, _psd_symbol, _symbol_of_half


def wigner(psi) -> np.ndarray:
    """Real Wigner distribution of ``psi`` over the L x L phase grid.

    The Weyl symbol of psi psi* from psi's lag table, real by
    construction.  Time marginal: sum_m W[n, m] = L |psi[n]|^2 for odd L.
    """
    psi = as_signal(psi)
    return _symbol_of_half(_lag_table(psi), _midpoint_lag_spectrum(psi.size))


def cohen_class(psi, system: WindowSystem) -> np.ndarray:
    """Finite-rank Cohen's class: sum_k t_k |dgt(psi, tau_k)|^2.

    The lower symbol of psi psi* against the system's lag table, clipped
    at zero like every PSD symbol; it reduces to the spectrogram when the
    system is rank one.
    """
    return _psd_symbol(_lag_table(as_signal(psi)), system.windows,
                       system.weights)[0]
