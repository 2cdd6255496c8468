"""Signals on the cyclic group Z_L: windows, time-frequency shifts, window systems.

All signals are complex (or real) vectors of length L and every index is
cyclic modulo L, so the phase plane is the discrete torus Z_L x Z_L.  A
lattice point z = (n, m) combines a time shift n with a frequency bin m.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

UNIT_NORM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
# one dense complex L x L matrix at this L takes 256 MiB
MAX_LENGTH = 4096
LENGTH_RULE = f"an integer in 4..{MAX_LENGTH}"


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_length(value) -> bool:
    """The one rule for a grid length L: an integer in 4..MAX_LENGTH."""
    return is_integer(value) and 4 <= value <= MAX_LENGTH


def check_length(length, what: str = "length") -> None:
    """Raise ValidationError unless ``length`` passes :func:`is_length`;
    callers check before they allocate anything of size L."""
    if not is_length(length):
        raise ValidationError(
            f"{what} must be {LENGTH_RULE}, got {length!r}")


def as_signal(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d complex vector."""
    psi = np.asarray(x, dtype=np.complex128)
    if psi.ndim != 1 or psi.size == 0:
        raise ValidationError("signal must be a non-empty 1-d vector")
    if not np.all(np.isfinite(psi)):
        raise ValidationError("signal has non-finite entries")
    return psi


def make_gaussian_window(length: int) -> np.ndarray:
    """Unit-norm periodized Gaussian window centered at index L/2.

    The window is the three-term periodization of exp(-pi x^2 / L); for
    L >= 16 the truncation error of using only the r = -1, 0, 1 images is
    far below double precision.
    """
    check_length(length, "window length")
    j = np.arange(length, dtype=np.float64)
    g = np.zeros(length)
    for r in (-1, 0, 1):
        g += np.exp(-math.pi * (j - length / 2 + r * length) ** 2 / length)
    return g / np.linalg.norm(g)


def tf_shift(psi: np.ndarray, z) -> np.ndarray:
    """Time-frequency shift pi(n, m): translate by n, then modulate by m.

    (pi(n, m) psi)[t] = exp(2 pi i m t / L) * psi[(t - n) mod L]; unitary.
    """
    psi = as_signal(psi)
    n, m = z
    length = psi.size
    phase = np.exp(2j * math.pi * m * np.arange(length) / length)
    return phase * np.roll(psi, n)


def hermite_system(length: int, count: int, center=(0, 0)) -> np.ndarray:
    """First ``count`` Hermite functions sampled on the grid, as rows.

    Continuous Hermite functions h_k are sampled at x = (j - L/2) / sqrt(L)
    and re-orthonormalized in order k = 0..count-1 (the samples are only
    approximately orthogonal) by QR with a positive diagonal, then each is
    time-frequency shifted by ``center``.  For well-conditioned counts that
    is the Gram-Schmidt basis to roundoff; as count nears L the sampled
    family becomes nearly dependent and the trailing rows are one of many
    equally orthonormal completions.  The k = 0 member is the sampled
    Gaussian, so the unshifted family sits at the phase-plane origin.
    """
    check_length(length)
    if not 1 <= count <= length:
        raise ValidationError(
            f"count must be in 1..{length}, got {count}"
        )
    x = (np.arange(length) - length / 2) / math.sqrt(length)
    u = math.sqrt(2 * math.pi) * x
    h = np.zeros((count, length))
    h[0] = np.pi ** -0.25 * np.exp(-u ** 2 / 2)
    if count > 1:
        h[1] = math.sqrt(2) * u * h[0]
    for k in range(2, count):
        h[k] = math.sqrt(2 / k) * u * h[k - 1] - math.sqrt((k - 1) / k) * h[k - 2]
    q, r = np.linalg.qr(h.T)
    pivots = np.diag(r)
    if np.min(np.abs(pivots)) < 1e-300:
        raise ValidationError("family is numerically linearly dependent")
    q = (q * np.sign(pivots)).T.astype(np.complex128, order="C")
    if center == (0, 0):
        return q
    n, m = center
    phase = np.exp(2j * math.pi * m * np.arange(length) / length)
    return phase * np.roll(q, n, axis=1)


def standard_basis(length: int) -> np.ndarray:
    """Rows of the identity: the standard orthonormal basis."""
    return np.eye(length, dtype=np.complex128)


def dft_basis(length: int) -> np.ndarray:
    """Orthonormal Fourier basis, e_n[t] = exp(2 pi i n t / L) / sqrt(L)."""
    t = np.arange(length)
    return np.exp(2j * math.pi * np.outer(t, t) / length) / math.sqrt(length)


@dataclass(frozen=True)
class WindowSystem:
    """Positive finite-rank window operator: weighted unit-norm windows.

    Represents sum_k weights[k] * (windows[k] (x) windows[k]) with
    non-negative weights summing to one (trace normalization).
    """

    weights: np.ndarray
    windows: np.ndarray

    def __post_init__(self):
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        windows = np.atleast_2d(np.asarray(self.windows, dtype=np.complex128))
        if weights.ndim != 1 or windows.ndim != 2:
            raise ValidationError("weights must be 1-d and windows 2-d")
        if weights.size != windows.shape[0]:
            raise ValidationError("one weight per window required")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(windows))):
            raise ValidationError("window system has non-finite entries")
        if np.any(weights < 0):
            raise ValidationError("weights must be non-negative")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {weights.sum()!r}"
            )
        norms = np.linalg.norm(windows, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise ValidationError("all windows must be unit-norm within 1e-12")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "windows", windows)

    @classmethod
    def from_pairs(cls, pairs) -> "WindowSystem":
        """Build from an iterable of (weight, window) pairs."""
        pairs = list(pairs)
        if not pairs:
            raise ValidationError("window system needs at least one term")
        weights = np.array([w for w, _ in pairs], dtype=np.float64)
        windows = np.stack([as_signal(g) for _, g in pairs])
        return cls(weights, windows)

    @classmethod
    def single(cls, window) -> "WindowSystem":
        """Rank-one system {(1, window)}."""
        return cls.from_pairs([(1.0, window)])

    @property
    def length(self) -> int:
        return self.windows.shape[1]

    def __iter__(self):
        return zip(self.weights, self.windows)
