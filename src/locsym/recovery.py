"""Symbol recovery: the five estimators, impulse kernels and deconvolution.

Each estimator is the lower symbol <M pi(z) phi, pi(z) phi> or the
Weyl-type symbol of one matrix M; A_N keeps A's N leading eigenpairs.
``recover(method, op, phi, ...)`` is the one method dispatch over the
public estimators.  was and wawd read eigenpairs of the lazy
``eigendecompose`` spectrum only to truncate: with all L terms A_N is the
Hermitian part of A (``Spectrum.matrix``), so was(L) is the lower symbol
of A and wawd(L) its Weyl symbol, and neither runs ``eigh``.

Methods
-------
wn    white-noise probing: lower symbol of the filtered noise covariance,
      over the estimated noise variance; targets the squared symbol.
was   weighted accumulated Cohen's class: sum_j t_j lower symbol of A_N.
wawd  weighted accumulated Wigner distribution: Weyl symbol of A_N.
pt    plane tiling: lower symbol of B B*, B = A E^T the operator images of
      an orthonormal family; a complete basis gives wn_limit (A A*) exactly.
gp    Gabor projection: lower symbol of A, which equals the symbol blurred
      by a known unit-mass kernel.

Every symbol here is ``gabor._symbol_of_half`` of the Hermitian part of
one matrix, which transforms only the diagonals d = 0..L//2; the
estimators differ only in the lag spectrum they pass.  gp, pt, wn and
wn_limit pass phi's (``hermitian_symbol``), was the weighted sum over its
window system, wawd the half-lag unit mass (``weyl_symbol``).  The
analytic impulse kernel is the lower symbol of the window operator
S = sum_k s_k g_k g_k*.  wn, pt, wn_limit and the analytic kernel
symbolize PSD matrices and are clipped at zero.

In finite dimension the identity chain is exact: gp over the full grid,
was with all L eigenpairs and a rank-one reconstruction system, and the
circular convolution of the symbol with the analytic impulse kernel all
agree to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import WindowSystem, as_signal
from .errors import DegenerateKernelError, NumericalError, ValidationError
from .gabor import (_half_lag_spectrum, _hermitian_rows, _symbol_of_half,
                    hermitian_symbol, weyl_symbol)
from .operator import (LocOperator, Spectrum, _eigen_sum, build_locop,
                       eigendecompose)

_NOISE_BATCH = 128
DEGENERACY_GAP = 1e-8
METHODS = ("wn", "was", "wawd", "pt", "gp")
SQUARED_TARGET = ("wn", "pt")  # these estimate f**2, the rest f
IMPULSE_ESTIMATORS = ("gp", "was")  # what a measured impulse kernel runs


@dataclass(frozen=True)
class RecoveryResult:
    """Estimate map plus the parameters that produced it."""

    estimate: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)


def _unit_window(phi) -> np.ndarray:
    phi = as_signal(phi)
    nrm = np.linalg.norm(phi)
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError(
            f"reconstruction window must be unit-norm, got ||.|| = {nrm!r}")
    return phi


def _psd_symbol(matrix: np.ndarray, phi: np.ndarray):
    """Lower symbol of a PSD matrix clipped at zero, and the clipped magnitude."""
    est = hermitian_symbol(matrix, phi)
    return np.maximum(est, 0.0), max(0.0, -float(est.min()))


def wn_limit(spectrum: Spectrum, phi) -> np.ndarray:
    """Large-sample limit of the white-noise estimator.

    sum_m lambda_m^2 |dgt(h_m, phi)|^2; also the value of the full
    plane-tiling sum.  Invariant under negating the operator because only
    squared eigenvalues enter.  It reads the eigenpairs even though the sum
    is the lower symbol of A A*: squaring the eigenvalues makes the result
    bit-for-bit equal for ``Spectrum(-lambda, V)``, while A A* formed from
    ``spectrum.matrix`` would agree with it only to roundoff.
    """
    phi = _unit_window(phi)
    lam = spectrum.eigenvalues
    return _psd_symbol(_eigen_sum(lam * lam, spectrum.eigenvectors), phi)[0]


def wn_recover(op: LocOperator, phi, draws: int, noise_var: float,
               seed: int) -> RecoveryResult:
    """Monte-Carlo white-noise probing of the operator.

    Draws ``draws`` complex circular Gaussian signals with per-entry
    variance ``noise_var`` (substream per realization keyed by (seed, k),
    with ``seed`` in 0..2**64-1), filters each through the operator and
    averages the spectrograms.  The estimate is that average divided by the observed
    noise level, the mean of |dgt(noise, phi)|^2 over realizations and
    lattice points; it targets the squared symbol, so signs are lost.
    """
    phi = _unit_window(phi)
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    if not (math.isfinite(noise_var) and noise_var > 0):
        raise ValidationError(
            f"noise variance must be positive and finite, got {noise_var}")
    if op.size != phi.size:
        raise ValidationError("operator and window sizes differ")
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed must be in 0..2**64-1, got {seed}")
    length = op.size
    scale = math.sqrt(noise_var / 2.0)
    # Philox is counter-based: keying by (seed, k) gives independent
    # substreams per realization, so results never depend on batching.
    # One generator is rekeyed per draw by resetting it to a fresh state
    # (counter 0, empty buffer) with key (seed, k); constructing a Philox
    # per draw costs more than the draw.
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    gauss = np.empty((min(draws, _NOISE_BATCH), 2 * length))
    covariance = np.zeros((length, length), dtype=np.complex128)
    energy = 0.0
    for lo in range(0, draws, _NOISE_BATCH):
        hi = min(lo + _NOISE_BATCH, draws)
        for k, row in zip(range(lo, hi), gauss):
            key[:] = seed, k
            bits.state = state
            rng.standard_normal(out=row)
        draw = gauss[:hi - lo]
        noise = scale * (draw[:, :length] + 1j * draw[:, length:])
        filtered = noise @ op.matrix.T
        covariance += filtered.T @ filtered.conj()
        energy += float(np.sum(noise.real ** 2 + noise.imag ** 2))
    avg, clip = _psd_symbol(covariance / draws, phi)
    noise_var_hat = energy / (draws * length)
    meta = {
        "draws": draws,
        "noise_var": noise_var,
        "noise_var_hat": noise_var_hat,
        "seed": seed,
        "avg_observed": avg,
        "psd_clip": clip / noise_var_hat,
    }
    return RecoveryResult(avg / noise_var_hat, "wn", meta)


def _truncation(spectrum: Spectrum, terms: int):
    """A_N, the operator rebuilt from its ``terms`` leading eigenpairs, and
    the eigenvalue tail mass sum_{m >= N} |lambda_m| it leaves out.

    With all terms A_N is ``spectrum.matrix`` and no eigenpair is read.
    A cut between two |lambda| closer than DEGENERACY_GAP * |lambda_0| makes
    A_N depend on roundoff, so it raises unless the rest is negligible.
    """
    if not 1 <= terms <= spectrum.size:
        raise ValidationError(
            f"terms must be in 1..{spectrum.size}, got {terms}"
        )
    if terms == spectrum.size:
        return spectrum.matrix, 0.0
    mag = np.abs(spectrum.eigenvalues)
    gap = mag[terms - 1] - mag[terms]
    scale = DEGENERACY_GAP * mag[0]
    if mag[terms] > scale and gap < scale:
        raise NumericalError(
            f"truncation at {terms} terms splits an eigenvalue cluster "
            f"(|lambda| gap {gap:.3e} < {scale:.3e})"
        )
    truncated = _eigen_sum(spectrum.eigenvalues[:terms],
                           spectrum.eigenvectors[:terms])
    return truncated, float(np.sum(mag[terms:]))


def was_recover(spectrum: Spectrum, system: WindowSystem,
                terms: int) -> RecoveryResult:
    """Weighted accumulated Cohen's class over the leading eigenpairs.

    Partial sum of lambda_m * Q_T(h_m) for the ``terms`` largest-|lambda|
    eigenpairs.  With all terms and a rank-one system this is the Gabor
    projection estimator, computed through spectral data instead.
    """
    truncated, tail = _truncation(spectrum, terms)
    lag_hat = sum(w * _half_lag_spectrum(tau) for w, tau in system)
    out = _symbol_of_half(_hermitian_rows(truncated, system.length), lag_hat)
    return RecoveryResult(out, "was", {"terms": terms, "eig_tail_mass": tail})


def wawd_recover(spectrum: Spectrum, terms: int) -> RecoveryResult:
    """Weighted accumulated Wigner distribution over the leading eigenpairs.

    Needs no reconstruction window.  The full sum equals the circular
    convolution (1/L)(f conv W(g)); for even L the Wigner frequency
    aliasing leaks into the estimate, which the meta flag records.
    """
    truncated, tail = _truncation(spectrum, terms)
    meta = {
        "terms": terms,
        "eig_tail_mass": tail,
        "even_length_artifacts": truncated.shape[0] % 2 == 0,
    }
    return RecoveryResult(weyl_symbol(truncated), "wawd", meta)


def pt_recover(op: LocOperator, basis, phi) -> RecoveryResult:
    """Plane tiling: sum of spectrograms of operator images of a basis.

    ``basis`` is an orthonormal family (rows), full or partial; None means
    complete.  Any complete basis gives wn_limit, the lower symbol of
    B B* = A E^T conj(E) A* = A A*, so that case forms no basis and no B.
    """
    phi = _unit_window(phi)
    images = op.matrix
    if basis is not None:
        family = np.atleast_2d(np.asarray(basis, dtype=np.complex128))
        if family.shape[1] != op.size:
            raise ValidationError("basis length does not match operator size")
        gram = family @ family.conj().T
        if np.max(np.abs(gram - np.eye(family.shape[0]))) > 1e-8:
            raise ValidationError("basis must be orthonormal within 1e-8")
        if len(family) < op.size:
            images = images @ family.T
    out, clip = _psd_symbol(images @ images.conj().T, phi)
    return RecoveryResult(out, "pt", {"basis_size": images.shape[1],
                                      "psd_clip": clip})


def gp_recover(op: LocOperator, phi, region=None) -> RecoveryResult:
    """Gabor projection: estimate[z] = Re <A pi(z) phi, pi(z) phi>.

    ``region`` (an iterable of lattice points) restricts the output,
    leaving NaN sentinels elsewhere since zero is a meaningful symbol
    value.
    """
    phi = _unit_window(phi)
    symbol = hermitian_symbol(op.matrix, phi)
    if region is None:
        return RecoveryResult(symbol, "gp", {"region_points": None})
    points = np.asarray(list(region), dtype=np.intp).reshape(-1, 2) % op.size
    rows, cols = points.T
    est = np.full((op.size, op.size), np.nan)
    est[rows, cols] = symbol[rows, cols]
    return RecoveryResult(est, "gp", {"region_points": len(points)})


def recover(method: str, op: LocOperator, phi, *, terms=None, draws: int = 100,
            noise_var: float = 1.0, seed: int = 0, basis=None,
            region=None, spectrum=None) -> RecoveryResult:
    """Run one of the estimators in METHODS on ``op``.

    ``terms`` (was, wawd; default L) is the number N of leading eigenpairs
    kept.  Only N < L runs ``eigh``: at N = L, A_N is the Hermitian part
    of A and the tail mass is 0.  ``phi`` is the reconstruction window
    (unused by wawd).  ``draws``, ``noise_var`` and ``seed`` configure wn,
    ``basis`` is pt's orthonormal family (None: complete, A A*) and
    ``region`` restricts gp.  ``spectrum`` (was, wawd) is
    ``eigendecompose(op)`` to reuse, so several calls on one operator run
    ``eigh`` at most once; None makes a fresh one.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if method == "wn":
        return wn_recover(op, phi, draws, noise_var, seed)
    if method == "pt":
        return pt_recover(op, basis, phi)
    if method == "gp":
        return gp_recover(op, phi, region)
    terms = op.size if terms is None else terms
    if spectrum is None:
        spectrum = eigendecompose(op)
    if method == "was":
        return was_recover(spectrum, WindowSystem.single(phi), terms)
    return wawd_recover(spectrum, terms)


def impulse_kernel(windows: WindowSystem, phi, mode: str = "analytic",
                   estimator: str = "gp") -> np.ndarray:
    """Unit-mass blurring kernel separating gp/was estimates from the symbol.

    analytic: (1/L) sum_k s_k |dgt(g_k, phi)|^2, peaked at the origin; that
    is the lower symbol of S = sum_k s_k g_k g_k* over L, clipped at zero
    like every PSD symbol.
    measured: build the operator for a unit Dirac symbol at the origin and
    run the requested estimator pipeline on it; for gp and was this
    reproduces the analytic kernel to machine precision.
    """
    phi = _unit_window(phi)
    length = windows.length
    if mode == "analytic":
        g = windows.windows
        # einsum, not a matmul: BLAS runs this rank-K product at ~16 ms
        # in some multi-threaded processes
        frame = np.einsum("ks,kt->st", windows.weights[:, None] * g, g.conj())
        return _psd_symbol(frame, phi)[0] / length
    if mode != "measured":
        raise ValidationError(f"unknown impulse mode {mode!r}")
    if estimator not in IMPULSE_ESTIMATORS:
        raise ValidationError(f"unsupported impulse estimator {estimator!r}")
    delta = np.zeros((length, length))
    delta[0, 0] = 1.0
    return recover(estimator, build_locop(delta, windows), phi).estimate


def deconvolve(estimate, kernel, eps: float) -> np.ndarray:
    """Invert a circular blur by spectral division with hard thresholding.

    Divides the 2-d FFT of ``estimate`` by that of ``kernel`` wherever the
    kernel spectrum exceeds ``eps`` times its maximum and zeroes the rest.
    For ``estimate = f conv kernel`` the output is the projection of ``f``
    onto the frequencies where ``|kernel_hat| > eps * peak``, plus roundoff
    amplified by about ``1 / eps``.  On a zero-free kernel spectrum, one
    with every bin above ``eps * peak``, that projection is ``f`` itself;
    larger eps degrades gracefully into a band-limited projection.
    """
    est = np.asarray(estimate, dtype=np.complex128)
    ker = np.asarray(kernel, dtype=np.complex128)
    if est.shape != ker.shape or est.ndim != 2:
        raise ValidationError("estimate and kernel must be equal-shape 2-d maps")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    ker_hat = np.fft.fft2(ker)
    ker_mag = np.abs(ker_hat)
    peak = float(np.max(ker_mag))
    if peak == 0.0:
        raise DegenerateKernelError("kernel has no spectral content")
    mask = ker_mag > eps * peak
    ratio = np.zeros_like(ker_hat)
    np.divide(np.fft.fft2(est), ker_hat, out=ratio, where=mask)
    out = np.fft.ifft2(ratio)
    # the residue sits near 1e-8 when eps rides the kernel's noise floor;
    # an order of magnitude above that the division is noise-dominated
    residue = float(np.max(np.abs(out.imag)))
    if residue > 1e-6 * max(1.0, float(np.max(np.abs(out.real)))):
        raise NumericalError(
            f"deconvolution unstable: imaginary residue {residue:.3e}; raise eps"
        )
    return out.real
