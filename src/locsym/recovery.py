"""Symbol recovery: the five estimators, impulse kernels and deconvolution.

Each estimator is the lower symbol <M pi(z) phi, pi(z) phi> or the
Weyl-type symbol of one matrix M; A_N keeps A's N leading eigenpairs.
``recover(method, op, phi, ...)`` is the one method dispatch over the
public estimators.  was and wawd read eigenpairs of the lazy spectrum
that ``eigendecompose`` returns only to truncate: with all L terms A_N is
the Hermitian part of A, so was(L) is the lower symbol of A and wawd(L)
its Weyl symbol, and neither runs ``eigh``.  An operator holds that one
spectrum and keeps its eigenpairs, so any sequence of truncated was and
wawd calls on one operator runs ``eigh`` once.  Every operator and its
spectrum hold the half-lattice rows of that Hermitian part, so was(L),
wawd(L), gp and the measured impulse kernels symbolize a copy of them and
form no dense matrix.

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

Every symbol here is ``gabor._symbol_of_half`` of the diagonals
d = 0..L//2 of one Hermitian matrix against one lag table; the
estimators differ only in the table.  gp, pt, wn and wn_limit use phi's
lag product (``hermitian_symbol``), was the table of its window system,
wawd the half-lag unit mass (``weyl_symbol``).  The analytic impulse
kernel is the lower symbol of the window operator S = sum_k s_k g_k g_k*,
whose diagonals are that same system table (``gabor._lag_table``), so S
itself is never formed.  wn, pt, wn_limit and the analytic kernel
symbolize PSD matrices and are clipped at zero by ``gabor._psd_symbol``.

In finite dimension the identity chain is exact: gp over the full grid,
was with all L eigenpairs and a rank-one reconstruction system, and the
circular convolution of the symbol with the analytic impulse kernel all
agree to machine precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (WindowSystem, as_signal, check_windows, is_integer,
                   is_real)
from .errors import DegenerateKernelError, NumericalError, ValidationError
from .gabor import (_hermitian_gather, _lag_table, _midpoint_lag_spectrum,
                    _psd_symbol, _symbol_of_half)
from .operator import (LocOperator, Spectrum, _eigen_sum, build_locop,
                       eigendecompose)

_NOISE_BATCH = 128
DEGENERACY_GAP = 1e-8
METHODS = ("wn", "was", "wawd", "pt", "gp")
SQUARED_TARGET = ("wn", "pt")  # these estimate f**2, the rest f
IMPULSE_ESTIMATORS = ("gp", "was")  # what a measured impulse kernel runs
# the one rule of each estimator option: (its name in messages, test of a
# value at operator size L, what a value must be)
_OPTION_RULES = {
    "draws": ("draws", lambda v, size: is_integer(v) and v >= 1,
              "an integer >= 1"),
    "noise_var": ("noise variance", lambda v, size: is_real(v) and v > 0,
                  "a finite real > 0"),
    "seed": ("seed", lambda v, size: is_integer(v) and 0 <= v < 2 ** 64,
             "an integer in 0..2**64-1"),
    "terms": ("terms", lambda v, size: is_integer(v) and 1 <= v <= size,
              "an integer in 1..{size}"),
}


@dataclass(frozen=True)
class RecoveryResult:
    """Estimate map plus the parameters that produced it."""

    estimate: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)


def _check_options(size: int, name=None, **options) -> None:
    """Raise ValidationError unless each estimator option given passes its
    rule at operator size ``size``; the message calls a failing value
    ``name``, by default its rule's own name for it."""
    for option, value in options.items():
        label, valid, must_be = _OPTION_RULES[option]
        if not valid(value, size):
            raise ValidationError(f"{name or label} must be "
                                  f"{must_be.format(size=size)}, got {value!r}")


def _unit_window(phi, length: int) -> np.ndarray:
    """``phi`` as a signal that passes ``check_windows`` at ``length``."""
    phi = as_signal(phi)
    check_windows(phi, length)
    return phi


def wn_limit(spectrum: Spectrum, phi) -> np.ndarray:
    """Large-sample limit of the white-noise estimator.

    sum_m lambda_m^2 |dgt(h_m, phi)|^2; also the value of the full
    plane-tiling sum.  Invariant under negating the operator because only
    squared eigenvalues enter.  It reads the eigenpairs even though the sum
    is the lower symbol of A A*: squaring the eigenvalues makes the result
    bit-for-bit equal for ``Spectrum(-lambda, V)``, while A A* formed from
    ``spectrum.matrix`` would agree with it only to roundoff.
    """
    phi = _unit_window(phi, spectrum.size)
    lam = spectrum.eigenvalues
    rows = _hermitian_gather(_eigen_sum(lam * lam, spectrum.eigenvectors))[0]
    return _psd_symbol(rows, phi)[0]


def wn_recover(op: LocOperator, phi, draws: int, noise_var: float,
               seed: int) -> RecoveryResult:
    """Monte-Carlo white-noise probing of the operator.

    Draws ``draws`` (an integer >= 1) complex circular Gaussian signals
    with per-entry variance ``noise_var`` (a finite real > 0), substream
    per realization keyed by (seed, k) with ``seed`` an integer in
    0..2**64-1, filters each through the operator and averages the
    spectrograms.  The estimate is that average divided by the observed
    noise level, the mean of |dgt(noise, phi)|^2 over realizations and
    lattice points; it targets the squared symbol, so signs are lost.
    A ``noise_var`` whose noise leaves the float range raises
    NumericalError: one below the smallest normal float, whose subnormal
    noise would lose precision silently, before any draw, and one whose
    noise overflows once drawn.
    """
    phi = _unit_window(phi, op.size)
    _check_options(op.size, draws=draws, noise_var=noise_var, seed=seed)
    leaves = NumericalError(f"white noise of variance {noise_var!r} leaves "
                            "the float range")
    if noise_var < sys.float_info.min:
        raise leaves
    length = op.size
    with np.errstate(over="ignore", invalid="ignore"):
        covariance, energy = _noise_covariance(
            op.matrix, draws, math.sqrt(noise_var / 2.0), seed)
        covariance /= draws
        avg, clip = _psd_symbol(_hermitian_gather(covariance)[0], phi)
    noise_var_hat = energy / (draws * length)
    if not (0 < noise_var_hat < math.inf and np.all(np.isfinite(avg))):
        raise leaves
    meta = {
        "draws": draws,
        "noise_var": noise_var,
        "noise_var_hat": noise_var_hat,
        "seed": seed,
        "avg_observed": avg,
        "psd_clip": clip / noise_var_hat,
    }
    return RecoveryResult(avg / noise_var_hat, "wn", meta)


def _noise_covariance(matrix: np.ndarray, draws: int, scale: float, seed: int):
    """sum_k (A x_k)(A x_k)* over the noise draws x_k, and sum_k |x_k|^2.

    Draw k is ``scale`` (re + 1j im) with re, im the 2L standard normals of
    substream (seed, k).  Draws go through the operator in batches of
    _NOISE_BATCH rows.  The batch buffers are allocated once per call and
    freed on return, before the caller forms the symbol.
    """
    length = matrix.shape[0]
    # Philox is counter-based: keying by (seed, k) gives independent
    # substreams per realization, so results never depend on batching.
    # One generator is rekeyed per draw by resetting it to a fresh state
    # (counter 0, empty buffer) with key (seed, k); constructing a Philox
    # per draw costs more than the draw.  The state holds Python ints,
    # which the setter reads faster than numpy arrays.
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state
    key = [seed, 0]
    state["state"] = {"counter": [0, 0, 0, 0], "key": key}
    state["buffer"] = [0, 0, 0, 0]
    noise = np.empty((min(draws, _NOISE_BATCH), length), dtype=np.complex128)
    filtered = np.empty_like(noise)
    product = np.empty((length, length), dtype=np.complex128)
    covariance = np.zeros_like(product)
    energy = 0.0
    for lo in range(0, draws, _NOISE_BATCH):
        count = min(_NOISE_BATCH, draws - lo)
        block, image = noise[:count], filtered[:count]
        # until the matmul the images' buffer holds floats: first the 2L
        # normals of each draw in its row, then |re|^2 and |im|^2 in halves
        spare = image.view(np.float64)
        for k, row in zip(range(lo, lo + count), spare):
            key[1] = k
            bits.state = state
            rng.standard_normal(out=row)
        np.multiply(spare[:, :length], scale, out=block.real)
        np.multiply(spare[:, length:], scale, out=block.imag)
        square = spare.reshape(2, count, length)
        np.square(block.real, out=square[0])
        np.square(block.imag, out=square[1])
        energy += float(np.sum(np.add(square[0], square[1], out=square[0])))
        np.matmul(block, matrix.T, out=image)
        # the noise is spent: its rows take the conjugate of the images
        covariance += np.matmul(image.T, np.conjugate(image, out=block),
                                out=product)
    return covariance, energy


def _truncation(spectrum: Spectrum, terms: int):
    """The half-lattice rows of A_N, the operator rebuilt from its
    ``terms`` leading eigenpairs, and the eigenvalue tail mass
    sum_{m >= N} |lambda_m| it leaves out.

    With all terms A_N is ``spectrum.matrix``, whose rows are copied, and
    no eigenpair is read; below that the eigen-sum is freed once its
    rows are taken.
    A cut between two |lambda| closer than DEGENERACY_GAP * |lambda_0| makes
    A_N depend on roundoff, so it raises unless the rest is negligible.
    """
    _check_options(spectrum.size, terms=terms)
    if terms == spectrum.size:
        return spectrum.rows.copy(), 0.0
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
    return _hermitian_gather(truncated)[0], float(np.sum(mag[terms:]))


def was_recover(spectrum: Spectrum, system: WindowSystem,
                terms: int) -> RecoveryResult:
    """Weighted accumulated Cohen's class over the leading eigenpairs.

    Partial sum of lambda_m * Q_T(h_m) for the ``terms`` largest-|lambda|
    eigenpairs.  With all terms and a rank-one system this is the Gabor
    projection estimator, computed through spectral data instead.
    """
    check_windows(system.windows, spectrum.size)
    rows, tail = _truncation(spectrum, terms)
    lag_hat = np.fft.fft(_lag_table(system.windows, system.weights), axis=1)
    out = _symbol_of_half(rows, lag_hat)
    return RecoveryResult(out, "was", {"terms": terms, "eig_tail_mass": tail})


def wawd_recover(spectrum: Spectrum, terms: int) -> RecoveryResult:
    """Weighted accumulated Wigner distribution over the leading eigenpairs.

    Needs no reconstruction window.  The full sum equals the circular
    convolution (1/L)(f conv W(g)); for even L the Wigner frequency
    aliasing leaks into the estimate, which the meta flag records.
    """
    length = spectrum.size
    rows, tail = _truncation(spectrum, terms)
    meta = {
        "terms": terms,
        "eig_tail_mass": tail,
        "even_length_artifacts": length % 2 == 0,
    }
    out = _symbol_of_half(rows, _midpoint_lag_spectrum(length))
    return RecoveryResult(out, "wawd", meta)


def pt_recover(op: LocOperator, basis, phi) -> RecoveryResult:
    """Plane tiling: sum of spectrograms of operator images of a basis.

    ``basis`` is an orthonormal family (rows), full or partial; None means
    complete.  Any complete basis gives wn_limit, the lower symbol of
    B B* = A E^T conj(E) A* = A A*, so that case forms no basis and no B.
    A family with a NaN or infinite entry fails the orthonormality test.
    """
    phi = _unit_window(phi, op.size)
    images = op.matrix
    if basis is not None:
        family = np.atleast_2d(np.asarray(basis, dtype=np.complex128))
        if family.shape[1] != op.size:
            raise ValidationError("basis length does not match operator size")
        # a huge or infinite entry gives an infinite or NaN Gram entry
        with np.errstate(over="ignore", invalid="ignore"):
            gram = family @ family.conj().T
        gram[np.diag_indices_from(gram)] -= 1.0
        if not np.max(np.abs(gram)) <= 1e-8:  # NaN fails too
            raise ValidationError(
                "basis must be finite and orthonormal within 1e-8")
        del gram  # freed before B B* is formed
        if len(family) < op.size:
            images = images @ family.T
    out, clip = _psd_symbol(
        _hermitian_gather(images @ images.conj().T)[0], phi)
    return RecoveryResult(out, "pt", {"basis_size": images.shape[1],
                                      "psd_clip": clip})


def gp_recover(op: LocOperator, phi, region=None) -> RecoveryResult:
    """Gabor projection: estimate[z] = Re <A pi(z) phi, pi(z) phi>.

    ``region`` (an (N, 2) integer array or any iterable of lattice
    points) restricts the output, leaving NaN sentinels elsewhere since
    zero is a meaningful symbol value.  An array is read as it is; other
    iterables go through ``list``.
    """
    phi = _unit_window(phi, op.size)
    symbol = _symbol_of_half(op.rows.copy(),
                             np.fft.fft(_lag_table(phi), axis=1))
    if region is None:
        return RecoveryResult(symbol, "gp", {"region_points": None})
    points = region if isinstance(region, np.ndarray) else list(region)
    points = np.asarray(points, dtype=np.intp).reshape(-1, 2) % op.size
    rows, cols = points.T
    est = np.full((op.size, op.size), np.nan)
    est[rows, cols] = symbol[rows, cols]
    return RecoveryResult(est, "gp", {"region_points": len(points)})


def recover(method: str, op: LocOperator, phi, *, terms=None, draws: int = 100,
            noise_var: float = 1.0, seed: int = 0, basis=None,
            region=None) -> RecoveryResult:
    """Run one of the estimators in METHODS on ``op``.

    ``terms`` (was, wawd; default L) is the number N of leading eigenpairs
    kept.  Only N < L reads eigenpairs: at N = L, A_N is the Hermitian
    part of A and the tail mass is 0.  was and wawd read the spectrum the
    operator holds (``eigendecompose(op)``), which runs ``eigh`` on its
    first eigenpair read and keeps the result, so several calls on one
    operator run it at most once.  ``phi`` is the reconstruction window
    (unused by wawd); every other method holds it to the one window rule,
    ``core.check_windows``: unit-norm within UNIT_NORM_TOL and L long.
    ``draws``, ``noise_var`` and ``seed`` configure wn, ``basis`` is pt's
    orthonormal family (None: complete, A A*) and ``region`` restricts gp.
    Each of ``terms``, ``draws``, ``noise_var`` and ``seed`` is checked,
    type and range by its one rule in ``_OPTION_RULES``, only by a method
    that reads it; wn also raises NumericalError, before any draw, for a
    ``noise_var`` below the smallest normal float.
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
    spectrum = eigendecompose(op)  # the operator's own: one eigh at most
    if method == "was":
        return was_recover(spectrum, WindowSystem.single(phi), terms)
    return wawd_recover(spectrum, terms)


def impulse_kernel(windows: WindowSystem, phi, mode: str = "analytic",
                   estimator: str = "gp") -> np.ndarray:
    """Unit-mass blurring kernel separating gp/was estimates from the symbol.

    analytic: (1/L) sum_k s_k |dgt(g_k, phi)|^2, peaked at the origin; that
    is the lower symbol of S = sum_k s_k g_k g_k* over L, clipped at zero
    like every PSD symbol.  It is computed from S's diagonals, the lag
    table of the system, so S is never formed.
    measured: build the operator for a unit Dirac symbol at the origin and
    run the requested estimator pipeline on it; for gp and was this
    reproduces the analytic kernel to machine precision.
    """
    length = windows.length
    phi = _unit_window(phi, length)
    if mode == "analytic":
        kernel = _psd_symbol(_lag_table(windows.windows, windows.weights),
                             phi)[0]
        kernel /= length
        return kernel
    if mode != "measured":
        raise ValidationError(f"unknown impulse mode {mode!r}")
    if estimator not in IMPULSE_ESTIMATORS:
        raise ValidationError(f"unsupported impulse estimator {estimator!r}")
    delta = np.zeros((length, length))
    delta[0, 0] = 1.0
    return recover(estimator, build_locop(delta, windows), phi).estimate


def _spectrum(grid: np.ndarray) -> np.ndarray:
    """2-d FFT of a real or complex map, computed in place in one complex copy."""
    spec = np.empty(grid.shape, dtype=np.complex128)
    spec[...] = grid
    return np.fft.fftn(spec, out=spec)


def deconvolve(estimate, kernel, eps: float) -> np.ndarray:
    """Invert a circular blur by spectral division with hard thresholding.

    Divides the 2-d FFT of ``estimate`` by that of ``kernel`` wherever the
    kernel spectrum exceeds ``eps`` times its maximum and zeroes the rest.
    For ``estimate = f conv kernel`` the output is the projection of ``f``
    onto the frequencies where ``|kernel_hat| > eps * peak``, plus roundoff
    amplified by about ``1 / eps``.  On a zero-free kernel spectrum, one
    with every bin above ``eps * peak``, that projection is ``f`` itself;
    larger eps degrades gracefully into a band-limited projection.

    A non-finite entry in either map, such as the NaN sentinels of a
    region-restricted gp estimate, raises ValidationError.
    """
    est, ker = np.asarray(estimate), np.asarray(kernel)
    if est.shape != ker.shape or est.ndim != 2:
        raise ValidationError("estimate and kernel must be equal-shape 2-d maps")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    for name, m in (("estimate", est), ("kernel", ker)):
        if not np.all(np.isfinite(m)):
            raise ValidationError(
                f"{name} has non-finite entries; deconvolve needs a full map "
                "(a region-restricted gp estimate holds NaN sentinels)")
    ker_hat = _spectrum(ker)
    mag = np.abs(ker_hat)
    peak = float(np.max(mag))
    if peak == 0.0:
        raise DegenerateKernelError("kernel has no spectral content")
    mask = mag > eps * peak
    spec = _spectrum(est)
    np.divide(spec, ker_hat, out=spec, where=mask)
    del ker_hat  # freed before the real copy is made
    spec[~mask] = 0.0
    np.fft.ifftn(spec, out=spec)  # not ifft2, which ignores out= in numpy 2.4
    # the residue sits near 1e-8 when eps rides the kernel's noise floor;
    # an order of magnitude above that the division is noise-dominated
    residue = float(np.max(np.abs(spec.imag, out=mag)))
    if residue > 1e-6 * max(1.0, float(np.max(np.abs(spec.real, out=mag)))):
        raise NumericalError(
            f"deconvolution unstable: imaginary residue {residue:.3e}; raise eps"
        )
    return spec.real.copy()
