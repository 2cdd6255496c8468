"""Full-lattice discrete Gabor transform, synthesis, spectrograms, symbols.

The lattice is the full grid (hop 1, L frequency bins), which makes the
frame tight: synthesis carries a 1/L factor so analysis-then-synthesis is
exactly the identity for a unit-norm window.

Every kernel here needs one index, "x delayed by n".  ``_delays(x)`` is
that index as a read-only strided view over 2L - 1 entries, so no L x L
index table is formed or cached: ``dgt`` and ``dgt_adjoint`` read the
view directly.

One kernel, ``_symbol_of_half``, computes every quadratic symbol of a
matrix.  It works on the diagonals M[s, s - d] of a Hermitian M, whose
diagonal -d is the conjugate mirror of diagonal d, so it transforms only
the half lattice d = 0..L//2 and finishes with a real inverse FFT over
d.  The symbols differ only in the lag table the diagonals are
correlated with: a window's lag product g[u] conj(g[u - d]) gives the
lower symbol <M pi(z) g, pi(z) g>, a weighted sum of them the symbol
over a window system, and a unit mass at the half-lag the Weyl symbol.

``_lag_table`` is the one place such diagonals are formed: the same
table is the lag table of a symbol and the rows of the window operator
S = sum_k w_k g_k g_k* or of a rank-one psi psi*.  So the analytic
impulse kernel, the spectrogram, Cohen's class and the Wigner
distribution are symbolized from their tables; neither S nor psi psi* is
ever formed as an L x L matrix.  The lower symbol of a PSD matrix is
clipped at zero in one place, ``_psd_symbol``.

This module alone owns the (d, s) layout of the half lattice, in both
directions: ``_hermitian_gather`` takes the diagonals of the Hermitian
part (M + M*)/2 of any square matrix together with its asymmetry,
``_make_hermitian`` makes computed diagonals those of a Hermitian
matrix, and ``_hermitian_matrix`` scatters them back into the dense
Hermitian matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import as_signal
from .errors import ValidationError


def _delays(x: np.ndarray) -> np.ndarray:
    """Read-only view with [n, t] = x[(t - n) mod L]: row n is x delayed by n.

    Row n starts at entry L - 1 - n of x[1:] followed by x, so the view
    holds 2L - 1 entries, not L^2; numpy checks its strides against that
    buffer.  ``sliding_window_view`` gives the same view at about four
    times the cost per call, which adds several percent to a job at
    L = 128.
    """
    y = np.concatenate((x[1:], x))
    y.flags.writeable = False
    return np.ndarray((x.size,) * 2, y.dtype, y, strides=(y.itemsize,) * 2)[::-1]


def _half_lattice(length: int) -> np.ndarray:
    """idx[d, s] = (s - d) mod L for the diagonals d = 0..L//2.

    A Hermitian matrix is fixed by these diagonals: M[s - d, s] is the
    conjugate of M[s, s - d], and the lags above L//2 are those of the
    mirror.  The delays of 0..L-1, so O(L) memory and nothing to cache.
    """
    return _delays(np.arange(length))[:length // 2 + 1]


def _lag_table(windows: np.ndarray, weights=None, out=None) -> np.ndarray:
    """Diagonals d = 0..L//2 of S = sum_k w_k g_k g_k*.

    Row d is S[u, u - d] = sum_k w_k g_k[u] conj(g_k[(u - d) mod L]).
    With no ``weights``, ``windows`` is one window g and the table is its
    lag product, the diagonals of g g*, written into ``out`` if given:
    the delays of conj(g) are copied in and multiplied by g in place, for
    which numpy allocates one broadcast buffer of up to 8192 entries; the
    multiply of the delay view into ``out`` allocated two.  Otherwise
    ``windows`` holds one window per row; the table starts as the first
    window's weighted term and each further term is formed in one work
    buffer and added in, so memory does not grow with their number.  No
    BLAS call: BLAS threading runs small complex products at a flat
    ~16 ms in some processes.
    """
    if weights is None:
        lags = _delays(windows.conj())[:windows.size // 2 + 1]
        if out is None:
            out = np.empty(lags.shape, dtype=complex)
        out[...] = lags
        out *= windows
        return out
    table, work = _lag_table(windows[0]), None
    table *= weights[0]
    for w, g in zip(weights[1:], windows[1:]):
        work = _lag_table(g, out=work)
        work *= w
        table += work
    return table


def _hermitian_gather(matrix: np.ndarray):
    """Rows of the Hermitian part of a square M, max |M - M*|, and whether
    ``_hermitian_matrix`` of the rows gives back M bit for bit.

    Row d, d = 0..L//2, pairs M[s, s - d] with conj(M[s - d, s]), so the
    half lattice meets every entry and its mirror: the asymmetry is the
    largest |difference| of a pair and the row is the pair's mean, each
    word halved as a float, so a pair that agrees bit for bit is its own
    mean.  Row 0, the main diagonal, is its own mirror and keeps the real
    part.  M is read a block of diagonals at a time, so a memory-mapped M
    costs the rows and one block.  M may hold any real or complex dtype;
    the rows are complex128.
    """
    length = matrix.shape[0]
    idx = _half_lattice(length)
    s = np.arange(length)
    flat = matrix.reshape(-1)  # flat indices gather faster than [s, idx]
    rows = np.empty(idx.shape, dtype=np.complex128)
    diag = np.array(matrix.diagonal(), dtype=np.complex128)
    rows[0] = diag.real
    asym = 2.0 * float(np.max(np.abs(diag.imag)))
    exact = rows[0].tobytes() == diag.tobytes()
    step = max(1, 4096 // length)  # diagonals a block, about 4096 entries
    for lo in range(1, idx.shape[0], step):
        pair = rows[lo:lo + step]
        pair[...] = flat[s * length + idx[lo:lo + step]]
        mirror = np.conjugate(flat[idx[lo:lo + step] * length + s],
                              dtype=np.complex128)
        # a pair that agrees bit for bit is its own mean
        if not np.array_equal(pair.view(np.int64), mirror.view(np.int64)):
            exact = False
            asym = max(asym, float(np.max(np.abs(pair - mirror))))
            pair += mirror
            pair.view(np.float64)[...] *= 0.5  # the complex *= 0.5 signs zeros
    return rows, asym, exact


def _make_hermitian(rows: np.ndarray) -> np.ndarray:
    """Make diagonals d = 0..L//2 those of a Hermitian matrix, in place.

    Diagonals 0 and, at even L, L/2 are their own conjugate mirrors: row 0,
    the main diagonal, is made real, and the second half of row L/2 the
    conjugate of its first half.  Returns ``rows``.
    """
    length = rows.shape[1]
    rows[0] = rows[0].real
    if length % 2 == 0:
        rows[-1, length // 2:] = rows[-1, :length // 2].conj()
    return rows


def _hermitian_matrix(rows: np.ndarray) -> np.ndarray:
    """The Hermitian H with H[s, s - d] = rows[d, s], d = 0..L//2.

    The inverse of ``_hermitian_gather`` for rows passed through
    ``_make_hermitian``, so H is Hermitian bit for bit.  ``rows`` is only
    read: the upper write puts the rows in place and the whole of H is
    conjugated, then the lower write lands last where the two meet.
    """
    length = rows.shape[1]
    idx = _half_lattice(length)
    s = np.arange(length)
    out = np.empty((length, length), dtype=np.complex128)
    flat = out.reshape(-1)  # flat indices scatter faster than [idx, s]
    pos = idx * length  # one index buffer for both writes
    flat[np.add(pos, s, out=pos)] = rows
    np.conjugate(out, out=out)
    flat[np.add(np.multiply(s, length, out=pos), idx, out=pos)] = rows
    return out


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

    ``rows``, complex128 like every table here, is overwritten: both FFTs
    over s run in place in its buffer.
    """
    spec = np.fft.fft(rows, axis=1, out=rows)
    np.conjugate(spec, out=spec)
    spec *= lag_hat
    np.fft.fft(spec, axis=1, out=spec)
    return np.fft.irfft(spec, n=rows.shape[1], axis=0).T


@functools.lru_cache(maxsize=8)
def _midpoint_lag_spectrum(length: int) -> np.ndarray:
    """Lag spectrum of the Weyl symbol: a unit mass at each k with 2k = d mod L.

    Odd L has one, k = d (L + 1)/2 mod L.  Even L has two, d/2 and
    d/2 + L/2, for even d and none for odd d: the frequency aliasing of
    the even-length Wigner kernel.  Cached because it is a computed FFT,
    not an index: recomputing it on every call adds about a third to
    ``wawd(L)`` at L = 255 and 256.
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
    if matrix.shape != (phi.size, phi.size):
        raise ValidationError(f"matrix {matrix.shape} != window length {phi.size}")
    return _symbol_of_half(_hermitian_gather(matrix)[0],
                           np.fft.fft(_lag_table(phi), axis=1))


def weyl_symbol(matrix: np.ndarray) -> np.ndarray:
    """Re sum_k M[n+k, n-k] exp(-4 pi i m k / L) at every lattice point.

    The discrete Wigner kernel with psi[n+k] conj(psi[n-k]) replaced by
    M[n+k, n-k].  Its real part is the Weyl-type symbol of the Hermitian
    part (M + M*)/2, which is the symbol kernel with a unit mass at the
    half-lag as the lag table.  O(L^2 log L).
    """
    length = matrix.shape[0]
    return _symbol_of_half(_hermitian_gather(matrix)[0],
                           _midpoint_lag_spectrum(length))


def _psd_symbol(rows: np.ndarray, windows: np.ndarray, weights=None):
    """Lower symbol of a PSD matrix clipped at zero, and the clipped magnitude.

    ``rows`` are the matrix's diagonals d = 0..L//2, so a caller can free
    the L x L matrix before the lag spectrum and the FFTs, which run in
    ``rows``.  ``windows`` and ``weights`` give the lag table as in
    ``_lag_table``: one window, or a weighted system of them.  A window
    length other than the matrix size L raises ValidationError.
    """
    if windows.shape[-1] != rows.shape[1]:
        raise ValidationError(f"signal length {rows.shape[1]} != "
                              f"window length {windows.shape[-1]}")
    est = _symbol_of_half(rows, np.fft.fft(_lag_table(windows, weights), axis=1))
    clip = max(0.0, -float(est.min()))
    return np.maximum(est, 0.0, out=est), clip


def dgt(psi, g) -> np.ndarray:
    """Discrete Gabor transform V[n, m] = <psi, pi(n, m) g>.

    Computed as L length-L FFTs: V[n] = FFT(psi * conj(g delayed by n)).
    """
    psi, g = as_signal(psi), as_signal(g)
    if psi.size != g.size:
        raise ValidationError(f"signal length {psi.size} != window length {g.size}")
    return np.fft.fft(psi * _delays(g.conj()), axis=1)


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
    return np.sum(np.fft.ifft(coeffs, axis=1) * _delays(g), axis=0)


def spectrogram(psi, g) -> np.ndarray:
    """|dgt(psi, g)|^2, the energy distribution over the phase plane.

    The lower symbol of the rank-one psi psi* against g, from psi's lag
    table, clipped at zero.
    """
    return _psd_symbol(_lag_table(as_signal(psi)), as_signal(g))[0]
