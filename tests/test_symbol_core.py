"""The quadratic-symbol kernels against their literal definitions.

Every estimator is a lower or Weyl-type symbol of one matrix, and
``build_locop`` is the adjoint map; these properties check the FFT
kernels entry by entry against the sums that define them, at random odd
and even L, random non-Hermitian matrices and random window systems.  The
symbol kernel and ``build_locop`` work on the half lattice of diagonals
d = 0..L//2, so odd and even L take different paths at d = L/2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsym import WindowSystem, build_locop, tf_shift
from locsym.gabor import hermitian_symbol, weyl_symbol

lengths = st.integers(5, 20)
seeds = st.integers(0, 2 ** 32 - 1)


def random_matrix(rng, length):
    return (rng.standard_normal((length, length))
            + 1j * rng.standard_normal((length, length)))


def random_window(rng, length):
    g = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return g / np.linalg.norm(g)


def random_system(rng, length, count):
    weights = rng.uniform(0.1, 1.0, count)
    return WindowSystem(weights / weights.sum(),
                        np.stack([random_window(rng, length) for _ in range(count)]))


@settings(max_examples=30, deadline=None)
@given(lengths, seeds)
def test_hermitian_symbol_is_the_real_quadratic_form(length, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, length)
    phi = random_window(rng, length)
    got = hermitian_symbol(m, phi)
    literal = np.empty((length, length))
    for n in range(length):
        for k in range(length):
            v = tf_shift(phi, (n, k))
            literal[n, k] = (v.conj() @ m @ v).real
    np.testing.assert_allclose(got, literal, rtol=0, atol=1e-12 * length)


def test_symbols_of_a_real_matrix_match_its_complex_cast():
    rng = np.random.default_rng(7)
    for length in (16, 17):
        m = rng.standard_normal((length, length))
        phi = random_window(rng, length)
        cast = m.astype(complex)
        np.testing.assert_allclose(weyl_symbol(m), weyl_symbol(cast),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(hermitian_symbol(m, phi),
                                   hermitian_symbol(cast, phi), rtol=0, atol=1e-13)


def folded_diagonal_sum(m):
    """Re sum_k m[n+k, n-k] exp(-4 pi i freq k / L), entry by entry."""
    length = m.shape[0]
    k = np.arange(length)
    literal = np.empty((length, length), dtype=complex)
    for n in range(length):
        for freq in range(length):
            literal[n, freq] = np.sum(m[(n + k) % length, (n - k) % length]
                                      * np.exp(-4j * np.pi * freq * k / length))
    return literal.real


@settings(max_examples=30, deadline=None)
@given(lengths, seeds)
def test_weyl_symbol_is_the_folded_diagonal_sum(length, seed):
    m = random_matrix(np.random.default_rng(seed), length)
    np.testing.assert_allclose(weyl_symbol(m), folded_diagonal_sum(m),
                               rtol=0, atol=1e-12 * length)


@pytest.mark.parametrize("length", range(4, 24))
def test_weyl_symbol_sweep_covers_every_residue_of_l_mod_4(length):
    # L = 0 and 2 mod 4 differ at d = L/2: an even lag with two half-lag
    # masses, or an odd lag with none
    m = random_matrix(np.random.default_rng(length), length)
    np.testing.assert_allclose(weyl_symbol(m), folded_diagonal_sum(m),
                               rtol=0, atol=1e-12 * length)


@settings(max_examples=30, deadline=None)
@given(lengths, st.integers(1, 3), st.booleans(), seeds)
def test_build_locop_is_the_weighted_sum_of_projectors(length, count,
                                                       complex_symbol, seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng, length, count)
    f = rng.standard_normal((length, length))
    if complex_symbol:
        f = f + 1j * rng.standard_normal((length, length))
    literal = np.zeros((length, length), dtype=complex)
    for n in range(length):
        for k in range(length):
            for w, g in system:
                v = tf_shift(g, (n, k))
                literal += f[n, k] * w * np.outer(v, v.conj())
    literal /= length
    got = build_locop(f, system).matrix
    np.testing.assert_allclose(got, literal, rtol=0, atol=1e-12 * length)


@settings(max_examples=30, deadline=None)
@given(lengths, st.integers(1, 3), seeds)
def test_build_locop_of_a_real_symbol_is_exactly_hermitian(length, count, seed):
    rng = np.random.default_rng(seed)
    a = build_locop(rng.standard_normal((length, length)),
                    random_system(rng, length, count)).matrix
    np.testing.assert_array_equal(a, a.conj().T)
