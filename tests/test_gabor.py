"""Discrete Gabor transform: Moyal, reconstruction, covariance, projection."""

import gc
import tracemalloc

import numpy as np
import pytest

from locsym import (ValidationError, WindowSystem, build_locop, dgt,
                    dgt_adjoint, gp_recover, impulse_kernel,
                    make_gaussian_window, spectrogram, standard_basis,
                    tf_shift)


def random_signal(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def test_moyal_formula():
    rng = np.random.default_rng(0)
    L = 64
    g = make_gaussian_window(L)
    psi = random_signal(rng, L)
    total = np.sum(np.abs(dgt(psi, g)) ** 2) / L
    expected = np.linalg.norm(psi) ** 2 * np.linalg.norm(g) ** 2
    assert abs(total - expected) < 1e-10 * expected


def test_self_coefficient_at_origin():
    g = make_gaussian_window(64)
    assert abs(dgt(g, g)[0, 0] - 1.0) < 1e-12


def test_covariance_under_shift():
    rng = np.random.default_rng(1)
    L = 48
    g = make_gaussian_window(L)
    psi = random_signal(rng, L)
    n0, m0 = 7, 13
    lhs = np.abs(dgt(tf_shift(psi, (n0, m0)), g))
    rhs = np.roll(np.abs(dgt(psi, g)), (n0, m0), axis=(0, 1))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_adjoint_inverts_analysis():
    rng = np.random.default_rng(2)
    L = 64
    g = make_gaussian_window(L)
    psi = random_signal(rng, L)
    back = dgt_adjoint(dgt(psi, g), g)
    assert np.max(np.abs(back - psi)) < 1e-12


def test_adjoint_of_zero():
    g = make_gaussian_window(32)
    out = dgt_adjoint(np.zeros((32, 32)), g)
    np.testing.assert_array_equal(out, np.zeros(32))


def test_adjoint_window_norm_scaling():
    rng = np.random.default_rng(3)
    L = 32
    g = 0.5 * make_gaussian_window(L)
    psi = random_signal(rng, L)
    back = dgt_adjoint(dgt(psi, g), g)
    np.testing.assert_allclose(back, 0.25 * psi, rtol=0, atol=1e-12)


def test_linearity_in_signal_conjugate_in_window():
    rng = np.random.default_rng(4)
    L = 32
    g = random_signal(rng, L)
    psi, phi = random_signal(rng, L), random_signal(rng, L)
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    lhs = dgt(a * psi + b * phi, g)
    np.testing.assert_allclose(lhs, a * dgt(psi, g) + b * dgt(phi, g),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(dgt(psi, a * g), np.conj(a) * dgt(psi, g),
                               rtol=0, atol=1e-10)


def test_onb_completeness():
    # spectrograms of a complete orthonormal basis add up to one everywhere
    L = 48
    phi = make_gaussian_window(L)
    total = np.zeros((L, L))
    for e in standard_basis(L):
        total += spectrogram(e, phi)
    assert np.max(np.abs(total - 1.0)) < 1e-10


def test_gabor_space_projection_idempotent():
    rng = np.random.default_rng(5)
    L = 32
    g = make_gaussian_window(L)
    coeffs = random_signal(rng, L * L).reshape(L, L)
    project = lambda F: dgt(dgt_adjoint(F, g), g)
    once = project(coeffs)
    np.testing.assert_allclose(project(once), once, rtol=0, atol=1e-10)


def test_spectrogram_moyal_and_positivity():
    rng = np.random.default_rng(6)
    L = 32
    g = make_gaussian_window(L)
    psi = random_signal(rng, L)
    s = spectrogram(psi, g)
    assert np.all(s >= 0)
    assert abs(s.sum() / L - np.linalg.norm(psi) ** 2) < 1e-9


def test_spectrogram_of_shifted_window_peaks_there():
    L = 64
    g = make_gaussian_window(L)
    z0 = (11, 23)
    s = spectrogram(tf_shift(g, z0), g)
    assert np.unravel_index(np.argmax(s), s.shape) == z0
    assert abs(s[z0] - 1.0) < 1e-12


def test_spectrogram_of_zero_signal():
    L = 32
    s = spectrogram(np.zeros(L), make_gaussian_window(L))
    np.testing.assert_array_equal(s, np.zeros((L, L)))


def test_size_mismatch_rejected():
    with pytest.raises(ValidationError):
        dgt(np.ones(8), make_gaussian_window(16))
    with pytest.raises(ValidationError):
        dgt_adjoint(np.zeros((8, 8)), make_gaussian_window(16))
    with pytest.raises(ValidationError):
        spectrogram(np.ones(8), make_gaussian_window(16))


def test_no_index_table_is_kept():
    # delays are strided views, so after the calls nothing of size L x L
    # stays allocated; an int64 L x L table alone would be 8 MiB here.
    # wawd and wigner are left out: they keep a cached lag spectrum
    length = 1021
    g = make_gaussian_window(length)
    system = WindowSystem.single(g)
    f = np.random.default_rng(0).uniform(0, 1, (length, length))
    tracemalloc.start()
    try:
        gp_recover(build_locop(f, system), g)
        impulse_kernel(system, g, mode="analytic")
        dgt(g, g)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20
