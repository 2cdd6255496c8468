"""Signals, windows, shifts and window systems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsym import (ValidationError, WindowSystem, hermite_system,
                    make_gaussian_window, spectrogram, tf_shift)
from locsym.core import MAX_LENGTH, is_length


def random_signal(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


class TestGaussianWindow:
    def test_unit_norm(self):
        g = make_gaussian_window(64)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12

    def test_reflection_symmetry(self):
        g = make_gaussian_window(64)
        reflected = g[(-np.arange(64)) % 64]
        np.testing.assert_allclose(g, reflected, rtol=0, atol=1e-15)
        # same multiset of values under the reflection
        np.testing.assert_array_equal(np.sort(g), np.sort(reflected))

    def test_peak_at_center(self):
        # oracle: evaluate the closed form at every index
        L = 64
        vals = [
            sum(math.exp(-math.pi * (j - L / 2 + r * L) ** 2 / L)
                for r in (-1, 0, 1))
            for j in range(L)
        ]
        assert int(np.argmax(vals)) == L // 2
        g = make_gaussian_window(L)
        assert int(np.argmax(g)) == L // 2
        np.testing.assert_allclose(g, np.array(vals) / np.linalg.norm(vals),
                                   rtol=0, atol=1e-15)

    def test_real_non_negative(self):
        g = make_gaussian_window(32)
        assert np.isrealobj(g) and np.all(g >= 0)

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            make_gaussian_window(3)


class TestLengthRule:
    def test_bounds(self):
        assert [is_length(v) for v in (3, 4, MAX_LENGTH, MAX_LENGTH + 1)] == [
            False, True, True, False]
        assert is_length(np.int64(64))
        assert not any(map(is_length, (True, 64.0, "64", None)))

    @pytest.mark.parametrize("length", [3, MAX_LENGTH + 1, 10 ** 5, 64.0])
    def test_window_builders_share_it(self, length):
        with pytest.raises(ValidationError, match=f"4..{MAX_LENGTH}"):
            make_gaussian_window(length)
        with pytest.raises(ValidationError, match=f"4..{MAX_LENGTH}"):
            hermite_system(length, 1)


class TestTfShift:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(0)
        psi = random_signal(rng, 32)
        np.testing.assert_allclose(tf_shift(psi, (0, 0)), psi, rtol=0, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 47), st.integers(0, 47), st.integers(0, 2 ** 31))
    def test_unitary(self, n, m, seed):
        rng = np.random.default_rng(seed)
        psi = random_signal(rng, 48)
        assert abs(np.linalg.norm(tf_shift(psi, (n, m))) -
                   np.linalg.norm(psi)) < 1e-10

    def test_composition_order(self):
        rng = np.random.default_rng(1)
        L = 64
        psi = random_signal(rng, L)
        n, m = 5, 9
        # translate first, modulate second: identical to the combined shift
        a = tf_shift(tf_shift(psi, (n, 0)), (0, m))
        np.testing.assert_array_equal(a, tf_shift(psi, (n, m)))
        # reversed order picks up the commutator phase
        b = tf_shift(tf_shift(psi, (0, m)), (n, 0))
        phase = np.exp(-2j * math.pi * n * m / L)
        np.testing.assert_allclose(b, phase * tf_shift(psi, (n, m)),
                                   rtol=0, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 2 ** 31))
    def test_inverse_up_to_phase(self, n, m, seed):
        rng = np.random.default_rng(seed)
        L = 32
        psi = random_signal(rng, L)
        back = tf_shift(tf_shift(psi, (n, m)), ((-n) % L, (-m) % L))
        np.testing.assert_allclose(np.abs(back), np.abs(psi), rtol=0, atol=1e-12)
        ratio = back[np.abs(psi) > 1e-6] / psi[np.abs(psi) > 1e-6]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10
        assert abs(abs(ratio[0]) - 1.0) < 1e-10


class TestHermiteSystem:
    def test_gram_identity(self):
        q = hermite_system(64, 8)
        gram = q @ q.conj().T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    def test_gram_identity_full_count(self):
        # extending toward a complete family keeps orthonormality
        for length in (64, 256):
            q = hermite_system(length, length)
            gram = q @ q.conj().T
            assert np.max(np.abs(gram - np.eye(length))) < 1e-8

    @pytest.mark.parametrize("L,count,longer", [
        (256, 128, 200), (255, 127, 255), (512, 256, 400)])
    def test_orthonormal_samples_are_the_qr_basis(self, L, count, longer):
        # these samples pass the Gram test as they are; a longer family
        # fails it and takes the QR, whose leading rows depend only on the
        # leading samples
        q = hermite_system(L, count)
        assert np.max(np.abs(q @ q.conj().T - np.eye(count))) < 1e-14
        assert np.max(np.abs(q - hermite_system(L, longer)[:count])) < 1e-14

    @pytest.mark.parametrize("L,count,qrs", [
        (256, 128, 0), (256, 16, 0), (256, 15, 1), (256, 2, 1), (64, 32, 1),
        (256, 200, 1)])
    def test_only_small_or_non_orthonormal_families_take_the_qr(
            self, qr_calls, L, count, qrs):
        # below 16 rows (hermite:k windows) the QR keeps the bytes; (64, 32)
        # fails the Gram test; above L/2 the test is not even run
        hermite_system(L, count)
        assert len(qr_calls) == qrs

    def test_ground_state_matches_gaussian(self):
        h = hermite_system(128, 1)[0]
        assert np.max(np.abs(h - make_gaussian_window(128))) < 1e-3

    def test_centered_family_sits_at_center(self):
        L = 64
        h0 = hermite_system(L, 1, (L // 2, L // 2))[0]
        spec = spectrogram(h0, make_gaussian_window(L))
        # circular centroid of the spectrogram mass
        for axis in (0, 1):
            phase = np.exp(2j * math.pi * np.arange(L) / L)
            shape = (L, 1) if axis == 0 else (1, L)
            ang = np.angle(np.sum(spec * phase.reshape(shape)))
            center = (ang * L / (2 * math.pi)) % L
            assert min(abs(center - L / 2), L - abs(center - L / 2)) <= 1.0

    @pytest.mark.parametrize("L,count,center", [
        (256, 128, (128, 128)), (33, 33, (5, -7)), (64, 10, (70, 3))])
    def test_shifted_family_is_per_row_tf_shift(self, L, count, center):
        reference = np.stack([tf_shift(row, center)
                              for row in hermite_system(L, count)])
        np.testing.assert_array_equal(hermite_system(L, count, center),
                                      reference)

    @pytest.mark.parametrize("L", [953, 1024])
    def test_full_family_where_the_gaussian_underflows(self, L):
        # the sampled Gaussian is below the smallest normal float at the
        # edge points from L = 902 on, where every unscaled row vanishes
        q = hermite_system(L, L)
        assert np.max(np.abs(q @ q.conj().T - np.eye(L))) < 1e-12

    def test_scaled_rows_match_the_recurrence_where_it_is_normal(self):
        from locsym.core import _scaled_hermite

        count = 400
        u = np.linspace(-20.0, -5.0, 31)  # the Gaussian is a normal float
        h = np.zeros((count, u.size))
        h[0] = np.pi ** -0.25 * np.exp(-u ** 2 / 2)
        h[1] = math.sqrt(2) * u * h[0]
        for k in range(2, count):
            h[k] = (math.sqrt(2 / k) * u * h[k - 1]
                    - math.sqrt((k - 1) / k) * h[k - 2])
        scaled = _scaled_hermite(u, count)
        np.testing.assert_allclose(scaled, h, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(h)))

    def test_count_out_of_range(self):
        with pytest.raises(ValidationError):
            hermite_system(16, 17)
        with pytest.raises(ValidationError):
            hermite_system(16, 0)


class TestWindowSystem:
    def test_from_pairs_and_iter(self):
        g = make_gaussian_window(32)
        h = hermite_system(32, 2)[1]
        ws = WindowSystem.from_pairs([(0.25, g), (0.75, h)])
        assert ws.length == 32
        weights = [w for w, _ in ws]
        assert weights == [0.25, 0.75]

    def test_rejects_non_unit_window(self):
        g = make_gaussian_window(32)
        with pytest.raises(ValidationError):
            WindowSystem.from_pairs([(1.0, 2.0 * g)])

    def test_rejects_bad_weights(self):
        g = make_gaussian_window(32)
        with pytest.raises(ValidationError):
            WindowSystem.from_pairs([(0.5, g)])
        with pytest.raises(ValidationError):
            WindowSystem.from_pairs([(-0.5, g), (1.5, g)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            WindowSystem.from_pairs([])
