"""Error metric, total variation and the blur bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsym import (ValidationError, blur_bound, circ_conv2, gaussian_blur,
                    gen_symbol, rel_l1_error, torus_distance_grid, variation,
                    SymbolSpec)


class TestRelL1:
    def test_perfect_estimate(self):
        f = np.random.default_rng(0).uniform(0, 1, (16, 16))
        assert rel_l1_error(f, f) == 0.0

    def test_zero_estimate_of_nonzero_truth(self):
        f = np.random.default_rng(1).uniform(0.1, 1, (16, 16))
        assert rel_l1_error(np.zeros((16, 16)), f) == pytest.approx(1.0)

    def test_constant_offset_on_unit_truth(self):
        truth = np.ones((16, 16))
        for c in (0.25, -0.4):
            assert rel_l1_error(truth + c, truth) == pytest.approx(abs(c))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100), st.integers(0, 2 ** 31))
    def test_scale_covariance(self, c, seed):
        rng = np.random.default_rng(seed)
        est = rng.standard_normal((8, 8))
        truth = rng.standard_normal((8, 8))
        base = rel_l1_error(est, truth)
        assert rel_l1_error(c * est, c * truth) == pytest.approx(base, rel=1e-9)

    def test_nan_sentinels_excluded(self):
        truth = np.ones((4, 4))
        est = np.ones((4, 4))
        est[0, 0] = np.nan
        est[1, 1] = 2.0
        # one NaN out, one error of 1 over 15 counted cells
        assert rel_l1_error(est, truth) == pytest.approx(1.0 / 15)

    def test_rejects_zero_truth(self):
        with pytest.raises(ValidationError):
            rel_l1_error(np.ones((4, 4)), np.zeros((4, 4)))

    @staticmethod
    def masked_formula(est, truth):
        mask = np.isfinite(est)
        return (float(np.sum(np.abs(est[mask] - truth[mask])))
                / float(np.sum(np.abs(truth[mask]))))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_all_finite_path_is_the_masked_formula_bit_for_bit(self, order):
        # 128 x 128 sums span many pairwise-summation blocks
        rng = np.random.default_rng(12)
        truth = rng.standard_normal((128, 128))
        est = np.asarray(truth + 0.1 * rng.standard_normal((128, 128)),
                         order=order)
        assert est.flags[f"{order}_CONTIGUOUS"]
        for t in (truth, np.asfortranarray(truth)):
            assert rel_l1_error(est, t) == self.masked_formula(est, t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_entry_still_takes_the_masked_path(self, bad):
        rng = np.random.default_rng(13)
        truth = rng.standard_normal((128, 128))
        est = truth + 0.1 * rng.standard_normal((128, 128))
        est[5, 7] = bad
        got = rel_l1_error(est, truth)
        assert np.isfinite(got) and got == self.masked_formula(est, truth)


class TestVariation:
    def test_constant_map(self):
        assert variation(0.7 * np.ones((12, 12))) == 0.0

    def test_single_pixel_indicator(self):
        f = np.zeros((16, 16))
        f[5, 9] = 1.0
        assert variation(f) == pytest.approx(4.0)

    def test_homogeneity(self):
        f = np.random.default_rng(2).standard_normal((16, 16))
        assert variation(-2.5 * f) == pytest.approx(2.5 * variation(f))

    def test_indicator_variation_is_perimeter(self):
        f = np.zeros((32, 32))
        f[4:10, 6:16] = 1.0  # 6 x 10 rectangle
        assert variation(f) == pytest.approx(2 * (6 + 10))


class TestBlurBound:
    def test_delta_kernel_gives_zero(self):
        f = np.random.default_rng(3).uniform(0, 1, (16, 16))
        delta = np.zeros((16, 16))
        delta[0, 0] = 1.0
        assert blur_bound(f, delta) == 0.0

    def test_constant_symbol_gives_zero(self):
        k = np.full((16, 16), 1 / 256)
        assert blur_bound(np.ones((16, 16)), k) == 0.0

    def test_disk_versus_gaussian_kernel(self):
        L = 64
        f = gen_symbol(SymbolSpec("circle", L, {"radius": 14}))
        r = torus_distance_grid(L)
        kernel = np.exp(-r ** 2 / (2 * 2.5 ** 2))
        kernel /= kernel.sum()
        actual = np.sum(np.abs(circ_conv2(f, kernel) - f))
        assert actual <= blur_bound(f, kernel)

    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(4)
        L = 48
        r = torus_distance_grid(L)
        for i in range(10):
            f = (rng.uniform(0, 1, (L, L)) if i % 2
                 else gaussian_blur(rng.uniform(-1, 1, (L, L)), 1.5))
            kernel = np.exp(-r ** 2 / (2 * rng.uniform(0.8, 4.0) ** 2))
            kernel /= kernel.sum()
            actual = np.sum(np.abs(circ_conv2(f, kernel) - f))
            assert actual <= blur_bound(f, kernel) + 1e-9
