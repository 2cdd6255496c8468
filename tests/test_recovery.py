"""The five recovery methods, impulse kernels and deconvolution."""

import numpy as np
import pytest

import locsym.recovery
from locsym import (DegenerateKernelError, LocOperator, NotSelfAdjointError,
                    NumericalError, Spectrum, SymbolSpec, ValidationError,
                    WindowSystem, build_locop, circ_conv2, deconvolve,
                    dft_basis, eigendecompose, gen_symbol, gp_recover,
                    hermite_system, impulse_kernel, make_gaussian_window,
                    pt_recover, recover, standard_basis, tf_shift,
                    torus_distance_grid, was_recover, wawd_recover, wigner,
                    wn_limit, wn_recover)
from locsym.gabor import dgt, hermitian_symbol


def gauss_setup(L, seed=None, symbol=None):
    g = make_gaussian_window(L)
    ws = WindowSystem.single(g)
    if symbol is None:
        symbol = np.random.default_rng(seed).standard_normal((L, L))
    op = build_locop(symbol, ws)
    return g, ws, symbol, op


class TestWnLimit:
    def test_unit_symbol_gives_one(self):
        g, ws, _, op = gauss_setup(64, symbol=np.ones((64, 64)))
        limit = wn_limit(eigendecompose(op), g)
        assert np.max(np.abs(limit - 1.0)) < 1e-8

    def test_zero_operator(self):
        g, ws, _, op = gauss_setup(32, symbol=np.zeros((32, 32)))
        np.testing.assert_allclose(wn_limit(eigendecompose(op), g), 0.0,
                                   rtol=0, atol=1e-12)

    def test_equals_plane_tiling_sum(self):
        g, _, _, op = gauss_setup(64, seed=0)
        limit = wn_limit(eigendecompose(op), g)
        tiling = pt_recover(op, standard_basis(64), g).estimate
        assert np.max(np.abs(limit - tiling)) < 1e-8

    def test_invariant_under_operator_negation(self):
        # only squared eigenvalues enter, so the negated spectrum gives
        # bit-identical output
        g, _, _, op = gauss_setup(48, seed=1)
        spec = eigendecompose(op)
        flipped = Spectrum(-spec.eigenvalues, spec.eigenvectors)
        np.testing.assert_array_equal(wn_limit(spec, g), wn_limit(flipped, g))


class TestWhiteNoise:
    def test_zero_symbol_gives_zero_average(self):
        g, _, _, op = gauss_setup(32, symbol=np.zeros((32, 32)))
        res = wn_recover(op, g, 4, 1.0, 0)
        np.testing.assert_array_equal(res.meta["avg_observed"],
                                      np.zeros((32, 32)))

    def test_noise_scale_covariance_is_exact(self):
        g, _, _, op = gauss_setup(32, seed=2)
        r1 = wn_recover(op, g, 6, 1.0, 42)
        r4 = wn_recover(op, g, 6, 4.0, 42)
        np.testing.assert_array_equal(r4.meta["avg_observed"],
                                      4.0 * r1.meta["avg_observed"])

    def test_deterministic_per_seed(self):
        g, _, _, op = gauss_setup(32, seed=3)
        a = wn_recover(op, g, 5, 1.0, 7).estimate
        b = wn_recover(op, g, 5, 1.0, 7).estimate
        c = wn_recover(op, g, 5, 1.0, 8).estimate
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 0

    def test_variance_estimate_close(self):
        g, _, _, op = gauss_setup(32, seed=4)
        res = wn_recover(op, g, 64, 2.5, 0)
        assert abs(res.meta["noise_var_hat"] / 2.5 - 1.0) < 0.05

    def test_rejects_bad_counts(self):
        g, _, _, op = gauss_setup(32, seed=6)
        with pytest.raises(ValidationError):
            wn_recover(op, g, 0, 1.0, 0)
        with pytest.raises(ValidationError):
            wn_recover(op, g, 4, 0.0, 0)

    @pytest.mark.parametrize("noise_var", [np.inf, np.nan])
    def test_rejects_non_finite_noise_variance(self, noise_var):
        g, _, _, op = gauss_setup(16, seed=6)
        with pytest.raises(ValidationError, match="noise variance"):
            wn_recover(op, g, 4, noise_var, 0)

    def test_estimate_converges_toward_limit(self):
        # mean L1 distance to the limit should fall roughly like 1/sqrt(K)
        L = 32
        g, _, f, op = gauss_setup(L, symbol=gen_symbol(
            SymbolSpec("circle", L, {"radius": 8})))
        limit = wn_limit(eigendecompose(op), g)
        def mean_dist(draws):
            return np.mean([
                np.sum(np.abs(wn_recover(op, g, draws, 1.0, s).estimate - limit))
                for s in range(3)
            ])
        assert mean_dist(1600) < mean_dist(25) / 4.0


def per_draw_generator_wn(op, phi, draws, noise_var, seed):
    """wn estimate with one Generator(Philox(key=[seed, k])) per draw.

    The same arithmetic as wn_recover, batch for batch, so the two agree
    bit for bit when every draw k reads substream (seed, k).
    """
    length = op.size
    scale = np.sqrt(noise_var / 2.0)
    covariance = np.zeros((length, length), dtype=complex)
    energy = 0.0
    for lo in range(0, draws, locsym.recovery._NOISE_BATCH):
        rows = []
        for k in range(lo, min(lo + locsym.recovery._NOISE_BATCH, draws)):
            rng = np.random.Generator(np.random.Philox(
                key=np.array([seed, k], dtype=np.uint64)))
            re = rng.standard_normal(length)
            im = rng.standard_normal(length)
            rows.append(scale * (re + 1j * im))
        noise = np.stack(rows)
        filtered = noise @ op.matrix.T
        covariance += filtered.T @ filtered.conj()
        energy += float(np.sum(noise.real ** 2 + noise.imag ** 2))
    avg = np.maximum(hermitian_symbol(covariance / draws, phi), 0.0)
    return avg / (energy / (draws * length))


class TestNoiseSubstreams:
    # draws 129 and 300 cross the 128-draw batch boundary
    @pytest.mark.parametrize("draws", [1, 129, 300])
    def test_matches_per_draw_generators(self, draws):
        g, _, _, op = gauss_setup(24, seed=30)
        est = wn_recover(op, g, draws, 0.8, 2 ** 63 + 5).estimate
        np.testing.assert_array_equal(
            est, per_draw_generator_wn(op, g, draws, 0.8, 2 ** 63 + 5))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_seed_outside_uint64(self, seed):
        g, _, _, op = gauss_setup(16, seed=31)
        with pytest.raises(ValidationError, match="seed"):
            wn_recover(op, g, 2, 1.0, seed)

    def test_largest_seed_is_accepted(self):
        g, _, _, op = gauss_setup(16, seed=31)
        est = wn_recover(op, g, 2, 1.0, 2 ** 64 - 1).estimate
        np.testing.assert_array_equal(
            est, per_draw_generator_wn(op, g, 2, 1.0, 2 ** 64 - 1))


def star_two_windows(L):
    g = make_gaussian_window(L)
    ws = WindowSystem.from_pairs([(0.5, g), (0.5, hermite_system(L, 2)[1])])
    op = build_locop(gen_symbol(SymbolSpec("star", L, {}, (-1.0, 1.0))), ws)
    return g, op


class TestRecoverDispatch:
    @pytest.mark.parametrize("L,kind", [(64, "circle"), (65, "star"),
                                        (64, "tiles")])
    def test_full_terms_match_spectrum_path_without_eigh(
            self, L, kind, eigh_calls):
        g, ws, _, op = gauss_setup(L, symbol=gen_symbol(
            SymbolSpec(kind, L, {}, (-1.0, 1.0))))
        spec = eigendecompose(op)
        expected = {"was": was_recover(spec, ws, L),
                    "wawd": wawd_recover(spec, L)}
        for method, want in expected.items():
            for terms in (None, L):
                got = recover(method, op, g, terms=terms)
                assert got.method == method
                assert got.meta == want.meta
                assert got.meta["eig_tail_mass"] == 0.0
                assert np.max(np.abs(got.estimate - want.estimate)) < 1e-13
        assert eigh_calls == []

    def test_truncation_is_the_spectrum_path_bit_for_bit(self):
        L = 48
        g, ws, _, op = gauss_setup(L, seed=32)
        spec = eigendecompose(op)
        for terms in (1, 12, L - 1):
            was = recover("was", op, g, terms=terms)
            wawd = recover("wawd", op, g, terms=terms)
            np.testing.assert_array_equal(
                was.estimate, was_recover(spec, ws, terms).estimate)
            np.testing.assert_array_equal(
                wawd.estimate, wawd_recover(spec, terms).estimate)
            assert was.meta == was_recover(spec, ws, terms).meta

    def test_a_passed_spectrum_is_reused_with_the_same_bits(self, eigh_calls):
        L = 48
        g, _, _, op = gauss_setup(L, seed=32)
        spec = eigendecompose(op)
        for method in ("was", "wawd"):
            np.testing.assert_array_equal(
                recover(method, op, g, terms=12, spectrum=spec).estimate,
                recover(method, op, g, terms=12).estimate)
        assert len(eigh_calls) == 3  # the shared spectrum's, then one each

    @pytest.mark.parametrize("method", ["was", "wawd"])
    def test_truncation_through_cluster_raises(self, method):
        g, op = star_two_windows(64)
        with pytest.raises(NumericalError, match="cluster"):
            recover(method, op, g, terms=8)

    @pytest.mark.parametrize("method", ["was", "wawd"])
    @pytest.mark.parametrize("terms", [None, 8])
    def test_non_hermitian_operator_raises(self, method, terms):
        g = make_gaussian_window(32)
        matrix = np.eye(32, dtype=complex)
        matrix[3, 4] = 1e-3
        with pytest.raises(NotSelfAdjointError):
            recover(method, LocOperator(matrix), g, terms=terms)

    def test_apply_only_methods_are_their_estimators(self):
        L = 32
        g, _, _, op = gauss_setup(L, seed=33)
        hermite = hermite_system(L, 6, (16, 16))
        region = [(1, 2), (5, 7)]
        pairs = [
            (recover("wn", op, g, draws=9, noise_var=0.5, seed=4),
             wn_recover(op, g, 9, 0.5, 4)),
            (recover("pt", op, g), pt_recover(op, standard_basis(L), g)),
            (recover("pt", op, g, basis=hermite), pt_recover(op, hermite, g)),
            (recover("gp", op, g), gp_recover(op, g)),
            (recover("gp", op, g, region=region), gp_recover(op, g, region)),
        ]
        for got, want in pairs:
            assert got.method == want.method
            np.testing.assert_array_equal(got.estimate, want.estimate)

    def test_rejects_unknown_method(self):
        g, _, _, op = gauss_setup(16, seed=34)
        with pytest.raises(ValidationError, match="unknown method"):
            recover("nope", op, g)

    def test_every_roster_name_dispatches(self):
        g, _, _, op = gauss_setup(16, seed=35)
        for method in locsym.recovery.METHODS:
            result = recover(method, op, g, draws=3)
            assert result.method == method
            assert result.estimate.shape == (16, 16)


class TestSpectrumOnDemand:
    @pytest.mark.parametrize("L", [64, 65])
    def test_full_rank_estimators_run_no_eigh(self, L, eigh_calls):
        g, ws, _, op = gauss_setup(L, seed=35)
        was_recover(eigendecompose(op), ws, L)
        wawd_recover(eigendecompose(op), L)
        assert eigh_calls == []

    def test_truncation_and_wn_limit_keep_eager_bits(self):
        L = 48
        g, ws, _, op = gauss_setup(L, seed=36)
        lam, vec = np.linalg.eigh((op.matrix + op.matrix.conj().T) / 2)
        order = np.lexsort((-lam, -np.abs(lam)))
        lam, vec = lam[order], vec.T[order]
        spec = eigendecompose(op)
        for terms in (1, 12, L - 1):
            truncated = (vec[:terms].T * lam[:terms]) @ vec[:terms].conj()
            np.testing.assert_array_equal(
                was_recover(spec, ws, terms).estimate,
                hermitian_symbol(truncated, g))
        limit = np.maximum(
            hermitian_symbol((vec.T * (lam * lam)) @ vec.conj(), g), 0.0)
        np.testing.assert_array_equal(wn_limit(spec, g), limit)

    @pytest.mark.parametrize("method", ["was", "wawd"])
    @pytest.mark.parametrize("read_first", [False, True])
    def test_full_rank_estimate_ignores_earlier_reads(self, method,
                                                      read_first):
        L = 33
        g, ws, _, op = gauss_setup(L, seed=37)
        spec = eigendecompose(op)
        if read_first:
            spec.eigenvectors
        got = (was_recover(spec, ws, L) if method == "was"
               else wawd_recover(spec, L))
        want = recover(method, op, g)
        np.testing.assert_array_equal(got.estimate, want.estimate)
        assert got.meta == want.meta


class TestAccumulatedSpectrogram:
    def test_unit_symbol_full_sum_is_one(self):
        g, ws, _, op = gauss_setup(64, symbol=np.ones((64, 64)))
        res = was_recover(eigendecompose(op), ws, 64)
        assert np.max(np.abs(res.estimate - 1.0)) < 1e-8

    @pytest.mark.parametrize("L", [32, 33])
    def test_window_system_is_the_weighted_per_window_sum(self, L):
        g, _, _, op = gauss_setup(L, seed=38)
        h = hermite_system(L, 3)[2]
        system = WindowSystem.from_pairs([(0.35, g), (0.65, h)])
        spec = eigendecompose(op)
        for terms in (L // 4, L):
            per_window = sum(
                w * was_recover(spec, WindowSystem.single(tau), terms).estimate
                for w, tau in system)
            np.testing.assert_allclose(
                was_recover(spec, system, terms).estimate, per_window,
                rtol=0, atol=1e-14)

    def test_full_sum_matches_gabor_projection(self):
        g, ws, _, op = gauss_setup(64, seed=7)
        was = was_recover(eigendecompose(op), ws, 64).estimate
        gp = gp_recover(op, g).estimate
        assert np.max(np.abs(was - gp)) < 1e-8

    def test_partial_sum_tail_bound(self):
        L = 64
        g, ws, _, op = gauss_setup(L, symbol=gen_symbol(
            SymbolSpec("circle", L, {"radius": 16})))
        spec = eigendecompose(op)
        full = was_recover(spec, ws, L).estimate
        for terms in (8, 24, 48):
            partial = was_recover(spec, ws, terms).estimate
            lhs = np.sum(np.abs(partial - full)) / L
            tail = np.sum(np.abs(spec.eigenvalues[terms:]))
            assert lhs <= tail + 1e-10

    @pytest.mark.parametrize("L", [64, 255])
    def test_cut_through_eigenvalue_cluster_raises(self, L):
        # star on [-1, 1] with gauss + hermite:1 has a run of eigenvalues
        # near -1 under 1e-8 apart, and N = L/8 cuts through it
        g = make_gaussian_window(L)
        ws = WindowSystem.from_pairs([(0.5, g), (0.5, hermite_system(L, 2)[1])])
        spec = eigendecompose(build_locop(
            gen_symbol(SymbolSpec("star", L, {}, (-1.0, 1.0))), ws))
        with pytest.raises(NumericalError, match="cluster"):
            was_recover(spec, WindowSystem.single(g), L // 8)
        with pytest.raises(NumericalError, match="cluster"):
            wawd_recover(spec, L // 8)

    def test_tail_mass_in_meta(self):
        g, ws, _, op = gauss_setup(32, seed=8)
        spec = eigendecompose(op)
        res = was_recover(spec, ws, 10)
        assert res.meta["eig_tail_mass"] == pytest.approx(
            np.sum(np.abs(spec.eigenvalues[10:])))

    def test_rejects_bad_term_count(self):
        g, ws, _, op = gauss_setup(32, seed=9)
        spec = eigendecompose(op)
        for terms in (0, 33):
            with pytest.raises(ValidationError):
                was_recover(spec, ws, terms)


class TestAccumulatedWigner:
    def test_zero_operator(self):
        g, _, _, op = gauss_setup(33, symbol=np.zeros((33, 33)))
        res = wawd_recover(eigendecompose(op), 33)
        np.testing.assert_allclose(res.estimate, 0.0, rtol=0, atol=1e-10)

    def test_full_sum_is_symbol_blurred_by_window_wigner(self):
        L = 65
        g, _, f, op = gauss_setup(L, seed=10)
        est = wawd_recover(eigendecompose(op), L).estimate
        oracle = circ_conv2(f, wigner(g)) / L
        assert np.max(np.abs(est - oracle)) < 1e-8

    def test_mixed_state_blurs_by_weighted_wigner_sum(self):
        L = 65
        g = make_gaussian_window(L)
        h = hermite_system(L, 2)[1]
        ws = WindowSystem.from_pairs([(0.5, g), (0.5, h)])
        f = np.random.default_rng(11).standard_normal((L, L))
        est = wawd_recover(eigendecompose(build_locop(f, ws)), L).estimate
        oracle = circ_conv2(f, 0.5 * wigner(g) + 0.5 * wigner(h)) / L
        assert np.max(np.abs(est - oracle)) < 1e-8

    def test_even_length_flagged(self):
        g, _, _, op = gauss_setup(32, seed=12)
        res = wawd_recover(eigendecompose(op), 32)
        assert res.meta["even_length_artifacts"] is True


class TestPlaneTiling:
    def test_zero_operator(self):
        g, _, _, op = gauss_setup(32, symbol=np.zeros((32, 32)))
        res = pt_recover(op, standard_basis(32), g)
        np.testing.assert_allclose(res.estimate, 0.0, rtol=0, atol=1e-12)

    def test_basis_independence(self):
        g, _, _, op = gauss_setup(64, seed=13)
        est_std = pt_recover(op, standard_basis(64), g).estimate
        est_dft = pt_recover(op, dft_basis(64), g).estimate
        est_herm = pt_recover(op, hermite_system(64, 64), g).estimate
        assert np.max(np.abs(est_std - est_dft)) < 1e-8
        assert np.max(np.abs(est_std - est_herm)) < 1e-8
        # squared-symbol target is non-negative by construction
        assert est_std.min() >= -1e-9

    def test_partial_hermite_family_near_its_center(self):
        # a 40-term family centered on the bump captures the local value
        L = 64
        z0 = (32, 32)
        g = make_gaussian_window(L)
        ws = WindowSystem.single(g)
        f = gen_symbol(SymbolSpec("gaussians", L,
                                  {"bumps": [(32.0, 32.0, 6.4, 1.0)]}))
        op = build_locop(f, ws)
        full = wn_limit(eigendecompose(op), g)
        partial = pt_recover(op, hermite_system(L, 40, z0), g).estimate
        assert abs(partial[z0] - full[z0]) <= 0.10 * abs(full[z0])

    @pytest.mark.parametrize("family", ["standard", "dft", "hermite:20"])
    def test_matches_the_image_route(self, family):
        # B = A E^T; only a complete family may take the shortcut B B* = A A*
        L = 48
        g, _, _, op = gauss_setup(L, seed=38)
        basis = {"standard": standard_basis(L), "dft": dft_basis(L),
                 "hermite:20": hermite_system(L, 20, (24, 24))}[family]
        images = op.matrix @ basis.T
        route = np.maximum(hermitian_symbol(images @ images.conj().T, g), 0.0)
        est = pt_recover(op, basis, g).estimate
        assert np.max(np.abs(est - route)) < 1e-12
        if len(basis) == L:
            energy = L * np.sum(np.abs(op.matrix) ** 2)
            assert abs(est.sum() - energy) < 1e-10 * energy

    def test_none_is_any_complete_basis_bit_for_bit(self):
        L = 32
        g, _, _, op = gauss_setup(L, seed=39)
        res = pt_recover(op, None, g)
        assert res.meta["basis_size"] == L
        for got in (recover("pt", op, g), pt_recover(op, standard_basis(L), g),
                    pt_recover(op, dft_basis(L), g)):
            np.testing.assert_array_equal(got.estimate, res.estimate)

    def test_rejects_non_orthonormal_family(self):
        g, _, _, op = gauss_setup(32, seed=14)
        bad = np.stack([g, g])
        with pytest.raises(ValidationError):
            pt_recover(op, bad, g)


class TestGaborProjection:
    def test_constant_symbol_recovered_exactly(self):
        g, ws, _, op = gauss_setup(64, symbol=0.7 * np.ones((64, 64)))
        est = gp_recover(op, g).estimate
        assert np.max(np.abs(est - 0.7)) < 1e-10

    def test_equals_blur_oracle(self):
        L = 64
        g, ws, f, op = gauss_setup(L, seed=15)
        est = gp_recover(op, g).estimate
        kernel = impulse_kernel(ws, g)
        assert np.max(np.abs(est - circ_conv2(f, kernel))) < 1e-10

    @pytest.mark.parametrize("L", [64, 65])
    def test_is_the_hermitian_symbol_of_a_bit_for_bit(self, L):
        g, _, _, op = gauss_setup(L, seed=17)
        np.testing.assert_array_equal(gp_recover(op, g).estimate,
                                      hermitian_symbol(op.matrix, g))

    def test_matches_literal_pointwise_form(self):
        L = 16
        g, _, _, op = gauss_setup(L, seed=16)
        est = gp_recover(op, g).estimate
        for n, m in ((0, 0), (3, 11), (9, 2), (15, 15)):
            v = tf_shift(g, (n, m))
            assert abs(est[n, m] - (v.conj() @ (op.matrix @ v)).real) < 1e-12

    def test_region_restriction_uses_nan_sentinel(self):
        L = 32
        g, _, _, op = gauss_setup(L, seed=17)
        region = [(4, 5), (6, 7), (31, 0)]
        est = gp_recover(op, g, region).estimate
        full = gp_recover(op, g).estimate
        mask = np.isfinite(est)
        assert mask.sum() == len(region)
        for n, m in region:
            assert abs(est[n, m] - full[n, m]) < 1e-12

    def test_linear_response_to_perturbation(self):
        L = 32
        g, ws, f, op = gauss_setup(L, seed=18)
        _, _, fb, opb = gauss_setup(L, seed=19)
        eps = 1e-3
        bumped = build_locop(f + eps * fb, ws)
        delta = gp_recover(bumped, g).estimate - gp_recover(op, g).estimate
        np.testing.assert_allclose(delta, eps * gp_recover(opb, g).estimate,
                                   rtol=0, atol=1e-12)

    def test_sign_preserved_away_from_boundary(self):
        L = 64
        g = make_gaussian_window(L)
        f = np.where(np.arange(L)[:, None] < L // 2, 1.0, -1.0) * np.ones((1, L))
        op = build_locop(f, WindowSystem.single(g))
        est = gp_recover(op, g).estimate
        n = np.arange(L)
        dist = np.minimum.reduce([np.abs(n - (L // 2 - 0.5)),
                                  np.abs(n - (L - 0.5)), np.abs(n + 0.5)])
        interior = dist >= 8
        match = np.sign(est[interior, :]) == np.sign(f[interior, :])
        assert np.mean(match) >= 0.95


class TestImpulseKernel:
    def test_analytic_kernel_has_unit_mass(self):
        L = 64
        g = make_gaussian_window(L)
        ws = WindowSystem.single(g)
        kernel = impulse_kernel(ws, g)
        assert abs(kernel.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("L", [32, 33, 64, 65])
    def test_analytic_kernel_is_the_literal_spectrogram_sum(self, L):
        # the unclipped symbol dips to about -1e-18 at these L
        g = make_gaussian_window(L)
        ws = WindowSystem.from_pairs([(0.5, g), (0.5, hermite_system(L, 2)[1])])
        kernel = impulse_kernel(ws, g)
        literal = sum(w * np.abs(dgt(tau, g)) ** 2 for w, tau in ws) / L
        np.testing.assert_allclose(kernel, literal, rtol=0, atol=1e-15)
        assert kernel.min() >= 0.0

    def test_analytic_kernel_peaks_at_origin(self):
        L = 64
        g = make_gaussian_window(L)
        kernel = impulse_kernel(WindowSystem.single(g), g)
        assert np.unravel_index(np.argmax(kernel), kernel.shape) == (0, 0)

    def test_measured_gp_matches_analytic(self):
        L = 48
        g = make_gaussian_window(L)
        ws = WindowSystem.single(g)
        analytic = impulse_kernel(ws, g)
        measured = impulse_kernel(ws, g, mode="measured", estimator="gp")
        assert np.max(np.abs(measured - analytic)) < 1e-9

    def test_measured_was_matches_analytic(self):
        L = 32
        g = make_gaussian_window(L)
        ws = WindowSystem.single(g)
        analytic = impulse_kernel(ws, g)
        measured = impulse_kernel(ws, g, mode="measured", estimator="was")
        assert np.max(np.abs(measured - analytic)) < 1e-9

    def test_measured_was_skips_eigendecompose(self, eigh_calls):
        L = 32
        g = make_gaussian_window(L)
        ws = WindowSystem.single(g)
        measured = impulse_kernel(ws, g, mode="measured", estimator="was")
        assert np.max(np.abs(measured - impulse_kernel(ws, g))) < 1e-9
        assert eigh_calls == []

    def test_mixed_state_kernel_is_weighted_sum(self):
        L = 32
        g = make_gaussian_window(L)
        h = hermite_system(L, 2)[1]
        ws = WindowSystem.from_pairs([(0.3, g), (0.7, h)])
        lhs = impulse_kernel(ws, g)
        rhs = (0.3 * impulse_kernel(WindowSystem.single(g), g)
               + 0.7 * impulse_kernel(WindowSystem.single(h), g))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


class TestPsdClip:
    # wn, pt and wn_limit are lower symbols of PSD matrices, clipped at zero;
    # gp, was and wawd are signed and pass their negatives through
    @pytest.mark.parametrize("kind", ["circle", "star", "tiles"])
    def test_clip_is_roundoff(self, kind):
        L = 64
        g, ws, f, op = gauss_setup(L, symbol=gen_symbol(SymbolSpec(kind, L)))
        for res in (pt_recover(op, standard_basis(L), g),
                    wn_recover(op, g, 16, 1.0, 0)):
            assert res.estimate.min() >= 0.0
            assert res.meta["psd_clip"] <= 1e-12 * res.estimate.max()
        assert wn_limit(eigendecompose(op), g).min() >= 0.0

    def test_signed_symbols_are_not_clipped(self):
        L = 33
        g, ws, f, op = gauss_setup(L, seed=23)
        spec = eigendecompose(op)
        for est in (gp_recover(op, g).estimate,
                    was_recover(spec, ws, L).estimate,
                    wawd_recover(spec, L).estimate):
            assert est.min() < -0.1


class TestDeconvolve:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(20)
        est = rng.standard_normal((32, 32))
        delta = np.zeros((32, 32))
        delta[0, 0] = 1.0
        out = deconvolve(est, delta, 1e-9)
        assert np.max(np.abs(out - est)) < 1e-12

    def test_recovers_through_zero_free_kernel(self):
        L = 64
        rng = np.random.default_rng(21)
        f = rng.standard_normal((L, L))
        r = torus_distance_grid(L)
        kernel = np.exp(-r ** 2 / 2.0)
        kernel /= kernel.sum()
        out = deconvolve(circ_conv2(f, kernel), kernel, 1e-9)
        assert np.max(np.abs(out - f)) < 1e-6

    def test_large_eps_is_band_limited_projection(self):
        L = 64
        rng = np.random.default_rng(22)
        f = rng.standard_normal((L, L))
        r = torus_distance_grid(L)
        kernel = np.exp(-r ** 2 / 18.0)
        kernel /= kernel.sum()
        est = circ_conv2(f, kernel)
        sharp = deconvolve(est, kernel, 1e-9)
        soft = deconvolve(est, kernel, 0.5)
        spec = np.abs(np.fft.fft2(kernel))
        keep = spec > 0.5 * spec.max()
        projected = np.fft.ifft2(np.where(keep, np.fft.fft2(sharp), 0)).real
        assert np.max(np.abs(soft - projected)) < 1e-10

    def test_rejects_zero_kernel(self):
        with pytest.raises(DegenerateKernelError):
            deconvolve(np.ones((8, 8)), np.zeros((8, 8)), 0.5)

    def test_rejects_eps_out_of_range(self):
        delta = np.zeros((8, 8))
        delta[0, 0] = 1.0
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValidationError):
                deconvolve(np.ones((8, 8)), delta, eps)
