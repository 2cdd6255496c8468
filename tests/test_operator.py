"""Localization operator assembly, application and spectral decomposition."""

import numpy as np
import pytest

from locsym import (LocOperator, NotSelfAdjointError, Spectrum,
                    ValidationError, WindowSystem, apply, build_locop, dgt,
                    dgt_adjoint, eigendecompose, hermite_system, load_locop,
                    make_gaussian_window, save_locop, tf_shift)
from locsym.operator import hermitian_part


@pytest.fixture
def gauss64():
    g = make_gaussian_window(64)
    return g, WindowSystem.single(g)


def random_signal(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


class TestBuild:
    def test_unit_symbol_gives_identity(self, gauss64):
        _, ws = gauss64
        op = build_locop(np.ones((64, 64)), ws)
        assert np.max(np.abs(op.matrix - np.eye(64))) < 1e-10

    def test_point_symbol_gives_rank_one_projector(self, gauss64):
        g, ws = gauss64
        f = np.zeros((64, 64))
        f[3, 5] = 1.0
        op = build_locop(f, ws)
        p = tf_shift(g, (3, 5))
        np.testing.assert_allclose(op.matrix, np.outer(p, p.conj()) / 64,
                                   rtol=0, atol=1e-12)

    def test_trace_equals_symbol_mean(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(0).standard_normal((64, 64))
        op = build_locop(f, ws)
        assert abs(np.trace(op.matrix) - f.sum() / 64) < 1e-9

    def test_hermitian_for_real_symbol(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(1).standard_normal((64, 64))
        m = build_locop(f, ws).matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_linearity_in_symbol(self, gauss64):
        _, ws = gauss64
        rng = np.random.default_rng(2)
        f1, f2 = rng.standard_normal((2, 64, 64))
        a, b = 0.3, -1.7
        lhs = build_locop(a * f1 + b * f2, ws).matrix
        rhs = a * build_locop(f1, ws).matrix + b * build_locop(f2, ws).matrix
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_mixed_state_is_weighted_sum(self):
        L = 32
        g1 = make_gaussian_window(L)
        g2 = hermite_system(L, 2)[1]
        f = np.random.default_rng(3).standard_normal((L, L))
        mixed = build_locop(f, WindowSystem.from_pairs([(0.25, g1), (0.75, g2)]))
        a = build_locop(f, WindowSystem.single(g1)).matrix
        b = build_locop(f, WindowSystem.single(g2)).matrix
        np.testing.assert_array_equal(mixed.matrix, 0.25 * a + 0.75 * b)

    def test_rejects_non_finite_symbol(self, gauss64):
        _, ws = gauss64
        f = np.ones((64, 64))
        f[0, 0] = np.nan
        with pytest.raises(ValidationError):
            build_locop(f, ws)

    def test_rejects_size_mismatch(self, gauss64):
        _, ws = gauss64
        with pytest.raises(ValidationError):
            build_locop(np.ones((32, 32)), ws)


class TestOperatorMatrix:
    @pytest.mark.parametrize("matrix", [np.ones((8, 6)), np.ones(8),
                                        np.ones((2, 2, 2)), np.ones(())],
                             ids=["8x6", "1-d", "3-d", "0-d"])
    def test_rejects_non_square(self, matrix):
        with pytest.raises(ValidationError, match="square"):
            LocOperator(matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        matrix = np.eye(8, dtype=complex)
        matrix[2, 5] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            LocOperator(matrix)
        with pytest.raises(ValidationError):
            LocOperator(np.full((8, 8), np.nan))

    def test_dump_error_names_the_path(self, tmp_path):
        path = tmp_path / "op.bin"
        save_locop(LocOperator(np.eye(8, dtype=complex)), path)
        blob = bytearray(path.read_bytes())
        blob[16:24] = np.array(np.nan, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="op.bin: operator has non-finite"):
            load_locop(path)


class TestApply:
    def test_identity_operator(self, gauss64):
        _, ws = gauss64
        op = build_locop(np.ones((64, 64)), ws)
        psi = random_signal(np.random.default_rng(4), 64)
        assert np.max(np.abs(apply(op, psi) - psi)) < 1e-10

    def test_eigen_relation(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(5).standard_normal((64, 64))
        op = build_locop(f, ws)
        spec = eigendecompose(op)
        for i in (0, 10, 40):
            lhs = apply(op, spec.eigenvectors[i])
            rhs = spec.eigenvalues[i] * spec.eigenvectors[i]
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_agrees_with_unassembled_pipeline(self, gauss64):
        # independent route: analysis, symbol multiply, synthesis
        g, ws = gauss64
        rng = np.random.default_rng(6)
        f = rng.standard_normal((64, 64))
        op = build_locop(f, ws)
        psi = random_signal(rng, 64)
        direct = apply(op, psi)
        pipeline = dgt_adjoint(f * dgt(psi, g), g)
        assert np.max(np.abs(direct - pipeline)) < 1e-10


class TestSpectrum:
    def test_unit_symbol_all_ones(self, gauss64):
        _, ws = gauss64
        spec = eigendecompose(build_locop(np.ones((64, 64)), ws))
        np.testing.assert_allclose(spec.eigenvalues, 1.0, rtol=0, atol=1e-9)

    def test_half_symbol_scales_eigenvalues(self, gauss64):
        _, ws = gauss64
        spec = eigendecompose(build_locop(0.5 * np.ones((64, 64)), ws))
        np.testing.assert_allclose(spec.eigenvalues, 0.5, rtol=0, atol=1e-9)

    def test_eigenvalue_sum_is_trace(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(7).standard_normal((64, 64))
        spec = eigendecompose(build_locop(f, ws))
        assert abs(spec.eigenvalues.sum() - f.sum() / 64) < 1e-8

    def test_orthonormal_eigenvectors_and_reconstruction(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(8).standard_normal((64, 64))
        op = build_locop(f, ws)
        spec = eigendecompose(op)
        v = spec.eigenvectors
        assert np.max(np.abs(v @ v.conj().T - np.eye(64))) < 1e-9
        recon = (v.T * spec.eigenvalues) @ v.conj()
        assert np.linalg.norm(recon - op.matrix) < 1e-9

    def test_ordering_descending_absolute_value(self, gauss64):
        _, ws = gauss64
        f = np.where(np.arange(64)[:, None] < 32, 1.0, -1.0) * np.ones((1, 64))
        spec = eigendecompose(build_locop(f, ws))
        assert np.all(np.diff(np.abs(spec.eigenvalues)) <= 0)
        # operator norm bounded by the symbol sup, signed case included
        assert np.abs(spec.eigenvalues).max() <= np.abs(f).max() + 1e-10

    def test_deterministic(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(9).standard_normal((64, 64))
        op = build_locop(f, ws)
        s1, s2 = eigendecompose(op), eigendecompose(op)
        np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
        np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_positivity_for_non_negative_symbol(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(10).uniform(0, 1, (64, 64))
        spec = eigendecompose(build_locop(f, ws))
        assert spec.eigenvalues.min() >= -1e-10
        # operator norm bounded by the symbol sup
        assert spec.eigenvalues[0] <= f.max() + 1e-10

    def test_rejects_complex_symbol(self, gauss64):
        _, ws = gauss64
        f = np.random.default_rng(11).standard_normal((64, 64)) * (1 + 0.5j)
        op = build_locop(f, ws)
        with pytest.raises(NotSelfAdjointError):
            eigendecompose(op)


class TestLazySpectrum:
    def op(self, gauss64, seed=20):
        _, ws = gauss64
        f = np.random.default_rng(seed).standard_normal((64, 64))
        return build_locop(f, ws)

    def test_size_and_matrix_read_no_eigenpair(self, gauss64, eigh_calls):
        op = self.op(gauss64)
        spec = eigendecompose(op)
        assert spec.size == 64
        np.testing.assert_array_equal(spec.matrix, hermitian_part(op))
        assert eigh_calls == []

    def test_eigenpairs_run_eigh_once(self, gauss64, eigh_calls):
        spec = eigendecompose(self.op(gauss64))
        lam = spec.eigenvalues
        vec = spec.eigenvectors
        assert spec.eigenvalues is lam and spec.eigenvectors is vec
        assert len(eigh_calls) == 1

    def test_eigenpairs_are_eager_eigh_sorted(self, gauss64):
        op = self.op(gauss64, seed=21)
        lam, vec = np.linalg.eigh((op.matrix + op.matrix.conj().T) / 2)
        order = np.lexsort((-lam, -np.abs(lam)))
        spec = eigendecompose(op)
        np.testing.assert_array_equal(spec.eigenvalues, lam[order])
        np.testing.assert_array_equal(spec.eigenvectors, vec.T[order])

    def test_built_from_eigenpairs(self, gauss64, eigh_calls):
        full = eigendecompose(self.op(gauss64, seed=22))
        lam, vec = -full.eigenvalues, full.eigenvectors
        spec = Spectrum(lam, vec)
        assert spec.size == 64
        assert spec.eigenvalues is lam and spec.eigenvectors is vec
        np.testing.assert_array_equal(spec.matrix, (vec.T * lam) @ vec.conj())
        assert len(eigh_calls) == 1

    def test_non_hermitian_raises_before_eigh(self, gauss64, eigh_calls):
        matrix = np.eye(64, dtype=complex)
        matrix[3, 4] = 1e-3
        with pytest.raises(NotSelfAdjointError):
            eigendecompose(LocOperator(matrix))
        assert eigh_calls == []

    def test_eigh_failure_surfaces_on_first_read(self, gauss64, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        spec = eigendecompose(self.op(gauss64))
        with pytest.raises(np.linalg.LinAlgError):
            spec.eigenvalues


class TestDump:
    def test_round_trip_bit_exact(self, gauss64, tmp_path):
        _, ws = gauss64
        f = np.random.default_rng(12).standard_normal((64, 64))
        op = build_locop(f, ws)
        path = tmp_path / "op.bin"
        save_locop(op, path)
        loaded = load_locop(path)
        assert loaded.size == 64
        np.testing.assert_array_equal(loaded.matrix, op.matrix)

    def test_header_is_sixteen_bytes(self, gauss64, tmp_path):
        _, ws = gauss64
        op = build_locop(np.ones((64, 64)), ws)
        path = tmp_path / "op.bin"
        save_locop(op, path)
        blob = path.read_bytes()
        assert blob[:6] == b"LOCOP1"
        assert len(blob) == 16 + 64 * 64 * 16

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an operator dump")
        with pytest.raises(ValidationError):
            load_locop(path)

    def test_rejects_size_disagreeing_with_header(self, gauss64, tmp_path):
        _, ws = gauss64
        path = tmp_path / "op.bin"
        save_locop(build_locop(np.ones((64, 64)), ws), path)
        blob = path.read_bytes()
        for damaged in (blob[:-16], blob + b"\x00" * 16):
            path.write_bytes(damaged)
            with pytest.raises(ValidationError):
                load_locop(path)

    def test_rejects_non_finite_entries(self, gauss64, tmp_path):
        _, ws = gauss64
        path = tmp_path / "op.bin"
        save_locop(build_locop(np.ones((64, 64)), ws), path)
        blob = bytearray(path.read_bytes())
        offset = 16 + 16 * (5 * 64 + 7)  # real part of entry [5, 7]
        blob[offset:offset + 8] = np.array(np.inf, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError):
            load_locop(path)
