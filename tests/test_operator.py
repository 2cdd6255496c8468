"""Localization operator assembly, application and spectral decomposition."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locsym.operator
from locsym import (LocOperator, NotSelfAdjointError, Spectrum, SymbolSpec,
                    ValidationError, WindowSystem, apply, build_locop, dgt,
                    dgt_adjoint, eigendecompose, gen_symbol, hermite_system,
                    load_locop, make_gaussian_window, save_locop, tf_shift)
from locsym.core import MAX_LENGTH
from locsym.gabor import _hermitian_matrix
from locsym.operator import HERMITIAN_REJECT_TOL, hermitian_part


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

    def test_rejects_a_length_below_four(self):
        # LocOperator and load_locop refuse L = 3, so a dump of it could
        # never be read back
        windows = WindowSystem.single(np.ones(3) / np.sqrt(3))
        with pytest.raises(ValidationError, match="symbol size must be"):
            build_locop(np.ones((3, 3)), windows)

    def test_rejects_a_length_above_max_before_allocating(self, gauss64):
        import tracemalloc

        symbol = np.broadcast_to(0.0, (MAX_LENGTH + 1,) * 2)  # no data
        assert not symbol.flags.writeable
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"4..{MAX_LENGTH}"):
                build_locop(symbol, gauss64[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an isfinite mask of this symbol would take 16 MiB
        assert peak < 2 ** 16


class TestOperatorMatrix:
    @pytest.mark.parametrize("matrix", [np.ones((8, 6)), np.ones(8),
                                        np.ones((2, 2, 2)), np.ones(())],
                             ids=["8x6", "1-d", "3-d", "0-d"])
    def test_rejects_non_square(self, matrix):
        with pytest.raises(ValidationError, match="square"):
            LocOperator(matrix)
        # build_locop checks its symbol the same way, windows aside
        with pytest.raises(ValidationError, match="symbol must be a square"):
            build_locop(matrix, WindowSystem.single(make_gaussian_window(8)))

    # the main diagonal's imaginary part is checked too, though its rows
    # keep only the real part
    @pytest.mark.parametrize("entry, bad", [
        ((2, 5), np.nan), ((2, 5), np.inf), ((2, 5), complex(0.0, -np.inf)),
        ((2, 2), complex(1.0, np.nan)), ((2, 2), complex(1.0, -np.inf))],
        ids=["nan", "inf", "-infj", "diagonal-nanj", "diagonal--infj"])
    def test_rejects_non_finite(self, entry, bad):
        matrix = np.eye(8, dtype=complex)
        matrix[entry] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            LocOperator(matrix)
        with pytest.raises(ValidationError):
            LocOperator(np.full((8, 8), np.nan))

    def test_dump_error_names_the_path(self, tmp_path):
        path = tmp_path / "op.bin"
        save_locop(LocOperator(np.eye(8, dtype=complex)), path)
        for word in (16, 24):  # a NaN real, then imaginary, part of [0, 0]
            blob = bytearray(path.read_bytes())
            blob[word:word + 8] = np.array(np.nan, dtype="<f8").tobytes()
            bad = tmp_path / f"bad{word}.bin"
            bad.write_bytes(bytes(blob))
            with pytest.raises(ValidationError,
                               match=f"bad{word}.bin: operator has non-finite"):
                load_locop(bad)


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

    def test_rejects_a_signal_of_another_length(self, gauss64):
        op = build_locop(np.ones((64, 64)), gauss64[1])
        with pytest.raises(ValidationError,
                           match="signal length 32 != operator size 64"):
            apply(op, np.ones(32))


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

    @pytest.mark.parametrize("L", [65, 255])
    def test_zero_holding_operator_keeps_the_dense_eigh_bytes(self, L):
        # the tiles operator holds exact zeros whose signs differ between
        # the scattered rows and the dense (A + A*) / 2; eigh reads neither
        f = gen_symbol(SymbolSpec("tiles", L, {}, (0.0, 1.0)))
        op = build_locop(f, WindowSystem.single(make_gaussian_window(L)))
        dense = (op.matrix + op.matrix.conj().T) / 2
        assert np.any(np.signbit(dense.view(float))
                      != np.signbit(eigendecompose(op).matrix.view(float)))
        lam, vec = np.linalg.eigh(dense)
        order = np.lexsort((-lam, -np.abs(lam)))
        spec = eigendecompose(op)
        assert spec.eigenvalues.tobytes() == lam[order].tobytes()
        assert spec.eigenvectors.tobytes() == vec.T[order].tobytes()

    @pytest.mark.parametrize("case", ["nan-value", "inf-vector", "2-d-values",
                                      "vectors-N-by-N+1", "N-3", "ascending"])
    def test_rejects_malformed_eigenpairs(self, case):
        lam, vec = np.linspace(1.0, 0.1, 8), np.eye(8, dtype=complex)
        if case == "ascending":  # the truncation reads the leading |lambda|
            lam = lam[::-1]
        elif case == "nan-value":
            lam[3] = np.nan
        elif case == "inf-vector":
            vec[2, 5] = np.inf
        elif case == "2-d-values":
            lam = np.diag(lam)
        elif case == "vectors-N-by-N+1":
            vec = np.eye(8, 9, dtype=complex)
        else:
            lam, vec = lam[:3], vec[:3, :3]
        with pytest.raises(ValidationError):
            Spectrum(lam, vec)

    def test_built_from_eigenpairs(self, gauss64, eigh_calls):
        full = eigendecompose(self.op(gauss64, seed=22))
        lam, vec = -full.eigenvalues, full.eigenvectors
        spec = Spectrum(lam, vec)
        assert spec.size == 64
        assert spec.eigenvalues is lam and spec.eigenvectors is vec
        np.testing.assert_array_equal(spec.matrix, (vec.T * lam) @ vec.conj())
        assert len(eigh_calls) == 1

    @pytest.mark.parametrize("read", ["matrix", "eigenvalues"])
    def test_built_operator_defers_its_hermitian_part(self, gauss64,
                                                      eigh_calls, read,
                                                      monkeypatch, tmp_path):
        # a built operator and its loaded dump hold the same rows; neither
        # spectrum scatters them into a matrix or runs eigh before a read,
        # and the built one's matrix, which save_locop formed, is its
        # spectrum's, so reading either scatters nothing more
        scattered = []
        hermitian_matrix = locsym.operator._hermitian_matrix

        def counting(rows):
            scattered.append(rows.shape)
            return hermitian_matrix(rows)

        built = self.op(gauss64)
        save_locop(built, tmp_path / "op.bin")
        monkeypatch.setattr(locsym.operator, "_hermitian_matrix", counting)
        for op in (built, load_locop(tmp_path / "op.bin")):
            scattered.clear()
            eigh_calls.clear()
            spec = eigendecompose(op)
            assert spec.size == 64 and op.asymmetry == 0.0
            assert spec.rows.tobytes() == built.rows.tobytes()
            assert scattered == [] and eigh_calls == []
            getattr(spec, read)
            assert scattered == ([] if op is built else [(33, 64)])
            assert len(eigh_calls) == (read == "eigenvalues")
            assert spec.matrix is op.matrix
            assert spec.matrix.tobytes() == built.matrix.tobytes()
            for array in (op.rows, op.matrix, spec.rows):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1.0
            with pytest.raises(AttributeError):
                op.matrix = np.eye(64)
            with pytest.raises(AttributeError):
                del op.rows

    def test_an_operator_holds_one_read_only_spectrum(self, gauss64,
                                                      tmp_path):
        # one spectrum per operator, whose matrix is the operator's own;
        # no spectrum's matrix can be written into before eigh reads it,
        # nor the eigenpairs the operator keeps for later calls
        built = self.op(gauss64)
        save_locop(built, tmp_path / "op.bin")
        for op in (built, load_locop(tmp_path / "op.bin")):
            spec = eigendecompose(op)
            assert eigendecompose(op) is spec
            assert op.matrix is spec.matrix
        pairs = Spectrum(spec.eigenvalues, spec.eigenvectors)
        for array in (spec.matrix, pairs.matrix, spec.eigenvalues,
                      spec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0

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
        # magic, two zero bytes, L as a little-endian u32, four zero bytes
        assert blob[:16] == b"LOCOP1\0\0\x40\0\0\0\0\0\0\0"
        assert len(blob) == 16 + 64 * 64 * 16

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an operator dump")
        with pytest.raises(ValidationError):
            load_locop(path)
        # header-only dumps: L is checked before the size check or any read
        for length in (0, 3, MAX_LENGTH + 1):
            path.write_bytes(b"LOCOP1\0\0" + length.to_bytes(4, "little")
                             + bytes(4))
            with pytest.raises(ValidationError,
                               match=re.escape(f"{path}: operator size")):
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


class TestHalfLatticeRows:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 70), st.one_of(st.just(0.0), st.floats(1e-8, 1e-5)),
           st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
    def test_rows_and_asymmetry_of_any_matrix(self, L, skew, zeros, seed):
        # a Hermitian matrix bit for bit, plus a skew near the rejection
        # tolerance, with exact zeros of either sign on a symmetric mask
        rng = np.random.default_rng(seed)
        below = np.tril_indices(L, -1)
        vals = random_signal(rng, below[0].size)
        mask = rng.random(vals.size) < zeros
        vals[mask] = 0.0
        for part in (vals.real, vals.imag):
            part[mask] = np.copysign(0.0, rng.standard_normal(mask.sum()))
        h = np.zeros((L, L), dtype=complex)
        h[np.diag_indices(L)] = rng.standard_normal(L)
        h[below] = vals
        h.T[below] = vals.conj()
        m = h + skew * (rng.standard_normal((L, L))
                        + 1j * rng.standard_normal((L, L)))
        m[below] = np.where(mask, h[below], m[below])
        m.T[below] = np.where(mask, h.T[below], m.T[below])

        op = LocOperator(m)
        np.testing.assert_array_equal(_hermitian_matrix(op.rows),
                                      (m + m.conj().T) / 2)
        asymmetry = float(np.max(np.abs(m - m.conj().T)))
        assert op.asymmetry == asymmetry
        assert op.matrix.tobytes() == m.tobytes()
        if asymmetry > HERMITIAN_REJECT_TOL:
            with pytest.raises(NotSelfAdjointError):
                eigendecompose(op)
        else:
            np.testing.assert_array_equal(hermitian_part(op),
                                          (m + m.conj().T) / 2)
