"""Symbol generation and PGM/CSV round trips."""

import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locsym import (PgmError, SymbolSpec, ValidationError, gaussian_blur,
                    gen_symbol, load_csv, load_pgm, save_csv, save_pgm)


class TestGeneration:
    def test_deterministic(self):
        spec = SymbolSpec("star", 64)
        np.testing.assert_array_equal(gen_symbol(spec), gen_symbol(spec))

    @pytest.mark.parametrize("kind", ["circle", "star", "lines_circles", "tiles"])
    def test_binary_kinds_take_exact_endpoints(self, kind):
        f = gen_symbol(SymbolSpec(kind, 64, value_range=(-0.25, 0.75)))
        assert set(np.unique(f)) <= {-0.25, 0.75}
        assert len(np.unique(f)) == 2

    def test_zero_radius_circle_is_all_low(self):
        f = gen_symbol(SymbolSpec("circle", 32, {"radius": 0}))
        np.testing.assert_array_equal(f, np.zeros((32, 32)))

    def test_single_bump_peaks_at_one(self):
        f = gen_symbol(SymbolSpec("gaussians", 64,
                                  {"bumps": [(20.0, 40.0, 5.0, 1.0)]}))
        assert f.max() == 1.0
        assert f[20, 40] == 1.0

    def test_gaussians_respect_range(self):
        f = gen_symbol(SymbolSpec("gaussians", 64, value_range=(-0.5, 0.5)))
        assert f.min() >= -0.5 and f.max() <= 0.5
        assert len(np.unique(f)) > 2

    def test_blur_preserves_mass(self):
        base = gen_symbol(SymbolSpec("lines_circles", 64))
        blurred = gen_symbol(SymbolSpec("blurred_lines_circles", 64))
        assert abs(blurred.sum() - base.sum()) < 1e-8

    def test_gaussian_blur_of_constant(self):
        f = gaussian_blur(0.3 * np.ones((32, 32)), 2.0)
        np.testing.assert_allclose(f, 0.3, rtol=0, atol=1e-12)

    def test_tiles_checkerboard_structure(self):
        f = gen_symbol(SymbolSpec("tiles", 64, {"count": 4}))
        assert f[0, 0] == 1.0
        assert f[0, 16] == 0.0
        np.testing.assert_array_equal(f[:16, :16], np.ones((16, 16)))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            gen_symbol(SymbolSpec("pentagon", 32))

    def test_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            gen_symbol(SymbolSpec("circle", 32, value_range=(0.0, 1.5)))
        with pytest.raises(ValidationError):
            gen_symbol(SymbolSpec("circle", 32, value_range=(0.5, 0.5)))


class TestPgm:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        f = rng.uniform(0, 1, (48, 48))
        path = tmp_path / "map.pgm"
        save_pgm(f, path)
        back = load_pgm(path)
        assert np.max(np.abs(back - f)) <= 1.0 / 65535

    def test_round_trip_signed_range(self, tmp_path):
        rng = np.random.default_rng(1)
        f = rng.uniform(-1, 1, (32, 32))
        path = tmp_path / "map.pgm"
        save_pgm(f, path, (-1.0, 1.0))
        back = load_pgm(path, (-1.0, 1.0))
        assert np.max(np.abs(back - f)) <= 2.0 / 65535

    @pytest.mark.parametrize("value_range", [(0.0, math.inf),
                                             (-math.inf, 1.0),
                                             (math.nan, 1.0), (1.0, 1.0),
                                             (1.0, 0.0)])
    def test_save_rejects_a_non_finite_or_non_increasing_range(
            self, tmp_path, value_range):
        path = tmp_path / "map.pgm"
        with pytest.raises(ValidationError, match="finite and increasing"):
            save_pgm(np.zeros((4, 4)), path, value_range)
        assert not path.exists()

    def test_p2_parses_like_p5(self, tmp_path):
        grid = np.array([[0, 100], [200, 255]], dtype=np.int64)
        # hand-written 8-bit variants with a comment line
        p2 = tmp_path / "a.pgm"
        p2.write_bytes(b"P2\n# comment\n2 2\n255\n0 100\n200 255\n")
        p5 = tmp_path / "b.pgm"
        p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 100, 200, 255]))
        a = load_pgm(p2)
        np.testing.assert_array_equal(a, load_pgm(p5))
        np.testing.assert_allclose(a, grid / 255, rtol=0, atol=1e-12)

    def test_all_black_maps_to_low_end(self, tmp_path):
        path = tmp_path / "black.pgm"
        path.write_bytes(b"P2\n3 3\n65535\n" + b"0 " * 9)
        f = load_pgm(path, (-0.5, 0.5))
        np.testing.assert_array_equal(f, -0.5 * np.ones((3, 3)))

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "rect.pgm"
        path.write_bytes(b"P2\n3 2\n255\n0 0 0 0 0 0\n")
        with pytest.raises(PgmError):
            load_pgm(path)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(PgmError):
            load_pgm(path)
        path.write_bytes(b"P2\n2 two\n255\n0 0 0 0")
        with pytest.raises(PgmError):
            load_pgm(path)

    @pytest.mark.parametrize("data", [b"P2\n0 0\n255\n", b"P5\n0 0\n255\n"],
                             ids=["P2", "P5"])
    def test_rejects_empty_image(self, tmp_path, data):
        path = tmp_path / "empty.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmError):
            load_pgm(path)

    def test_rejects_oversized_maxval(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P2\n2 2\n70000\n0 0 0 0\n")
        with pytest.raises(PgmError):
            load_pgm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(PgmError):
            load_pgm(path)

    def test_nan_written_as_low_end(self, tmp_path):
        f = np.full((4, 4), 0.5)
        f[1, 2] = np.nan
        path = tmp_path / "nan.pgm"
        save_pgm(f, path)
        assert load_pgm(path)[1, 2] == 0.0


def savetxt_bytes(f):
    buf = io.BytesIO()
    np.savetxt(buf, f, fmt="%.17g", delimiter=",")
    return buf.getvalue()


# %g switch points (1e-5, 1e-4, 1e16, 1e17), 17th-digit boundaries (1e-14
# and 1e98 lie within 5e-18 below their power of ten), the ends of the
# float64 range and a product that is exactly a rounding tie
EDGES = [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 2.0 ** -60,
         9.9999999999999995e-5, 1e-14, 1e98, 1e100, 1e-100, 1e270, 1e-270,
         1e300, 1e-300, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, 17592186044416.0625, 0.1, 0.5, 1.0, 0.0]
csv_values = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGES).flatmap(lambda v: st.sampled_from(
        [v, -v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)])),
)


@st.composite
def csv_maps(draw, square=False):
    """A map cycling through up to 40 drawn values.

    Up to 1400 rows of 1..9 columns, so that a file spans several
    4096-value formatting blocks and ends on a partial one; or square, up
    to 70 x 70.
    """
    if square:
        nrow = ncol = draw(st.integers(1, 70))
    else:
        nrow, ncol = draw(st.integers(1, 1400)), draw(st.integers(1, 9))
    values = draw(st.lists(csv_values, min_size=1, max_size=40))
    return np.resize(np.array(values, dtype=np.float64), (nrow, ncol))


class TestCsv:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_maps())
    def test_writes_the_bytes_of_savetxt(self, tmp_path, f):
        path = tmp_path / "map.csv"
        save_csv(f, path)
        assert path.read_bytes() == savetxt_bytes(f)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_maps(square=True))
    def test_reads_back_bit_for_bit(self, tmp_path, f):
        path = tmp_path / "map.csv"
        save_csv(f, path)
        back = load_csv(path)
        nan = np.isnan(f)
        np.testing.assert_array_equal(np.isnan(back), nan)
        np.testing.assert_array_equal(back[~nan].view(np.uint64),
                                      f[~nan].view(np.uint64))

    def test_fallback_values_write_the_bytes_of_savetxt(self, tmp_path):
        # each value is non-finite, outside 1e-270..1e270, a rounding tie or
        # rounds up to a power of ten
        ties = np.array([17592186044416.0625, 0.0625 * (2 ** 48 + 3)])
        values = np.concatenate([
            [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
             1e-300, 1e300, -1.7976931348623157e308, 3e270, 9e-271,
             1e-14, -1e98, 1e-243, 1e220], ties, -ties])
        f = values.reshape(3, 6)
        path = tmp_path / "fallback.csv"
        save_csv(f, path)
        assert path.read_bytes() == savetxt_bytes(f)
        assert b"17592186044416.062," in path.read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((24, 24)) * 10.0 ** rng.integers(-9, 9, (24, 24))
        path = tmp_path / "map.csv"
        save_csv(f, path)
        np.testing.assert_array_equal(load_csv(path), f)

    def test_nan_survives(self, tmp_path):
        f = np.full((4, 4), 1.25)
        f[2, 3] = np.nan
        path = tmp_path / "nan.csv"
        save_csv(f, path)
        back = load_csv(path)
        assert np.isnan(back[2, 3])
        assert np.array_equal(back, f, equal_nan=True)

    def test_bitmap_symbol_from_pgm(self, tmp_path):
        path = tmp_path / "bmp.pgm"
        base = gen_symbol(SymbolSpec("circle", 32))
        save_pgm(base, path)
        f = gen_symbol(SymbolSpec("bitmap", 32, {"path": str(path)}))
        assert np.max(np.abs(f - base)) <= 1.0 / 65535
