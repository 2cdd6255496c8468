"""Symbol generation and PGM/CSV round trips."""

import io
import itertools
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locsym import (LocOperator, PgmError, SymbolSpec, ValidationError,
                    WindowSystem, build_locop, gaussian_blur, gen_symbol,
                    gp_recover, hermite_system, impulse_kernel, load_csv,
                    load_pgm, make_gaussian_window, save_csv, save_locop,
                    save_pgm, wn_recover)
from locsym import mapio


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

    def test_gaussian_blur_of_width_zero_is_a_copy(self):
        f = np.random.default_rng(3).uniform(0, 1, (16, 16))
        out = gaussian_blur(f, 0)
        assert out is not f and not np.shares_memory(out, f)
        np.testing.assert_array_equal(out, f)

    def test_gaussian_blur_rejects_a_negative_width(self):
        with pytest.raises(ValidationError, match="sigma must be >= 0"):
            gaussian_blur(np.ones((16, 16)), -1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_gaussian_blur_rejects_a_non_finite_width(self, sigma):
        # NaN fails "sigma < 0" as well as "sigma >= 0"
        with pytest.raises(ValidationError, match="finite"):
            gaussian_blur(np.ones((16, 16)), sigma)

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

    @pytest.mark.parametrize("value_range", [(0.0, math.inf), (1.0, 0.0)])
    def test_load_rejects_a_non_finite_or_non_increasing_range(
            self, tmp_path, value_range):
        path = tmp_path / "map.pgm"
        save_pgm(np.eye(4), path)
        with pytest.raises(ValidationError, match="finite and increasing"):
            load_pgm(path, value_range)

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

    # header edge cases: the bytes, then (gray levels, maxval) or the error
    HEADER_CASES = {
        "comment-glued-to-magic": (b"P2# c\n2 2\n3\n0 1 2 3\n", PgmError),
        "comment-after-magic": (b"P2 # c\n2 2\n3\n0 1 2 3\n",
                                ([0, 1, 2, 3], 3)),
        "hash-inside-a-token": (b"P2\n2 2#c\n3\n0 1 2 3\n", PgmError),
        "hash-inside-a-sample": (b"P2\n2 2\n3\n0 1#c 2 3\n", PgmError),
        "comment-at-eof-without-newline": (b"P2\n2 2\n3\n0 1 2 3 # end",
                                           ([0, 1, 2, 3], 3)),
        "vt-ff-cr-tab-whitespace": (b"P2\x0b2\x0c2\r3\t0\r\n1\x0b2\x0c3",
                                    ([0, 1, 2, 3], 3)),
        "comment-before-maxval": (b"P5\n2 2\n# c\n255\n\x00\x01\x02\x03",
                                  ([0, 1, 2, 3], 255)),
        "p5-raster-starts-with-hash": (b"P5\n2 2\n255\n#\x01\x02\x03",
                                       ([35, 1, 2, 3], 255)),
        "p5-raster-starts-with-space": (b"P5 2 2 255  \x01\x02\x03",
                                        ([32, 1, 2, 3], 255)),
        "p5-16-bit": (b"P5\n2 2\n65535\n\x00\x01\x01\x00\xff\xfe\xff\xff",
                      ([1, 256, 65534, 65535], 65535)),
    }

    @pytest.mark.parametrize("data,expected", HEADER_CASES.values(),
                             ids=HEADER_CASES.keys())
    def test_header_edge_cases(self, tmp_path, data, expected):
        path = tmp_path / "edge.pgm"
        path.write_bytes(data)
        if expected is PgmError:
            with pytest.raises(PgmError):
                load_pgm(path)
            return
        levels, maxval = expected
        want = np.array(levels, dtype=np.float64).reshape(2, 2) / maxval
        np.testing.assert_array_equal(load_pgm(path), want)

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


# a value of each fallback class: not finite, outside 1e-270..1e270 (the
# ends of the float64 range included), a rounding tie in the 17th digit, and
# digits that do not come out as a 17-digit integer (log10 misjudges k just
# below a power of ten; 1e-14 and 1e98 round up to one)
FALLBACKS = [np.nan, np.inf, -np.inf, 1e-300, -1e300, 1e270, 9e-271,
             5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
             17592186044416.0625, -0.0625 * (2 ** 48 + 3),
             9.9999999999999995e-5, 1e-14, -1e98, 1e-243, 1e220]


def exact_decimal(k, nd):
    """A double at decimal exponent k whose %.17g shows nd significant
    digits, where such a double exists (else a nearby double)."""
    e = k - nd + 1  # the exponent of the last digit
    if e >= 0:
        return float(int("12345678912345678"[:nd]) * 10 ** e)
    q = -(-10 ** (nd - 1) // 5 ** -e) | 1  # odd, so q 5^-e ends in a 5
    return q / 2 ** -e  # = q 5^-e 10^e, with nd digits when it fits


def significant_digits(text):
    digits = text.split(b"e")[0].replace(b".", b"").lstrip(b"0")
    return len(digits.rstrip(b"0")) or 1


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

    @pytest.mark.parametrize("nrow", [0, 1, 3])
    def test_a_map_without_columns_writes_a_newline_per_row(self, tmp_path,
                                                             nrow):
        f = np.empty((nrow, 0))
        path = tmp_path / "empty.csv"
        save_csv(f, path)
        assert path.read_bytes() == savetxt_bytes(f) == b"\n" * nrow

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

    def test_every_layout_and_fallback_over_many_blocks(self, tmp_path):
        # L = 256 is 16 formatting blocks of 16 rows.  Its first rows hold
        # both signs of a value at each exponent k with each count of
        # significant digits that a double can show there, the zeros and
        # every fallback class; random values fill the rest.
        size = 256
        values = [0.0, -0.0, *FALLBACKS]
        for k, nd in itertools.product(range(-7, 23), range(1, 18)):
            values += [exact_decimal(k, nd), -exact_decimal(k, nd)]
        for k in (-269, -150, -100, 100, 150, 269):  # three exponent digits
            values += [1.5 * 10.0 ** k, -(10.0 ** k) / 3]
        rng = np.random.default_rng(24)
        rest = size * size - len(values)
        random = rng.standard_normal(rest) * 10.0 ** rng.uniform(-20, 20, rest)
        f = np.concatenate([values, random]).reshape(size, size)
        path = tmp_path / "layouts.csv"
        save_csv(f, path)
        expected = savetxt_bytes(f)
        assert path.read_bytes() == expected
        texts = expected[:len(values) * 26].replace(b"\n", b",").split(b",")
        texts = [t.lstrip(b"-") for t in texts[:len(values)]]
        shown = {significant_digits(t) for t in texts if t[:1].isdigit()}
        assert shown >= set(range(1, 18))
        points = {t.index(b".") for t in texts
                  if b"." in t and b"e" not in t and not t.startswith(b"0.")}
        assert points >= set(range(2, 17))  # the point after d1 .. d15
        assert any(b"e-1" in t and len(t.split(b"e")[1]) == 4 for t in texts)

    def test_real_maps_write_the_bytes_of_savetxt(self, tmp_path):
        size = 256
        windows = WindowSystem.from_pairs([(0.5, make_gaussian_window(size)),
                                           (0.5, hermite_system(size, 2)[1])])
        phi = windows.windows[0]
        op = build_locop(gen_symbol(SymbolSpec("star", size, {}, (-1.0, 1.0))),
                         windows)
        maps = {"gp": gp_recover(op, phi).estimate,
                "wn": wn_recover(op, phi, 4, 1.0, 7).estimate,
                "kernel": impulse_kernel(windows, phi)}
        for name, f in maps.items():
            path = tmp_path / f"{name}.csv"
            save_csv(f, path)
            assert path.read_bytes() == savetxt_bytes(f), name

    def test_bitmap_symbol_from_pgm(self, tmp_path):
        path = tmp_path / "bmp.pgm"
        base = gen_symbol(SymbolSpec("circle", 32))
        save_pgm(base, path)
        f = gen_symbol(SymbolSpec("bitmap", 32, {"path": str(path)}))
        assert np.max(np.abs(f - base)) <= 1.0 / 65535


# every writer, with a map of size n
WRITERS = {
    "csv": lambda n, path: save_csv(np.linspace(0.0, 1.0, n * n).reshape(n, n), path),
    "pgm": lambda n, path: save_pgm(np.linspace(0.0, 1.0, n * n).reshape(n, n), path),
    "locop": lambda n, path: save_locop(LocOperator(np.eye(n, dtype=complex)), path),
}


class TestReplace:
    """A writer replaces the file at its path: unlink, then create anew."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_rewrite_over_a_longer_file_gives_the_new_bytes(self, tmp_path, writer):
        write = WRITERS[writer]
        write(8, tmp_path / "fresh")
        path = tmp_path / "out"
        write(16, path)
        write(8, path)
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()

    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_hard_link_keeps_the_old_bytes(self, tmp_path, writer):
        write = WRITERS[writer]
        path, link = tmp_path / "out", tmp_path / "link"
        write(16, path)
        old = path.read_bytes()
        os.link(path, link)
        write(8, path)
        assert link.read_bytes() == old
        assert path.read_bytes() != old

    def test_a_symlinked_path_writes_its_target(self, tmp_path):
        (tmp_path / "real").mkdir()
        target, link = tmp_path / "real" / "map.csv", tmp_path / "map.csv"
        save_csv(np.ones((16, 16)), target)
        link.symlink_to(target)
        f = np.full((8, 8), 0.25)
        save_csv(f, link)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == savetxt_bytes(f)

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "map.csv"
        os.mkfifo(fifo)
        # the CSV of an 8 x 8 map fits the pipe buffer, so no reader thread
        # is needed, and a writer that replaced the FIFO cannot hang the test
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        f = np.full((8, 8), 0.25)
        try:
            save_csv(f, fifo)
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert data == savetxt_bytes(f)

    def test_a_read_only_file_is_refused_untouched(self, tmp_path, make_read_only):
        path = tmp_path / "map.csv"
        save_csv(np.ones((16, 16)), path)
        old = path.read_bytes()
        make_read_only(path)
        with pytest.raises(PermissionError):
            save_csv(np.zeros((8, 8)), path)
        assert path.read_bytes() == old

    def test_a_write_that_fails_midway_leaves_a_file_load_csv_rejects(
            self, tmp_path, monkeypatch):
        n = 100  # 40 rows a block
        path = tmp_path / "map.csv"
        save_csv(np.ones((n, n)), path)
        calls = []
        format_block = mapio._format_block

        def fail_on_second_block(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("write interrupted")
            return format_block(*args)

        monkeypatch.setattr(mapio, "_format_block", fail_on_second_block)
        with pytest.raises(RuntimeError):
            save_csv(np.zeros((n, n)), path)
        with pytest.raises(ValidationError):
            load_csv(path)

