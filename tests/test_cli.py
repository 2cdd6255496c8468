"""Command-line interface: workflows, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from locsym import cli, load_csv, load_pgm
from locsym.bench import report_csv
from locsym.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def circle(tmp_path):
    path = tmp_path / "circle.pgm"
    csv = tmp_path / "circle.csv"
    assert run("gen-symbol", "--kind", "circle", "--size", 32,
               "--out", path, "--csv", csv) == 0
    return csv


def test_gen_symbol_writes_binary_circle(tmp_path):
    out = tmp_path / "c.pgm"
    assert run("gen-symbol", "--kind", "circle", "--size", 32,
               "--radius", 8, "--out", out) == 0
    f = load_pgm(out)
    assert set(np.unique(f)) == {0.0, 1.0}


def test_radius_overrides_the_radius_in_params(tmp_path):
    out = tmp_path / "c.pgm"
    assert run("gen-symbol", "--kind", "circle", "--size", 32, "--radius", 8,
               "--params", '{"radius": 4}', "--out", out) == 0
    assert np.count_nonzero(load_pgm(out)) == 197  # the r = 8 disc, not r = 4


def test_negative_threads_exits_2_at_parse_time(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("--threads", -1, "gen-symbol", "--kind", "circle", "--size", 16,
            "--out", tmp_path / "c.pgm")
    assert exc.value.code == 2
    assert "--threads: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "c.pgm").exists()


def test_recover_gp_outputs_triplet(tmp_path, circle):
    out = tmp_path / "est"
    assert run("recover", "--method", "gp", "--symbol", circle,
               "--size", 32, "--out", out) == 0
    est = load_csv(tmp_path / "est.csv")
    assert est.shape == (32, 32)
    sidecar = json.loads((tmp_path / "est.json").read_text())
    assert sidecar["method"] == "gp"
    assert sidecar["seconds"] >= 0
    assert (tmp_path / "est.pgm").exists()


def test_recover_is_bit_reproducible(tmp_path, circle):
    for name in ("a", "b"):
        assert run("recover", "--method", "wn", "--symbol", circle,
                   "--size", 32, "--K", 8, "--seed", 5,
                   "--out", tmp_path / name) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    ja.pop("seconds"), jb.pop("seconds")
    assert ja == jb


def test_recover_region_and_basis_variants(tmp_path, circle):
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--region", "4,4,8,8", "--out", tmp_path / "r") == 0
    est = load_csv(tmp_path / "r.csv")
    assert np.isfinite(est).sum() == 25
    assert run("recover", "--method", "pt", "--symbol", circle, "--size", 32,
               "--basis", "hermite:6@16,16", "--out", tmp_path / "p") == 0


def test_operator_dump_round_trip(tmp_path):
    # every method, on an operator built and on its dump reused, writes
    # the same CSV bytes, at both parities of L and over two windows
    from locsym.recovery import METHODS

    variants = [(method,) for method in METHODS] + [("was", "--eigs", 4)]
    for size in (32, 33):
        symbol = tmp_path / f"circle{size}.csv"
        assert run("gen-symbol", "--kind", "circle", "--size", size,
                   "--out", tmp_path / f"circle{size}.pgm", "--csv", symbol) == 0
        dump = tmp_path / f"op{size}.bin"
        common = ("--symbol", symbol, "--size", size,
                  "--window", "gauss,hermite:1", "--K", 8)
        assert run("recover", "--method", "gp", *common, "--dump-operator",
                   dump, "--out", tmp_path / "dumped") == 0
        for method, *extra in variants:
            built, reused = tmp_path / "built", tmp_path / "reused"
            assert run("recover", "--method", method, *extra, *common,
                       "--out", built) == 0
            assert run("recover", "--method", method, *extra, *common,
                       "--operator", dump, "--out", reused) == 0
            assert ((tmp_path / "built.csv").read_bytes()
                    == (tmp_path / "reused.csv").read_bytes()), (size, method)


def test_impulse_then_deconvolve(tmp_path, circle):
    assert run("impulse", "--mode", "analytic", "--size", 32,
               "--out", tmp_path / "ker") == 0
    assert run("recover", "--method", "gp", "--symbol", circle,
               "--size", 32, "--out", tmp_path / "est") == 0
    assert run("deconvolve", "--est", tmp_path / "est.csv",
               "--kernel", tmp_path / "ker.csv", "--eps", "1e-6",
               "--out", tmp_path / "dec") == 0
    assert load_csv(tmp_path / "dec.csv").shape == (32, 32)


def test_pgm_kernel_exits_2_and_writes_nothing(tmp_path, circle, capsys):
    # impulse writes its PGM over (0, max); read back over (0, 1) it would
    # rescale the deconvolved map by the kernel's maximum
    assert run("impulse", "--mode", "analytic", "--size", 32,
               "--out", tmp_path / "ker") == 0
    assert run("recover", "--method", "gp", "--symbol", circle,
               "--size", 32, "--out", tmp_path / "est") == 0
    capsys.readouterr()
    assert run("deconvolve", "--est", tmp_path / "est.csv",
               "--kernel", tmp_path / "ker.pgm", "--eps", "1e-6",
               "--out", tmp_path / "dec") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "ker.csv") in err
    assert not list(tmp_path.glob("dec*"))


def test_region_estimate_exits_2_and_writes_nothing(tmp_path, circle, capsys):
    # outside its region a --region estimate holds NaN sentinels, which the
    # spectral division spreads over all 1024 entries
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--region", "4,4,20,20", "--out", tmp_path / "est") == 0
    assert run("impulse", "--mode", "analytic", "--size", 32,
               "--out", tmp_path / "ker") == 0
    capsys.readouterr()
    assert run("deconvolve", "--est", tmp_path / "est.csv",
               "--kernel", tmp_path / "ker.csv", "--eps", "1e-6",
               "--out", tmp_path / "dec") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN sentinels" in err
    assert not list(tmp_path.glob("dec*"))


def test_unstable_deconvolution_exits_3_and_writes_nothing(tmp_path, capsys):
    # at eps = 1e-14 the imaginary residue is 7.5e-4, far above 1e-6
    assert run("gen-symbol", "--kind", "circle", "--size", 64,
               "--out", tmp_path / "c.pgm", "--csv", tmp_path / "c.csv") == 0
    assert run("recover", "--method", "gp", "--symbol", tmp_path / "c.csv",
               "--size", 64, "--out", tmp_path / "est") == 0
    assert run("impulse", "--mode", "analytic", "--size", 64,
               "--out", tmp_path / "ker") == 0
    capsys.readouterr()
    assert run("deconvolve", "--est", tmp_path / "est.csv",
               "--kernel", tmp_path / "ker.csv", "--eps", "1e-14",
               "--out", tmp_path / "dec") == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(tmp_path.glob("dec*"))


def test_recover_from_a_pgm_symbol_maps_gray_onto_the_range(tmp_path, circle):
    from locsym import save_csv

    # the circle is 0/1, so its PGM read over (-1, 1) is exactly 2f - 1
    save_csv(2 * load_csv(circle) - 1, tmp_path / "signed.csv")
    for symbol, out in (("signed.csv", "from_csv"), ("circle.pgm", "from_pgm")):
        assert run("recover", "--method", "gp", "--symbol", tmp_path / symbol,
                   "--size", 32, "--range-lo", -1, "--range-hi", 1,
                   "--out", tmp_path / out) == 0
    assert load_csv(tmp_path / "from_pgm.csv").min() < 0
    assert ((tmp_path / "from_pgm.csv").read_bytes()
            == (tmp_path / "from_csv.csv").read_bytes())


def test_squared_target_pgm_range_covers_the_low_end(tmp_path):
    from locsym import save_csv, save_pgm

    # pt estimates f**2, which reaches (-2)**2 = 4 here, above range_hi**2
    f = np.ones((16, 16))
    f[:8] = -2.0
    save_csv(f, tmp_path / "sym.csv")
    assert run("recover", "--method", "pt", "--symbol", tmp_path / "sym.csv",
               "--size", 16, "--range-lo", -2, "--range-hi", 1,
               "--out", tmp_path / "est") == 0
    est = load_csv(tmp_path / "est.csv")
    assert est.max() > 1.0
    save_pgm(est, tmp_path / "ref.pgm", (0.0, 4.0))
    assert ((tmp_path / "est.pgm").read_bytes()
            == (tmp_path / "ref.pgm").read_bytes())


def test_measured_impulse_matches_analytic(tmp_path):
    assert run("impulse", "--mode", "analytic", "--size", 32,
               "--out", tmp_path / "a") == 0
    assert run("impulse", "--mode", "measured", "--size", 32,
               "--out", tmp_path / "m") == 0
    a, m = load_csv(tmp_path / "a.csv"), load_csv(tmp_path / "m.csv")
    assert np.max(np.abs(a - m)) < 1e-9


def test_bench_command(tmp_path, circle):
    config = {
        "schema_version": 1,
        "size": 32,
        "noise_draws": 16,
        "seed": 2,
        "symbols": [{"kind": "circle", "params": {"radius": 8}}],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report"
    assert run("bench", "--config", cfg, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 5
    assert (out / "report.txt").exists() and (out / "report.csv").exists()


def test_outputs_replace_longer_files_at_their_paths(tmp_path, circle):
    junk = b"9," * 50000
    for name in ("est.pgm", "est.csv", "est.json"):
        (tmp_path / name).write_bytes(junk)
    for name in ("fresh", "est"):
        assert run("recover", "--method", "gp", "--symbol", circle,
                   "--size", 32, "--out", tmp_path / name) == 0
    for ext in ("pgm", "csv"):
        assert ((tmp_path / f"est.{ext}").read_bytes()
                == (tmp_path / f"fresh.{ext}").read_bytes())
    text = (tmp_path / "est.json").read_text()
    assert text == cli._json_text(json.loads(text))


def test_bench_report_replaces_a_longer_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(bench_config_text())
    out = tmp_path / "report"
    out.mkdir()
    (out / "report.csv").write_text("symbol,method\n" * 10000)
    assert run("bench", "--config", cfg, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert (out / "report.csv").read_text() == report_csv(report)


def test_read_only_output_exits_2_and_keeps_its_bytes(tmp_path, circle, capsys,
                                                      make_read_only):
    out = tmp_path / "est"
    assert run("recover", "--method", "gp", "--symbol", circle,
               "--size", 32, "--out", out) == 0
    old = (tmp_path / "est.csv").read_bytes()
    make_read_only(tmp_path / "est.csv")
    assert run("recover", "--method", "was", "--symbol", circle,
               "--size", 32, "--eigs", 4, "--out", out) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert (tmp_path / "est.csv").read_bytes() == old


def run_script(*argv, stdout):
    """Run the CLI in a new interpreter with its stdout on ``stdout``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "locsym.cli", *map(str, argv)],
                          stdout=stdout, env={**os.environ, "PYTHONPATH": path})


def test_csv_to_dev_stdout_writes_the_stream_in_place(tmp_path):
    gen = ("gen-symbol", "--kind", "circle", "--size", 16,
           "--out", tmp_path / "c.pgm", "--csv")
    assert run(*gen, tmp_path / "c.csv") == 0
    expected = (tmp_path / "c.csv").read_bytes()
    piped = run_script(*gen, "/dev/stdout", stdout=subprocess.PIPE)
    assert piped.returncode == 0 and piped.stdout == expected
    # stdout redirected into a file: that file is written, not replaced
    path = tmp_path / "stdout.txt"
    with open(path, "wb") as fh:
        assert run_script(*gen, "/dev/stdout", stdout=fh).returncode == 0
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(path))
    assert path.read_bytes() == expected


def test_unknown_method_exits_2(tmp_path, circle, capsys):
    with pytest.raises(SystemExit) as exc:
        run("recover", "--method", "nope", "--symbol", circle,
            "--size", 32, "--out", tmp_path / "x")
    assert exc.value.code == 2


def test_validation_error_exits_2(tmp_path, circle):
    # size disagreement between the file and --size
    assert run("recover", "--method", "gp", "--symbol", circle,
               "--size", 64, "--out", tmp_path / "x") == 2


def test_degenerate_kernel_exits_3(tmp_path, circle):
    zeros = tmp_path / "zeros.csv"
    from locsym import save_csv

    save_csv(np.zeros((32, 32)), zeros)
    assert run("recover", "--method", "gp", "--symbol", circle,
               "--size", 32, "--out", tmp_path / "est") == 0
    assert run("deconvolve", "--est", tmp_path / "est.csv",
               "--kernel", zeros, "--eps", "0.5",
               "--out", tmp_path / "d") == 3


def test_was_on_signed_symbol(tmp_path):
    signed = tmp_path / "signed.csv"
    from locsym import save_csv

    rng = np.random.default_rng(0)
    save_csv(rng.uniform(-1, 1, (32, 32)), signed)
    assert run("recover", "--method", "was", "--symbol", signed, "--size", 32,
               "--range-lo", "-1", "--range-hi", "1",
               "--out", tmp_path / "ok") == 0
    sidecar = json.loads((tmp_path / "ok.json").read_text())
    assert sidecar["eig_tail_mass"] == 0.0  # all eigenpairs used


SIDECAR_METHOD_KEYS = {
    "wn": {"draws", "sigma2", "seed", "sigma2_hat"},
    "was": {"eig_terms", "eig_tail_mass"},
    "wawd": {"eig_terms", "eig_tail_mass"},
    "pt": {"basis"},
    "gp": {"region"},
}


@pytest.mark.parametrize("method,eigs", [
    ("wn", None), ("was", None), ("was", 8), ("wawd", None), ("wawd", 8),
    ("pt", None), ("gp", None)])
def test_recover_sidecar_has_its_method_keys_only(tmp_path, circle, method,
                                                  eigs):
    extra = () if eigs is None else ("--eigs", eigs)
    assert run("recover", "--method", method, "--symbol", circle, "--size", 32,
               "--K", 4, "--sigma2", 0.5, "--seed", 9, *extra,
               "--out", tmp_path / "x") == 0
    sidecar = json.loads((tmp_path / "x.json").read_text())
    own = SIDECAR_METHOD_KEYS[method]
    assert own <= sidecar.keys()
    assert not (set().union(*SIDECAR_METHOD_KEYS.values()) - own) & sidecar.keys()
    expected = {
        "wn": {"draws": 4, "sigma2": 0.5, "seed": 9},
        "was": {"eig_terms": 32 if eigs is None else eigs},
        "wawd": {"eig_terms": 32 if eigs is None else eigs},
        "pt": {"basis": "standard"},
        "gp": {"region": None},
    }[method]
    assert {key: sidecar[key] for key in expected} == expected


def test_empty_region_exits_2(tmp_path, circle):
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--region", "8,8,4,4", "--out", tmp_path / "x") == 2


def test_circle_gp_pipeline_is_fast(tmp_path):
    import time

    tic = time.perf_counter()
    assert run("gen-symbol", "--kind", "circle", "--size", 64,
               "--out", tmp_path / "c.pgm", "--csv", tmp_path / "c.csv") == 0
    assert run("recover", "--method", "gp", "--symbol", tmp_path / "c.csv",
               "--size", 64, "--out", tmp_path / "est") == 0
    assert time.perf_counter() - tic < 60


def test_compress_positive_frequency_flag(tmp_path, circle):
    assert run("recover", "--method", "wawd", "--symbol", circle, "--size", 32,
               "--compress-positive-frequency", "--out", tmp_path / "w") == 0
    sidecar = json.loads((tmp_path / "w.json").read_text())
    assert sidecar["compress_positive_frequency"] is True


@pytest.mark.parametrize("method", ["gp", "pt", "wn"])
def test_non_finite_operator_dump_exits_2(tmp_path, circle, method):
    from locsym import LocOperator, save_locop

    path = tmp_path / "nan.bin"
    save_locop(LocOperator(np.eye(32, dtype=complex)), path)
    blob = bytearray(path.read_bytes())
    offset = 16 + 16 * (3 * 32 + 4)  # real part of entry [3, 4]
    blob[offset:offset + 8] = np.array(np.nan, dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    assert run("recover", "--method", method, "--symbol", circle,
               "--size", 32, "--operator", tmp_path / "nan.bin",
               "--K", 4, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x.csv").exists()


def test_ragged_csv_symbol_exits_2(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1,0,1\n1,0,1\n0,1,0,1\n1,0,1,0\n")
    assert run("recover", "--method", "gp", "--symbol", ragged, "--size", 4,
               "--out", tmp_path / "x") == 2


def test_non_numeric_csv_cell_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,0,1\n1,0,x,0\n0,1,0,1\n1,0,1,0\n")
    assert run("recover", "--method", "gp", "--symbol", bad, "--size", 4,
               "--out", tmp_path / "x") == 2


def test_empty_csv_symbol_exits_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("recover", "--method", "gp", "--symbol", empty,
                   "--size", 4, "--out", tmp_path / "x") == 2


def test_comment_like_csv_cell_exits_2(tmp_path):
    bad = tmp_path / "hash.csv"
    bad.write_text("0,1,0,1\n1,0,#2,0\n0,1,0,1\n1,0,1,0\n")
    assert run("recover", "--method", "gp", "--symbol", bad, "--size", 4,
               "--out", tmp_path / "x") == 2


def test_was_cut_through_eigenvalue_cluster_exits_3(tmp_path):
    star = tmp_path / "star.csv"
    assert run("gen-symbol", "--kind", "star", "--size", 64,
               "--range-lo", -1, "--range-hi", 1,
               "--out", tmp_path / "star.pgm", "--csv", star) == 0
    assert run("recover", "--method", "was", "--symbol", star, "--size", 64,
               "--range-lo", -1, "--range-hi", 1, "--window", "gauss,hermite:1",
               "--eigs", 8, "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_wn_seed_outside_uint64_exits_2(tmp_path, circle, seed):
    assert run("recover", "--method", "wn", "--symbol", circle, "--size", 32,
               "--K", 4, "--seed", seed, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x.csv").exists()


def test_bench_negative_seed_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"size": 16, "noise_draws": 4, "seed": -3,
                               "symbols": [{"kind": "circle"}]}))
    assert run("bench", "--config", cfg, "--out", tmp_path / "report") == 2
    assert not (tmp_path / "report" / "report.json").exists()


@pytest.mark.parametrize("sigma2", ["inf", "nan"])
def test_wn_non_finite_noise_variance_exits_2(tmp_path, circle, sigma2):
    assert run("recover", "--method", "wn", "--symbol", circle, "--size", 32,
               "--K", 4, "--sigma2", sigma2, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("method", ["was", "wawd"])
def test_zero_eigs_exits_2(tmp_path, circle, method):
    assert run("recover", "--method", method, "--symbol", circle, "--size", 32,
               "--eigs", 0, "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x.csv").exists()


def test_eigs_above_size_exits_2_without_eigh(tmp_path, eigh_calls):
    small = tmp_path / "circle16.csv"
    assert run("gen-symbol", "--kind", "circle", "--size", 16,
               "--out", tmp_path / "circle16.pgm", "--csv", small) == 0
    assert run("recover", "--method", "was", "--symbol", small, "--size", 16,
               "--eigs", 17, "--out", tmp_path / "x") == 2
    assert eigh_calls == []
    assert not (tmp_path / "x.csv").exists()


def test_eigh_failure_exits_3(tmp_path, circle, monkeypatch):
    def failing(matrix):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    assert run("recover", "--method", "was", "--symbol", circle, "--size", 32,
               "--eigs", 4, "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x.csv").exists()


def test_bench_zero_eig_terms_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"size": 16, "noise_draws": 4, "eig_terms": 0,
                               "symbols": [{"kind": "circle"}]}))
    assert run("bench", "--config", cfg, "--out", tmp_path / "report") == 2
    assert not (tmp_path / "report" / "report.json").exists()


@pytest.mark.parametrize("method", ["was", "wawd"])
def test_non_hermitian_operator_dump_exits_3(tmp_path, circle, method):
    from locsym import LocOperator, save_locop

    matrix = np.eye(32, dtype=complex)
    matrix[3, 4] = 1e-3
    save_locop(LocOperator(matrix), tmp_path / "skew.bin")
    assert run("recover", "--method", method, "--symbol", circle,
               "--size", 32, "--operator", tmp_path / "skew.bin",
               "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.json").exists()


def test_threads_without_threadpoolctl_sets_numpys_openblas(tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    calls = cli._openblas_threads()
    if calls is None:
        pytest.skip("this numpy bundles no OpenBLAS")
    get, set_ = calls
    before = get()
    try:
        assert run("--threads", 1, "gen-symbol", "--kind", "circle",
                   "--size", 16, "--out", tmp_path / "c.pgm") == 0
        assert get() == 1
    finally:
        set_(before)
    assert capsys.readouterr().err == ""


def test_threads_without_threadpoolctl_warns(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    assert run("--threads", 2, "gen-symbol", "--kind", "circle", "--size", 16,
               "--out", tmp_path / "c.pgm") == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "--threads 2 ignored" in err[0]


DROP = object()


def bench_config_text(**changes):
    """A valid small bench config with some keys replaced or dropped."""
    config = {"size": 16, "noise_draws": 4, "symbols": [{"kind": "circle"}]}
    config.update(changes)
    return json.dumps({k: v for k, v in config.items() if v is not DROP})


MALFORMED_BENCH_CONFIGS = {
    "eig_terms-str": bench_config_text(eig_terms="8"),
    "eig_terms-float": bench_config_text(eig_terms=3.5),
    "eig_terms-bool": bench_config_text(eig_terms=True),
    "size-str": bench_config_text(size="16x"),
    "size-missing": bench_config_text(size=DROP),
    "noise_draws-float": bench_config_text(noise_draws=2.5),
    "seed-float": bench_config_text(seed=1.9),
    "sigma2-str": bench_config_text(sigma2="1"),
    "sigma2-huge-int": bench_config_text(sigma2=10 ** 400),
    "window-int": bench_config_text(window=5),
    "window-empty": bench_config_text(window=[]),
    "window-list-int": bench_config_text(window=["gauss", 5]),
    "recon_window-int": bench_config_text(recon_window=7),
    "value_range-one": bench_config_text(
        symbols=[{"kind": "circle", "value_range": [0]}]),
    "symbol-empty": bench_config_text(symbols=[{}]),
    "symbols-str": bench_config_text(symbols="circle"),
    "params-int": bench_config_text(
        symbols=[{"kind": "circle", "params": 5}]),
    "name-int": bench_config_text(symbols=[{"kind": "circle", "name": 3}]),
    "name-duplicate": bench_config_text(symbols=[
        {"kind": "circle", "name": "dup"}, {"kind": "star", "name": "dup"}]),
    "name-duplicate-default": bench_config_text(
        symbols=[{"kind": "tiles"}, {"kind": "tiles"}]),
    "schema_version-2": bench_config_text(schema_version=2),
    "top-level-list": json.dumps([1, 2]),
    "not-json": '{"size": 16,',
}


@pytest.mark.parametrize("text", MALFORMED_BENCH_CONFIGS.values(),
                         ids=MALFORMED_BENCH_CONFIGS.keys())
def test_malformed_bench_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run("bench", "--config", cfg, "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("key,value", [
    ("seed", -3), ("noise_draws", 0), ("sigma2", 0), ("eig_terms", 0),
    ("eig_terms", 17)], ids=["seed--3", "noise_draws-0", "sigma2-0",
                             "eig_terms-0", "eig_terms-size+1"])
def test_bench_option_out_of_range_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, key, value):
    # the range of each estimator option is checked with its type, before
    # the first symbol is generated or operator built
    def no_work(*args):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr("locsym.bench.gen_symbol", no_work)
    monkeypatch.setattr("locsym.bench.build_locop", no_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(bench_config_text(**{key: value}))  # size 16
    assert run("bench", "--config", cfg, "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err.startswith(
        f"error: bench config {key!r} must be ")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("out", ["report.txt", "report.txt/", "no_dir/report"],
                         ids=["existing-file", "existing-file-slash",
                              "missing-parent"])
def test_bench_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch,
                                              out):
    def no_bench(config):
        raise AssertionError("bench_all ran")

    monkeypatch.setattr("locsym.cli.bench_all", no_bench)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(bench_config_text())
    (tmp_path / "report.txt").write_text("")
    assert run("bench", "--config", "cfg.json", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "no_dir").exists()


def test_bad_bench_symbol_is_named_by_index_and_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(bench_config_text(symbols=[
        {"kind": "circle", "name": "s1"}, {"kind": "star", "name": "s2"},
        {"kind": "star", "name": "s3", "params": {"points": "x"}}]))
    assert run("bench", "--config", cfg, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(
        "error: symbols[2] ('s3'): star params 'points' must be an integer")


def test_duplicate_bench_name_is_named_by_index(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(bench_config_text(symbols=[
        {"kind": "circle", "name": "s1"}, {"kind": "tiles"},
        {"kind": "star", "name": "s1"}]))
    assert run("bench", "--config", cfg, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == ("error: symbols[2] ('s1'): duplicate "
                                       'name; give each entry a unique "name"\n')


def test_region_wraps_around_the_torus(tmp_path, circle):
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--region", "30,31,33,33", "--out", tmp_path / "w") == 0
    est = load_csv(tmp_path / "w.csv")
    kept = set(zip(*np.nonzero(~np.isnan(est))))
    assert kept == {(n, m) for n in (30, 31, 0, 1) for m in (31, 0, 1)}


def test_huge_region_is_each_grid_point_once(tmp_path, circle, monkeypatch):
    from locsym import cli

    regions, real_recover = [], cli.recover

    def spy(*args, region=None, **kwargs):
        regions.append(region)
        return real_recover(*args, region=region, **kwargs)

    monkeypatch.setattr(cli, "recover", spy)
    # a 1000 x 1000 span at L = 32; before each axis was reduced mod L this
    # built a million points
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--region=-500,7,499,1006", "--out", tmp_path / "h") == 0
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--out", tmp_path / "full") == 0
    assert len(regions[0]) == len(np.unique(regions[0], axis=0)) == 32 * 32
    assert ((tmp_path / "h.csv").read_bytes()
            == (tmp_path / "full.csv").read_bytes())


def test_full_region_at_512_is_one_array_not_tuples():
    # the region is an (N, 2) array: L^2 Python tuples took 32 MB here
    import gc
    import tracemalloc

    from locsym import (SymbolSpec, WindowSystem, build_locop, gen_symbol,
                        gp_recover, make_gaussian_window)

    size = 512
    g = make_gaussian_window(size)
    op = build_locop(gen_symbol(SymbolSpec("circle", size, {}, (0.0, 1.0))),
                     WindowSystem.single(g))
    gp_recover(op, g)  # warm: FFT plans are made on first use
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        region = cli._parse_region(f"0,0,{size - 1},{size - 1}", size)
        est = gp_recover(op, g, region).estimate
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    # measured at 7.0 maps of L x L float64 (14.0 MB), 16.1 before
    assert peak <= 8 * size * size * 8
    assert region.shape == (size * size, 2) and region.dtype == np.intp
    points = [(n, m) for n in range(size) for m in range(size)]
    assert est.tobytes() == gp_recover(op, g, points).estimate.tobytes()


@pytest.mark.parametrize("params", ['{"radius": 4', "[1, 2]"],
                         ids=["not-json", "list"])
def test_malformed_symbol_params_exit_2(tmp_path, capsys, params):
    assert run("gen-symbol", "--kind", "circle", "--size", 16,
               "--params", params, "--out", tmp_path / "c.pgm") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c.pgm").exists()


@pytest.mark.parametrize("extra", [
    ("--kind", "bitmap"), ("--kind", "star", "--params", '{"points": 1}')],
    ids=["bitmap-without-path", "star-one-point"])
def test_unusable_symbol_spec_exits_2(tmp_path, capsys, extra):
    assert run("gen-symbol", *extra, "--size", 16,
               "--out", tmp_path / "s.pgm") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s.pgm").exists()


MISTYPED_SYMBOL_PARAMS = {
    "circle-radius-str": ("circle", {"radius": "x"}),
    "circle-center-int": ("circle", {"center": 5}),
    "star-points-str": ("star", {"points": "x"}),
    "gaussians-short-bump": ("gaussians", {"bumps": [[1, 2]]}),
    "blurred-sigma-str": ("blurred_lines_circles", {"sigma": "x"}),
    "tiles-count-float": ("tiles", {"count": 2.7}),
    "blurred-sigma-nan": ("blurred_lines_circles", {"sigma": float("nan")}),
    "star-r_outer-inf": ("star", {"r_outer": float("inf")}),
    "circle-radius-huge-int": ("circle", {"radius": 10 ** 400}),
}


@pytest.mark.parametrize("route", ["gen-symbol", "bench"])
@pytest.mark.parametrize("kind,params", MISTYPED_SYMBOL_PARAMS.values(),
                         ids=MISTYPED_SYMBOL_PARAMS.keys())
def test_mistyped_symbol_params_exit_2(tmp_path, capsys, route, kind, params):
    if route == "gen-symbol":
        argv = ("gen-symbol", "--kind", kind, "--size", 16,
                "--params", json.dumps(params), "--out", tmp_path / "out")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(bench_config_text(
            symbols=[{"kind": kind, "params": params}]))
        argv = ("bench", "--config", cfg, "--out", tmp_path / "out")
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


# run in the test's directory, which holds only circle.csv and circle.pgm
RECOVER_GP = ("recover", "--method", "gp", "--size", 32)
MISSING_PATH_PROBES = {
    "recover-symbol": (*RECOVER_GP, "--symbol", "missing.csv", "--out", "x"),
    "recover-operator": (*RECOVER_GP, "--symbol", "circle.csv",
                         "--operator", "missing.bin", "--out", "x"),
    "recover-out-dir": (*RECOVER_GP, "--symbol", "circle.csv",
                        "--out", "no_dir/x"),
    "recover-dump-dir": (*RECOVER_GP, "--symbol", "circle.csv",
                         "--dump-operator", "no_dir/op.bin", "--out", "x"),
    "deconvolve-est": ("deconvolve", "--est", "missing.csv",
                       "--kernel", "circle.csv", "--eps", 0.1, "--out", "x"),
    "deconvolve-kernel": ("deconvolve", "--est", "circle.csv",
                          "--kernel", "missing.csv", "--eps", 0.1, "--out", "x"),
    "bench-config": ("bench", "--config", "missing.json", "--out", "x"),
    "bitmap-path": ("gen-symbol", "--kind", "bitmap", "--size", 32,
                    "--params", '{"path": "missing.pgm"}', "--out", "x"),
    "gen-symbol-out-dir": ("gen-symbol", "--kind", "circle", "--size", 32,
                           "--out", "no_dir/x.pgm"),
    "impulse-out-dir": ("impulse", "--mode", "measured", "--size", 32,
                        "--out", "no_dir/x"),
}


@pytest.mark.parametrize("argv", MISSING_PATH_PROBES.values(),
                         ids=MISSING_PATH_PROBES.keys())
def test_missing_path_exits_2_before_any_work(tmp_path, circle, capsys,
                                              monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr("locsym.cli.build_locop", no_build)
    monkeypatch.setattr("locsym.recovery.build_locop", no_build)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["circle.csv",
                                                          "circle.pgm"]


BAD_RANGE_PROBES = {
    "gp-lo-minus-inf": ("recover", "--method", "gp", "--range-lo=-inf"),
    "gp-hi-nan": ("recover", "--method", "gp", "--range-hi", "nan"),
    "gp-reversed": ("recover", "--method", "gp", "--range-lo", 1,
                    "--range-hi", 0),
    "wn-hi-inf": ("recover", "--method", "wn", "--K", 4, "--range-hi", "inf"),
    # the squared output range of wn overflows to inf
    "wn-hi-squared-overflows": ("recover", "--method", "wn", "--K", 4,
                                "--range-hi", "1e200"),
    "deconvolve-hi-inf": ("deconvolve", "--range-hi", "inf"),
}


@pytest.mark.parametrize("argv", BAD_RANGE_PROBES.values(),
                         ids=BAD_RANGE_PROBES.keys())
def test_bad_value_range_exits_2_before_any_work(tmp_path, circle, capsys,
                                                 monkeypatch, argv):
    from locsym import save_csv

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the range was checked")

    monkeypatch.setattr("locsym.cli.build_locop", no_work)
    monkeypatch.setattr("locsym.cli.deconvolve", no_work)
    monkeypatch.chdir(tmp_path)
    save_csv(np.eye(32), "est.csv")
    inputs = sorted(p.name for p in tmp_path.iterdir())
    if argv[0] == "recover":
        argv += ("--symbol", circle, "--size", 32)
    else:
        argv += ("--est", "est.csv", "--kernel", "est.csv", "--eps", "1e-6")
    assert run(*argv, "--out", "x") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


MALFORMED_RECOVER_OPTIONS = {
    "window-hermite-str": ("--method", "gp", "--window", "hermite:x"),
    "window-hermite-negative": ("--method", "gp", "--window", "hermite:-1"),
    "window-unknown": ("--method", "gp", "--window", "box"),
    "basis-malformed": ("--method", "pt", "--basis", "hermite:4@1"),
    "basis-unknown": ("--method", "pt", "--basis", "wavelet"),
    "region-malformed": ("--method", "gp", "--region", "1,2,3"),
    "operator-size": ("--method", "gp", "--operator", "op16.bin"),
    "operator-length-0": ("--method", "gp", "--operator", "op0.bin"),
    "operator-length-3": ("--method", "gp", "--operator", "op3.bin"),
    "operator-length-max": ("--method", "gp", "--operator", "op4097.bin"),
    "operator-imaginary-nan": ("--method", "gp", "--operator", "op32nan.bin"),
}


@pytest.mark.parametrize("options", MALFORMED_RECOVER_OPTIONS.values(),
                         ids=MALFORMED_RECOVER_OPTIONS.keys())
def test_malformed_recover_option_exits_2(tmp_path, circle, capsys,
                                          monkeypatch, options):
    from locsym import LocOperator, save_locop

    monkeypatch.chdir(tmp_path)
    save_locop(LocOperator(np.eye(16, dtype=complex)), "op16.bin")
    for length in (0, 3, 4097):  # header only, L outside 4..MAX_LENGTH
        with open(f"op{length}.bin", "wb") as fh:
            fh.write(b"LOCOP1\0\0" + length.to_bytes(4, "little") + bytes(4))
    save_locop(LocOperator(np.eye(32, dtype=complex)), "op32nan.bin")
    with open("op32nan.bin", "r+b") as fh:  # imaginary part of entry [0, 0]
        fh.seek(24)
        fh.write(np.array(np.nan, dtype="<f8").tobytes())
    assert run("recover", "--symbol", circle, "--size", 32, *options,
               "--out", "x") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


def test_dft_basis_writes_the_standard_basis_estimate(tmp_path, circle):
    for basis in ("standard", "dft"):
        assert run("recover", "--method", "pt", "--symbol", circle,
                   "--size", 32, "--basis", basis,
                   "--out", tmp_path / basis) == 0
    assert ((tmp_path / "dft.csv").read_bytes()
            == (tmp_path / "standard.csv").read_bytes())
    assert json.loads((tmp_path / "dft.json").read_text())["basis"] == "dft"


def _choices(parser, command, option):
    """The choices argparse holds for ``option`` of subcommand ``command``."""
    sub = next(a for a in parser._actions if a.dest == "command")
    return next(a.choices for a in sub.choices[command]._actions
                if option in a.option_strings)


def test_method_and_estimator_choices_are_the_recovery_tables():
    from locsym import bench, recovery
    from locsym.cli import build_parser

    parser = build_parser()
    assert tuple(_choices(parser, "recover", "--method")) == recovery.METHODS
    assert bench.METHODS is recovery.METHODS
    assert (tuple(_choices(parser, "impulse", "--estimator"))
            == recovery.IMPULSE_ESTIMATORS)


@pytest.mark.parametrize("command", [
    ("recover", "--method", "gp", "--symbol", "circle.csv"),
    ("impulse", "--mode", "analytic"),
], ids=["recover", "impulse"])
def test_empty_recon_window_exits_2(tmp_path, circle, capsys, monkeypatch,
                                    command):
    monkeypatch.chdir(tmp_path)
    assert run(*command, "--size", 32, "--recon-window", "",
               "--out", "x") == 2
    assert "unknown window kind ''" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_analytic_impulse_records_no_estimator(tmp_path):
    for mode in ("analytic", "measured"):
        assert run("impulse", "--mode", mode, "--estimator", "was",
                   "--size", 16, "--out", tmp_path / mode) == 0
    analytic = json.loads((tmp_path / "analytic.json").read_text())
    measured = json.loads((tmp_path / "measured.json").read_text())
    assert analytic["estimator"] is None
    assert measured["estimator"] == "was"


@pytest.mark.parametrize("size", ["max+1", 100000])
@pytest.mark.parametrize("command", ["gen-symbol", "impulse", "bench"])
def test_length_above_max_exits_2_before_allocating(tmp_path, capsys,
                                                    monkeypatch, command, size):
    import tracemalloc

    from locsym.core import MAX_LENGTH

    size = MAX_LENGTH + 1 if size == "max+1" else size
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bench.json").write_text(json.dumps(
        {"size": size, "symbols": [{"kind": "circle"}]}))
    argv = {
        "gen-symbol": ("gen-symbol", "--kind", "circle", "--size", size,
                       "--out", "x.pgm"),
        "impulse": ("impulse", "--mode", "measured", "--size", size,
                    "--out", "x"),
        "bench": ("bench", "--config", "bench.json", "--out", "report"),
    }[command]
    tracemalloc.start()
    try:
        code = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"4..{MAX_LENGTH}" in capsys.readouterr().err
    assert peak < 2 ** 21
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]
