"""Command-line interface: workflows, exit codes, reproducibility."""

import json
import sys
import warnings

import numpy as np
import pytest

from locsym import cli, load_csv, load_pgm
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


def test_operator_dump_round_trip(tmp_path, circle):
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--dump-operator", tmp_path / "op.bin",
               "--out", tmp_path / "d") == 0
    assert run("recover", "--method", "gp", "--symbol", circle, "--size", 32,
               "--operator", tmp_path / "op.bin",
               "--out", tmp_path / "e") == 0
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()


def test_impulse_then_deconvolve(tmp_path, circle):
    assert run("impulse", "--mode", "analytic", "--size", 32,
               "--out", tmp_path / "ker") == 0
    assert run("recover", "--method", "gp", "--symbol", circle,
               "--size", 32, "--out", tmp_path / "est") == 0
    assert run("deconvolve", "--est", tmp_path / "est.csv",
               "--kernel", tmp_path / "ker.csv", "--eps", "1e-6",
               "--out", tmp_path / "dec") == 0
    assert load_csv(tmp_path / "dec.csv").shape == (32, 32)


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
    "window-int": bench_config_text(window=5),
    "window-empty": bench_config_text(window=[]),
    "recon_window-int": bench_config_text(recon_window=7),
    "value_range-one": bench_config_text(
        symbols=[{"kind": "circle", "value_range": [0]}]),
    "symbol-empty": bench_config_text(symbols=[{}]),
    "symbols-str": bench_config_text(symbols="circle"),
    "params-int": bench_config_text(
        symbols=[{"kind": "circle", "params": 5}]),
    "name-int": bench_config_text(symbols=[{"kind": "circle", "name": 3}]),
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
    assert len(regions[0]) == len(set(regions[0])) == 32 * 32
    assert ((tmp_path / "h.csv").read_bytes()
            == (tmp_path / "full.csv").read_bytes())


@pytest.mark.parametrize("params", ['{"radius": 4', "[1, 2]"],
                         ids=["not-json", "list"])
def test_malformed_symbol_params_exit_2(tmp_path, capsys, params):
    assert run("gen-symbol", "--kind", "circle", "--size", 16,
               "--params", params, "--out", tmp_path / "c.pgm") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c.pgm").exists()


MISTYPED_SYMBOL_PARAMS = {
    "circle-radius-str": ("circle", {"radius": "x"}),
    "circle-center-int": ("circle", {"center": 5}),
    "star-points-str": ("star", {"points": "x"}),
    "gaussians-short-bump": ("gaussians", {"bumps": [[1, 2]]}),
    "blurred-sigma-str": ("blurred_lines_circles", {"sigma": "x"}),
    "tiles-count-float": ("tiles", {"count": 2.7}),
    "blurred-sigma-nan": ("blurred_lines_circles", {"sigma": float("nan")}),
    "star-r_outer-inf": ("star", {"r_outer": float("inf")}),
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
}


@pytest.mark.parametrize("options", MALFORMED_RECOVER_OPTIONS.values(),
                         ids=MALFORMED_RECOVER_OPTIONS.keys())
def test_malformed_recover_option_exits_2(tmp_path, circle, capsys,
                                          monkeypatch, options):
    from locsym import LocOperator, save_locop

    monkeypatch.chdir(tmp_path)
    save_locop(LocOperator(np.eye(16, dtype=complex)), "op16.bin")
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
