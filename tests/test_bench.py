"""Benchmark harness behavior."""

import json

import numpy as np

from locsym import bench_all, report_csv, report_text


def small_config(**overrides):
    config = {
        "schema_version": 1,
        "size": 32,
        "window": "gauss",
        "noise_draws": 25,
        "sigma2": 1.0,
        "seed": 0,
        "symbols": [{"kind": "gaussians"}],
    }
    config.update(overrides)
    return config


def test_empty_symbol_list_gives_empty_report():
    report = bench_all(small_config(symbols=[]))
    assert report["rows"] == []
    assert "gaussians" not in report_text(report)


def test_gabor_projection_matches_accumulated_spectrogram():
    report = bench_all(small_config())
    errors = {row["method"]: row["percent"] for row in report["rows"]}
    assert errors["gp"] <= errors["was"] + 0.1


def test_report_is_json_serializable_and_complete():
    report = bench_all(small_config())
    blob = json.loads(json.dumps(report))
    assert blob["schema_version"] == 1
    assert {row["method"] for row in blob["rows"]} == {
        "wn", "was", "wawd", "pt", "gp"}
    assert all(row["seconds"] >= 0 for row in blob["rows"])


def test_deterministic_per_seed():
    a = bench_all(small_config())
    b = bench_all(small_config())
    for ra, rb in zip(a["rows"], b["rows"]):
        assert ra["rel_l1_error"] == rb["rel_l1_error"]


def test_signed_symbols_flag_squared_target():
    config = small_config(symbols=[{
        "kind": "tiles", "value_range": (-1.0, 1.0)}])
    report = bench_all(config)
    flags = {row["method"]: row["flags"] for row in report["rows"]}
    assert flags["wn"].get("squared_target") is True
    assert flags["pt"].get("squared_target") is True
    assert "squared_target" not in flags["gp"]


def test_text_and_csv_formatting():
    report = bench_all(small_config())
    text = report_text(report)
    assert "gaussians" in text and "%" in text
    csv = report_csv(report)
    assert csv.splitlines()[0] == "symbol,method,rel_l1_error,percent,seconds"
    assert len(csv.splitlines()) == 6


def test_numpy_integers_and_integer_ranges_are_valid():
    plain = bench_all(small_config(eig_terms=32, symbols=[
        {"kind": "tiles", "value_range": (-1.0, 1.0)}]))
    numpy_ints = bench_all(small_config(
        size=np.int64(32), noise_draws=np.int32(25), seed=np.uint64(0),
        eig_terms=np.int64(32),
        symbols=[{"kind": "tiles", "value_range": [-1, 1]}]))
    assert json.loads(json.dumps(numpy_ints["config"])) == plain["config"]
    assert ([row["rel_l1_error"] for row in numpy_ints["rows"]]
            == [row["rel_l1_error"] for row in plain["rows"]])
