"""Benchmark harness behavior."""

import csv
import io
import json

import numpy as np
import pytest

from locsym import ValidationError, bench_all, report_csv, report_text
from locsym.bench import window_system_from_config


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


def test_was_and_wawd_share_one_spectrum_per_symbol(eigh_calls):
    report = bench_all(small_config(
        eig_terms=8, symbols=[{"kind": "gaussians"}, {"kind": "circle"}]))
    assert len(report["rows"]) == 10
    assert len(eigh_calls) == 2


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


def fake_report(*names):
    return {"rows": [{"symbol": name, "method": method, "rel_l1_error": 0.125,
                      "percent": 12.5, "seconds": 0.25, "flags": {}}
                     for name in names for method in ("wn", "gp")]}


def test_csv_names_round_trip_through_a_csv_reader():
    rows = list(csv.reader(io.StringIO(report_csv(fake_report('a,"b"', "c")))))
    assert [row[:2] for row in rows] == [
        ["symbol", "method"], ['a,"b"', "wn"], ['a,"b"', "gp"],
        ["c", "wn"], ["c", "gp"]]
    assert {len(row) for row in rows} == {5}


def test_csv_of_plain_names_is_comma_joined():
    assert report_csv(fake_report("circle")) == (
        "symbol,method,rel_l1_error,percent,seconds\n"
        "circle,wn,0.125,12.5,0.250000\n"
        "circle,gp,0.125,12.5,0.250000\n")


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


def test_gauss_recon_window_is_the_default():
    def rows(config):
        return [{k: v for k, v in row.items() if k != "seconds"}
                for row in bench_all(config)["rows"]]

    assert rows(small_config(recon_window="gauss")) == rows(small_config())


def test_empty_window_list_is_rejected():
    with pytest.raises(ValidationError, match="empty"):
        window_system_from_config([], 16)
