"""Smoke test of the benchmark itself, at toy size.

Runs every workload in-process at L = 31 or 32, untraced for a fraction of
a second and traced over its fixed rounds, and checks that every metric BENCHMARK.json names is
emitted with its unit and that no job or check failed.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json

import pytest

import benchenv
import run

benchenv.use_checkout_source()

from workloads import ApplyWorkload, RosterWorkload, SpectralWorkload  # noqa: E402

TOY = {
    "apply_256": lambda: ApplyWorkload(size=32, draws=512),
    "spectral_255": lambda: SpectralWorkload(size=31),
    "roster_128": lambda: RosterWorkload(size=32, draws=64),
}


def _declared(section):
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_toy_workloads_match_the_workload_list():
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(TOY) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", list(TOY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_without_errors(name, traced, tmp_path):
    m = run.measure(TOY[name](), seed=0, seconds=0.2, traced=traced, work=tmp_path)
    assert m["failed"] == 0, m["failures"]
    assert m["attempted"] > 0 and m["latencies"]
    if traced:
        metrics, _ = run.traced_metrics(m)
        declared = _declared("per_layer")
    else:
        metrics, _ = run.end_to_end_metrics(m)
        declared = _declared("end_to_end")
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    for value, _ in metrics.values():
        assert value == value and value >= 0  # a number, not NaN
