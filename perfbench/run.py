"""Run one benchmark workload against the checkout's locsym and print its metrics.

    python3 perfbench/run.py --workload apply_256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 [--trace 1]

One client runs a closed loop in this process: the next job starts only
after the previous one has finished and been checked.  Jobs come in whole
rounds (one job of each kind).  ``setup_s`` is the one set-up of this fresh
process: input generation, operator dumps and one untimed warm-up round,
first (cold) library calls included.

``--trace 0`` reports the end-to-end metrics over rounds started until
``--seconds`` have passed.  ``--trace 1`` installs the span tracer and
reports the per-layer metrics instead, over the workload's fixed
``trace_rounds`` whatever ``--seconds`` says, so call counts and bytes are
the same for every commit and busy times compare like with like; after
those rounds it runs one more round under ``tracemalloc`` for peak
allocations.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record (with
the environment stamp) goes to ``.perfbench/runs/`` and the spans of a
traced run to ``.perfbench/traces/``.  A failed job or check makes the exit
code 1; a checkout without ``src/locsym`` gives exit code 2 and no result.

``--workload all`` runs every workload in its own fresh process (so each
``peak_rss_mb`` is its own), prints one table, and with ``--trace 1`` adds
a traced run per workload and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import benchenv

TAIL_QUANTILE = 3  # job_tail_s is the third quartile, p75
WORKLOAD_NAMES = ("apply_256", "spectral_255", "roster_128")


def tail_stat(latencies) -> tuple:
    """(value, percentile, samples beyond) of the job latency tail.

    A fixed percentile, interpolated linearly: jobs come in whole rounds of
    a fixed mix of kinds, so p75 always falls at the same place in that mix.
    A percentile picked per run from the job count would move across the
    mix as the count changes by one round.  The record carries how many
    samples lie beyond it.
    """
    if len(latencies) < 2:
        return latencies[0], 100.0, 0
    value = statistics.quantiles(latencies, n=4, method="inclusive")[TAIL_QUANTILE - 1]
    return value, 25.0 * TAIL_QUANTILE, sum(1 for x in latencies if x > value)


def execute(job, job_id, tracer):
    """Run one job, then check and score it outside its timed span.

    Returns (seconds, problems, scores); an exception in the job or in its
    check is a problem, recorded with its traceback.
    """
    span = tracer.job(job_id, job.kind) if tracer else nullcontext()
    tic = time.perf_counter()
    try:
        with span:
            out = job.run()
    except Exception:  # a failed job is counted, and the loop goes on
        return time.perf_counter() - tic, [traceback.format_exc(limit=4)], []
    seconds = time.perf_counter() - tic
    try:
        problems = job.check(out)
        scores = [] if problems else job.score(out)
    except Exception:
        return seconds, [traceback.format_exc(limit=4)], []
    return seconds, problems, scores


def measure(workload, seed: int, seconds: float, traced: bool, work) -> dict:
    from tracing import Tracer

    failures = []
    attempted = failed = 0
    tic = time.perf_counter()
    workload.setup(work, seed)
    for job in workload.round(0):  # warm-up: one job of each kind
        attempted += 1
        _, problems, _ = execute(job, None, None)
        failed += bool(problems)
        failures += [f"warm-up {job.kind}: {p}" for p in problems]
    setup_s = time.perf_counter() - tic

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    latencies, scores = [], []
    rounds = 0
    start = time.perf_counter()

    def more():
        if tracer:
            return rounds < workload.trace_rounds
        return time.perf_counter() - start < seconds

    try:
        while more():
            for job in workload.round(rounds):
                attempted += 1
                job_seconds, problems, job_scores = execute(job, attempted, tracer)
                if problems:
                    failed += 1
                    failures += [f"round {rounds} {job.kind}: {p}" for p in problems]
                    continue
                latencies.append(job_seconds)
                if rounds < workload.stat_rounds:
                    scores += job_scores
            rounds += 1
        wall = time.perf_counter() - start
        if tracer:
            # one more round under tracemalloc, after the timed ones: it slows
            # Python-heavy layers and leaves the heap in another state
            tracer.trace_memory()
            for job in workload.round(rounds):
                attempted += 1
                _, problems, _ = execute(job, attempted, tracer)
                failed += bool(problems)
                failures += [f"memory round {job.kind}: {p}" for p in problems]
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "tracer": tracer,
        "setup_s": setup_s,
        "latencies": latencies,
        "scores": scores,
        "rounds": rounds,
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def end_to_end_metrics(m: dict) -> tuple:
    lat = m["latencies"]
    tail, pct, beyond = tail_stat(lat)
    metrics = {
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (m["setup_s"], "s"),
        "rel_l1_mean_pct": (statistics.fmean(m["scores"]) if m["scores"] else math.nan, "%"),
    }
    details = {"job_tail_percentile": pct, "job_tail_samples_beyond": beyond,
               "jobs": len(lat)}
    return metrics, details


def traced_metrics(m: dict) -> tuple:
    tracer = m["tracer"]
    lat = m["latencies"]
    metrics = tracer.layer_metrics()
    metrics["trace.jobs_per_s"] = (len(lat) / sum(lat), "1/s")
    metrics["trace.coverage_pct"] = (100.0 * tracer.coverage(), "%")
    return metrics, {"spans": len(tracer.spans)}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    try:
        benchenv.use_checkout_source()
    except benchenv.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    work = benchenv.OUT / "work" / f"{name}-{os.getpid()}"
    try:
        m = measure(workload, seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = benchenv.OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)

    if m["latencies"]:
        metrics, details = (traced_metrics if traced else end_to_end_metrics)(m)
    else:
        metrics, details = {}, {}
    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": name,
        "trace": int(traced),
        "seconds": seconds,
        "environment": benchenv.environment_stamp(seed),
        "metrics": named,
        "details": details,
        "rounds": m["rounds"],
        "wall_s": m["wall_s"],
        "setup_s": m["setup_s"],
        "latencies_s": m["latencies"],
        "error_rate": m["failed"] / m["attempted"],
        "failures": m["failures"],
    }
    if traced:
        untraced = runs / f"{name}-seed{seed}-trace0.json"
        if untraced.is_file() and "trace.jobs_per_s" in metrics:
            base = json.loads(untraced.read_text())["metrics"]["jobs_per_s"]["value"]
            record["tracing_overhead_pct"] = (
                100.0 * (base - metrics["trace.jobs_per_s"][0]) / base)
        traces = benchenv.OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        m["tracer"].write(traces / f"{name}-seed{seed}.json")
    with open(runs / f"{name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for problem in m["failures"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {name} seed={seed} trace={int(traced)} rounds={m['rounds']} "
          f"jobs={len(m['latencies'])} error_rate={record['error_rate']:.4g} "
          + " ".join(f"{k}={v}" for k, v in details.items()))
    if "tracing_overhead_pct" in record:
        print(f"# tracing overhead {record['tracing_overhead_pct']:.2f}% of jobs_per_s")
    for key, (value, unit) in metrics.items():
        print(f"{key:<40} {value:>14.6g} {unit}")
    correct = m["failed"] == 0 and bool(m["latencies"])
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": named,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in a fresh process of its own; one table at the end."""
    status = 0
    table = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if traced else (0,):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0 or not lines:
                status = proc.returncode or 1
                continue
            table[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(table))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
