"""Ungated layer sweep: per-layer time and peak allocation against L.

    python3 perfbench/sweep.py

For each L in SIZES it builds the circle symbol's operator over one
Gaussian window and times every layer on its own: build, eig, the five
estimators (was and wawd with all L eigenpairs, pt with the standard basis,
wn with DRAWS realizations), wn_limit, the analytic impulse kernel,
deconvolution and CSV/PGM I/O.  Each layer runs once to warm up, then
``reps(L)`` times timed (the median is reported), then once under
``tracemalloc`` for its peak allocation.  The table continues the scaling
table in ROADMAP.md.  It is not a gated workload: one L = 512 pass takes
minutes and wn alone peaks above 1 GB there.  Results go to stdout and to ``.perfbench/sweep.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import benchenv

SIZES = (64, 128, 256, 512)
DRAWS = 128


def reps(size: int) -> int:
    """Timed repetitions per layer: one at L = 512, where a pass takes minutes."""
    return 1 if size >= 512 else 3


def layers(size: int, tmp: Path):
    """(name, thunk) pairs in pipeline order; later thunks reuse earlier results."""
    import locsym as ls

    g = ls.make_gaussian_window(size).astype(complex)
    windows = ls.WindowSystem.single(g)
    f = ls.gen_symbol(ls.SymbolSpec("circle", size))
    state = {"op": ls.build_locop(f, windows)}
    state["spectrum"] = ls.eigendecompose(state["op"])
    state["gp"] = ls.gp_recover(state["op"], g).estimate
    state["kernel"] = ls.impulse_kernel(windows, g)
    csv = str(tmp / "map.csv")
    ls.save_csv(state["gp"], csv)
    return [
        ("build_locop", lambda: ls.build_locop(f, windows)),
        ("eigendecompose", lambda: ls.eigendecompose(state["op"])),
        ("gp_recover", lambda: ls.gp_recover(state["op"], g)),
        ("was_recover", lambda: ls.was_recover(state["spectrum"], windows, size)),
        ("wawd_recover", lambda: ls.wawd_recover(state["spectrum"], size)),
        ("pt_recover", lambda: ls.pt_recover(state["op"], ls.standard_basis(size), g)),
        ("wn_recover", lambda: ls.wn_recover(state["op"], g, DRAWS, 1.0, 0)),
        ("wn_limit", lambda: ls.wn_limit(state["spectrum"], g)),
        ("impulse_kernel", lambda: ls.impulse_kernel(windows, g)),
        ("deconvolve", lambda: ls.deconvolve(state["gp"], state["kernel"], 1e-6)),
        ("save_csv", lambda: ls.save_csv(state["gp"], csv)),
        ("load_map", lambda: ls.load_map(csv)),
        ("save_pgm", lambda: ls.save_pgm(state["gp"], str(tmp / "map.pgm"))),
    ]


def sweep() -> dict:
    results = {}
    with tempfile.TemporaryDirectory(dir=benchenv.OUT) as tmp:
        for size in SIZES:
            row = {}
            for name, thunk in layers(size, Path(tmp)):
                thunk()
                times = []
                for _ in range(reps(size)):
                    tic = time.perf_counter()
                    thunk()
                    times.append(time.perf_counter() - tic)
                tracemalloc.start()
                try:
                    thunk()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                row[name] = {"p50_ms": 1e3 * statistics.median(times),
                             "peak_alloc_mb": peak / 2.0 ** 20}
                print(f"L={size:<4} {name:<16} {row[name]['p50_ms']:>10.2f} ms "
                      f"{row[name]['peak_alloc_mb']:>9.2f} MB", flush=True)
            results[str(size)] = {"reps": reps(size), "draws": DRAWS, "layers": row}
    return results


def main() -> int:
    try:
        benchenv.use_checkout_source()
    except benchenv.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    benchenv.OUT.mkdir(exist_ok=True)
    record = {"environment": benchenv.environment_stamp(seed=0), "sizes": sweep()}
    with open(benchenv.OUT / "sweep.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
