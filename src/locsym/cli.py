"""Command-line front end.

Subcommands: gen-symbol, recover, impulse, deconvolve, bench.  Exit codes:
0 success, 2 validation error or unreadable file, 3 numerical failure.
Estimates are written as PGM (viewable) plus CSV (exact) with a JSON sidecar
embedding the full resolved configuration, so every run is self-describing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (SCHEMA_VERSION, bench_all, report_csv, report_text,
                    resolve_windows)
from .core import hermite_system
from .errors import NumericalError, ValidationError
from .mapio import (_open_new, check_value_range, load_csv, load_map, save_csv,
                    save_pgm)
from .operator import build_locop, load_locop, save_locop
from .recovery import (IMPULSE_ESTIMATORS, METHODS, SQUARED_TARGET, deconvolve,
                       impulse_kernel, recover)
from .symbols import KINDS, SymbolSpec, compress_positive_frequency, gen_symbol


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy wheels ship OpenBLAS in ``numpy.libs`` with prefixed symbols;
    ctypes reaches the copy numpy has already loaded.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _limit_threads(threads: int):
    """Cap BLAS threads through threadpoolctl or, without it, numpy's OpenBLAS."""
    if threads == 0:
        return
    try:
        import threadpoolctl
    except ImportError:
        calls = _openblas_threads()
        if calls is None:
            print(f"warning: --threads {threads} ignored: neither threadpoolctl "
                  "nor numpy's bundled OpenBLAS was found", file=sys.stderr)
        else:
            calls[1](threads)
        return
    threadpoolctl.threadpool_limits(threads)


def _parse_basis(spec: str, size: int):
    if spec in ("standard", "dft"):
        return None  # complete: pt needs only A A*
    if spec.startswith("hermite:"):
        body = spec.split(":", 1)[1]
        try:
            count_part, at = body.split("@") if "@" in body else (body, "0,0")
            count = int(count_part)
            n0, m0 = (int(v) for v in at.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad basis spec {spec!r}") from exc
        return hermite_system(size, count, (n0, m0))
    raise ValidationError(f"unknown basis {spec!r}")


def _parse_region(spec: str, size: int):
    try:
        n0, m0, n1, m1 = (int(v) for v in spec.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad region {spec!r}, expected n0,m0,n1,m1") from exc
    # each axis range reduced mod L first: a span of L or more is the whole axis
    rows, cols = ((lo % size + np.arange(min(hi - lo + 1, size))) % size
                  for lo, hi in ((n0, n1), (m0, m1)))
    if not (rows.size and cols.size):
        raise ValidationError(f"region {spec!r} is empty")
    points = np.empty((rows.size, cols.size, 2), dtype=np.intp)
    points[..., 0] = rows[:, None]
    points[..., 1] = cols
    return points.reshape(-1, 2)  # (n, m) rows, m fastest


# result.meta values copied into the recover sidecar, under their sidecar names
_SIDECAR_META = (("draws", "draws"), ("noise_var", "sigma2"), ("seed", "seed"),
                 ("noise_var_hat", "sigma2_hat"), ("terms", "eig_terms"),
                 ("eig_tail_mass", "eig_tail_mass"))


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _check_out_dirs(*paths):
    """Fail before any work when an output path's directory is missing."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValidationError(f"output directory of {path!r} does not exist")


def _json_text(obj) -> str:
    """The text of a sidecar or report JSON file."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(grid, out: str, sidecar: dict, value_range):
    base = out[:-4] if out.lower().endswith((".pgm", ".csv")) else out
    save_pgm(grid, base + ".pgm", value_range)
    save_csv(grid, base + ".csv")
    with _open_new(base + ".json", "x") as fh:
        fh.write(_json_text(sidecar))


def _cmd_gen_symbol(args) -> int:
    _check_out_dirs(args.out, args.csv)
    params = _parse_json(args.params, "--params") if args.params else {}
    # --radius wins over params; SymbolSpec rejects a params that is no object
    if args.radius is not None and isinstance(params, dict):
        params = {**params, "radius": args.radius}
    spec = SymbolSpec(args.kind, args.size, params,
                      (args.range_lo, args.range_hi))
    grid = gen_symbol(spec)
    save_pgm(grid, args.out, spec.value_range)
    if args.csv:
        save_csv(grid, args.csv)
    return 0


def _cmd_recover(args) -> int:
    _check_out_dirs(args.out, args.dump_operator)
    value_range = (args.range_lo, args.range_hi)
    out_range = value_range
    if args.method in SQUARED_TARGET:
        out_range = (0.0, max(1.0, *(v * v for v in value_range)))
    check_value_range(value_range)
    check_value_range(out_range)
    symbol = load_map(args.symbol, value_range)
    if symbol.shape[0] != args.size:
        raise ValidationError(
            f"symbol size {symbol.shape[0]} != --size {args.size}"
        )
    if args.compress_positive_frequency:
        symbol = compress_positive_frequency(symbol)
    windows, phi = resolve_windows(args.window.split(","), args.recon_window, args.size)

    tic = time.perf_counter()
    if args.operator:
        op = load_locop(args.operator)
        if op.size != args.size:
            raise ValidationError("loaded operator size mismatch")
    else:
        op = build_locop(symbol, windows)
    if args.dump_operator:
        save_locop(op, args.dump_operator)

    meta = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "method": args.method,
        "size": args.size,
        "symbol": args.symbol,
        "symbol_hash": op.symbol_hash,
        "window": args.window,
        "recon_window": args.recon_window,
        "value_range": list(value_range),
        "compress_positive_frequency": args.compress_positive_frequency,
    }
    meta.update({"pt": {"basis": args.basis},
                 "gp": {"region": args.region}}.get(args.method, {}))
    result = recover(
        args.method, op, phi, terms=args.eigs, draws=args.noise_draws,
        noise_var=args.sigma2, seed=args.seed,
        basis=_parse_basis(args.basis, args.size) if args.method == "pt" else None,
        region=(_parse_region(args.region, args.size)
                if args.method == "gp" and args.region else None),
    )
    meta.update({name: result.meta[key] for key, name in _SIDECAR_META
                 if key in result.meta})
    meta["seconds"] = time.perf_counter() - tic
    _write_outputs(result.estimate, args.out, meta, out_range)
    return 0


def _cmd_impulse(args) -> int:
    _check_out_dirs(args.out)
    windows, phi = resolve_windows(args.window.split(","), args.recon_window, args.size)
    kernel = impulse_kernel(windows, phi, mode=args.mode,
                            estimator=args.estimator)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "mode": args.mode,
        # the analytic kernel runs no estimator
        "estimator": args.estimator if args.mode == "measured" else None,
        "window": args.window,
        "size": args.size,
        "kernel_mass": float(kernel.sum()),
    }
    _write_outputs(kernel, args.out, sidecar, (0.0, float(kernel.max()) or 1.0))
    return 0


def _cmd_deconvolve(args) -> int:
    if not args.kernel.lower().endswith(".csv"):
        raise ValidationError(f"--kernel {args.kernel!r}: give the CSV that impulse "
                              f"wrote, {os.path.splitext(args.kernel)[0]}.csv")
    _check_out_dirs(args.out)
    value_range = (args.range_lo, args.range_hi)
    check_value_range(value_range)
    est = load_map(args.est, value_range)
    kernel = load_csv(args.kernel)
    out = deconvolve(est, kernel, args.eps)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "est": args.est,
        "kernel": args.kernel,
        "eps": args.eps,
    }
    _write_outputs(out, args.out, sidecar, value_range)
    return 0


def _cmd_bench(args) -> int:
    out = os.path.normpath(args.out)
    if os.path.exists(out) and not os.path.isdir(out):
        raise ValidationError(f"--out {args.out!r} is not a directory")
    _check_out_dirs(out)
    with open(args.config) as fh:
        config = _parse_json(fh.read(), f"--config {args.config}")
    report = bench_all(config)
    os.makedirs(args.out, exist_ok=True)
    text = report_text(report)
    for name, body in (("report.json", _json_text(report)),
                       ("report.txt", text), ("report.csv", report_csv(report))):
        with _open_new(os.path.join(args.out, name), "x") as fh:
            fh.write(body)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locsym",
        description="Time-frequency localization operators and symbol recovery.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--threads", type=int, default=0,
                        help="cap BLAS threads, N >= 0 (0 = leave as is)")
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several subcommands declare alike
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--size", type=int, required=True)
    value_range = argparse.ArgumentParser(add_help=False)
    value_range.add_argument("--range-lo", type=float, default=0.0)
    value_range.add_argument("--range-hi", type=float, default=1.0)
    windows = argparse.ArgumentParser(add_help=False)
    windows.add_argument("--window", default="gauss",
                         help="analysis window(s), comma-separated: gauss, hermite:k")
    windows.add_argument("--recon-window",
                         help="reconstruction window (default: first analysis window)")

    p = sub.add_parser("gen-symbol", help="generate a synthetic symbol",
                       parents=[size, value_range])
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--radius", type=float,
                   help="circle radius, overriding one in --params")
    p.add_argument("--params", help="kind parameters as a JSON object")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--csv", help="also write exact CSV here")
    p.set_defaults(func=_cmd_gen_symbol)

    p = sub.add_parser("recover", help="build the operator and run a method",
                       parents=[size, windows, value_range])
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--symbol", required=True, help="symbol file (PGM or CSV)")
    p.add_argument("--K", dest="noise_draws", type=int, default=100,
                   help="white-noise realizations")
    p.add_argument("--sigma2", type=float, default=1.0, help="noise variance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eigs", type=int, help="eigenpairs for was/wawd (default L)")
    p.add_argument("--basis", default="standard",
                   help="pt basis: standard | dft | hermite:N@n,m")
    p.add_argument("--region", help="gp region n0,m0,n1,m1 (inclusive)")
    p.add_argument("--compress-positive-frequency", action="store_true",
                   help="zero the upper frequency half of the symbol first")
    p.add_argument("--operator", help="reuse a dumped operator instead of building")
    p.add_argument("--dump-operator", help="dump the built operator here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("impulse", help="impulse-response kernel of the pipeline",
                       parents=[size, windows])
    p.add_argument("--mode", required=True, choices=["analytic", "measured"])
    p.add_argument("--estimator", default="gp", choices=IMPULSE_ESTIMATORS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_impulse)

    p = sub.add_parser("deconvolve", help="divide out a blurring kernel",
                       parents=[value_range])
    p.add_argument("--est", required=True, help="estimate file (CSV preferred)")
    p.add_argument("--kernel", required=True, help="kernel CSV written by impulse")
    p.add_argument("--eps", type=float, required=True,
                   help="relative spectral threshold in (0, 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_deconvolve)

    p = sub.add_parser("bench", help="full multi-method comparison run")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 0:
        parser.error(f"argument --threads: must be >= 0, got {args.threads}")
    _limit_threads(args.threads)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
