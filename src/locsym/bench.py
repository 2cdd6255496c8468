"""Benchmark harness: run all five recovery methods over a symbol roster.

The report compares each method's relative L1 error against the true
symbol.  Handling of the quadratic methods follows how they are used in
practice: white-noise and plane-tiling estimates target the squared
symbol, so for non-negative symbols the comparison is made after an
entrywise square root and for signed symbols the truth is squared (the row
is flagged).  Weighted-Wigner estimates are aligned by the window-center
offset (a circular roll of L//2 along the time axis) before comparison.
"""

from __future__ import annotations

import numbers
import time

import numpy as np

from .core import WindowSystem, hermite_system, make_gaussian_window
from .errors import ValidationError
from .metrics import rel_l1_error
from .operator import build_locop
from .recovery import recover
from .symbols import SymbolSpec, gen_symbol

SCHEMA_VERSION = 1
METHODS = ("wn", "was", "wawd", "pt", "gp")


def parse_window(kind: str, size: int) -> np.ndarray:
    """Window from a CLI-style spec: ``gauss`` or ``hermite:k``."""
    if kind == "gauss":
        return make_gaussian_window(size).astype(np.complex128)
    if kind.startswith("hermite:"):
        try:
            k = int(kind.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad hermite window spec {kind!r}") from exc
        if k < 0:
            raise ValidationError("hermite window order must be >= 0")
        return hermite_system(size, k + 1)[k]
    raise ValidationError(f"unknown window kind {kind!r}")


def window_system_from_config(spec, size: int) -> WindowSystem:
    """Equal-weight window system from one window spec or a list of them."""
    kinds = [spec] if isinstance(spec, str) else list(spec)
    if not kinds:
        raise ValidationError("window list is empty")
    weight = 1.0 / len(kinds)
    return WindowSystem.from_pairs(
        [(weight, parse_window(kind, size)) for kind in kinds]
    )


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# (key, test, what the value must be) for each top-level config key
_CONFIG_CHECKS = (
    ("size", _is_integer, "an integer"),
    ("noise_draws", _is_integer, "an integer"),
    ("seed", _is_integer, "an integer"),
    ("eig_terms", lambda v: v is None or _is_integer(v), "an integer or null"),
    ("sigma2", _is_real, "a real number"),
    ("window", lambda v: isinstance(v, str) or (
        isinstance(v, list) and len(v) > 0
        and all(isinstance(kind, str) for kind in v)),
     "a string or a non-empty list of strings"),
    ("recon_window", lambda v: v is None or isinstance(v, str),
     "a string or null"),
    ("symbols", lambda v: isinstance(v, list), "a list of objects"),
)


def _check_config(config) -> None:
    if not isinstance(config, dict):
        raise ValidationError("bench config must be a JSON object")
    if config.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported config schema_version {config.get('schema_version')!r}"
        )
    if "size" not in config:
        raise ValidationError("bench config needs 'size'")
    for key, valid, what in _CONFIG_CHECKS:
        if key in config and not valid(config[key]):
            raise ValidationError(
                f"config {key!r} must be {what}, got {config[key]!r}")


def _symbol_specs(entries, size: int) -> list:
    specs = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("kind"), str)):
            raise ValidationError(
                f"each symbol must be an object with a string 'kind', got {entry!r}")
        name = entry.get("name", entry["kind"])
        params = entry.get("params", {})
        value_range = entry.get("value_range", (0.0, 1.0))
        if not isinstance(name, str):
            raise ValidationError(f"symbol name must be a string, got {name!r}")
        if not isinstance(params, dict):
            raise ValidationError(f"symbol {name!r}: params must be an object")
        if not (isinstance(value_range, (list, tuple)) and len(value_range) == 2
                and all(_is_real(v) for v in value_range)):
            raise ValidationError(
                f"symbol {name!r}: value_range must be two numbers, "
                f"got {value_range!r}")
        specs.append((name, SymbolSpec(entry["kind"], size, params,
                                       tuple(value_range))))
    return specs


def _compare(method: str, estimate: np.ndarray, truth: np.ndarray,
             signed: bool, size: int):
    """Return (error, flags) for one method row."""
    flags = {}
    if method in ("wn", "pt"):
        if signed:
            flags["squared_target"] = True
            return rel_l1_error(estimate, truth ** 2), flags
        flags["sqrt_compare"] = True
        return rel_l1_error(np.sqrt(np.clip(estimate, 0.0, None)), truth), flags
    if method == "wawd":
        flags["time_aligned"] = True
        if size % 2 == 0:
            flags["even_length_artifacts"] = True
        return rel_l1_error(np.roll(estimate, -(size // 2), axis=0), truth), flags
    return rel_l1_error(estimate, truth), flags


def bench_all(config: dict) -> dict:
    """Run every method on every configured symbol; returns the report.

    Deterministic for a fixed seed.  The config is checked before any work
    (ValidationError): ``size`` (required), ``noise_draws``, ``seed`` and
    ``eig_terms`` (null: L) are integers, ``sigma2`` a real number,
    ``window`` a string or a non-empty list of strings, ``recon_window`` a
    string or null, and ``symbols`` a list of objects with a string
    ``kind``, optional string ``name``, object ``params`` and two-number
    ``value_range``.
    """
    _check_config(config)
    size = int(config["size"])
    window_spec = config.get("window", "gauss")
    recon_spec = config.get("recon_window", None)
    draws = int(config.get("noise_draws", 200))
    sigma2 = float(config.get("sigma2", 1.0))
    seed = int(config.get("seed", 0))
    terms = config.get("eig_terms")
    terms = size if terms is None else int(terms)
    specs = _symbol_specs(config.get("symbols", []), size)

    windows = window_system_from_config(window_spec, size)
    if recon_spec is None:
        phi = windows.windows[0]
    else:
        phi = parse_window(recon_spec, size)

    rows = []
    for name, spec in specs:
        truth = gen_symbol(spec)
        signed = spec.value_range[0] < 0.0
        op = build_locop(truth, windows)
        for method in METHODS:
            tic = time.perf_counter()
            estimate = recover(method, op, phi, terms=terms, draws=draws,
                               noise_var=sigma2, seed=seed).estimate
            seconds = time.perf_counter() - tic
            err, flags = _compare(method, estimate, truth, signed, size)
            rows.append({
                "symbol": name,
                "method": method,
                "rel_l1_error": err,
                "percent": 100.0 * err,
                "seconds": seconds,
                "flags": flags,
            })
    resolved = {
        "size": size,
        "window": window_spec,
        "recon_window": recon_spec,
        "noise_draws": draws,
        "sigma2": sigma2,
        "seed": seed,
        "eig_terms": terms,
        "symbols": [name for name, _ in specs],
    }
    return {"schema_version": SCHEMA_VERSION, "config": resolved, "rows": rows}


def report_text(report: dict) -> str:
    """Aligned text table, percentages with one decimal."""
    symbols = list(dict.fromkeys(row["symbol"] for row in report["rows"]))
    lines = ["symbol                 " + "".join(f"{m.upper():>8}" for m in METHODS)]
    for name in symbols:
        cells = []
        for method in METHODS:
            row = next(r for r in report["rows"]
                       if r["symbol"] == name and r["method"] == method)
            cells.append(f"{row['percent']:>7.1f}%")
        lines.append(f"{name:<22} " + "".join(cells))
    return "\n".join(lines) + "\n"


def report_csv(report: dict) -> str:
    lines = ["symbol,method,rel_l1_error,percent,seconds"]
    for row in report["rows"]:
        lines.append(
            f"{row['symbol']},{row['method']},{row['rel_l1_error']:.17g},"
            f"{row['percent']:.17g},{row['seconds']:.6f}"
        )
    return "\n".join(lines) + "\n"
