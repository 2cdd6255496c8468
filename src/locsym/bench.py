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

import csv
import io
import time

import numpy as np

from .core import (LENGTH_RULE, WindowSystem, hermite_system, is_length,
                   make_gaussian_window)
from .errors import ValidationError
from .metrics import rel_l1_error
from .operator import build_locop
from .recovery import METHODS, SQUARED_TARGET, _check_options, recover
from .symbols import SymbolSpec, check_fields, gen_symbol

SCHEMA_VERSION = 1


def parse_window(kind: str, size: int) -> np.ndarray:
    """Window from a CLI-style spec: the string ``gauss`` or ``hermite:k``."""
    if not isinstance(kind, str):
        raise ValidationError(f"window spec must be a string, got {kind!r}")
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
    """Equal-weight window system from one window spec or a non-empty
    list of them."""
    kinds = [spec] if isinstance(spec, str) else spec
    if not (isinstance(kinds, (list, tuple)) and kinds):
        raise ValidationError("window must be a string or a non-empty list "
                              f"of strings, got {spec!r}")
    weight = 1.0 / len(kinds)
    return WindowSystem.from_pairs(
        [(weight, parse_window(kind, size)) for kind in kinds]
    )


def resolve_windows(spec, recon_spec, size: int):
    """(analysis windows, reconstruction window); None: the first analysis one."""
    windows = window_system_from_config(spec, size)
    phi = windows.windows[0] if recon_spec is None else parse_window(recon_spec, size)
    return windows, phi


# (key, test, what the value must be) for the top-level config keys that
# no reader checks: recovery's option rules check the estimator options,
# parse_window and window_system_from_config the windows
_CONFIG_CHECKS = (
    ("size", is_length, LENGTH_RULE),
    ("symbols", lambda v: isinstance(v, list), "a list of objects"),
)
# each config key that sets an estimator option: (the option, whose rule
# checks the value, and the type the report holds it as: a numpy integer
# reads as a plain int, an integer sigma2 1 as 1.0)
_OPTION_KEYS = {"noise_draws": ("draws", int), "sigma2": ("noise_var", float),
                "seed": ("seed", int), "eig_terms": ("terms", int)}
# a symbol entry's own key; SymbolSpec checks kind, params and value_range
_SYMBOL_CHECKS = (("name", lambda v: isinstance(v, str), "a string"),)


def _check_config(config) -> None:
    check_fields(config, _CONFIG_CHECKS, "bench config")
    if config.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported config schema_version {config.get('schema_version')!r}"
        )
    if "size" not in config:
        raise ValidationError("bench config needs 'size'")


def _symbol_specs(entries, size: int) -> dict:
    specs = {}
    for index, entry in enumerate(entries):
        try:
            check_fields(entry, _SYMBOL_CHECKS, "symbol")
            spec = SymbolSpec(entry.get("kind"), size, **{
                key: entry[key] for key in ("params", "value_range")
                if key in entry})
        except ValidationError as exc:
            name = entry.get("name") if isinstance(entry, dict) else None
            where = f"symbols[{index}]" + (f" ({name!r})" if name else "")
            raise ValidationError(f"{where}: {exc}") from exc
        name = entry.get("name", spec.kind)
        if name in specs:
            raise ValidationError(f"symbols[{index}] ({name!r}): duplicate name; "
                                  'give each entry a unique "name"')
        specs[name] = spec
    return specs


def _compare(method: str, estimate: np.ndarray, truth: np.ndarray,
             signed: bool, size: int):
    """Return (error, flags) for one method row."""
    flags = {}
    if method in SQUARED_TARGET:
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

    Deterministic for a fixed seed.  The config is checked, types and
    ranges, before any symbol is generated (ValidationError): ``size``
    (required) is an integer in 4..MAX_LENGTH; ``noise_draws`` an integer
    >= 1, ``sigma2`` a finite real > 0, ``seed`` an integer in
    0..2**64-1 and ``eig_terms`` an integer in 1..size or null (L), by
    the rules ``wn`` and ``was``/``wawd`` apply; ``window`` a string or a
    non-empty list of strings, ``recon_window`` a string or null, and
    ``symbols`` a list of objects, each with an optional string ``name``
    (default: its kind; no two entries may share one) and the ``kind``,
    ``params`` and ``value_range`` that ``SymbolSpec`` checks.
    """
    _check_config(config)
    size = int(config["size"])
    terms = config.get("eig_terms")
    resolved = {
        "size": size,
        "window": config.get("window", "gauss"),
        "recon_window": config.get("recon_window"),
        "noise_draws": config.get("noise_draws", 200),
        "sigma2": config.get("sigma2", 1.0),
        "seed": config.get("seed", 0),
        "eig_terms": size if terms is None else terms,
    }
    options = {}
    for key, (option, cast) in _OPTION_KEYS.items():
        _check_options(size, f"bench config {key!r}", **{option: resolved[key]})
        resolved[key] = options[option] = cast(resolved[key])
    specs = _symbol_specs(config.get("symbols", []), size)
    windows, phi = resolve_windows(resolved["window"], resolved["recon_window"],
                                   size)

    rows = []
    for name, spec in specs.items():
        truth = gen_symbol(spec)
        signed = spec.value_range[0] < 0.0
        op = build_locop(truth, windows)
        for method in METHODS:
            tic = time.perf_counter()
            estimate = recover(method, op, phi, **options).estimate
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
    resolved["symbols"] = list(specs)
    return {"schema_version": SCHEMA_VERSION, "config": resolved, "rows": rows}


def report_text(report: dict) -> str:
    """Aligned text table, percentages with one decimal."""
    percent = {(row["symbol"], row["method"]): row["percent"]
               for row in report["rows"]}
    symbols = dict.fromkeys(name for name, _ in percent)
    lines = ["symbol                 " + "".join(f"{m.upper():>8}" for m in METHODS)]
    for name in symbols:
        cells = "".join(f"{percent[name, method]:>7.1f}%" for method in METHODS)
        lines.append(f"{name:<22} " + cells)
    return "\n".join(lines) + "\n"


def report_csv(report: dict) -> str:
    """CSV table, one row per (symbol, method); names are quoted as needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [("symbol", "method", "rel_l1_error", "percent", "seconds")]
        + [(row["symbol"], row["method"], f"{row['rel_l1_error']:.17g}",
            f"{row['percent']:.17g}", f"{row['seconds']:.6f}")
           for row in report["rows"]])
    return buf.getvalue()
