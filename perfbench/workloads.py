"""The benchmark's workloads: seeded inputs, job pipelines and their checks.

Each workload makes its inputs from the seed during set-up and then hands
out jobs in rounds.  A round holds one job of every kind the workload has,
so a run made of whole rounds always has the same mix of kinds.  A job
calls locsym's public functions in the order ``locsym recover`` or
``locsym bench`` calls them, writes its outputs through the CLI's own
writer (``locsym.cli._write_outputs``: PGM, CSV and JSON sidecar), and
returns what its checks and its score need.  Checks and scores run outside
the job's timed span.

Functions are looked up on their module at call time (``operator.build_locop``)
so that a traced run, which swaps module attributes, sees every call.

apply_256     L = 256, windows gauss + hermite:1; gp (+ impulse kernel and
              deconvolution), pt with the standard and a Hermite basis, wn.
              The apply-only path: build_locop and the O(L^3) estimators do
              the work and eigendecompose is never called.
spectral_255  L = 255; LOCOP1 dumps made at set-up are loaded and
              eigendecomposed, then was(L), was(L/8), wawd(L) or wn_limit.
              build_locop is bypassed; odd L makes the wawd identity exact.
roster_128    one bench_all per job on the README configuration plus a
              signed tiles symbol, report written like ``locsym bench``.
              Small L, where per-call overhead and wn's Monte-Carlo cost
              show, and signed symbols give +-lambda eigenvalue pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from locsym import bench, cli, core, mapio, operator, recovery, symbols
from locsym.wigner import wigner

SIGMA2 = 1.0
DECONV_EPS = 1e-6
EXACT_TOL = 1e-8      # gp = was(N=L) = f conv kernel, wawd = f conv W / L
SUM_RTOL = 1e-10      # energy identities of pt and wn_limit
NOISE_RTOL = 0.03     # wn's noise_var_hat / sigma2


@dataclass
class Job:
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    score: Callable[[dict], list]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# (centre n, centre m, width, amplitude) of the gaussians symbol's bumps, as
# fractions of L; the same three bumps locsym.symbols draws by default
_BUMPS = ((0.32, 0.36, 0.095, 1.0), (0.62, 0.56, 0.075, 0.8), (0.44, 0.72, 0.11, 0.6))


def jittered_spec(kind: str, size: int, rng: np.random.Generator) -> symbols.SymbolSpec:
    """A benchmark symbol with its geometry or level jittered by ``rng``.

    The jitter is small on purpose: every seed gets new inputs, while the
    recovery error, and so ``rel_l1_mean_pct``, stays nearly the same.
    """
    params = {}
    hi = 1.0
    if kind == "circle":
        params = {"radius": 0.25 * size * rng.uniform(0.98, 1.02),
                  "center": tuple(size / 2 + rng.uniform(-2.0, 2.0, 2))}
    elif kind == "gaussians":
        params = {"bumps": [((cn + rng.uniform(-0.02, 0.02)) * size,
                             (cm + rng.uniform(-0.02, 0.02)) * size,
                             w * size * rng.uniform(0.98, 1.02), a)
                            for cn, cm, w, a in _BUMPS]}
    elif kind == "star":
        params = {"points": 5, "rotation": -math.pi / 2 + rng.uniform(-0.1, 0.1),
                  "r_outer": 0.40 * size * rng.uniform(0.98, 1.02),
                  "r_inner": 0.16 * size * rng.uniform(0.98, 1.02)}
    elif kind == "tiles":
        params = {"count": 4}
        hi = rng.uniform(0.8, 1.0)
    elif kind == "lines_circles":  # fixed geometry: only the level varies
        hi = rng.uniform(0.8, 1.0)
    else:
        raise ValueError(f"no jitter rule for symbol kind {kind!r}")
    return symbols.SymbolSpec(kind, size, params, (0.0, hi))


def _not_finite(**arrays) -> list:
    return [f"{name} has non-finite entries"
            for name, a in arrays.items() if not np.all(np.isfinite(a))]


def _exceeds(what: str, value: float, bound: float) -> list:
    return [] if value <= bound else [f"{what} = {value:.3e} > {bound:.1e}"]


def _negative(what: str, a) -> list:
    low = float(np.min(a))
    return [] if low >= 0.0 else [f"{what} has negative entries (min {low:.3e})"]


def _rel_dev(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class Workload:
    """Seeded inputs plus the jobs of one workload.

    ``stat_rounds`` is how many leading rounds ``rel_l1_mean_pct`` averages
    over, and ``trace_rounds`` how many rounds a traced run makes: both are
    fixed job sets per seed, so neither the score nor the per-layer counts
    and sums drift with throughput.
    """

    name = ""
    stat_rounds = 1
    trace_rounds = 1

    def setup(self, work: Path, seed: int):
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError


class ApplyWorkload(Workload):
    name = "apply_256"
    SYMBOLS = ("circle", "gaussians", "star", "lines_circles", "tiles")
    METHODS = ("gp", "pt-standard", "pt-hermite", "wn")
    WINDOWS = ("gauss", "hermite:1")
    stat_rounds = 3
    trace_rounds = 5  # every (symbol, method) pair once

    def __init__(self, size: int = 256, draws: int = 128):
        self.size = size
        self.draws = draws

    def setup(self, work: Path, seed: int):
        self.seed = seed
        self.work = work
        (work / "out").mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for i, kind in enumerate(self.SYMBOLS):
            spec = jittered_spec(kind, self.size, _rng(seed, 1, i))
            truth = symbols.gen_symbol(spec)
            path = work / f"{kind}.csv"
            mapio.save_csv(truth, str(path))
            self.inputs.append((kind, spec, truth, path))

    def round(self, r: int) -> list:
        jobs = []
        for j, method in enumerate(self.METHODS):
            index = r * len(self.METHODS) + j
            kind, spec, truth, path = self.inputs[index % len(self.inputs)]
            jobs.append(self._job(method, kind, spec, truth, path, index))
        return jobs

    def _job(self, method, kind, spec, truth, path, index) -> Job:
        size = self.size
        hi = spec.value_range[1]
        wn_seed = int(_rng(self.seed, 2, index).integers(2 ** 31))
        base = self.work / "out" / f"{method}-{kind}"

        def run() -> dict:
            f = mapio.load_map(str(path), spec.value_range)
            windows = bench.window_system_from_config(list(self.WINDOWS), size)
            phi = windows.windows[0]
            op = operator.build_locop(f, windows)
            out = {"f": f, "op": op}
            sidecar = {"method": method, "size": size, "symbol": str(path),
                       "symbol_hash": op.symbol_hash, "window": ",".join(self.WINDOWS)}
            out_range = (0.0, max(1.0, hi ** 2))
            if method == "gp":
                est = recovery.gp_recover(op, phi).estimate
                kernel = recovery.impulse_kernel(windows, phi)
                grid = recovery.deconvolve(est, kernel, DECONV_EPS)
                out.update(est=est, kernel=kernel)
                sidecar["eps"] = DECONV_EPS
                out_range = spec.value_range
            elif method.startswith("pt-"):
                if method == "pt-standard":
                    basis = core.standard_basis(size)
                else:
                    basis = core.hermite_system(size, size // 2, (size // 2, size // 2))
                grid = recovery.pt_recover(op, basis, phi).estimate
                out["basis"] = basis
                sidecar["basis"] = method[3:]
            else:
                result = recovery.wn_recover(op, phi, self.draws, SIGMA2, wn_seed)
                grid = result.estimate
                out["noise_var_hat"] = result.meta["noise_var_hat"]
                sidecar.update(draws=self.draws, sigma2=SIGMA2, seed=wn_seed,
                               sigma2_hat=result.meta["noise_var_hat"])
            cli._write_outputs(grid, str(base), sidecar, out_range)
            out["grid"] = grid
            return out

        def check(out) -> list:
            grid, op = out["grid"], out["op"]
            problems = _not_finite(estimate=grid)
            if not np.array_equal(out["f"], truth):
                problems.append("symbol did not round-trip through CSV")
            if method == "gp":
                problems += _not_finite(gp=out["est"], kernel=out["kernel"])
                oracle = symbols.circ_conv2(out["f"], out["kernel"])
                problems += _exceeds("max |gp - f conv kernel|",
                                     float(np.max(np.abs(out["est"] - oracle))), EXACT_TOL)
            elif method.startswith("pt-"):
                problems += _negative("pt estimate", grid)
                images = op.matrix @ out["basis"].T
                energy = size * float(np.sum(images.real ** 2 + images.imag ** 2))
                problems += _exceeds("rel |sum(pt) - L ||A E^T||_F^2|",
                                     _rel_dev(float(grid.sum()), energy), SUM_RTOL)
            else:
                problems += _negative("wn estimate", grid)
                problems += _exceeds("|noise_var_hat / sigma2 - 1|",
                                     abs(out["noise_var_hat"] / SIGMA2 - 1.0), NOISE_RTOL)
            return problems

        def score(out) -> list:
            err, _ = bench._compare(method[:2], out["grid"], truth, False, size)
            return [100.0 * err]

        return Job(method, run, check, score)


class SpectralWorkload(Workload):
    name = "spectral_255"
    SYMBOLS = ("circle", "gaussians", "star", "tiles")
    WINDOW_SETS = (("gauss",), ("gauss", "hermite:1"))
    ESTIMATORS = ("was-full", "was-eighth", "wawd-full", "wn-limit")
    stat_rounds = 6
    trace_rounds = 8  # every (operator, estimator) pair once

    def __init__(self, size: int = 255):
        self.size = size

    def setup(self, work: Path, seed: int):
        self.work = work
        (work / "out").mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for i, kind in enumerate(self.SYMBOLS):
            spec = jittered_spec(kind, self.size, _rng(seed, 3, i))
            truth = symbols.gen_symbol(spec)
            for w, window_set in enumerate(self.WINDOW_SETS):
                windows = bench.window_system_from_config(list(window_set), self.size)
                path = work / f"{kind}-w{w}.locop"
                operator.save_locop(operator.build_locop(truth, windows), str(path))
                self.inputs.append((f"{kind}-w{w}", window_set, truth, path))

    def round(self, r: int) -> list:
        # estimator j of round r runs on operator (4r + j + r // 2) mod 8, so
        # every (operator, estimator) pair comes up within eight rounds
        count = len(self.inputs)
        jobs = []
        for j, estimator in enumerate(self.ESTIMATORS):
            index = r * len(self.ESTIMATORS) + j
            jobs.append(self._job(estimator, *self.inputs[(index + index // count) % count]))
        return jobs

    def _job(self, estimator, label, window_set, truth, path) -> Job:
        size = self.size
        terms = size // 8 if estimator == "was-eighth" else size
        base = self.work / "out" / f"{estimator}-{label}"

        def run() -> dict:
            op = operator.load_locop(str(path))
            spectrum = operator.eigendecompose(op)
            windows = bench.window_system_from_config(list(window_set), size)
            phi = windows.windows[0]
            if estimator.startswith("was"):
                grid = recovery.was_recover(spectrum, core.WindowSystem.single(phi),
                                            terms).estimate
            elif estimator == "wawd-full":
                grid = recovery.wawd_recover(spectrum, terms).estimate
            else:
                grid = recovery.wn_limit(spectrum, phi)
            sidecar = {"method": estimator, "size": size, "operator": str(path),
                       "window": ",".join(window_set), "eig_terms": terms}
            cli._write_outputs(grid, str(base), sidecar, (0.0, 1.0))
            return {"grid": grid, "op": op, "windows": windows, "phi": phi}

        def check(out) -> list:
            grid = out["grid"]
            problems = _not_finite(estimate=grid)
            if estimator == "was-full":
                kernel = recovery.impulse_kernel(out["windows"], out["phi"])
                oracle = symbols.circ_conv2(truth, kernel)
                problems += _exceeds("max |was(N=L) - f conv kernel|",
                                     float(np.max(np.abs(grid - oracle))), EXACT_TOL)
            elif estimator == "wawd-full":
                dist = sum(w * wigner(g) for w, g in out["windows"])
                oracle = symbols.circ_conv2(truth, dist) / size
                problems += _exceeds("max |wawd(N=L) - f conv W / L|",
                                     float(np.max(np.abs(grid - oracle))), EXACT_TOL)
            elif estimator == "wn-limit":
                a = out["op"].matrix
                energy = size * float(np.sum(a.real ** 2 + a.imag ** 2))
                problems += _exceeds("rel |sum(wn_limit) - L ||A||_F^2|",
                                     _rel_dev(float(grid.sum()), energy), SUM_RTOL)
            return problems

        def score(out) -> list:
            method = "wn" if estimator == "wn-limit" else estimator.split("-")[0]
            err, _ = bench._compare(method, out["grid"], truth, False, size)
            return [100.0 * err]

        return Job(estimator, run, check, score)


class RosterWorkload(Workload):
    name = "roster_128"
    stat_rounds = 6
    trace_rounds = 8

    def __init__(self, size: int = 128, draws: int = 200):
        self.size = size
        self.draws = draws

    def setup(self, work: Path, seed: int):
        self.seed = seed
        self.work = work
        config = {
            "schema_version": bench.SCHEMA_VERSION,
            "size": self.size,
            "window": "gauss",
            "noise_draws": self.draws,
            "sigma2": SIGMA2,
            "seed": seed,
            "eig_terms": None,
            "symbols": [
                {"kind": "circle"},
                {"kind": "gaussians"},
                {"kind": "star"},
                {"kind": "tiles", "params": {"count": 4}, "value_range": [0, 1]},
                {"kind": "tiles", "name": "tiles_signed", "params": {"count": 4},
                 "value_range": [-1, 1]},
            ],
        }
        self.config_path = work / "bench.json"
        work.mkdir(parents=True, exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(config, fh, indent=2)
        self.rows_expected = len(config["symbols"]) * len(bench.METHODS)

    def round(self, r: int) -> list:
        job_seed = int(_rng(self.seed, 4, r).integers(2 ** 31))
        out_dir = self.work / "report"

        def run() -> dict:
            with open(self.config_path) as fh:
                config = json.load(fh)
            config["seed"] = job_seed
            report = bench.bench_all(config)
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / "report.json", "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            (out_dir / "report.txt").write_text(bench.report_text(report))
            (out_dir / "report.csv").write_text(bench.report_csv(report))
            return {"report": report}

        def check(out) -> list:
            rows = out["report"]["rows"]
            problems = []
            if len(rows) != self.rows_expected:
                problems.append(f"report has {len(rows)} rows, expected {self.rows_expected}")
            if out["report"]["config"]["seed"] != job_seed:
                problems.append("report does not carry the job's seed")
            errors = np.array([row["rel_l1_error"] for row in rows])
            problems += _not_finite(rel_l1_error=errors)
            for row in rows:
                if row["symbol"] == "tiles_signed" and row["method"] in ("wn", "pt") \
                        and not row["flags"].get("squared_target"):
                    problems.append(f"signed {row['method']} row not scored against f^2")
            return problems

        def score(out) -> list:
            return [row["percent"] for row in out["report"]["rows"]]

        return [Job("bench_all", run, check, score)]


WORKLOADS = {w.name: w for w in (ApplyWorkload, SpectralWorkload, RosterWorkload)}
