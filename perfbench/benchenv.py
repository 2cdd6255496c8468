"""Where the benchmark finds the library, where it writes, and what it ran on.

The benchmark runs from a plain checkout of the repository: it imports
``locsym`` from ``src/`` next to this directory, never an installed copy,
and writes everything under ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/locsym`` to benchmark."""


def use_checkout_source():
    """Put the checkout's ``src/`` first on the import path.

    Raises MissingSourceError when the package sources are absent, so a
    directory holding only the benchmark fails before measuring anything.
    """
    if not (SRC / "locsym" / "__init__.py").is_file():
        raise MissingSourceError(f"no locsym sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git.

    None when the checkout is not a git repository.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        return None
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def environment_stamp(seed: int) -> dict:
    """Versions, BLAS setup, cores and commit that a run record carries."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in _BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        # without threadpoolctl, `locsym --threads N` changes nothing
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "git_commit": git_commit(),
        "seed": seed,
    }
