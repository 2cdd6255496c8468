"""Finite-dimensional time-frequency localization operators and symbol recovery.

Build Gabor multipliers from a symbol and window system, eigendecompose
them, and recover the symbol back through white-noise probing, weighted
accumulated spectrograms / Wigner distributions, plane tiling or Gabor
projection, with FFT deconvolution refinement and an L1-error benchmark
harness.
"""

__version__ = "0.1.0"

from .bench import bench_all, report_csv, report_text
from .core import (WindowSystem, as_signal, dft_basis, hermite_system,
                   make_gaussian_window, standard_basis, tf_shift)
from .errors import (DegenerateKernelError, LocsymError, NotSelfAdjointError,
                     NumericalError, PgmError, ValidationError)
from .gabor import dgt, dgt_adjoint, spectrogram
from .mapio import load_csv, load_map, load_pgm, save_csv, save_pgm
from .metrics import blur_bound, rel_l1_error, variation
from .operator import (LocOperator, Spectrum, apply, build_locop,
                       eigendecompose, load_locop, save_locop)
from .recovery import (RecoveryResult, deconvolve, gp_recover, impulse_kernel,
                       pt_recover, recover, was_recover, wawd_recover, wn_limit,
                       wn_recover)
from .symbols import (SymbolSpec, circ_conv2, compress_positive_frequency,
                      gaussian_blur, gen_symbol, torus_distance_grid)
from .wigner import cohen_class, wigner

__all__ = [
    "LocOperator", "RecoveryResult", "Spectrum", "SymbolSpec", "WindowSystem",
    "LocsymError", "ValidationError", "NotSelfAdjointError",
    "NumericalError", "DegenerateKernelError", "PgmError",
    "apply", "as_signal", "bench_all", "blur_bound", "build_locop",
    "circ_conv2", "cohen_class", "compress_positive_frequency", "deconvolve",
    "dft_basis", "dgt", "dgt_adjoint", "eigendecompose", "gaussian_blur",
    "gen_symbol", "gp_recover", "hermite_system", "impulse_kernel",
    "load_csv", "load_locop", "load_map", "load_pgm", "make_gaussian_window",
    "pt_recover", "recover", "rel_l1_error", "report_csv", "report_text",
    "save_csv", "save_locop", "save_pgm", "spectrogram", "standard_basis",
    "tf_shift", "torus_distance_grid", "variation", "was_recover",
    "wawd_recover", "wigner", "wn_limit", "wn_recover",
]
