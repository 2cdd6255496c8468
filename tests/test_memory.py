"""Memory of the dense kernels: warm allocation peaks and untouched inputs."""

import gc
import tracemalloc

import numpy as np
import pytest

from locsym import (SymbolSpec, WindowSystem, build_locop, cohen_class,
                    deconvolve, eigendecompose, gen_symbol, gp_recover,
                    hermite_system, impulse_kernel, load_locop,
                    make_gaussian_window, pt_recover, save_csv, save_locop,
                    save_pgm, spectrogram, standard_basis, was_recover,
                    wawd_recover, wn_limit, wn_recover)

L = 256
UNIT = L * L * 16  # bytes of one dense complex L x L matrix

# Warm tracemalloc peak of each call at L = 256, in UNITs, with the inputs
# made outside the call.  Measured with numpy 2.4 at 1.77, 1.51, 1.51, 2.57,
# 2.14, 2.64, 3.07 and 2.14; each bound adds a quarter of a unit.  Before each
# kernel built its work buffers once, the peaks were 2.65, 2.52, 2.52, 6.57,
# 4.52, 4.27 and 6.02.  Before the PSD symbols freed their matrix once its
# half-lattice rows were taken, and wn drew into its images' buffer, the two
# pt calls, wn and wn_limit peaked at 2.51, 3.02, 3.51 and 3.00.  The file
# and spectrum layers, measured the same way at 0.87 (save_csv), 0.81
# (save_pgm), 1.07 (load_locop) and 1.22 (eigendecompose), were 1.18, 1.50,
# 2.07 and 2.50 before they reused one set of buffers per call, read the
# dump once and formed the Hermitian part in one array.  eigendecompose now
# peaks at 1.13: the asymmetry is taken against the Hermitian part's own
# buffer.  spectrogram and cohen_class (gauss + hermite:1), symbolized from
# lag tables, peak at 1.51 and 1.77; through the Gabor transform, one
# spectrogram per window, they peaked at 2.00 and 2.50.  A built operator
# holds its half-lattice rows, so its eigendecompose allocates nothing
# (0.00) until the Hermitian part is read.  Every operator now holds them:
# load_locop gathers the rows and the asymmetry from a read-only memory
# map of the dump, a block of diagonals at a time, and peaks at 0.71 (it
# read the whole dump onto the heap at 1.07); tracemalloc does not see the
# map's file-backed pages.  eigendecompose of the loaded dump then only
# checks the stored asymmetry, at 0.00 (it formed the Hermitian part and
# took the asymmetry at 1.13).  build_locop peaked at
# 1.77 without the scatter into A: its peak is in the assembly loop, where
# the transformed symbol, the diagonals, the work buffer and numpy's two
# eighth-unit buffers for the lag product's broadcast multiply coexist.
# Formed by copying the delays into the table and multiplying in place,
# the lag product takes one such buffer, and build_locop and cohen_class
# now peak at 1.65.
# An operator whose rows do not give its matrix back, as a complex
# symbol's, holds both: 1.51 units once built or loaded (1.00 when it held
# only the matrix).  Its build peaks at 2.83 (2.77), scattering A(Im f)
# beside A(Re f), and its load at 1.51 (1.07), the kept matrix and rows.
# save_locop of an operator whose matrix has been read writes that matrix
# through the buffer protocol and peaks at 0.006 (1.005 through a tobytes
# copy).
PEAK_BOUNDS = {
    "build_locop": 1.90,
    "build_locop_complex": 3.08,
    "gp_recover": 1.75,
    "impulse_kernel": 1.75,
    "deconvolve": 2.8,
    "pt_standard": 2.39,
    "pt_hermite": 2.89,
    "wn_128": 3.32,
    "wn_limit": 2.39,
    "save_csv": 1.12,
    "save_pgm": 1.06,
    "save_locop": 0.26,
    "load_locop": 0.96,
    "load_locop_complex": 1.76,
    "eigendecompose": 0.25,
    "eigendecompose_loaded": 0.25,
    "spectrogram": 1.76,
    "cohen_class": 1.90,
}


@pytest.fixture(scope="module")
def apply_calls(tmp_path_factory):
    """The apply-only path at L = 256: a circle over gauss + hermite:1, the
    file and spectrum layers around it, and the time-frequency distributions
    of a random signal."""
    windows = WindowSystem.from_pairs([(0.5, make_gaussian_window(L)),
                                       (0.5, hermite_system(L, 2)[1])])
    phi = windows.windows[0]
    f = gen_symbol(SymbolSpec("circle", L, {}, (0.0, 1.0)))
    f_complex = f + 0.5j * np.random.default_rng(1).standard_normal((L, L))
    op = build_locop(f, windows)
    est = gp_recover(op, phi).estimate
    kernel = impulse_kernel(windows, phi)
    standard = standard_basis(L)
    hermite = hermite_system(L, L // 2, (L // 2, L // 2))
    spectrum = eigendecompose(op)
    psi = np.random.default_rng(0).standard_normal(L) + 0j
    out = tmp_path_factory.mktemp("memory")
    save_locop(op, out / "op.locop")
    loaded = load_locop(out / "op.locop")
    save_locop(build_locop(f_complex, windows), out / "complex.locop")
    return {
        "build_locop": lambda: build_locop(f, windows),
        "build_locop_complex": lambda: build_locop(f_complex, windows),
        "gp_recover": lambda: gp_recover(op, phi),
        "impulse_kernel": lambda: impulse_kernel(windows, phi),
        "deconvolve": lambda: deconvolve(est, kernel, 1e-6),
        "pt_standard": lambda: pt_recover(op, standard, phi),
        "pt_hermite": lambda: pt_recover(op, hermite, phi),
        "wn_128": lambda: wn_recover(op, phi, 128, 1.0, 3),
        "wn_limit": lambda: wn_limit(spectrum, phi),  # warm-up runs eigh
        "save_csv": lambda: save_csv(est, out / "est.csv"),
        "save_pgm": lambda: save_pgm(est, out / "est.pgm"),
        "save_locop": lambda: save_locop(op, out / "saved.locop"),
        "load_locop": lambda: load_locop(out / "op.locop"),
        "load_locop_complex": lambda: load_locop(out / "complex.locop"),
        "eigendecompose": lambda: eigendecompose(op),  # eigh is deferred
        "eigendecompose_loaded": lambda: eigendecompose(loaded),
        "spectrogram": lambda: spectrogram(psi, phi),
        "cohen_class": lambda: cohen_class(psi, windows),
    }


@pytest.mark.parametrize("layer", sorted(PEAK_BOUNDS))
def test_warm_allocation_peak(apply_calls, layer):
    call = apply_calls[layer]
    call()  # warm: FFT plans are made on first use
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / UNIT <= PEAK_BOUNDS[layer]


def test_kernels_leave_their_inputs_untouched():
    # the kernels work in place in their own buffers, never in an input
    n = 33
    rng = np.random.default_rng(40)
    g = make_gaussian_window(n)
    windows = WindowSystem.from_pairs([(0.5, g), (0.5, hermite_system(n, 2)[1])])
    f = rng.standard_normal((n, n))
    op = build_locop(f + 0.5j * rng.standard_normal((n, n)), windows)
    hermitian = build_locop(f, windows)
    est = rng.standard_normal((n, n)) + 0j
    kernel = np.abs(impulse_kernel(windows, g))
    basis = hermite_system(n, 5) + 0j
    spectrum = eigendecompose(hermitian)
    inputs = [f, op.matrix, hermitian.matrix, spectrum.matrix, est, kernel,
              basis, windows.windows, windows.weights, g]
    before = [a.copy() for a in inputs]
    gp_recover(op, g)
    pt_recover(op, basis, g)
    pt_recover(op, None, g)
    wn_recover(op, g, 3, 1.0, 0)
    was_recover(spectrum, windows, n)
    was_recover(spectrum, windows, 4)
    wawd_recover(spectrum, n)
    deconvolve(est, kernel, 1e-3)
    deconvolve(est.real, kernel, 1e-3)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()
