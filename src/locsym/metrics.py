"""Error metrics and the total-variation blur diagnostic."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .symbols import torus_distance_grid


def rel_l1_error(estimate, truth) -> float:
    """Relative L1 error ||est - truth||_1 / ||truth||_1.

    NaN sentinels in the estimate (region-restricted recovery) are left out
    of both numerator and denominator.
    """
    est = np.asarray(estimate, dtype=np.float64)
    tru = np.asarray(truth, dtype=np.float64)
    if est.shape != tru.shape:
        raise ValidationError("estimate and truth must share a shape")
    mask = np.isfinite(est)
    if mask.all():  # no sentinel: the C-order ravels are what the gathers give
        est, tru = est.ravel(), tru.ravel()
    else:
        est, tru = est[mask], tru[mask]
    denom = float(np.sum(np.abs(tru)))
    if denom == 0.0:
        raise ValidationError("truth has zero L1 mass on the evaluated region")
    return float(np.sum(np.abs(est - tru))) / denom


def variation(f) -> float:
    """Discrete total variation with forward cyclic differences.

    Sum of |f[n+1, m] - f[n, m]| + |f[n, m+1] - f[n, m]|, which for an
    indicator equals the perimeter of its support (a single pixel gives 4).
    """
    f = np.asarray(f, dtype=np.float64)
    dn = np.roll(f, -1, axis=0) - f
    dm = np.roll(f, -1, axis=1) - f
    return float(np.sum(np.abs(dn)) + np.sum(np.abs(dm)))


def blur_bound(f, kernel) -> float:
    """Upper bound Var(f) * sum_z |z| |kernel[z]| on the L1 blur error.

    |z| is the torus metric, the only consistent choice on cyclic indices.
    Bounds ||f conv kernel - f||_1 for any unit-mass kernel.
    """
    f = np.asarray(f, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    if f.shape != k.shape:
        raise ValidationError("symbol and kernel must share a shape")
    r = torus_distance_grid(f.shape[0])
    return variation(f) * float(np.sum(r * np.abs(k)))
