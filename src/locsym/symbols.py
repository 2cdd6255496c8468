"""Synthetic benchmark symbols and phase-plane convolution helpers.

Symbols are real maps on the L x L grid with entries inside a value range
[lo, hi] contained in [-1, 1].  Geometry is centered at (L/2, L/2) to match
the periodized windows.  Generation is pure: identical specs give
bit-identical maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import LENGTH_RULE, is_integer, is_length, is_real
from .errors import ValidationError


def _reals(count: int):
    return lambda v: (isinstance(v, (list, tuple)) and len(v) == count
                      and all(map(is_real, v)))


def check_fields(obj, checks, what: str) -> None:
    """Raise ValidationError unless ``obj`` is a dict and each of its keys
    that ``checks`` lists as a (key, test, what it must be) row passes."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, got {obj!r}")
    for key, valid, must_be in checks:
        if key in obj and not valid(obj[key]):
            raise ValidationError(
                f"{what} {key!r} must be {must_be}, got {obj[key]!r}")


# check_fields rows for the params each kind reads; other keys are ignored
_PARAMS = {
    "circle": (("radius", is_real, "a number"),
               ("center", _reals(2), "two numbers")),
    "gaussians": (("bumps", lambda v: isinstance(v, (list, tuple))
                   and all(map(_reals(4), v)), "a list of four-number lists"),),
    "star": (("points", is_integer, "an integer"),
             ("r_outer", is_real, "a number"),
             ("r_inner", is_real, "a number"),
             ("rotation", is_real, "a number")),
    "lines_circles": (),
    "blurred_lines_circles": (("sigma", is_real, "a number"),),
    "tiles": (("count", lambda v: is_integer(v) and v >= 1, "an integer >= 1"),),
    "bitmap": (("path", lambda v: isinstance(v, str) and v != "",
                "a non-empty string"),),
}
KINDS = tuple(_PARAMS)
_SPEC_CHECKS = (
    ("kind", lambda v: v in KINDS, f"one of {KINDS}"),
    ("size", is_length, LENGTH_RULE),
    ("value_range", lambda v: _reals(2)(v) and -1 <= v[0] < v[1] <= 1,
     "two numbers with -1 <= lo < hi <= 1"),
)


@dataclass(frozen=True)
class SymbolSpec:
    """A symbol to generate; construction checks the fields against
    _SPEC_CHECKS and ``params`` against its kind's _PARAMS rows."""

    kind: str
    size: int
    params: dict = field(default_factory=dict)
    value_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        check_fields(vars(self), _SPEC_CHECKS, "symbol")
        check_fields(self.params, _PARAMS[self.kind], f"{self.kind} params")
        if self.kind == "bitmap" and "path" not in self.params:
            raise ValidationError("bitmap symbol needs params['path']")
        object.__setattr__(self, "value_range", tuple(self.value_range))


def circ_conv2(a, b) -> np.ndarray:
    """Circular 2-d convolution of two real maps via the FFT."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError("convolution operands must share a shape")
    return np.fft.ifft2(np.fft.fft2(a) * np.fft.fft2(b)).real


def torus_distance_grid(size: int) -> np.ndarray:
    """|z| on the torus: sqrt(min(n, L-n)^2 + min(m, L-m)^2)."""
    idx = np.arange(size)
    wrapped = np.minimum(idx, size - idx)
    return np.hypot(wrapped[:, None], wrapped[None, :])


def gaussian_blur(f, sigma: float) -> np.ndarray:
    """Mass-preserving circular blur with a unit-mass Gaussian kernel of
    width ``sigma``, a finite real >= 0 (ValidationError otherwise)."""
    if not (is_real(sigma) and sigma >= 0):
        raise ValidationError(f"blur sigma must be >= 0 and finite, got {sigma!r}")
    f = np.asarray(f, dtype=np.float64)
    if sigma == 0:
        return f.copy()
    r = torus_distance_grid(f.shape[0])
    kernel = np.exp(-r ** 2 / (2 * sigma ** 2))
    kernel /= kernel.sum()
    return circ_conv2(f, kernel)


def _grid(size: int):
    n = np.arange(size, dtype=np.float64)
    return n[:, None], n[None, :]


def _circle(size, params):
    radius = params.get("radius", size / 4)
    cx, cy = params.get("center", (size / 2, size / 2))
    if radius <= 0:
        return np.zeros((size, size), dtype=bool)
    x, y = _grid(size)
    return (x - cx) ** 2 + (y - cy) ** 2 <= radius ** 2


_DEFAULT_BUMPS = ((0.32, 0.36, 0.095, 1.0), (0.62, 0.56, 0.075, 0.8),
                  (0.44, 0.72, 0.11, 0.6))


def _gaussians(size, params):
    bumps = params.get("bumps")
    if bumps is None:
        bumps = [(cx * size, cy * size, s * size, a)
                 for cx, cy, s, a in _DEFAULT_BUMPS]
    x, y = _grid(size)
    acc = np.zeros((size, size))
    for cx, cy, sigma, amp in bumps:
        acc += amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma ** 2))
    return np.clip(acc, 0.0, 1.0)


def _star(size, params):
    points = params.get("points", 5)
    r_outer = params.get("r_outer", 0.40 * size)
    r_inner = params.get("r_inner", 0.16 * size)
    rotation = params.get("rotation", -math.pi / 2)
    if points < 2 or r_inner <= 0 or r_outer <= r_inner:
        raise ValidationError("star needs points >= 2 and 0 < r_inner < r_outer")
    cx = cy = size / 2
    x, y = _grid(size)
    theta = np.arctan2(y - cy, x - cx) - rotation
    rho = np.hypot(x - cx, y - cy)
    half = math.pi / points
    u = np.mod(theta, 2 * half)
    u = np.where(u > half, 2 * half - u, u)  # fold onto the half-sector
    # radial boundary of the edge between an outer and an inner vertex
    boundary = (r_outer * r_inner * math.sin(half)
                / (r_inner * np.sin(half - u) + r_outer * np.sin(u)))
    return rho <= boundary


def _lines_circles(size, params):
    s = float(size)
    x, y = _grid(size)
    mask = np.zeros((size, size), dtype=bool)
    # horizontal and vertical bars
    mask |= (np.abs(x - 0.30 * s) <= 0.022 * s) & (y >= 0.10 * s) & (y <= 0.90 * s)
    mask |= (np.abs(y - 0.22 * s) <= 0.022 * s) & (x >= 0.42 * s) & (x <= 0.92 * s)
    # one ring, one filled disk
    ring = np.hypot(x - 0.64 * s, y - 0.62 * s)
    mask |= np.abs(ring - 0.17 * s) <= 0.025 * s
    mask |= np.hypot(x - 0.24 * s, y - 0.70 * s) <= 0.08 * s
    return mask


def _tiles(size, params):
    count = params.get("count", 4)
    n = np.arange(size)
    row = (n * count) // size
    return (row[:, None] + row[None, :]) % 2 == 0


# the binary kinds: their mask picks hi, the rest of the grid is lo
_MASKS = {"circle": _circle, "star": _star, "lines_circles": _lines_circles,
          "tiles": _tiles}


def gen_symbol(spec: SymbolSpec) -> np.ndarray:
    """Generate the real symbol map for ``spec``.

    Binary kinds (circle, star, lines_circles, tiles) take exactly the two
    range endpoints; gaussians and blurred variants fill the range
    continuously.
    """
    lo, hi = spec.value_range
    size, params = spec.size, spec.params
    if spec.kind in _MASKS:
        return np.where(_MASKS[spec.kind](size, params), hi, lo)
    if spec.kind == "gaussians":
        return lo + (hi - lo) * _gaussians(size, params)
    if spec.kind == "blurred_lines_circles":
        base = np.where(_lines_circles(size, params), hi, lo)
        return gaussian_blur(base, params.get("sigma", max(1.5, size / 64)))
    from .mapio import load_pgm

    f = load_pgm(params["path"], value_range=(lo, hi))
    if f.shape[0] != size:
        raise ValidationError(
            f"bitmap size {f.shape[0]} does not match requested size {size}"
        )
    return f


def compress_positive_frequency(f) -> np.ndarray:
    """Zero the upper half of the frequency axis (columns m >= ceil(L/2)).

    Compatibility helper mimicking published figures that restrict symbols
    to positive frequencies before Wigner-based processing.
    """
    f = np.array(f, dtype=np.float64)
    f[:, (f.shape[1] + 1) // 2:] = 0.0
    return f
