"""Periodic space-time grids and sampled fields.

Everything in this package lives on a uniform rectangular lattice over the
torus (R/l_t Z) x prod_i (R/l_x[i] Z).  Index 0 of every axis carries
coordinate 0 and coordinates wrap to the symmetric cell [-L/2, L/2), i.e.
``L * fftfreq(n)``, so centered profiles sample naturally and Fourier
multipliers act exactly.  Quadrature is the rectangle rule with cell measure
dt * prod h_i.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SAMPLE_CAP",
    "Grid",
    "Field",
    "VectorField",
    "make_grid",
    "zeros",
    "lp_norm",
    "inner",
    "time_window_lp_norm",
]

SAMPLE_CAP = 2**24
# Period range: below the cap the cell measure dt * prod h (up to four factors)
# and every coordinate times a sample count or a mode number stay finite; above
# the floor, with at most SAMPLE_CAP samples, the cell measure stays a positive
# normal float (>= 1e-300 / 2**24).
_PERIOD_FLOOR, _PERIOD_CAP = 1e-75, 1e75


def _integer(value, name: str) -> int:
    """The integer a config or caller value stands for: an int, or an
    integral float or numeric string (64.0, "64", "64.0").  A bool or a
    fractional or non-finite number ("must be an integer"), and null, a
    list, an object or other text ("must be a number") are ValueErrors
    naming the key; nothing is truncated."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)  # exact for integer text of any size
        except ValueError:
            pass
    try:
        number = float(value) if isinstance(value, (str, float, np.floating)) else None
    except ValueError:
        number = None
    if number is None:
        raise ValueError(f"'{name}' must be a number, got {value!r}")
    if not number.is_integer():
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    return int(number)


def _scalar(value, name: str) -> float:
    """float(value); a bool, null, a list, non-numeric text or an integer
    past the float range is a ValueError naming the key."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"'{name}' must be a number, got {value!r}")


def _on_axis(table: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """The 1-D table as an ndim-dimensional array along `axis`, length 1 on
    every other axis, so that it broadcasts against a grid array."""
    return table.reshape([-1 if k == axis else 1 for k in range(ndim)])


def _band_limited_noise(
    shape: tuple[int, ...], rng: np.random.Generator, band: float, time_subspace: bool = False
) -> np.ndarray:
    """White noise ``rng.standard_normal(shape)`` low-passed through ``fftn``:
    every mode with |k| > band * (n // 2) along some axis is zeroed.  With
    time_subspace=True the mean and Nyquist rows of axis 0 (time) go too."""
    spec = np.fft.fftn(rng.standard_normal(shape))
    for axis, n in enumerate(shape):
        keep = np.abs(np.fft.fftfreq(n) * n) <= band * (n // 2)
        spec = spec * _on_axis(keep, axis, len(shape))
    if time_subspace:
        spec[0] = 0.0
        spec[shape[0] // 2] = 0.0
    return np.fft.ifftn(spec).real


def _axis_coordinates(n: int, period: float) -> np.ndarray:
    # m*dx wrapped to [-period/2, period/2); identical to period*fftfreq(n).
    return period * np.fft.fftfreq(n)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice: one time axis followed by d spatial axes."""

    d: int
    n_t: int
    n_x: tuple[int, ...]
    l_t: float
    l_x: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.d <= 3:
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if len(self.n_x) != self.d or len(self.l_x) != self.d:
            raise ValueError("n_x and l_x must have exactly d entries")
        for label, n in [("n_t", self.n_t)] + [
            (f"n_x[{i}]", n) for i, n in enumerate(self.n_x)
        ]:
            if n % 2 != 0:
                raise ValueError(f"{label} must be even, got {n}")
            if n < 8:
                raise ValueError(f"{label} must be at least 8, got {n}")
        for label, period in [("l_t", self.l_t)] + [
            (f"l_x[{i}]", p) for i, p in enumerate(self.l_x)
        ]:
            if not _PERIOD_FLOOR <= period <= _PERIOD_CAP:
                raise ValueError(
                    f"{label} must be a positive finite period in "
                    f"[{_PERIOD_FLOOR:g}, {_PERIOD_CAP:g}], got {period}"
                )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_t, *self.n_x)

    @property
    def dt(self) -> float:
        return self.l_t / self.n_t

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.l_x, self.n_x))

    @property
    def cell_measure(self) -> float:
        return self.dt * float(np.prod(self.h))

    @property
    def sample_count(self) -> int:
        return math.prod(self.shape)  # exact: a numpy product can wrap around

    def time_coordinates(self) -> np.ndarray:
        """Wrapped time coordinates, shape (n_t,)."""
        return _axis_coordinates(self.n_t, self.l_t)

    def space_coordinates(self, axis: int) -> np.ndarray:
        """Wrapped coordinates of spatial axis ``axis`` (0-based), shape (n_x[axis],)."""
        return _axis_coordinates(self.n_x[axis], self.l_x[axis])

    def coordinate_mesh(self) -> list[np.ndarray]:
        """Open (broadcastable) mesh [t, x1, ..., xd]."""
        axes = [self.time_coordinates()] + [
            self.space_coordinates(i) for i in range(self.d)
        ]
        return [_on_axis(arr, pos, self.d + 1) for pos, arr in enumerate(axes)]


def make_grid(
    d: int,
    n_t: int,
    n_x: int | Sequence[int],
    l_t: float,
    l_x: float | Sequence[float],
) -> Grid:
    """Build a validated Grid; scalar n_x / l_x are broadcast over the d axes.

    Sample counts must be even and at least 8 per axis (powers of two are
    recommended for FFT speed), and the total count may not exceed
    ``SAMPLE_CAP`` (2**24).  Periods lie in [1e-75, 1e75].  Any
    value may also be numeric text ("64", "2.0"), as the CLI's ``--grid
    KEY=VALUE`` passes it; a value that does not read as its key's type is a
    ValueError naming the key.
    """
    d = _integer(d, "d")
    if not 1 <= d <= 3:  # before d sizes the broadcast below
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    if np.isscalar(n_x):
        nx = (_integer(n_x, "n_x"),) * d
    else:
        nx = tuple(_integer(n, f"n_x[{i}]") for i, n in enumerate(n_x))
    if np.isscalar(l_x):
        lx = (_scalar(l_x, "l_x"),) * d
    else:
        lx = tuple(_scalar(l, f"l_x[{i}]") for i, l in enumerate(l_x))
    grid = Grid(d=d, n_t=_integer(n_t, "n_t"), n_x=nx, l_t=_scalar(l_t, "l_t"), l_x=lx)
    if grid.sample_count > SAMPLE_CAP:
        raise ValueError(
            f"total sample count {grid.sample_count} exceeds cap {SAMPLE_CAP}"
        )
    return grid


@dataclass(frozen=True)
class Field:
    """Real scalar samples over a Grid.  Immutable once constructed.

    A C-contiguous float64 array is adopted without a copy (a copy would
    cost every public operator a full-array copy of its result) and frozen
    in place, so the caller's own array turns read-only too; pass
    ``a.copy()`` to keep writing to ``a``."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"field shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field entries must be finite")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


def zeros(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.shape))


@dataclass(frozen=True)
class VectorField:
    """d spatial components, each a Field on one shared grid."""

    components: tuple[Field, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("vector field needs at least one component")
        grid = self.components[0].grid
        if any(c.grid != grid for c in self.components):
            raise ValueError("vector field components must share one grid")
        if len(self.components) != grid.d:
            raise ValueError(
                f"expected {grid.d} components, got {len(self.components)}"
            )

    @property
    def grid(self) -> Grid:
        return self.components[0].grid


def _lp(magnitudes: np.ndarray, p: float, cell_measure: float) -> float:
    """Rectangle-rule L_p norm of non-negative samples (magnitudes) with the
    given cell measure; p may be inf.  Signed samples go through np.abs first,
    at the caller.  Where the p-th powers under- or overflow, the samples are
    divided by their peak: not exact, but p has no bound, and above p ~ 1000
    the p-th powers of samples rescaled by a power of two under- or overflow."""
    if not p >= 1:  # NaN too
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    if p == np.inf:
        return float(np.max(magnitudes))
    with np.errstate(over="ignore"):
        power = np.sum(magnitudes**p) * cell_measure
    if not np.finfo(np.float64).tiny <= power < np.inf:
        peak = float(np.max(magnitudes, initial=0.0))
        if 0.0 < peak < np.inf:
            scaled = np.sum((magnitudes / peak) ** p) * cell_measure
            return peak * float(scaled ** (1.0 / p))
    return float(power ** (1.0 / p))


def lp_norm(field: Field, p: float) -> float:
    """Rectangle-rule L_p norm over the full space-time cell; p may be inf."""
    return _lp(np.abs(field.data), p, field.grid.cell_measure)


def inner(a: Field, b: Field) -> float:
    """Rectangle-rule L2 pairing of two fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("inner product requires fields on the same grid")
    return float(np.sum(a.data * b.data) * a.grid.cell_measure)


def _exponent(arrays: list[np.ndarray]) -> int:
    """The frexp exponent e of the arrays' largest |entry|, at most 1023 so
    that 2.0**e is a float: np.ldexp(a, -e) is exact and below 2 in size.  0
    when that peak is zero or not finite."""
    return min(math.frexp(max(float(np.max(np.abs(a), initial=0.0)) for a in arrays))[1], 1023)


def _rescaled(squares: Callable, arrays: list[np.ndarray]) -> tuple:
    """The one rule for squared sums near the float limits: (squares(arrays),
    0) while its peak is a normal float and its sum finite, else
    (squares(arrays / 2^e), e) for the exponent e of _exponent; the caller
    multiplies the root back by 2.0**e (inf above the largest float).  Both
    steps are exact: arrays times 2^k give roots times exactly 2^k."""
    with np.errstate(over="ignore"):
        total = squares(arrays)
    peak, size = (float(total.max()), total.size) if isinstance(total, np.ndarray) else (total, 1)
    scale = 0 if np.finfo(np.float64).tiny <= peak and peak * size < np.inf else _exponent(arrays)
    return (squares([np.ldexp(a, -scale) for a in arrays]), scale) if scale else (total, 0)


def _square_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Pointwise sum of squares, |U|^2 of a bundle U given by its slots,
    accumulated in place into a new array from the first slot's square."""
    total = arrays[0] * arrays[0]
    for arr in arrays[1:]:
        total += arr * arr
    return total


def _squares(parts: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """_rescaled's (|U|^2 / 2^2e, e) of a bundle U given by its slots."""
    return _rescaled(_square_sum, parts)


def _slot_squares(arrays: list[np.ndarray]) -> tuple[float, int]:
    """_rescaled's (sum of all squares / 2^2e, e), summed slot by slot as (a**2).sum()."""
    return _rescaled(lambda slots: sum(float((a**2).sum()) for a in slots), arrays)


def _magnitude(parts: list[np.ndarray]) -> np.ndarray:
    """Pointwise Euclidean magnitude sqrt(sum |slot|^2) of a bundle's slots."""
    squares, scale = _squares(parts)
    np.sqrt(squares, out=squares)
    return np.ldexp(squares, scale, out=squares) if scale else squares


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real array, summed by numpy on one thread: the
    threaded BLAS dot behind np.linalg.norm splits the sum by thread count.
    Near the float limits _rescaled's rule holds; only a norm above the
    largest float reads inf."""
    total, scale = _rescaled(lambda a: float(np.einsum("i,i->", a[0], a[0])), [np.ravel(x)])
    return math.sqrt(total) * 2.0**scale


# Layout changes from _LAYOUT_BYTES up copy _BLOCK samples at a time, and pad gathered
# rows by _PAD: at power-of-two grids strides are multiples of 4 KB, which alias in one cache set.
_LAYOUT_BYTES, _BLOCK, _PAD, _SHARE_BYTES = 2**19, 8, 8, 2**21


def _c_order(x: np.ndarray) -> np.ndarray:
    """x in C order: x itself if it is, else an exact copy, made in blocks
    of _BLOCK along the last axis from _LAYOUT_BYTES up."""
    if x.flags.c_contiguous:
        return x
    if x.nbytes < _LAYOUT_BYTES:
        return np.ascontiguousarray(x)
    out = np.empty(x.shape, x.dtype)
    for j in range(0, x.shape[-1], _BLOCK):
        out[..., j : j + _BLOCK] = x[..., j : j + _BLOCK]
    return out


def _in_blocks(count: int, line_bytes: int, work: Callable[[int, int], None]) -> None:
    """work(lo, hi) over [0, count), lines of line_bytes each, in blocks of at
    most _LAYOUT_BYTES (or one line), one contiguous share per CPU of the
    affinity mask while each holds _SHARE_BYTES.  The caller runs the first
    share and a thread each other one, in the caller's numpy error state; an
    error in any share re-raises here.  work writes only into arrays the
    caller made, so no byte depends on the share."""
    size = max(1, _LAYOUT_BYTES // line_bytes)
    starts = range(0, count, size)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shares = max(1, min(len(starts), count * line_bytes // _SHARE_BYTES, cpus or 1))
    errors, state = [], np.geterr()

    def run(part) -> None:
        try:
            with np.errstate(**state):
                for lo in part:
                    work(lo, min(lo + size, count))
        except BaseException as error:
            errors.append(error)

    cuts = [len(starts) * k // shares for k in range(shares + 1)]
    first, *rest = (starts[a:b] for a, b in zip(cuts, cuts[1:]))
    threads = [threading.Thread(target=run, args=(part,)) for part in rest]
    try:  # a failed start still joins the threads started before it
        for thread in threads:
            thread.start()
        run(first)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def time_window_lp_norm(field: Field, half_width: float, p: float) -> float:
    """L_p norm restricted to wrapped times |t| < half_width (full window
    when half_width >= l_t/2)."""
    grid = field.grid
    if not half_width > 0:  # NaN too
        raise ValueError(f"half_width must be positive, got {half_width}")
    wide = half_width >= 0.5 * grid.l_t  # the full window, read without a copy
    rows = slice(None) if wide else np.abs(grid.time_coordinates()) < half_width
    return _lp(np.abs(field.data[rows]), p, grid.cell_measure)
