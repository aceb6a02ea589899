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
from dataclasses import dataclass
from typing import Sequence

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
    """float(value); a value it rejects (null, a list, a non-numeric
    string) is a ValueError naming the key."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"'{name}' must be a number, got {value!r}") from None


def _band_limited_noise(
    shape: tuple[int, ...], rng: np.random.Generator, band: float, time_subspace: bool = False
) -> np.ndarray:
    """White noise ``rng.standard_normal(shape)`` low-passed through ``fftn``:
    every mode with |k| > band * (n // 2) along some axis is zeroed.  With
    time_subspace=True the mean and Nyquist rows of axis 0 (time) go too."""
    spec = np.fft.fftn(rng.standard_normal(shape))
    for axis, n in enumerate(shape):
        keep = np.abs(np.fft.fftfreq(n) * n) <= band * (n // 2)
        view = [1] * len(shape)
        view[axis] = n
        spec = spec * keep.reshape(view)
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
        mesh = []
        for pos, arr in enumerate(axes):
            view = [1] * (self.d + 1)
            view[pos] = arr.shape[0]
            mesh.append(arr.reshape(view))
        return mesh


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
    given cell measure; p may be inf.  Signed samples go through np.abs
    first, at the caller (lp_norm and time_window_lp_norm); the bundle norms
    pass sqrt(|U|^2) as it is.  Residual norms are _norm's."""
    if p == np.inf:
        return float(np.max(magnitudes))
    if p < 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    with np.errstate(over="ignore"):
        power = np.sum(magnitudes**p) * cell_measure
    if not np.finfo(np.float64).tiny <= power < np.inf:
        # the p-th powers underflowed or overflowed: divide out the peak first
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


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real array, summed by numpy on one thread: the
    threaded BLAS dot behind np.linalg.norm splits the sum by thread count.
    When the squares underflow (entries below about 1e-154) and some entry
    is nonzero, the peak's power of two is divided out first and multiplied
    back, both exact; an overflowing sum still reads inf."""
    flat = np.ravel(x)
    total = float(np.einsum("i,i->", flat, flat))
    if total < np.finfo(np.float64).tiny and flat.any():
        scale = math.frexp(float(np.max(np.abs(flat))))[1]
        return math.ldexp(_norm(np.ldexp(flat, -scale)), scale)
    return math.sqrt(total)


def time_window_lp_norm(field: Field, half_width: float, p: float) -> float:
    """L_p norm restricted to wrapped times |t| < half_width (full window
    when half_width >= l_t/2)."""
    grid = field.grid
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    if half_width >= 0.5 * grid.l_t:
        mask = np.ones(grid.n_t, dtype=bool)
    else:
        mask = np.abs(grid.time_coordinates()) < half_width
    return _lp(np.abs(field.data[mask]), p, grid.cell_measure)
