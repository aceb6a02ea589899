"""Fractional time calculus on the periodic time axis.

Three Fourier multipliers act along axis 0, with xi_k = 2*pi*k/l_t:

* hilbert:          m(k) = -1j * sign(k)
* half_derivative:  m(k) = -sqrt(|xi_k|)
* time_derivative:  m(k) = 1j * xi_k

The Nyquist slot k = -n_t/2 is forced to zero in all three symbols so the
discrete operator identities (inversion, composition, adjointness) hold
exactly on the remaining modes.  Each symbol is Hermitian, m(-k) = conj(m(k)),
and the fields are real, so ``apply_time_symbol`` runs on the half spectrum
k = 0..n_t/2 of a real-to-complex FFT (``rfft``/``irfft``); the tables are
built once per (grid, kind).  ``half_derivative_quadrature`` provides an
independent singular-integral route to the same operator for
cross-validation; it never shares code with the spectral path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid

__all__ = [
    "TimeSymbol",
    "time_symbol",
    "apply_time_symbol",
    "hilbert",
    "half_derivative",
    "time_derivative",
    "half_derivative_quadrature",
    "cutoff_eta",
    "cutoff_commutator",
]

_KINDS = ("hilbert", "half_derivative", "time_derivative")


@dataclass(frozen=True)
class TimeSymbol:
    """Tabulated multiplier on the time-mode lattice, FFT storage order.
    Hermitian, m(-k) = conj(m(k)), so that it maps real fields to real
    fields and its half spectrum k = 0..n_t/2 determines it."""

    grid: Grid
    kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        # a copy (n_t entries, built once per grid and kind by time_symbol):
        # freezing it leaves the caller's array writeable
        arr = np.array(self.values, dtype=np.complex128)
        if arr.shape != (self.grid.n_t,):
            raise ValueError("symbol table must have one entry per time mode")
        if arr[0].imag != 0.0 or not np.array_equal(arr[1:], np.conj(arr[:0:-1])):
            raise ValueError("symbol table must be Hermitian, m(-k) = conj(m(k))")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@lru_cache(maxsize=64)
def time_symbol(grid: Grid, kind: str) -> TimeSymbol:
    """Build one of the three multiplier tables for this grid (cached; the
    table is read-only)."""
    if kind not in _KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}; expected one of {_KINDS}")
    n = grid.n_t
    k = np.rint(np.fft.fftfreq(n) * n).astype(int)
    xi = 2.0 * np.pi * k / grid.l_t
    if kind == "hilbert":
        values = -1j * np.sign(k).astype(np.complex128)
    elif kind == "half_derivative":
        values = (-np.sqrt(np.abs(xi))).astype(np.complex128)
    else:
        values = 1j * xi
    values[n // 2] = 0.0  # Nyquist has no signed frequency; drop it everywhere
    return TimeSymbol(grid=grid, kind=kind, values=values)


def _half_spectrum(symbol: TimeSymbol, ndim: int) -> np.ndarray:
    """The symbol on k = 0..n_t/2, shaped to scale an ``rfft`` along axis 0 of
    an ndim-dimensional array."""
    n = symbol.grid.n_t
    return symbol.values[: n // 2 + 1].reshape([n // 2 + 1] + [1] * (ndim - 1))


def _time_multiplier(data: np.ndarray, symbol: TimeSymbol) -> np.ndarray:
    """apply_time_symbol on raw samples: the samples are real and the symbol
    Hermitian, so the half spectrum k = 0..n_t/2 of ``rfft`` carries every mode."""
    spec = np.fft.rfft(data, axis=0)
    spec *= _half_spectrum(symbol, data.ndim)
    return np.fft.irfft(spec, n=data.shape[0], axis=0)


def apply_time_symbol(field: Field, symbol: TimeSymbol) -> Field:
    """Multiply the time spectrum by the symbol; exact per discrete mode."""
    if symbol.grid != field.grid:
        raise ValueError("symbol was tabulated for a different grid")
    return Field(field.grid, _time_multiplier(field.data, symbol))


def hilbert(field: Field) -> Field:
    """Hilbert transform in time; kills the time mean and the Nyquist mode."""
    return apply_time_symbol(field, time_symbol(field.grid, "hilbert"))


def half_derivative(field: Field) -> Field:
    """Spectral half-order time derivative (symbol -sqrt(|xi|))."""
    return apply_time_symbol(field, time_symbol(field.grid, "half_derivative"))


def time_derivative(field: Field) -> Field:
    return apply_time_symbol(field, time_symbol(field.grid, "time_derivative"))


def half_derivative_quadrature(field: Field, truncation_periods: int) -> Field:
    """Half derivative by direct quadrature of the shifted-difference integral.

    The kernel |l|^(-3/2)/sqrt(8*pi) is summed with the midpoint rule on the
    lattice l = j*dt for 1 <= |j| <= truncation_periods*n_t, using the
    periodic extension of the field.  Two closed-form completions make the
    scheme converge to the spectral operator:

    * central cell: the integrand behaves like u''(t)*|l|^(1/2)/2 there, so
      the cell contributes u''(t) * int_0^(dt/2) sqrt(l) dl, with u''
      estimated by the centered second difference;
    * far tail: beyond the truncation radius A the surviving slowly decaying
      part is the time mean against the kernel, (mean(u) - u) * 4/sqrt(A).

    The remaining error is O(dt^(3/2)) plus an oscillatory O(A^(-3/2)) tail.
    """
    grid = field.grid
    if truncation_periods < 1 or truncation_periods != int(truncation_periods):
        raise ValueError(
            f"truncation_periods must be an integer >= 1, got {truncation_periods}"
        )
    n = grid.n_t
    dt = grid.dt
    prefactor = 1.0 / np.sqrt(8.0 * np.pi)
    terms = int(truncation_periods) * n
    j = np.arange(1, terms + 1)
    weights = dt / (j * dt) ** 1.5
    kernel = np.zeros(n)
    np.add.at(kernel, j % n, weights)
    np.add.at(kernel, (-j) % n, weights)
    total_weight = kernel.sum()

    u = field.data
    spec_u = np.fft.rfft(u, axis=0)
    spec_k = np.conj(np.fft.rfft(kernel)).reshape([-1] + [1] * grid.d)
    shifted_sum = np.fft.irfft(spec_u * spec_k, n=n, axis=0)
    out = prefactor * (shifted_sum - total_weight * u)

    second_diff = (np.roll(u, -1, axis=0) - 2.0 * u + np.roll(u, 1, axis=0)) / dt**2
    out += prefactor * second_diff * (2.0 / 3.0) * (0.5 * dt) ** 1.5

    cutoff_radius = (terms + 0.5) * dt
    time_mean = u.mean(axis=0, keepdims=True)
    out += prefactor * (time_mean - u) * 4.0 / np.sqrt(cutoff_radius)
    return Field(grid, out)


def _smoothstep(y: np.ndarray) -> np.ndarray:
    y = np.clip(y, 0.0, 1.0)
    return y * y * y * (10.0 + y * (-15.0 + 6.0 * y))


def cutoff_eta(grid: Grid, k: int) -> np.ndarray:
    """Sampled plateau cutoff eta_k, a read-only (n_t,) array: 1 on
    (-2^k, 2^k), 0 outside (-2^(k+1), 2^(k+1)), quintic smoothstep ramps in
    between.  Requires the support 2^(k+1) to fit strictly inside half the
    time period.  The ramp derivative is bounded by 1.875 * 2^(-k),
    comfortably below the documented 4 * 2^(-k)."""
    k = int(k)
    inner = 2.0**k
    outer = 2.0 ** (k + 1)
    if not outer < 0.5 * grid.l_t:
        raise ValueError(
            f"cutoff support 2^(k+1) = {outer} must be < l_t/2 = {0.5 * grid.l_t}"
        )
    a = np.abs(grid.time_coordinates())
    values = _smoothstep((outer - a) / inner)
    values.flags.writeable = False
    return values


def cutoff_commutator(field: Field, k: int) -> Field:
    """u_k = D^(1/2)(u * eta_k) - eta_k * D^(1/2)u, both terms spectral."""
    grid = field.grid
    eta = cutoff_eta(grid, k).reshape([grid.n_t] + [1] * grid.d)
    half = time_symbol(grid, "half_derivative")
    out = _time_multiplier(field.data * eta, half) - eta * _time_multiplier(field.data, half)
    return Field(grid, out)
