"""Discrete divergence-form operator and its right-hand side.

The equation solved throughout is

    u_t - D_i(a_ij D_j u) + lambda*u = D_t^{1/2} h + D_i g_i + f

with forward-difference gradient D+ and backward-difference divergence D-.
That pair is an exact summation-by-parts adjoint on the torus, which is what
keeps the weak/strong equivalence and the coercivity algebra exact in floating
point rather than up to discretization error.  ``_operator`` is the one A u
kernel; the residual check asks it for D_t^{1/2}u from A u's time spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coefficients import Coefficients, identity_coefficients
from .grid import Field, Grid, VectorField
from .timeops import TimeSymbol, _time_multiplier, _time_multipliers, time_symbol

__all__ = [
    "gradient_plus",
    "divergence_minus",
    "matrix_gradient",
    "apply_operator",
    "apply_rhs",
    "residual",
    "DataBundle",
    "manufacture_data",
    "reduce_to_identity",
]

# Raw-array kernels, samples in and out: the public functions below validate
# once and wrap the result in a Field; internal callers use the kernels.


def _planes(axis: int) -> tuple[tuple, tuple]:
    """Index tuples of the first and the last plane along ``axis``."""
    lead = (slice(None),) * axis
    return lead + (slice(None, 1),), lead + (slice(-1, None),)


# Along spatial axis i the neighbour of a sample is one stride
# prod(shape[2 + i:]) away in the flat C-order samples, except across the
# periodic seam: each difference is one contiguous flat subtraction, and the
# seam plane is then redone with its wrapped neighbour.


def _gradient(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Forward differences of u, stacked component-major as (d, n_t, n_x...)."""
    grad = np.empty((grid.d, *u.shape))
    flat = u.reshape(-1)
    for i in range(grid.d):
        step = math.prod(u.shape[2 + i :])
        first, last = _planes(1 + i)
        np.subtract(flat[step:], flat[:-step], out=grad[i].reshape(-1)[:-step])
        np.subtract(u[first], u[last], out=grad[i][last])
        grad[i] /= grid.h[i]
    return grad


def _divergence(grid: Grid, v) -> np.ndarray:
    """Backward-difference divergence of the d component arrays v[i]."""
    total = np.zeros(grid.shape)
    diff = np.empty(grid.shape)
    for i in range(grid.d):
        step = math.prod(grid.shape[2 + i :])
        first, last = _planes(1 + i)
        flat = v[i].reshape(-1)
        np.subtract(flat[step:], flat[:-step], out=diff.reshape(-1)[step:])
        np.subtract(v[i][first], v[i][last], out=diff[first])
        diff /= grid.h[i]
        total += diff
    return total


def _flux(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """sum_j a_ij grad_j for a (d, d, ...) coefficient array."""
    if len(a) == 1:
        return a[0] * grad  # d = 1: one product (einsum's sum turns -0.0 to +0.0)
    return np.einsum("ij...,j...->i...", a, grad)


def _operator(
    coeffs: Coefficients, lam: float, u: np.ndarray, *symbols: TimeSymbol
) -> list[np.ndarray]:
    """[A u, *(m(u) for each time symbol m)], A u in place in the bytes of
    time_term - div + lam*u and the m(u) from its time spectrum.  The
    divergence comes first, so the gradient and the flux die before the
    spectrum is made, and the spectrum before A u is copied to C order."""
    grid = coeffs.grid
    div = _divergence(grid, _flux(coeffs.data, _gradient(grid, u)))
    *multiplied, applied = _time_multipliers(u, *symbols, time_symbol(grid, "time_derivative"))
    applied -= div
    del div
    applied += lam * u
    return [applied, *multiplied]


def _rhs(data: DataBundle) -> np.ndarray:
    """D_t^{1/2} h + D-(g) + f, computed once per bundle (read-only)."""
    return data._rhs_samples


def _solution_parts(grid: Grid, u: np.ndarray, lam: float, half=None) -> list[np.ndarray]:
    """The bundle slots (D_t^{1/2}u, D+u components, sqrt(lambda) u); half is
    D_t^{1/2}u when the caller has made it."""
    if half is None:
        half = _time_multiplier(u, time_symbol(grid, "half_derivative"))
    return [half, *_gradient(grid, u), np.sqrt(lam) * u]


def _data_parts(data: DataBundle) -> list[np.ndarray]:
    """The bundle slots (h, g components, f/sqrt(lambda)), with no f slot at
    lambda = 0 (f vanishes then)."""
    parts = [data.h.data, *(c.data for c in data.g.components)]
    if data.lam > 0:
        parts.append(data.f.data / np.sqrt(data.lam))
    return parts


def _check_grid(coeffs: Coefficients, u: Field) -> None:
    if coeffs.grid != u.grid:
        raise ValueError("coefficients and field live on different grids")


def gradient_plus(u: Field) -> VectorField:
    """Forward differences (u(x + h e_i) - u(x)) / h_i per spatial axis."""
    return VectorField(tuple(Field(u.grid, c) for c in _gradient(u.grid, u.data)))


def divergence_minus(v: VectorField) -> Field:
    """Backward-difference divergence, the exact negative adjoint of
    gradient_plus: inner(gradient_plus(u), v) = -inner(u, divergence_minus(v))."""
    return Field(v.grid, _divergence(v.grid, [c.data for c in v.components]))


def matrix_gradient(coeffs: Coefficients, u: Field) -> VectorField:
    """(a . D+ u)_i = sum_j a_ij (D+ u)_j, sampled pointwise."""
    _check_grid(coeffs, u)
    flux = _flux(coeffs.data, _gradient(u.grid, u.data))
    return VectorField(tuple(Field(u.grid, c) for c in flux))


def apply_operator(coeffs: Coefficients, lam: float, u: Field) -> Field:
    """Strong form: time_derivative(u) - D-(a . D+ u) + lambda*u."""
    _check_grid(coeffs, u)
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return Field(u.grid, _operator(coeffs, lam, u.data)[0])


@dataclass(frozen=True)
class DataBundle:
    """Right-hand-side data F = (h, g, f) with the zero-order weight lambda.

    When lambda = 0 the f-slot must vanish identically (it could otherwise be
    folded into g or h, and the f/sqrt(lambda) norm slot would be undefined).
    The right-hand side D_t^{1/2} h + D-(g) + f is computed on first use and
    kept on the bundle, read-only.
    """

    h: Field
    g: VectorField
    f: Field
    lam: float

    def __post_init__(self) -> None:
        grid = self.h.grid
        if self.g.grid != grid or self.f.grid != grid:
            raise ValueError("h, g, f must share one grid")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.lam == 0 and float(np.max(np.abs(self.f.data))) != 0.0:
            raise ValueError("lambda = 0 requires f to vanish identically")

    @property
    def grid(self):
        return self.h.grid

    @cached_property
    def _rhs_samples(self) -> np.ndarray:
        # in the instance __dict__, which a frozen dataclass leaves writable;
        # replace() builds a new bundle without it
        half_h = _time_multiplier(self.h.data, time_symbol(self.grid, "half_derivative"))
        rhs = half_h + _divergence(self.grid, [c.data for c in self.g.components]) + self.f.data
        rhs.flags.writeable = False
        return rhs


def _at_lambda(data: DataBundle, lam: float) -> DataBundle:
    """data with weight lam, sharing data's right-hand side samples: the
    right-hand side D_t^{1/2} h + D-(g) + f contains no lambda."""
    bundle = replace(data, lam=lam)
    bundle.__dict__["_rhs_samples"] = data._rhs_samples
    return bundle


def apply_rhs(data: DataBundle) -> Field:
    """D_t^{1/2} h + D-(g) + f."""
    return Field(data.grid, _rhs(data))


def residual(coeffs: Coefficients, data: DataBundle, u: Field) -> Field:
    _check_grid(coeffs, u)
    return Field(u.grid, _operator(coeffs, data.lam, u.data)[0] - _rhs(data))


def manufacture_data(coeffs: Coefficients, lam: float, u: Field) -> DataBundle:
    """Data for which u is an exact discrete solution: h = -H(D_t^{1/2}u)
    turns into the time derivative under D_t^{1/2} (symbol chain
    -m_half*m_hilb*m_half = m_deriv), g = -a.D+u cancels the flux, f = lambda*u.
    The residual is zero to rounding, not merely to discretization order.
    """
    _check_grid(coeffs, u)
    half = _time_multiplier(u.data, time_symbol(u.grid, "half_derivative"))
    h = Field(u.grid, -_time_multiplier(half, time_symbol(u.grid, "hilbert")))
    flux = _flux(coeffs.data, _gradient(u.grid, u.data))
    g = VectorField(tuple(Field(u.grid, -c) for c in flux))
    return DataBundle(h=h, g=g, f=Field(u.grid, lam * u.data), lam=lam)


def reduce_to_identity(
    coeffs: Coefficients, data: DataBundle, u: Field
) -> tuple[Coefficients, DataBundle]:
    """Move the coefficient roughness into the data: if u solves the equation
    with (a, g) it solves the identity-coefficient equation with
    g~_i = g_i + (a_ij - delta_ij)(D+ u)_j, exactly on the discrete lattice."""
    identity = identity_coefficients(u.grid)
    extra = _flux(coeffs.data - identity.data, _gradient(u.grid, u.data))
    g_new = VectorField(tuple(Field(u.grid, c.data + e) for c, e in zip(data.g.components, extra)))
    return identity, replace(data, g=g_new)
