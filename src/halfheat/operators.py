"""Discrete divergence-form operator and its right-hand side.

The equation solved throughout is

    u_t - D_i(a_ij D_j u) + lambda*u = D_t^{1/2} h + D_i g_i + f

with forward-difference gradient D+ and backward-difference divergence D-.
That pair is an exact summation-by-parts adjoint on the torus, which is what
keeps the weak/strong equivalence and the coercivity algebra exact in floating
point rather than up to discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coefficients import Coefficients, identity_coefficients
from .grid import Field, Grid, VectorField
from .timeops import _time_multiplier, half_derivative, time_symbol

__all__ = [
    "gradient_plus",
    "divergence_minus",
    "matrix_gradient",
    "apply_operator",
    "apply_rhs",
    "residual",
    "DataBundle",
    "SolutionBundle",
    "manufacture_data",
    "reduce_to_identity",
]

# Raw-array kernels, samples in and out: the public functions below validate
# once and wrap the result in a Field; internal callers use the kernels.


def _gradient(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Forward differences of u, stacked component-major as (d, n_t, n_x...)."""
    grad = np.empty((grid.d, *u.shape))
    for i in range(grid.d):
        np.subtract(np.roll(u, -1, axis=1 + i), u, out=grad[i])
        grad[i] /= grid.h[i]
    return grad


def _divergence(grid: Grid, v) -> np.ndarray:
    """Backward-difference divergence of the d component arrays v[i]."""
    total = np.zeros(grid.shape)
    for i in range(grid.d):
        total += (v[i] - np.roll(v[i], 1, axis=1 + i)) / grid.h[i]
    return total


def _flux(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """sum_j a_ij grad_j for a (d, d, ...) coefficient array."""
    return np.einsum("ij...,j...->i...", a, grad)


def _operator(coeffs: Coefficients, lam: float, u: np.ndarray) -> np.ndarray:
    grid = coeffs.grid
    time_term = _time_multiplier(u, time_symbol(grid, "time_derivative"))
    return time_term - _divergence(grid, _flux(coeffs.data, _gradient(grid, u))) + lam * u


def _rhs(data: DataBundle) -> np.ndarray:
    half_h = _time_multiplier(data.h.data, time_symbol(data.grid, "half_derivative"))
    return half_h + _divergence(data.grid, [c.data for c in data.g.components]) + data.f.data


def _solution_parts(grid: Grid, u: np.ndarray, lam: float) -> list[np.ndarray]:
    """The bundle slots (D_t^{1/2}u, D+u components, sqrt(lambda) u)."""
    half = _time_multiplier(u, time_symbol(grid, "half_derivative"))
    return [half, *_gradient(grid, u), np.sqrt(lam) * u]


def _square_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Pointwise sum of squares, |U|^2 of a bundle U given by its slots."""
    return sum(arr * arr for arr in arrays)


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
    return Field(u.grid, _operator(coeffs, lam, u.data))


@dataclass(frozen=True)
class DataBundle:
    """Right-hand-side data F = (h, g, f) with the zero-order weight lambda.

    When lambda = 0 the f-slot must vanish identically (it could otherwise be
    folded into g or h, and the f/sqrt(lambda) norm slot would be undefined).
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


def apply_rhs(data: DataBundle) -> Field:
    """D_t^{1/2} h + D-(g) + f."""
    return Field(data.grid, _rhs(data))


def residual(coeffs: Coefficients, data: DataBundle, u: Field) -> Field:
    _check_grid(coeffs, u)
    return Field(u.grid, _operator(coeffs, data.lam, u.data) - _rhs(data))


@dataclass(frozen=True)
class SolutionBundle:
    """A solution together with its derivative components
    U = (D_t^{1/2} u, D+ u, sqrt(lambda) u)."""

    u: Field
    half_du: Field
    grad: VectorField
    lam: float

    @classmethod
    def from_field(cls, u: Field, lam: float) -> "SolutionBundle":
        return cls(u=u, half_du=half_derivative(u), grad=gradient_plus(u), lam=lam)

    def components(self) -> list[np.ndarray]:
        """Sample arrays of all bundle slots, sqrt(lambda)-weighted."""
        grad = [c.data for c in self.grad.components]
        return [self.half_du.data, *grad, np.sqrt(self.lam) * self.u.data]


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
    d = u.grid.d
    eye = np.eye(d).reshape(d, d, *([1] * (d + 1)))
    extra = _flux(coeffs.data - eye, _gradient(u.grid, u.data))
    g_new = VectorField(tuple(Field(u.grid, c.data + e) for c, e in zip(data.g.components, extra)))
    return identity_coefficients(u.grid), replace(data, g=g_new)
