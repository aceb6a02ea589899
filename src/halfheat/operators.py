"""Discrete divergence-form operator and its right-hand side.

The equation solved throughout is

    u_t - D_i(a_ij D_j u) + lambda*u = D_t^{1/2} h + D_i g_i + f

with forward-difference gradient D+ and backward-difference divergence D-.
That pair is an exact summation-by-parts adjoint on the torus, which is what
keeps the weak/strong equivalence and the coercivity algebra exact in floating
point rather than up to discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Coefficients, identity_coefficients
from .grid import Field, VectorField
from .timeops import half_derivative, hilbert, time_derivative

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


def gradient_plus(u: Field) -> VectorField:
    """Forward differences (u(x + h e_i) - u(x)) / h_i per spatial axis."""
    grid = u.grid
    parts = []
    for i in range(grid.d):
        axis = 1 + i
        diff = (np.roll(u.data, -1, axis=axis) - u.data) / grid.h[i]
        parts.append(Field(grid, diff))
    return VectorField(tuple(parts))


def divergence_minus(v: VectorField) -> Field:
    """Backward-difference divergence, the exact negative adjoint of
    gradient_plus: inner(gradient_plus(u), v) = -inner(u, divergence_minus(v))."""
    grid = v.grid
    total = np.zeros(grid.shape)
    for i, comp in enumerate(v.components):
        axis = 1 + i
        total += (comp.data - np.roll(comp.data, 1, axis=axis)) / grid.h[i]
    return Field(grid, total)


def matrix_gradient(coeffs: Coefficients, u: Field) -> VectorField:
    """(a . D+ u)_i = sum_j a_ij (D+ u)_j, sampled pointwise."""
    if coeffs.grid != u.grid:
        raise ValueError("coefficients and field live on different grids")
    grad = gradient_plus(u)
    stacked = grad.stacked()
    flux = np.einsum("ij...,j...->i...", coeffs.data, stacked)
    return VectorField(tuple(Field(u.grid, flux[i]) for i in range(u.grid.d)))


def apply_operator(coeffs: Coefficients, lam: float, u: Field) -> Field:
    """Strong form: time_derivative(u) - D-(a . D+ u) + lambda*u."""
    if coeffs.grid != u.grid:
        raise ValueError("coefficients and field live on different grids")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    flux = matrix_gradient(coeffs, u)
    out = time_derivative(u).data - divergence_minus(flux).data + lam * u.data
    return Field(u.grid, out)


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
    out = (
        half_derivative(data.h).data
        + divergence_minus(data.g).data
        + data.f.data
    )
    return Field(data.grid, out)


def residual(coeffs: Coefficients, data: DataBundle, u: Field) -> Field:
    return Field(
        u.grid, apply_operator(coeffs, data.lam, u).data - apply_rhs(data).data
    )


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
        return (
            [self.half_du.data]
            + [c.data for c in self.grad.components]
            + [np.sqrt(self.lam) * self.u.data]
        )


def manufacture_data(coeffs: Coefficients, lam: float, u: Field) -> DataBundle:
    """Data for which u is an exact discrete solution: h = -H(D_t^{1/2}u)
    turns into the time derivative under D_t^{1/2} (symbol chain
    -m_half*m_hilb*m_half = m_deriv), g = -a.D+u cancels the flux, f = lambda*u.
    The residual is zero to rounding, not merely to discretization order.
    """
    h = Field(u.grid, -hilbert(half_derivative(u)).data)
    flux = matrix_gradient(coeffs, u)
    g = VectorField(tuple(Field(u.grid, -c.data) for c in flux.components))
    f = Field(u.grid, lam * u.data)
    return DataBundle(h=h, g=g, f=f, lam=lam)


def reduce_to_identity(
    coeffs: Coefficients, data: DataBundle, u: Field
) -> tuple[Coefficients, DataBundle]:
    """Move the coefficient roughness into the data: if u solves the equation
    with (a, g) it solves the identity-coefficient equation with
    g~_i = g_i + (a_ij - delta_ij)(D+ u)_j, exactly on the discrete lattice."""
    grad = gradient_plus(u).stacked()
    d = u.grid.d
    eye = np.eye(d).reshape(d, d, *([1] * (d + 1)))
    shift = coeffs.data - eye
    extra = np.einsum("ij...,j...->i...", shift, grad)
    g_new = VectorField(
        tuple(
            Field(u.grid, data.g.components[i].data + extra[i])
            for i in range(d)
        )
    )
    new_data = DataBundle(h=data.h, g=g_new, f=data.f, lam=data.lam)
    return identity_coefficients(u.grid), new_data
