"""Weak pairing, the twisted coercive form, the constant-coefficient Fourier
oracle, and the matrix-free preconditioned Krylov solver.

The oracle divides by the symbol of the exact DISCRETE operator (Nyquist-zeroed
time symbols, forward-difference spatial symbols), so oracle and iterative
paths agree to rounding, not to discretization order.  That symbol is
Hermitian and the fields are real, so the oracle and the spectral
preconditioner work on the half spectrum of ``rfftn`` (the last axis cut to
n/2 + 1 modes) and return through ``irfftn``.  Testing against
v - kappa*H(v) makes the skew time term coercive; with the operator norm of a
kept below 1/delta by the generators, kappa = delta^2/2 yields the lower bound
(delta^2/2)*||U||^2 exactly on the lattice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .coefficients import Coefficients
from .grid import Field, Grid, _lp, inner, lp_norm, zeros
from .operators import (
    DataBundle,
    SolutionBundle,
    apply_operator,
    apply_rhs,
    gradient_plus,
    matrix_gradient,
)
from .timeops import half_derivative, hilbert

__all__ = [
    "SolverOptions",
    "SolveResult",
    "weak_pairing",
    "twisted_pairing",
    "duality_defect",
    "solve_oracle",
    "solve",
    "multiplier_bound",
    "bundle_lp_norm",
    "compute_bundles",
]


@dataclass(frozen=True)
class SolverOptions:
    rtol: float = 1e-9
    max_iterations: int = 500
    restart: int = 40
    preconditioner: str = "constant_mean"
    kappa: float | None = None  # None: delta^2/2 wherever a form needs it

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < 1.0):
            raise ValueError(f"rtol must lie in (0, 1), got {self.rtol}")
        if self.max_iterations < 1 or self.restart < 1:
            raise ValueError("max_iterations and restart must be >= 1")
        if self.preconditioner not in ("none", "constant_mean"):
            raise ValueError(
                f"preconditioner must be 'none' or 'constant_mean', got {self.preconditioner!r}"
            )
        if self.kappa is not None and self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class SolveResult:
    u: Field
    iterations: int
    final_relative_residual: float
    wall_time: float
    converged: bool
    residual_history: tuple[float, ...] = ()


def _half_shape(grid: Grid) -> tuple[int, ...]:
    """Shape of the ``rfftn`` half spectrum: the last axis keeps n/2 + 1 modes."""
    return (*grid.shape[:-1], grid.shape[-1] // 2 + 1)


@lru_cache(maxsize=64)
def _spectral_tables(grid: Grid) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Broadcast-ready time frequencies (Nyquist zeroed) and forward-difference
    spatial symbols on the ``rfftn`` half spectrum, cached per grid."""
    tau = 2.0 * np.pi * np.fft.fftfreq(grid.n_t, d=grid.dt)
    tau[grid.n_t // 2] = 0.0
    tau = tau.reshape([grid.n_t] + [1] * grid.d)
    half = _half_shape(grid)
    sigmas = []
    for i in range(grid.d):
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.n_x[i], d=grid.h[i])
        sigma = (np.exp(1j * xi * grid.h[i]) - 1.0) / grid.h[i]
        shape = [1] * (grid.d + 1)
        shape[1 + i] = half[1 + i]
        sigmas.append(sigma[: half[1 + i]].reshape(shape))
    tau.flags.writeable = False
    for s in sigmas:
        s.flags.writeable = False
    return tau, tuple(sigmas)


def _operator_symbol(grid: Grid, matrix: np.ndarray, lam: float) -> np.ndarray:
    """Per-mode symbol i*tau + sum_ij a_ij conj(sigma_i) sigma_j + lambda on
    the half spectrum.  It is Hermitian, so the dropped modes are the complex
    conjugates of kept ones."""
    tau, sigmas = _spectral_tables(grid)
    quad = np.zeros(_half_shape(grid), dtype=complex)
    for i in range(grid.d):
        for j in range(grid.d):
            if matrix[i, j] != 0.0:
                quad = quad + matrix[i, j] * np.conj(sigmas[i]) * sigmas[j]
    return 1j * tau + quad + lam


def weak_pairing(coeffs: Coefficients, lam: float, u: Field, phi: Field) -> float:
    """Integration-by-parts form of <apply_operator(a, lam, u), phi>:
    -inner(H(D_t^{1/2}u), D_t^{1/2}phi) + sum_ij inner(a_ij (D+u)_j, (D+phi)_i)
    + lam*inner(u, phi).  Equal to the strong pairing for every discrete pair,
    because the difference pair and the time symbols are exact adjoints."""
    if u.grid != phi.grid or coeffs.grid != u.grid:
        raise ValueError("weak_pairing needs one shared grid")
    time_term = -inner(hilbert(half_derivative(u)), half_derivative(phi))
    flux = matrix_gradient(coeffs, u)
    grad_phi = gradient_plus(phi)
    space_term = sum(
        inner(flux.components[i], grad_phi.components[i])
        for i in range(u.grid.d)
    )
    return time_term + space_term + lam * inner(u, phi)


def twisted_pairing(
    coeffs: Coefficients, lam: float, kappa: float, u: Field, v: Field
) -> float:
    """weak_pairing of u against the twisted test function v - kappa*H(v)."""
    phi = Field(v.grid, v.data - kappa * hilbert(v).data)
    return weak_pairing(coeffs, lam, u, phi)


def duality_defect(coeffs: Coefficients, lam: float, u: Field, v: Field) -> float:
    """Absolute defect of the skewness identity behind the duality argument:
    pairing u against v plus pairing v against u with transposed coefficients
    must equal twice the symmetric (flux + lambda) part, the time term being
    exactly skew on the lattice."""
    transposed = Coefficients(
        grid=coeffs.grid,
        data=np.swapaxes(coeffs.data, 0, 1).copy(),
        tag=coeffs.tag,
        ellipticity=coeffs.ellipticity,
    )
    forward = weak_pairing(coeffs, lam, u, v)
    backward = weak_pairing(transposed, lam, v, u)
    flux = matrix_gradient(coeffs, u)
    grad_v = gradient_plus(v)
    sym = sum(
        inner(flux.components[i], grad_v.components[i]) for i in range(u.grid.d)
    ) + lam * inner(u, v)
    return abs(forward + backward - 2.0 * sym)


def _zero_result(grid: Grid, started: float) -> SolveResult:
    return SolveResult(
        u=zeros(grid),
        iterations=0,
        final_relative_residual=0.0,
        wall_time=time.perf_counter() - started,
        converged=True,
    )


def solve_oracle(coeffs: Coefficients, data: DataBundle) -> SolveResult:
    """Exact spectral solve for constant coefficients: divide the transformed
    right-hand side by the discrete operator symbol per mode.

    lambda = 0 is admissible: the non-invertible modes (zero and time-Nyquist
    frequency at zero spatial mode) carry no right-hand side for a valid
    DataBundle and are set to zero in u.
    """
    started = time.perf_counter()
    if coeffs.grid != data.grid:
        raise ValueError("coefficients and data live on different grids")
    grid = data.grid
    lam = data.lam
    matrix = coeffs.constant_matrix()
    rhs = apply_rhs(data)
    rhs_norm = lp_norm(rhs, 2)
    if rhs_norm == 0.0:
        return _zero_result(grid, started)

    denom = _operator_symbol(grid, matrix, lam)
    # max |rhs_hat| over the half spectrum is the full-spectrum max: the
    # dropped modes are conjugates of kept ones
    rhs_hat = np.fft.rfftn(rhs.data)
    singular = np.abs(denom) == 0.0
    if singular.any():
        stray = float(np.max(np.abs(rhs_hat[singular])))
        if stray > 1e-9 * float(np.max(np.abs(rhs_hat))):
            raise ValueError(
                "lambda = 0 leaves the zero/time-Nyquist modes non-invertible "
                f"but the data put weight {stray} on them"
            )
    u_hat = np.zeros_like(rhs_hat)
    np.divide(rhs_hat, denom, out=u_hat, where=~singular)
    u = Field(grid, np.fft.irfftn(u_hat, s=grid.shape, axes=tuple(range(grid.d + 1))))

    res = apply_operator(coeffs, lam, u).data - rhs.data
    rel = _lp(res, 2, grid.cell_measure) / rhs_norm
    return SolveResult(
        u=u,
        iterations=0,
        final_relative_residual=rel,
        wall_time=time.perf_counter() - started,
        converged=True,
    )


def solve(
    coeffs: Coefficients, data: DataBundle, options: SolverOptions | None = None
) -> SolveResult:
    """Restarted GMRES on the strong-form system, matrix-free, left-
    preconditioned by the spectral inverse of the space-time-mean coefficient
    operator.  The reported residual is the true relative residual, recomputed
    outside the Krylov recurrence."""
    started = time.perf_counter()
    options = options or SolverOptions()
    if coeffs.grid != data.grid:
        raise ValueError("coefficients and data live on different grids")
    lam = data.lam
    if lam <= 0:
        raise ValueError(
            "the iterative solver needs lambda > 0 (zero mode non-invertible); "
            "constant-coefficient lambda = 0 problems go through solve_oracle"
        )
    grid = data.grid
    shape = grid.shape
    n = int(np.prod(shape))

    b = apply_rhs(data).data.ravel()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return _zero_result(grid, started)

    def matvec(x: np.ndarray) -> np.ndarray:
        u = Field(grid, x.reshape(shape))
        return apply_operator(coeffs, lam, u).data.ravel()

    operator = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    precond = None
    if options.preconditioner == "constant_mean":
        denom = _operator_symbol(grid, coeffs.mean_matrix(), lam)
        axes = tuple(range(grid.d + 1))

        def psolve(x: np.ndarray) -> np.ndarray:
            x_hat = np.fft.rfftn(x.reshape(shape))
            x_hat /= denom
            return np.fft.irfftn(x_hat, s=shape, axes=axes).ravel()

        precond = LinearOperator((n, n), matvec=psolve, dtype=np.float64)

    history: list[float] = []
    outer = max(1, -(-options.max_iterations // options.restart))
    x = np.zeros(n)
    rel = 1.0
    # the Krylov recurrence tracks the preconditioned residual; aim below the
    # target and accept on the recomputed true residual only
    for target in (0.1 * options.rtol, 1e-3 * options.rtol):
        x, _ = gmres(
            operator,
            b,
            x0=x,
            rtol=target,
            atol=0.0,
            restart=options.restart,
            maxiter=outer,
            M=precond,
            callback=lambda pr: history.append(float(pr)),
            callback_type="pr_norm",
        )
        rel = float(np.linalg.norm(b - matvec(x))) / b_norm
        if rel <= options.rtol:
            break

    return SolveResult(
        u=Field(grid, x.reshape(shape)),
        iterations=len(history),
        final_relative_residual=rel,
        wall_time=time.perf_counter() - started,
        converged=rel <= options.rtol,
        residual_history=tuple(history),
    )


def multiplier_bound(coeffs: Coefficients, lam: float) -> float:
    """sup over discrete modes of (|tau| + |sigma|^2 + lambda) / |symbol|.

    The solution bundle per mode is the rank-one map F-hat -> v (w* F-hat)/D
    with |v| = |w| = sqrt(|tau| + |sigma|^2 + lambda), so this quotient bounds
    ||U||_2/||F||_2 for every data bundle, exactly on the lattice.
    """
    grid = coeffs.grid
    matrix = coeffs.constant_matrix()
    tau, sigmas = _spectral_tables(grid)
    weight = np.abs(tau) + lam
    for s in sigmas:
        weight = weight + np.abs(s) ** 2
    denom = np.abs(_operator_symbol(grid, matrix, lam))
    live = denom > 0
    return float(np.max(weight[live] / denom[live])) if live.any() else 0.0


def bundle_lp_norm(arrays: list[np.ndarray], grid: Grid, p: float) -> float:
    """L_p norm in space-time of the pointwise Euclidean magnitude."""
    mag_sq = np.zeros(grid.shape)
    for arr in arrays:
        mag_sq = mag_sq + arr * arr
    return _lp(np.sqrt(mag_sq), p, grid.cell_measure)


def compute_bundles(
    u: Field, data: DataBundle, p_list: tuple[float, ...] = (2.0,)
) -> dict:
    """The ||U||_p and ||F||_p tables of the solution u and its data, with the
    f/sqrt(lambda) slot omitted when lambda = 0 (f vanishes then)."""
    if u.grid != data.grid:
        raise ValueError("solution and data live on different grids")
    lam = data.lam
    u_parts = SolutionBundle.from_field(u, lam).components()
    f_parts = [data.h.data] + [c.data for c in data.g.components]
    if lam > 0:
        f_parts.append(data.f.data / np.sqrt(lam))
    return {
        "U": {p: bundle_lp_norm(u_parts, u.grid, p) for p in p_list},
        "F": {p: bundle_lp_norm(f_parts, u.grid, p) for p in p_list},
    }
