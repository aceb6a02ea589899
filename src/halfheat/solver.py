"""Weak pairing, the twisted coercive form, the constant-coefficient Fourier
oracle, the exact solves for x1- and time-measurable coefficients, and the
matrix-free preconditioned Krylov solver.

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
from .grid import Field, Grid, _integer, _lp, inner, lp_norm, zeros
from .operators import (
    DataBundle,
    SolutionBundle,
    apply_operator,
    apply_rhs,
    gradient_plus,
    matrix_gradient,
)
from .timeops import half_derivative, hilbert, time_symbol

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

    def __post_init__(self) -> None:
        # a bool is an int and NaN fails every comparison, so both are tested
        # for; the integer fields read as grid._integer does (64.0, "64")
        rtol = self.rtol
        if (
            isinstance(rtol, (bool, np.bool_))
            or not isinstance(rtol, (int, float, np.integer, np.floating))
            or not 0.0 < rtol < 1.0
        ):
            raise ValueError(f"'rtol' must be a float in (0, 1), got {rtol!r}")
        object.__setattr__(self, "rtol", float(rtol))
        for name in ("max_iterations", "restart"):
            value = _integer(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"'{name}' must be >= 1, got {value}")
            object.__setattr__(self, name, value)


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


def _difference_symbol(grid: Grid, i: int) -> np.ndarray:
    """Symbol (exp(i xi h) - 1) / h of the forward difference along spatial
    axis i, over all n_x[i] modes in FFT order."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n_x[i], d=grid.h[i])
    return (np.exp(1j * xi * grid.h[i]) - 1.0) / grid.h[i]


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
        shape = [1] * (grid.d + 1)
        shape[1 + i] = half[1 + i]
        sigmas.append(_difference_symbol(grid, i)[: half[1 + i]].reshape(shape))
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


def _cyclic_thomas(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve the periodic tridiagonal systems
    lower[m] x[m-1] + diag[m] x[m] + upper[m] x[m+1] = rhs[m] (indices mod n)
    along axis 0, batched over the trailing axes of diag and rhs; lower and
    upper broadcast against them.

    One Thomas sweep serves two right-hand sides: rhs and the Sherman-Morrison
    vector that moves the two corner entries, lower[0] (row 0, column n-1) and
    upper[n-1] (row n-1, column 0), out of the matrix (Numerical Recipes
    section 2.7, gamma = -diag[0])."""
    n = diag.shape[0]
    corner_top, corner_bottom = lower[0], upper[n - 1]
    gamma = -diag[0]
    diag = diag.copy()
    diag[0] = diag[0] - gamma
    diag[n - 1] = diag[n - 1] - corner_bottom * corner_top / gamma
    # column 0 is rhs, column 1 the Sherman-Morrison vector (gamma, 0, ..., 0, corner_bottom)
    sweep = np.zeros((n, 2, *diag.shape[1:]), dtype=complex)
    sweep[:, 0] = rhs
    sweep[0, 1] = gamma
    sweep[n - 1, 1] = corner_bottom
    ratio = np.empty(diag.shape, dtype=complex)
    pivot = diag[0]
    ratio[0] = upper[0] / pivot
    sweep[0] /= pivot
    for m in range(1, n):
        pivot = diag[m] - lower[m] * ratio[m - 1]
        ratio[m] = upper[m] / pivot
        sweep[m] -= lower[m] * sweep[m - 1]
        sweep[m] /= pivot
    for m in range(n - 2, -1, -1):
        sweep[m] -= ratio[m] * sweep[m + 1]
    x, z = sweep[:, 0], sweep[:, 1]
    fact = (x[0] + corner_top * x[n - 1] / gamma) / (
        1.0 + z[0] + corner_top * z[n - 1] / gamma
    )
    return x - fact * z


def _x1_direct(coeffs: Coefficients, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Solve apply_operator(coeffs, lam, u) = rhs exactly (to rounding) for
    coefficients that vary along x1 only.

    After rfft along t and fft along x2..xd the operator is diagonal in
    (tau, xi'), and each mode leaves the periodic tridiagonal system along x1

        (i tau + lam) v(m) - [F(m) - F(m-1)] / h1 + sum_{i>=2} conj(sigma_i) G_i(m)

    with F(m) = a11(m) (v(m+1) - v(m)) / h1 + b(m) v(m), b = sum_{j>=2} a_1j sigma_j,
    and G_i the transverse fluxes, which give c = sum_{i>=2} conj(sigma_i) a_i1 and
    e = sum_{i,j>=2} conj(sigma_i) a_ij sigma_j.  The time symbol is the table
    apply_operator uses (Nyquist zeroed) and sigma_j are the forward-difference
    symbols, so the systems are the discrete operator, not a discretisation of it.
    """
    grid = coeffs.grid
    d = grid.d
    h1 = grid.h[0]
    n_tau = grid.n_t // 2 + 1
    # x1 profiles a_ij(m), shaped (n1, 1, ..., 1) against the mode layout
    # (n1, n_tau, n2, ..., nd) used below
    view = (grid.n_x[0],) + (1,) * d
    profile = [
        [coeffs.data[(i, j, 0, slice(None)) + (0,) * (d - 1)].reshape(view) for j in range(d)]
        for i in range(d)
    ]
    itau = time_symbol(grid, "time_derivative").values[:n_tau].reshape((1, n_tau) + (1,) * (d - 1))
    sigmas = []
    for i in range(1, d):
        shape = [1] * (d + 1)
        shape[1 + i] = grid.n_x[i]
        sigmas.append(_difference_symbol(grid, i).reshape(shape))
    a11 = profile[0][0]
    zero = np.zeros(view)  # the mixed terms vanish in d = 1
    b = sum((profile[0][j] * sigmas[j - 1] for j in range(1, d)), zero)
    c = sum((np.conj(sigmas[i - 1]) * profile[i][0] for i in range(1, d)), zero)
    e = sum(
        (
            np.conj(sigmas[i - 1]) * profile[i][j] * sigmas[j - 1]
            for i in range(1, d)
            for j in range(1, d)
        ),
        zero,
    )
    a11_prev, b_prev = np.roll(a11, 1, axis=0), np.roll(b, 1, axis=0)
    lower = -a11_prev / h1**2 + b_prev / h1
    upper = -a11 / h1**2 + c / h1
    diag = itau + lam + (a11 + a11_prev) / h1**2 - (b + c) / h1 + e

    spatial = tuple(range(2, d + 1))
    spec = np.fft.rfft(rhs, axis=0)
    if spatial:
        spec = np.fft.fftn(spec, axes=spatial)
    u_hat = _cyclic_thomas(lower, diag, upper, np.moveaxis(spec, 1, 0))
    u_hat = np.moveaxis(u_hat, 0, 1)
    if spatial:
        u_hat = np.fft.ifftn(u_hat, axes=spatial)
    return np.fft.irfft(u_hat, n=grid.n_t, axis=0)


# bytes of per-mode n_t x n_t matrices _t_direct assembles at once
_T_DIRECT_CHUNK_BYTES = 2**22


def _t_direct(coeffs: Coefficients, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Solve apply_operator(coeffs, lam, u) = rhs exactly (to rounding) for
    coefficients that vary in t only.

    After rfftn over the spatial axes the operator is diagonal in xi, and each
    spatial mode leaves the dense n_t x n_t system

        (C + diag(q_xi(t)) + lam) v = f_xi,   q_xi(t) = sum_ij a_ij(t) conj(sigma_i) sigma_j,

    with C the real circulant of the time_derivative table apply_operator uses
    (Nyquist zeroed) and sigma_j the forward-difference symbols.  D_t is
    spectral, so C is dense and no sweep applies: the systems are assembled in
    chunks of _T_DIRECT_CHUNK_BYTES and each chunk goes to one batched
    np.linalg.solve.

    Coefficients that do not vary in t at all (a time_piecewise draw whose
    pieces coincide, as every draw at delta = 1 does) make each system
    circulant, diagonal in tau: one division by the operator symbol, as in
    the oracle, solves them."""
    grid = coeffs.grid
    d, n_t = grid.d, grid.n_t
    profile = coeffs.data.reshape(d, d, n_t, -1)[..., 0]  # a_ij(t)
    if np.all(profile == profile[..., :1]):
        u_hat = np.fft.rfftn(rhs) / _operator_symbol(grid, profile[..., 0], lam)
        return np.fft.irfftn(u_hat, s=grid.shape, axes=tuple(range(d + 1)))

    spatial = tuple(range(1, d + 1))
    # C[m, k] = c[m - k]: convolution with the inverse transform of i*tau
    kernel = np.fft.irfft(time_symbol(grid, "time_derivative").values[: n_t // 2 + 1], n=n_t)
    steps = np.arange(n_t)
    circulant = kernel[(steps[:, None] - steps[None, :]) % n_t] + lam * np.eye(n_t)

    # the spatial rfftn keeps the layout of the rfftn half spectrum, so the
    # cached sigma tables apply as they are; modes are flattened to one axis
    _, sigmas = _spectral_tables(grid)
    half = _half_shape(grid)
    spec = np.fft.rfftn(rhs, axes=spatial).reshape(n_t, -1)
    quad = np.zeros(spec.shape, dtype=complex)
    for i in range(d):
        for j in range(d):
            weight = np.broadcast_to(np.conj(sigmas[i]) * sigmas[j], (1, *half[1:]))
            quad += np.outer(profile[i, j], weight)

    modes = spec.shape[1]
    u_hat = np.empty((modes, n_t), dtype=complex)
    chunk = max(1, _T_DIRECT_CHUNK_BYTES // (16 * n_t * n_t))
    diagonal = np.arange(n_t)
    for start in range(0, modes, chunk):
        stop = min(start + chunk, modes)
        mats = np.empty((stop - start, n_t, n_t), dtype=complex)
        mats[...] = circulant
        mats[:, diagonal, diagonal] += quad[:, start:stop].T
        u_hat[start:stop] = np.linalg.solve(mats, spec[:, start:stop].T[..., None])[..., 0]
    u_hat = u_hat.T.reshape(half)
    return np.fft.irfftn(u_hat, s=grid.n_x, axes=spatial)


def _direct_solver(coeffs: Coefficients):
    """The exact solver GMRES starts from, or None (GMRES starts from zero).

    Time-measurable systems cost about modes * n_t^3 against GMRES's
    iterations * n_t * modes * log; the measured crossover (2 vCPUs) is
    n_t^2 = 8192 * d, so larger time axes stay on GMRES."""
    grid = coeffs.grid
    if coeffs.tag == "x1_measurable":
        return _x1_direct
    if coeffs.tag == "time_measurable" and grid.n_t**2 <= 8192 * grid.d:
        return _t_direct
    return None


def solve(
    coeffs: Coefficients, data: DataBundle, options: SolverOptions | None = None
) -> SolveResult:
    """Restarted GMRES on the strong-form system, matrix-free, left-
    preconditioned by the spectral inverse of the space-time-mean coefficient
    operator.  The reported residual is the true relative residual, recomputed
    outside the Krylov recurrence.

    Coefficients tagged x1_measurable, and time_measurable ones on a short
    enough time axis, start GMRES from an exact direct solve (_x1_direct,
    _t_direct; see _direct_solver); when its true residual already meets
    rtol, no GMRES iteration runs, neither operator nor preconditioner is
    built, and the result reports iterations = 0."""
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

    history: list[float] = []
    x = np.zeros(n)
    rel = 1.0
    direct = _direct_solver(coeffs)
    if direct is not None:
        x = direct(coeffs, lam, b.reshape(shape)).ravel()
        rel = float(np.linalg.norm(b - matvec(x))) / b_norm
    if rel > options.rtol:
        operator = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
        denom = _operator_symbol(grid, coeffs.mean_matrix(), lam)
        axes = tuple(range(grid.d + 1))

        def psolve(x: np.ndarray) -> np.ndarray:
            x_hat = np.fft.rfftn(x.reshape(shape))
            x_hat /= denom
            return np.fft.irfftn(x_hat, s=shape, axes=axes).ravel()

        precond = LinearOperator((n, n), matvec=psolve, dtype=np.float64)
        outer = max(1, -(-options.max_iterations // options.restart))
        # the Krylov recurrence tracks the preconditioned residual; aim below
        # the target and accept on the recomputed true residual only
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
