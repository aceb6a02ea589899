"""Weak pairing, the twisted coercive form, and solve(), one pipeline whose
path the coefficient tag picks from one table: an exact start where the tag
gives one (the Fourier oracle for constant coefficients, which is final, and
the x1 sweep for x1-measurable ones), one correction by the batched
restarted GMRES loop in the tag's frame otherwise, and on every path one
residual check.

The oracle divides by the symbol of the exact DISCRETE operator (Nyquist-zeroed
time symbols, forward-difference spatial symbols), so oracle and iterative
paths agree to rounding, not to discretization order.  That symbol is
Hermitian and the fields are real, so the oracle and the spectral
preconditioner divide by it in one kernel, ``_spectral_divide``, on the half
spectrum of ``rfftn`` (the last axis cut to n/2 + 1 modes).  Testing against
v - kappa*H(v) makes the skew time term coercive; with the operator norm of a
kept below 1/delta by the generators, kappa = delta^2/2 yields the lower bound
(delta^2/2)*||U||^2 exactly on the lattice.

The module needs numpy only.  Its LinearOperator is a stand-in that keeps
scipy's call convention, so that scipy is not loaded at import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .coefficients import Coefficients
from .grid import (
    Field, Grid, _c_order, _exponent, _integer, _lp, _magnitude, _norm, _on_axis, inner, zeros,
)
from .operators import DataBundle, _data_parts, _flux, _gradient, _operator, _rhs, _solution_parts
from .timeops import _time_spectrum, half_derivative, hilbert, time_symbol

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
    # the path that produced u: "oracle", "x1_direct", "t_frame_gmres" or
    # "gmres"; iterations counts GMRES's batched steps (each advances every
    # live row, one row per spatial mode in the (t, xi) frame)
    method: str
    # sqrt(sum_r estimate_r^2) / ||b|| after each batched step: a row's least
    # squares estimate, or its true residual once recomputed.  The frame map
    # keeps norms, so this is the physical quantity rtol compares
    residual_history: tuple[float, ...] = ()
    # operator applications: one per batched apply of A P^{-1}, one per
    # batched true-residual check and one per physical check
    matvecs: int = 0
    # the final check's bundle slots (D_t^{1/2}u, *D+u, sqrt(lambda) u); None for zero data
    slots: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for slot in self.slots or ():
            slot.flags.writeable = False


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
    spatial symbols on the ``rfftn`` half spectrum, cached per grid.  tau is
    the table of the time derivative that ``operators._operator`` applies."""
    tau = _on_axis(time_symbol(grid, "time_derivative").values.imag, 0, grid.d + 1)
    half = _half_shape(grid)
    sigmas = [
        _on_axis(_difference_symbol(grid, i)[: half[1 + i]], 1 + i, grid.d + 1)
        for i in range(grid.d)
    ]
    tau.flags.writeable = False
    for s in sigmas:
        s.flags.writeable = False
    return tau, tuple(sigmas)


def _quad_symbol(grid: Grid, matrix: np.ndarray) -> np.ndarray:
    """sum_ij a_ij conj(sigma_i) sigma_j over the spatial modes of the half
    spectrum, shaped (1, *half[1:]): the same at every tau."""
    _, sigmas = _spectral_tables(grid)
    quad = np.zeros((1, *_half_shape(grid)[1:]), dtype=complex)
    for i in range(grid.d):
        for j in range(grid.d):
            if matrix[i, j] != 0.0:
                quad = quad + matrix[i, j] * np.conj(sigmas[i]) * sigmas[j]
    return quad


def _operator_symbol(grid: Grid, matrix: np.ndarray, lam: float) -> np.ndarray:
    """Per-mode symbol i*tau + sum_ij a_ij conj(sigma_i) sigma_j + lambda on
    the half spectrum.  It is Hermitian, so the dropped modes are the complex
    conjugates of kept ones."""
    tau, _ = _spectral_tables(grid)
    return 1j * tau + _quad_symbol(grid, matrix) + lam


def _spectral_divide(x: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """irfftn(rfftn(x) / denom) for a half-spectrum symbol denom.

    Where denom vanishes (at lambda = 0 the zero and time-Nyquist modes at
    zero spatial mode) x must carry no weight, and the result is zero there.
    A caller that hands over its only reference to denom frees it before
    irfftn."""
    x_hat = np.fft.rfftn(x)
    if not denom.all():
        singular = denom == 0.0
        # max |x_hat| over the half spectrum is the full-spectrum max: the
        # dropped modes are conjugates of kept ones
        stray = float(np.max(np.abs(x_hat[singular])))
        if stray > 1e-9 * float(np.max(np.abs(x_hat))):
            raise ValueError(
                "lambda = 0 leaves the zero/time-Nyquist modes non-invertible "
                f"but the data put weight {stray} on them"
            )
        x_hat[singular] = 0.0
        denom = np.where(singular, 1.0, denom)
    x_hat /= denom
    del denom
    return np.fft.irfftn(x_hat, s=x.shape, axes=tuple(range(x.ndim)))


def _flux_pairing(coeffs: Coefficients, u: Field, v: Field) -> float:
    """sum_ij inner(a_ij (D+u)_j, (D+v)_i)."""
    grid = u.grid
    pairs = zip(_flux(coeffs.data, _gradient(grid, u.data)), _gradient(grid, v.data))
    return sum(float(np.sum(f * g) * grid.cell_measure) for f, g in pairs)


def weak_pairing(coeffs: Coefficients, lam: float, u: Field, phi: Field) -> float:
    """Integration-by-parts form of <apply_operator(a, lam, u), phi>:
    -inner(H(D_t^{1/2}u), D_t^{1/2}phi) + sum_ij inner(a_ij (D+u)_j, (D+phi)_i)
    + lam*inner(u, phi).  Equal to the strong pairing for every discrete pair,
    because the difference pair and the time symbols are exact adjoints."""
    if u.grid != phi.grid or coeffs.grid != u.grid:
        raise ValueError("weak_pairing needs one shared grid")
    time_term = -inner(hilbert(half_derivative(u)), half_derivative(phi))
    return time_term + _flux_pairing(coeffs, u, phi) + lam * inner(u, phi)


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
    transposed = replace(coeffs, data=np.swapaxes(coeffs.data, 0, 1))
    forward = weak_pairing(coeffs, lam, u, v)
    backward = weak_pairing(transposed, lam, v, u)
    sym = _flux_pairing(coeffs, u, v) + lam * inner(u, v)
    return abs(forward + backward - 2.0 * sym)


def _finite(x: np.ndarray, method: str, lam: float) -> np.ndarray:
    """x, whose samples must be finite: u carries 1/lambda, which overflows
    at a tiny lambda, and that is a ValueError naming the path and lambda."""
    if not np.isfinite(x).all():
        raise ValueError(f"{method} solve at lambda = {lam} overflowed: u is not finite")
    return x


def _oracle(coeffs: Coefficients, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Exact spectral solve for constant coefficients: divide the transformed
    right-hand side by the discrete operator symbol per mode.

    lambda = 0 is admissible: the non-invertible modes (zero and time-Nyquist
    frequency at zero spatial mode) carry no right-hand side for a valid
    DataBundle and are set to zero in u.
    """
    u = _spectral_divide(rhs, _operator_symbol(coeffs.grid, coeffs.constant_matrix(), lam))
    return _finite(u, "oracle", lam)  # refused before the check spends an apply on it


def _check(
    coeffs: Coefficients, lam: float, u: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, float, list[np.ndarray]]:
    """The one residual check of u against the right-hand side b, for every
    solve path and for the verifiers' bare u: (r = b - A u, written over A u;
    ||r|| / ||b||, or ||r|| / max(||u||, 1) when b = 0; the bundle slots
    (D_t^{1/2}u, *D+u, sqrt(lambda) u)).  A u and D_t^{1/2}u come from one
    time spectrum, and every norm is grid._norm."""
    applied, half = _operator(coeffs, lam, u, time_symbol(coeffs.grid, "half_derivative"))
    r = np.subtract(b, applied, out=applied)
    rel = _norm(r) / (_norm(b) or max(_norm(u), 1.0))
    return r, rel, _solution_parts(coeffs.grid, u, lam, half)


def solve_oracle(coeffs: Coefficients, data: DataBundle) -> SolveResult:
    """solve on constant coefficients, whose exact start _oracle is final."""
    if coeffs.tag != "constant":
        raise ValueError(f"solve_oracle needs tag 'constant', got {coeffs.tag!r}")
    return solve(coeffs, data)


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
    section 2.7, gamma = -diag[0]).  diag is read, not copied: only its two
    corner-corrected rows are new.  rhs is copied into the sweep and then
    released, so a caller that hands over its only reference frees it."""
    n = diag.shape[0]
    corner_top, corner_bottom = lower[0], upper[n - 1]
    gamma = -diag[0]
    first = diag[0] - gamma
    last = diag[n - 1] - corner_bottom * corner_top / gamma
    # column 0 is rhs, column 1 the Sherman-Morrison vector (gamma, 0, ..., 0, corner_bottom)
    sweep = np.zeros((n, 2, *diag.shape[1:]), dtype=complex)
    sweep[:, 0] = rhs
    del rhs
    sweep[0, 1] = gamma
    sweep[n - 1, 1] = corner_bottom
    ratio = np.empty(diag.shape, dtype=complex)
    ratio[0] = upper[0] / first
    sweep[0] /= first
    for m in range(1, n):
        pivot = (last if m == n - 1 else diag[m]) - lower[m] * ratio[m - 1]
        ratio[m] = upper[m] / pivot
        sweep[m] -= lower[m] * sweep[m - 1]
        sweep[m] /= pivot
    for m in range(n - 2, -1, -1):
        sweep[m] -= ratio[m] * sweep[m + 1]
    del ratio
    x, z = sweep[:, 0], sweep[:, 1]
    fact = (x[0] + corner_top * x[n - 1] / gamma) / (
        1.0 + z[0] + corner_top * z[n - 1] / gamma
    )
    x -= fact * z
    return x


def _x1_spectrum(rhs: np.ndarray, spatial: tuple[int, ...]) -> np.ndarray:
    """rfft of rhs along t and fft along the spatial axes, laid out as
    (n1, n_tau, n2, ..., nd); from _LAYOUT_BYTES up, contiguous in tau."""
    spec = _time_spectrum(rhs)
    if spatial:
        spec = np.fft.fftn(spec, axes=spatial)
    return np.moveaxis(spec, 1, 0)


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
    # x1 profiles a_ij(m), profile[i, j] shaped (n1, 1, ..., 1) against the
    # mode layout (n1, n_tau, n2, ..., nd) used below
    view = (grid.n_x[0],) + (1,) * d
    profile = coeffs.data.reshape((d, d) + view)
    itau = _on_axis(time_symbol(grid, "time_derivative").values[:n_tau], 1, d + 1)
    sigmas = [_on_axis(_difference_symbol(grid, i), 1 + i, d + 1) for i in range(1, d)]
    a11 = profile[0, 0]
    zero = np.zeros(view)  # the mixed terms vanish in d = 1
    b = sum((profile[0, j] * sigmas[j - 1] for j in range(1, d)), zero)
    c = sum((np.conj(sigmas[i - 1]) * profile[i, 0] for i in range(1, d)), zero)
    e = sum(
        (
            np.conj(sigmas[i - 1]) * profile[i, j] * sigmas[j - 1]
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
    # the sweep holds the only reference to the spectrum, which dies once copied in
    u_hat = np.moveaxis(_cyclic_thomas(lower, diag, upper, _x1_spectrum(rhs, spatial)), 0, 1)
    if spatial:
        u_hat = np.fft.ifftn(u_hat, axes=spatial)
    u = np.fft.irfft(u_hat, n=grid.n_t, axis=0)
    del u_hat  # in d = 1 a view that holds the whole sweep
    return _c_order(u)


def _q_table(grid: Grid, profile: np.ndarray, rows=slice(None)) -> np.ndarray:
    """q_xi(t) = sum_ij profile_ij(t) conj(sigma_i) sigma_j of a (d, d, n_t) profile,
    shape (modes, n_t): one row per mode of the spatial ``rfftn`` half spectrum
    picked by rows (all of them by default)."""
    _, sigmas = _spectral_tables(grid)
    spatial = (1, *_half_shape(grid)[1:])
    pairs = [
        np.broadcast_to(np.conj(sigmas[i]) * sigmas[j], spatial).ravel()[rows]
        for i in range(grid.d)
        for j in range(grid.d)
    ]
    terms = map(np.outer, pairs, profile.reshape(-1, grid.n_t))
    q = next(terms)
    q += 0.0  # the sum starts from zeros, so a -0.0 term reads +0.0
    for term in terms:
        q += term
    return q


def _t_frame(coeffs: Coefficients, lam: float):
    """GMRES's systems for time-measurable coefficients in the (t, xi) frame.

    The frame map y = sqrt(w / N_x) * rfftn(x, axes=space), laid out as
    (modes, n_t), is an isometry from the real fields: w counts each
    half-spectrum plane's multiplicity (1 on the zero and Nyquist planes of
    the last spatial axis, 2 elsewhere), so frame residual norms are the
    physical ones.  In the frame the operator is block-diagonal: one system
    (C + diag(q_xi(t)) + lam) per spatial mode xi, with C the circulant of
    the Nyquist-zeroed time-derivative symbol and q_xi(t) = sum_ij a_ij(t)
    conj(sigma_i) sigma_j.  P = C + q_bar_xi + lam, with q_bar_xi the same
    sum over mean_t(a_ij), is the constant_mean preconditioner, diagonal in
    tau, and the right-preconditioned operator of mode xi is
    I + (q_xi - q_bar_xi) P^{-1}: one complex FFT pair along t and pointwise
    products.  Both tables are built per block, for its rows only, from the
    per-time profiles and the per-mode q_bar_xi, with the operations of
    _q_table and _operator_symbol, so no (modes, n_t) table stays resident.

    Returns (to_frame, from_frame, apply, precondition): the maps between
    physical fields and (modes, n_t) frame arrays, and A P^{-1} and P^{-1} on
    a block of frame rows belonging to the modes `rows`."""
    grid = coeffs.grid
    d, n_t = grid.d, grid.n_t
    spatial = tuple(range(1, d + 1))
    half = _half_shape(grid)
    profile = coeffs.data.reshape(d, d, n_t)  # a_ij(t)
    mean = profile.mean(axis=-1)
    varying = profile - mean[..., None]  # a_ij(t) - mean_t(a_ij)
    tau, _ = _spectral_tables(grid)
    itau = 1j * tau.ravel()
    quad = _quad_symbol(grid, mean).reshape(-1, 1)  # q_bar_xi, one row per mode

    plane = np.full(half[-1], 2.0)
    plane[[0, -1]] = 1.0  # every n_x is even, so the Nyquist plane exists
    scale = np.broadcast_to(np.sqrt(plane / np.prod(grid.n_x)), half[1:]).reshape(-1, 1)

    def to_frame(x: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(x.reshape(grid.shape), axes=spatial).reshape(n_t, -1)
        return np.multiply(scale, spec.T, order="C")

    def from_frame(y: np.ndarray) -> np.ndarray:
        spec = _c_order((y / scale).T).reshape(half)
        return np.fft.irfftn(spec, s=grid.n_x, axes=spatial)

    def precondition(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        v_hat = np.fft.fft(block, axis=1)
        symbol = itau + quad[rows]
        symbol += lam
        v_hat /= symbol
        return np.fft.ifft(v_hat, axis=1)

    def apply(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        v = precondition(block, rows)
        v *= _q_table(grid, varying, rows)
        v += block
        return v

    return to_frame, from_frame, apply, precondition


class LinearOperator:
    """scipy.sparse.linalg.LinearOperator's call convention, no more: shape
    and dtype are taken and ignored, and .matvec is the closure itself.  It
    is the name through which perfbench's traced run and the tests wrap or
    substitute _physical_frame's closures, and it goes once perfbench reads
    its spans from an in-package recorder."""

    def __init__(self, shape, *, matvec, dtype):
        self.matvec = matvec


def _physical_frame(coeffs: Coefficients, lam: float):
    """GMRES's system for any coefficients in the physical frame, returned as
    _t_frame returns its own: one row, the flattened field, so the frame maps
    are reshapes, and P^{-1} the spectral inverse of the mean coefficient
    operator (constant_mean).  The closures matvec and psolve reach gmres
    through the module's LinearOperator, a direct call, so that perfbench's
    traced run can name its spans after them."""
    grid = coeffs.grid
    shape = grid.shape
    n = int(np.prod(shape))
    denom = _operator_symbol(grid, coeffs.mean_matrix(), lam)

    def matvec(x: np.ndarray) -> np.ndarray:
        return _operator(coeffs, lam, x.reshape(shape))[0].ravel()

    def psolve(x: np.ndarray) -> np.ndarray:
        return _spectral_divide(x.reshape(shape), denom).ravel()

    operator = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    precond = LinearOperator((n, n), matvec=psolve, dtype=np.float64)

    def to_frame(x: np.ndarray) -> np.ndarray:
        return x.reshape(1, n)

    def from_frame(y: np.ndarray) -> np.ndarray:
        return y.reshape(shape)

    def precondition(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return precond.matvec(block[0])[None]

    def apply(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return operator.matvec(precond.matvec(block[0]))[None]

    return to_frame, from_frame, apply, precondition


# the residual targets of the Krylov rows: their squares sum to
# (_ETA * rtol * ||b||)^2, so the rounding between the loop's residuals and
# solve()'s physical check cannot carry an accepted solve above rtol
_ETA = 0.5
# a second Gram-Schmidt pass (DGKS) runs when the first one kept less than
# this fraction of a new vector's norm
_DGKS = 1.0 / np.sqrt(2.0)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous 2-D array."""
    real = a.view(np.float64) if np.iscomplexobj(a) else a
    return np.sqrt(np.einsum("ij,ij->i", real, real))


def _targets(rhs: np.ndarray, total: float) -> np.ndarray:
    """Residual targets of the rows of rhs whose squares sum to total^2.

    Row r is weighted by max(||rhs_r||, ||rhs|| / sqrt(rows)).  The squared
    weights sum to at most 2 ||rhs||^2, so no row needs a relative reduction
    tighter than total / (sqrt(2) ||rhs||), whatever the row count, and a
    row whose norm is already below its target takes no step."""
    norms = _row_norms(rhs)
    weight = np.maximum(norms, _norm(norms) / np.sqrt(norms.size))
    return total * weight / _norm(weight)


def _arnoldi_step(apply, basis: np.ndarray, k: int, rows: np.ndarray):
    """One Arnoldi step of each row's system on its orthonormal basis
    basis[:k+1, r], storing the next basis vector in basis[k+1, r].  The basis
    is column-major, (columns, rows, n), so each column is one contiguous
    block and a cycle touches only the columns it writes.

    w = apply(basis[k], rows) is orthogonalised by classical Gram-Schmidt,
    two batched BLAS products per pass (the coefficients, then the update),
    with a second pass (Daniel, Gragg, Kaufman and Stewart) when the first
    leaves some row less than 1/sqrt(2) of its ||w||.

    Returns the Hessenberg columns (rows, k + 2) and the breakdown mask: a
    row whose w vanishes to rounding has an invariant Krylov space, so its
    least squares solution is exact; its basis[k+1, r] is meaningless."""
    known = basis[: k + 1].transpose(1, 0, 2)
    w = apply(basis[k], rows)
    column = np.zeros((len(rows), k + 2), dtype=basis.dtype)
    start = norm = _row_norms(w)
    for _ in range(2):
        coefficients = np.conj(known @ np.conj(w)[:, :, None])[:, :, 0]
        w -= (coefficients[:, None, :] @ known)[:, 0]
        column[:, : k + 1] += coefficients
        kept, norm = norm, _row_norms(w)
        if np.all(norm >= _DGKS * kept):
            break
    breakdown = norm <= np.finfo(basis.dtype).eps * start
    column[:, k + 1] = norm
    basis[k + 1] = w / np.where(breakdown, 1.0, norm)[:, None]
    return column, breakdown


def _givens(a: np.ndarray, b: np.ndarray):
    """Rotations (c, s), with c real, taking each pair (a, b >= 0) to (r, 0)."""
    size = np.abs(a)
    r = np.hypot(size, b)
    safe = np.where(r > 0, r, 1.0)
    phase = np.where(size > 0, a / np.where(size > 0, size, 1.0), 1.0)
    return np.where(r > 0, size / safe, 1.0), phase * b / safe, phase * r


def gmres(apply, b, targets, *, restart, max_iterations):
    """Restarted GMRES, right-preconditioned, on independent systems run as
    one batch: row r of the (rows, n) array b is the system
    (A P^{-1})_r w_r = b_r, and apply(block, rows) returns A P^{-1} of a
    (k, n) block whose i-th row belongs to system rows[i].  The caller maps
    the returned w back through P^{-1}.

    Every live row takes one Arnoldi step per batched step (_arnoldi_step),
    and a Givens least-squares update vectorised over the rows estimates its
    residual.  A row stops its restart cycle when the estimate meets its
    target, its Krylov space is invariant, the cycle ends or it has taken
    max_iterations steps; its true residual b_r - apply(w_r) is then
    recomputed, one apply for all rows that stop together.  The row leaves
    the batch, its basis compacted away, once that residual meets
    targets[r]; otherwise it restarts from it with the next cycle, within
    its max_iterations, if the cycle lowered it.  A true residual not below
    the one its cycle started from is no progress: GMRES never raises it in
    exact arithmetic, and a cycle that changed nothing would repeat itself,
    so the row stops there unconverged.  Each cycle allocates its basis for
    its rows only, column-major, so it makes resident only the columns it
    writes.

    Returns (w, norms, matvecs): w of b's shape, sqrt(sum_r estimate_r^2)
    after each batched step (a row's estimate is its true residual norm once
    recomputed), and the calls of apply."""
    n = b.shape[1]
    restart = min(restart, n)
    w = np.zeros_like(b)
    residual = b.copy()
    estimate = _row_norms(b)
    begun = estimate.copy()  # each row's true residual norm at its cycle's start
    steps = np.zeros(len(b), dtype=int)
    norms: list[float] = []
    matvecs = 0
    pending = np.flatnonzero(estimate > targets)
    while pending.size:
        rows, queued = pending, []
        begun[rows] = estimate[rows]
        size = len(rows)
        basis = np.empty((restart + 1, size, n), dtype=b.dtype)
        basis[0] = residual[rows] / estimate[rows, None]
        # [:, j] is column j of the rotated Hessenberg matrix (triangular)
        hess = np.zeros((size, restart, restart), dtype=b.dtype)
        # [:, j] is the Givens rotation [[c, s], [-conj(s), c]] of column j
        rotations = np.zeros((size, restart, 2, 2), dtype=b.dtype)
        s = np.zeros((size, restart + 1), dtype=b.dtype)
        s[:, 0] = estimate[rows]
        for col in range(restart):
            h, breakdown = _arnoldi_step(apply, basis, col, rows)
            matvecs += 1
            steps[rows] += 1
            for k in range(col):
                h[:, k : k + 2] = (rotations[:, k] @ h[:, k : k + 2, None])[:, :, 0]
            c, sn, h[:, col] = _givens(h[:, col], h[:, col + 1].real)
            hess[:, col, : col + 1] = h[:, : col + 1]
            rotations[:, col] = np.stack([c, sn, -np.conj(sn), c], axis=1).reshape(-1, 2, 2)
            s[:, col : col + 2] = rotations[:, col, :, 0] * s[:, col, None]
            estimate[rows] = np.abs(s[:, col + 1])
            stop = (estimate[rows] <= targets[rows]) | breakdown | (col == restart - 1)
            stop |= steps[rows] >= max_iterations
            if stop.any():
                done = np.flatnonzero(stop)
                finished = rows[done]
                # back substitution on each stopping row's triangle; a zero
                # pivot (a singular A P^{-1}) drops its component
                y = s[done, : col + 1].copy()
                triangle = hess[done, : col + 1, : col + 1]
                for k in range(col, -1, -1):
                    pivot = triangle[:, k, k]
                    y[:, k] /= np.where(pivot == 0, np.inf, pivot)
                    y[:, :k] -= y[:, k : k + 1] * triangle[:, k, :k]
                w[finished] += (y[:, None, :] @ basis[: col + 1, done].transpose(1, 0, 2))[:, 0]
                residual[finished] = b[finished] - apply(w[finished], finished)
                matvecs += 1
                estimate[finished] = _row_norms(residual[finished])
                retry = estimate[finished] > targets[finished]
                retry &= estimate[finished] < begun[finished]
                queued.append(finished[retry & (steps[finished] < max_iterations)])
                # compact the rows that go on: the live rows past the new size
                # move into the stopped rows' places below it, copying only
                # the steps taken; no row's arithmetic depends on its place
                keep = np.flatnonzero(~stop)
                size = len(keep)
                holes, movers = done[done < size], keep[keep >= size]
                rows[holes] = rows[movers]
                rows = rows[:size]
                basis[: col + 2, holes] = basis[: col + 2, movers]
                basis = basis[:, :size]
                cycle = (hess, rotations, s)
                for array in cycle:
                    array[holes, : col + 2] = array[movers, : col + 2]
                hess, rotations, s = (array[:size] for array in cycle)
            norms.append(_norm(estimate))
            if not size:
                break
        pending = np.concatenate(queued)
    return w, norms, matvecs


# solve() divides data whose 2-norm lies outside this window by their peak's
# power of two, and multiplies u and the slots back: exact on every path
_WINDOW = (2.0**-400, 2.0**400)


def solve(
    coeffs: Coefficients, data: DataBundle, options: SolverOptions | None = None
) -> SolveResult:
    """Solve apply_operator(coeffs, lam, u) = rhs by the path the coefficient
    tag picks; SolveResult.method names it.  Constant coefficients take the
    exact _oracle (any lambda >= 0), which is final.  Every other tag needs
    lambda > 0.  x1_measurable coefficients start from the exact _x1_direct,
    unless it is not finite (a zero pivot); when there is no start or its
    true residual misses rtol, one GMRES call, right-preconditioned with the
    constant_mean inverse, solves for the remaining residual in the tag's
    frame: _t_frame (one row per spatial mode) for time_measurable, else
    _physical_frame (one row, method "gmres").  The rows' targets have
    squares summing to (_ETA * rtol * ||b||)^2 and stop on true residuals,
    which both frame maps keep physical; max_iterations and restart apply per
    row.  Every path ends in _check: its true relative residual is reported
    and compared with rtol, and its slots go on in SolveResult.slots.  Data
    whose 2-norm is outside _WINDOW are rescaled by a power of two, exactly,
    so no finite right-hand side is refused for its size."""
    started = time.perf_counter()
    options = options or SolverOptions()
    if coeffs.grid != data.grid:
        raise ValueError("coefficients and data live on different grids")
    lam = data.lam
    if lam <= 0 and coeffs.tag != "constant":
        raise ValueError(
            f"lambda = 0 leaves the zero mode non-invertible; {coeffs.tag} "
            "coefficients need lambda > 0 (only constant ones admit lambda = 0)"
        )
    grid = data.grid
    # tag -> (exact start, GMRES frame, method); built here, so that a
    # substituted _x1_direct or _t_frame is the one called
    paths = {
        "constant": (_oracle, None, "oracle"),
        "x1_measurable": (_x1_direct, _physical_frame, "x1_direct"),
        "time_measurable": (None, _t_frame, "t_frame_gmres"),
    }
    start, frame, method = paths.get(coeffs.tag, (None, _physical_frame, "gmres"))
    b = _rhs(data)
    b_norm = _norm(b)
    if b_norm == 0.0:
        return SolveResult(zeros(grid), 0, 0.0, time.perf_counter() - started, True, method)
    scale = 0 if _WINDOW[0] <= b_norm <= _WINDOW[1] else _exponent([b])
    if scale:
        b = np.ldexp(b, -scale)
        b_norm = _norm(b)
    elif not b_norm < np.inf:  # an inf or NaN entry: _exponent reads 0
        raise ValueError("the right-hand side is not finite: the data are too large")

    # the exact starts: one without a frame (the oracle's) is final, one
    # that misses rtol is corrected
    x, r, rel, matvecs, norms = None, b, 1.0, 0, []
    if start:
        with np.errstate(all="ignore"):  # a zero pivot: the x1 start is dropped below
            x = start(coeffs, lam, b)
            r, rel, parts = _check(coeffs, lam, x, b)
        matvecs = 1
        if not np.isfinite(rel) and frame:
            x, r, rel = None, b, 1.0
    if frame and rel > options.rtol:
        parts = None  # a start's parts die before GMRES
        if start:
            method = "gmres"  # a corrected x1 start is a physical-frame solve
        to_frame, from_frame, apply, precondition = frame(coeffs, lam)
        rhs = to_frame(r)
        targets = _targets(rhs, _ETA * options.rtol * b_norm)
        w, norms, used = gmres(
            apply, rhs, targets, restart=options.restart, max_iterations=options.max_iterations
        )
        touched = np.flatnonzero(w.any(axis=1))
        y = np.zeros_like(w)
        y[touched] = precondition(w[touched], touched)
        correction = from_frame(y)
        # the frame arrays die before the physical check
        del to_frame, from_frame, apply, precondition, rhs, w, y
        # a start takes the correction; adding it to zeros would turn its
        # -0.0 samples into 0.0
        x = correction if x is None else x + correction
        rel, parts = _check(coeffs, lam, x, b)[1:]
        matvecs += used + 1
    del r  # before u's finiteness checks, which make a mask of u's size
    if scale:
        with np.errstate(over="ignore"):  # an overflowing u is refused below
            for array in (x, *parts):
                np.ldexp(array, scale, out=array)

    return SolveResult(
        u=Field(grid, _finite(x, method, lam)),
        iterations=len(norms),
        final_relative_residual=rel,
        wall_time=time.perf_counter() - started,
        converged=rel <= options.rtol,
        method=method,
        residual_history=tuple(v / b_norm for v in norms),
        matvecs=matvecs,
        slots=tuple(parts),
    )


def multiplier_bound(coeffs: Coefficients, lam: float) -> float:
    """sup over discrete modes of (|tau| + |sigma|^2 + lambda) / |symbol|.

    The solution bundle per mode is the rank-one map F-hat -> v (w* F-hat)/D
    with |v| = |w| = sqrt(|tau| + |sigma|^2 + lambda), so this quotient bounds
    ||U||_2/||F||_2 for every data bundle, exactly on the lattice.
    """
    if not 0 <= lam < np.inf:  # NaN too
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
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
    return _lp(_magnitude(arrays), p, grid.cell_measure)


def compute_bundles(
    u: Field | SolveResult, data: DataBundle, p_list: tuple[float, ...] = (2.0,)
) -> dict:
    """The ||U||_p and ||F||_p tables of the solution u and its data, with the
    f/sqrt(lambda) slot omitted when lambda = 0 (f vanishes then).  The
    slots of a SolveResult of solve(coeffs, data) are read, not recomputed."""
    u, slots = (u.u, u.slots) if isinstance(u, SolveResult) else (u, None)
    if u.grid != data.grid:
        raise ValueError("solution and data live on different grids")
    slots = _solution_parts(u.grid, u.data, data.lam) if slots is None else slots
    bundles = (("U", slots), ("F", _data_parts(data)))
    norms = {}
    for key, parts in bundles:
        magnitude = _magnitude(parts)
        norms[key] = {p: _lp(magnitude, p, u.grid.cell_measure) for p in p_list}
    return norms
