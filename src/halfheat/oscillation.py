"""Parabolic cylinders, the bundle mean-oscillation and root-mean-square
functionals, weighted tail sums, and the desk-scale estimate verifiers.

Cylinder geometry follows Q_{r,s}(X) = (t - r^2, t + r^2) x B_s(x) with
Q_r = Q_{r,r}; a grid sample belongs to a cylinder when its cell center does,
with distances measured on the torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Coefficients
from .grid import Field, Grid
from .operators import DataBundle, _check_grid, _data_parts, _flux, _rhs, _square_sum
from .solver import SolveResult, _check

__all__ = [
    "Cylinder",
    "bundle_rms",
    "bundle_oscillation",
    "max_tail_terms",
    "tail_sum",
    "LocalEstimateReport",
    "verify_local_estimate",
    "OscillationRow",
    "OscillationReport",
    "verify_mean_oscillation",
]


@dataclass(frozen=True)
class Cylinder:
    """Q_{r,s}: time half-length r^2 around center[0], spatial radius s
    (defaults to r) around center[1:]."""

    center: tuple[float, ...]
    r: float
    s: float | None = None

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise ValueError(f"cylinder needs r > 0, got {self.r}")
        if self.s is not None and not self.s > 0:
            raise ValueError(f"cylinder needs s > 0, got {self.s}")

    @property
    def spatial_radius(self) -> float:
        return self.r if self.s is None else self.s


def _wrapped_offset(coords: np.ndarray, center: float, period: float) -> np.ndarray:
    return np.mod(coords - center + 0.5 * period, period) - 0.5 * period


def _spatial_dist_sq(grid: Grid, center: tuple[float, ...]) -> np.ndarray:
    """Squared torus distance of every spatial sample to center, flattened."""
    dist_sq = np.zeros(grid.n_x)
    for i in range(grid.d):
        off = _wrapped_offset(grid.space_coordinates(i), center[i], grid.l_x[i])
        shape = [1] * grid.d
        shape[i] = grid.n_x[i]
        dist_sq = dist_sq + off.reshape(shape) ** 2
    return dist_sq.ravel()


_SLACK = 1.0 + 1e-12  # sqrt/square round trips may overshoot the exact fit


def _time_fits(grid: Grid, r: float) -> bool:
    """Whether the time extent (-r^2, r^2) fits the fundamental cell; an r
    above sqrt(l_t) cannot, and is refused unsquared (its square may overflow)."""
    return r <= math.sqrt(grid.l_t) and r**2 <= _SLACK * grid.l_t / 2.0


def _cylinder_masks(grid: Grid, cyl: Cylinder) -> tuple[np.ndarray, np.ndarray]:
    """(time mask (n_t,), flat spatial mask (prod n_x,)) of cell centers inside."""
    if len(cyl.center) != grid.d + 1:
        raise ValueError(
            f"cylinder center needs {grid.d + 1} components, got {len(cyl.center)}"
        )
    s = cyl.spatial_radius
    if not _time_fits(grid, cyl.r) or s > _SLACK * min(grid.l_x) / 2.0:
        raise ValueError(f"cylinder (r={cyl.r}, s={s}) does not fit the fundamental cell")
    dt_off = _wrapped_offset(grid.time_coordinates(), cyl.center[0], grid.l_t)
    t_mask = np.abs(dt_off) < cyl.r**2
    x_mask = _spatial_dist_sq(grid, cyl.center[1:]) < s**2
    if not t_mask.any() or not x_mask.any():
        raise ValueError(
            f"cylinder (r={cyl.r}, s={s}) contains no grid cell centers"
        )
    return t_mask, x_mask


def _cylinder_samples(
    arrays: list[np.ndarray], grid: Grid, cyl: Cylinder
) -> list[np.ndarray]:
    """Each array's samples inside cyl, from one pair of masks."""
    if not arrays:
        raise ValueError("a bundle needs at least one array")
    t_mask, x_mask = _cylinder_masks(grid, cyl)
    return [arr.reshape(grid.n_t, -1)[t_mask][:, x_mask] for arr in arrays]


def bundle_rms(arrays: list[np.ndarray], grid: Grid, cyl: Cylinder) -> float:
    """sqrt of the cylinder mean of the summed squares (the (|W|^2)^{1/2}_Q
    quantity for a several-component bundle W)."""
    samples = _cylinder_samples(arrays, grid, cyl)
    total = sum(float((part**2).sum()) for part in samples)
    return math.sqrt(total / samples[0].size)


def bundle_oscillation(arrays: list[np.ndarray], grid: Grid, cyl: Cylinder) -> float:
    """Cylinder mean of the Euclidean magnitude of the deviation from the
    per-component cylinder means."""
    devs = [part - part.mean() for part in _cylinder_samples(arrays, grid, cyl)]
    return float(np.sqrt(sum(dev**2 for dev in devs)).mean())


# ---------------------------------------------------------------------------
# tail sums and verifiers


def max_tail_terms(grid: Grid, r: float) -> int:
    """Number of the tail radii 2^{j/2} r, j = 0, 1, ..., whose time extent
    fits the fundamental cell."""
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"tail cylinders need a finite r > 0, got r={r}")
    terms = 0
    while _time_fits(grid, 2.0 ** (terms / 2.0) * r):
        terms += 1
    return terms


def tail_sum(
    squared: np.ndarray, grid: Grid, r: float, center: tuple[float, ...], terms: int
) -> float:
    """sum_{j<terms} 2^{-j/4} sqrt(mean of the samples of squared over
    Q_{2^{j/2} r, r}(center)), for a squared magnitude |F|^2 on grid; terms
    is clamped so the longest cylinder still fits (callers report the clamp
    via max_tail_terms)."""
    if terms < 1:
        raise ValueError("tail_sum needs at least one term")
    usable = min(terms, max_tail_terms(grid, r))
    if usable < 1:
        raise ValueError(f"no tail cylinder fits: r = {r} has r^2 above l_t/2")
    total = 0.0
    for j in range(usable):
        cyl = Cylinder(center=center, r=2.0 ** (j / 2.0) * r, s=r)
        (samples,) = _cylinder_samples([squared], grid, cyl)
        total += 2.0 ** (-j / 4.0) * math.sqrt(max(float(samples.mean()), 0.0))
    return total


def _checked_parts(
    coeffs: Coefficients, data: DataBundle, u: Field | SolveResult, rtol: float
) -> tuple[Field, float, list[np.ndarray]]:
    """(u's Field, its relative residual against the bundle's right-hand
    side, the bundle slots), a residual above rtol being a ValueError: a
    SolveResult's from solve's final check, a bare u's from the same
    solver._check."""
    field, parts = (u.u, u.slots) if isinstance(u, SolveResult) else (u, None)
    _check_grid(coeffs, field)
    if data.grid != field.grid:
        raise ValueError("solution and data live on different grids")
    if parts is None:
        rel, parts = _check(coeffs, data.lam, field.data, _rhs(data))[1:]
    else:
        rel = u.final_relative_residual
    if not rel <= rtol:  # a NaN residual (an overflowing u or data) is refused too
        raise ValueError(f"u does not solve the equation: relative residual {rel} > {rtol}")
    return field, rel, list(parts)


# tail-sum terms of each verifier; the local one's relative residual bound
_LOCAL_TERMS, _LOCAL_RTOL = 8, 1e-7
_OSCILLATION_TERMS = 6


@dataclass(frozen=True)
class LocalEstimateReport:
    lhs: float
    rhs: float
    n_emp: float | None
    trivial: bool
    terms_used: int
    residual_rel: float


def verify_local_estimate(
    coeffs: Coefficients,
    data: DataBundle,
    u: Field | SolveResult,
    radius: float,
) -> LocalEstimateReport:
    """Check the interior estimate: root-mean-square of |U| over Q_radius(0)
    against the 2^{-j/4}-weighted tail sum of |F| root-mean-squares over the
    time-elongated cylinders Q_{2^{j/2} radius, radius}(0).

    Requires u to solve the equation (small relative residual) and to be
    supported in the spatial ball B_radius, emulating the zero lateral
    condition of the infinite-cylinder setting.
    """
    u, rel, parts = _checked_parts(coeffs, data, u, _LOCAL_RTOL)
    grid = u.grid
    outside = _spatial_dist_sq(grid, (0.0,) * grid.d) >= radius**2
    u_flat = np.abs(u.data.reshape(grid.n_t, -1))
    peak = float(u_flat.max())
    if peak > 0 and outside.any():
        stray = float(u_flat[:, outside].max())
        if stray > 1e-10 * peak:
            raise ValueError(
                f"u is not supported in B_{radius}: |u| reaches {stray} outside"
            )

    origin = (0.0,) * (grid.d + 1)
    # the root mean square of |U| over Q_radius is the j = 0 tail-sum term
    lhs = tail_sum(_square_sum(parts), grid, radius, origin, 1)
    terms_used = min(_LOCAL_TERMS, max_tail_terms(grid, radius))
    rhs = tail_sum(_square_sum(_data_parts(data)), grid, radius, origin, terms_used)
    trivial = lhs == 0.0 and rhs == 0.0
    n_emp = lhs / rhs if rhs > 0 else None
    return LocalEstimateReport(
        lhs=lhs,
        rhs=rhs,
        n_emp=n_emp,
        trivial=trivial,
        terms_used=terms_used,
        residual_rel=rel,
    )


@dataclass(frozen=True)
class OscillationRow:
    kappa: float
    inner_radius: float
    lhs: float
    term_homogeneous: float
    term_tail: float
    n_emp: float | None


@dataclass(frozen=True)
class OscillationReport:
    case: str
    center: tuple[float, ...]
    outer_radius: float
    rows: tuple[OscillationRow, ...]
    fitted_decay: float | None
    residual_rel: float


_CASES = ("calU_time_coeffs", "U_heat", "calUprime_theta_x1")


def verify_mean_oscillation(
    case: str,
    coeffs: Coefficients,
    data: DataBundle,
    u: Field | SolveResult,
    r: float,
    center: tuple[float, ...],
    kappa_list: tuple[float, ...],
    rtol: float = 1e-6,
) -> OscillationReport:
    """Oscillation decay of the solution bundle on shrinking cylinders.

    r is the fixed outer scale: for each kappa the oscillation is taken over
    Q_{r/kappa}(center) and compared with kappa^{-theta} times the bundle
    root-mean-square over Q_r(center) plus kappa^{1+d/2} times the data tail
    sum over Q_{2^{j/2} r, r}(center).  Neither average depends on kappa, so
    both are taken once per call and each row only scales them.  theta is 1
    for the gradient bundle under time-measurable coefficients and for the
    full bundle under the heat operator, 1/2 for the x1-measurable case.  The
    fitted decay slope of log2(oscillation) against log2(kappa) is the
    homogeneous-part exponent whenever the data vanish near the center.
    """
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}, got {case!r}")
    if not all(math.isfinite(k) and k >= 4 for k in kappa_list):
        raise ValueError(f"every kappa must be >= 4 and finite, got {kappa_list}")
    u, rel, (half_du, *grad_arrays, weighted_u) = _checked_parts(coeffs, data, u, rtol)
    grid = u.grid

    rhs_arrays = grad_arrays + [weighted_u]
    # each case's oscillation bundles and theta; D'u = grad_arrays[1:] holds
    # the spatial axes 2..d (none when d = 1)
    lhs_bundles, theta = {
        "calU_time_coeffs": ([rhs_arrays], 1.0),
        "U_heat": ([[half_du] + rhs_arrays], 1.0),
        "calUprime_theta_x1": ([grad_arrays[1:] + [weighted_u]], 0.5),
    }[case]
    if case == "calUprime_theta_x1":
        # the flux's x1 component, a.D+u, from the bundle's gradient slots
        lhs_bundles.append([_flux(coeffs.data, np.stack(grad_arrays))[0]])

    rms = bundle_rms(rhs_arrays, grid, Cylinder(center, r=r))
    f_sq = _square_sum(_data_parts(data))
    f_tail = tail_sum(f_sq, grid, r, center, _OSCILLATION_TERMS)
    rows = []
    for kappa in kappa_list:
        inner_r = r / kappa
        lhs = sum(
            bundle_oscillation(arrays, grid, Cylinder(center, r=inner_r))
            for arrays in lhs_bundles
        )
        hom = kappa ** (-theta) * rms
        tail = kappa ** (1.0 + grid.d / 2.0) * f_tail
        denom = hom + tail
        rows.append(
            OscillationRow(
                kappa=float(kappa),
                inner_radius=inner_r,
                lhs=lhs,
                term_homogeneous=hom,
                term_tail=tail,
                n_emp=lhs / denom if denom > 0 else None,
            )
        )

    live = [(row.kappa, row.lhs) for row in rows if row.lhs > 0]
    fitted = None
    if len(live) >= 2:
        ks = np.log2([k for k, _ in live])
        vals = np.log2([v for _, v in live])
        fitted = float(np.polyfit(ks, vals, 1)[0])
    return OscillationReport(
        case=case,
        center=tuple(float(c) for c in center),
        outer_radius=float(r),
        rows=tuple(rows),
        fitted_decay=fitted,
        residual_rel=rel,
    )
