"""Coefficient matrices for the divergence-form operator.

A coefficient field is a d x d matrix per space-time sample.  Admissibility
means the symmetric part satisfies delta*|xi|^2 <= xi^T a xi pointwise and
every entry is bounded by 1/delta.  The generator is stricter: it keeps the
pointwise operator norm of the matrix below 1/delta (symmetric eigenvalues
budgeted against the skew part), which is what makes the coercivity
constant of the twisted pairing come out exactly delta^2/2.

All generator kinds are functions of physical coordinates, so the same seed
reproduces the same physical coefficient field on refined grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.ndimage import uniform_filter1d

from .grid import Grid, _integer

__all__ = [
    "Ellipticity",
    "Coefficients",
    "AssumptionReport",
    "identity_coefficients",
    "coefficients_from_matrix",
    "generate_coefficients",
    "check_assumption_time",
    "check_assumption_x1",
]

_TAGS = ("constant", "time_measurable", "x1_measurable", "general")


@dataclass(frozen=True)
class Ellipticity:
    """Ellipticity parameter delta in (0, 1]."""

    delta: float

    def __post_init__(self) -> None:
        # 1/delta bounds the entries, so it must be a finite float too
        if not (0.0 < self.delta <= 1.0) or not math.isfinite(1.0 / self.delta):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")


def _min_symmetric_eig(data: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part over all samples."""
    d = data.shape[0]
    if d == 1:
        return float(data.min())
    sym = 0.5 * (data + np.swapaxes(data, 0, 1))
    if d == 2:
        half_trace = 0.5 * (sym[0, 0] + sym[1, 1])
        radius = np.sqrt(0.25 * (sym[0, 0] - sym[1, 1]) ** 2 + sym[0, 1] ** 2)
        return float((half_trace - radius).min())
    flat = np.moveaxis(sym.reshape(d, d, -1), -1, 0)
    return float(np.linalg.eigvalsh(flat)[:, 0].min())


@dataclass(frozen=True)
class Coefficients:
    """Validated d x d coefficient matrices over a grid."""

    grid: Grid
    data: np.ndarray
    tag: str
    ellipticity: Ellipticity
    generator: dict | None = dataclass_field(default=None, compare=False)

    def __post_init__(self) -> None:
        d = self.grid.d
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != (d, d, *self.grid.shape):
            raise ValueError(
                f"coefficient array must have shape (d, d, n_t, n_x...), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient entries must be finite")
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}, got {self.tag!r}")
        delta = self.ellipticity.delta
        bound = 1.0 / delta + 1e-10
        worst = float(np.max(np.abs(arr)))
        if worst > bound:
            raise ValueError(
                f"entry bound violated: max |a_ij| = {worst} exceeds 1/delta = {1.0 / delta}"
            )
        min_eig = _min_symmetric_eig(arr)
        if min_eig < delta - 1e-10:
            raise ValueError(
                f"ellipticity violated: min symmetric eigenvalue {min_eig} < delta = {delta}"
            )
        self._check_tag_consistency(arr)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def _check_tag_consistency(self, arr: np.ndarray) -> None:
        # variation along axes the tag forbids must be at sampling noise level
        tol = 1e-12 * max(1.0, float(np.max(np.abs(arr))))
        sample_axes = tuple(range(2, 2 + self.grid.d + 1))
        if self.tag == "constant":
            forbidden = sample_axes
        elif self.tag == "time_measurable":
            forbidden = sample_axes[1:]
        elif self.tag == "x1_measurable":
            forbidden = (sample_axes[0],) + sample_axes[2:]
        else:
            return
        for ax in forbidden:
            spread = float(np.max(np.ptp(arr, axis=ax)))
            if spread > tol:
                raise ValueError(
                    f"tag {self.tag!r} inconsistent: variation {spread} along sample axis {ax - 2}"
                )

    def constant_matrix(self) -> np.ndarray:
        """The (d, d) matrix of a constant-tagged field."""
        if self.tag != "constant":
            raise ValueError(f"constant_matrix needs tag 'constant', got {self.tag!r}")
        idx = (slice(None), slice(None)) + (0,) * (self.grid.d + 1)
        return np.array(self.data[idx])

    def mean_matrix(self) -> np.ndarray:
        """Space-time mean per entry, shape (d, d)."""
        axes = tuple(range(2, 2 + self.grid.d + 1))
        return self.data.mean(axis=axes)


def identity_coefficients(grid: Grid, delta: float = 1.0) -> Coefficients:
    d = grid.d
    data = np.zeros((d, d, *grid.shape))
    for i in range(d):
        data[i, i] = 1.0
    return Coefficients(
        grid=grid,
        data=data,
        tag="constant",
        ellipticity=Ellipticity(delta),
        generator={"kind": "identity"},
    )


def coefficients_from_matrix(
    grid: Grid, matrix: np.ndarray, delta: float, tag: str = "constant"
) -> Coefficients:
    return Coefficients(
        grid=grid, data=_constant_data(grid, matrix), tag=tag, ellipticity=Ellipticity(delta)
    )


def _constant_data(grid: Grid, matrix: np.ndarray) -> np.ndarray:
    """The (d, d) matrix repeated at every sample, shape (d, d, n_t, n_x...)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    d = grid.d
    if matrix.shape != (d, d):
        raise ValueError(f"matrix must be ({d}, {d}), got {matrix.shape}")
    return np.broadcast_to(
        matrix.reshape(d, d, *([1] * (d + 1))), (d, d, *grid.shape)
    ).copy()


def _admissible_matrix(rng: np.random.Generator, d: int, delta: float) -> np.ndarray:
    """Random matrix with symmetric eigenvalues in [delta, 0.8/delta] and a
    skew part inside the remaining operator-norm budget up to 1/delta."""
    hi = max(delta, 0.8 / delta)
    eigs = rng.uniform(delta, hi, size=d)
    if d == 1:
        return np.array([[eigs[0]]])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sym = (q * eigs) @ q.T
    sym = 0.5 * (sym + sym.T)
    budget = 1.0 / delta - float(eigs.max())
    if budget > 0:
        scale = budget / d  # Frobenius norm then bounds the spectral norm
        s = rng.uniform(-scale, scale, size=(d, d))
        return sym + 0.5 * (s - s.T)
    return sym


def _unwrapped_axis(n: int, period: float) -> np.ndarray:
    # m*dx in [0, period): the piecewise generators cut along this chart
    return period * np.arange(n) / n


_TRIG_MODES = 6
_TRIG_MAX_MODE = 3


def _trig_polynomial(rng: np.random.Generator, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Random low-order trigonometric polynomial of the physical coordinates:
    the samples of sum_j c_j cos(phi_j + 2*pi*k_j.X/L) and the amplitudes c_j.
    The draw order is grid-independent, so the same generator state yields
    the same physical function on a refined grid."""
    mesh = grid.coordinate_mesh()
    periods = [grid.l_t, *grid.l_x]
    amps = rng.standard_normal(_TRIG_MODES)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=_TRIG_MODES)
    modes = rng.integers(
        -_TRIG_MAX_MODE, _TRIG_MAX_MODE + 1, size=(_TRIG_MODES, grid.d + 1)
    )
    total = np.zeros(grid.shape)
    for amp, phi, k in zip(amps, phases, modes):
        arg = phi + sum(
            2.0 * np.pi * k[ax] * mesh[ax] / periods[ax] for ax in range(grid.d + 1)
        )
        total = total + amp * np.cos(arg)
    return total, amps


def generate_coefficients(
    kind: str,
    delta: float,
    seed: int,
    grid: Grid,
    roughness_scale: float | None = None,
    cell_size: float | None = None,
) -> Coefficients:
    """Deterministic coefficient fields of the requested structure.

    kind and the meaning of roughness_scale:

    * ``constant``: one admissible matrix (roughness_scale unused)
    * ``time_piecewise``: number of jumps in time (default 4, at most n_t)
    * ``x1_piecewise``: number of jumps along x1 (default 4, at most n_x[0])
    * ``checkerboard``: oscillation amplitude epsilon; the pattern is
      (1 + eps*sign) * identity with sign alternating on cells of physical
      size ``cell_size`` (default: smallest period / 8) along every axis
    * ``smooth``: modulation amplitude (default 0.5*(1-delta)) applied to a
      band-limited smooth scalar times the identity
    """
    ell = Ellipticity(delta)
    rng = np.random.default_rng(seed)
    d = grid.d
    meta: dict = {"kind": kind, "delta": delta, "seed": int(seed)}

    if kind == "constant":
        data = _constant_data(grid, _admissible_matrix(rng, d, delta))
        return Coefficients(
            grid=grid, data=data, tag="constant", ellipticity=ell, generator=meta
        )

    if kind in ("time_piecewise", "x1_piecewise"):
        n_jumps = 4 if roughness_scale is None else _integer(roughness_scale, "roughness_scale")
        along_time = kind == "time_piecewise"
        period = grid.l_t if along_time else grid.l_x[0]
        n_axis = grid.n_t if along_time else grid.n_x[0]
        # more jumps than samples along the axis could not all be seen
        if not 1 <= n_jumps <= n_axis:
            raise ValueError(
                f"{kind} needs at least one jump and at most {n_axis} (one per "
                f"sample along its axis), got {n_jumps}"
            )
        meta["n_jumps"] = n_jumps
        cuts = np.sort(rng.uniform(0.0, period, size=n_jumps))
        mats = np.stack([_admissible_matrix(rng, d, delta) for _ in range(n_jumps)])
        coord = _unwrapped_axis(n_axis, period)
        region = np.searchsorted(cuts, coord, side="right") % n_jumps
        profile = mats[region]  # (n_axis, d, d)
        profile = np.moveaxis(profile, 0, -1)  # (d, d, n_axis)
        shape = [d, d] + [1] * (d + 1)
        shape[2 if along_time else 3] = n_axis
        data = np.broadcast_to(profile.reshape(shape), (d, d, *grid.shape)).copy()
        tag = "time_measurable" if along_time else "x1_measurable"
        return Coefficients(
            grid=grid, data=data, tag=tag, ellipticity=ell, generator=meta
        )

    if kind == "checkerboard":
        if roughness_scale is None:
            raise ValueError("checkerboard needs roughness_scale = epsilon")
        eps = float(roughness_scale)
        eps_max = 1.0 - delta
        if not 0.0 < eps <= eps_max:
            raise ValueError(
                f"checkerboard epsilon {eps} not admissible for delta={delta}; "
                f"maximal admissible epsilon is {eps_max}"
            )
        cell = (
            float(cell_size)
            if cell_size is not None
            else min(grid.l_t, *grid.l_x) / 8.0
        )
        if not cell > 0:
            raise ValueError(f"cell_size must be positive, got {cell}")
        if math.isinf(max(grid.l_t, *grid.l_x) / cell):
            raise ValueError(f"cell_size {cell} is too small: a period over it overflows")
        meta.update(epsilon=eps, cell_size=cell)
        parity = np.zeros(grid.shape)
        axes = [(_unwrapped_axis(grid.n_t, grid.l_t), 0)] + [
            (_unwrapped_axis(grid.n_x[i], grid.l_x[i]), 1 + i) for i in range(d)
        ]
        for coord, pos in axes:
            view = [1] * (d + 1)
            view[pos] = coord.shape[0]
            parity = parity + np.floor(coord / cell).reshape(view)
        sign = np.where(np.mod(parity, 2) < 1, 1.0, -1.0)
        data = np.zeros((d, d, *grid.shape))
        for i in range(d):
            data[i, i] = 1.0 + eps * sign
        return Coefficients(
            grid=grid, data=data, tag="general", ellipticity=ell, generator=meta
        )

    if kind == "smooth":
        alpha = (
            float(roughness_scale)
            if roughness_scale is not None
            else 0.5 * (1.0 - delta)
        )
        if alpha < 0 or alpha > 1.0 - delta + 1e-12:
            raise ValueError(
                f"smooth amplitude {alpha} not admissible for delta={delta}; "
                f"maximal admissible amplitude is {1.0 - delta}"
            )
        meta["amplitude"] = alpha
        # band-limited smooth scalar with sup norm <= 1
        total, amps = _trig_polynomial(rng, grid)
        modulation = total / np.sum(np.abs(amps))
        data = np.zeros((d, d, *grid.shape))
        for i in range(d):
            data[i, i] = 1.0 + alpha * modulation
        return Coefficients(
            grid=grid, data=data, tag="general", ellipticity=ell, generator=meta
        )

    raise ValueError(
        "unknown kind {!r}; expected constant, time_piecewise, x1_piecewise, "
        "checkerboard or smooth".format(kind)
    )


# ---------------------------------------------------------------------------
# assumption checkers


@dataclass(frozen=True)
class AssumptionReport:
    """Scan summary for one mean-oscillation assumption."""

    kind: str
    r_zero: float
    gamma_estimate: float
    radii: tuple[float, ...]
    gamma_per_radius: tuple[float, ...]
    worst_radius: float
    centers_scanned: int


def _ball_offsets(grid: Grid, radius: float, first_axis: int = 0) -> np.ndarray:
    """Integer index offsets (n_ball, d - first_axis) of the samples with
    |y| < radius over the spatial axes first_axis..d-1; the single empty
    offset when no axis remains."""
    h = grid.h[first_axis:]
    if not h:
        return np.zeros((1, 0), dtype=int)
    ranges = []
    for hi, n in zip(h, grid.n_x[first_axis:]):
        m = int(math.floor(radius / hi + 1e-12))
        m = min(m, n // 2 - 1)
        ranges.append(np.arange(-m, m + 1))
    mesh = np.meshgrid(*ranges, indexing="ij")
    dist_sq = sum((mesh[i] * h[i]) ** 2 for i in range(len(h)))
    mask = dist_sq < radius**2
    return np.stack([m[mask] for m in mesh], axis=-1)


def _ball_indices(shape: tuple[int, ...], center, offsets: np.ndarray) -> np.ndarray:
    """Flat indices into an array of ``shape`` of the wrapped samples
    center + offsets; all zeros for an empty shape."""
    if not shape:
        return np.zeros(offsets.shape[0], dtype=int)
    return np.ravel_multi_index(
        tuple((center[i] + offsets[:, i]) % n for i, n in enumerate(shape)), shape
    )


def _time_window_size(grid: Grid, radius: float) -> int:
    """Odd count of time samples with |s| < radius^2."""
    m = int(math.ceil(radius**2 / grid.dt - 1e-12))
    m = min(m, grid.n_t // 2)
    return max(1, 2 * m - 1)


def _scan_radii(grid: Grid, r_zero: float) -> list[float]:
    radii = []
    r = float(r_zero)
    while r >= 2.0 * max(grid.h) and r * r >= 2.0 * grid.dt:
        radii.append(r)
        r *= 0.5
    if not radii:
        raise ValueError(
            f"R0 = {r_zero} is below the grid resolution (needs >= 2 cells per axis)"
        )
    return radii


def _validate_r0(grid: Grid, r_zero: float) -> None:
    if r_zero <= 0:
        raise ValueError("R0 must be positive")
    if r_zero > min(grid.l_x) / 4.0:
        raise ValueError(
            f"R0 = {r_zero} exceeds min spatial period / 4 = {min(grid.l_x) / 4.0}"
        )
    if r_zero**2 > grid.l_t / 4.0:
        raise ValueError(
            f"R0^2 = {r_zero**2} exceeds l_t / 4 = {grid.l_t / 4.0}; cylinders must fit"
        )


def _spatial_centers(grid: Grid, radius: float) -> np.ndarray:
    axes = [
        np.arange(0, grid.n_x[i], max(1, int(round(radius / (2.0 * grid.h[i])))))
        for i in range(grid.d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _scan(
    coeffs: Coefficients, r_zero: float, kind: str, deviation
) -> AssumptionReport:
    """Cylinder sweep shared by both checkers.

    Radii are dyadic {R0, R0/2, ...} down to the grid resolution; centers are
    a strided space-time lattice with strides of about half the cylinder
    extent.  ``deviation(coeffs, r, t_centers)`` returns the per-center
    function mapping a spatial center index to the (d*d, len(t_centers))
    cylinder means of the checker's oscillation.
    """
    grid = coeffs.grid
    _validate_r0(grid, r_zero)
    radii = _scan_radii(grid, r_zero)

    gamma_per_radius = []
    centers_total = 0
    for r in radii:
        stride_t = max(1, int(round(r * r / (2.0 * grid.dt))))
        t_centers = np.arange(0, grid.n_t, stride_t)
        means_at = deviation(coeffs, r, t_centers)
        level_max = -1.0
        for center in _spatial_centers(grid, r):
            level_max = max(level_max, float(means_at(center).max()))
            centers_total += t_centers.shape[0]
        gamma_per_radius.append(level_max)

    return AssumptionReport(
        kind=kind,
        r_zero=float(r_zero),
        gamma_estimate=float(max(gamma_per_radius)),
        radii=tuple(radii),
        gamma_per_radius=tuple(gamma_per_radius),
        # the first radius reaching the maximum
        worst_radius=float(radii[int(np.argmax(gamma_per_radius))]),
        centers_scanned=centers_total,
    )


def _time_deviation(coeffs: Coefficients, r: float, t_centers: np.ndarray):
    grid = coeffs.grid
    data = coeffs.data.reshape(grid.d**2, grid.n_t, -1)  # flat spatial index
    offsets = _ball_offsets(grid, r)
    w = _time_window_size(grid, r)

    def means(center: np.ndarray) -> np.ndarray:
        ball = data[:, :, _ball_indices(grid.n_x, center, offsets)]
        bar = ball.mean(axis=-1, keepdims=True)
        dev = np.abs(ball - bar).mean(axis=-1)  # (d*d, n_t)
        windowed = uniform_filter1d(dev, size=w, axis=-1, mode="wrap")
        return windowed[:, t_centers]

    return means


def _x1_deviation(coeffs: Coefficients, r: float, t_centers: np.ndarray):
    grid = coeffs.grid
    n1 = grid.n_x[0]
    prime_shape = grid.n_x[1:]
    flat = coeffs.data.reshape(grid.d**2, grid.n_t, -1)
    # x' axes flattened to one trailing index (length 1 when d = 1)
    data = flat.reshape(grid.d**2, grid.n_t, n1, -1)
    offsets = _ball_offsets(grid, r)
    prime_offsets = _ball_offsets(grid, r, first_axis=1)
    w = _time_window_size(grid, r)
    half_w = (w - 1) // 2
    t_windows = (t_centers[:, None] + np.arange(-half_w, half_w + 1)) % grid.n_t

    def means(center: np.ndarray) -> np.ndarray:
        pidx = _ball_indices(prime_shape, center[1:], prime_offsets)
        slab = data[:, :, :, pidx].mean(axis=-1)  # x1 profile, mean over B'
        # reference profile per time center: window-mean of slab
        profile = uniform_filter1d(slab, size=w, axis=1, mode="wrap")
        ball_y1 = (center[0] + offsets[:, 0]) % n1
        cyl = flat[:, :, _ball_indices(grid.n_x, center, offsets)]  # (d*d, n_t, n_ball)
        ref = profile[:, t_centers][:, :, ball_y1]  # (d*d, n_tc, n_ball)
        dev = np.abs(cyl[:, t_windows, :] - ref[:, :, None, :])
        return dev.mean(axis=(2, 3))

    return means


def check_assumption_time(coeffs: Coefficients, r_zero: float) -> AssumptionReport:
    """Worst mean oscillation of a_ij around its spatial ball average.

    Scans parabolic cylinders with dyadic radii {R0, R0/2, ...} down to the
    grid resolution, centered on a strided lattice; gamma_estimate is the
    maximum over entries, radii and centers of the cylinder mean of
    |a_ij(s, y) - mean_{B_r} a_ij(s, .)|.
    """
    return _scan(coeffs, r_zero, "time", _time_deviation)


def check_assumption_x1(coeffs: Coefficients, r_zero: float) -> AssumptionReport:
    """Worst mean oscillation of a_ij around its x1-slice average.

    The reference profile for a cylinder centered at (t, x) depends on y1
    only: the average over (t - r^2, t + r^2) x B'_r(x') at frozen y1 (the
    time interval alone when d = 1).
    """
    return _scan(coeffs, r_zero, "x1", _x1_deviation)

