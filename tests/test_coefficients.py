"""Coefficient generators, admissibility checks, and the mean-oscillation
assumption scanners.

Structural facts used as oracles: a purely time-dependent matrix oscillates
not at all around its spatial ball average (gamma = 0 up to rounding), an
x1-dependent matrix likewise for the x1-slice reference, and the two-phase
checkerboard (1 +- eps) deviates from any local average by an amount
comparable to eps once a cylinder straddles both phases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfheat import (
    Coefficients,
    Ellipticity,
    check_assumption_time,
    check_assumption_x1,
    coefficients_from_matrix,
    generate_coefficients,
    identity_coefficients,
    make_grid,
)


def _grid(d=1, n_t=32, n_x=32, l_t=2.0, l_x=2.0):
    return make_grid(d=d, n_t=n_t, n_x=n_x, l_t=l_t, l_x=l_x)


def _sym_eigs(data):
    sym = 0.5 * (data + np.swapaxes(data, 0, 1))
    moved = np.moveaxis(sym, (0, 1), (-2, -1))
    return np.linalg.eigvalsh(moved)


def test_ellipticity_range():
    Ellipticity(1.0)
    Ellipticity(0.01)
    for bad in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError):
            Ellipticity(bad)


def test_identity_coefficients():
    g = _grid(d=2)
    coeffs = identity_coefficients(g)
    assert coeffs.tag == "constant"
    assert coeffs.ellipticity.delta == 1.0
    assert np.array_equal(coeffs.data[0, 0], np.ones(g.shape))
    assert np.array_equal(coeffs.data[0, 1], np.zeros(g.shape))
    assert np.array_equal(coeffs.constant_matrix(), np.eye(2))


def test_validation_rejects_inadmissible_data():
    g = _grid()
    ell = Ellipticity(0.5)
    with pytest.raises(ValueError, match="shape"):
        Coefficients(grid=g, data=np.ones((1, 2, *g.shape)), tag="general", ellipticity=ell)
    too_small = np.full((1, 1, *g.shape), 0.2)  # eigenvalue below delta
    with pytest.raises(ValueError):
        Coefficients(grid=g, data=too_small, tag="general", ellipticity=ell)
    too_big = np.full((1, 1, *g.shape), 3.0)  # entry above 1/delta
    with pytest.raises(ValueError):
        Coefficients(grid=g, data=too_big, tag="general", ellipticity=ell)
    varies = np.ones((1, 1, *g.shape))
    varies[0, 0, 0, 0] = 0.9
    with pytest.raises(ValueError):
        Coefficients(grid=g, data=varies, tag="constant", ellipticity=ell)
    with pytest.raises(ValueError, match="tag"):
        Coefficients(grid=g, data=np.ones((1, 1, *g.shape)), tag="weird", ellipticity=ell)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0]))
def test_generated_coefficients_are_admissible(seed, delta):
    g = _grid(d=2, n_t=16, n_x=16)
    for kind in ("constant", "time_piecewise", "x1_piecewise", "smooth"):
        coeffs = generate_coefficients(kind=kind, delta=delta, seed=seed, grid=g)
        assert np.max(np.abs(coeffs.data)) <= 1.0 / delta + 1e-9
        assert _sym_eigs(coeffs.data).min() >= delta - 1e-9
        assert coeffs.ellipticity.delta == delta
        assert coeffs.generator["kind"] == kind


def test_generator_determinism():
    g = _grid(d=2, n_t=16, n_x=16)
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=9, grid=g)
    b = generate_coefficients(kind="time_piecewise", delta=0.25, seed=9, grid=g)
    c = generate_coefficients(kind="time_piecewise", delta=0.25, seed=10, grid=g)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_constant_generator_validates_its_array_once(monkeypatch):
    import halfheat.coefficients as module

    real = module._min_symmetric_eig
    calls = []
    monkeypatch.setattr(module, "_min_symmetric_eig", lambda data: calls.append(1) or real(data))
    a = generate_coefficients(kind="constant", delta=0.5, seed=3, grid=_grid(d=2, n_t=16, n_x=16))
    assert calls == [1]
    assert a.generator == {"kind": "constant", "delta": 0.5, "seed": 3}
    assert np.array_equal(a.data, coefficients_from_matrix(a.grid, a.constant_matrix(), 0.5).data)


def test_piecewise_structure():
    g = _grid()
    a = generate_coefficients(kind="time_piecewise", delta=0.5, seed=2, grid=g)
    assert a.tag == "time_measurable"
    assert np.ptp(a.data, axis=3).max() == 0.0  # no spatial variation
    assert len(np.unique(a.data[0, 0, :, 0])) > 1  # it does jump in time

    b = generate_coefficients(kind="x1_piecewise", delta=0.5, seed=2, grid=g)
    assert b.tag == "x1_measurable"
    assert np.ptp(b.data, axis=2).max() == 0.0  # no time variation


def test_piecewise_samples_are_resolution_independent():
    # the cut positions are physical, so refining the grid only adds samples
    g = _grid(n_t=16, n_x=16)
    fine = _grid(n_t=32, n_x=32)
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=5, grid=g)
    b = generate_coefficients(kind="time_piecewise", delta=0.25, seed=5, grid=fine)
    assert np.array_equal(b.data[:, :, ::2, ::2], a.data)


def test_checkerboard_pattern_and_epsilon_gate():
    g = _grid(d=2, n_t=16, n_x=16)
    coeffs = generate_coefficients(
        kind="checkerboard", delta=0.25, seed=0, grid=g, roughness_scale=0.5
    )
    diag = coeffs.data[0, 0]
    assert set(np.unique(diag)) == {0.5, 1.5}
    assert np.ptp(coeffs.data[0, 1]) == 0.0  # off-diagonal stays zero
    assert coeffs.generator["cell_size"] == 0.25  # min period / 8

    with pytest.raises(ValueError, match="maximal admissible epsilon is 0.5"):
        generate_coefficients(
            kind="checkerboard", delta=0.5, seed=0, grid=g, roughness_scale=0.75
        )
    with pytest.raises(ValueError, match="needs roughness_scale"):
        generate_coefficients(kind="checkerboard", delta=0.5, seed=0, grid=g)


@pytest.mark.parametrize(
    "cell, message",
    [(5e-324, "is too small"), (float("nan"), "must be positive"), (-1.0, "must be positive")],
)
def test_checkerboard_rejects_cells_the_parity_cannot_count(cell, message):
    """A period over a subnormal cell overflowed, and a NaN cell passed the
    positivity check: the parity turned to NaN and every sign read -1."""
    g = _grid(d=1, n_t=16, n_x=16)
    with pytest.raises(ValueError, match=f"cell_size.*{message}"):
        generate_coefficients(
            kind="checkerboard", delta=0.25, seed=0, grid=g, roughness_scale=0.5, cell_size=cell
        )


def test_smooth_amplitude_gate():
    g = _grid()
    coeffs = generate_coefficients(
        kind="smooth", delta=0.5, seed=1, grid=g, roughness_scale=0.4
    )
    assert np.abs(coeffs.data[0, 0] - 1.0).max() <= 0.4 + 1e-12
    with pytest.raises(ValueError, match="maximal admissible amplitude"):
        generate_coefficients(
            kind="smooth", delta=0.5, seed=1, grid=g, roughness_scale=0.6
        )


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        generate_coefficients(kind="perforated", delta=0.5, seed=0, grid=_grid())


def test_constant_matrix_requires_constant_tag():
    g = _grid()
    rough = generate_coefficients(kind="smooth", delta=0.5, seed=3, grid=g)
    with pytest.raises(ValueError, match="constant"):
        rough.constant_matrix()


def test_r_zero_validation():
    g = _grid()
    coeffs = identity_coefficients(g)
    with pytest.raises(ValueError, match="must be positive"):
        check_assumption_time(coeffs, r_zero=-1.0)
    with pytest.raises(ValueError, match="min spatial period / 4"):
        check_assumption_time(coeffs, r_zero=0.9)
    tall = identity_coefficients(_grid(l_t=0.25, l_x=8.0))
    with pytest.raises(ValueError, match="cylinders must fit"):
        check_assumption_time(tall, r_zero=1.0)


def test_structural_zeros_of_the_scanners():
    """Matrices with exactly the measurability the checker assumes score an
    exact (up to rounding) zero."""
    g = _grid(n_t=64, n_x=64)
    a_time = generate_coefficients(kind="time_piecewise", delta=0.25, seed=7, grid=g)
    rep = check_assumption_time(a_time, r_zero=0.25)
    assert rep.gamma_estimate <= 1e-13
    assert rep.centers_scanned > 0
    assert len(rep.radii) == len(rep.gamma_per_radius)

    a_x1 = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=7, grid=g)
    rep = check_assumption_x1(a_x1, r_zero=0.25)
    assert rep.gamma_estimate <= 1e-13

    const = generate_coefficients(kind="constant", delta=0.25, seed=7, grid=g)
    assert check_assumption_time(const, r_zero=0.25).gamma_estimate <= 1e-14
    assert check_assumption_x1(const, r_zero=0.25).gamma_estimate <= 1e-14


def test_checkerboard_gamma_tracks_epsilon():
    g = _grid(n_t=64, n_x=64)
    eps = 0.5
    coeffs = generate_coefficients(
        kind="checkerboard", delta=0.25, seed=0, grid=g, roughness_scale=eps
    )
    rep = check_assumption_time(coeffs, r_zero=0.5)
    assert eps / 4.0 <= rep.gamma_estimate <= 2.0 * eps
    assert rep.worst_radius in rep.radii


def test_gamma_invariant_under_constant_shifts():
    """Adding a constant matrix to a leaves every centered oscillation
    untouched; the checker must agree exactly."""
    g = _grid(n_t=32, n_x=32)
    base = generate_coefficients(kind="smooth", delta=0.5, seed=6, grid=g)
    shifted = Coefficients(
        grid=g,
        data=base.data + 0.3 * np.eye(1).reshape(1, 1, 1, 1),
        tag="general",
        ellipticity=Ellipticity(0.4),
    )
    r1 = check_assumption_time(base, r_zero=0.5)
    r2 = check_assumption_time(shifted, r_zero=0.5)
    assert r1.gamma_estimate == pytest.approx(r2.gamma_estimate, abs=1e-13)


def _wrapped_ball(grid, center, radius, axes):
    """Flat spatial indices of the samples y with |y_i - center_i| < radius
    over the given spatial axes (torus distance), any value on the others."""
    mesh = np.meshgrid(*[np.arange(n) for n in grid.n_x], indexing="ij")
    dist_sq = np.zeros(grid.n_x)
    for i in axes:
        n = grid.n_x[i]
        offset = (mesh[i] - center[i] + n // 2) % n - n // 2
        dist_sq = dist_sq + (offset * grid.h[i]) ** 2
    return np.flatnonzero(dist_sq < radius**2)


def _brute_force_scan(coeffs, r_zero, kind):
    """Every scanned cylinder's mean oscillation, straight from the checker
    docstrings; returns (gamma per radius, cylinders scanned)."""
    grid = coeffs.grid
    d = grid.d
    a = coeffs.data.reshape(d * d, grid.n_t, -1)
    x1_index = np.unravel_index(np.arange(a.shape[-1]), grid.n_x)[0]
    gammas, count = [], 0
    r = r_zero
    while r >= 2.0 * max(grid.h) and r * r >= 2.0 * grid.dt:
        stride_t = max(1, round(r * r / (2.0 * grid.dt)))
        strides = [max(1, round(r / (2.0 * h))) for h in grid.h]
        reach = int(np.ceil(r * r / grid.dt))
        lags = [j for j in range(-reach, reach + 1) if abs(j * grid.dt) < r * r - 1e-12]
        worst = 0.0
        for tc in range(0, grid.n_t, stride_t):
            rows = [(tc + j) % grid.n_t for j in lags]
            window = a[:, rows]  # (d*d, n_window, n_space)
            for xc in np.ndindex(*[len(range(0, n, s)) for n, s in zip(grid.n_x, strides)]):
                center = [c * s for c, s in zip(xc, strides)]
                ball = _wrapped_ball(grid, center, r, range(d))
                cyl = window[:, :, ball]
                if kind == "time":
                    # reference: the spatial ball average at each time
                    ref = cyl.mean(axis=2, keepdims=True)
                else:
                    # reference: average over the time window and B'_r(x') at
                    # frozen y1 (the time window alone when d = 1)
                    prime = _wrapped_ball(grid, center, r, range(1, d))
                    profile = {
                        y1: window[:, :, prime[x1_index[prime] == y1]].mean(axis=(1, 2))
                        for y1 in set(x1_index[ball])
                    }
                    ref = np.stack([profile[y1] for y1 in x1_index[ball]], axis=-1)[:, None, :]
                worst = max(worst, float(np.abs(cyl - ref).mean(axis=(1, 2)).max()))
                count += 1
        gammas.append(worst)
        r *= 0.5
    return gammas, count


def _rough_field(grid, seed):
    """A generic admissible field: no structure, no ties between entries."""
    rng = np.random.default_rng(seed)
    d = grid.d
    data = 0.1 * rng.uniform(-1.0, 1.0, size=(d, d, *grid.shape))
    data = data - np.swapaxes(data, 0, 1) / 2.0
    for i in range(d):
        data[i, i] = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=grid.shape)
    return Coefficients(grid=grid, data=data, tag="general", ellipticity=Ellipticity(0.5))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "checker, kind", [(check_assumption_time, "time"), (check_assumption_x1, "x1")]
)
def test_scanners_match_brute_force_definition(d, checker, kind):
    g = _grid(d=d, n_t=32, n_x=16, l_t=1.0, l_x=2.0)
    for coeffs in (
        _rough_field(g, seed=d),
        generate_coefficients(kind="smooth", delta=0.5, seed=4, grid=g),
    ):
        rep = checker(coeffs, r_zero=0.5)
        gammas, count = _brute_force_scan(coeffs, 0.5, kind)
        assert rep.kind == kind
        assert len(rep.radii) == len(gammas) == 2
        assert np.allclose(rep.gamma_per_radius, gammas, rtol=0.0, atol=1e-12)
        assert rep.gamma_estimate == max(rep.gamma_per_radius)
        assert rep.centers_scanned == count
