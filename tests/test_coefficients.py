"""Coefficient generators, admissibility checks, and the mean-oscillation
assumption scanners.

Structural facts used as oracles: a purely time-dependent matrix oscillates
not at all around its spatial ball average (gamma = 0 up to rounding), an
x1-dependent matrix likewise for the x1-slice reference, and the two-phase
checkerboard (1 +- eps) deviates from any local average by an amount
comparable to eps once a cylinder straddles both phases.
"""

import dataclasses
import hashlib

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
from halfheat.coefficients import _trig_polynomial


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


@pytest.mark.parametrize("bad", [True, np.True_, None, "x"], ids=repr)
def test_ellipticity_reads_delta_as_a_number(bad):
    """delta is read as generate_coefficients reads it: a bool, null or text
    is a ValueError naming 'delta', not a delta of 1 or a TypeError."""
    with pytest.raises(ValueError, match="'delta'"):
        Ellipticity(bad)


def test_coefficients_from_matrix_refuses_a_bool_delta():
    with pytest.raises(ValueError, match="'delta'"):
        coefficients_from_matrix(_grid(n_t=8, n_x=8), np.eye(1), delta=True)


def test_ellipticity_stores_a_float():
    ell = Ellipticity(np.float32(0.5))
    assert type(ell.delta) is float and ell == Ellipticity(0.5)
    assert repr(Ellipticity(1)) == "Ellipticity(delta=1.0)"


def test_identity_coefficients():
    g = _grid(d=2)
    coeffs = identity_coefficients(g)
    assert coeffs.tag == "constant"
    assert coeffs.ellipticity.delta == 1.0
    full = np.broadcast_to(coeffs.data, (2, 2, *g.shape))
    assert np.array_equal(full[0, 0], np.ones(g.shape))
    assert np.array_equal(full[0, 1], np.zeros(g.shape))
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
    with pytest.raises(ValueError, match="shape"):  # an axis neither 1 nor full length
        Coefficients(grid=g, data=np.ones((1, 1, 2, 1)), tag="general", ellipticity=ell)
    # a field varying along t only, along x1 only: each tag forbids one of them
    for axis, tags in ((0, ("constant", "x1_measurable")), (1, ("constant", "time_measurable"))):
        varies = np.ones((1, 1, *g.shape))
        varies[(0, 0) + (slice(None),) * axis + (3,)] = 0.9
        for tag in tags:
            with pytest.raises(ValueError, match=f"inconsistent.*sample axis {axis}"):
                Coefficients(grid=g, data=varies, tag=tag, ellipticity=ell)
    g2 = _grid(d=2, n_t=8, n_x=8)
    varies = np.ones((1, 1, 1, 1, 8)) * np.eye(2).reshape(2, 2, 1, 1, 1)
    varies[0, 0, 0, 0, 3] = 0.9  # along x2, which x1_measurable forbids
    with pytest.raises(ValueError, match="inconsistent.*sample axis 2"):
        Coefficients(grid=g2, data=varies, tag="x1_measurable", ellipticity=ell)
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


# the generator kinds with a narrow tag, and that tag
_NARROW = {
    "constant": "constant",
    "time_piecewise": "time_measurable",
    "x1_piecewise": "x1_measurable",
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", [*_NARROW, "checkerboard", "smooth"])
def test_data_is_stored_at_the_shape_its_tag_allows(kind, d):
    g = _grid(d=d, n_t=16, n_x=8)
    coeffs = generate_coefficients(kind=kind, delta=0.5, seed=1, grid=g)
    axes = {"constant": (), "time_measurable": (0,), "x1_measurable": (1,)}.get(
        coeffs.tag, range(d + 1)
    )
    compact = tuple(n if axis in axes else 1 for axis, n in enumerate(g.shape))
    assert coeffs.data.shape == (d, d, *compact)
    assert coeffs.data.flags.c_contiguous and not coeffs.data.flags.writeable
    if kind in _NARROW:
        assert coeffs.data.nbytes <= d * d * max(g.n_t, g.n_x[0]) * 8


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", list(_NARROW))
def test_full_grid_input_compacts_to_the_generated_array(kind, d):
    g = _grid(d=d, n_t=16, n_x=8)
    made = generate_coefficients(kind=kind, delta=0.5, seed=2, grid=g)
    full = np.broadcast_to(made.data, (d, d, *g.shape)).copy()
    back = Coefficients(grid=g, data=full, tag=_NARROW[kind], ellipticity=made.ellipticity)
    assert back.data.shape == made.data.shape
    assert back.data.tobytes() == made.data.tobytes()
    assert not np.shares_memory(back.data, full)  # the stored array is a private copy
    # a general tag keeps every sample
    general = Coefficients(grid=g, data=made.data, tag="general", ellipticity=made.ellipticity)
    assert general.data.tobytes() == full.tobytes()


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
    # epsilon defaults to (1 - delta) / 2, as the smooth amplitude does
    default = generate_coefficients(kind="checkerboard", delta=0.5, seed=0, grid=g)
    assert default.generator["epsilon"] == 0.25
    assert set(np.unique(default.data[0, 0])) == {0.75, 1.25}
    # at delta = 1 that default is 0, which no checkerboard admits
    with pytest.raises(ValueError, match="checkerboard epsilon 0.0 not admissible"):
        generate_coefficients(kind="checkerboard", delta=1.0, seed=0, grid=g)


@pytest.mark.parametrize(
    "kind, key, value",
    [
        pytest.param("checkerboard", "roughness_scale", 10**400, id="checkerboard_epsilon_huge"),
        pytest.param("checkerboard", "roughness_scale", True, id="checkerboard_epsilon_bool"),
        pytest.param("smooth", "roughness_scale", 10**400, id="smooth_amplitude_huge"),
        pytest.param("smooth", "roughness_scale", np.True_, id="smooth_amplitude_bool"),
        pytest.param("checkerboard", "cell_size", 10**400, id="cell_size_huge"),
        pytest.param("checkerboard", "cell_size", True, id="cell_size_bool"),
        pytest.param("constant", "delta", True, id="delta_bool"),
        pytest.param("smooth", "delta", "half", id="delta_text"),
        pytest.param("constant", "seed", True, id="seed_bool"),
        pytest.param("time_piecewise", "seed", 2.5, id="seed_fraction"),
    ],
)
def test_generator_reads_numbers_as_config_keys_are_read(kind, key, value):
    """generate_coefficients reads delta, roughness_scale (for checkerboard and
    smooth) and cell_size as grid._scalar reads a config number, and the seed
    as grid._integer does: a bool, text or an integer past the float range is
    a ValueError naming the argument.  Before, a bare float() raised
    OverflowError, True read as 1, and seed=True drew seed 1."""
    arguments = {"kind": kind, "delta": 0.25, "seed": 0, "grid": _grid(d=1, n_t=16, n_x=16)}
    arguments[key] = value
    expected = "an integer" if key == "seed" else "a number"
    with pytest.raises(ValueError, match=f"'{key}' must be {expected}"):
        generate_coefficients(**arguments)


def test_generator_reads_integral_numbers_unchanged():
    """An integral float seed and an integer cell size or amplitude build the
    field their int or float spelling builds, with the same generator keys."""
    g = _grid(d=1, n_t=16, n_x=16)
    want = generate_coefficients("checkerboard", 0.5, 3, g, roughness_scale=0.25, cell_size=1.0)
    got = generate_coefficients("checkerboard", 0.5, 3.0, g, roughness_scale=0.25, cell_size=1)
    assert got.data.tobytes() == want.data.tobytes()
    assert got.generator == want.generator == {
        "kind": "checkerboard", "delta": 0.5, "seed": 3, "epsilon": 0.25, "cell_size": 1.0,
    }
    assert type(got.generator["seed"]) is int and type(got.generator["cell_size"]) is float


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
    # NaN passed a test written as two comparisons and failed later as
    # "coefficient entries must be finite", not naming the amplitude
    with pytest.raises(ValueError, match="smooth amplitude nan not admissible"):
        generate_coefficients(
            kind="smooth", delta=0.5, seed=1, grid=g, roughness_scale=float("nan")
        )


def _full_grid_trig_polynomial(rng, grid):
    """The full-grid cos loop that _trig_polynomial's separable tables replaced."""
    mesh = grid.coordinate_mesh()
    periods = [grid.l_t, *grid.l_x]
    amps = rng.standard_normal(6)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    modes = rng.integers(-3, 4, size=(6, grid.d + 1))
    total = np.zeros(grid.shape)
    for amp, phi, k in zip(amps, phases, modes):
        arg = phi + sum(
            2.0 * np.pi * k[ax] * mesh[ax] / periods[ax] for ax in range(grid.d + 1)
        )
        total = total + amp * np.cos(arg)
    return total, amps


@pytest.mark.parametrize(
    "n_x, l_x",
    [((24,), (3.0,)), ((16, 10), (3.0, 1.5)), ((8, 12, 10), (3.0, 1.5, 2.5))],
    ids=["d1", "d2", "d3"],
)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_trig_polynomial_matches_the_full_grid_loop(n_x, l_x, seed):
    grid = make_grid(d=len(n_x), n_t=20, n_x=n_x, l_t=2.0, l_x=l_x)
    total, amps = _trig_polynomial(np.random.default_rng(seed), grid)
    ref, ref_amps = _full_grid_trig_polynomial(np.random.default_rng(seed), grid)
    assert total.shape == grid.shape
    assert np.array_equal(amps, ref_amps)
    assert np.abs(total - ref).max() <= 1e-13 * np.abs(ref).max()
    again, _ = _trig_polynomial(np.random.default_rng(seed), grid)
    assert again.tobytes() == total.tobytes()


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
    # NaN fails as not positive, not as below the grid resolution
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            check_assumption_time(coeffs, r_zero=bad)
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
    a = np.broadcast_to(coeffs.data, (d, d, *grid.shape)).reshape(d * d, grid.n_t, -1)
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


# Byte pins of the generators at d = 1, 2 and 3 and of both scans at d = 2,
# recorded before their code was condensed: the golden outputs build every
# field and run every scan at d = 1 only.  A generated field is pinned by the
# sha256 of its stored data, its stored shape and tag, and the generator keys
# beyond kind, delta and seed.
_PIN_GRIDS = {1: (32, 32), 2: (16, 16), 3: (8, 8)}
_PIN_OPTIONS = {
    "constant": {"roughness_scale": 3},  # unused: the same field as the default
    "time_piecewise": {"roughness_scale": 3},
    "x1_piecewise": {"roughness_scale": 3},
    "checkerboard": {"roughness_scale": 0.3, "cell_size": 0.5},
    "smooth": {"roughness_scale": 0.2},
}
_GENERATOR_PINS = {
    ("constant", 1, False): (
        "c9fc2acf3dd93133e240ffe10e808e6d81877efa03b4d33a295c0d0ca76efa98",
        (1, 1, 1, 1), "constant", {},
    ),
    ("constant", 1, True): (
        "c9fc2acf3dd93133e240ffe10e808e6d81877efa03b4d33a295c0d0ca76efa98",
        (1, 1, 1, 1), "constant", {},
    ),
    ("time_piecewise", 1, False): (
        "b7ab03a14261986f5b96a75d3f992797c74039b32cc6527b71f5b5d869098ab0",
        (1, 1, 32, 1), "time_measurable", {"n_jumps": 4},
    ),
    ("time_piecewise", 1, True): (
        "d1f0873ae18a66206dbf15347a570025e04b80ddf939901d3575ae8ced6b507a",
        (1, 1, 32, 1), "time_measurable", {"n_jumps": 3},
    ),
    ("x1_piecewise", 1, False): (
        "b7ab03a14261986f5b96a75d3f992797c74039b32cc6527b71f5b5d869098ab0",
        (1, 1, 1, 32), "x1_measurable", {"n_jumps": 4},
    ),
    ("x1_piecewise", 1, True): (
        "d1f0873ae18a66206dbf15347a570025e04b80ddf939901d3575ae8ced6b507a",
        (1, 1, 1, 32), "x1_measurable", {"n_jumps": 3},
    ),
    ("checkerboard", 1, False): (
        "5ce5aa773a80b955d21e66b79361cf09cfdd510ccb086271cb0be70876b3ccf8",
        (1, 1, 32, 32), "general", {"epsilon": 0.375, "cell_size": 0.25},
    ),
    ("checkerboard", 1, True): (
        "ae1c6481ce7b6096362230e20515d443a8d255fc9689fab336d9e4b7b562db48",
        (1, 1, 32, 32), "general", {"epsilon": 0.3, "cell_size": 0.5},
    ),
    ("smooth", 1, False): (
        "022d61f6b4243e386d9e1dffc3547c09b59d51262d1e864a23a345325a0f85b7",
        (1, 1, 32, 32), "general", {"amplitude": 0.375},
    ),
    ("smooth", 1, True): (
        "ab9f0a74b96bc589ea5269bf9e0c53e4e9bce9cd0414e6eff17a6565a26f7f54",
        (1, 1, 32, 32), "general", {"amplitude": 0.2},
    ),
    ("constant", 2, False): (
        "b860b9b76d6a1fe4132717f3793e09940f0ff8e93e37829951743e05022a7370",
        (2, 2, 1, 1, 1), "constant", {},
    ),
    ("constant", 2, True): (
        "b860b9b76d6a1fe4132717f3793e09940f0ff8e93e37829951743e05022a7370",
        (2, 2, 1, 1, 1), "constant", {},
    ),
    ("time_piecewise", 2, False): (
        "1be13703e716d034b2c4e15ab72a7c0dfded75717c0140293ac447499a8e4119",
        (2, 2, 16, 1, 1), "time_measurable", {"n_jumps": 4},
    ),
    ("time_piecewise", 2, True): (
        "336e7f364cf65cb6412b47eb97b55fcd51cf3a5f6e2af9947a145b187e703500",
        (2, 2, 16, 1, 1), "time_measurable", {"n_jumps": 3},
    ),
    ("x1_piecewise", 2, False): (
        "1be13703e716d034b2c4e15ab72a7c0dfded75717c0140293ac447499a8e4119",
        (2, 2, 1, 16, 1), "x1_measurable", {"n_jumps": 4},
    ),
    ("x1_piecewise", 2, True): (
        "336e7f364cf65cb6412b47eb97b55fcd51cf3a5f6e2af9947a145b187e703500",
        (2, 2, 1, 16, 1), "x1_measurable", {"n_jumps": 3},
    ),
    ("checkerboard", 2, False): (
        "e31ec80409d14536b435a28fea06295699d45492b39ca93d04d70722560dba06",
        (2, 2, 16, 16, 16), "general", {"epsilon": 0.375, "cell_size": 0.25},
    ),
    ("checkerboard", 2, True): (
        "0c0ef7fe5cd8bf5c40b094a736237e9d5add31f378f6ae80154a2b625eb26e10",
        (2, 2, 16, 16, 16), "general", {"epsilon": 0.3, "cell_size": 0.5},
    ),
    ("smooth", 2, False): (
        "88c32e316c009e3df63c57343ee90770d062c529f61c7ffec2348d2ab38e7eb2",
        (2, 2, 16, 16, 16), "general", {"amplitude": 0.375},
    ),
    ("smooth", 2, True): (
        "83354469e788a3a1ee5ab312d80abc63681d7bfaf46955712c1e1c9d7bd072df",
        (2, 2, 16, 16, 16), "general", {"amplitude": 0.2},
    ),
    ("constant", 3, False): (
        "8b4547bddcbbabec425f85c9b89ec04a0ac868acce01fae246c2304ccb040fc9",
        (3, 3, 1, 1, 1, 1), "constant", {},
    ),
    ("constant", 3, True): (
        "8b4547bddcbbabec425f85c9b89ec04a0ac868acce01fae246c2304ccb040fc9",
        (3, 3, 1, 1, 1, 1), "constant", {},
    ),
    ("time_piecewise", 3, False): (
        "2a7a46fc264d6f420bd7b0689dd2cdd1bbb164bd6be5550ea57a7d3de68fe0d3",
        (3, 3, 8, 1, 1, 1), "time_measurable", {"n_jumps": 4},
    ),
    ("time_piecewise", 3, True): (
        "32ca6367963129bea9973e69bb3014ba146aa0be656418fe2d2a37993893be36",
        (3, 3, 8, 1, 1, 1), "time_measurable", {"n_jumps": 3},
    ),
    ("x1_piecewise", 3, False): (
        "2a7a46fc264d6f420bd7b0689dd2cdd1bbb164bd6be5550ea57a7d3de68fe0d3",
        (3, 3, 1, 8, 1, 1), "x1_measurable", {"n_jumps": 4},
    ),
    ("x1_piecewise", 3, True): (
        "32ca6367963129bea9973e69bb3014ba146aa0be656418fe2d2a37993893be36",
        (3, 3, 1, 8, 1, 1), "x1_measurable", {"n_jumps": 3},
    ),
    ("checkerboard", 3, False): (
        "84aad6a30f195b6cc4761c6311b22608ee5a6074bad7f25a9fd927e9091e3c22",
        (3, 3, 8, 8, 8, 8), "general", {"epsilon": 0.375, "cell_size": 0.25},
    ),
    ("checkerboard", 3, True): (
        "0add58b60152c6c73c8415ad3d82d23204d53d8c321d3baa8c2c57144b1215c5",
        (3, 3, 8, 8, 8, 8), "general", {"epsilon": 0.3, "cell_size": 0.5},
    ),
    ("smooth", 3, False): (
        "af6ea6b6b7aa5471cbe16ff65865171f11e7a926cd8b14fe02c4b0b56831475d",
        (3, 3, 8, 8, 8, 8), "general", {"amplitude": 0.375},
    ),
    ("smooth", 3, True): (
        "4cabce1b5f356327f139c7e0205a22dedb3008bd2a812f3aecd4101af40f3305",
        (3, 3, 8, 8, 8, 8), "general", {"amplitude": 0.2},
    ),
}


@pytest.mark.parametrize("kind, d, explicit", list(_GENERATOR_PINS))
def test_generated_fields_keep_their_bytes(kind, d, explicit):
    n_t, n_x = _PIN_GRIDS[d]
    options = _PIN_OPTIONS[kind] if explicit else {}
    coeffs = generate_coefficients(kind, 0.25, 5, _grid(d=d, n_t=n_t, n_x=n_x), **options)
    digest, shape, tag, extra = _GENERATOR_PINS[kind, d, explicit]
    assert hashlib.sha256(coeffs.data.tobytes()).hexdigest() == digest
    assert (coeffs.data.shape, coeffs.tag) == (shape, tag)
    assert coeffs.generator == {"kind": kind, "delta": 0.25, "seed": 5, **extra}


# (generated kind, checker kind): the AssumptionReport fields after kind, on a
# d = 2 grid of 64 x 16 x 16 samples at R0 = 0.5 (two radii); the x1 checker
# averages over B'_r at d >= 2 only
_SCAN_PINS = {
    ("constant", "time"): (
        0.5, 1.3322676295501878e-15, (0.5, 0.25),
        (1.3322676295501878e-15, 1.0842021724855044e-19), 0.5, 17408,
    ),
    ("constant", "x1"): (
        0.5, 0.0, (0.5, 0.25),
        (0.0, 0.0), 0.5, 17408,
    ),
    ("time_piecewise", "time"): (
        0.5, 2.220446049250313e-15, (0.5, 0.25),
        (2.220446049250313e-15, 4.440892098500626e-16), 0.5, 17408,
    ),
    ("time_piecewise", "x1"): (
        0.5, 1.028918854803979, (0.5, 0.25),
        (1.028918854803979, 0.9527026433370162), 0.5, 17408,
    ),
    ("x1_piecewise", "time"): (
        0.5, 1.0458557906855253, (0.5, 0.25),
        (1.0458557906855253, 0.952702643337016), 0.5, 17408,
    ),
    ("x1_piecewise", "x1"): (
        0.5, 7.00674086652321e-16, (0.5, 0.25),
        (7.00674086652321e-16, 1.1102230246251565e-16), 0.5, 17408,
    ),
    ("checkerboard", "time"): (
        0.5, 0.37481481481481477, (0.5, 0.25),
        (0.37481481481481477, 0.37037037037037046), 0.5, 17408,
    ),
    ("checkerboard", "x1"): (
        0.5, 0.3749629629629628, (0.5, 0.25),
        (0.3749629629629628, 0.37037037037037035), 0.5, 17408,
    ),
    ("smooth", "time"): (
        0.5, 0.14860238533793782, (0.5, 0.25),
        (0.12399265086006528, 0.14860238533793782), 0.25, 17408,
    ),
    ("smooth", "x1"): (
        0.5, 0.14379402825404297, (0.5, 0.25),
        (0.11653406119900486, 0.14379402825404297), 0.25, 17408,
    ),
}


@pytest.mark.parametrize("kind, checker_kind", list(_SCAN_PINS))
def test_scan_reports_keep_their_values(kind, checker_kind):
    coeffs = generate_coefficients(kind, 0.25, 5, _grid(d=2, n_t=64, n_x=16))
    checker = check_assumption_time if checker_kind == "time" else check_assumption_x1
    report = checker(coeffs, 0.5)
    assert report.kind == checker_kind
    assert dataclasses.astuple(report)[1:] == _SCAN_PINS[kind, checker_kind]
