"""Cylinder geometry, oscillation statistics, and the localization
verifiers.

Geometric oracles: the mean of |x1| over the centered ball of radius r is
r/2 + O(h), and a constant c makes tail_sum collapse to the geometric series
|c| * (1 - 2^{-J/4}) / (1 - 2^{-1/4}).
"""

import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfheat import (
    Cylinder,
    DataBundle,
    Field,
    VectorField,
    generate_coefficients,
    gradient_plus,
    identity_coefficients,
    make_grid,
    manufacture_data,
    matrix_gradient,
    solve,
    tail_sum,
    verify_local_estimate,
    verify_mean_oscillation,
    zeros,
)
from halfheat import oscillation
from halfheat.experiments import ExperimentConfig, _localized_bundle, _oscillation_spec
from halfheat.grid import _norm
from halfheat.operators import _operator, _rhs
from halfheat.oscillation import (
    _cylinder_masks,
    bundle_oscillation,
    bundle_rms,
    max_tail_terms,
)


def _grid(d=1, n_t=32, n_x=64, l_t=2.0, l_x=2.0):
    return make_grid(d=d, n_t=n_t, n_x=n_x, l_t=l_t, l_x=l_x)


def _rand(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


def _localized_solution(grid, radius):
    """A field vanishing identically outside B_radius, smooth in time."""
    t, x = grid.coordinate_mesh()[0], grid.coordinate_mesh()[1]
    cut = np.clip(1.0 - (x / radius) ** 2, 0.0, None) ** 4
    wave = np.cos(2.0 * np.pi * 2.0 * t / grid.l_t) + 0.5 * np.sin(
        2.0 * np.pi * 3.0 * t / grid.l_t
    )
    return Field(grid, np.broadcast_to(wave * cut, grid.shape))


def test_cylinder_validation():
    g = _grid()
    u = _rand(g, 0)
    with pytest.raises(ValueError, match="center needs 2 components"):
        bundle_rms([u.data], g, Cylinder(center=(0.0,), r=0.5))
    with pytest.raises(ValueError, match="does not fit"):
        bundle_rms([u.data], g, Cylinder(center=(0.0, 0.0), r=0.5, s=1.5))
    with pytest.raises(ValueError, match="does not fit"):
        bundle_oscillation([u.data], g, Cylinder(center=(0.0, 0.0), r=1.5))
    with pytest.raises(ValueError, match="needs r > 0"):
        Cylinder(center=(0.0, 0.0), r=math.nan)
    with pytest.raises(ValueError, match="needs s > 0"):
        Cylinder(center=(0.0, 0.0), r=0.5, s=math.nan)
    # a center between lattice points with a sub-cell radius selects nothing
    tiny = Cylinder(center=(g.dt / 2.0, g.h[0] / 2.0), r=math.sqrt(g.dt) / 4.0)
    with pytest.raises(ValueError, match="no grid cell centers"):
        bundle_oscillation([u.data], g, tiny)


def test_empty_bundle_is_rejected():
    g = _grid()
    cyl = Cylinder((0.0, 0.0), r=0.5)
    for statistic in (bundle_rms, bundle_oscillation):
        with pytest.raises(ValueError, match="at least one array"):
            statistic([], g, cyl)


def test_default_spatial_radius_is_r():
    cyl = Cylinder(center=(0.0, 0.0), r=0.3)
    assert cyl.spatial_radius == 0.3
    assert Cylinder(center=(0.0, 0.0), r=0.3, s=0.7).spatial_radius == 0.7


@settings(max_examples=20)
@given(st.floats(-5.0, 5.0), st.floats(0.2, 0.7))
def test_cylinder_mean_of_constant(value, r):
    g = _grid()
    u = Field(g, np.full(g.shape, value))
    cyl = Cylinder((0.0, 0.0), r=r)
    assert bundle_rms([u.data], g, cyl) == pytest.approx(abs(value))
    assert bundle_oscillation([u.data], g, cyl) == pytest.approx(0.0, abs=1e-12)


def test_mean_oscillation_of_coordinate_field():
    g = _grid(n_x=64)
    x = g.coordinate_mesh()[1]
    u = Field(g, np.broadcast_to(x, g.shape))
    r = 0.5
    osc = bundle_oscillation([u.data], g, Cylinder((0.0, 0.0), r=r))
    assert abs(osc - r / 2.0) <= g.h[0]


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_oscillation_is_within_twice_any_centering(seed):
    """mean |f - mean| <= 2 * mean |f - c| for every constant c; the median
    is the adversarial choice."""
    g = _grid(n_t=16, n_x=16)
    u = _rand(g, seed)
    cyl = Cylinder((0.0, 0.0), r=0.5)
    osc = bundle_oscillation([u.data], g, cyl)
    samples = u.data[np.abs(g.time_coordinates()) < 0.25][
        :, np.abs(g.space_coordinates(0)) < 0.5
    ]
    best = np.abs(samples - np.median(samples)).mean()
    assert osc <= 2.0 * best + 1e-12


def test_bundle_statistics_reduce_to_scalar_case():
    g = _grid()
    u = _rand(g, 3)
    cyl = Cylinder((0.0, 0.0), r=0.6)
    samples = u.data[np.abs(g.time_coordinates()) < 0.36][
        :, np.abs(g.space_coordinates(0)) < 0.6
    ]
    assert bundle_rms([u.data], g, cyl) == pytest.approx(math.sqrt((samples**2).mean()))
    assert bundle_oscillation([u.data], g, cyl) == pytest.approx(
        np.abs(samples - samples.mean()).mean()
    )


def test_bundle_rms_adds_in_quadrature():
    g = _grid()
    ones = np.ones(g.shape)
    cyl = Cylinder((0.0, 0.0), r=0.5)
    assert bundle_rms([ones, 2.0 * ones], g, cyl) == pytest.approx(math.sqrt(5.0))


def test_tail_sum_of_constant_is_geometric():
    g = _grid(n_t=64, n_x=32, l_t=8.0)
    c = 2.0
    sq = [np.full(g.shape, c)]
    r = 0.5
    terms = max_tail_terms(g, r)
    assert terms == 1 + int(math.floor(math.log2(g.l_t / (2.0 * r**2))))
    got = tail_sum(sq, g, r, (0.0, 0.0), terms)
    expected = c * (1.0 - 2.0 ** (-terms / 4.0)) / (1.0 - 2.0 ** (-1.0 / 4.0))
    assert got == pytest.approx(expected, rel=1e-12)
    # asking for more terms than fit silently clamps to the same value
    assert tail_sum(sq, g, r, (0.0, 0.0), terms + 10) == pytest.approx(got)


def test_tail_sum_rejects_impossible_geometry():
    g = _grid()
    sq = [np.ones(g.shape)]
    with pytest.raises(ValueError, match="at least one term"):
        tail_sum(sq, g, 0.8, (0.0, 0.0), 0)
    with pytest.raises(ValueError, match="no tail cylinder fits"):
        tail_sum(sq, g, 2.0, (0.0, 0.0), 3)  # r^2 = 4 > l_t/2


def test_a_huge_radius_is_refused_without_squaring_it():
    g = _grid()
    assert max_tail_terms(g, 1e200) == 0
    with pytest.raises(ValueError, match="no tail cylinder fits: r = 1e"):
        tail_sum([np.ones(g.shape)], g, 1e200, (0.0, 0.0), 3)
    with pytest.raises(ValueError, match="does not fit the fundamental cell"):
        bundle_rms([np.ones(g.shape)], g, Cylinder((0.0, 0.0), r=1e200))


def test_a_cylinder_fitting_by_rounding_has_its_tail_term():
    """At l_t = 4 and r = sqrt(2), r^2 rounds to 2.0000000000000004: the masks
    accept Q_r, so the tail count must too.  It used to count 0 terms, and
    tail_sum raised although its j = 0 cylinder is Q_r itself."""
    g = _grid(n_t=64, n_x=64, l_t=4.0, l_x=4.0)
    r = math.sqrt(2.0)
    t_mask, x_mask = _cylinder_masks(g, Cylinder((0.0, 0.0), r=r))
    assert (t_mask.sum(), x_mask.sum()) == (64, 45)
    assert max_tail_terms(g, r) == 1
    assert tail_sum([np.ones(g.shape)], g, r, (0.0, 0.0), 6) == 1.0


@settings(max_examples=60)
@given(
    st.floats(1e-3, 1e3),
    st.floats(0.5, 1.0 + 1e-11),
    st.sampled_from([16, 64, 256]),
)
def test_a_cylinder_that_fits_has_a_tail_term(l_t, factor, n_t):
    """Whenever the masks accept Q_r, at least one tail cylinder fits: the
    masks and the tail count read one fit rule."""
    g = make_grid(d=1, n_t=n_t, n_x=16, l_t=l_t, l_x=4.0 * l_t)
    r = math.sqrt(l_t / 2.0) * factor
    try:
        _cylinder_masks(g, Cylinder((0.0, 0.0), r=r))
    except ValueError:
        return
    assert max_tail_terms(g, r) >= 1


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_tail_radius_must_be_finite_and_positive(r):
    g = _grid()
    with pytest.raises(ValueError, match=f"got r={r}"):
        max_tail_terms(g, r)
    with pytest.raises(ValueError, match=f"got r={r}"):
        tail_sum([np.ones(g.shape)], g, r, (0.0, 0.0), 3)


@settings(max_examples=15)
@given(st.integers(0, 2**32 - 1))
def test_tail_sum_is_monotone(seed):
    g = _grid(l_t=8.0, n_t=64)
    rng = np.random.default_rng(seed)
    small = np.abs(rng.standard_normal(g.shape))
    bigger = small + np.abs(rng.standard_normal(g.shape))
    args = (g, 0.5, (0.0, 0.0), 4)
    assert tail_sum([small], *args) <= tail_sum([bigger], *args) + 1e-12


def test_theta_field_is_the_first_flux_component():
    """theta = sum_j a_1j (D+ u)_j, the first component of the flux a.D+u
    that the x1-measurable oscillation case reads."""
    g = _grid(d=2, n_t=16, n_x=16)
    u = _rand(g, 6)
    assert np.array_equal(
        matrix_gradient(identity_coefficients(g), u).components[0].data,
        gradient_plus(u).components[0].data,
    )
    a = generate_coefficients(kind="x1_piecewise", delta=0.5, seed=1, grid=g)
    grad = gradient_plus(u)
    manual = a.data[0, 0] * grad.components[0].data + a.data[0, 1] * (
        grad.components[1].data
    )
    assert np.allclose(matrix_gradient(a, u).components[0].data, manual, atol=1e-13)


# ---------------------------------------------------------------------------
# verifiers


def _local_instance(n=128, radius=1.0):
    g = make_grid(d=1, n_t=n, n_x=n, l_t=4.0, l_x=4.0)
    u = _localized_solution(g, radius)
    a = generate_coefficients(kind="smooth", delta=0.5, seed=2, grid=g)
    data = manufacture_data(a, 1.0, u)
    return g, a, data, u


def test_local_estimate_on_manufactured_solution():
    _, a, data, u = _local_instance()
    report = verify_local_estimate(a, data, u, radius=1.0)
    assert not report.trivial
    assert report.residual_rel <= 1e-10
    assert report.lhs > 0 and report.rhs > 0
    assert report.n_emp == pytest.approx(report.lhs / report.rhs)
    assert 1 <= report.terms_used <= 8


def test_local_estimate_gates():
    g, a, data, u = _local_instance()
    spread = _rand(g, 7)  # violates the support requirement
    bad_data = manufacture_data(a, 1.0, spread)
    with pytest.raises(ValueError, match="not supported in B_"):
        verify_local_estimate(a, bad_data, spread, radius=1.0)
    with pytest.raises(ValueError, match="does not solve"):
        verify_local_estimate(a, data, _localized_solution(g, 0.9), radius=1.0)


def test_local_estimate_trivial_case():
    g = _grid(n_t=32, n_x=32, l_t=4.0, l_x=4.0)
    data = DataBundle(h=zeros(g), g=VectorField((zeros(g),)), f=zeros(g), lam=1.0)
    report = verify_local_estimate(identity_coefficients(g), data, zeros(g), radius=0.5)
    assert report.trivial
    assert report.n_emp is None


def test_mean_oscillation_verifier_validation():
    g = _grid(n_t=64, n_x=64, l_t=4.0, l_x=4.0)
    u = _rand(g, 8)
    a = identity_coefficients(g)
    data = manufacture_data(a, 1.0, u)
    with pytest.raises(ValueError, match="case must be one of"):
        verify_mean_oscillation("everything", a, data, u, 0.5, (0.0, 0.0), (4.0,))
    with pytest.raises(ValueError, match="kappa must be >= 4"):
        verify_mean_oscillation("U_heat", a, data, u, 0.5, (0.0, 0.0), (2.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be >= 4 and finite"):
            verify_mean_oscillation("U_heat", a, data, u, 0.5, (0.0, 0.0), (4.0, bad))
    wrong = _rand(g, 9)
    with pytest.raises(ValueError, match="does not solve"):
        verify_mean_oscillation("U_heat", a, data, wrong, 0.5, (0.0, 0.0), (4.0,))


def test_zero_solution_against_nonzero_data_does_not_solve():
    """u = 0 leaves the relative residual at 1.  The oscillation verifier
    used to exempt a zero u from its residual check and accept it."""
    g = _grid(n_t=64, n_x=64, l_t=4.0, l_x=4.0)
    a = identity_coefficients(g)
    data = _localized_bundle(g, np.random.default_rng(0), 1.0)
    with pytest.raises(ValueError, match="does not solve"):
        verify_mean_oscillation("U_heat", a, data, zeros(g), 0.5, (0.0, 0.0), (4.0,))
    with pytest.raises(ValueError, match="does not solve"):
        verify_local_estimate(a, data, zeros(g), radius=0.5)


def test_a_kappa_whose_inner_cylinder_is_empty_raises():
    """A kappa whose Q_{r/kappa} holds no sample used to drop its row and
    set a flag; it is an error now, as in every other cylinder reader."""
    g = _grid(n_t=64, n_x=64, l_t=4.0, l_x=4.0)
    u = _rand(g, 8)
    a = identity_coefficients(g)
    data = manufacture_data(a, 1.0, u)
    with pytest.raises(ValueError, match="contains no grid cell centers"):
        verify_mean_oscillation("U_heat", a, data, u, 0.5, (0.0, 0.0), (4.0, 1e200))


def test_mean_oscillation_rows():
    g = make_grid(d=1, n_t=256, n_x=128, l_t=4.0, l_x=4.0)
    a = generate_coefficients(kind="time_piecewise", delta=0.5, seed=3, grid=g)
    u = _rand(g, 10)
    data = manufacture_data(a, 1.0, u)
    report = verify_mean_oscillation(
        "calU_time_coeffs", a, data, u, 0.5, (0.0, 0.0), (4.0, 8.0)
    )
    assert report.case == "calU_time_coeffs"
    assert report.outer_radius == 0.5
    assert len(report.rows) == 2
    for row, kappa in zip(report.rows, (4.0, 8.0)):
        assert row.kappa == kappa
        assert row.inner_radius == pytest.approx(0.5 / kappa)
        assert row.lhs > 0
        assert row.term_homogeneous > 0
        assert row.n_emp is not None
    assert report.fitted_decay is not None


def test_mean_oscillation_zero_solution_is_degenerate():
    g = _grid(n_t=64, n_x=64, l_t=4.0, l_x=4.0)
    a = identity_coefficients(g)
    data = DataBundle(h=zeros(g), g=VectorField((zeros(g),)), f=zeros(g), lam=1.0)
    report = verify_mean_oscillation(
        "U_heat", a, data, zeros(g), 0.5, (0.0, 0.0), (4.0, 8.0)
    )
    assert all(row.lhs == 0.0 for row in report.rows)
    assert all(row.n_emp is None for row in report.rows)
    assert report.fitted_decay is None


def _rows_instance():
    g = make_grid(d=1, n_t=256, n_x=128, l_t=4.0, l_x=4.0)
    a = generate_coefficients(kind="x1_piecewise", delta=0.5, seed=3, grid=g)
    u = _rand(g, 10)
    return a, manufacture_data(a, 1.0, u), u


def test_verifiers_check_the_operator_residual():
    """Each verifier checks u against the bundle's right-hand side itself."""
    a, data, u = _rows_instance()
    rhs = _rhs(data)
    expected = _norm(_operator(a, 1.0, u.data)[0] - rhs) / _norm(rhs)
    report = verify_mean_oscillation(
        "calUprime_theta_x1", a, data, u, 0.5, (0.0, 0.0), (4.0,)
    )
    assert report.residual_rel == expected
    _, a, data, u = _local_instance()
    rhs = _rhs(data)
    expected = _norm(_operator(a, 1.0, u.data)[0] - rhs) / _norm(rhs)
    assert verify_local_estimate(a, data, u, radius=1.0).residual_rel == expected


def test_verifiers_refuse_a_wrong_u_at_extreme_scales():
    """Half the manufactured solution, at size 1e300 and at 1e-170, is
    refused by both verifiers, and the right u passes at both sizes.  At
    1e300 both norms overflowed and the residual read NaN, which `rel >
    rtol` let through (and a NaN refused the right u too); at 1e-170 the
    squares underflowed and the residual read 0.0."""

    def mean_oscillation(a, data, u):
        return verify_mean_oscillation("calUprime_theta_x1", a, data, u, 0.5, (0.0, 0.0), (4.0,))

    def local_estimate(a, data, u):
        return verify_local_estimate(a, data, u, radius=1.0)

    rows_a, _, rows_u = _rows_instance()
    _, local_a, _, local_u = _local_instance()
    for verify, a, u in ((mean_oscillation, rows_a, rows_u), (local_estimate, local_a, local_u)):
        for size in (1e300, 1e-170):
            exact = Field(u.grid, size * u.data)
            data = manufacture_data(a, 1.0, exact)
            with pytest.raises(ValueError, match="u does not solve the equation"):
                verify(a, data, Field(u.grid, 0.5 * exact.data))
            assert verify(a, data, exact).residual_rel <= 1e-10


@pytest.mark.parametrize("k", [-600, 600])
def test_verifiers_are_exactly_equivariant_under_power_of_two_scaling(k):
    """A solution and its data scaled by 2^k give the same verdicts: lhs and
    rhs (and each oscillation row's terms) scaled by exactly 2^k, and the
    same n_emp and residual.  At k = 600 the norms overflowed and u was
    refused; at k = -600 the squared sums underflowed to 0.0."""
    _, local_a, local_data, local_u = _local_instance()
    base = verify_local_estimate(local_a, local_data, local_u, radius=1.0)
    scaled_u = Field(local_u.grid, np.ldexp(local_u.data, k))
    report = verify_local_estimate(
        local_a, manufacture_data(local_a, 1.0, scaled_u), scaled_u, radius=1.0
    )
    assert (report.lhs, report.rhs) == (np.ldexp(base.lhs, k), np.ldexp(base.rhs, k))
    assert (report.n_emp, report.residual_rel) == (base.n_emp, base.residual_rel)
    assert report.terms_used == base.terms_used and not report.trivial

    a, data, u = _rows_instance()
    args = ("calUprime_theta_x1", a)
    tail = (0.5, (0.0, 0.0), (4.0, 8.0))
    base = verify_mean_oscillation(*args, data, u, *tail)
    scaled_u = Field(u.grid, np.ldexp(u.data, k))
    report = verify_mean_oscillation(*args, manufacture_data(a, 1.0, scaled_u), scaled_u, *tail)
    assert report.residual_rel == base.residual_rel
    # the slope fits log2 of the rows, shifted by k: equal to rounding
    assert report.fitted_decay == pytest.approx(base.fitted_decay, rel=1e-12)
    for row, base_row in zip(report.rows, base.rows):
        for name in ("lhs", "term_homogeneous", "term_tail"):
            assert getattr(row, name) == np.ldexp(getattr(base_row, name), k)
        assert row.n_emp == base_row.n_emp


@pytest.mark.parametrize("k", [-600, 600])
@pytest.mark.parametrize("d", [1, 2])
def test_rms_and_tail_sum_are_exactly_equivariant_under_power_of_two_scaling(d, k):
    """Slots scaled by 2^k have a cylinder root mean square and a tail sum
    scaled by exactly 2^k.  At k = +-600 their squares over- or underflow,
    and both divide out the slots' peak power of two by grid's rule; they
    used to read inf or 0.0 there."""
    g = _grid(d=d, n_t=64, n_x=16, l_t=8.0)
    rng = np.random.default_rng(20 + d)
    slots = [rng.standard_normal(g.shape) for _ in range(d + 1)]
    scaled = [np.ldexp(slot, k) for slot in slots]
    center = (0.0,) * (d + 1)
    cyl = Cylinder(center, r=0.5)
    assert bundle_rms(scaled, g, cyl) == np.ldexp(bundle_rms(slots, g, cyl), k)
    terms = max_tail_terms(g, 0.5)
    assert terms > 1
    expected = np.ldexp(tail_sum(slots, g, 0.5, center, terms), k)
    assert tail_sum(scaled, g, 0.5, center, terms) == expected


def test_rms_and_tail_sum_of_huge_slots_are_finite():
    """A constant 1e200 slot has root mean square and one-term tail sum
    1e200: its squares overflow, and both used to read inf (with numpy's
    overflow warning, an error in this suite).  Only a value above the
    largest float reads inf."""
    g = _grid(n_t=16, n_x=16)
    cyl = Cylinder((0.0, 0.0), r=0.5)
    huge = [np.full(g.shape, 1e200)]
    assert bundle_rms(huge, g, cyl) == pytest.approx(1e200, rel=1e-15)
    assert tail_sum(huge, g, 0.5, (0.0, 0.0), 1) == pytest.approx(1e200, rel=1e-15)
    # squares in range whose cylinder sum overflows
    near = [np.full(g.shape, 1.3e154)]
    assert tail_sum(near, g, 0.5, (0.0, 0.0), 1) == pytest.approx(1.3e154, rel=1e-15)
    assert bundle_rms(2 * [np.full(g.shape, 1.5e308)], g, cyl) == np.inf


@pytest.mark.parametrize("verifier", ["local", "oscillation"])
def test_tail_sum_releases_the_temporary_data_slots(monkeypatch, verifier):
    """The data slots a verifier builds for its tail sum (f/sqrt(lambda) is a
    new full-grid array) are dead while the tail sum's cylinder loop runs:
    only their squared sum is alive then, so the two never add to the
    verifier's memory peak."""
    made, dead = [], []
    real_parts, real_samples = oscillation._data_parts, oscillation._cylinder_samples

    def parts(data):
        slots = real_parts(data)
        made.append(weakref.ref(slots[-1]))  # the f/sqrt(lambda) slot
        return slots

    def samples(arrays, grid, cyl):
        if made and sys._getframe(1).f_code.co_name == "tail_sum":
            dead.append(all(ref() is None for ref in made))
        return real_samples(arrays, grid, cyl)

    monkeypatch.setattr(oscillation, "_data_parts", parts)
    monkeypatch.setattr(oscillation, "_cylinder_samples", samples)
    if verifier == "local":
        _, a, data, u = _local_instance()
        verify_local_estimate(a, data, u, radius=1.0)
    else:
        a, data, u = _rows_instance()
        verify_mean_oscillation("calUprime_theta_x1", a, data, u, 0.5, (0.0, 0.0), (4.0,))
    assert len(made) == 1 and dead and all(dead)


@pytest.mark.parametrize("case", ["calU_time_coeffs", "U_heat", "calUprime_theta_x1"])
def test_mean_oscillation_takes_one_time_spectrum(monkeypatch, case):
    """Once the bundle holds its right-hand side (as after a solve), the
    verifier transforms u along time once: one rfft of u's lines along time,
    time last."""
    a, data, u = _rows_instance()
    _rhs(data)
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    verify_mean_oscillation(case, a, data, u, 0.5, (0.0, 0.0), (4.0, 8.0))
    assert calls == [(*u.grid.n_x, u.grid.n_t)]


_DEFAULT_KAPPAS = _oscillation_spec(
    ExperimentConfig.from_mapping({}, kind="oscillation")
)[1]


@pytest.mark.parametrize(
    "kappas",
    [(4.0,), (4.0, 6.0, 12.0), _DEFAULT_KAPPAS],
    ids=["4", "4-6-12", "default"],
)
def test_mean_oscillation_takes_the_outer_statistics_once(monkeypatch, kappas):
    """The bundle root-mean-square over Q_r and the data tail sum do not
    depend on kappa: each is taken once per call, however many kappas.  Each
    cylinder's masks are built once for its whole bundle."""
    a, data, u = _rows_instance()
    calls = {"tail_sum": 0, "bundle_rms": 0, "_cylinder_masks": 0}
    for name in calls:
        original = getattr(oscillation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oscillation, name, counted)
    report = verify_mean_oscillation(
        "calUprime_theta_x1", a, data, u, 0.5, (0.0, 0.0), kappas
    )
    assert len(report.rows) == len(kappas)
    # Q_r once, each tail cylinder once, and per kappa one cylinder for each
    # of the x1 case's two oscillation bundles
    tail_cylinders = min(oscillation._OSCILLATION_TERMS, max_tail_terms(u.grid, 0.5))
    masks = 1 + tail_cylinders + 2 * len(kappas)
    assert calls == {"tail_sum": 1, "bundle_rms": 1, "_cylinder_masks": masks}


@pytest.mark.parametrize(
    "kappas", [(4.0, 6.0, 12.0), _DEFAULT_KAPPAS], ids=["4-6-12", "default"]
)
@pytest.mark.parametrize(
    "case, theta", [("calU_time_coeffs", 1.0), ("calUprime_theta_x1", 0.5)]
)
def test_mean_oscillation_rows_scale_one_pair_of_terms(kappas, case, theta):
    """Every row is kappa^{-theta} times one root-mean-square plus
    kappa^{1+d/2} times one tail sum.  The kappa = 4 row gives both back
    exactly (its powers are powers of two); every row must match them to
    the bit."""
    a, data, u = _rows_instance()
    report = verify_mean_oscillation(case, a, data, u, 0.5, (0.0, 0.0), kappas)
    tail_power = 1.0 + u.grid.d / 2.0
    first = report.rows[0]
    assert first.kappa == 4.0
    rms = first.term_homogeneous * 4.0**theta
    f_tail = first.term_tail / 4.0**tail_power
    assert rms > 0 and f_tail > 0
    for row in report.rows:
        assert row.term_homogeneous == row.kappa ** (-theta) * rms
        assert row.term_tail == row.kappa**tail_power * f_tail


_CASE_KINDS = {
    "calU_time_coeffs": ("time_piecewise", "t_frame_gmres"),
    "U_heat": ("constant", "oracle"),
    "calUprime_theta_x1": ("x1_piecewise", "x1_direct"),
}


@pytest.mark.parametrize("case", sorted(_CASE_KINDS))
def test_mean_oscillation_reads_the_solves_slots(case):
    """Given the SolveResult, the verifier reads the slots of solve's final
    check and its true relative residual: the rows are the bytes of the
    bare-u path, which transforms u itself, and so is the residual on the
    paths alike: both come from solver._check.  A handed residual above rtol
    is refused as a bare u's is."""
    kind, method = _CASE_KINDS[case]
    g = make_grid(d=1, n_t=256, n_x=128, l_t=4.0, l_x=4.0)
    a = generate_coefficients(kind=kind, delta=0.5, seed=3, grid=g)
    data = _localized_bundle(g, np.random.default_rng(4), 1.0)
    result = solve(a, data)
    assert result.method == method and result.slots is not None
    args = (0.5, (0.0, 0.0), (4.0, 8.0, 16.0))
    handed = verify_mean_oscillation(case, a, data, result, *args, rtol=1e-8)
    bare = verify_mean_oscillation(case, a, data, result.u, *args, rtol=1e-8)
    assert handed.rows == bare.rows and handed.fitted_decay == bare.fitted_decay
    assert handed.residual_rel == result.final_relative_residual == bare.residual_rel
    tight = result.final_relative_residual / 2.0
    elsewhere = _localized_bundle(_grid(n_t=256, n_x=128), np.random.default_rng(4), 1.0)
    for u in (result, result.u):
        with pytest.raises(ValueError, match="u does not solve the equation"):
            verify_mean_oscillation(case, a, data, u, *args, rtol=tight)
        with pytest.raises(ValueError, match="different grids"):
            verify_mean_oscillation(case, a, elsewhere, u, *args, rtol=1e-8)
