"""Spatial difference operators, the forward operator, and data bundles.

The forward/backward difference pair is an exact summation-by-parts pair on
the periodic lattice, so the adjoint identities below hold to rounding, not
merely to discretization order.  The single-mode eigenvalue of the discrete
Laplacian is 2(1 - cos(xi h))/h^2.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfheat import (
    Coefficients,
    DataBundle,
    Field,
    VectorField,
    apply_operator,
    apply_rhs,
    divergence_minus,
    generate_coefficients,
    gradient_plus,
    identity_coefficients,
    inner,
    lp_norm,
    make_grid,
    manufacture_data,
    matrix_gradient,
    reduce_to_identity,
    residual,
    zeros,
)
from halfheat.operators import (
    _divergence,
    _flux,
    _gradient,
    _operator,
    _rhs,
    _solution_parts,
)
from halfheat.solver import _check
from halfheat.timeops import _time_multiplier, time_symbol


def _grid(d=1, n_t=16, n_x=16):
    return make_grid(d=d, n_t=n_t, n_x=n_x, l_t=2.0, l_x=2.0)


def _rand(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


def _rand_vector(grid, seed):
    rng = np.random.default_rng(seed)
    return VectorField(
        tuple(
            Field(grid, rng.standard_normal(grid.shape))
            for _ in range(grid.d)
        )
    )


def test_gradient_of_single_spatial_mode():
    # forward difference of cos(xi x): (cos(xi(x+h)) - cos(xi x))/h, exactly
    g = _grid(n_x=32)
    x = g.coordinate_mesh()[1]
    xi = 2.0 * np.pi * 3 / g.l_x[0]
    u = Field(g, np.broadcast_to(np.cos(xi * x), g.shape))
    h = g.h[0]
    expected = (np.cos(xi * (x + h)) - np.cos(xi * x)) / h
    got = gradient_plus(u).components[0]
    assert np.allclose(got.data, np.broadcast_to(expected, g.shape), atol=1e-12)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
def test_summation_by_parts(seed, d):
    """inner(D+ u, v) = -inner(u, D- v) for every discrete pair."""
    g = _grid(d=d, n_t=8, n_x=8)
    u = _rand(g, seed)
    v = _rand_vector(g, seed + 1)
    lhs = sum(
        inner(gradient_plus(u).components[i], v.components[i]) for i in range(d)
    )
    rhs = -inner(u, divergence_minus(v))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_operator_eigenvalue_on_single_mode():
    g = _grid(n_x=64)
    x = g.coordinate_mesh()[1]
    xi = 2.0 * np.pi * 5 / g.l_x[0]
    h = g.h[0]
    u = Field(g, np.broadcast_to(np.cos(xi * x), g.shape))
    lam = 0.7
    out = apply_operator(identity_coefficients(g), lam, u)
    # time-independent mode: the operator reduces to the discrete Laplacian
    eig = 2.0 * (1.0 - np.cos(xi * h)) / h**2
    assert np.allclose(out.data, (eig + lam) * u.data, atol=1e-10)


def test_operator_is_affine_in_lambda():
    g = _grid()
    u = _rand(g, 3)
    a = generate_coefficients(kind="smooth", delta=0.5, seed=1, grid=g)
    base = apply_operator(a, 0.0, u)
    shifted = apply_operator(a, 2.5, u)
    assert np.allclose(shifted.data - base.data, 2.5 * u.data, atol=1e-12)
    with pytest.raises(ValueError, match="lambda"):
        apply_operator(a, -1.0, u)


def test_matrix_gradient_matches_manual_contraction():
    g = _grid(d=2, n_t=8, n_x=8)
    a = generate_coefficients(kind="constant", delta=0.5, seed=4, grid=g)
    u = _rand(g, 5)
    grad = gradient_plus(u)
    flux = matrix_gradient(a, u)
    for i in range(2):
        manual = sum(a.data[i, j] * grad.components[j].data for j in range(2))
        assert np.allclose(flux.components[i].data, manual, atol=1e-13)


def test_data_bundle_invariants():
    g = _grid()
    h = _rand(g, 0)
    gv = _rand_vector(g, 1)
    f = _rand(g, 2)
    with pytest.raises(ValueError, match="lambda = 0 requires f"):
        DataBundle(h=h, g=gv, f=f, lam=0.0)
    DataBundle(h=h, g=gv, f=zeros(g), lam=0.0)  # fine
    with pytest.raises(ValueError, match="lambda"):
        DataBundle(h=h, g=gv, f=f, lam=-0.5)
    other = make_grid(d=1, n_t=16, n_x=16, l_t=4.0, l_x=2.0)
    with pytest.raises(ValueError, match="share one grid"):
        DataBundle(h=_rand(other, 0), g=gv, f=f, lam=1.0)


def test_apply_rhs_is_the_sum_of_its_parts():
    from halfheat import half_derivative

    g = _grid()
    data = DataBundle(h=_rand(g, 6), g=_rand_vector(g, 7), f=_rand(g, 8), lam=1.0)
    expected = (
        half_derivative(data.h).data
        + divergence_minus(data.g).data
        + data.f.data
    )
    assert np.array_equal(apply_rhs(data).data, expected)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_manufactured_data_has_zero_residual(seed):
    g = _grid(n_t=16, n_x=16)
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=seed, grid=g)
    u = _rand(g, seed)
    data = manufacture_data(a, 1.5, u)
    res = residual(a, data, u)
    scale = lp_norm(apply_rhs(data), 2.0)
    assert lp_norm(res, 2.0) <= 1e-11 * max(scale, 1.0)


def test_solution_bundle_components():
    from halfheat import half_derivative

    g = _grid()
    u = _rand(g, 9)
    lam = 4.0
    comps = [
        half_derivative(u).data,
        *(c.data for c in gradient_plus(u).components),
        np.sqrt(lam) * u.data,
    ]
    assert len(comps) == g.d + 2
    assert np.allclose(comps[0], half_derivative(u).data)
    assert np.allclose(comps[1], gradient_plus(u).components[0].data)
    assert np.allclose(comps[-1], 2.0 * u.data)  # sqrt(lambda) = 2


def test_reduction_to_identity_is_exact():
    """Folding (a - I) D+ u into g leaves the residual of any field, not just
    solutions, byte-close to the original."""
    g = _grid(d=2, n_t=8, n_x=8)
    a = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=2, grid=g)
    u = _rand(g, 10)
    data = manufacture_data(a, 2.0, u)
    ident, reduced = reduce_to_identity(a, data, u)
    assert ident.tag == "constant"
    assert np.array_equal(ident.constant_matrix(), np.eye(2))
    r_orig = residual(a, data, u)
    r_new = residual(ident, reduced, u)
    scale = lp_norm(apply_rhs(data), 2.0)
    assert lp_norm(Field(g, r_new.data - r_orig.data), 2.0) <= 1e-12 * scale


def test_reduction_formula_in_one_dimension():
    g = _grid()
    a = generate_coefficients(kind="smooth", delta=0.5, seed=11, grid=g)
    u = _rand(g, 12)
    data = manufacture_data(a, 1.0, u)
    _, reduced = reduce_to_identity(a, data, u)
    expected = data.g.components[0].data + (a.data[0, 0] - 1.0) * (
        gradient_plus(u).components[0].data
    )
    assert np.allclose(reduced.g.components[0].data, expected, atol=1e-13)
    assert np.array_equal(reduced.h.data, data.h.data)
    assert np.array_equal(reduced.f.data, data.f.data)


# ---------------------------------------------------------------------------
# fast kernels against the forms they replaced


def _roll_gradient(grid, u):
    return np.stack([(np.roll(u, -1, axis=1 + i) - u) / grid.h[i] for i in range(grid.d)])


def _roll_divergence(grid, v):
    total = np.zeros(grid.shape)
    for i in range(grid.d):
        total += (v[i] - np.roll(v[i], 1, axis=1 + i)) / grid.h[i]
    return total


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n_x", [(24,), (16, 10), (8, 12, 10)], ids=["d1", "d2", "d3"])
def test_flat_shift_differences_match_the_roll_forms(n_x):
    d = len(n_x)
    g = make_grid(d=d, n_t=8, n_x=n_x, l_t=2.0, l_x=[2.0, 3.0, 5.0][:d])
    rng = np.random.default_rng(d)
    u = rng.standard_normal(g.shape)
    v = rng.standard_normal((d, *g.shape))
    # signed zeros: -0.0 - 0.0 = -0.0 along the last axis, which the roll
    # form's divergence turns into +0.0 by adding it to zeros
    u.reshape(-1)[::5] = 0.0
    u.reshape(-1)[1::5] = -0.0
    v.reshape(d, -1)[:, ::7] = 0.0
    v.reshape(d, -1)[:, 1::7] = -0.0
    assert _same_bits(_gradient(g, u), _roll_gradient(g, u))
    assert _same_bits(_divergence(g, v), _roll_divergence(g, v))
    # the kernels read non-contiguous samples too
    assert _same_bits(_gradient(g, np.asfortranarray(u)), _roll_gradient(g, u))
    assert _same_bits(_divergence(g, list(np.asfortranarray(v))), _roll_divergence(g, v))


def test_one_dimensional_flux_is_the_einsum_product():
    g = _grid()
    a = generate_coefficients(kind="time_piecewise", delta=0.5, seed=1, grid=g).data
    grad = _gradient(g, _rand(g, 3).data)
    assert np.array_equal(_flux(a, grad), np.einsum("ij...,j...->i...", a, grad))


@pytest.mark.parametrize("d", [1, 2])
def test_operator_parts_match_the_separate_kernels(d):
    """A u with D_t^{1/2}u from its time spectrum gives the bytes of A u alone
    and of the half derivative alone, and the slots built on that half
    derivative are the slots built from u."""
    g = _grid(d=d, n_t=16, n_x=8)
    a = generate_coefficients(kind="smooth", delta=0.5, seed=2, grid=g)
    u = _rand(g, 4).data
    half_symbol = time_symbol(g, "half_derivative")
    applied, half = _operator(a, 2.0, u, half_symbol)
    (alone,) = _operator(a, 2.0, u)
    assert applied.tobytes() == alone.tobytes()
    assert half.tobytes() == _time_multiplier(u, half_symbol).tobytes()
    parts = _solution_parts(g, u, 2.0, half)
    assert parts[0] is half and len(parts) == d + 2
    for part, expected in zip(parts, _solution_parts(g, u, 2.0)):
        assert part.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "time_piecewise", "x1_piecewise"])
def test_compact_coefficients_apply_bit_for_bit_as_the_full_grid(kind, d):
    # a general tag stores every sample, so it is the full-grid path
    g = _grid(d=d, n_t=16, n_x=8)
    a = generate_coefficients(kind=kind, delta=0.25, seed=3, grid=g)
    full = Coefficients(
        grid=g,
        data=np.broadcast_to(a.data, (d, d, *g.shape)).copy(),
        tag="general",
        ellipticity=a.ellipticity,
    )
    assert a.data.size < full.data.size
    u = _rand(g, 5).data
    assert _operator(a, 2.0, u)[0].tobytes() == _operator(full, 2.0, u)[0].tobytes()
    half = time_symbol(g, "half_derivative")
    compact, _ = _operator(a, 2.0, u, half)
    reference, _ = _operator(full, 2.0, u, half)
    assert compact.tobytes() == reference.tobytes()
    grad = _gradient(g, u)
    assert _flux(a.data, grad).tobytes() == _flux(full.data, grad).tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "time_piecewise", "x1_piecewise", "smooth"])
def test_operator_assembles_the_bytes_of_the_expression(kind, d):
    """_operator subtracts the divergence from the time term and adds lam*u
    in place: the bytes of time_term - div + lam*u, on compact and full-grid
    (smooth) coefficients."""
    g = _grid(d=d, n_t=16, n_x=8)
    a = generate_coefficients(kind=kind, delta=0.25, seed=4, grid=g)
    assert (a.data.shape[2:] == g.shape) == (kind == "smooth")
    u = _rand(g, 6).data
    time_term = _time_multiplier(u, time_symbol(g, "time_derivative"))
    div = _divergence(g, _flux(a.data, _gradient(g, u)))
    for lam in (0.0, 2.0):
        expected = time_term - div + lam * u
        assert _operator(a, lam, u)[0].tobytes() == expected.tobytes()


def _transient(fn, *args):
    """(traced peak of fn(*args) above the memory before the call) minus
    (what its results still hold), in full-grid float64 arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return (peak - held) / args[-1].nbytes, (peak - base) / args[-1].nbytes


@pytest.mark.parametrize(
    "d, n_t, n_x, operator_peak",
    [
        pytest.param(1, 256, 128, 4.01, id="1-128"),
        pytest.param(2, 32, 32, 5.26, id="2-32"),
        pytest.param(1, 1024, 128, 4.00, id="1-1024x128"),
    ],
)
def test_operator_parts_transient_stays_within_the_operators(d, n_t, n_x, operator_peak):
    """A u alone peaks at or below the arrays it took when the time term came
    before the divergence (operator_peak, measured so): the divergence is
    taken first, so the gradient and the flux are not alive beside the
    spectrum's products, and at 1024 x 128 (1 MB arrays) the spectrum dies
    before A u is copied to C order.  solver._check, A u with its slots,
    peaks at most d + 3.1 arrays."""
    g = _grid(d=d, n_t=n_t, n_x=n_x)
    a = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=5, grid=g)
    u = _rand(g, 7).data
    b = _rand(g, 8).data
    _check(a, 1.0, u, b)  # the symbol tables are cached outside the count
    assert _transient(_operator, a, 1.0, u)[1] <= operator_peak
    # the results are r and the d + 2 slots, d + 3 arrays; the gradient and
    # sqrt(lambda) u are made once A u's spectrum is gone
    assert _transient(_check, a, 1.0, u, b)[1] <= d + 2 + 1.1


def test_rhs_is_computed_once_per_bundle():
    g = _grid()
    data = DataBundle(h=_rand(g, 6), g=_rand_vector(g, 7), f=_rand(g, 8), lam=1.0)
    rhs = _rhs(data)
    assert _rhs(data) is rhs
    assert not rhs.flags.writeable
    assert apply_rhs(data).data is rhs
    changed = replace(data, g=_rand_vector(g, 9))
    fresh = _rhs(changed)
    assert fresh is not rhs
    rebuilt = DataBundle(h=changed.h, g=changed.g, f=changed.f, lam=1.0)
    assert np.array_equal(fresh, _rhs(rebuilt))
