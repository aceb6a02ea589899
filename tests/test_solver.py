"""Weak forms, the twisted test function, and the two solve routes.

Hand-computed anchors, all on the period-2*pi time axis:

* u = phi = sin(omega t), a = I: the time term of the weak pairing vanishes
  (skew), the gradient vanishes (no spatial dependence), so the pairing is
  lam * ||u||_2^2.
* the same u tested against u - kappa*H(u) adds kappa * omega * ||u||_2^2,
  because H(sin) = -cos and -<H(D^{1/2}u), D^{1/2}(-cos)> = omega <sin, sin>.
* for a = I the mode quotient (|tau| + |sigma|^2 + lam)/|i tau + |sigma|^2 + lam|
  is at most sqrt(2), attained as |tau| approaches |sigma|^2 + lam.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

import halfheat.solver as solver_module
from halfheat import (
    ExperimentConfig,
    DataBundle,
    Field,
    SolverOptions,
    VectorField,
    apply_operator,
    apply_rhs,
    coefficients_from_matrix,
    compute_bundles,
    duality_defect,
    generate_coefficients,
    gradient_plus,
    half_derivative,
    identity_coefficients,
    inner,
    lp_norm,
    make_grid,
    manufacture_data,
    multiplier_bound,
    solve,
    solve_oracle,
    time_symbol,
    twisted_pairing,
    weak_pairing,
    zeros,
)
from halfheat.experiments import _localized_bundle, harmonic_bundle
from halfheat.grid import _magnitude
from halfheat.operators import (
    _data_parts,
    _divergence,
    _flux,
    _gradient,
    _operator,
    _rhs,
    _solution_parts,
)
from halfheat.oscillation import Cylinder, bundle_oscillation
from halfheat.timeops import _half_spectrum, _time_multiplier


def _grid(d=1, n_t=32, n_x=32, l_t=2.0 * np.pi, l_x=2.0):
    return make_grid(d=d, n_t=n_t, n_x=n_x, l_t=l_t, l_x=l_x)


def _rand(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


def _band_limited_bundle(grid, seed, lam):
    rng = np.random.default_rng(seed)

    def smooth():
        spec = np.fft.fftn(rng.standard_normal(grid.shape))
        for axis, n in enumerate(grid.shape):
            k = np.abs(np.rint(np.fft.fftfreq(n) * n).astype(int))
            keep = k <= n // 4
            view = [1] * len(grid.shape)
            view[axis] = n
            spec = spec * keep.reshape(view)
        return Field(grid, np.fft.ifftn(spec).real)

    g = VectorField(tuple(smooth() for _ in range(grid.d)))
    f = smooth() if lam > 0 else zeros(grid)
    return DataBundle(h=smooth(), g=g, f=f, lam=lam)


def _sin_time_mode(grid, omega):
    t = grid.coordinate_mesh()[0]
    return Field(grid, np.broadcast_to(np.sin(omega * t), grid.shape))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weak_pairing_equals_strong_pairing(seed):
    g = _grid(n_t=16, n_x=16)
    a = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=seed, grid=g)
    u, phi = _rand(g, seed), _rand(g, seed + 1)
    weak = weak_pairing(a, 0.8, u, phi)
    strong = inner(apply_operator(a, 0.8, u), phi)
    assert weak == pytest.approx(strong, abs=1e-9)


def test_weak_pairing_frozen_value():
    g = _grid()
    u = _sin_time_mode(g, 3)
    lam = 1.7
    norm_sq = lp_norm(u, 2.0) ** 2
    assert norm_sq == pytest.approx(np.pi * 2.0, rel=1e-12)  # l_t/2 * l_x
    pairing = weak_pairing(identity_coefficients(g), lam, u, u)
    assert pairing == pytest.approx(lam * norm_sq, rel=1e-12)


def test_twisted_pairing_frozen_value():
    g = _grid()
    omega, lam, kappa = 3, 1.7, 0.4
    u = _sin_time_mode(g, omega)
    norm_sq = lp_norm(u, 2.0) ** 2
    got = twisted_pairing(identity_coefficients(g), lam, kappa, u, u)
    assert got == pytest.approx((lam + kappa * omega) * norm_sq, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0]))
def test_coercivity_at_kappa_delta_sq_half(seed, delta):
    """B_kappa[u, u] >= (delta^2/2) ||U||_2^2 at kappa = delta^2/2, for every
    real field: the u_t and Hilbert diagonal terms vanish exactly on the
    lattice, so the continuum chain has no discretization slack."""
    g = _grid(n_t=16, n_x=16)
    a = generate_coefficients(kind="checkerboard", delta=delta, seed=seed, grid=g,
                              roughness_scale=0.5 * (1 - delta)) if delta < 1 else (
        identity_coefficients(g)
    )
    u = _rand(g, seed)
    lam = (0.0, 0.7, 3.0)[seed % 3]
    kappa = delta**2 / 2.0
    lhs = twisted_pairing(a, lam, kappa, u, u)
    slots = [
        half_derivative(u).data,
        *(c.data for c in gradient_plus(u).components),
        np.sqrt(lam) * u.data,
    ]
    energy = sum(float(np.sum(c * c)) for c in slots)
    energy *= float(np.prod([g.dt, *g.h]))
    assert lhs >= (delta**2 / 2.0 - 1e-10) * energy


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_duality_skewness(seed):
    g = _grid(n_t=16, n_x=16)
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=seed, grid=g)
    u, v = _rand(g, seed), _rand(g, seed + 1)
    scale = lp_norm(u, 2.0) * lp_norm(v, 2.0)
    assert duality_defect(a, 1.3, u, v) <= 1e-12 * max(scale, 1.0)


def test_oracle_inverts_the_operator():
    g = _grid(n_t=32, n_x=32)
    a = generate_coefficients(kind="constant", delta=0.5, seed=1, grid=g)
    data = _band_limited_bundle(g, 2, lam=1.0)
    result = solve_oracle(a, data)
    assert result.converged
    assert result.iterations == 0
    assert result.final_relative_residual <= 1e-11
    res = apply_operator(a, 1.0, result.u).data - apply_rhs(data).data
    rel = np.linalg.norm(res) / np.linalg.norm(apply_rhs(data).data)
    assert rel <= 1e-11


def test_oracle_single_mode_magnitude():
    # |u-hat / h-hat| = sqrt(omega) / sqrt(omega^2 + lam^2) for h = cos(omega t)
    g = _grid(n_t=64, n_x=8, l_x=1.0)
    omega, lam = 3.0, 2.0
    t = g.coordinate_mesh()[0]
    h = Field(g, np.broadcast_to(np.cos(omega * t), g.shape))
    data = DataBundle(
        h=h, g=VectorField((zeros(g),)), f=zeros(g), lam=lam
    )
    result = solve_oracle(identity_coefficients(g), data)
    expected = np.sqrt(omega) / np.sqrt(omega**2 + lam**2)
    ratio = lp_norm(result.u, 2.0) / lp_norm(h, 2.0)
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_oracle_handles_lambda_zero():
    g = _grid(n_t=32, n_x=32)
    data = _band_limited_bundle(g, 3, lam=0.0)
    result = solve_oracle(identity_coefficients(g), data)
    assert result.converged
    assert result.final_relative_residual <= 1e-10
    # the non-invertible slots stay empty
    u_hat = np.fft.fftn(result.u.data)
    assert abs(u_hat[0, 0]) <= 1e-9
    assert abs(u_hat[g.n_t // 2, 0]) <= 1e-9


def _full_symbol(grid, matrix, lam):
    """The discrete operator symbol on the full spectrum, in FFT order:
    i*tau (Nyquist zeroed) + sum_ij a_ij conj(sigma_i) sigma_j + lambda."""
    tau = 2.0 * np.pi * np.fft.fftfreq(grid.n_t, d=grid.dt)
    tau[grid.n_t // 2] = 0.0
    xis = [2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(grid.n_x, grid.h)]
    mesh = np.meshgrid(tau, *xis, indexing="ij")
    sigmas = [(np.exp(1j * xi * h) - 1.0) / h for xi, h in zip(mesh[1:], grid.h)]
    quad = sum(
        matrix[i, j] * np.conj(sigmas[i]) * sigmas[j]
        for i in range(grid.d)
        for j in range(grid.d)
    )
    return 1j * mesh[0] + quad + lam


_FAST_PATH_GRIDS = {
    1: dict(d=1, n_t=32, n_x=32),
    2: dict(d=2, n_t=16, n_x=(16, 8)),
    3: dict(d=3, n_t=16, n_x=(8, 8, 10)),
}


@pytest.mark.parametrize("lam", [0.0, 1.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_oracle_matches_the_complex_path(d, lam):
    """The oracle divides on the rfftn half spectrum; dividing the full
    complex spectrum, written out here, gives the same solution to rounding."""
    g = _grid(**_FAST_PATH_GRIDS[d])
    a = generate_coefficients(kind="constant", delta=0.5, seed=d, grid=g)
    # white-noise data, so that every mode, Nyquist planes included, is live
    data = DataBundle(
        h=_rand(g, 10 * d),
        g=VectorField(tuple(_rand(g, 10 * d + 1 + i) for i in range(d))),
        f=_rand(g, 10 * d + 9) if lam > 0 else zeros(g),
        lam=lam,
    )
    denom = _full_symbol(g, a.constant_matrix(), lam)
    rhs_hat = np.fft.fftn(apply_rhs(data).data)
    live = np.abs(denom) > 0
    u_hat = np.zeros_like(rhs_hat)
    u_hat[live] = rhs_hat[live] / denom[live]
    slow = np.fft.ifftn(u_hat).real
    fast = solve_oracle(a, data).u.data
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@pytest.mark.parametrize("mode", ["zero", "time_nyquist"])
def test_oracle_rejects_weight_on_the_singular_modes(monkeypatch, mode):
    """At lambda = 0 the zero mode and the time-Nyquist mode at zero spatial
    frequency are not invertible; a right-hand side that puts weight on
    either is refused.  No valid DataBundle does, so the right-hand side is
    patched."""
    g = _grid(d=2, n_t=16, n_x=8)
    data = _band_limited_bundle(g, 4, lam=0.0)
    t = np.arange(g.n_t).reshape([g.n_t, 1, 1])
    stray = np.ones(g.shape) if mode == "zero" else np.broadcast_to((-1.0) ** t, g.shape)
    rhs = apply_rhs(data)
    monkeypatch.setattr(solver_module, "_rhs", lambda _: rhs.data + 0.1 * stray)
    with pytest.raises(ValueError, match="non-invertible"):
        solve_oracle(identity_coefficients(g), data)


def _capture_operators(monkeypatch, replace=None):
    """Record the matvecs solve() hands to LinearOperator, by function name;
    `replace` swaps in other functions for some names."""
    real = solver_module.LinearOperator
    seen = {}

    def spy(*args, matvec, **kwargs):
        seen[matvec.__name__] = matvec
        matvec = (replace or {}).get(matvec.__name__, matvec)
        return real(*args, matvec=matvec, **kwargs)

    monkeypatch.setattr(solver_module, "LinearOperator", spy)
    return seen


@pytest.mark.parametrize("d", [1, 2, 3])
def test_preconditioner_matches_the_complex_path(monkeypatch, d):
    """The constant_mean preconditioner runs on the rfftn half spectrum.
    Against the full complex spectrum, written out here, it agrees to
    rounding per application, and GMRES at a fixed rtol takes the same
    number of iterations to the same solution."""
    g = _grid(**_FAST_PATH_GRIDS[d])
    # tag "general": the same array and operator, but the GMRES path rather
    # than the exact x1 solve
    x1 = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=d, grid=g)
    a = dataclasses.replace(x1, tag="general")
    data = _band_limited_bundle(g, 20 + d, lam=1.0)
    denom = _full_symbol(g, a.mean_matrix(), 1.0)

    def psolve(x):
        return np.fft.ifftn(np.fft.fftn(x.reshape(g.shape)) / denom).real.ravel()

    options = SolverOptions(rtol=1e-10)
    seen = _capture_operators(monkeypatch)
    fast = solve(a, data, options)
    x = np.random.default_rng(d).standard_normal(g.sample_count)
    got, want = seen["psolve"](x), psolve(x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    monkeypatch.undo()
    _capture_operators(monkeypatch, replace={"psolve": psolve})
    slow = solve(a, data, options)
    assert fast.converged and slow.converged
    assert fast.iterations == slow.iterations
    diff = np.max(np.abs(fast.u.data - slow.u.data))
    assert diff <= 1e-12 * np.max(np.abs(slow.u.data))


@pytest.mark.parametrize("l_t", [3.0, 0.7])
def test_operator_symbol_takes_the_applied_time_table(l_t):
    """The oracle and constant_mean divide by the symbol of the operator that
    apply_operator applies: on the zero spatial mode its imaginary part is
    time_symbol's time-derivative table, bit for bit, also at a period where
    2*pi*fftfreq(n_t, dt) rounds differently from 2*pi*k/l_t."""
    g = make_grid(d=2, n_t=64, n_x=16, l_t=l_t, l_x=2.0)
    symbol = solver_module._operator_symbol(g, np.eye(2), 1.0)
    table = time_symbol(g, "time_derivative").values.imag
    assert np.array_equal(symbol[:, 0, 0].imag, table)


@pytest.mark.parametrize("kind, d", [("smooth", 1), ("checkerboard", 2)])
def test_linear_operator_matches_scipys(monkeypatch, kind, d):
    """solve()'s LinearOperator keeps scipy's call convention and calls its
    closure directly: with scipy.sparse.linalg.LinearOperator in its place, a
    general-tag solve gives the same bits."""
    g = _grid(**_FAST_PATH_GRIDS[d])
    a = generate_coefficients(
        kind=kind, delta=0.25, seed=d, grid=g, roughness_scale=_ROUGH.get(kind)
    )
    assert a.tag == "general"
    data = _white_bundle(g, 30 + d, 1.0)
    ours = solve(a, data)
    monkeypatch.setattr(solver_module, "LinearOperator", LinearOperator)
    seen = _capture_operators(monkeypatch)
    theirs = solve(a, data)
    assert set(seen) == {"matvec", "psolve"}
    assert ours.method == theirs.method == "gmres" and ours.converged
    assert ours.iterations > 0
    assert np.array_equal(ours.u.data, theirs.u.data)
    assert ours.iterations == theirs.iterations
    assert ours.residual_history == theirs.residual_history
    assert ours.matvecs == theirs.matvecs


def test_direct_solve_builds_no_preconditioner(monkeypatch):
    """The constant_mean symbol and both LinearOperators are built only when
    GMRES runs; an x1 solve that the direct path finishes builds none."""
    g = _grid(**_FAST_PATH_GRIDS[2])
    a = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=2, grid=g)
    data = _band_limited_bundle(g, 22, lam=1.0)
    real_symbol = solver_module._operator_symbol
    symbols = []

    def symbol_spy(*args):
        symbols.append(args)
        return real_symbol(*args)

    monkeypatch.setattr(solver_module, "_operator_symbol", symbol_spy)
    seen = _capture_operators(monkeypatch)
    assert solve(a, data).iterations == 0
    assert symbols == [] and seen == {}
    assert solve(dataclasses.replace(a, tag="general"), data).iterations > 0
    assert len(symbols) == 1 and set(seen) == {"matvec", "psolve"}


def _white_bundle(grid, seed, lam):
    """White-noise data: every mode, Nyquist planes included, is live."""
    return DataBundle(
        h=_rand(grid, seed),
        g=VectorField(tuple(_rand(grid, seed + 1 + i) for i in range(grid.d))),
        f=_rand(grid, seed + 9),
        lam=lam,
    )


def test_physical_gmres_matvec_builds_no_field(monkeypatch):
    """The physical-frame matvec and the true-residual recomputations run on
    raw arrays: a checkerboard solve builds as many Fields at two iteration
    budgets, so no GMRES iteration builds one."""
    g = _grid(d=2, n_t=16, n_x=8)
    a = generate_coefficients(
        kind="checkerboard", delta=0.25, seed=1, grid=g, roughness_scale=0.5
    )
    data = _white_bundle(g, 50, 1.0)
    real_init = Field.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counting_init)
    counts, iterations = [], []
    for budget in (2, 8):
        built.clear()
        result = solve(a, data, SolverOptions(max_iterations=budget, restart=budget))
        assert result.method == "gmres" and not result.converged
        counts.append(len(built))
        iterations.append(result.iterations)
    assert iterations[0] < iterations[1]
    assert counts[0] == counts[1]


def _rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _t_direct(coeffs, lam, rhs):
    """Dense per-mode reference solve for coefficients that vary in t only.

    After rfftn over the spatial axes the operator is diagonal in xi, and each
    spatial mode leaves the dense n_t x n_t system

        (C + diag(q_xi(t)) + lam) v = f_xi,   q_xi(t) = sum_ij a_ij(t) conj(sigma_i) sigma_j,

    with C the real circulant of the time_derivative table apply_operator uses
    (Nyquist zeroed) and sigma_j the forward-difference symbols.  Each mode
    that carries data is LU-solved on its own (in d = 1 the system is real);
    the others, data at rounding level included, are zero."""
    grid = coeffs.grid
    d, n_t = grid.d, grid.n_t
    spatial = tuple(range(1, d + 1))
    # C[m, k] = c[m - k]: convolution with the inverse transform of i*tau
    kernel = np.fft.irfft(time_symbol(grid, "time_derivative").values[: n_t // 2 + 1], n=n_t)
    spec = np.fft.rfftn(rhs, axes=spatial).reshape(n_t, -1)
    quad = solver_module._q_table(grid, coeffs.data.reshape(d, d, n_t))
    u_hat = np.zeros((spec.shape[1], n_t), dtype=complex)
    size = np.max(np.abs(spec), axis=0)
    for mode in np.flatnonzero(size > 1e-13 * np.max(size)):
        f, diagonal = spec[:, mode], lam + quad[mode]
        real = not diagonal.imag.any()  # q_xi = a_11(t) |sigma_1|^2 in d = 1
        system = scipy.linalg.circulant(kernel if real else kernel + 0j)
        system.flat[:: n_t + 1] += diagonal.real if real else diagonal
        if real:  # one real LU serves the real and imaginary parts of f
            parts = scipy.linalg.solve(system, np.column_stack((f.real, f.imag)), overwrite_a=True)
            u_hat[mode] = parts[:, 0] + 1j * parts[:, 1]
        else:
            u_hat[mode] = scipy.linalg.solve(system, f, overwrite_a=True)
    u_hat = u_hat.T.reshape(solver_module._half_shape(grid))
    return np.fft.irfftn(u_hat, s=grid.n_x, axes=spatial)


@pytest.mark.parametrize("lam", [0.5, 16.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_x1_direct_solve_matches_gmres_and_the_oracle(monkeypatch, d, lam):
    """x1-measurable coefficients are solved exactly by FFT in (t, x') and a
    cyclic tridiagonal sweep along x1: no GMRES iteration, a residual at
    rounding level, the GMRES solution of the same operator (tag "general"),
    and the oracle's on a constant matrix tagged x1_measurable.  A spoiled
    direct guess is finished by physical-frame GMRES, never accepted."""
    g = _grid(**_FAST_PATH_GRIDS[d])
    data = _white_bundle(g, 30 + d, lam)
    a = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=d, grid=g)
    assert a.tag == "x1_measurable"
    if d >= 2:  # the mixed a_ij terms carry a skew part
        assert np.max(np.abs(a.data - np.swapaxes(a.data, 0, 1))) > 0.1

    direct = solve(a, data)
    assert direct.converged and direct.method == "x1_direct"
    assert direct.iterations == 0 and direct.residual_history == ()
    assert direct.final_relative_residual <= 1e-12
    gmres = solve(dataclasses.replace(a, tag="general"), data, SolverOptions(rtol=1e-12))
    assert gmres.converged and gmres.iterations > 0 and gmres.method == "gmres"
    assert _rel_diff(direct.u.data, gmres.u.data) <= 1e-10

    constant = generate_coefficients(kind="constant", delta=0.25, seed=d, grid=g)
    tagged = coefficients_from_matrix(g, constant.constant_matrix(), 0.25, tag="x1_measurable")
    flat = solve(tagged, data)
    assert flat.iterations == 0
    assert _rel_diff(flat.u.data, solve_oracle(constant, data).u.data) <= 1e-12

    exact = solver_module._x1_direct
    noise = np.random.default_rng(d).standard_normal(g.shape)
    monkeypatch.setattr(
        solver_module, "_x1_direct", lambda *args: exact(*args) * (1.0 + 1e-3 * noise)
    )
    finished = solve(a, data)
    assert finished.converged and finished.iterations > 0 and finished.method == "gmres"
    assert finished.final_relative_residual <= SolverOptions().rtol
    assert _rel_diff(finished.u.data, direct.u.data) <= 1e-7


@pytest.mark.parametrize("lam", [0.5, 16.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_t_direct_solve_matches_gmres_and_the_oracle(d, lam):
    """Time-measurable coefficients, solved by GMRES in the (t, xi) frame at
    rtol 1e-12, agree with the dense per-mode reference _t_direct and with
    physical-frame GMRES (tag "general") to 1e-10 relative.  A constant
    matrix tagged time_measurable converges in one iteration (every mode's
    operator is the identity) to the oracle's solution."""
    g = _grid(**_FAST_PATH_GRIDS[d])
    data = _white_bundle(g, 30 + d, lam)
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=d, grid=g)
    assert a.tag == "time_measurable"
    if d >= 2:  # the mixed a_ij terms carry a skew part
        assert np.max(np.abs(a.data - np.swapaxes(a.data, 0, 1))) > 0.1

    options = SolverOptions(rtol=1e-12)
    frame = solve(a, data, options)
    assert frame.converged and frame.method == "t_frame_gmres"
    assert frame.final_relative_residual <= options.rtol
    reference = _t_direct(a, lam, apply_rhs(data).data)
    assert _rel_diff(frame.u.data, reference) <= 1e-10
    physical = solve(dataclasses.replace(a, tag="general"), data, options)
    assert physical.converged and physical.method == "gmres"
    assert _rel_diff(frame.u.data, physical.u.data) <= 1e-10

    constant = generate_coefficients(kind="constant", delta=0.25, seed=d, grid=g)
    tagged = coefficients_from_matrix(g, constant.constant_matrix(), 0.25, tag="time_measurable")
    flat = solve(tagged, data)
    assert flat.method == "t_frame_gmres" and flat.iterations == 1
    assert flat.final_relative_residual <= 1e-12
    assert _rel_diff(flat.u.data, solve_oracle(constant, data).u.data) <= 1e-12


@pytest.mark.parametrize(
    "grid",
    [
        dict(d=1, n_t=4096, n_x=8),
        dict(d=2, n_t=1024, n_x=(8, 8)),
        dict(d=3, n_t=256, n_x=(8, 8, 8)),
    ],
    ids=["d1_4096", "d2_1024", "d3_256"],
)
def test_t_frame_gmres_matches_the_dense_reference_on_long_time_axes(grid):
    """On long time axes, with data on the spatial modes of cos(2 pi x1 / l_1)
    only (so that the reference LU-solves two systems at most), frame GMRES
    at rtol 1e-12 agrees with _t_direct to 1e-10 relative."""
    g = _grid(**grid)
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=g.d, grid=g)
    t, x1 = g.coordinate_mesh()[:2]
    noise = np.random.default_rng(g.d).standard_normal(g.n_t).reshape([g.n_t] + [1] * g.d)
    f = Field(g, np.broadcast_to((1.0 + noise) * np.cos(2.0 * np.pi * x1 / g.l_x[0]), g.shape))
    empty = VectorField(tuple(zeros(g) for _ in range(g.d)))
    lam = 0.5 if g.d == 1 else 16.0
    data = DataBundle(h=zeros(g), g=empty, f=f, lam=lam)
    frame = solve(a, data, SolverOptions(rtol=1e-12))
    assert frame.converged and frame.method == "t_frame_gmres"
    assert _rel_diff(frame.u.data, _t_direct(a, lam, apply_rhs(data).data)) <= 1e-10


@pytest.mark.parametrize(
    "grid",
    [
        # criterion 8's grid
        dict(d=1, n_t=4096, n_x=512, l_t=4.0, l_x=4.0),
        dict(d=1, n_t=128, n_x=128),
    ],
    ids=["oscillation", "d1_128"],
)
def test_long_time_axes_run_frame_gmres(monkeypatch, grid):
    """Time-measurable coefficients run GMRES in the (t, xi) frame, which
    builds no physical-frame LinearOperator."""
    g = _grid(**grid)
    a = generate_coefficients(kind="time_piecewise", delta=0.5, seed=1, grid=g)
    t = g.coordinate_mesh()[0]
    f = Field(g, np.broadcast_to(np.cos(2.0 * np.pi * t / g.l_t), g.shape))
    data = DataBundle(h=zeros(g), g=VectorField((zeros(g),)), f=f, lam=1.0)
    seen = _capture_operators(monkeypatch)
    # one GMRES iteration shows the route; convergence is not the point here
    result = solve(a, data, SolverOptions(max_iterations=1, restart=1))
    assert result.iterations == 1
    assert result.method == "t_frame_gmres"
    assert seen == {}


# grids with longer time axes, for the (t, xi) frame
_FRAME_GRIDS = {
    1: dict(d=1, n_t=128, n_x=32),
    2: dict(d=2, n_t=136, n_x=(16, 8)),
    3: dict(d=3, n_t=160, n_x=(8, 8, 10)),
}


@pytest.mark.parametrize("lam", [0.5, 16.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_t_frame_gmres_matches_physical_gmres(d, lam):
    """GMRES in the (t, xi) frame solves the operator that physical-frame
    GMRES (tag "general") solves, to 1e-10 relative at rtol 1e-12, in at most
    two more batched steps than the physical iterations."""
    g = _grid(**_FRAME_GRIDS[d])
    data = _white_bundle(g, 50 + d, lam)
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=d, grid=g)
    if d >= 2:  # the mixed a_ij terms carry a skew part
        assert np.max(np.abs(a.data - np.swapaxes(a.data, 0, 1))) > 0.1
    options = SolverOptions(rtol=1e-12)
    frame = solve(a, data, options)
    physical = solve(dataclasses.replace(a, tag="general"), data, options)
    assert frame.method == "t_frame_gmres" and physical.method == "gmres"
    assert frame.converged and physical.converged
    assert frame.final_relative_residual <= options.rtol
    assert frame.iterations <= physical.iterations + 2
    assert _rel_diff(frame.u.data, physical.u.data) <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_t_frame_is_an_isometry_carrying_the_operator(d):
    """The frame map keeps the Euclidean norm and inverts exactly, and the
    frame's A P^{-1} of y is the physical operator applied to the field of
    P^{-1} y, on any block of rows."""
    g = _grid(**_FRAME_GRIDS[d])
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=d, grid=g)
    to_frame, from_frame, apply, precondition = solver_module._t_frame(a, 2.0)
    x = np.random.default_rng(d).standard_normal(g.shape)
    y = to_frame(x)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-13 * np.linalg.norm(x)
    assert np.max(np.abs(from_frame(y) - x)) <= 1e-13 * np.max(np.abs(x))
    rows = np.arange(len(y))
    field = Field(g, from_frame(precondition(y, rows)))
    want = to_frame(apply_operator(a, 2.0, field).data)
    assert np.max(np.abs(apply(y, rows) - want)) <= 1e-12 * np.max(np.abs(want))
    some = rows[1::3]
    assert np.array_equal(apply(y[some], some), apply(y, rows)[some])


def _zero_mode_bundle(grid, lam):
    """f = 1 + cos(2 pi t / l_t) cos(8 pi x1 / l_1): the zero mode, where the
    preconditioner symbol is i*tau + lam, carries most of the data."""
    t, x1 = grid.coordinate_mesh()[:2]
    wave = np.cos(2.0 * np.pi * t / grid.l_t) * np.cos(8.0 * np.pi * x1 / grid.l_x[0])
    f = Field(grid, np.broadcast_to(1.0 + wave, grid.shape))
    empty = VectorField(tuple(zeros(grid) for _ in range(grid.d)))
    return DataBundle(h=zeros(grid), g=empty, f=f, lam=lam)


@pytest.mark.parametrize("d, lam", [(1, 0.01), (1, 0.1), (2, 0.01)])
def test_frame_gmres_converges_when_the_zero_mode_carries_the_data(d, lam):
    """Small lambda and data mostly on the zero mode: a stop on the
    preconditioned residual leaves the physical one above rtol here with
    most of the budget unused.  The loop stops on true residuals, so the
    solve converges and its history ends at the reported residual."""
    g = _grid(**_FRAME_GRIDS[d])
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=0, grid=g)
    result = solve(a, _zero_mode_bundle(g, lam))
    assert result.method == "t_frame_gmres"
    assert result.converged and result.final_relative_residual <= SolverOptions().rtol
    assert result.residual_history[-1] == pytest.approx(result.final_relative_residual, rel=1e-3)


def _record_gmres(monkeypatch):
    """Record each gmres call: its apply, right-hand side, targets, keywords
    and result."""
    real = solver_module.gmres
    calls = []

    def recording(apply, b, targets, **kwargs):
        out = real(apply, b, targets, **kwargs)
        calls.append((apply, b, targets, kwargs, out))
        return out

    monkeypatch.setattr(solver_module, "gmres", recording)
    return calls


def _scipy_row(apply, b, targets, kwargs, row):
    """Row `row` of a gmres call rerun alone through scipy.sparse.linalg.gmres
    (unpreconditioned, so on the same A P^{-1}); returns the solution and
    the iteration count."""
    rows = np.array([row])
    operator = LinearOperator(
        (b.shape[1],) * 2, matvec=lambda v: apply(v[None].astype(b.dtype), rows)[0], dtype=b.dtype
    )
    history = []
    w, _ = scipy_gmres(
        operator,
        b[row],
        rtol=targets[row] / np.linalg.norm(b[row]),
        atol=0.0,
        restart=kwargs["restart"],
        maxiter=-(-kwargs["max_iterations"] // kwargs["restart"]),
        callback=history.append,
        callback_type="pr_norm",
    )
    return w, len(history)


# checkerboard needs its amplitude; time_piecewise draws its jump count
_ROUGH = {"checkerboard": 0.5, "time_piecewise": None}

_CROSS_CHECKS = {
    # physical frame: rough coefficients, several restart cycles
    "physical_d1": (dict(d=1, n_t=32, n_x=32), "checkerboard", "white"),
    "physical_d2": (dict(d=2, n_t=16, n_x=(8, 8)), "checkerboard", "white"),
    "physical_d3": (dict(d=3, n_t=16, n_x=(8, 8, 8)), "checkerboard", "white"),
    # (t, xi) frame: every iterated mode's row
    "frame_d1": (_FRAME_GRIDS[1], "time_piecewise", "zero_mode"),
    "frame_d2": (_FRAME_GRIDS[2], "time_piecewise", "zero_mode"),
}


@pytest.mark.parametrize("case", sorted(_CROSS_CHECKS))
def test_gmres_loop_matches_scipy_gmres(monkeypatch, case):
    """Each row that solve()'s gmres call iterated, rerun alone through
    scipy.sparse.linalg.gmres on the same A P^{-1}, right-hand side and
    restart, to the same relative tolerance, gives the same solution to
    within that tolerance in the same number of iterations, give or take
    one."""
    grid, kind, data_kind = _CROSS_CHECKS[case]
    g = _grid(**grid)
    a = generate_coefficients(kind=kind, delta=0.25, seed=g.d, grid=g, roughness_scale=_ROUGH[kind])
    data = _white_bundle(g, 70 + g.d, 1.0) if data_kind == "white" else _zero_mode_bundle(g, 1.0)
    calls = _record_gmres(monkeypatch)
    options = SolverOptions(rtol=1e-10, restart=4)
    result = solve(a, data, options)
    assert result.converged
    assert result.method == ("gmres" if kind == "checkerboard" else "t_frame_gmres")
    assert result.iterations > 2 * options.restart  # several restart cycles
    ((apply, b, targets, kwargs, (w, norms, _)),) = calls
    assert len(norms) == result.iterations
    iterated = np.flatnonzero(w.any(axis=1))
    # the frame iterates the zero mode and the x1 modes +-4 of the data, of
    # which the rfft half spectrum of d = 1 keeps one
    assert iterated.size == (1 if kind == "checkerboard" else g.d + 1)
    counts = []
    for row in iterated:
        reference, reference_iterations = _scipy_row(apply, b, targets, kwargs, row)
        assert _rel_diff(w[row], reference) <= targets[row] / np.linalg.norm(b[row])
        counts.append(reference_iterations)
    # the batched steps are the longest row's steps
    assert abs(len(norms) - max(counts)) <= 1


def test_rows_solved_together_equal_rows_solved_alone():
    """gmres on every mode of a frame system at once, with rows leaving the
    batch at different steps, gives each row the solution gmres gives it as
    a batch of one, to rounding."""
    g = _grid(**_FRAME_GRIDS[2])
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=2, grid=g)
    to_frame, _, apply, _ = solver_module._t_frame(a, 1.0)
    rhs = to_frame(apply_rhs(_white_bundle(g, 80, 1.0)).data)
    targets = solver_module._targets(rhs, 1e-10 * np.linalg.norm(rhs))
    options = dict(restart=6, max_iterations=500)
    together, norms, _ = solver_module.gmres(apply, rhs, targets, **options)
    lengths = []
    for row in range(len(rhs)):
        one = slice(row, row + 1)
        alone, steps, _ = solver_module.gmres(
            lambda block, _: apply(block, np.array([row])), rhs[one], targets[one], **options
        )
        assert np.max(np.abs(together[row] - alone[0])) <= 1e-13 * np.max(np.abs(rhs[row]))
        lengths.append(len(steps))
    assert len(set(lengths)) > 2  # the rows left the batch at different steps
    assert len(norms) == max(lengths)
    assert np.linalg.norm(rhs - apply(together, np.arange(len(rhs)))) <= np.linalg.norm(targets)


@pytest.mark.parametrize("restart", [6, 40])
def test_gmres_is_invariant_under_a_permutation_of_its_systems(restart):
    """gmres compacts its batch by moving live rows into stopped rows'
    places, so no row's arithmetic may depend on its place: the systems of
    a frame, shuffled, get the same solutions bit for bit in the same
    number of applies, while rows leave the batch at different steps and
    the compaction reorders them."""
    g = _grid(**_FRAME_GRIDS[2])
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=2, grid=g)
    to_frame, _, apply, _ = solver_module._t_frame(a, 1.0)
    rhs = to_frame(apply_rhs(_white_bundle(g, 80, 1.0)).data)
    targets = solver_module._targets(rhs, 1e-10 * np.linalg.norm(rhs))
    options = dict(restart=restart, max_iterations=500)
    batches = []

    def recording(block, rows):
        batches.append(rows.copy())
        return apply(block, rows)

    w, norms, matvecs = solver_module.gmres(recording, rhs, targets, **options)
    assert len({len(rows) for rows in batches}) > 2  # rows stopped at different steps
    assert any(np.any(np.diff(rows) < 0) for rows in batches)  # and were moved
    order = np.random.default_rng(restart).permutation(len(rhs))
    shuffled, shuffled_norms, shuffled_matvecs = solver_module.gmres(
        lambda block, rows: apply(block, order[rows]), rhs[order], targets[order], **options
    )
    assert np.array_equal(shuffled, w[order])
    assert shuffled_matvecs == matvecs
    # the history norms sum the rows' estimates in another order
    assert shuffled_norms == pytest.approx(norms, rel=1e-13)


def test_arnoldi_basis_stays_orthonormal():
    """Over one full cycle the batched Arnoldi basis of the frame operator
    I + (q - q_bar) P^{-1} is orthonormal per row to 1e-12 and carries the
    Arnoldi relation A P^{-1} V_k = V_{k+1} H.  Every new vector keeps most
    of the last one, so this needs the second Gram-Schmidt pass."""
    g = _grid(**_FRAME_GRIDS[1])
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=1, grid=g)
    _, _, apply, _ = solver_module._t_frame(a, 1.0)
    restart = SolverOptions().restart
    rows = np.array([1, 4, 9])  # modes where q varies in t
    start = np.random.default_rng(1).standard_normal((len(rows), g.n_t)) + 0j
    basis = np.empty((restart + 1, len(rows), g.n_t), dtype=complex)
    basis[0] = start / np.linalg.norm(start, axis=1, keepdims=True)
    hess = np.zeros((len(rows), restart + 1, restart), dtype=complex)
    for k in range(restart):
        hess[:, : k + 2, k], breakdown = solver_module._arnoldi_step(apply, basis, k, rows)
        assert not breakdown.any()
    for r, row in enumerate(rows):
        vectors = basis[:, r]
        gram = vectors.conj() @ vectors.T
        assert np.max(np.abs(gram - np.eye(restart + 1))) <= 1e-12
        image = apply(vectors[:restart], np.full(restart, row))
        assert np.max(np.abs(image - hess[r].T @ vectors)) <= 1e-12


def test_gmres_breakdown_returns_the_exact_solution():
    """Constant coefficients sent through frame GMRES make A P^{-1} = I
    exactly: the first Arnoldi step breaks down, and the one-column least
    squares problem is the exact solution, in one iteration.  Physical-frame
    GMRES, exactly preconditioned (the same matrix tagged general), stops in
    at most three."""
    g = _grid(**_FRAME_GRIDS[1])
    constant = generate_coefficients(kind="constant", delta=0.25, seed=1, grid=g)
    tagged = coefficients_from_matrix(g, constant.constant_matrix(), 0.25, tag="time_measurable")
    data = _white_bundle(g, 90, 1.0)
    oracle = solve_oracle(constant, data)
    _, _, apply, _ = solver_module._t_frame(tagged, 1.0)
    basis = np.zeros((2, 1, g.n_t), dtype=complex)
    basis[0, 0, 0] = 1.0
    column, breakdown = solver_module._arnoldi_step(apply, basis, 0, np.array([3]))
    assert breakdown.all() and np.array_equal(column, [[1.0, 0.0]])

    frame = solve(tagged, data)
    assert frame.method == "t_frame_gmres" and frame.converged
    # one batched step, one true-residual check, one physical check
    assert frame.iterations == 1 and frame.matvecs == 3
    assert _rel_diff(frame.u.data, oracle.u.data) <= 1e-12
    general = coefficients_from_matrix(g, constant.constant_matrix(), 0.25, tag="general")
    physical = solve(general, data)
    assert physical.method == "gmres" and physical.converged
    assert 1 <= physical.iterations <= 3
    assert _rel_diff(physical.u.data, oracle.u.data) <= 1e-10


@pytest.mark.parametrize(
    "kind, budget, restart",
    [
        ("checkerboard", 1, 40),
        ("checkerboard", 8, 8),
        ("checkerboard", 7, 3),
        ("time_piecewise", 7, 3),
    ],
)
def test_max_iterations_caps_gmres_over_restarts_and_passes(monkeypatch, kind, budget, restart):
    """max_iterations caps each row's GMRES steps over every restart cycle:
    a budget too small to converge is spent exactly, the solve reports
    converged False, and the matvecs are one per batched step, one per
    batched true-residual check and one for the physical check.  A single
    physical row checks once per cycle."""
    g = _grid(**(_FRAME_GRIDS[1] if kind == "time_piecewise" else dict(d=2, n_t=16, n_x=8)))
    a = generate_coefficients(kind=kind, delta=0.25, seed=1, grid=g, roughness_scale=_ROUGH[kind])
    data = _white_bundle(g, 50, 1.0)
    real = solver_module.gmres
    applies = []

    def counting(apply, *args, **kwargs):
        def counted(block, rows):
            applies.append(len(rows))
            return apply(block, rows)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(solver_module, "gmres", counting)
    result = solve(a, data, SolverOptions(max_iterations=budget, restart=restart))
    assert result.iterations == budget
    assert len(result.residual_history) == budget
    assert not result.converged and result.final_relative_residual > SolverOptions().rtol
    assert result.matvecs == len(applies) + 1
    if kind == "checkerboard":
        assert len(applies) == budget + -(-budget // restart)
    monkeypatch.undo()
    # the same solve converges once the budget allows it
    assert solve(a, data, SolverOptions(restart=restart)).converged


def test_oracle_zero_data_short_circuits():
    g = _grid(n_t=16, n_x=16)
    data = DataBundle(
        h=zeros(g), g=VectorField((zeros(g),)), f=zeros(g), lam=1.0
    )
    result = solve_oracle(identity_coefficients(g), data)
    assert result.converged
    assert np.array_equal(result.u.data, np.zeros(g.shape))


def test_gmres_agrees_with_oracle_on_constant_coefficients():
    g = _grid(n_t=32, n_x=32)
    a = generate_coefficients(kind="constant", delta=0.5, seed=5, grid=g)
    data = _band_limited_bundle(g, 6, lam=1.0)
    oracle = solve_oracle(a, data)
    # tagged general, the same matrix goes through physical-frame GMRES
    general = coefficients_from_matrix(g, a.constant_matrix(), 0.5, tag="general")
    iterated = solve(general, data, SolverOptions(rtol=1e-10))
    assert iterated.method == "gmres" and iterated.converged
    # the mean preconditioner is the exact inverse here
    assert iterated.iterations <= 3
    diff = np.linalg.norm(iterated.u.data - oracle.u.data)
    assert diff / np.linalg.norm(oracle.u.data) <= 1e-8


def test_gmres_solves_rough_coefficients():
    g = _grid(n_t=16, n_x=16)
    a = generate_coefficients(kind="checkerboard", delta=0.25, seed=7, grid=g,
                              roughness_scale=0.5)
    data = _band_limited_bundle(g, 8, lam=1.0)
    result = solve(a, data, SolverOptions(rtol=1e-9))
    assert result.converged
    assert result.final_relative_residual <= 1e-9
    assert len(result.residual_history) == result.iterations


def test_solve_rejects_lambda_zero():
    """lambda = 0 is admissible for constant coefficients only: the same
    identity matrix tagged general is refused, naming the tag."""
    g = _grid(n_t=16, n_x=16)
    data = _band_limited_bundle(g, 9, lam=0.0)
    general = coefficients_from_matrix(g, np.eye(1), 1.0, tag="general")
    with pytest.raises(ValueError, match="general coefficients need lambda > 0"):
        solve(general, data)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_solve_sends_constant_coefficients_to_the_oracle(lam):
    """solve on constant coefficients is solve_oracle: the same u bits, the
    same residual and method, at lambda = 0 and lambda > 0, whatever the
    solver options."""
    g = _grid(d=2, n_t=16, n_x=8)
    a = generate_coefficients(kind="constant", delta=0.5, seed=3, grid=g)
    data = _band_limited_bundle(g, 11, lam=lam)
    oracle = solve_oracle(a, data)
    solved = solve(a, data, SolverOptions(max_iterations=1, restart=1))
    assert solved.method == oracle.method == "oracle"
    assert solved.u.data.tobytes() == oracle.u.data.tobytes()
    assert solved.final_relative_residual == oracle.final_relative_residual
    assert (solved.iterations, solved.matvecs, solved.converged) == (0, 1, True)


def test_solve_judges_the_oracle_by_rtol():
    """At lambda = 1e-20 the data's f makes u's mean 1e20, and float64 loses
    its O(1) part: the oracle's residual is O(1).  solve used to report such
    a result converged; it now compares the residual with rtol."""
    g = _grid(n_t=16, n_x=16, l_t=2.0)
    a = generate_coefficients(kind="constant", delta=0.5, seed=0, grid=g)
    t, x1 = g.coordinate_mesh()
    ones = np.ones(g.shape)
    data = DataBundle(
        h=Field(g, np.cos(np.pi * t) * ones),
        g=VectorField((Field(g, np.sin(np.pi * x1) * ones),)),
        f=Field(g, ones),
        lam=1e-20,
    )
    result = solve(a, data)
    assert result.method == "oracle"
    assert result.final_relative_residual > 0.5 and not result.converged
    assert solve(a, dataclasses.replace(data, lam=1.0)).converged


def test_non_finite_x1_start_falls_back_to_gmres():
    """At lambda = 1e-14 the periodic sweep of this 64^3 draw meets a zero
    pivot, so its start is not finite.  solve used to skip the correction
    (a NaN residual is not above rtol) and fail building the Field; it now
    drops the start and corrects from zero, raising no RuntimeWarning."""
    g = make_grid(d=2, n_t=64, n_x=64, l_t=2.0, l_x=2.0)
    a = generate_coefficients(kind="x1_piecewise", delta=0.5, seed=0, grid=g)
    t, x1, _ = g.coordinate_mesh()
    ones = np.ones(g.shape)
    data = DataBundle(
        h=Field(g, np.cos(np.pi * t) * ones),
        g=VectorField((Field(g, np.sin(np.pi * x1) * ones), zeros(g))),
        f=zeros(g),
        lam=1e-14,
    )
    with np.errstate(all="ignore"):
        start = solver_module._x1_direct(a, data.lam, apply_rhs(data).data)
    assert not np.isfinite(start).all()
    result = solve(a, data)
    assert result.method == "gmres"
    assert result.converged and result.final_relative_residual <= SolverOptions().rtol


def test_solver_options_misuse():
    with pytest.raises(ValueError):
        SolverOptions(rtol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    # a bool is an int and NaN fails every comparison: neither may slip through
    for bad in (True, np.bool_(True), float("nan"), float("inf"), "1e-9", None):
        with pytest.raises(ValueError, match="'rtol' must be a float in"):
            SolverOptions(rtol=bad)
    for name, bad in (("max_iterations", True), ("restart", 2.5), ("restart", "many")):
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            SolverOptions(**{name: bad})
    read = SolverOptions(rtol=np.float32(0.5), max_iterations=64.0, restart="8")
    assert (read.rtol, read.max_iterations, read.restart) == (0.5, 64, 8)
    assert all(isinstance(v, int) for v in (read.max_iterations, read.restart))
    with pytest.raises(ValueError, match="malformed solver section.*'rtol' must be a float"):
        ExperimentConfig.from_mapping({"experiment": "l2", "solver": {"rtol": True}})
    assert [f.name for f in dataclasses.fields(SolverOptions)] == [
        "rtol",
        "max_iterations",
        "restart",
    ]
    # the preconditioner is fixed and nothing reads a kappa, so a config that
    # sets either names an unknown key (the CLI side is in test_cli)
    for key, value in (("kappa", 1), ("preconditioner", "constant_mean")):
        with pytest.raises(ValueError, match=f"unknown solver key '{key}'"):
            ExperimentConfig.from_mapping({"experiment": "l2", "solver": {key: value}})


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1.0, 50.0))
def test_identity_multiplier_bound_stays_below_sqrt_two(seed, lam):
    g = _grid(n_t=16, n_x=16)
    assert multiplier_bound(identity_coefficients(g), lam) <= np.sqrt(2.0) + 1e-12


def test_multiplier_bound_refuses_a_lambda_that_is_not_finite_and_non_negative():
    """apply_operator refuses lambda < 0; the bound used to read 0.0 at NaN,
    nan at inf and 1.4132... at -1."""
    g = _grid(n_t=16, n_x=16)
    for lam in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            multiplier_bound(identity_coefficients(g), lam)


def test_bound_actually_bounds_the_bundle_ratio():
    g = _grid(n_t=32, n_x=32)
    a = generate_coefficients(kind="constant", delta=0.5, seed=10, grid=g)
    lam = 1.0
    bound = multiplier_bound(a, lam)
    for seed in range(5):
        data = _band_limited_bundle(g, 100 + seed, lam=lam)
        result = solve_oracle(a, data)
        norms = compute_bundles(result.u, data)
        assert norms["U"][2.0] <= (bound + 1e-8) * norms["F"][2.0]


def _abs_lp(samples, p, cell_measure):
    """The Lp kernel before it took magnitudes: np.abs of every sample."""
    if p == np.inf:
        return float(np.max(np.abs(samples)))
    return float((np.sum(np.abs(samples) ** p) * cell_measure) ** (1.0 / p))


@pytest.mark.parametrize("kind", ["time_piecewise", "x1_piecewise"])
def test_compute_bundles_match_the_abs_expression(kind):
    """The bundle norms pass sqrt(|U|^2) to grid._lp without an np.abs pass;
    the bytes equal the old sqrt(sum of squares) then np.abs expression."""
    g = make_grid(d=2, n_t=16, n_x=16, l_t=2.0, l_x=2.0)
    coeffs = generate_coefficients(kind=kind, delta=0.25, seed=5, grid=g)
    data = harmonic_bundle(g, np.random.default_rng(6), 4.0)
    result = solve(coeffs, data)
    assert result.converged
    p_list = (1.5, 2.0, 3.0, 4.0, np.inf)
    norms = compute_bundles(result.u, data, p_list)
    slots = {"U": _solution_parts(g, result.u.data, data.lam), "F": _data_parts(data)}
    for key, parts in slots.items():
        magnitude = np.sqrt(sum(a * a for a in parts))
        for p in p_list:
            assert norms[key][p] == _abs_lp(magnitude, p, g.cell_measure)


def test_compute_bundles_norm_tables():
    g = _grid(n_t=16, n_x=16)
    data = _band_limited_bundle(g, 11, lam=4.0)
    u = _rand(g, 12)
    norms = compute_bundles(u, data, p_list=(1.5, 2.0))
    assert set(norms["U"]) == {1.5, 2.0}
    assert norms["F"][2.0] > 0
    # lambda = 0 omits the f/sqrt(lambda) slot instead of dividing by zero
    data0 = _band_limited_bundle(g, 13, lam=0.0)
    norms0 = compute_bundles(u, data0, p_list=(2.0,))
    assert np.isfinite(norms0["F"][2.0])


class _PoisonedNumpy:
    """numpy as halfheat.solver sees it, except that np.empty returns arrays
    filled with NaN: a solve that reads an entry it did not write goes NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        fill = complex(np.nan, np.nan) if np.dtype(dtype).kind == "c" else np.nan
        return np.full(shape, fill, dtype=dtype)


def test_solves_read_no_unwritten_scratch(monkeypatch):
    """The Krylov basis and the sweep's ratios come from np.empty, and each
    cycle writes only the basis columns it uses: with np.empty poisoned, a
    restart-6 t-frame solve whose rows stop at different steps, a
    physical-frame solve and an x1 solve give the same bits, iterations,
    histories and applies."""
    cases = []
    for kind, grids, method in (
        ("time_piecewise", _FRAME_GRIDS, "t_frame_gmres"),
        ("checkerboard", _FAST_PATH_GRIDS, "gmres"),
        ("x1_piecewise", _FAST_PATH_GRIDS, "x1_direct"),
    ):
        g = _grid(**grids[2])
        a = generate_coefficients(
            kind=kind, delta=0.25, seed=2, grid=g, roughness_scale=_ROUGH.get(kind)
        )
        cases.append((a, _white_bundle(g, 80 + len(cases), 1.0), method))
    options = SolverOptions(restart=6)
    real_frame = solver_module._t_frame
    sizes = []

    def recording_frame(*args):
        to_frame, from_frame, apply, precondition = real_frame(*args)

        def recording(block, rows):
            sizes.append(len(rows))
            return apply(block, rows)

        return to_frame, from_frame, recording, precondition

    monkeypatch.setattr(solver_module, "_t_frame", recording_frame)
    clean = [solve(a, data, options) for a, data, _ in cases]
    assert len(set(sizes)) > 2  # the frame's rows stopped at different steps
    monkeypatch.setattr(solver_module, "np", _PoisonedNumpy())
    poisoned = [solve(a, data, options) for a, data, _ in cases]
    for (_, _, method), want, got in zip(cases, clean, poisoned):
        assert want.method == got.method == method and want.converged
        assert want.u.data.tobytes() == got.u.data.tobytes()
        assert want.iterations == got.iterations
        assert want.residual_history == got.residual_history
        assert want.matvecs == got.matvecs
    assert clean[0].iterations > options.restart and clean[1].iterations > 0


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_t_frame_blocks_take_the_rows_of_the_full_tables(d):
    """precondition and apply build each block's symbol and q rows from
    per-mode and per-time vectors, and give the bytes of the (modes, n_t)
    tables _operator_symbol and _q_table make, sliced to the block's rows."""
    g = _grid(**_FRAME_GRIDS[d])
    a = generate_coefficients(kind="time_piecewise", delta=0.25, seed=d, grid=g)
    lam = 2.0
    to_frame, _, apply, precondition = solver_module._t_frame(a, lam)
    profile = a.data.reshape(d, d, g.n_t)
    mean = profile.mean(axis=-1)
    symbol = solver_module._operator_symbol(g, mean, lam).reshape(g.n_t, -1).T
    varying = solver_module._q_table(g, profile - mean[..., None])
    y = to_frame(np.random.default_rng(d).standard_normal(g.shape))
    rows = np.arange(len(y))[::-3]  # a reversed, strided block
    assert _same_bytes(solver_module._q_table(g, profile - mean[..., None], rows), varying[rows])
    block = y[rows]
    want = np.fft.ifft(np.fft.fft(block, axis=1) / symbol[rows], axis=1)
    assert _same_bytes(precondition(block, rows), want)
    assert _same_bytes(apply(block, rows), want * varying[rows] + block)


def _cyclic_thomas_reference(lower, diag, upper, rhs):
    """_cyclic_thomas as it was before it stopped copying diag."""
    n = diag.shape[0]
    corner_top, corner_bottom = lower[0], upper[n - 1]
    gamma = -diag[0]
    diag = diag.copy()
    diag[0] = diag[0] - gamma
    diag[n - 1] = diag[n - 1] - corner_bottom * corner_top / gamma
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


def _x1_direct_reference(coeffs, lam, rhs):
    """_x1_direct as it was before its sweep freed the spectrum and diag."""
    grid = coeffs.grid
    d = grid.d
    h1 = grid.h[0]
    n_tau = grid.n_t // 2 + 1
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
        sigmas.append(solver_module._difference_symbol(grid, i).reshape(shape))
    a11 = profile[0][0]
    zero = np.zeros(view)
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
    u_hat = _cyclic_thomas_reference(lower, diag, upper, np.moveaxis(spec, 1, 0))
    u_hat = np.moveaxis(u_hat, 0, 1)
    if spatial:
        u_hat = np.fft.ifftn(u_hat, axes=spatial)
    return np.fft.irfft(u_hat, n=grid.n_t, axis=0)


@pytest.mark.parametrize("d", [1, 2])
def test_x1_direct_keeps_the_bytes_of_the_copying_sweep(d):
    """The sweep that reads diag in place, drops the spectrum once copied in
    and corrects in place gives the bytes of the one that copied all three."""
    g = _grid(**_FAST_PATH_GRIDS[d])
    a = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=d, grid=g)
    rhs = apply_rhs(_white_bundle(g, 60 + d, 1.0)).data
    for lam in (0.5, 16.0):
        assert _same_bytes(
            solver_module._x1_direct(a, lam, rhs), _x1_direct_reference(a, lam, rhs)
        )


def _time_multiplier_reference(data, symbol):
    """_time_multiplier as it was before its transforms ran on a
    time-contiguous copy: rfft and irfft along the strided time axis."""
    spec = np.fft.rfft(data, axis=0)
    spec *= _half_spectrum(symbol, data.ndim)
    return np.fft.irfft(spec, n=data.shape[0], axis=0)


def _operator_parts_reference(coeffs, lam, u):
    """A u and the slots but sqrt(lambda) u, as they were before their
    transforms ran on a time-contiguous copy."""
    grid = coeffs.grid
    div = _divergence(grid, _flux(coeffs.data, _gradient(grid, u)))
    spec = np.fft.rfft(u, axis=0)
    half_table = _half_spectrum(time_symbol(grid, "half_derivative"), u.ndim)
    half = np.fft.irfft(spec * half_table, n=grid.n_t, axis=0)
    spec *= _half_spectrum(time_symbol(grid, "time_derivative"), u.ndim)
    applied = np.fft.irfft(spec, n=grid.n_t, axis=0)
    applied -= div
    applied += lam * u
    return applied, [half, *_gradient(grid, u)]


def _from_frame_reference(grid, y):
    """_t_frame's from_frame as it was before it copied the frame to C
    order: irfftn over the transposed frame."""
    half = solver_module._half_shape(grid)
    plane = np.full(half[-1], 2.0)
    plane[[0, -1]] = 1.0
    scale = np.broadcast_to(np.sqrt(plane / np.prod(grid.n_x)), half[1:]).reshape(-1, 1)
    spec = (y / scale).T.reshape(half)
    return np.fft.irfftn(spec, s=grid.n_x, axes=tuple(range(1, grid.d + 1)))


_LAYOUT_GRIDS = {
    "64x64": dict(d=1, n_t=64, n_x=64),
    "1024x128": dict(d=1, n_t=1024, n_x=128),
    "32x64x64": dict(d=2, n_t=32, n_x=64),
}


@pytest.mark.parametrize("shape", list(_LAYOUT_GRIDS))
def test_layout_changes_keep_the_kernels_bytes(shape):
    """Below and above the layout size rule (64 x 64 is 32 KB, the others
    1 MB), the time transforms on a time-contiguous copy and the frame exits
    in C order give C-contiguous outputs with the bytes of the strided
    expressions they replace."""
    g = _grid(**_LAYOUT_GRIDS[shape])
    u = _rand(g, 3).data
    rhs = apply_rhs(_white_bundle(g, 70, 1.0)).data
    x1 = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=1, grid=g)
    t = generate_coefficients(kind="time_piecewise", delta=0.25, seed=1, grid=g)
    to_frame, from_frame, _, _ = solver_module._t_frame(t, 1.0)
    y = to_frame(rhs)
    applied, half = _operator(x1, 2.0, u, time_symbol(g, "half_derivative"))
    parts = _solution_parts(g, u, 2.0, half)[:-1]
    want_applied, want_parts = _operator_parts_reference(x1, 2.0, u)
    pairs = [
        (solver_module._x1_direct(x1, 1.0, rhs), _x1_direct_reference(x1, 1.0, rhs)),
        (from_frame(y), _from_frame_reference(g, y)),
        *zip([applied, *parts], [want_applied, *want_parts]),
    ]
    for kind in ("hilbert", "half_derivative", "time_derivative"):
        symbol = time_symbol(g, kind)
        pairs.append((_time_multiplier(u, symbol), _time_multiplier_reference(u, symbol)))
    for got, want in pairs:
        assert got.flags.c_contiguous and _same_bytes(got, want)


def test_every_solve_path_returns_c_order(monkeypatch):
    """At 512 x 256, above the layout size rule, each path's u is in C order
    by construction (the oracle's irfftn, the x1 sweep's and the (t, xi)
    frame's exits, the physical frame's reshape): the Field adopts it
    without a copy, and every slot handed on is C-contiguous too."""
    g = _grid(n_t=512, n_x=256)
    data = _localized_bundle(g, np.random.default_rng(2), 1.0)
    seen = []
    finite = solver_module._finite
    monkeypatch.setattr(
        solver_module, "_finite", lambda x, *args: seen.append(x) or finite(x, *args)
    )
    x1 = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=2, grid=g)
    paths = {
        "oracle": generate_coefficients(kind="constant", delta=0.25, seed=2, grid=g),
        "x1_direct": x1,
        "t_frame_gmres": generate_coefficients(kind="time_piecewise", delta=0.25, seed=2, grid=g),
        "gmres": dataclasses.replace(x1, tag="general"),
    }
    for method, coeffs in paths.items():
        result = solve(coeffs, data)
        assert result.method == method and result.converged
        assert result.u.data is seen[-1]
        assert all(slot.flags.c_contiguous for slot in (seen[-1], *result.slots))


@pytest.mark.parametrize(
    "kind, budget, n_t",
    [
        pytest.param("constant", 6.0, 512, id="constant-6.0"),
        pytest.param("x1_piecewise", 6.5, 512, id="x1_piecewise-6.5"),
        pytest.param("constant", 6.0, 1024, id="constant-6.0-1024x128"),
        pytest.param("x1_piecewise", 6.5, 1024, id="x1_piecewise-6.5-1024x128"),
    ],
)
def test_direct_solves_stay_within_their_memory_budget(kind, budget, n_t):
    """The oracle and the x1 sweep free their spectral work arrays: the
    second solve on an n_t x 128 grid, with the right-hand side already
    built, allocates at most `budget` full-grid float64 arrays at its peak
    (8.1 and 8.3 while they kept them), with the layout copies of 1 MB
    arrays counted at 1024 x 128.  tracemalloc counts allocations, not
    resident pages, so the count does not depend on the machine."""
    g = make_grid(d=1, n_t=n_t, n_x=128, l_t=4.0, l_x=4.0)
    a = generate_coefficients(kind=kind, delta=0.25, seed=0, grid=g)
    data = _localized_bundle(g, np.random.default_rng(0), 1.0)
    apply_rhs(data)
    assert solve(a, data).converged
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = solve(a, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == ("oracle" if kind == "constant" else "x1_direct")
    assert (peak - base) / (np.prod(g.shape) * 8) <= budget


def test_a_solve_that_cannot_progress_stops():
    """At lambda = 1e-150 the x1 start is not finite and GMRES from zero
    cannot lower the true residual (the preconditioner's zero mode is
    1/lambda).  A cycle that does not lower its row's true residual ends the
    row: the solve stops unconverged after its first cycle's two steps, where
    it used to spend all 500 on a climbing residual."""
    g = make_grid(d=1, n_t=16, n_x=16, l_t=2.0, l_x=2.0)
    a = generate_coefficients(kind="x1_piecewise", delta=0.25, seed=0, grid=g)
    data = DataBundle(
        h=zeros(g), g=VectorField((zeros(g),)), f=Field(g, np.ones(g.shape)), lam=1e-150
    )
    result = solve(a, data)
    assert result.method == "gmres" and not result.converged
    assert result.iterations == 2 and result.matvecs == 5


def test_bundle_norms_of_huge_data_do_not_overflow():
    """|F|^2 of slots near 1e300 overflows; the magnitude then divides out
    the largest slot first, so ||F||_2 of h = 1e300 on the unit-measure
    16 x 16 torus reads 1e300 * sqrt(l_t l_x), not inf, in both helpers.
    |F|^2 of slots near 1e-170 underflows, and ||F||_2 used to read 0.0: the
    same division now covers it."""
    g = make_grid(d=1, n_t=16, n_x=16, l_t=2.0, l_x=2.0)
    for size in (1e300, 1e-170):
        data = DataBundle(
            h=Field(g, np.full(g.shape, size)), g=VectorField((zeros(g),)), f=zeros(g), lam=1.0
        )
        norms = compute_bundles(zeros(g), data, (2.0, np.inf))
        assert norms["F"][2.0] == pytest.approx(2.0 * size, rel=1e-14)
        assert norms["F"][np.inf] == size
        assert solver_module.bundle_lp_norm(_data_parts(data), g, 2.0) == norms["F"][2.0]


def _handover_cases(d):
    """(coefficients, data, options, the path solve takes) for every path."""
    g = _grid(**_FAST_PATH_GRIDS[d], l_t=2.0)
    data = _band_limited_bundle(g, 70 + d, lam=2.0)

    def kind(name):
        return generate_coefficients(kind=name, delta=0.25, seed=d, grid=g)

    # rtol below the x1 start's rounding makes the start miss and GMRES
    # correct it; a few steps bound that correction's cost
    missed = SolverOptions(rtol=1e-17, max_iterations=3, restart=3)
    return [
        (kind("constant"), data, None, "oracle"),
        (kind("x1_piecewise"), data, None, "x1_direct"),
        (kind("x1_piecewise"), data, missed, "gmres"),
        (kind("time_piecewise"), data, None, "t_frame_gmres"),
        (kind("smooth"), data, None, "gmres"),
    ]


@pytest.mark.parametrize("d", [1, 2])
def test_solve_hands_over_the_slots_of_its_solution(d):
    """On every path the slots of solve's final check are the bytes of
    _solution_parts(u), read-only, and compute_bundles reads them to the
    same tables as it makes from the bare u; zero data hand over none."""
    for coeffs, data, options, method in _handover_cases(d):
        result = solve(coeffs, data, options)
        assert result.method == method
        expected = _solution_parts(data.grid, result.u.data, data.lam)
        assert len(result.slots) == len(expected) == d + 2
        for slot, part in zip(result.slots, expected):
            assert slot.tobytes() == part.tobytes()
            assert not slot.flags.writeable
        p_list = (1.5, 2.0, 3.0, 4.0, np.inf)
        assert compute_bundles(result, data, p_list) == compute_bundles(result.u, data, p_list)
    g = data.grid
    zero = DataBundle(h=zeros(g), g=VectorField((zeros(g),) * d), f=zeros(g), lam=2.0)
    for coeffs, _, options, _ in _handover_cases(d):
        empty = solve(coeffs, zero, options)
        assert empty.slots is None
        assert compute_bundles(empty, zero) == compute_bundles(empty.u, zero)


def _scaled(data, factor):
    """data with h, g and f multiplied by factor."""
    g = data.grid
    return DataBundle(
        h=Field(g, factor * data.h.data),
        g=VectorField(tuple(Field(g, factor * c.data) for c in data.g.components)),
        f=Field(g, factor * data.f.data),
        lam=data.lam,
    )


@pytest.mark.parametrize("k", [-600, -60, 60, 600])
@pytest.mark.parametrize("d", [1, 2])
def test_solve_is_exactly_equivariant_under_power_of_two_scaling(d, k):
    """On every path, solve(c, 2^k F) is 2^k solve(c, F) to the bit, u and
    slots, with the same method, iterations, matvecs and residuals.  At
    k = +-600 the data's 2-norm leaves solve's window (it overflows or
    underflows): those data are divided by their peak's power of two and u
    and the slots multiplied back, where the paths other than the oracle
    used to refuse them or return u = 0."""
    factor = 2.0**k
    for coeffs, data, options, method in _handover_cases(d):
        base = solve(coeffs, data, options)
        result = solve(coeffs, _scaled(data, factor), options)
        assert result.method == base.method == method
        assert result.converged == base.converged
        assert (result.iterations, result.matvecs) == (base.iterations, base.matvecs)
        assert result.final_relative_residual == base.final_relative_residual
        assert result.residual_history == base.residual_history
        assert result.u.data.tobytes() == (factor * base.u.data).tobytes()
        assert len(result.slots) == len(base.slots) == d + 2
        for slot, part in zip(result.slots, base.slots):
            assert slot.tobytes() == (factor * part).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # D-(g) overflows
def test_solve_refuses_a_right_hand_side_that_is_not_finite():
    """Finite data whose right-hand side overflows (g alternating +-1e308,
    whose backward differences exceed the largest float) have no power of
    two to rescale by: every path refuses them by name."""
    for coeffs, data, options, _ in _handover_cases(1):
        g = data.grid
        sign = (-1.0) ** np.arange(g.n_x[0])
        huge = DataBundle(
            h=zeros(g), g=VectorField((Field(g, 1e308 * sign * np.ones(g.shape)),)),
            f=zeros(g), lam=data.lam,
        )
        assert not np.isfinite(_rhs(huge)).all()
        with pytest.raises(ValueError, match="right-hand side is not finite"):
            solve(coeffs, huge, options)


@pytest.mark.parametrize("k", [-600, 600])
@pytest.mark.parametrize("d", [1, 2])
def test_bundle_magnitudes_are_exactly_equivariant_under_power_of_two_scaling(d, k):
    """Slots scaled by 2^k have magnitudes, cylinder oscillations and sup
    norms scaled by exactly 2^k.  At k = +-600 the squares over- or
    underflow, and the magnitude divides out the slots' peak power of two;
    dividing by the peak itself, as it once did, is not exact.  The L_2
    norms end in _lp's peak division and ** 0.5, so they agree to rounding."""
    factor = 2.0**k
    g = _grid(d=d, n_t=16, n_x=16)
    u, data = _rand(g, 40 + d), _band_limited_bundle(g, 30 + d, lam=2.0)
    scaled_u, scaled_data = Field(g, factor * u.data), _scaled(data, factor)
    cyl = Cylinder(center=(0.0,) * (d + 1), r=0.5)
    for parts, scaled in (
        (_solution_parts(g, u.data, data.lam), _solution_parts(g, scaled_u.data, data.lam)),
        (_data_parts(data), _data_parts(scaled_data)),
    ):
        magnitude = _magnitude(parts)
        assert _magnitude(scaled).tobytes() == (factor * magnitude).tobytes()
        assert bundle_oscillation(scaled, g, cyl) == factor * bundle_oscillation(parts, g, cyl)
        assert solver_module.bundle_lp_norm(scaled, g, np.inf) == factor * np.max(magnitude)
    base = compute_bundles(u, data, (2.0, np.inf))
    norms = compute_bundles(scaled_u, scaled_data, (2.0, np.inf))
    for key in ("U", "F"):
        assert norms[key][np.inf] == factor * base[key][np.inf]
        assert norms[key][2.0] == pytest.approx(factor * base[key][2.0], rel=1e-15, abs=0.0)


def test_solve_result_keeps_its_slots_out_of_repr_and_equality():
    coeffs, data, _, _ = _handover_cases(1)[1]
    result = solve(coeffs, data)
    bare = dataclasses.replace(result, slots=None)
    assert result == bare
    assert repr(result) == repr(bare) and "slots" not in repr(result)
