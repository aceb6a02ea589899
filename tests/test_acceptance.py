"""Acceptance suite: the ten criteria the package ships against.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s; pytest -v
shows the same verdict per test).  Criteria 6 and 8 run the full-size sweeps
and take a few minutes combined; everything else is desk scale.
"""

import math

import numpy as np

from halfheat import (
    ExperimentConfig,
    Field,
    SolutionBundle,
    SolverOptions,
    apply_rhs,
    bundle_lp_norm,
    generate_coefficients,
    half_derivative,
    half_derivative_quadrature,
    make_grid,
    reduce_to_identity,
    residual,
    run_assumption_report,
    run_identity_suite,
    run_l2_trials,
    run_lp_sweep,
    run_tail_decay,
    solve,
    solve_oracle,
    twisted_pairing,
)
from halfheat.experiments import (
    _band_limited_bundle,
    random_band_limited_field,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")


def _config(kind: str, **overrides) -> ExperimentConfig:
    mapping = {"experiment": kind}
    mapping.update(overrides)
    return ExperimentConfig.from_mapping(mapping)


def test_criterion_01_identity_suite():
    """Exact time-calculus identities over 20 seeded trials on the default
    256 x 16 grid, each against its pinned tolerance."""
    result = run_identity_suite(_config("identities"))
    worst = result.summary["worst"]
    required = {
        "hilbert_involution": 1e-12,
        "hilbert_isometry": 1e-12,
        "half_adjoint": 1e-10,
        "half_square": 1e-10,
        "spatial_commutation": 1e-12,
    }
    devs = {name: worst[name]["deviation"] for name in required}
    ok = result.passed and all(devs[n] <= tol for n, tol in required.items())
    detail = (
        "identity suite, 20 trials: "
        + ", ".join(f"{n}={devs[n]:.2e}" for n in required)
        + f"; suite passed={result.passed}"
    )
    _verdict(1, ok, detail)
    assert ok, result.failures


def test_criterion_02_quadrature_cross_validation():
    """Midpoint-quadrature half derivative against the spectral one on a
    smooth signal; <= 1e-3 at 8-period truncation and non-increasing
    (within 10%) under doubling."""
    grid = make_grid(1, 256, 8, 2.0 * math.pi, 1.0)
    t = grid.coordinate_mesh()[0]
    wave = np.cos(4.0 * t) + 0.3 * np.sin(2.0 * t)
    u = Field(grid, wave * np.ones(grid.shape))
    exact = half_derivative(u)
    scale = float(np.linalg.norm(exact.data))
    errors = {}
    for periods in (8, 16, 32):
        approx = half_derivative_quadrature(u, truncation_periods=periods)
        errors[periods] = float(np.linalg.norm(approx.data - exact.data)) / scale
    ok = (
        errors[8] <= 1e-3
        and errors[16] <= 1.1 * errors[8]
        and errors[32] <= 1.1 * errors[16]
    )
    detail = (
        f"quadrature vs spectral rel errors: T=8 {errors[8]:.2e}, "
        f"T=16 {errors[16]:.2e}, T=32 {errors[32]:.2e}"
    )
    _verdict(2, ok, detail)
    assert ok, errors


def test_criterion_03_discrete_coercivity():
    """Twisted form bounded below by (delta^2/2)||U||_2^2 at kappa =
    delta^2/2, over 102 random subspace fields with random rough
    coefficients and lambda in {0, 0.7, 3}."""
    grid = make_grid(1, 64, 32, 2.0, 2.0)
    kinds = ("time_piecewise", "x1_piecewise", "checkerboard", "smooth")
    lambdas = (0.0, 0.7, 3.0)
    margin = math.inf
    trials = 0
    for delta in (0.25, 0.5, 1.0):
        kappa = delta**2 / 2.0
        for trial in range(34):
            rng = np.random.default_rng([31, int(delta * 100), trial])
            u = random_band_limited_field(grid, rng, subspace=True)
            kind = kinds[trial % 4]
            scale = None
            if kind == "checkerboard":
                if delta == 1.0:
                    kind = "constant"
                else:
                    scale = 0.5 * (1.0 - delta)
            coeffs = generate_coefficients(
                kind, delta, 1000 + trial, grid, roughness_scale=scale
            )
            lam = lambdas[trial % 3]
            form = twisted_pairing(coeffs, lam, kappa, u, u)
            energy = (
                bundle_lp_norm(
                    SolutionBundle.from_field(u, lam).components(), grid, 2
                )
                ** 2
            )
            margin = min(margin, form / energy - delta**2 / 2.0)
            trials += 1
            assert form >= (delta**2 / 2.0 - 1e-10) * energy, (delta, kind, lam)
    ok = trials >= 100 and margin >= -1e-10
    _verdict(3, ok, f"coercivity over {trials} trials, worst margin {margin:.2e}")
    assert ok


def test_criterion_04_oracle_and_gmres_equivalence():
    """Direct spectral solves leave relative residual <= 1e-10, and the
    iterative path reproduces them to 1e-8 within 3 iterations on constant
    coefficients, over 20 instances."""
    grid = make_grid(1, 64, 32, 2.0, 2.0)
    worst_residual = 0.0
    worst_diff = 0.0
    worst_iters = 0
    for trial in range(20):
        delta = (0.25, 0.5, 1.0)[trial % 3]
        lam = (0.5, 1.0, 2.0)[trial % 3]
        coeffs = generate_coefficients("constant", delta, 400 + trial, grid)
        data = _band_limited_bundle(grid, np.random.default_rng([41, trial]), lam)
        direct = solve_oracle(coeffs, data)
        iterative = solve(coeffs, data, SolverOptions())
        diff = float(
            np.linalg.norm(iterative.u.data - direct.u.data)
            / np.linalg.norm(direct.u.data)
        )
        worst_residual = max(worst_residual, direct.final_relative_residual)
        worst_diff = max(worst_diff, diff)
        worst_iters = max(worst_iters, iterative.iterations)
    ok = worst_residual <= 1e-10 and worst_diff <= 1e-8 and worst_iters <= 3
    _verdict(
        4,
        ok,
        f"oracle residual {worst_residual:.2e}, gmres-oracle diff "
        f"{worst_diff:.2e} in <= {worst_iters} iterations, 20 instances",
    )
    assert ok


def test_criterion_05_constant_coefficient_l2_estimate():
    """100 identity-coefficient solves at lambda = 1: measured ratio below
    the independently enumerated per-mode multiplier bound, bound <= 3."""
    result = run_l2_trials(_config("l2", trials=100))
    bounds = [row["bound"] for row in result.rows]
    ok = (
        result.passed
        and max(bounds) <= 3.0
        and result.summary["mode_check"]["passed"]
    )
    _verdict(
        5,
        ok,
        f"100 trials: max ratio {result.summary['max_ratio']:.6f} <= bound "
        f"{max(bounds):.6f} <= 3, single-mode closed form matched",
    )
    assert ok, result.failures


def test_criterion_06_lp_ratio_boundedness():
    """Ratio tables for p in {1.5, 3, 4}, lambda in {1..64}, rough kinds at
    delta = 0.25, in d = 1 and d = 2, stable under grid doubling."""
    common = dict(
        coefficients={"kinds": ["time_piecewise", "x1_piecewise"], "delta": 0.25},
        lambdas=[1.0, 4.0, 16.0, 64.0],
        p_list=[1.5, 3.0, 4.0],
    )
    one = run_lp_sweep(_config("lp_sweep", trials=2, **common))
    two = run_lp_sweep(
        _config(
            "lp_sweep",
            grid={"d": 2, "n_t": 64, "n_x": 64, "l_t": 2.0, "l_x": 2.0},
            trials=1,
            **common,
        )
    )
    finite = all(
        row["ratio"] is None or math.isfinite(row["ratio"])
        for res in (one, two)
        for row in res.rows
    )
    ok = one.passed and two.passed and finite
    _verdict(
        6,
        ok,
        f"d=1 stability {one.summary['stability_factor']:.4f}, "
        f"d=2 stability {two.summary['stability_factor']:.4f}, both <= 1.5, "
        f"all ratios finite",
    )
    assert ok, one.failures + two.failures


def test_criterion_07_tail_decay():
    """Cutoff-commutator norms decay with fitted log2 slope <= -0.4 for
    k = 2..6 at p in {2, 4}, under the weighted window bound."""
    result = run_tail_decay(_config("tail_decay", p_list=[2.0, 4.0]))
    slopes = result.summary["fitted_slope"]
    constants = result.summary["measured_constant"]
    ok = (
        result.passed
        and slopes["2.0"] <= -0.4
        and slopes["4.0"] <= -0.4
        and all(math.isfinite(c) and c > 0 for c in constants.values())
    )
    _verdict(
        7,
        ok,
        f"slopes p=2 {slopes['2.0']:.3f}, p=4 {slopes['4.0']:.3f} (<= -0.4); "
        f"constants {constants['2.0']:.3f}, {constants['4.0']:.3f}",
    )
    assert ok, result.failures


def test_criterion_08_mean_oscillation_decay(default_oscillation):
    """Homogeneous-part oscillation decay over kappa in {4, 8, 16}: fitted
    exponent <= -0.9 for the time-coefficient and heat cases, <= -0.45 for
    the x1 case, plus the interior-estimate stability checks.  The default
    oscillation run (_config("oscillation")) is shared with the golden test."""
    result = default_oscillation
    decays = result.summary["fitted_decay"]
    local = result.summary["local_estimate"]
    ok = (
        result.passed
        and decays["calU_time_coeffs"] <= -0.9
        and decays["U_heat"] <= -0.9
        and decays["calUprime_theta_x1"] <= -0.45
        and local["refinement_deviation"] <= 0.2
        and local["rescaling_deviation"] <= 0.05
    )
    _verdict(
        8,
        ok,
        f"decays: time-coeff {decays['calU_time_coeffs']:.2f}, heat "
        f"{decays['U_heat']:.2f} (<= -0.9), x1 "
        f"{decays['calUprime_theta_x1']:.2f} (<= -0.45); local estimate "
        f"refine {local['refinement_deviation']:.3f}, rescale "
        f"{local['rescaling_deviation']:.3f}",
    )
    assert ok, result.failures


def test_criterion_09_assumption_checkers():
    """Structural zeros for time- and x1-measurable coefficients and the
    checkerboard oscillation bracket [eps/4, 2 eps]."""
    result = run_assumption_report(_config("assumptions"))
    gammas = result.summary["gamma"]
    eps = result.summary["epsilon"]
    checker = gammas["checkerboard"]["time"]
    ok = (
        result.passed
        and gammas["time_piecewise"]["time"] <= 1e-12
        and gammas["x1_piecewise"]["x1"] <= 1e-12
        and eps / 4.0 <= checker <= 2.0 * eps
    )
    _verdict(
        9,
        ok,
        f"time-measurable gamma {gammas['time_piecewise']['time']:.2e}, "
        f"x1-measurable gamma {gammas['x1_piecewise']['x1']:.2e} (<= 1e-12); "
        f"checkerboard gamma {checker:.4f} in [{eps / 4.0}, {2.0 * eps}]",
    )
    assert ok, result.failures


def test_criterion_10_reduction_identity():
    """Rewriting a solved instance over identity coefficients (flux folded
    into the first-order data) preserves the residual exactly, 20 solved
    instances, 1e-11 relative."""
    grid = make_grid(1, 64, 32, 2.0, 2.0)
    kinds = ("time_piecewise", "x1_piecewise", "checkerboard", "smooth")
    worst = 0.0
    for trial in range(20):
        lam = (0.5, 1.0, 2.0)[trial % 3]
        rng = np.random.default_rng([101, trial])
        data = _band_limited_bundle(grid, rng, lam)
        if trial < 10:
            coeffs = generate_coefficients("constant", 0.5, 500 + trial, grid)
            solved = solve_oracle(coeffs, data)
        else:
            kind = kinds[trial % 4]
            scale = 0.25 if kind == "checkerboard" else None
            coeffs = generate_coefficients(
                kind, 0.5, 500 + trial, grid, roughness_scale=scale
            )
            solved = solve(coeffs, data, SolverOptions())
        u = solved.u
        before = residual(coeffs, data, u)
        identity, reduced = reduce_to_identity(coeffs, data, u)
        after = residual(identity, reduced, u)
        scale_norm = float(np.linalg.norm(apply_rhs(data).data))
        worst = max(
            worst, float(np.linalg.norm(before.data - after.data)) / scale_norm
        )
    ok = worst <= 1e-11
    _verdict(
        10,
        ok,
        f"reduction preserves the residual on 20 solved instances, worst "
        f"relative defect {worst:.2e} <= 1e-11",
    )
    assert ok
