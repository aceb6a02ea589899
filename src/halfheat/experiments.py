"""Experiment harness: identity suite, L2/Lp estimate trials, tail-decay and
oscillation-decay experiments, assumption reports, and byte-stable emission.

Every experiment is a pure function of (config, seed): trial randomness comes
from seed-sequence children keyed by the trial index, reports carry the config
hash and per-row seeds, and the CSV/JSON writers are deterministic (sorted
keys, repr floats, no wall-clock anywhere).
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .coefficients import (
    Coefficients,
    _trig_polynomial,
    check_assumption_time,
    check_assumption_x1,
    generate_coefficients,
    identity_coefficients,
)
from .grid import (
    Field,
    Grid,
    VectorField,
    _band_limited_noise,
    _integer,
    _norm,
    _scalar,
    inner,
    lp_norm,
    make_grid,
    time_window_lp_norm,
    zeros,
)
from .expressions import field_from_expression
from .htpf import _replace, _write_json, read_coefficients
from .operators import (
    DataBundle,
    _at_lambda,
    _solution_parts,
    apply_operator,
    manufacture_data,
    reduce_to_identity,
    residual,
)
from .oscillation import (
    Cylinder,
    _cylinder_masks,
    _spatial_dist_sq,
    verify_local_estimate,
    verify_mean_oscillation,
)
from .solver import (
    SolverOptions,
    bundle_lp_norm,
    compute_bundles,
    duality_defect,
    multiplier_bound,
    solve,
    solve_oracle,
    twisted_pairing,
    weak_pairing,
)
from .timeops import cutoff_commutator, half_derivative, hilbert, time_derivative

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "config_hash",
    "random_band_limited_field",
    "harmonic_field",
    "harmonic_bundle",
    "run_identity_suite",
    "run_l2_trials",
    "run_lp_sweep",
    "run_tail_decay",
    "run_oscillation_experiments",
    "run_assumption_report",
    "write_outputs",
    "EXPERIMENTS",
]


_DEFAULT_GRIDS = {
    "identities": dict(d=1, n_t=256, n_x=16, l_t=2.0, l_x=2.0),
    "l2": dict(d=1, n_t=64, n_x=64, l_t=2.0, l_x=2.0),
    "lp_sweep": dict(d=1, n_t=64, n_x=64, l_t=2.0, l_x=2.0),
    "tail_decay": dict(d=1, n_t=4096, n_x=8, l_t=512.0, l_x=1.0),
    "oscillation": dict(d=1, n_t=4096, n_x=512, l_t=4.0, l_x=4.0),
    "assumptions": dict(d=1, n_t=64, n_x=64, l_t=2.0, l_x=2.0),
    "solve": dict(d=1, n_t=64, n_x=64, l_t=2.0, l_x=2.0),
}


_GRID_KEYS = ("d", "n_t", "n_x", "l_t", "l_x")
_SOLVER_KEYS = tuple(f.name for f in fields(SolverOptions))
# the top-level keys each command reads ('out' is read by the CLI); any other
# key is an error
_CONFIG_KEYS = {
    "identities": ("experiment", "grid", "trials", "seed", "out"),
    "l2": ("experiment", "grid", "coefficients", "lambdas", "trials", "solver", "seed", "out"),
    "lp_sweep": (
        "experiment", "grid", "coefficients", "lambdas", "p_list", "trials", "solver",
        "seed", "out",
    ),
    "tail_decay": ("experiment", "grid", "coefficients", "p_list", "seed", "out"),
    "oscillation": ("experiment", "grid", "coefficients", "lambdas", "solver", "seed", "out"),
    "assumptions": ("experiment", "grid", "coefficients", "seed", "out"),
    "solve": ("grid", "coefficients", "data", "lambda", "solver", "out"),
}
# the 'coefficients' keys each command that has that section reads; any other
# key is an error
_SPEC_KEYS = ("kind", "delta", "seed", "n_jumps", "epsilon", "cell_size")
_COEFFICIENT_KEYS = {
    "l2": _SPEC_KEYS,
    "lp_sweep": ("kinds",) + _SPEC_KEYS,
    "tail_decay": ("k_max",),
    "oscillation": ("delta", "kappas", "outer_radius"),
    "assumptions": ("delta", "epsilon", "r_zero"),
    "solve": _SPEC_KEYS + ("file",),
}
# the 'data' keys of the solve command: the expressions of h, g and f
_DATA_KEYS = ("h", "g", "f")


def _numbers(value, name: str) -> tuple[float, ...]:
    """A config list of numbers; anything else is a ValueError naming the key."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"'{name}' must be a list of numbers, got {value!r}")
    return tuple(_scalar(v, f"{name}[{i}]") for i, v in enumerate(value))


def _section(spec, name: str, keys: tuple[str, ...]) -> dict:
    """A config section that must be an object with keys from `keys`; None
    (absent) reads as {}.  Anything else is a ValueError naming the key."""
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ValueError(f"'{name}' must be an object, got {spec!r}")
    unknown = [key for key in spec if key not in keys]
    if unknown:
        hint = f"use {', '.join(keys)}" if keys else "this command reads none"
        raise ValueError(f"unknown {name} key {unknown[0]!r} ({hint})")
    return spec


def _grid_from_spec(spec, kind: str) -> Grid:
    """Grid of a config's 'grid' object: its keys merged onto the default
    grid of the command `kind` (the default itself when spec is None)."""
    merged = {**_DEFAULT_GRIDS[kind], **_section(spec, "grid", _GRID_KEYS)}
    try:
        return make_grid(**merged)
    except TypeError as exc:
        raise ValueError(f"malformed grid {spec!r}: {exc}") from exc


def _solver_options(spec) -> SolverOptions:
    """SolverOptions of a config's 'solver' object (defaults when None)."""
    spec = _section(spec, "solver", _SOLVER_KEYS)
    try:
        return SolverOptions(**spec)
    except ValueError as exc:
        raise ValueError(f"malformed solver section {spec!r}: {exc}") from None


# Largest lambda: the single-mode check squares it, and the bundle norms sum
# lambda * u^2 over the grid.
_LAMBDA_CAP = 1e75


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on.  See README for the config
    file schema; every field here mirrors one documented key."""

    kind: str
    grid: Grid
    coefficients: dict = dataclass_field(default_factory=dict)
    lambdas: tuple[float, ...] = (1.0,)
    p_list: tuple[float, ...] = (2.0,)
    trials: int = 20
    solver: SolverOptions = SolverOptions()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        for p in self.p_list:
            if not (1.0 < p < math.inf):
                raise ValueError(
                    f"p list must stay inside the open interval (1, inf), got {p}"
                )
        if not self.lambdas:
            raise ValueError("lambda list must not be empty")
        if not self.p_list:
            raise ValueError("p list must not be empty")
        for lam in self.lambdas:
            if not 0 <= lam <= _LAMBDA_CAP:
                raise ValueError(
                    f"'lambdas' entries must be finite and >= 0, at most "
                    f"{_LAMBDA_CAP:g}, got {lam}"
                )

    @classmethod
    def from_mapping(cls, mapping: dict, kind: str | None = None) -> "ExperimentConfig":
        """The config of a mapping in the README schema; `kind` is the
        command that runs it, which an 'experiment' key must agree with.  A
        top-level key the command does not read is an error."""
        if not isinstance(mapping, dict):
            raise ValueError(f"'config' must be an object, got {mapping!r}")
        name = mapping.get("experiment", kind)
        if name is None:
            raise ValueError("config needs an 'experiment' kind")
        name = str(name).replace("-", "_")
        if kind is not None and name != kind.replace("-", "_"):
            raise ValueError(
                f"config 'experiment' {mapping['experiment']!r} does not match "
                f"the command {kind!r}"
            )
        if name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {name!r}")
        mapping = _section(mapping, "config", _CONFIG_KEYS[name])
        coefficient_keys = _COEFFICIENT_KEYS.get(name, ())
        return cls(
            kind=name,
            grid=_grid_from_spec(mapping.get("grid"), name),
            coefficients=dict(
                _section(mapping.get("coefficients"), "coefficients", coefficient_keys)
            ),
            lambdas=_numbers(mapping.get("lambdas", [1.0]), "lambdas"),
            p_list=_numbers(mapping.get("p_list", [2.0]), "p_list"),
            trials=_integer(mapping.get("trials", 20), "trials"),
            solver=_solver_options(mapping.get("solver")),
            seed=_integer(mapping.get("seed", 0), "seed"),
        )


def _solve_problem(mapping: dict) -> tuple[Coefficients, DataBundle, SolverOptions]:
    """The coefficients, data and solver options of a solve config: its grid
    (required), coefficient spec (constant, seed 0 by default), data
    expressions (h, g, f; "0" by default, g one per spatial axis) and lambda."""
    mapping = _section(mapping, "config", _CONFIG_KEYS["solve"])
    if mapping.get("grid") is None:
        raise ValueError("solve config needs a 'grid' section")
    grid = _grid_from_spec(mapping["grid"], "solve")
    spec = _section(mapping.get("coefficients"), "coefficients", _COEFFICIENT_KEYS["solve"])
    coeffs = _coefficients_for(spec, grid, "constant", 0)
    data_spec = _section(mapping.get("data"), "data", _DATA_KEYS)
    if not data_spec:
        raise ValueError("solve config needs a 'data' section with h/g/f expressions")
    lam = _scalar(mapping.get("lambda", 1.0), "lambda")
    h = field_from_expression(grid, data_spec.get("h", "0"))
    g_exprs = data_spec.get("g", ["0"] * grid.d)
    if isinstance(g_exprs, str):
        g_exprs = [g_exprs]
    if not isinstance(g_exprs, list):
        raise ValueError(f"data.g must be a list of expressions, got {g_exprs!r}")
    if len(g_exprs) != grid.d:
        raise ValueError(f"data.g needs {grid.d} expressions, got {len(g_exprs)}")
    g = VectorField(tuple(field_from_expression(grid, e) for e in g_exprs))
    f = field_from_expression(grid, data_spec.get("f", "0"))
    data = DataBundle(h=h, g=g, f=f, lam=lam)
    return coeffs, data, _solver_options(mapping.get("solver"))


def config_hash(config: ExperimentConfig) -> str:
    """First 12 hex digits of the sha256 of the config's canonical JSON (every
    field, with `kind` under its config key 'experiment')."""
    mapping = asdict(config)
    mapping["experiment"] = mapping.pop("kind")
    canon = json.dumps(mapping, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class ExperimentResult:
    name: str
    config_hash: str
    seed: int
    passed: bool
    failures: list[str]
    columns: tuple[str, ...]
    rows: list[dict]
    summary: dict


def _result(
    config: ExperimentConfig, rows: list[dict], failures: list[str], summary: dict
) -> ExperimentResult:
    """The result of running `config`: passed when nothing failed, its CSV
    columns the keys of the first row (every row of a run has the same keys,
    in the same order, and no run has zero rows)."""
    return ExperimentResult(
        name=config.kind,
        config_hash=config_hash(config),
        seed=config.seed,
        passed=not failures,
        failures=failures,
        columns=tuple(rows[0]),
        rows=rows,
        summary=summary,
    )


def _trial_seed(config_seed: int, *key: int) -> int:
    """Stable derived integer seed for a trial-level generator."""
    state = np.random.SeedSequence([config_seed, *key]).generate_state(1)[0]
    return int(state)


def _rng(config_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([config_seed, *key])


# ---------------------------------------------------------------------------
# random field sources


def _unit_l2(grid: Grid, data: np.ndarray, floor: float) -> Field:
    """data scaled to unit L2, or the unit time cosine cos(2 pi t / l_t) when
    the L2 norm of data is not above floor."""
    norm = math.sqrt(float(np.sum(data**2)) * grid.cell_measure)
    if norm <= floor:
        t = grid.coordinate_mesh()[0]
        data = np.cos(2.0 * np.pi * t / grid.l_t) * np.ones(grid.shape)
        norm = math.sqrt(float(np.sum(data**2)) * grid.cell_measure)
    return Field(grid, data / norm)


def random_band_limited_field(
    grid: Grid, rng: np.random.Generator, band: float = 0.25, subspace: bool = False
) -> Field:
    """White noise low-passed to |k| <= band * Nyquist per axis, unit L2.

    With subspace=True the time mean and time Nyquist rows are removed, the
    subspace on which the Hilbert transform is an exact involution.
    """
    return _unit_l2(grid, _band_limited_noise(grid.shape, rng, band, subspace), floor=0.0)


def harmonic_field(grid: Grid, rng: np.random.Generator) -> Field:
    """Random low-order trigonometric polynomial of the physical coordinates,
    unit L2.  The same generator state yields the same physical function on a
    refined grid (the rectangle rule is exact on these, making the
    normalization grid-independent too)."""
    total, _ = _trig_polynomial(rng, grid)
    return _unit_l2(grid, total, floor=1e-12)


def _bundle(grid: Grid, lam: float, draw: Callable[[], Field]) -> DataBundle:
    """Data bundle of independent draws, in the order h, the g components,
    then f when lambda > 0 (f vanishes otherwise)."""
    h = draw()
    g = VectorField(tuple(draw() for _ in range(grid.d)))
    f = draw() if lam > 0 else zeros(grid)
    return DataBundle(h=h, g=g, f=f, lam=lam)


def harmonic_bundle(grid: Grid, rng: np.random.Generator, lam: float) -> DataBundle:
    """Data bundle with independent harmonic h, g components and f."""
    return _bundle(grid, lam, lambda: harmonic_field(grid, rng))


def _band_limited_bundle(grid: Grid, rng: np.random.Generator, lam: float) -> DataBundle:
    return _bundle(grid, lam, lambda: random_band_limited_field(grid, rng, 0.3))


_PIECEWISE_KINDS = ("time_piecewise", "x1_piecewise")


def _coefficients_for(
    spec: dict, grid: Grid, default_kind: str, default_seed: int
) -> Coefficients:
    """The coefficients of a config's coefficient spec: the HTPF stack its
    'file' names, or generate_coefficients of its kind (default_kind), delta
    (1.0; 0.25 for checkerboard, which admits no amplitude at delta = 1) and
    seed (default_seed).  n_jumps is the jump count of the piecewise kinds
    and epsilon the amplitude of checkerboard and smooth; each kind ignores
    the other's key.  A 'file' spec holds no other key."""
    if "file" in spec:
        unread = [key for key in _SPEC_KEYS if key in spec]
        if unread:
            raise ValueError(f"coefficients key {unread[0]!r} does not apply beside 'file'")
        if not isinstance(spec["file"], str):
            raise ValueError(f"'file' must be a sidecar path string, got {spec['file']!r}")
        coeffs = read_coefficients(spec["file"])
        if coeffs.grid != grid:
            raise ValueError("coefficient file grid does not match the config grid")
        return coeffs
    kind = spec.get("kind", default_kind)
    seed = spec.get("seed")
    options = {}
    if kind in _PIECEWISE_KINDS and spec.get("n_jumps") is not None:
        options["roughness_scale"] = _integer(spec["n_jumps"], "n_jumps")
    if kind in ("checkerboard", "smooth") and spec.get("epsilon") is not None:
        options["roughness_scale"] = _scalar(spec["epsilon"], "epsilon")
    if spec.get("cell_size") is not None:
        options["cell_size"] = _scalar(spec["cell_size"], "cell_size")
    return generate_coefficients(
        kind,
        _scalar(spec.get("delta", 0.25 if kind == "checkerboard" else 1.0), "delta"),
        default_seed if seed is None else _integer(seed, "seed"),
        grid,
        **options,
    )


# ---------------------------------------------------------------------------
# identity suite


def _bundle_l2(u: Field, lam: float) -> float:
    """||U||_2 of the solution bundle (D_t^{1/2}u, D+u, sqrt(lambda)u)."""
    return bundle_lp_norm(_solution_parts(u.grid, u.data, lam), u.grid, 2)


_IDENTITY_TOLS = {
    "hilbert_involution": 1e-12,
    "hilbert_isometry": 1e-12,
    "half_adjoint": 1e-10,
    "half_square": 1e-10,
    "spatial_commutation": 1e-12,
    "parseval": 1e-12,
    "weak_equals_strong": 1e-12,
    "coercivity": 1e-10,
    "boundedness": 1e-12,
    "oracle_residual": 1e-10,
    "duality_skewness": 1e-12,
    "reduction_identity": 1e-11,
}

_ROUGH_KINDS = ("time_piecewise", "x1_piecewise", "checkerboard", "smooth")


def _identity_trial(config: ExperimentConfig, trial: int) -> list[dict]:
    grid = config.grid
    seed = _trial_seed(config.seed, trial)
    rng = _rng(config.seed, trial)
    delta = (0.25, 0.5, 1.0)[trial % 3]
    lam = (0.5, 1.0, 2.0)[trial % 3]
    kappa = delta**2 / 2.0

    u_sub = random_band_limited_field(grid, rng, subspace=True)
    u = random_band_limited_field(grid, rng)
    phi = random_band_limited_field(grid, rng)

    kind = _ROUGH_KINDS[trial % 4]
    if kind == "checkerboard" and delta == 1.0:
        kind = "constant"  # at delta = 1 no checkerboard amplitude is admissible
    rough = generate_coefficients(kind, delta, _trial_seed(config.seed, trial, 1), grid)
    constant = generate_coefficients(
        "constant", delta, _trial_seed(config.seed, trial, 2), grid
    )

    devs: dict[str, float] = {}

    hh = hilbert(hilbert(u_sub))
    devs["hilbert_involution"] = _norm(hh.data + u_sub.data) / _norm(u_sub.data)
    devs["hilbert_isometry"] = abs(lp_norm(hilbert(u_sub), 2) - lp_norm(u_sub, 2)) / (
        lp_norm(u_sub, 2)
    )

    dphi = time_derivative(phi)
    lhs = inner(hilbert(half_derivative(u)), half_derivative(phi))
    rhs = inner(u, dphi)
    devs["half_adjoint"] = abs(lhs - rhs) / (lp_norm(u, 2) * lp_norm(dphi, 2) + 1e-300)

    du = time_derivative(u)
    twice = half_derivative(half_derivative(u))
    devs["half_square"] = _norm(twice.data - hilbert(du).data) / (_norm(du.data) + 1e-300)

    rolled = Field(grid, np.roll(u.data, 3, axis=1))
    commute = _norm(hilbert(rolled).data - np.roll(hilbert(u).data, 3, axis=1))
    devs["spatial_commutation"] = commute / _norm(u.data)

    # time transform with the symmetric 1/sqrt(2*pi) convention
    coeff = np.fft.fft(u.data, axis=0) * (grid.dt / np.sqrt(2.0 * np.pi))
    spectral = float(np.sum(np.abs(coeff) ** 2)) * (2.0 * np.pi / grid.l_t) * float(
        np.prod(grid.h)
    )
    direct = lp_norm(u, 2) ** 2
    devs["parseval"] = abs(spectral - direct) / direct

    strong = inner(apply_operator(rough, lam, u), phi)
    weak = weak_pairing(rough, lam, u, phi)
    devs["weak_equals_strong"] = abs(weak - strong) / (abs(strong) + 1.0)

    u_norm_sq = _bundle_l2(u, lam) ** 2
    form = twisted_pairing(rough, lam, kappa, u, u)
    devs["coercivity"] = ((delta**2 / 2.0) * u_norm_sq - form) / u_norm_sq

    phi_norm = _bundle_l2(phi, lam)
    bound = (1.0 + kappa) * (1.0 + 1.0 / delta) * math.sqrt(u_norm_sq) * phi_norm
    cross = twisted_pairing(rough, lam, kappa, u, phi)
    devs["boundedness"] = (abs(cross) - bound) / bound

    data = _band_limited_bundle(grid, rng, lam)
    oracle = solve_oracle(constant, data)
    devs["oracle_residual"] = oracle.final_relative_residual

    defect = duality_defect(rough, lam, u, phi)
    devs["duality_skewness"] = defect / (math.sqrt(u_norm_sq) * phi_norm + 1e-300)

    r_before = residual(rough, data, u)
    identity, reduced = reduce_to_identity(rough, data, u)
    r_after = residual(identity, reduced, u)
    devs["reduction_identity"] = _norm(r_before.data - r_after.data) / (
        _norm(r_before.data) + 1e-300
    )

    rows = []
    for name, dev in devs.items():
        tol = _IDENTITY_TOLS[name]
        rows.append(
            {
                "trial": trial,
                "seed": seed,
                "identity": name,
                "deviation": float(dev),
                "tolerance": tol,
                "passed": bool(dev <= tol),
            }
        )
    return rows


def run_identity_suite(config: ExperimentConfig) -> ExperimentResult:
    """Every exact discrete identity of the time calculus and the variational
    layer, over `trials` random band-limited fields; reports the worst
    deviation per identity with the seed that produced it."""
    rows = [
        row for trial in range(config.trials) for row in _identity_trial(config, trial)
    ]
    worst: dict[str, dict] = {}
    for row in rows:
        name = row["identity"]
        if name not in worst or row["deviation"] > worst[name]["deviation"]:
            worst[name] = {
                "deviation": row["deviation"],
                "seed": row["seed"],
                "tolerance": row["tolerance"],
            }
    failures = [
        f"identity {name}: worst deviation {info['deviation']} > {info['tolerance']} "
        f"(seed {info['seed']})"
        for name, info in sorted(worst.items())
        if info["deviation"] > info["tolerance"]
    ]
    return _result(config, rows, failures, {"worst": worst, "trials": config.trials})


# ---------------------------------------------------------------------------
# L2 trials


def _one_lambda(config: ExperimentConfig) -> float:
    """The weight of an experiment that runs at a single lambda > 0."""
    if len(config.lambdas) != 1 or config.lambdas[0] <= 0:
        got = list(config.lambdas)
        raise ValueError(f"'lambdas' must hold one lambda > 0 for {config.kind}, got {got}")
    return config.lambdas[0]


def _l2_trial(config: ExperimentConfig, trial: int) -> dict:
    grid = config.grid
    lam = config.lambdas[0]
    seed = _trial_seed(config.seed, trial, 1)
    coeffs = _coefficients_for(config.coefficients, grid, "constant", seed)
    rng = _rng(config.seed, trial, 2)
    data = _band_limited_bundle(grid, rng, lam)
    result = solve(coeffs, data, config.solver)
    norms = compute_bundles(result, data, (2.0,))
    norm_f = norms["F"][2.0]
    norm_u = norms["U"][2.0]
    trivial = norm_f == 0.0
    ratio = None if trivial else norm_u / norm_f
    bound = multiplier_bound(coeffs, lam) if coeffs.tag == "constant" else None
    ok = result.converged and (trivial or math.isfinite(ratio))
    if bound is not None and ratio is not None:
        ok = ok and ratio <= bound + 1e-8
    return {
        "trial": trial,
        "seed": seed,
        "kind": coeffs.tag,
        "lambda": lam,
        "norm_U": norm_u,
        "norm_F": norm_f,
        "ratio": ratio,
        "bound": bound,
        "iterations": result.iterations,
        "residual": result.final_relative_residual,
        "trivial": trivial,
        "passed": ok,
    }


def _single_mode_check(config: ExperimentConfig) -> dict:
    """h-only data on one time mode: the ratio has the closed form
    sqrt(omega*(omega+lambda)/(omega^2+lambda^2)), exact on the lattice."""
    grid = config.grid
    lam = config.lambdas[0]
    mode = 3
    omega = 2.0 * np.pi * mode / grid.l_t
    mesh = grid.coordinate_mesh()
    h = Field(grid, np.cos(omega * mesh[0]) * np.ones(grid.shape))
    zero = zeros(grid)
    data = DataBundle(
        h=h,
        g=VectorField(tuple(zero for _ in range(grid.d))),
        f=zero,
        lam=lam,
    )
    coeffs = identity_coefficients(grid)
    result = solve_oracle(coeffs, data)
    norms = compute_bundles(result, data, (2.0,))
    ratio = norms["U"][2.0] / norms["F"][2.0]
    predicted = math.sqrt(omega * (omega + lam) / (omega**2 + lam**2))
    return {
        "mode": mode,
        "omega": omega,
        "ratio": ratio,
        "predicted": predicted,
        "deviation": abs(ratio - predicted),
        "tolerance": 1e-10,
        "passed": abs(ratio - predicted) <= 1e-10,
    }


def run_l2_trials(config: ExperimentConfig) -> ExperimentResult:
    """Solve `trials` random instances and record ||U||_2/||F||_2; constant
    coefficients are additionally checked against the per-mode multiplier
    bound, and one single-mode instance against its closed-form ratio."""
    _one_lambda(config)
    rows = [_l2_trial(config, trial) for trial in range(config.trials)]
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    mode_check = _single_mode_check(config)
    failures = [
        f"trial {r['trial']} failed (ratio {r['ratio']}, bound {r['bound']}, "
        f"residual {r['residual']}, seed {r['seed']})"
        for r in rows
        if not r["passed"]
    ]
    if not mode_check["passed"]:
        failures.append(
            f"single-mode ratio {mode_check['ratio']} deviates from closed form "
            f"{mode_check['predicted']} by {mode_check['deviation']}"
        )
    summary = {
        "max_ratio": max(ratios) if ratios else None,
        "median_ratio": float(np.median(ratios)) if ratios else None,
        "trials": config.trials,
        "mode_check": mode_check,
    }
    return _result(config, rows, failures, summary)


# ---------------------------------------------------------------------------
# Lp sweep


_SWEEP_KINDS = ("time_piecewise", "x1_piecewise", "checkerboard")


def _doubled(grid: Grid) -> Grid:
    return make_grid(
        d=grid.d,
        n_t=2 * grid.n_t,
        n_x=tuple(2 * n for n in grid.n_x),
        l_t=grid.l_t,
        l_x=grid.l_x,
    )


def _sweep_coefficients(
    config: ExperimentConfig, grid: Grid, kind: str, kind_index: int, trial: int
) -> Coefficients:
    """The sweep's coefficients of one kind, from the config's spec."""
    spec = dict(config.coefficients, kind=kind)
    return _coefficients_for(spec, grid, kind, _trial_seed(config.seed, kind_index, trial, 3))


def _sweep_cell(
    config: ExperimentConfig,
    grid: Grid,
    label: str,
    kind: str,
    kind_index: int,
    trial: int,
) -> list[dict]:
    coeffs = _sweep_coefficients(config, grid, kind, kind_index, trial)
    # one (h, g, f) draw and its right-hand side shared by every lambda (all
    # positive in a sweep)
    rng = _rng(config.seed, kind_index, trial, 4)
    drawn = harmonic_bundle(grid, rng, config.lambdas[0])
    p_all = tuple(sorted(set(config.p_list) | {2.0}))
    rows = []
    for lam in config.lambdas:
        data = _at_lambda(drawn, lam)
        result = solve(coeffs, data, config.solver)
        norms = compute_bundles(result, data, p_all)
        for p in p_all:
            norm_f = norms["F"][p]
            ratio = norms["U"][p] / norm_f if norm_f > 0 else None
            rows.append(
                {
                    "grid": label,
                    "kind": kind,
                    "trial": trial,
                    "seed": _trial_seed(config.seed, kind_index, trial, 3),
                    "lambda": lam,
                    "p": p,
                    "norm_U": norms["U"][p],
                    "norm_F": norm_f,
                    "ratio": ratio,
                    "iterations": result.iterations,
                    "residual": result.final_relative_residual,
                    "converged": result.converged,
                }
            )
        del result  # its slots die before the next lambda's solve
    return rows


def _lambda_zero_estimate(lambdas: tuple[float, ...], max_ratio: dict) -> float:
    """Smallest swept lambda after which the max ratio moves <= 10% per
    doubling step.  The largest lambda has no later step, so when the ratio
    never settles the estimate falls back to the largest swept lambda."""
    ordered = sorted(lambdas)
    jumps = [
        idx
        for idx, (a, b) in enumerate(zip(ordered, ordered[1:]))
        if abs(max_ratio[b] - max_ratio[a]) > 0.1 * max_ratio[a]
    ]
    return ordered[jumps[-1] + 1] if jumps else ordered[0]


def run_lp_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Ratio tables over (kind, lambda, p) with a refinement-stability factor
    from a doubled grid, a lambda_0 estimate, and exactness spot checks."""
    if any(lam <= 0 for lam in config.lambdas):
        raise ValueError("run_lp_sweep needs lambda > 0 entries")
    kinds = config.coefficients.get("kinds")
    if kinds is None:
        kinds = [config.coefficients.get("kind", "time_piecewise")]
    elif "kind" in config.coefficients:
        raise ValueError("coefficients key 'kind' does not apply beside 'kinds'")
    if not isinstance(kinds, (list, tuple)):
        raise ValueError(f"'kinds' must be a list of kind names, got {kinds!r}")
    if not kinds:
        raise ValueError("'kinds' must name at least one kind, got []")
    for kind in kinds:
        if kind not in _SWEEP_KINDS:
            raise ValueError(
                f"sweep kinds must be in {_SWEEP_KINDS}, got {kind!r}"
            )

    rows = [
        row
        for label, grid in (("base", config.grid), ("doubled", _doubled(config.grid)))
        for kind_index, kind in enumerate(kinds)
        for trial in range(config.trials)
        for row in _sweep_cell(config, grid, label, kind, kind_index, trial)
    ]

    finite = all(
        row["ratio"] is None or math.isfinite(row["ratio"]) for row in rows
    )
    base_rows = [r for r in rows if r["grid"] == "base" and r["ratio"] is not None]
    doubled_rows = [r for r in rows if r["grid"] == "doubled" and r["ratio"] is not None]
    max_base = max(r["ratio"] for r in base_rows)
    max_doubled = max(r["ratio"] for r in doubled_rows)
    stability = max_doubled / max_base

    per_lambda = {
        lam: max(r["ratio"] for r in base_rows if r["lambda"] == lam)
        for lam in config.lambdas
    }
    lambda_zero = _lambda_zero_estimate(config.lambdas, per_lambda)

    # duality spot check on one solved pair per kind
    duality_worst = 0.0
    grid = config.grid
    for kind_index, kind in enumerate(kinds):
        coeffs = _sweep_coefficients(config, grid, kind, kind_index, 0)
        rng = _rng(config.seed, kind_index, 900)
        u = random_band_limited_field(grid, rng)
        v = random_band_limited_field(grid, rng)
        lam = config.lambdas[0]
        scale = _bundle_l2(u, lam) * _bundle_l2(v, lam)
        duality_worst = max(duality_worst, duality_defect(coeffs, lam, u, v) / scale)

    failures = []
    if not finite:
        failures.append("non-finite ratio in sweep table")
    if stability > 1.5:
        failures.append(
            f"refinement stability factor {stability} exceeds 1.5 "
            f"(base {max_base}, doubled {max_doubled})"
        )
    if duality_worst > 1e-12:
        failures.append(f"duality skewness {duality_worst} exceeds 1e-12")
    bad = [row for row in rows if not row["converged"]]
    if bad:
        failures.append(
            f"{len(bad)} solves did not converge (first: kind {bad[0]['kind']}, "
            f"lambda {bad[0]['lambda']}, residual {bad[0]['residual']})"
        )

    summary = {
        "kinds": list(kinds),
        "max_ratio_base": max_base,
        "max_ratio_doubled": max_doubled,
        "stability_factor": stability,
        "lambda_zero_estimate": lambda_zero,
        "max_ratio_per_lambda": {str(k): v for k, v in per_lambda.items()},
        "duality_skewness": duality_worst,
    }
    return _result(config, rows, failures, summary)


# ---------------------------------------------------------------------------
# tail decay


def run_tail_decay(config: ExperimentConfig) -> ExperimentResult:
    """Cutoff-commutator norms against the dyadically weighted window bound.

    u is a centered Gaussian of a time-only field; for k = 2..k_max the
    commutator norm ||u_k||_p must decay like 2^{-k/2} times the weighted sum
    of window norms; the fitted log2 slope must be <= -0.4 and the measured
    constant of the displayed bound is reported.
    """
    grid = config.grid
    k_max = _integer(config.coefficients.get("k_max", 6), "k_max")
    if k_max < 3:
        raise ValueError(f"k_max must be >= 3 to fit a decay slope, got {k_max}")
    if k_max + 3 > math.log2(grid.l_t):  # 2.0 ** (k_max + 3) may overflow
        raise ValueError(
            f"grid too short for 'k_max' {k_max}: l_t = {grid.l_t} < 2^{k_max + 3}"
        )
    mesh = grid.coordinate_mesh()
    profile = np.exp(-mesh[0] ** 2) * np.ones(grid.shape)
    u = Field(grid, profile)

    rows = []
    failures = []
    slopes = {}
    constants = {}
    for p in config.p_list:
        q = 0.5 + 1.0 / p
        full = lp_norm(u, p)
        norms = []
        for k in range(2, k_max + 1):
            u_k = cutoff_commutator(u, k)
            norm_k = lp_norm(u_k, p)
            # weighted window sum, split where the window saturates the torus
            weighted = 0.0
            j = 1
            while 2.0 ** (k + j) < 0.5 * grid.l_t:
                weighted += 2.0 ** (-j * q) * time_window_lp_norm(u, 2.0 ** (k + j), p)
                j += 1
            weighted += full * 2.0 ** (-j * q) / (1.0 - 2.0 ** (-q))
            bound = 2.0 ** (-k / 2.0) * weighted
            ratio = norm_k / bound if bound > 0 else None
            norms.append(norm_k)
            rows.append(
                {
                    "p": p,
                    "k": k,
                    "norm": norm_k,
                    "weighted_sum": weighted,
                    "bound": bound,
                    "ratio": ratio,
                }
            )
        ks = np.arange(2, k_max + 1)
        if all(n > 0 for n in norms):
            slope = float(np.polyfit(ks, np.log2(norms), 1)[0])
        else:
            slope = None
        slopes[str(p)] = slope
        ratios = [r["ratio"] for r in rows if r["p"] == p and r["ratio"] is not None]
        constants[str(p)] = max(ratios) if ratios else None
        if slope is None or slope > -0.4:
            failures.append(f"p={p}: fitted slope {slope} exceeds -0.4")

    summary = {"k_max": k_max, "fitted_slope": slopes, "measured_constant": constants}
    return _result(config, rows, failures, summary)


# ---------------------------------------------------------------------------
# oscillation experiments


def _seam_bump(grid: Grid, width: float) -> np.ndarray:
    """Gaussian spatial bump centered at the far side of every spatial axis,
    numerically zero on the unit ball around the origin."""
    dist_sq = _spatial_dist_sq(grid, tuple(l / 2.0 for l in grid.l_x))
    return np.exp(-dist_sq.reshape(1, *grid.n_x) / width**2)


def _time_noise(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Twelve random cosines in time, each of a mode drawn from 1..32, as an
    open-mesh time column (n_t, 1, ..., 1)."""
    t = grid.coordinate_mesh()[0]
    total = np.zeros(t.shape)
    for _ in range(12):
        k = int(rng.integers(1, 33))
        amp = float(rng.standard_normal())
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        total = total + amp * np.cos(2.0 * np.pi * k * t / grid.l_t + phase)
    return total


def _localized_bundle(grid: Grid, rng: np.random.Generator, lam: float) -> DataBundle:
    bump = _seam_bump(grid, width=0.12)
    return _bundle(grid, lam, lambda: Field(grid, bump * _time_noise(grid, rng)))


def _oscillation_spec(config: ExperimentConfig) -> tuple[float, tuple[float, ...], float]:
    """(delta, kappas, outer radius) of an oscillation config.  kappas is a
    non-empty list of finite kappa >= 4, and Q_r(0) and every Q_{r/kappa}(0)
    fit the grid and hold samples, so each case has one row per kappa."""
    spec = config.coefficients
    delta = _scalar(spec.get("delta", 0.5), "delta")
    kappas = _numbers(spec.get("kappas", [4.0, 8.0, 16.0]), "kappas")
    r_outer = _scalar(spec.get("outer_radius", 1.0), "outer_radius")
    if not kappas:
        raise ValueError("'kappas' must hold at least one kappa, got []")
    for kappa in kappas:
        if not (math.isfinite(kappa) and kappa >= 4.0):
            raise ValueError(f"'kappas' entries must be finite and >= 4, got {kappa}")
    center = (0.0,) * (config.grid.d + 1)
    for kappa in (1.0,) + kappas:
        try:
            _cylinder_masks(config.grid, Cylinder(center, r=r_outer / kappa))
        except ValueError as exc:
            raise ValueError(
                f"'outer_radius' {r_outer} with 'kappas' {list(kappas)} does not suit "
                f"the grid: {exc}"
            ) from None
    return delta, kappas, r_outer


def run_oscillation_experiments(config: ExperimentConfig) -> ExperimentResult:
    """Oscillation-decay regression for the three coefficient structures plus
    the interior-estimate verifier with its refinement and rescaling checks.

    Data are spatially supported at the far seam of the torus, so every tail
    cylinder around the origin carries (numerically) zero data and the
    measured decay is the homogeneous rate.  The summary's ``solves`` reports
    each case's final relative residual, iteration count and solve path.
    """
    grid = config.grid
    lam = _one_lambda(config)
    delta, kappas, r_outer = _oscillation_spec(config)
    center = (0.0,) * (grid.d + 1)

    # case: (coefficient kind, its delta, the fitted decay it must reach)
    cases = {
        "calU_time_coeffs": ("time_piecewise", delta, -0.9),
        "U_heat": (None, 1.0, -0.9),
        "calUprime_theta_x1": ("x1_piecewise", delta, -0.45),
    }
    rows = []
    failures = []
    decays = {}
    solves = {}
    for index, (case, (kind, case_delta, threshold)) in enumerate(cases.items()):
        if kind is None:
            coeffs = identity_coefficients(grid)
        else:
            coeffs = generate_coefficients(
                kind, case_delta, _trial_seed(config.seed, 50 + index), grid
            )
        rng = _rng(config.seed, 60 + index)
        data = _localized_bundle(grid, rng, lam)
        result = solve(coeffs, data, config.solver)
        solves[case] = {
            "final_relative_residual": result.final_relative_residual,
            "iterations": result.iterations,
            "method": result.method,
        }
        if not result.converged:
            failures.append(
                f"case {case}: solve did not converge (residual "
                f"{result.final_relative_residual} after {result.iterations} iterations)"
            )
        report = verify_mean_oscillation(
            case,
            coeffs,
            data,
            result,
            r_outer,
            center,
            kappas,
            rtol=max(10.0 * result.final_relative_residual, 1e-8),
        )
        del result  # its slots die before the next case's solve
        decays[case] = report.fitted_decay
        for row in report.rows:
            rows.append(
                {
                    "case": case,
                    "kappa": row.kappa,
                    "inner_radius": row.inner_radius,
                    "oscillation": row.lhs,
                    "term_homogeneous": row.term_homogeneous,
                    "term_tail": row.term_tail,
                    "n_emp": row.n_emp,
                    "fitted_decay": report.fitted_decay,
                }
            )
        if report.fitted_decay is None or report.fitted_decay > threshold:
            failures.append(
                f"case {case}: fitted decay {report.fitted_decay} exceeds {threshold}"
            )

    local = _local_estimate_checks(config)
    failures.extend(local.pop("failures"))

    summary = {"fitted_decay": decays, "local_estimate": local, "solves": solves}
    return _result(config, rows, failures, summary)


def _local_estimate_checks(config: ExperimentConfig) -> dict:
    """Interior estimate on a manufactured compactly supported solution, with
    the time-refinement (20%) and exact parabolic-rescaling (5%) stability
    checks from the verifier contract."""
    lam = config.lambdas[0]
    radius = 1.0
    base = make_grid(1, 256, 256, 4.0, 4.0)

    def instance(grid: Grid) -> tuple[Coefficients, DataBundle, Field]:
        mesh = grid.coordinate_mesh()
        cut = np.clip(1.0 - (mesh[1] / radius) ** 2, 0.0, None) ** 4
        wave = np.cos(2.0 * np.pi * mesh[0] / grid.l_t) + 0.5 * np.sin(
            4.0 * np.pi * mesh[0] / grid.l_t
        )
        u = Field(grid, cut * wave)
        coeffs = generate_coefficients(
            "smooth", 0.5, _trial_seed(config.seed, 77), grid
        )
        return coeffs, manufacture_data(coeffs, lam, u), u

    coeffs, data, u = instance(base)
    report = verify_local_estimate(coeffs, data, u, radius)

    fine_grid = make_grid(1, 512, 256, 4.0, 4.0)
    coeffs_f, data_f, u_f = instance(fine_grid)
    fine = verify_local_estimate(coeffs_f, data_f, u_f, radius)

    # parabolic rescaling: same samples, periods (4 l_t, 2 l_x), lambda/4,
    # doubled radius; covariance is exact on the lattice
    big = make_grid(1, 256, 256, 16.0, 8.0)
    coeffs_b = replace(coeffs, grid=big)
    u_b = Field(big, u.data)
    data_b = manufacture_data(coeffs_b, lam / 4.0, u_b)
    scaled = verify_local_estimate(coeffs_b, data_b, u_b, 2.0 * radius)

    zero = zeros(base)
    zero_data = DataBundle(h=zero, g=VectorField((zero,)), f=zero, lam=lam)
    trivial = verify_local_estimate(coeffs, zero_data, zero, radius)

    failures = []
    refine_dev = abs(fine.n_emp - report.n_emp) / report.n_emp
    rescale_dev = abs(scaled.n_emp - report.n_emp) / report.n_emp
    if refine_dev > 0.2:
        failures.append(f"local estimate N_emp moved {refine_dev} under n_t doubling")
    if rescale_dev > 0.05:
        failures.append(f"local estimate N_emp moved {rescale_dev} under rescaling")
    if not trivial.trivial:
        failures.append("zero data did not produce a trivial local-estimate report")
    return {
        "n_emp": report.n_emp,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "terms_used": report.terms_used,
        "refinement_deviation": refine_dev,
        "rescaling_deviation": rescale_dev,
        "trivial_flagged": trivial.trivial,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# assumption report


def run_assumption_report(config: ExperimentConfig) -> ExperimentResult:
    """Both mean-oscillation checkers on every generator kind, asserting the
    structural zeros (time-measurable and x1-measurable coefficients) and the
    checkerboard bracket."""
    grid = config.grid
    delta = _scalar(config.coefficients.get("delta", 0.25), "delta")
    epsilon = _scalar(config.coefficients.get("epsilon", min(0.5, 1.0 - delta)), "epsilon")
    r_zero = _scalar(config.coefficients.get("r_zero", min(grid.l_x) / 4.0), "r_zero")

    kinds = ("constant", "time_piecewise", "x1_piecewise", "checkerboard", "smooth")
    rows = []
    failures = []
    gammas: dict[str, dict[str, float]] = {}
    for index, kind in enumerate(kinds):
        scale = epsilon if kind == "checkerboard" else None
        coeffs = generate_coefficients(
            kind, delta, _trial_seed(config.seed, 30 + index), grid, roughness_scale=scale
        )
        time_rep = check_assumption_time(coeffs, r_zero)
        x1_rep = check_assumption_x1(coeffs, r_zero)
        gammas[kind] = {"time": time_rep.gamma_estimate, "x1": x1_rep.gamma_estimate}
        for checker, rep in (("time", time_rep), ("x1", x1_rep)):
            rows.append(
                {
                    "kind": kind,
                    "checker": checker,
                    "gamma": rep.gamma_estimate,
                    "worst_radius": rep.worst_radius,
                    "centers_scanned": rep.centers_scanned,
                    "seed": _trial_seed(config.seed, 30 + index),
                }
            )
        if kind == "constant" and max(gammas[kind].values()) > 1e-12:
            failures.append(f"constant coefficients: gamma {gammas[kind]} not ~ 0")
        if kind == "time_piecewise" and gammas[kind]["time"] > 1e-12:
            failures.append(
                f"time-measurable coefficients: time-checker gamma "
                f"{gammas[kind]['time']} > 1e-12"
            )
        if kind == "x1_piecewise" and gammas[kind]["x1"] > 1e-12:
            failures.append(
                f"x1-measurable coefficients: x1-checker gamma "
                f"{gammas[kind]['x1']} > 1e-12"
            )
        if kind == "checkerboard":
            gamma = gammas[kind]["time"]
            if not (epsilon / 4.0 <= gamma <= 2.0 * epsilon):
                failures.append(
                    f"checkerboard gamma {gamma} outside [{epsilon / 4.0}, {2.0 * epsilon}]"
                )

    summary = {"gamma": gammas, "epsilon": epsilon, "r_zero": r_zero}
    return _result(config, rows, failures, summary)


# ---------------------------------------------------------------------------
# emission


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write trials.csv (repr floats, empty cells for None) and summary.json
    (in htpf._write_json's format) under out_dir; bytes depend only on the
    result contents."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trials.csv"
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_cell_text(row[col]) for col in result.columns))
    _replace(csv_path, ("\n".join(lines) + "\n").encode())

    summary_path = out / "summary.json"
    payload = {
        "experiment": result.name,
        "config_hash": result.config_hash,
        "seed": result.seed,
        "passed": result.passed,
        "failures": result.failures,
        "summary": result.summary,
    }
    _write_json(summary_path, payload)
    return csv_path, summary_path


EXPERIMENTS = {
    "identities": run_identity_suite,
    "l2": run_l2_trials,
    "lp_sweep": run_lp_sweep,
    "tail_decay": run_tail_decay,
    "oscillation": run_oscillation_experiments,
    "assumptions": run_assumption_report,
}
