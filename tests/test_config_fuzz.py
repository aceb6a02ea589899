"""Property fuzz of the config schema: whatever JSON value a known key holds,
parsing either succeeds or raises ValueError (which the CLI turns into a
one-line JSON failure), never another exception; a key a command does not
read is a ValueError naming it.

Parse only: `ExperimentConfig.from_mapping` builds no arrays, and
`experiments._solve_problem` builds the coefficients and data of a small
solve config; no experiment and no solve runs.  Drawn integers stay within
+-4096 (plus a few huge values), so no drawn grid or jump count allocates
much.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from halfheat.experiments import (
    _COEFFICIENT_KEYS,
    _CONFIG_KEYS,
    _GRID_KEYS,
    _SOLVER_KEYS,
    ExperimentConfig,
    _solve_problem,
)

_PRIMITIVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4096, 4096),
    st.sampled_from([2**64, -(2**64), 10**30, 10**400, -(10**400), 5e-324, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)
JSON_VALUES = st.one_of(
    _PRIMITIVES,
    st.lists(_PRIMITIVES, max_size=4),
    st.dictionaries(st.text(max_size=6), _PRIMITIVES, max_size=3),
)

_EXPERIMENTS = ("identities", "l2", "lp_sweep", "tail_decay", "oscillation", "assumptions")
# every top-level key some experiment reads, and every coefficient key some
# command reads; most commands reject some of them
_ANY_CONFIG_KEY = sorted({key for kind in _EXPERIMENTS for key in _CONFIG_KEYS[kind]})
_ANY_COEFFICIENT_KEY = sorted({key for keys in _COEFFICIENT_KEYS.values() for key in keys})
_SOLVE_BASE = {
    "grid": {"d": 1, "n_t": 16, "n_x": 16, "l_t": 2.0, "l_x": 2.0},
    "coefficients": {"kind": "x1_piecewise", "delta": 0.5, "seed": 3},
    "data": {"h": "cos(t)", "g": ["x1/4"], "f": "0.5"},
    "lambda": 2.0,
    "solver": {},
}
_SOLVE_KEYS = (
    [("lambda", None)]
    + [(section, None) for section in ("grid", "coefficients", "solver", "data")]
    + [("grid", key) for key in _GRID_KEYS]
    + [("coefficients", key) for key in _COEFFICIENT_KEYS["solve"]]
    + [("solver", key) for key in _SOLVER_KEYS]
    + [("data", key) for key in ("h", "g", "f")]
)
_BASE_KINDS = ("constant", "time_piecewise", "x1_piecewise", "checkerboard", "smooth")

_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _parses_or_rejects(parse) -> None:
    try:
        parse()
    except ValueError:
        pass


@_FUZZ
@given(
    st.sampled_from(_EXPERIMENTS),
    st.sampled_from(
        [(key, None) for key in _ANY_CONFIG_KEY]
        + [("grid", key) for key in _GRID_KEYS]
        + [("solver", key) for key in _SOLVER_KEYS]
        + [("coefficients", key) for key in _ANY_COEFFICIENT_KEY]
    ),
    JSON_VALUES,
)
def test_experiment_config_parses_or_raises_value_error(kind, where, value):
    section, key = where
    mapping = {"experiment": kind}
    if key is None:
        mapping[section] = value
    else:
        mapping[section] = {key: value}
    _parses_or_rejects(lambda: ExperimentConfig.from_mapping(mapping))
    if section not in _CONFIG_KEYS[kind]:
        with pytest.raises(ValueError, match=f"unknown config key '{section}'"):
            ExperimentConfig.from_mapping(mapping)
    elif section == "coefficients" and key is not None and key not in _COEFFICIENT_KEYS[kind]:
        with pytest.raises(ValueError, match=f"unknown coefficients key '{key}'"):
            ExperimentConfig.from_mapping(mapping)


_KNOWN = {"grid": _GRID_KEYS, "solver": _SOLVER_KEYS}


@_FUZZ
@given(
    st.sampled_from(_EXPERIMENTS),
    st.sampled_from(("config", "grid", "coefficients", "solver")),
    st.text(max_size=8),
    JSON_VALUES,
)
def test_unknown_experiment_keys_are_named(kind, section, key, value):
    """A key the command does not read fails, naming the key, whatever its
    value: it is never dropped silently.  A section the command does not read
    fails as an unknown config key."""
    if section == "config":
        known = _CONFIG_KEYS[kind]
    elif section == "coefficients":
        known = _COEFFICIENT_KEYS.get(kind, ())
    else:
        known = _KNOWN[section]
    assume(key not in known)
    mapping = {"experiment": kind}
    if section == "config":
        mapping[key] = value
    else:
        mapping[section] = {key: value}
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_mapping(mapping)
    if section == "config" or section in _CONFIG_KEYS[kind]:
        assert str(info.value).startswith(f"unknown {section} key {key!r}")
    else:
        assert str(info.value).startswith(f"unknown config key {section!r}")


@_FUZZ
@given(st.sampled_from(_SOLVE_KEYS), st.sampled_from(_BASE_KINDS), JSON_VALUES)
def test_solve_config_parses_or_raises_value_error(where, base_kind, value):
    section, key = where
    mapping = {k: (dict(v) if isinstance(v, dict) else v) for k, v in _SOLVE_BASE.items()}
    mapping["coefficients"]["kind"] = base_kind
    if base_kind == "checkerboard":
        mapping["coefficients"]["epsilon"] = 0.25
    if key is None:
        mapping[section] = value
    else:
        mapping[section][key] = value
    _parses_or_rejects(lambda: _solve_problem(mapping))


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({"trials": 2.5}, "'trials' must be an integer, got 2.5"),
        ({"seed": 1.9}, "'seed' must be an integer, got 1.9"),
        ({"trials": True}, "'trials' must be an integer, got True"),
        ({"grid": {"n_t": 64.5}}, "'n_t' must be an integer, got 64.5"),
        ({"grid": {"d": False}}, "'d' must be an integer, got False"),
        ({"grid": {"n_x": [64, 32.5], "d": 2}}, "'n_x[1]' must be an integer, got 32.5"),
        ({"solver": {"restart": 10.5}}, "'restart' must be an integer, got 10.5"),
        ({"solver": {"max_iterations": True}}, "'max_iterations' must be an integer, got True"),
    ],
)
def test_integer_keys_are_not_truncated(mapping, message):
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_mapping({"experiment": "l2", **mapping})
    assert message in str(info.value)


def test_integral_values_still_read_as_integers():
    config = ExperimentConfig.from_mapping(
        {"experiment": "l2", "trials": 2.0, "seed": "7", "grid": {"n_t": 32.0}}
    )
    assert (config.trials, config.seed, config.grid.n_t) == (2, 7, 32)
    assert all(isinstance(v, int) for v in (config.trials, config.seed, config.grid.n_t))

