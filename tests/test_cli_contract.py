"""The CLI contract on runs, not only on parsing: each command, run through
`cli.main` on a small grid with one config value set to an extreme finite
number, exits 0, or exits 1 with one JSON line; it never raises.

RuntimeWarning keeps its default action here, as in the CLI: an overflow the
input causes may warn, but the run must still end in one JSON line.  Each run
takes about 0.02 s (oscillation, which solves three 128x64 cases, up to about
1 s), so the example count keeps the test near 5 s.  `trials` draws no huge
value: a run lasts as long as its trial count.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halfheat.cli import main

_SMALL = {"d": 1, "n_t": 16, "n_x": 16, "l_t": 2.0, "l_x": 2.0}
_BASES = {
    "identities": {"grid": _SMALL, "trials": 1},
    "l2": {"grid": _SMALL, "trials": 1},
    "lp-sweep": {"grid": _SMALL, "trials": 1},
    "tail-decay": {},
    "oscillation": {"grid": {"n_t": 128, "n_x": 64}},
    "assumptions": {"grid": _SMALL},
    "solve": {
        "grid": _SMALL,
        "coefficients": {"kind": "x1_piecewise", "delta": 0.5, "seed": 3},
        "data": {"h": "cos(t)", "g": ["x1/4"], "f": "0.5"},
        "lambda": 2.0,
    },
}
_FLOATS = (5e-324, -5e-324, 1e-300, 1e75, 1e300, 1e9, -1.0, -1e300, 0.0)
_INTS = (10**9, -(10**9), -1, 0)
_KINDS = ("constant", "time_piecewise", "x1_piecewise", "checkerboard", "smooth")


def _keys(command: str) -> list[tuple[tuple[str, ...], tuple]]:
    """(path, values) of every number the command reads.  A path is a
    top-level key, or a section and its key; a coefficient key of a
    generator spec also names the kind it is drawn for."""
    keys = [(("grid", key), _INTS) for key in ("d", "n_t", "n_x")]
    keys += [(("grid", key), _FLOATS) for key in ("l_t", "l_x")]
    lists = tuple([v] for v in _FLOATS)
    if command != "solve":
        keys.append((("seed",), _INTS))
    if command in ("identities", "l2", "lp-sweep"):
        keys.append((("trials",), (-1, 0)))
    if command in ("l2", "lp-sweep", "oscillation"):
        keys.append((("lambdas",), lists))
    if command in ("lp-sweep", "tail-decay"):
        keys.append((("p_list",), lists))
    if command in ("l2", "lp-sweep", "oscillation", "solve"):
        keys.append((("solver", "rtol"), _FLOATS))
        keys += [(("solver", key), _INTS) for key in ("max_iterations", "restart")]
    if command in ("l2", "lp-sweep", "solve"):
        for kind in _KINDS:
            keys += [
                (("coefficients", key, kind), _FLOATS)
                for key in ("delta", "epsilon", "cell_size")
            ]
            keys += [(("coefficients", key, kind), _INTS) for key in ("seed", "n_jumps")]
    if command == "tail-decay":
        keys.append((("coefficients", "k_max"), _INTS))
    if command == "oscillation":
        keys += [(("coefficients", key), _FLOATS) for key in ("delta", "outer_radius")]
        keys.append((("coefficients", "kappas"), tuple([4.0, v] for v in _FLOATS)))
    if command == "assumptions":
        keys += [(("coefficients", key), _FLOATS) for key in ("delta", "epsilon", "r_zero")]
    if command == "solve":
        keys.append((("lambda",), _FLOATS))
        keys += [(("data", key), tuple(repr(v) for v in _FLOATS)) for key in ("h", "f")]
    return keys


def _with(base: dict, path: tuple[str, ...], value) -> dict:
    mapping = copy.deepcopy(base)
    if len(path) == 1:
        mapping[path[0]] = value
        return mapping
    section = mapping.setdefault(path[0], {})
    section[path[1]] = value
    if len(path) == 3:
        section["kind"] = path[2]
    return mapping


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(sorted(_BASES)))
    path, values = draw(st.sampled_from(_keys(command)))
    return command, _with(_BASES[command], path, draw(st.sampled_from(values)))


def _reject_constant(name):
    """json.loads hook for NaN, Infinity and -Infinity, which strict JSON lacks."""
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.filterwarnings("default::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_runs())
def test_every_command_ends_in_one_json_line(run):
    command, mapping = run
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "c.json"
        config.write_text(json.dumps(mapping))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "o")])
    lines = printed.getvalue().splitlines()
    assert code in (0, 1)
    assert len(lines) == 1
    assert isinstance(json.loads(lines[0], parse_constant=_reject_constant), dict)
