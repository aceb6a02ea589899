"""The expression DSL used by the CLI to build reproducible signals."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from halfheat import ExpressionError, Field, field_from_expression, lp_norm, make_grid
from halfheat.cli import main
from halfheat.experiments import random_band_limited_field


@pytest.fixture
def grid():
    return make_grid(d=1, n_t=16, n_x=8, l_t=2.0 * np.pi, l_x=2.0)


def test_coordinates_match_grid(grid):
    t = field_from_expression(grid, "t")
    assert np.allclose(t.data, grid.coordinate_mesh()[0])
    x1 = field_from_expression(grid, "x1")
    assert np.allclose(x1.data, np.broadcast_to(grid.coordinate_mesh()[1], grid.shape))


def test_arithmetic_and_calls(grid):
    f = field_from_expression(grid, "2*cos(t) - x1/2 + exp(0) * 0.5")
    t, x = grid.coordinate_mesh()
    expected = 2.0 * np.cos(t) - x / 2.0 + 0.5
    assert np.allclose(f.data, np.broadcast_to(expected, grid.shape))


def test_gauss_is_a_time_profile(grid):
    f = field_from_expression(grid, "gauss(0, 0.5)")
    t = grid.coordinate_mesh()[0]
    assert np.allclose(f.data, np.broadcast_to(np.exp(-t**2 / 0.5), grid.shape))
    # pure time profile: constant across space
    assert np.ptp(f.data, axis=1).max() == 0.0


def test_noise_is_deterministic_and_band_limited(grid):
    a = field_from_expression(grid, "noise(7, 0.25)")
    b = field_from_expression(grid, "noise(7, 0.25)")
    assert np.array_equal(a.data, b.data)
    c = field_from_expression(grid, "noise(8, 0.25)")
    assert not np.array_equal(a.data, c.data)
    # band 0.25 on n_t = 16 keeps |k| <= 2 in time
    spec = np.fft.fft(a.data, axis=0)
    dead = np.abs(np.rint(np.fft.fftfreq(16) * 16).astype(int)) > 2
    assert np.max(np.abs(spec[dead])) < 1e-10 * np.max(np.abs(spec))


def _half_spectrum_noise(grid, seed, band):
    """noise(seed, band) low-passed on the rfftn half spectrum instead."""
    spec = np.fft.rfftn(np.random.default_rng(seed).standard_normal(grid.shape))
    for axis, n in enumerate(grid.shape):
        k = np.abs(np.rint(np.fft.fftfreq(n) * n)).astype(int)[: spec.shape[axis]]
        view = [1] * len(grid.shape)
        view[axis] = spec.shape[axis]
        spec = spec * (k <= band * (n // 2)).reshape(view)
    return np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(len(grid.shape))))


@pytest.mark.parametrize(
    "shape", [(1, 64, 64), (2, 32, (32, 16)), (1, 16, 16)], ids=["64x64", "32x32x16", "16x16"]
)
def test_noise_is_the_unnormalised_harness_draw(shape):
    """noise(s, b) and the harness's band-limited fields share one low-pass
    kernel: noise is the harness draw from default_rng(s) before its scaling
    to unit L2, and agrees with a half-spectrum low pass to rounding."""
    d, n_t, n_x = shape
    g = make_grid(d=d, n_t=n_t, n_x=n_x, l_t=2.0, l_x=2.0)
    noise = field_from_expression(g, "noise(3, 0.25)")
    harness = random_band_limited_field(g, np.random.default_rng(3), 0.25)
    peak = np.max(np.abs(noise.data))
    assert np.max(np.abs(noise.data - lp_norm(noise, 2) * harness.data)) <= 1e-15 * peak
    assert np.max(np.abs(noise.data - _half_spectrum_noise(g, 3, 0.25))) <= 1e-15 * peak


def test_higher_dimensions_expose_more_names():
    g2 = make_grid(d=2, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    f = field_from_expression(g2, "x2")
    assert np.ptp(f.data, axis=1).max() == 0.0  # x2 does not vary along x1
    g1 = make_grid(d=1, n_t=8, n_x=8, l_t=1.0, l_x=1.0)
    with pytest.raises(ExpressionError, match="unknown name 'x2'"):
        field_from_expression(g1, "x2")


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "t.real",
        "lambda: 1",
        "[1, 2]",
        "t ** 2",
        "sin(t, t)",
        "gauss(t, 1)",
        "noise(0.5, 0.25)",
        "f(1)",
        "1 +",
        # numbers out of range
        "noise(-1, 0.25)",
        "noise(1e400, 0.25)",
        "gauss(0, 1e200)",
        str(10**400),
    ],
)
def test_rejects_unsupported_syntax(grid, bad):
    with pytest.raises(ExpressionError):
        field_from_expression(grid, bad)


def test_division_by_zero_is_caught(grid):
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
        field_from_expression(grid, "1/0")


@pytest.mark.parametrize(
    "deep",
    [
        "-" * 5000 + "1",
        "1" + "^1" * 5000,
        "1" + "+1" * 20000,
        "1" + "+1" * 600,
        "-" * 10000 + "1",
    ],
    ids=["unary_5000", "xor_5000", "sum_20000", "sum_600", "unary_10000"],
)
def test_rejects_expressions_nested_too_deeply(grid, deep):
    """Too deep for the parser (RecursionError for the first three,
    MemoryError for the last) or for the evaluator (the fourth) is an
    ExpressionError, like too many nested parentheses."""
    with pytest.raises(ExpressionError, match="nested too deeply"):
        field_from_expression(grid, deep)


def test_rejects_a_non_string_expression(grid):
    with pytest.raises(ExpressionError, match="must be a string"):
        field_from_expression(grid, 3)


# ---------------------------------------------------------------------------
# fuzz: every input evaluates to a Field or raises ExpressionError/ValueError

_LEAVES = st.one_of(
    st.sampled_from(["t", "x1", "x2", "pi", "y"]),
    st.integers(-(10**400), 10**400).map(str),
    st.floats(allow_nan=False).map(repr),
)


def _grammar(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"({e})"),
        st.tuples(
            st.sampled_from(["sin", "cos", "exp", "gauss", "noise"]),
            st.lists(inner, max_size=3),
        ).map(lambda call: f"{call[0]}({', '.join(call[1])})"),
    )


EXPRESSIONS = st.one_of(
    st.recursive(_LEAVES, _grammar, max_leaves=12),
    # token soup: unbalanced parentheses, dangling operators, empty calls
    st.lists(
        st.sampled_from(
            ["t", "x1", "pi", "1", "0.5", "1e308", "+", "-", "*", "/", "(", ")", ",",
             "sin", "cos", "exp", "gauss", "noise", " "]
        ),
        max_size=16,
    ).map("".join),
    st.text(max_size=24),
)

def _evaluate(expression):
    """The Field, or the ExpressionError/ValueError the input raised."""
    g = make_grid(d=1, n_t=8, n_x=8, l_t=2.0, l_x=2.0)
    with np.errstate(all="ignore"):
        try:
            return field_from_expression(g, expression)
        except ValueError as exc:  # ExpressionError is a ValueError
            return exc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(EXPRESSIONS)
def test_fuzzed_expressions_evaluate_or_raise_value_error(expression):
    assert isinstance(_evaluate(expression), (Field, ValueError))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(EXPRESSIONS)
def test_fuzzed_expression_failures_are_one_json_line_from_the_cli(expression):
    """An expression the API rejects makes `halfheat solve` print one JSON
    failure line and return 1; accepted ones are not solved here."""
    if isinstance(_evaluate(expression), Field):
        return
    config = {
        "grid": {"d": 1, "n_t": 8, "n_x": 8, "l_t": 2.0, "l_x": 2.0},
        "data": {"h": expression, "g": ["0"], "f": "0"},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "solve.json"
        path.write_text(json.dumps(config))
        printed = io.StringIO()
        with np.errstate(all="ignore"), contextlib.redirect_stdout(printed):
            code = main(["solve", "--config", str(path), "--out", str(Path(tmp) / "o")])
    lines = printed.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["passed"] is False and len(report["failures"]) == 1
