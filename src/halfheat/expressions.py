"""Tiny expression language for reproducible test signals.

Grammar: arithmetic (+, -, *, /, unary -) over numbers, the coordinates
``t`` and ``x1`` .. ``xd`` (wrapped to the symmetric fundamental cell), the
constant ``pi``, and the calls

* ``sin(e)``, ``cos(e)``, ``exp(e)``
* ``gauss(center, width)``: exp(-(t-center)^2 / (2*width^2)) in time
* ``noise(seed, band)``: band-limited pseudo-random field; all modes with
  |k| above ``band`` times the axis Nyquist are zeroed.  Deterministic per
  (seed, grid): the harness's ``random_band_limited_field`` draw from
  ``default_rng(seed)`` before its scaling to unit L2.

Evaluation is numpy-vectorized over the grid and broadcasts to full shape.
"""

from __future__ import annotations

import ast

import numpy as np

from .grid import Field, Grid, _band_limited_noise

__all__ = ["ExpressionError", "field_from_expression"]


class ExpressionError(ValueError):
    """Malformed or unsupported expression."""


_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
}


def _noise(grid: Grid, seed: float, band: float) -> np.ndarray:
    if not (np.isfinite(seed) and seed == int(seed) and seed >= 0):
        raise ExpressionError(f"noise seed must be a non-negative integer, got {seed}")
    if not 0.0 < band <= 1.0:
        raise ExpressionError(f"noise band must lie in (0, 1], got {band}")
    return _band_limited_noise(grid.shape, np.random.default_rng(int(seed)), band)


class _Evaluator(ast.NodeVisitor):
    def __init__(self, grid: Grid):
        self.grid = grid
        mesh = grid.coordinate_mesh()
        self.names = {"t": mesh[0], "pi": np.pi}
        for i in range(grid.d):
            self.names[f"x{i + 1}"] = mesh[1 + i]

    def generic_visit(self, node: ast.AST):
        raise ExpressionError(
            f"unsupported syntax {type(node).__name__!r} at column {getattr(node, 'col_offset', '?')}"
        )

    def visit_Expression(self, node: ast.Expression):
        return self.visit(node.body)

    def visit_Constant(self, node: ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            try:
                return float(node.value)
            except OverflowError:  # an integer literal past the float range
                raise ExpressionError(
                    f"number too large at column {node.col_offset}"
                ) from None
        raise ExpressionError(f"only numeric constants allowed, got {node.value!r}")

    def visit_Name(self, node: ast.Name):
        try:
            return self.names[node.id]
        except KeyError:
            raise ExpressionError(
                f"unknown name {node.id!r} at column {node.col_offset}"
            ) from None

    def visit_UnaryOp(self, node: ast.UnaryOp):
        operand = self.visit(node.operand)
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return operand
        raise ExpressionError("only unary +/- are supported")

    def visit_BinOp(self, node: ast.BinOp):
        fn = _BINOPS.get(type(node.op))
        if fn is None:
            raise ExpressionError(
                f"operator {type(node.op).__name__!r} is not supported"
            )
        return fn(self.visit(node.left), self.visit(node.right))

    @staticmethod
    def _scalar_args(name: str, args: list, count: int) -> list[float]:
        if len(args) != count:
            raise ExpressionError(f"{name} takes exactly {count} scalar arguments")
        out = []
        for a in args:
            arr = np.asarray(a)
            if arr.size != 1:
                raise ExpressionError(f"{name} arguments must be scalars")
            out.append(float(arr.reshape(())))
        return out

    def visit_Call(self, node: ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ExpressionError("calls must be f(args) with a plain name")
        name = node.func.id
        args = [self.visit(a) for a in node.args]
        if name in ("sin", "cos", "exp"):
            if len(args) != 1:
                raise ExpressionError(f"{name} takes exactly one argument")
            return getattr(np, name)(args[0])
        if name == "gauss":
            center, width = self._scalar_args(name, args, 2)
            if width <= 0:
                raise ExpressionError("gauss width must be positive")
            try:
                spread = 2.0 * width**2
            except OverflowError:
                raise ExpressionError(f"gauss width {width} is too large") from None
            t = self.names["t"]
            return np.exp(-((t - center) ** 2) / spread)
        if name == "noise":
            seed, band = self._scalar_args(name, args, 2)
            return _noise(self.grid, seed, band)
        raise ExpressionError(f"unknown function {name!r} at column {node.col_offset}")


_TOO_DEEP = "expression is nested too deeply"


def field_from_expression(grid: Grid, expression: str) -> Field:
    """Evaluate ``expression`` on the grid's wrapped coordinates.

    Raises ExpressionError with position info for malformed input, and for
    input nested deeper than the parser or the evaluator can recurse; the
    Field constructor rejects non-finite results (e.g. division by zero).
    """
    if not isinstance(expression, str):
        raise ExpressionError(f"expression must be a string, got {expression!r}")
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(
            f"syntax error in expression at offset {exc.offset}: {exc.msg}"
        ) from None
    except (RecursionError, MemoryError):
        # CPython's parser raises either one for input nested past its stack
        raise ExpressionError(_TOO_DEEP) from None
    try:
        value = _Evaluator(grid).visit(tree)
    except RecursionError:
        raise ExpressionError(_TOO_DEEP) from None
    return Field(grid, np.broadcast_to(np.asarray(value, dtype=np.float64), grid.shape))
