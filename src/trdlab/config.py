"""JSON experiment configuration: schema, validation with field paths,
and construction of the model objects (system, grid, initial data,
stepper settings) an experiment run needs.

Schema (all keys at the top level):

    {
      "system":  {"m": 3, "alpha": [1, 1, 1], "d": [1.0, 1.0, 0.0]},
      "grid":    {"lengths": [1.0], "cells": [128]},
      "initial": [  // one entry per species, evaluated on cell centers
        {"kind": "constant", "value": 2.0},
        {"kind": "cosine", "base": 1.0, "amplitude": 0.2, "modes": [1]},
        {"kind": "expression", "formula": "1.0 + 0.3*cos(pi*x)"}
      ],
      "stepper": {"dt": 0.02, "splitting": "lie", "record_every": 25},
      "n_values": [1, 10, 100, "inf"],
      "t_final": 50.0,
      "p_values": [4.0],
      "seed": 0
    }

The grid takes one length and one cell count per axis, in any dimension.
A cosine profile takes at most one mode per axis; axes without one are
constant.  Expression initial data is a formula in a small grammar over
the coordinate arrays of the first three axes (x, y, z) and a math
namespace; smoothness of the profile is the author's responsibility.
"""

from __future__ import annotations

import ast
import json
import math
import operator
import sys
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import ConfigError
from .fields import FieldSet
from .grid import Grid
from .model import TriangularSystem
from .stepper import StepperConfig, time_steps

__all__ = ["ExperimentConfig", "parse_config", "load_config", "build_initial"]

_EXPR_NAMESPACE = {
    "pi": math.pi,
    "e": math.e,
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
}
_EXPR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
             ast.Pow: operator.pow, ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Lt: operator.lt,
             ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge}


@dataclass(frozen=True)
class ExperimentConfig:
    system: TriangularSystem
    grid: Grid
    initial: tuple[dict, ...]  # validated per-species specs
    stepper: StepperConfig
    n_values: tuple[float, ...]  # math.inf encodes the limit system
    t_final: float
    p_values: tuple[float, ...] = (4.0,)
    seed: int = 0
    label: str = "run"


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return data[key]


def _number(value, path: str, kind=float, low: float = -math.inf, strict: bool = False):
    """`value` as a finite `kind` (float, which takes JSON integers too, or
    int), >= low (> low if strict).  Strings, bools, null, non-integers for
    an int, and JSON's NaN and Infinity (parsed as floats) are rejected."""
    ok = isinstance(value, (kind, int)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not (ok and (value > low if strict else value >= low)):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ConfigError(path, f"expected a finite {kind.__name__}{bound}, got {value!r}")
    return kind(value)


def _numbers(values, path: str, kind=float, low: float = -math.inf) -> tuple:
    if not isinstance(values, list):
        raise ConfigError(path, "expected a list")
    return tuple(_number(v, f"{path}[{i}]", kind, low) for i, v in enumerate(values))


def _distinct_labels(values: tuple, path: str) -> tuple:
    """`values`, whose f"{v:g}" labels key their artifacts (an n's files, a
    p's CSV columns): an entry whose label repeats an earlier one's is
    rejected at its index."""
    labels = [f"{v:g}" for v in values]
    for i, tag in enumerate(labels):
        if tag in labels[:i]:
            raise ConfigError(f"{path}[{i}]", f"label {tag!r} is also that of {path}[{labels.index(tag)}]")
    return values


def _parse_n(value, path: str) -> float:
    if isinstance(value, str) and value.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return _number(value, path, low=0.0, strict=True)


def _parse_system(data, path: str) -> TriangularSystem:
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    m = _number(_require(data, "m", path), f"{path}.m", int)
    alpha = _numbers(_require(data, "alpha", path), f"{path}.alpha")
    d = _numbers(_require(data, "d", path), f"{path}.d")
    try:
        return TriangularSystem(m=m, alpha=alpha, d=d)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_grid(data, path: str) -> Grid:
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    lengths = _numbers(_require(data, "lengths", path), f"{path}.lengths")
    cells = _numbers(_require(data, "cells", path), f"{path}.cells", int)
    try:
        return Grid(lengths=lengths, cells=cells)
    except ValueError as exc:
        raise ConfigError(f"{path}.lengths" if str(exc).startswith("lengths") else path, str(exc)) from exc


def _formula(formula: str, path: str, names: dict | None = None):
    """The value of `formula` over `names`, or with names None only its check; any failure is a ConfigError at path."""
    try:
        return _term(ast.parse(formula, mode="eval").body, names)
    except Exception as exc:  # a syntax error, a node outside the grammar, a nesting too deep, a failed evaluation
        raise ConfigError(path, f"invalid expression: {exc}") from exc


def _term(node: ast.AST, names: dict | None):
    """The value over `names` (None, while only checked) of a formula node of the grammar: numbers, the names
    x, y, z and those of _EXPR_NAMESPACE, calls, the operators of _EXPR_OPS and single comparisons."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)  # so no power of integers is computed exactly
    if isinstance(node, ast.Name) and node.id in (*"xyz", *_EXPR_NAMESPACE):
        return names and names[node.id]
    if not (isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)) or isinstance(node, ast.Compare) and len(node.ops) == 1):
        raise ValueError(f"{ast.unparse(node) or type(node).__name__!r} is not in the expression grammar")
    children = sorted(ast.iter_child_nodes(node), key=lambda child: isinstance(child, ast.expr))  # the operator first
    fn, *args = [_EXPR_OPS.get(type(child)) or _term(child, names) for child in children]
    return names and fn(*args)


def _validate_initial_spec(spec, path: str, dimension: int) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    kind = _require(spec, "kind", path)
    if kind == "constant":
        return {"kind": kind, "value": _number(_require(spec, "value", path), f"{path}.value", low=0.0)}
    if kind == "cosine":
        base = _number(_require(spec, "base", path), f"{path}.base")
        amplitude = _number(spec.get("amplitude", 0.0), f"{path}.amplitude")
        modes = _numbers(spec.get("modes", [1]), f"{path}.modes", int, low=0)
        if len(modes) > dimension:
            raise ConfigError(f"{path}.modes", f"{len(modes)} modes for a grid of {dimension} axes")
        if base - abs(amplitude) < 0:
            raise ConfigError(path, "cosine profile dips below zero (base < |amplitude|)")
        return {"kind": kind, "base": base, "amplitude": amplitude, "modes": modes}
    if kind == "expression":
        formula = _require(spec, "formula", path)
        if not isinstance(formula, str):
            raise ConfigError(f"{path}.formula", "expected a string")
        _formula(formula, f"{path}.formula")
        names = {node.id for node in ast.walk(ast.parse(formula, mode="eval")) if isinstance(node, ast.Name)}
        lacking = sorted(names & set("xyz"[dimension:]))
        if lacking:
            axes = "1 axis" if dimension == 1 else f"{dimension} axes"
            raise ConfigError(f"{path}.formula", f"{lacking[0]!r} names an axis the grid lacks: it has {axes}")
        return {"kind": kind, "formula": formula}
    raise ConfigError(f"{path}.kind", f"unknown initial-data kind {kind!r}")


def parse_config(data: dict, label: str = "run") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("$", "top level must be an object")
    known = {f.name for f in dc_fields(ExperimentConfig)} | {"system", "grid", "initial", "stepper"}
    for key in data:
        if key not in known:
            raise ConfigError(f"$.{key}", "unknown field")
    system = _parse_system(_require(data, "system", "$"), "$.system")
    grid = _parse_grid(_require(data, "grid", "$"), "$.grid")

    raw_initial = _require(data, "initial", "$")
    if not isinstance(raw_initial, list) or len(raw_initial) != system.m:
        raise ConfigError("$.initial", f"expected a list of {system.m} per-species specs")
    initial = tuple(
        _validate_initial_spec(spec, f"$.initial[{i}]", grid.dimension) for i, spec in enumerate(raw_initial)
    )

    stepper_raw = _require(data, "stepper", "$")
    if not isinstance(stepper_raw, dict):
        raise ConfigError("$.stepper", "expected an object")
    stepper_known = {f.name for f in dc_fields(StepperConfig)}
    for key in stepper_raw:
        if key not in stepper_known:
            raise ConfigError(f"$.stepper.{key}", "unknown field")
    _number(_require(stepper_raw, "dt", "$.stepper"), "$.stepper.dt", low=0.0, strict=True)
    _number(stepper_raw.get("record_every", 1), "$.stepper.record_every", int, low=1)
    try:
        stepper = StepperConfig(**stepper_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("$.stepper", str(exc)) from exc

    raw_n = _require(data, "n_values", "$")
    if not isinstance(raw_n, list) or not raw_n:
        raise ConfigError("$.n_values", "expected a nonempty list")
    n_values = _distinct_labels(tuple(_parse_n(v, f"$.n_values[{i}]") for i, v in enumerate(raw_n)), "$.n_values")
    t_final = _number(_require(data, "t_final", "$"), "$.t_final", low=0.0)
    try:
        time_steps(t_final, stepper.dt)
    except ValueError as exc:
        raise ConfigError("$.t_final", str(exc)) from exc
    p_values = _distinct_labels(_numbers(data.get("p_values", [4.0]), "$.p_values", low=1.0), "$.p_values")

    return ExperimentConfig(
        system=system,
        grid=grid,
        initial=initial,
        stepper=stepper,
        n_values=n_values,
        t_final=t_final,
        p_values=p_values,
        seed=_number(data.get("seed", 0), "$.seed", int),
        label=str(data.get("label", label)),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return parse_config(data)


def _evaluate_species(spec: dict, grid: Grid, path: str) -> np.ndarray:
    if spec["kind"] == "constant":
        return np.full(grid.shape, spec["value"])
    if spec["kind"] == "cosine":
        profile = np.ones(grid.shape)
        for axis, k in enumerate(spec["modes"]):
            x = grid.axis_centers(axis).reshape((-1,) + (1,) * (grid.dimension - 1 - axis))
            profile = profile * np.cos(k * math.pi * x / grid.lengths[axis])
        return spec["base"] + spec["amplitude"] * profile
    # expression table, evaluated on cell centers
    names = dict(_EXPR_NAMESPACE)
    names.update(zip("xyz", grid.centers()))
    with np.errstate(all="ignore"):  # non-finite values are reported by build_initial
        values = np.asarray(_formula(spec["formula"], f"{path}.formula", names))
    if values.dtype.kind not in "biuf":
        raise ConfigError(path, f"expression must give real numbers, got {values.dtype} values")
    try:
        return np.broadcast_to(values.astype(float), grid.shape).copy()
    except ValueError as exc:
        raise ConfigError(path, f"expression of shape {values.shape} does not fit the grid {grid.shape}") from exc


def build_initial(config: ExperimentConfig) -> FieldSet:
    values = np.stack([_evaluate_species(spec, config.grid, f"$.initial[{i}]") for i, spec in enumerate(config.initial)])
    for i, v in enumerate(values):
        if not np.all((v >= 0.0) & (v < math.inf)):
            message = f"initial data must be finite and nonnegative (min {v.min():g}, max {v.max():g})"
            raise ConfigError(f"$.initial[{i}]", message)
    return FieldSet(config.system, config.grid, values)
