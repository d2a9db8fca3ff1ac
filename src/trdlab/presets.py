"""Shipped experiment presets covering every degeneracy class of the
three-species system X1 + X2 <-> X3, an A2 pointwise-invariant case, and
a four-species case with a non-integer stoichiometric exponent.

All presets use a unit interval at 128 cells, dt = 0.02, T = 50 and the
n list (1, 10, 100, 1000, inf) so a single preset exercises both the
regularized and the limit dynamics.
"""

from __future__ import annotations

from .config import ExperimentConfig, parse_config

__all__ = ["PRESETS", "preset_config", "preset_names"]

_GRID = {"lengths": [1.0], "cells": [128]}
_STEPPER = {"dt": 0.02, "splitting": "lie", "record_every": 25}
_N_VALUES = [1, 10, 100, 1000, "inf"]


def _three_species(d, initial, label):
    return {
        "label": label,
        "system": {"m": 3, "alpha": [1.0, 1.0, 1.0], "d": list(d)},
        "grid": dict(_GRID),
        "initial": initial,
        "stepper": dict(_STEPPER),
        "n_values": list(_N_VALUES),
        "t_final": 50.0,
        "p_values": [4.0],
        "seed": 0,
    }


def _cosine(base, amplitude):
    return {"kind": "cosine", "base": base, "amplitude": amplitude, "modes": [1]}


def _const(v):
    return {"kind": "constant", "value": v}


_RAW_PRESETS: dict[str, dict] = {
    # full diffusion: no degeneracy, baseline behaviour
    "df15-nondegenerate": _three_species(
        (1.0, 1.0, 1.0),
        [_cosine(1.0, 0.3), _cosine(1.0, -0.3), _const(0.5)],
        "df15-nondegenerate",
    ),
    # one non-diffusing reactant, diffusing product (class A1)
    "df15-a1": _three_species(
        (0.0, 1.0, 1.0),
        [_const(1.0), _cosine(1.0, 0.3), _cosine(0.5, 0.2)],
        "df15-a1",
    ),
    # two non-diffusing reactants (still A1): their pointwise difference
    # a_1 - a_2 is an exact invariant of the full dynamics
    "df15-a1-pair": _three_species(
        (0.0, 0.0, 1.0),
        [_const(1.2), _const(0.8), _cosine(0.5, 0.2)],
        "df15-a1-pair",
    ),
    # non-diffusing product and one non-diffusing reactant (class A2):
    # a_1 + a_3 is pointwise constant
    "df15-a2": _three_species(
        (0.0, 1.0, 0.0),
        [_const(1.0), _cosine(1.0, 0.3), _const(0.5)],
        "df15-a2",
    ),
    # non-diffusing product, all reactants diffusing (class A3); constant
    # data with sigma = (2, 2) so the reaction orbit's equilibrium is the
    # root of (2 - x)^2 = x, namely x = 1
    "df15-a3": _three_species(
        (1.0, 1.0, 0.0),
        [_const(2.0), _const(2.0), _const(0.0)],
        "df15-a3",
    ),
    # m = 4 with a non-integer exponent on a degenerate reactant, class A1
    "m4-a1-noninteger": {
        "label": "m4-a1-noninteger",
        "system": {"m": 4, "alpha": [1.5, 2.0, 1.0, 1.0], "d": [0.0, 0.0, 1.0, 1.0]},
        "grid": dict(_GRID),
        "initial": [_const(1.0), _const(0.9), _cosine(0.8, 0.2), _cosine(0.4, 0.1)],
        "stepper": dict(_STEPPER),
        "n_values": list(_N_VALUES),
        "t_final": 50.0,
        "p_values": [4.0],
        "seed": 0,
    },
}


PRESETS = tuple(sorted(_RAW_PRESETS))


def preset_names() -> tuple[str, ...]:
    return PRESETS


def preset_config(name: str) -> ExperimentConfig:
    try:
        raw = _RAW_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}") from None
    return parse_config(raw, label=name)
