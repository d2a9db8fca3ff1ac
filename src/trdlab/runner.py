"""Experiment orchestration: single scenarios across the n list,
convergence-in-n studies, and mesh/timestep self-convergence studies,
with CSV/JSON artifact emission.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, build_initial
from .diagnostics import csv_columns, entropy_balance_check
from .errors import ConfigError
from .grid import Grid
from .stepper import StepperConfig, run

__all__ = [
    "run_levels",
    "run_scenario",
    "study_n",
    "study_mesh",
    "mesh_order_study",
    "dt_order_study",
]

SUMMARY_SCHEMA_VERSION = 1


def run_levels(config: ExperimentConfig, n_values, observers=()) -> list:
    """One stepper run that advances the scenario at every n in n_values
    as one batched state; one RunResult per n, in order."""
    return run(build_initial(config), config.stepper, n_values, config.t_final, observers, config.p_values)


def _write_artifacts(out_dir, table: dict, config: ExperimentConfig, levels=()) -> dict:
    """Write diagnostics_<n>.csv for each (n, RunResult) of `levels`, then
    `table` as summary.json, into out_dir (made if missing); returns table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = csv_columns(config.system.m, config.p_values)  # one table per study
    for n, result in levels:
        with open(out / f"diagnostics_{n:g}.csv", "w", newline="") as fh:  # "inf" for the limit system
            writer = csv.writer(fh)
            writer.writerow([name for name, _ in columns])
            for rec in result.records:
                writer.writerow([repr(v) for v in rec.csv_row(columns)])
    with open(out / "summary.json", "w") as fh:
        json.dump(table, fh, indent=2)
    return table


def _per_run_summary(result) -> dict:
    records = result.records
    balance = entropy_balance_check(records, result.entropy_tol)
    final = records[-1] if records else None
    return {
        "final_time": result.final_state.time,
        "steps": result.final_state.step_count,
        "entropy_initial": result.tracker.e0,
        "entropy_final": final.entropy if final else result.tracker.e0,
        "entropy_balance": balance,
        "equilibrium_residual": result.equilibrium_residual,
        "min_value": min((r.min_value for r in records), default=0.0),
        "max_pair_mass_drift_rel": max((r.pair_mass_drift_rel for r in records), default=0.0),
        "max_degenerate_pair_dev": max((r.degenerate_pair_dev for r in records), default=0.0),
        "max_a2_sum_dev": max((r.a2_sum_dev for r in records), default=0.0),
        "mass_total_final": final.mass_total if final else None,
        "m2_bound": result.tracker.m2,
        "m2_exceeded": any(r.m2_flag for r in records),
        "clamp_count": result.clamp_count,
        "clamp_worst": result.clamp_worst,
        "final_sup": final.sup.tolist() if final else None,
        "final_l1": final.l1.tolist() if final else None,
    }


def run_scenario(config: ExperimentConfig, out_dir) -> dict:
    """Execute the scenario once per n value; writes diagnostics_<n>.csv
    per run and a summary.json.  Raises InvariantBreach (from the
    stepper) if any hard invariant fails."""
    results = list(zip(config.n_values, run_levels(config, config.n_values)))
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config.label,
        "system": {"m": config.system.m, "alpha": list(config.system.alpha), "d": list(config.system.d)},
        "grid": {"lengths": list(config.grid.lengths), "cells": list(config.grid.cells)},
        "t_final": config.t_final,
        "runs": {f"{n:g}": _per_run_summary(result) for n, result in results},
    }
    summary["ok"] = all(per["entropy_balance"]["ok"] for per in summary["runs"].values())
    return _write_artifacts(out_dir, summary, config, results)


def study_n(config: ExperimentConfig, out_dir) -> dict:
    """Convergence-in-n study: identical scenarios per n, sup-over-
    space-time differences between consecutive n runs and against the
    limit system, plus the final-time gap to the limit run."""
    if len(config.n_values) < 2:
        raise ConfigError("$.n_values", "study-n needs at least two n values")
    n_values = sorted(config.n_values)
    if not math.isinf(n_values[-1]):
        n_values = n_values + [math.inf]

    # running maxima over the records of sup |a(n_i) - a(n_{i+1})| (row 0)
    # and of sup |a(n_i) - a(inf)| (row 1), from the batched state
    gaps = np.zeros((2, len(n_values) - 1))

    def track_gaps(state):
        v = state.fields.values  # (m, B, *grid)
        axes = (0,) + tuple(range(2, v.ndim))
        np.maximum(gaps, [np.abs(v[:, :-1] - w).max(axis=axes) for w in (v[:, 1:], v[:, -1:])], out=gaps)

    results = run_levels(config, n_values, observers=(track_gaps,))
    consecutive = [
        {"n_low": f"{na:g}", "n_high": f"{nb:g}", "sup_diff": float(gap)}
        for na, nb, gap in zip(n_values[:-1], n_values[1:], gaps[0])
    ]
    diffs = [c["sup_diff"] for c in consecutive]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(diffs[:-1], diffs[1:]))
    table = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config.label,
        "n_values": [f"{n:g}" for n in n_values],
        "consecutive_sup_diffs": consecutive,
        "gaps_to_limit": {f"{n:g}": float(gap) for n, gap in zip(n_values[:-1], gaps[1])},
        "final_gap": _gap(*(r.final_state.fields.values for r in results[-2:])),
        "monotone_decreasing": monotone,
        "ok": monotone,
    }
    return _write_artifacts(out_dir, table, config, zip(n_values, results))


def _restrict(values: np.ndarray) -> np.ndarray:
    """Cell-average restriction of a fine cell-centered array onto the
    coarse mesh of half as many cells per axis (second-order accurate for
    smooth fields): each coarse cell is the mean of its 2^dim children."""
    pairs = sum(((n // 2, 2) for n in values.shape[1:]), values.shape[:1])  # axis 0 is the species index
    return values.reshape(pairs).mean(axis=tuple(range(2, len(pairs), 2)))


def _gap(coarse: np.ndarray, fine: np.ndarray) -> float:
    """max |fine - coarse|, with `fine` first restricted onto the coarse
    mesh where the two shapes differ."""
    return float(np.abs((fine if fine.shape == coarse.shape else _restrict(fine)) - coarse).max())


def _level_configs(path: str, configs) -> list:
    """The configs of a study's levels, built from the iterable `configs`;
    a level that its constructor refuses is a ConfigError at `path`."""
    try:
        configs = list(configs)
    except ValueError as exc:
        raise ConfigError(path, f"a study level is invalid: {exc}") from exc
    if len(configs) < 3:
        raise ValueError("need at least 3 levels")
    return configs


def _mesh_levels(config: ExperimentConfig, levels: int) -> list:
    grids = (Grid(config.grid.lengths, tuple(c * 2**k for c in config.grid.cells)) for k in range(levels))
    return _level_configs("$.grid", (replace(config, grid=grid) for grid in grids))


def _dt_levels(config: ExperimentConfig, splitting: str, levels: int) -> list:
    steppers = (replace(config.stepper, dt=config.stepper.dt / 2**k, splitting=splitting) for k in range(levels))
    return _level_configs("$.stepper.dt", (replace(config, stepper=stepper) for stepper in steppers))


def _order_study(configs: list) -> dict:
    """Run each config at its last n and compare the final fields of
    successive configs: the errors, and as orders the log2 of each pair of
    successive errors, or None (JSON null) where either error is at or
    below linear_solver_tol (1 + max|u|), the amount by which the diffusion
    solve itself may miss: that is roundoff, not an order."""
    finals = [run_levels(cfg, cfg.n_values[-1:])[0].final_state.fields.values for cfg in configs]
    errors = [_gap(coarse, fine) for coarse, fine in zip(finals[:-1], finals[1:])]
    floor = StepperConfig.linear_solver_tol * (1.0 + max(float(np.abs(u).max()) for u in finals))
    orders = [math.log2(e0 / e1) if min(e0, e1) > floor else None for e0, e1 in zip(errors[:-1], errors[1:])]
    return {"errors": errors, "orders": orders}


def mesh_order_study(config: ExperimentConfig, levels: int = 3) -> dict:
    """Self-convergence order in h: run at cells, 2*cells, 4*cells, ...
    compare successive solutions at the final time after restriction."""
    return {**_order_study(_mesh_levels(config, levels)), "levels": levels}


def dt_order_study(config: ExperimentConfig, splitting: str, levels: int = 3) -> dict:
    """Self-convergence order in dt at a fixed mesh: run at dt, dt/2,
    dt/4, ... and compare final-time fields."""
    studied = _order_study(_dt_levels(config, splitting, levels))
    return {**studied, "splitting": splitting, "dt_base": config.stepper.dt}


def study_mesh(config: ExperimentConfig, out_dir, levels: int = 3) -> dict:
    """Mesh and timestep self-convergence report: spatial order on the
    scenario itself, temporal orders for both splittings.  Every level of
    the three studies is built before the first one runs."""
    _mesh_levels(config, levels), _dt_levels(config, "lie", levels)  # the splittings share their dt levels
    table = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config.label,
        "spatial": mesh_order_study(config, levels=levels),
        "dt_lie": dt_order_study(config, splitting="lie", levels=levels),
        "dt_strang": dt_order_study(config, splitting="strang", levels=levels),
    }
    return _write_artifacts(out_dir, table, config)
