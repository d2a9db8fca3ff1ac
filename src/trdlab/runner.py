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
from .diagnostics import DiagnosticsRecord, csv_columns, entropy_balance_check
from .errors import ConfigError
from .stepper import ModalDiffusion, StepperConfig, diffusion_substep, run

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


def _write_csv(path: Path, records: list[DiagnosticsRecord], m: int, p_values):
    columns = csv_columns(m, p_values)  # one table per file
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for rec in records:
            writer.writerow([repr(v) for v in rec.csv_row(columns)])


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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results = zip(config.n_values, run_levels(config, config.n_values))

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config.label,
        "system": {"m": config.system.m, "alpha": list(config.system.alpha), "d": list(config.system.d)},
        "grid": {"lengths": list(config.grid.lengths), "cells": list(config.grid.cells)},
        "t_final": config.t_final,
        "runs": {},
    }
    all_ok = True
    for n, result in results:
        label = f"{n:g}"  # "inf" for the limit system
        _write_csv(out / f"diagnostics_{label}.csv", result.records, config.system.m, config.p_values)
        per = _per_run_summary(result)
        summary["runs"][label] = per
        all_ok = all_ok and per["entropy_balance"]["ok"]
    summary["ok"] = all_ok
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def study_n(config: ExperimentConfig, out_dir) -> dict:
    """Convergence-in-n study: identical scenarios per n, sup-over-
    space-time differences between consecutive n runs and against the
    limit system, plus the final-time gap to the limit run."""
    if len(config.n_values) < 2:
        raise ConfigError("$.n_values", "study-n needs at least two n values")
    n_values = sorted(config.n_values)
    if not math.isinf(n_values[-1]):
        n_values = n_values + [math.inf]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

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
    gaps_to_limit = {f"{n:g}": float(gap) for n, gap in zip(n_values[:-1], gaps[1])}
    diffs = [c["sup_diff"] for c in consecutive]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(diffs[:-1], diffs[1:]))
    final_gap = float(np.abs(results[-2].final_state.fields.values - results[-1].final_state.fields.values).max())
    table = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config.label,
        "n_values": [f"{n:g}" for n in n_values],
        "consecutive_sup_diffs": consecutive,
        "gaps_to_limit": gaps_to_limit,
        "final_gap": final_gap,
        "monotone_decreasing": monotone,
        "ok": monotone,
    }
    for n, result in zip(n_values, results):
        _write_csv(out / f"diagnostics_{n:g}.csv", result.records, config.system.m, config.p_values)
    with open(out / "summary.json", "w") as fh:
        json.dump(table, fh, indent=2)
    return table


def _restrict(values: np.ndarray) -> np.ndarray:
    """Cell-average restriction of a fine cell-centered array onto the
    coarse mesh of half as many cells per axis (second-order accurate for
    smooth fields)."""
    out = values
    for axis in range(1, values.ndim):  # axis 0 is the species index
        n = out.shape[axis]
        new_shape = out.shape[:axis] + (n // 2, 2) + out.shape[axis + 1 :]
        out = out.reshape(new_shape).mean(axis=axis + 1)
    return out


def _final_fields(config: ExperimentConfig, pure_diffusion: bool) -> np.ndarray:
    if not pure_diffusion:
        return run_levels(config, [config.n_values[-1]])[0].final_state.fields.values
    initial = build_initial(config)
    n_steps = max(1, round(config.t_final / config.stepper.dt))
    dt = config.t_final / n_steps
    modal = ModalDiffusion(initial.system.d, initial.grid, dt)
    state = initial
    for _ in range(n_steps):
        state = diffusion_substep(state, modal)
    return state.values


def _orders(errors, finals) -> list:
    """log2 of each pair of successive errors, or None (JSON null) where
    either error is at or below linear_solver_tol (1 + max|u|), the amount
    by which the diffusion solve itself may miss: that is roundoff, not an
    order."""
    floor = StepperConfig.linear_solver_tol * (1.0 + max(float(np.abs(u).max()) for u in finals))
    return [math.log2(e0 / e1) if min(e0, e1) > floor else None for e0, e1 in zip(errors[:-1], errors[1:])]


def mesh_order_study(config: ExperimentConfig, levels: int = 3, pure_diffusion: bool = False) -> dict:
    """Self-convergence order in h: run at cells, 2*cells, 4*cells, ...
    compare successive solutions at the final time after restriction."""
    if levels < 3:
        raise ValueError("need at least 3 mesh levels")
    finals = []
    for level in range(levels):
        cells = tuple(c * 2**level for c in config.grid.cells)
        cfg = replace(config, grid=type(config.grid)(lengths=config.grid.lengths, cells=cells))
        finals.append(_final_fields(cfg, pure_diffusion))
    errors = [
        float(np.abs(_restrict(fine) - coarse).max())
        for coarse, fine in zip(finals[:-1], finals[1:])
    ]
    return {"errors": errors, "orders": _orders(errors, finals), "levels": levels}


def dt_order_study(config: ExperimentConfig, splitting: str, levels: int = 3) -> dict:
    """Self-convergence order in dt at a fixed mesh: run at dt, dt/2,
    dt/4, ... and compare final-time fields."""
    if levels < 3:
        raise ValueError("need at least 3 timestep levels")
    finals = []
    for level in range(levels):
        stepper = replace(config.stepper, dt=config.stepper.dt / 2**level, splitting=splitting)
        cfg = replace(config, stepper=stepper)
        finals.append(run_levels(cfg, [cfg.n_values[-1]])[0].final_state.fields.values)
    errors = [
        float(np.abs(a - b).max()) for a, b in zip(finals[:-1], finals[1:])
    ]
    return {
        "errors": errors,
        "orders": _orders(errors, finals),
        "splitting": splitting,
        "dt_base": config.stepper.dt,
    }


def study_mesh(config: ExperimentConfig, out_dir, levels: int = 3) -> dict:
    """Mesh and timestep self-convergence report: spatial order on the
    scenario itself, temporal orders for both splittings."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spatial = mesh_order_study(config, levels=levels)
    lie = dt_order_study(config, splitting="lie", levels=levels)
    strang = dt_order_study(config, splitting="strang", levels=levels)
    table = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "label": config.label,
        "spatial": spatial,
        "dt_lie": lie,
        "dt_strang": strang,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(table, fh, indent=2)
    return table
