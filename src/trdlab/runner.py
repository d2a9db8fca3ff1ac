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
from .stepper import StepperConfig, run, time_steps

__all__ = [
    "write_artifacts",
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


def write_artifacts(out_dir, files: dict) -> None:
    """Make out_dir if missing and write each of `files`, name -> content, in order: a .csv name's
    (header, rows) through csv.writer, any other name's content as JSON at indent 2."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        with open(out / name, "w", newline="") as fh:
            if name.endswith(".csv"):
                writer = csv.writer(fh)
                writer.writerow(content[0])
                writer.writerows(content[1])
            else:
                json.dump(content, fh, indent=2)


def _write_artifacts(out_dir, table: dict, config: ExperimentConfig, levels=()) -> dict:
    """Write diagnostics_<n>.csv for each (n, RunResult) of `levels` ("inf" for the limit system), then
    `table`, headed by the schema version and the label, as summary.json; returns what it wrote."""
    table = {"schema_version": SUMMARY_SCHEMA_VERSION, "label": config.label, **table}
    columns = csv_columns(config.system.m, config.p_values)  # one table per study
    header = [name for name, _ in columns]  # csv.writer writes each float cell as its repr
    files = {f"diagnostics_{n:g}.csv": (header, (rec.csv_row(columns) for rec in result.records)) for n, result in levels}
    write_artifacts(out_dir, {**files, "summary.json": table})
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
        "system": {"m": config.system.m, "alpha": list(config.system.alpha), "d": list(config.system.d)},
        "grid": {"lengths": list(config.grid.lengths), "cells": list(config.grid.cells)},
        "t_final": config.t_final,
        "runs": {f"{n:g}": _per_run_summary(result) for n, result in results},
    }
    summary["ok"] = all(per["entropy_balance"]["ok"] for per in summary["runs"].values())
    return _write_artifacts(out_dir, summary, config, results)


def study_n(config: ExperimentConfig, out_dir) -> dict:
    """Convergence-in-n study: identical scenarios per n, sup-over-space-time differences between
    consecutive n runs and against the limit system, plus the final-time gap to the limit run."""
    if len(config.n_values) < 2:
        raise ConfigError("$.n_values", "study-n needs at least two n values")
    n_values = sorted({*config.n_values, math.inf})
    last = len(n_values) - 1
    pairs = [(i, i + 1) for i in range(last)] + [(i, last) for i in range(last)]
    results, sup, final = _compare_levels([(config, n_values)], pairs)
    consecutive = [{"n_low": f"{na:g}", "n_high": f"{nb:g}", "sup_diff": gap}
                   for na, nb, gap in zip(n_values, n_values[1:], sup)]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(sup[: last - 1], sup[1:last]))
    table = {
        "n_values": [f"{n:g}" for n in n_values],
        "consecutive_sup_diffs": consecutive,
        "gaps_to_limit": {f"{n:g}": gap for n, gap in zip(n_values[:-1], sup[last:])},
        "final_gap": final[-1],
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
    """max |fine - coarse|, `fine` first restricted onto the coarse mesh where the two shapes differ."""
    return float(np.abs((fine if fine.shape == coarse.shape else _restrict(fine)) - coarse).max())


def _compare_levels(runs: list, pairs: list) -> tuple[list, list, list]:
    """Run a study's levels, one (config, n_values) per stepper run and numbered on across runs, and
    compare each (coarse, fine) pair of them by _gap at every record, the coarse level in the fine one's
    run or last in the run before.  Returns the RunResults, each pair's sup gap over the records (0.0
    with none) and its final gap.  The only record states held are those of the run before's last level."""
    results, sup, held = [], np.zeros(len(pairs)), []
    for r, (config, n_values) in enumerate(runs):
        first, kept = len(results), []

        def compare(state):
            fields = {first - 1: held[len(kept)]} if held else {}  # the same record of the run before
            fields.update(enumerate(state.fields.values.swapaxes(0, 1), first))  # level -> (m, *grid)
            kept.append(fields[max(fields)].copy() if r < len(runs) - 1 else None)
            compared = [k for k, pair in enumerate(pairs) if fields.keys() >= set(pair)]
            sup[compared] = np.maximum(sup[compared], [_gap(*map(fields.get, pairs[k])) for k in compared])

        results += run_levels(config, n_values, observers=(compare,))
        held = kept
    return results, sup.tolist(), [_gap(*(results[i].final_state.fields.values for i in pair)) for pair in pairs]


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
    """Level k steps dt0 / 2^k, dt0 the step `run` takes at dt (time_steps), and records every
    record_every * 2^k steps, so the levels record at the same times."""
    base = config.stepper
    dt0 = time_steps(config.t_final, base.dt)[1]
    steppers = (replace(base, dt=dt0 / 2**k, splitting=splitting, record_every=base.record_every * 2**k)
                for k in range(levels))
    return _level_configs("$.stepper.dt", (replace(config, stepper=stepper) for stepper in steppers))


def _order_study(configs: list) -> dict:
    """Run each config at its last n and compare successive ones: `errors` at the final time,
    `sup_errors` over the records.  Their orders are the log2 of each pair of successive errors, or None
    (JSON null) where either error is at or below linear_solver_tol (1 + max|u|), the amount by which the
    diffusion solve itself may miss: that is roundoff, not an order."""
    pairs = [(k, k + 1) for k in range(len(configs) - 1)]
    results, sup, errors = _compare_levels([(cfg, cfg.n_values[-1:]) for cfg in configs], pairs)
    floor = StepperConfig.linear_solver_tol * (1.0 + max(np.abs(r.final_state.fields.values).max() for r in results))
    orders = [[math.log2(a / b) if min(a, b) > floor else None for a, b in zip(e, e[1:])] for e in (errors, sup)]
    return {"errors": errors, "orders": orders[0], "sup_errors": sup, "sup_orders": orders[1]}


def mesh_order_study(config: ExperimentConfig, levels: int = 3, built: list | None = None) -> dict:
    """Self-convergence order in h: run at cells, 2*cells, 4*cells, ... and compare successive
    solutions, the finer restricted.  `built` is _mesh_levels(config, levels), if the caller has it."""
    return {**_order_study(built or _mesh_levels(config, levels)), "levels": levels}


def dt_order_study(config: ExperimentConfig, splitting: str, levels: int = 3, built: list | None = None) -> dict:
    """Self-convergence order in dt at a fixed mesh: run at dt, dt/2, dt/4, ... and compare successive
    solutions.  `built` is _dt_levels(config, splitting, levels), if the caller has it."""
    configs = built or _dt_levels(config, splitting, levels)
    return {**_order_study(configs), "splitting": splitting, "dt_base": configs[0].stepper.dt}


def study_mesh(config: ExperimentConfig, out_dir, levels: int = 3) -> dict:
    """Mesh and timestep self-convergence report: spatial order on the scenario itself, temporal
    orders for both splittings.  Every level of the three studies is built, once, before the first runs."""
    mesh, lie, strang = _mesh_levels(config, levels), *(_dt_levels(config, s, levels) for s in ("lie", "strang"))
    table = {"spatial": mesh_order_study(config, levels, mesh), "dt_lie": dt_order_study(config, "lie", levels, lie),
             "dt_strang": dt_order_study(config, "strang", levels, strang)}
    return _write_artifacts(out_dir, table, config)
