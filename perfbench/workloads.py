"""The benchmark's workloads: the jobs each one runs, the inputs it builds
from the workload seed, and the numbers read back from each job's outputs.

A job is one CLI invocation through ``trdlab.cli.main`` or one call of a
public module function. Every job yields ``(exit_code, payload)``;
``observe`` turns its artifacts into a flat dict of numbers, compared with
``reference.json``, plus a list of invariant violations. This module is
imported only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from trdlab import cli, kernel, picard
from trdlab.config import build_initial, load_config
from trdlab.presets import PRESETS, preset_config
from trdlab.stepper import StepperConfig

WORKLOADS = ("presets-1d", "grid-2d", "certify")

# grid-2d draws each species' cosine amplitude from this set, so every seed
# maps to one of 27 inputs and each has a stored reference.
GRID_AMPLITUDES = (0.1, 0.2, 0.3)
# certify draws the seeded smoothing probe's seed from range(PROBE_SEEDS).
PROBE_SEEDS = 8
# presets-1d runs each shipped preset to this horizon instead of its own
# T = 50: 50 Lie steps per n-level. A full pass takes about 41 s on 2 vCPUs;
# at T = 1 each job runs about 45 times in a 30-s run, so its median over
# the run averages out the host's swings in speed.
PRESET_T_FINAL = 1.0


@dataclass
class Job:
    name: str  # key into reference.json
    kind: str  # span name suffix: "run", "verify-chains", ...
    execute: Callable[[Path], tuple[int, object]]
    observe: Callable[[Path, object], tuple[dict, list[str]]]
    cell_steps: Callable[[dict], int] = field(default=lambda numbers: 0)


def draw_inputs(seed: int) -> dict:
    """Everything the seed decides, for both seeded workloads."""
    rng = np.random.default_rng(seed)
    amplitudes = tuple(float(a) for a in rng.choice(GRID_AMPLITUDES, size=3))
    return {"grid_amplitudes": amplitudes, "probe_seed": int(rng.integers(PROBE_SEEDS))}


def grid_config(amplitudes) -> dict:
    """A 128x128 Strang run with a frozen reactant (d_1 = 0), one finite
    and the infinite regularization level, 10 steps each: short, for the
    same reason as PRESET_T_FINAL."""
    a1, a2, a3 = amplitudes
    return {
        "label": "grid-2d",
        "system": {"m": 3, "alpha": [1.0, 1.0, 1.0], "d": [0.0, 1.0, 1.0]},
        "grid": {"lengths": [1.0, 1.0], "cells": [128, 128]},
        "initial": [
            {"kind": "cosine", "base": 1.0, "amplitude": a1, "modes": [1, 1]},
            {"kind": "cosine", "base": 1.0, "amplitude": a2, "modes": [2, 1]},
            {"kind": "cosine", "base": 0.5, "amplitude": a3, "modes": [1, 2]},
        ],
        "stepper": {"dt": 0.01, "splitting": "strang", "record_every": 10},
        "n_values": [10, "inf"],
        "t_final": 0.1,
    }


def preset_dict(name: str) -> dict:
    """The shipped preset ``name`` as a JSON config, with its horizon cut
    to PRESET_T_FINAL. Stepper settings are written only where the preset
    differs from the stepper's defaults."""
    config = preset_config(name)
    defaults = StepperConfig(dt=config.stepper.dt)
    stepper = {
        f.name: getattr(config.stepper, f.name)
        for f in dataclasses.fields(config.stepper)
        if f.name == "dt" or getattr(config.stepper, f.name) != getattr(defaults, f.name)
    }
    return {
        "label": name,
        "system": {"m": config.system.m, "alpha": list(config.system.alpha), "d": list(config.system.d)},
        "grid": {"lengths": list(config.grid.lengths), "cells": list(config.grid.cells)},
        "initial": [dict(spec) for spec in config.initial],
        "stepper": stepper,
        "n_values": [n if math.isfinite(n) else "inf" for n in config.n_values],
        "t_final": PRESET_T_FINAL,
        "p_values": list(config.p_values),
        "seed": config.seed,
    }


def write_preset_config(name: str, work: Path) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"preset-{name}.json"
    path.write_text(json.dumps(preset_dict(name), indent=1))
    return path


def _tag(amplitudes) -> str:
    return "-".join(f"{a:g}" for a in amplitudes)


def write_grid_config(amplitudes, work: Path) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"grid-2d-{_tag(amplitudes)}.json"
    path.write_text(json.dumps(grid_config(amplitudes), indent=1))
    return path


# -- run jobs (presets-1d, grid-2d) ----------------------------------------


def _cli(argv):
    def execute(out: Path):
        return cli.main([*argv, "--out", str(out)]), None

    return execute


def _csv_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _observe_run(config):
    st = config.stepper

    def observe(out: Path, _payload):
        summary = json.loads((out / "summary.json").read_text())
        numbers, problems = {}, []
        if summary.get("ok") is not True:
            problems.append("summary ok is not true")
        cells = math.prod(summary["grid"]["cells"])
        numbers["cells"] = cells
        for label, r in summary["runs"].items():
            key = f"runs.{label}."
            limits = (
                ("max_pair_mass_drift_rel", st.mass_tol_rel),
                ("max_degenerate_pair_dev", st.degenerate_pair_tol),
                ("max_a2_sum_dev", st.a2_sum_tol),
            )
            for name, tol in limits:
                if not r[name] <= tol:
                    problems.append(f"{key}{name} = {r[name]:.3e} above {tol:g}")
            for name in ("min_value", "clamp_worst"):
                if not r[name] >= -st.positivity_tol:
                    problems.append(f"{key}{name} = {r[name]:.3e} below -{st.positivity_tol:g}")
            if r["entropy_balance"]["ok"] is not True:
                problems.append(f"{key}entropy_balance failed")
            if r["m2_exceeded"]:
                problems.append(f"{key}m2 bound exceeded")
            for name in (
                "steps",
                "final_time",
                "entropy_initial",
                "entropy_final",
                "equilibrium_residual",
                "min_value",
                "mass_total_final",
                "m2_bound",
            ):
                numbers[key + name] = r[name]
            numbers[key + "entropy_balance.max_violation"] = r["entropy_balance"]["max_violation"]
            for name in ("final_sup", "final_l1"):
                for i, v in enumerate(r[name]):
                    numbers[f"{key}{name}[{i}]"] = v
            numbers[key + "csv_rows"] = _csv_rows(out / f"diagnostics_{label}.csv")
        return numbers, problems

    return observe


def _run_cell_steps(numbers: dict) -> int:
    steps = sum(v for k, v in numbers.items() if k.startswith("runs.") and k.endswith(".steps"))
    return numbers["cells"] * steps


def preset_jobs(work: Path) -> list[Job]:
    jobs = []
    for name in PRESETS:
        path = write_preset_config(name, work)
        jobs.append(
            Job(
                name=f"run:{name}",
                kind="run",
                execute=_cli(["run", "--config", str(path)]),
                observe=_observe_run(load_config(path)),
                cell_steps=_run_cell_steps,
            )
        )
    return jobs


def grid_jobs(amplitudes, work: Path) -> list[Job]:
    path = write_grid_config(amplitudes, work)
    return [
        Job(
            name=f"run:grid-2d:{_tag(amplitudes)}",
            kind="run",
            execute=_cli(["run", "--config", str(path)]),
            observe=_observe_run(load_config(path)),
            cell_steps=_run_cell_steps,
        )
    ]


# -- certify ---------------------------------------------------------------


def _observe_chains(out: Path, _payload):
    chains = json.loads((out / "chains.json").read_text())
    numbers = {}
    for name, chain in chains.items():
        numbers[f"{name}.conclusion"] = chain["conclusion"]
        numbers[f"{name}.n_steps"] = len(chain["steps"])
        for k, s in enumerate(chain["steps"]):
            numbers[f"{name}.steps[{k}]"] = json.dumps(
                [s["rule"], s["species"], s["inputs"], s["output"], s["passed"]], sort_keys=True
            )
    return numbers, []


def _observe_picard_demo(out: Path, _payload):
    data = json.loads((out / "picard.json").read_text())
    problems = [] if data["ok"] is True else ["picard.json ok is not true"]
    numbers = {k: data[k] for k in ("C4", "C5", "T", "oracle_gap")}
    for row in data["iterates"]:
        p = row["p"]
        numbers[f"p{p}.sup_error"] = row["sup_error"]
        numbers[f"p{p}.envelope"] = row["envelope"]
        numbers[f"p{p}.checked"] = row["checked"]
    return numbers, problems


def _observe_kernel_check(out: Path, _payload):
    with open(out / "kernel_fit.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {q: float(v) for q, v in rows}, []


def _mp_certify(_out: Path):
    inputs, constants, _ = picard.canonical_scenario(n_points=301)
    iterates = picard.picard_iterate_mp(inputs, p_max=40, dps=80)
    report = picard.convergence_envelope_check(iterates[:26], constants, iterates[-1], safety=1.1)
    return (0 if report["passed"] else 2), report


def _observe_mp_certify(_out: Path, report):
    numbers = {"worst_p": report["worst_p"], "worst_margin": report["worst_margin"]}
    for row in report["per_p"]:
        numbers[f"p{row['p']}.error"] = row["error"]
        numbers[f"p{row['p']}.envelope"] = row["envelope"]
    return numbers, ([] if report["passed"] else ["envelope check failed"])


PROBE_SPEC = dict(d=1.0, lengths=(1.0,), truncation=200)


def _probe(seed: int):
    def execute(_out: Path):
        spec = kernel.KernelSpec(**PROBE_SPEC)
        result = kernel.smoothing_probe(spec, p=2.0, s=4.0, dimension=1, seed=seed)
        return (0 if result["passed"] else 2), result

    return execute


def _observe_probe(_out: Path, result):
    numbers = {"max_rel_change": result["max_rel_change"], "threshold": result["threshold"]}
    for name in ("ratios_coarse", "ratios_fine"):
        for i, v in enumerate(result[name]):
            numbers[f"{name}[{i}]"] = v
    return numbers, ([] if result["passed"] else ["smoothing probe failed"])


def probe_cell_steps() -> int:
    """Cells x time steps of the sourced-heat marches in one 1D
    ``smoothing_probe`` call at its default mesh: every trial marches at
    ``cells`` and at ``2 * cells``."""
    defaults = {
        k: p.default for k, p in inspect.signature(kernel.smoothing_probe).parameters.items()
    }
    steps = max(1, round(defaults["t_final"] / defaults["dt"]))
    return defaults["trials"] * steps * 3 * defaults["cells"]


def certify_jobs(probe_seed: int) -> list[Job]:
    per_probe = probe_cell_steps()
    return [
        Job("verify-chains", "verify-chains", _cli(["verify-chains"]), _observe_chains),
        Job("picard-demo", "picard-demo", _cli(["picard-demo"]), _observe_picard_demo),
        Job(
            "kernel-check",
            "kernel-check",
            _cli(["kernel-check"]),
            _observe_kernel_check,
            cell_steps=lambda numbers: per_probe,
        ),
        Job("mp-certify", "mp-certify", _mp_certify, _observe_mp_certify),
        Job(
            f"probe:{probe_seed}",
            "probe",
            _probe(probe_seed),
            _observe_probe,
            cell_steps=lambda numbers: per_probe,
        ),
    ]


def build_inputs(workload: str, seed: int, work: Path) -> None:
    """What a user's run builds before any step is taken: the configs
    and initial fields of every job (timed cold as ``setup_s``)."""
    if workload == "presets-1d":
        for name in PRESETS:
            build_initial(load_config(write_preset_config(name, work)))
    elif workload == "grid-2d":
        build_initial(load_config(write_grid_config(draw_inputs(seed)["grid_amplitudes"], work)))
    elif workload == "certify":
        picard.canonical_scenario()
        picard.canonical_scenario(n_points=301)
        kernel.KernelSpec(**PROBE_SPEC)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def build_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    inputs = draw_inputs(seed)
    if workload == "presets-1d":
        return preset_jobs(work)
    if workload == "grid-2d":
        return grid_jobs(inputs["grid_amplitudes"], work)
    if workload == "certify":
        return certify_jobs(inputs["probe_seed"])
    raise ValueError(f"unknown workload {workload!r}")
