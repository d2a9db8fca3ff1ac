"""Command-line entry point.

Subcommands: run, study-n, study-mesh, verify-chains, picard-demo,
kernel-check.  Exit codes: 0 success, 1 configuration error, 2 invariant
breach / failed verdict, 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import bootstrap, kernel, picard
from .config import ExperimentConfig, load_config
from .errors import ConfigError, InvariantBreach
from .presets import preset_config, preset_names
from .runner import run_scenario, study_mesh, study_n, write_artifacts

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_INTERNAL = 3

# each numeric flag must lie above its floor and be finite (NaN fails too), and at most its ceiling: the
# envelope divides by p! as a float, which 171! overflows, a mode costs a few 512-entry table rows, and
# each study level doubles the cost of the one before (README)
FLAG_FLOORS = {"--p-max": 0, "--levels": 2, "--modes": 0, "--d": 0.0, "--length": 0.0}
FLAG_CEILINGS = {"--p-max": 170, "--modes": 10_000, "--levels": 6}


def _add_common(sub):
    sub.add_argument("--config", type=Path, help="JSON experiment configuration")
    sub.add_argument(
        "--preset",
        choices=preset_names(),
        help="named built-in scenario (alternative to --config)",
    )
    sub.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _resolve_config(args) -> ExperimentConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError("$", "give either --config or --preset, not both")
    if args.config is not None:
        return load_config(args.config)
    if args.preset is not None:
        return preset_config(args.preset)
    raise ConfigError("$", "one of --config or --preset is required")


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    summary = run_scenario(config, args.out)
    print(f"run '{summary['label']}': ok={summary['ok']} -> {args.out}/summary.json")
    return EXIT_OK if summary["ok"] else EXIT_INVARIANT


def _cmd_study_n(args) -> int:
    config = _resolve_config(args)
    table = study_n(config, args.out)
    diffs = [c["sup_diff"] for c in table["consecutive_sup_diffs"]]
    print(
        f"study-n '{table['label']}': sup diffs {['%.3e' % d for d in diffs]}, "
        f"monotone={table['monotone_decreasing']}, final gap {table['final_gap']:.3e}"
    )
    return EXIT_OK if table["ok"] else EXIT_INVARIANT


def _cmd_study_mesh(args) -> int:
    config = _resolve_config(args)
    table = study_mesh(config, args.out, levels=args.levels)
    orders = (f"{name} orders {table[key]['orders']} (sup {table[key]['sup_orders']})"
              for key, name in (("spatial", "spatial"), ("dt_lie", "lie dt"), ("dt_strang", "strang dt")))
    print(f"study-mesh '{table['label']}': " + ", ".join(orders))
    return EXIT_OK


def _cmd_verify_chains(args) -> int:
    chains = {name: bootstrap.replay_chain(name) for name in bootstrap.CHAIN_SCENARIOS}
    write_artifacts(args.out, {"chains.json": {name: chain.as_dict() for name, chain in chains.items()}})
    all_ok = True
    for name, chain in chains.items():
        print(f"chain {name}: {'pass' if chain.passed else 'FAIL'} ({len(chain.steps)} steps)")
        all_ok = all_ok and chain.passed
    return EXIT_OK if all_ok else EXIT_INVARIANT


def _cmd_picard_demo(args) -> int:
    inputs, constants, fns = picard.canonical_scenario()
    # iterate well past p_max so the last trajectory serves as the
    # converged limit of the discrete map (the envelope's reference)
    iterates = picard.picard_iterate(inputs, p_max=args.p_max + 10, bound=constants.C4)
    reference = iterates[-1]
    oracle = picard.ode_oracle(
        inputs, am_fn=fns["am"], delta1_fn=fns["delta1"], delta3_fn=fns["delta3"]
    )
    oracle_gap = float(np.abs(iterates[args.p_max] - oracle).max())
    rows = []
    ok = oracle_gap <= 1e-6
    for p, traj in enumerate(iterates[: args.p_max + 1]):
        err = float(np.abs(traj - reference).max())
        env = constants.envelope(p, safety=1.1)
        # double precision bottoms out near 1e-15; only enforce the
        # envelope while it is resolvable (the full factorial range is
        # certified in arbitrary precision by the test suite)
        checked = env > 1e-13
        ok = ok and (err <= env or not checked)
        rows.append({"p": p, "sup_error": err, "envelope": env, "checked": checked})
    errors = [[row["p"], repr(row["sup_error"]), repr(row["envelope"]), int(row["checked"])] for row in rows]
    write_artifacts(args.out, {
        "picard_errors.csv": (["p", "sup_error", "envelope", "checked"], errors),
        "picard.json": {"C4": constants.C4, "C5": constants.C5, "T": constants.T, "iterates": rows,
                        "oracle_gap": oracle_gap, "ok": ok},
    })
    print(
        f"picard-demo: C4={constants.C4:g} C5={constants.C5:g} T={constants.T:g}; "
        f"{len(rows) - 1} iterations, oracle gap {oracle_gap:.2e}, envelope ok={ok}"
    )
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_kernel_check(args) -> int:
    spec = kernel.KernelSpec(d=args.d, lengths=(args.length,), truncation=args.modes)
    try:  # the probe's cells, from --length alone, must have a finite positive h^2 and (2/h)^2
        kernel.probe_grids(spec)
    except ValueError as exc:
        raise ConfigError("--length", str(exc)) from exc
    tau = spec.diffusive_time
    mass = kernel.mass_conservation_check(
        spec, t_values=np.geomspace(1e-4, 1e-1, 5) * tau, x_values=np.linspace(0, args.length, 5)
    )
    semigroup = kernel.semigroup_check(spec, t=0.01 * tau, s=0.02 * tau)
    fit = kernel.gaussian_bound_fit(spec)
    probe = kernel.smoothing_probe(spec, p=2.0, s=4.0, dimension=1, seed=0)
    rows = [("mass_max_defect", mass["max_defect"], mass["max_defect"] <= 1e-8),  # (quantity, value, its verdict)
            # the kernel scales as 1/L: a semigroup defect relative to it
            ("semigroup_max_defect", semigroup["max_defect"], args.length * semigroup["max_defect"] <= 1e-6),
            ("kappa", fit["kappa"], True), ("C_H", fit["C_H"], fit["checks"]["C_H"]),
            ("C_H_rel_change", fit["rel_change"], fit["checks"]["rel_change"]),
            ("min_kernel_value", fit["min_kernel_value"], fit["checks"]["min_kernel_value"]),
            ("smoothing_max_rel_change", probe["max_rel_change"], probe["passed"])]
    write_artifacts(args.out, {"kernel_fit.csv": (["quantity", "value"], [[k, repr(v)] for k, v, _ in rows])})
    failed = [f"{k} {v:.2e}" for k, v, passed in rows if not passed]
    print(
        f"kernel-check: mass defect {mass['max_defect']:.2e}, semigroup defect "
        f"{semigroup['max_defect']:.2e}, C_H={fit['C_H']:.4f} "
        f"(drift {fit['rel_change']:.1%}), smoothing drift {probe['max_rel_change']:.1%} -> ok={not failed}"
        + (f", failed: {'; '.join(failed)}" if failed else "")
    )
    return EXIT_INVARIANT if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trdlab",
        description="Numerical laboratory for degenerate triangular reaction-diffusion systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("run", help="execute a scenario across its n list")
    _add_common(sub)
    sub.set_defaults(func=_cmd_run)

    sub = subs.add_parser("study-n", help="convergence study in the regularization level n")
    _add_common(sub)
    sub.set_defaults(func=_cmd_study_n)

    sub = subs.add_parser("study-mesh", help="mesh/timestep self-convergence study")
    _add_common(sub)
    sub.add_argument("--levels", type=int, default=3)
    sub.set_defaults(func=_cmd_study_mesh)

    sub = subs.add_parser("verify-chains", help="replay the exact-rational exponent chains")
    sub.add_argument("--out", type=Path, default=Path("out"))
    sub.set_defaults(func=_cmd_verify_chains)

    sub = subs.add_parser("picard-demo", help="pointwise Picard iteration against the ODE oracle")
    sub.add_argument("--out", type=Path, default=Path("out"))
    sub.add_argument("--p-max", type=int, default=12)
    sub.set_defaults(func=_cmd_picard_demo)

    sub = subs.add_parser("kernel-check", help="heat-kernel bound and smoothing verification")
    sub.add_argument("--out", type=Path, default=Path("out"))
    sub.add_argument("--d", type=float, default=1.0)
    sub.add_argument("--length", type=float, default=1.0)
    sub.add_argument("--modes", type=int, default=200)
    sub.set_defaults(func=_cmd_kernel_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, floor in FLAG_FLOORS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            ceiling = FLAG_CEILINGS.get(flag, math.inf)
            if value is not None and not (floor < value < math.inf and value <= ceiling):
                raise ConfigError(flag, f"must be finite and in ({floor}, {ceiling}], got {value}")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
