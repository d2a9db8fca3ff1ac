"""End-to-end command-line behaviour: exit codes, artifacts, determinism."""

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from trdlab.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    build_parser,
    main,
)
from trdlab.config import build_initial, load_config, parse_config
from trdlab.diagnostics import csv_columns
from trdlab.errors import ConfigError
from trdlab.presets import preset_config, preset_names
from trdlab.runner import run_scenario

FAST_CONFIG = {
    "label": "cli-fast",
    "system": {"m": 3, "alpha": [1, 1, 1], "d": [1.0, 1.0, 0.0]},
    "grid": {"lengths": [1.0], "cells": [32]},
    "initial": [
        {"kind": "constant", "value": 1.2},
        {"kind": "constant", "value": 0.8},
        {"kind": "constant", "value": 0.1},
    ],
    "stepper": {"dt": 0.05, "splitting": "lie", "record_every": 5},
    "n_values": [1, "inf"],
    "t_final": 1.0,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_accepts_preset_and_flags(self):
        args = build_parser().parse_args(["run", "--preset", "df15-a3", "--out", "x"])
        assert args.preset == "df15-a3"
        assert args.out == Path("x")

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "no-such-preset"])


class TestRunCommand:
    def test_config_and_preset_are_mutually_exclusive(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        code = main(
            ["run", "--config", str(cfg), "--preset", "df15-a3", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG

    def test_one_of_config_or_preset_required(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_successful_run_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "summary.json").exists()
        assert (out / "diagnostics_1.csv").exists()
        assert (out / "diagnostics_inf.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"] is True
        assert summary["label"] == "cli-fast"

    def test_a_config_without_a_label_is_labelled_run(self, tmp_path, capsys):
        unlabelled = {k: v for k, v in FAST_CONFIG.items() if k != "label"}
        unlabelled["n_values"] = [1, 10, 100, "inf"]
        assert parse_config(unlabelled).label == "run"
        cfg = write_config(tmp_path, unlabelled)
        assert load_config(cfg).label == "run"
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["label"] == "run"
        assert "run 'run'" in capsys.readouterr().out

    def test_unknown_field_rejected(self, tmp_path):
        bad = dict(FAST_CONFIG)
        bad["bad"] = 1
        cfg = write_config(tmp_path, bad)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_negative_initial_datum_rejected(self, tmp_path):
        bad = json.loads(json.dumps(FAST_CONFIG))
        bad["initial"][0] = {"kind": "constant", "value": -0.5}
        cfg = write_config(tmp_path, bad)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "path, value",
        [
            ("t_final", float("nan")),
            ("t_final", float("inf")),
            ("stepper.dt", float("nan")),
            ("stepper.record_every", 0),
            ("n_values", [float("nan")]),
            ("p_values", [float("nan")]),
            ("stepper.dt_safety", 0.5),
            ("stepper.positivity_tol", 1e-12),
            ("n_values", [None]),
            ("n_values", [1000000, 1000001, "inf"]),  # both labelled "1e+06": one level's artifacts would be lost
            ("p_values", ["x"]),
            ("p_values", [4.0, 4.0]),  # a repeat's CSV columns would repeat its first's
            ("p_values", [3.5, 2, 3.5]),
            ("p_values", [4.0, 4.0000001]),  # both labelled "4"
            ("seed", "abc"),
            ("initial[1].value", "abc"),
            ("initial[0].modes[0]", "a"),
            ("initial[0].modes", [1, 2]),
            ("initial[1].value", float("nan")),
            ("initial[0].base", float("nan")),
            ("initial[0].base", float("inf")),
            ("initial[2]", {"kind": "expression", "formula": "sqrt(x-0.5)"}),
            ("initial[2]", {"kind": "expression", "formula": "1/(x-x)"}),
            ("initial[2]", {"kind": "expression", "formula": "undefined_name(x)"}),
            ("initial[2]", {"kind": "expression", "formula": "x[:3]"}),
            ("initial[2]", {"kind": "expression", "formula": "[1,2,3]"}),
            ("initial[2]", {"kind": "expression", "formula": "'abc'"}),
            ("initial[2]", {"kind": "expression", "formula": "1j+x"}),
            ("initial[2]", {"kind": "expression", "formula": "9**9**9 + 0*x"}),  # as integers, it never ends
            ("initial[2]", {"kind": "expression", "formula": "[c for c in ().__class__.__base__.__subclasses__() if "
                            "c.__name__ == 'catch_warnings'][0]()._module.__builtins__['len']([1]) * 0 + x"}),  # reaches builtins
            ("system.d[0]", float("nan")),
            ("system.d[0]", float("inf")),
            ("system.alpha[0]", float("nan")),
            ("system.m", 3.5),
            ("grid.lengths[0]", float("nan")),
            ("grid.lengths[0]", float("inf")),
            ("grid.cells[0]", 16.7),
            ("grid.lengths", [1e-300]),
            ("grid.lengths", [1e-160]),
            ("grid.lengths", [1e300]),
        ],
    )
    def test_non_finite_or_zero_fields_exit_1_naming_the_field(self, tmp_path, capsys, path, value):
        bad = json.loads(json.dumps(FAST_CONFIG))
        bad["initial"][0] = {"kind": "cosine", "base": 1.2, "amplitude": 0.1, "modes": [1]}
        *parents, key = [int(k[1:-1]) if k[0] == "[" else k for k in re.findall(r"\w+|\[\d+\]", path)]
        target = bad
        for name in parents:
            target = target[name]
        target[key] = value
        cfg = write_config(tmp_path, bad)  # json writes NaN / Infinity literals
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"$.{path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "study-mesh"])
    def test_a_step_count_past_every_float_exits_1_naming_the_horizon(self, tmp_path, capsys, command):
        huge = {**FAST_CONFIG, "stepper": {**FAST_CONFIG["stepper"], "dt": 1e-10}, "t_final": 1e300}
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, huge)), "--out", str(out)]) == EXIT_CONFIG
        assert "$.t_final:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lengths", [1e-109, 2e110])
    def test_a_cell_measure_that_leaves_the_floats_exits_1(self, tmp_path, capsys, lengths):
        # each h^2 is a normal float, but the product of three widths under- or overflows
        box = dict(FAST_CONFIG, grid={"lengths": [lengths] * 3, "cells": [2] * 3})
        assert main(["run", "--config", str(write_config(tmp_path, box)), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "$.grid.lengths" in capsys.readouterr().err

    def test_cells_whose_largest_laplacian_eigenvalue_overflows_exit_1(self, tmp_path, capsys):
        # at h = 1e-154, h^2 and 1 / h^2 are normal floats, but (2 / h)^2 overflows
        grid = dict(FAST_CONFIG, grid={"lengths": [2e-154], "cells": [2]})
        assert main(["run", "--config", str(write_config(tmp_path, grid)), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "$.grid.lengths" in capsys.readouterr().err

    def test_zero_horizon_run_succeeds(self, tmp_path):
        short = dict(FAST_CONFIG)
        short["t_final"] = 0.0
        cfg = write_config(tmp_path, short)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "summary.json").exists()

    def test_every_diagnostics_csv_cell_is_a_float_under_unique_names(self, tmp_path):
        # a preset cut to T = 1, and a short run whose p list holds 2 (which has its l2_i already) and a non-integer p
        preset = replace(preset_config("df15-a1"), t_final=1.0)
        run_scenario(preset, tmp_path / "preset")
        cfg = write_config(tmp_path, {**FAST_CONFIG, "p_values": [2.0, 3.5]})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "short")]) == EXIT_OK
        paths = sorted(tmp_path.glob("*/diagnostics_*.csv"))
        assert len(paths) == len(preset.n_values) + len(FAST_CONFIG["n_values"])
        for path in paths:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert len(set(header)) == len(header)
            assert rows
            for row in rows:
                assert len(row) == len(header)
                for cell in row:
                    float(cell)
        with open(tmp_path / "short" / "diagnostics_1.csv", newline="") as fh:
            assert next(csv.reader(fh)) == [name for name, _ in csv_columns(3, (2.0, 3.5))]

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "diagnostics_1.csv").read_bytes() == (out_b / "diagnostics_1.csv").read_bytes()


class TestStudyCommands:
    @pytest.mark.parametrize("t_final", [5.0, 0.0])
    def test_study_n_reports_monotone_gap(self, tmp_path, t_final):
        cfg = write_config(tmp_path, {**FAST_CONFIG, "n_values": [1, 10, 100], "t_final": t_final})
        out = tmp_path / "out"
        assert main(["study-n", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        table = json.loads((out / "summary.json").read_text())
        assert table["monotone_decreasing"] is True
        assert table["final_gap"] < 1e-3

    @pytest.mark.parametrize("n_values", [[10], ["inf"]])
    def test_study_n_on_one_level_exits_1_naming_the_n_list(self, tmp_path, capsys, n_values):
        cfg = write_config(tmp_path, {**FAST_CONFIG, "n_values": n_values})
        assert main(["study-n", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "$.n_values" in capsys.readouterr().err

    @pytest.mark.parametrize("t_final", [0.5, 0.0])
    def test_study_mesh_writes_orders(self, tmp_path, t_final):
        cfg = write_config(tmp_path, {**FAST_CONFIG, "t_final": t_final})
        out = tmp_path / "out"
        assert main(["study-mesh", "--config", str(cfg), "--out", str(out), "--levels", "3"]) == EXIT_OK
        table = json.loads((out / "summary.json").read_text())
        assert "spatial" in table and "dt_lie" in table and "dt_strang" in table
        if t_final == 0.0:  # no record to take a sup over
            for study in ("spatial", "dt_lie", "dt_strang"):
                assert table[study]["sup_errors"] == [0.0, 0.0] and table[study]["sup_orders"] == [None]

    def test_study_mesh_reports_null_orders_at_an_exact_equilibrium(self, tmp_path):
        # constant data (1, 1, 1) with alpha = (1, 1, 1) never moves: every
        # error is 0, and an order of 0/0 is no order
        flat = {
            **FAST_CONFIG,
            "grid": {"lengths": [1.0], "cells": [16]},
            "initial": [{"kind": "constant", "value": 1.0}] * 3,
            "t_final": 0.5,
        }
        cfg = write_config(tmp_path, flat)
        out = tmp_path / "out"
        assert main(["study-mesh", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        table = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        for study in ("spatial", "dt_lie", "dt_strang"):
            assert table[study]["errors"] == [0.0, 0.0]
            assert table[study]["orders"] == [None]

    def test_study_mesh_checks_every_level_before_its_first_run(self, tmp_path, capsys):
        # run takes no step at t_final = 0, but the second dt level, 5e-324 / 2, rounds to 0
        tiny_dt = {**FAST_CONFIG["stepper"], "dt": 5e-324}
        cfg = write_config(tmp_path, {**FAST_CONFIG, "stepper": tiny_dt, "t_final": 0.0})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
        assert main(["study-mesh", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "$.stepper.dt:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestAnalysisCommands:
    def test_verify_chains_writes_chains_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify-chains", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "chains.json").read_text())
        assert len(payload) == 5
        lines = capsys.readouterr().out.strip().splitlines()
        assert all("pass" in line for line in lines)

    def test_picard_demo_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["picard-demo", "--out", str(out), "--p-max", "8"]) == EXIT_OK
        payload = json.loads((out / "picard.json").read_text())
        assert payload["ok"] is True
        assert payload["oracle_gap"] <= 1e-6
        assert (out / "picard_errors.csv").exists()

    def test_kernel_check_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["kernel-check", "--out", str(out)]) == EXIT_OK
        text = (out / "kernel_fit.csv").read_text()
        assert "C_H" in text and "mass_max_defect" in text

    def test_kernel_check_names_the_check_that_failed(self, tmp_path, capsys):
        # 100 modes dip below zero at the Gaussian fit's earliest time; every other figure is at roundoff
        out = tmp_path / "out"
        assert main(["kernel-check", "--modes", "100", "--out", str(out)]) == EXIT_INVARIANT
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.endswith("-> ok=False, failed: min_kernel_value -2.60e-04"), line
        rows = dict(list(csv.reader((out / "kernel_fit.csv").open()))[1:])
        assert float(rows["min_kernel_value"]) < -1e-10

    @pytest.mark.parametrize("argv", [["picard-demo", "--p-max", "8"], ["kernel-check"]])
    def test_reruns_are_byte_identical(self, tmp_path, argv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(out_a)]) == EXIT_OK
        assert main([*argv, "--out", str(out_b)]) == EXIT_OK
        names = sorted(path.name for path in out_a.iterdir())
        assert names == sorted(path.name for path in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize(
        "argv",
        [
            ["picard-demo", "--p-max", "-3"],
            ["picard-demo", "--p-max", "0"],
            ["picard-demo", "--p-max", "171"],
            ["picard-demo", "--p-max", "100000"],
            ["kernel-check", "--modes", "0"],
            ["kernel-check", "--modes", "10001"],
            ["kernel-check", "--modes", "1000000000"],
            ["kernel-check", "--d", "-1"],
            ["kernel-check", "--d", "nan"],
            ["kernel-check", "--length", "0"],
            ["kernel-check", "--length", "inf"],
            ["kernel-check", "--length", "1e300"],
            ["kernel-check", "--length", "1e-300"],
            ["study-mesh", "--preset", "df15-a1", "--levels", "0"],
            ["study-mesh", "--preset", "df15-a1", "--levels", "-1"],
            ["study-mesh", "--preset", "df15-a1", "--levels", "1"],
            ["study-mesh", "--preset", "df15-a1", "--levels", "7"],
            ["study-mesh", "--preset", "df15-a1", "--levels", "30"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_malformed_numeric_flags_exit_1_naming_the_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"{argv[-2]}:" in capsys.readouterr().err
        assert not out.exists()

    def test_p_max_at_its_ceiling_runs(self, tmp_path):
        # the envelope's p! is a float up to 170!
        assert main(["picard-demo", "--p-max", "170", "--out", str(tmp_path)]) == EXIT_OK

    def test_semigroup_verdict_is_relative_to_the_kernels_size(self, tmp_path, monkeypatch):
        # at L = 1e154 the kernel is about 1e-154, so an absolute defect of 1e-157 is a 1e-3 relative one
        import trdlab.kernel as kernel_mod

        real = kernel_mod.heat_kernel_eval
        monkeypatch.setattr(kernel_mod, "heat_kernel_eval", lambda *a: real(*a) * (1.0 + 1e-3))
        assert main(["kernel-check", "--length", "1e154", "--out", str(tmp_path)]) == EXIT_INVARIANT

    def test_internal_errors_exit_3(self, tmp_path, monkeypatch):
        import trdlab.cli as cli_mod

        def boom(args):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(cli_mod.bootstrap, "replay_chain", boom)
        out = tmp_path / "out"
        assert cli_mod.main(["verify-chains", "--out", str(out)]) == 3
        assert not out.exists()  # the directory is made only when a file is written


def expression_config(formula: str) -> dict:
    return {**FAST_CONFIG, "initial": [*FAST_CONFIG["initial"][:2], {"kind": "expression", "formula": formula}]}


@pytest.mark.parametrize(
    "formula",
    ["().__class__", "x[0]", "lambda: x", "[x for x in y]", "'1'", "1j", "True + x", "x % 2", "x // 2", "x == 1",
     "0 < x < 1", "not x", "x if x else x", "maximum(x, 0, out=x)", "__import__('os')", "undefined_name(x)"],
)
def test_a_node_outside_the_expression_grammar_is_rejected_when_parsed(formula):
    with pytest.raises(ConfigError, match=r"^\$\.initial\[2\]\.formula: invalid expression: .* is not in the expression grammar$"):
        parse_config(expression_config(formula))


@pytest.mark.parametrize("axis", ["y", "z"])
def test_an_expression_naming_an_axis_the_grid_lacks_is_rejected_when_parsed(tmp_path, capsys, axis):
    message = rf"^\$\.initial\[2\]\.formula: '{axis}' names an axis the grid lacks: it has 1 axis$"
    with pytest.raises(ConfigError, match=message):
        parse_config(expression_config(f"{axis} + x"))
    cfg = write_config(tmp_path, expression_config(f"{axis} + x"))
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "names an axis the grid lacks" in capsys.readouterr().err
    assert not out.exists()


def test_expression_comparisons_give_step_data():
    config = parse_config(expression_config("2*(x < 0.5) + 0.5*(x >= 0.75) + (x > 2) + (x <= -1)"))
    expected = [2.0 * (c < 0.5) + 0.5 * (c >= 0.75) for c in config.grid.axis_centers(0)]
    assert build_initial(config).values[2].tolist() == expected


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    config = parse_config(json.loads(blocks[0]))
    assert config.label == "demo"
    assert build_initial(config).values.shape == (3, 128)  # the expression is evaluated, not only parsed


def test_readme_csv_header_is_the_preset_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```csv\n(.*?)\n```", readme, flags=re.S)
    assert blocks == [",".join(name for name, _ in csv_columns(3, (4.0,)))]


def test_readme_cli_usage_flags_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = re.search(r"## Command line\n\n```\n(.*?)```", readme, flags=re.S).group(1)
    flags = re.findall(r"(--[\w-]+)(?: ([A-Z]+))?", usage)
    assert flags
    samples = {"FILE": "config.json", "NAME": preset_names()[0], "DIR": "out"}
    for command in ("run", "study-n", "study-mesh"):
        for flag, metavar in flags:
            argv = [command, flag] + ([samples[metavar]] if metavar else [])
            build_parser().parse_args(argv)
