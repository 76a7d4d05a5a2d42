"""Sweep runner outputs and the command-line interface."""

import csv
import json
import math
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fleetcharge as fc
from fleetcharge.cli import main
from fleetcharge.domain import ValidationIssue, scenario_variant
from fleetcharge.run import PlanVerificationError
from fleetcharge.solver import NumericalFailure, simplex
from fleetcharge.sweep import SweepCell, SweepSpec, _curve_rows, run_sweep

from oracles import curve_rows_by_loop, run_fresh

FIXTURES = Path(__file__).parent / "fixtures"
TWO_TRUCK = str(FIXTURES / "two_truck.json")
REMOTE = str(FIXTURES / "remote_variant.json")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_spec_validation(self, two_truck_scenario, tmp_path):
        # The constructor checks the lists and the limits; each cell's values
        # are checked by run_sweep before any cell is solved or written.
        out = tmp_path / "out"

        def sweep(**grid):
            run_sweep(two_truck_scenario, SweepSpec(out_dir=out, **grid))

        with pytest.raises(ValueError):
            SweepSpec(alphas=[], slack_minutes=[0], designs=["codesign"])
        with pytest.raises(ValueError):
            sweep(alphas=[1.0], slack_minutes=[0], designs=["bogus"])
        with pytest.raises(ValueError):
            sweep(alphas=[1.0], slack_minutes=[0], designs=["fixed"])
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                sweep(alphas=[1.0, alpha], slack_minutes=[0], designs=["codesign"])
        with pytest.raises(ValueError, match="slack"):
            sweep(alphas=[1.0], slack_minutes=[0, -15], designs=["codesign"])
        assert not out.exists()
        for limit in ("rel_gap", "time_limit", "node_limit"):
            for value in (-1, math.nan, math.inf):
                with pytest.raises(ValueError, match=limit):
                    SweepSpec(alphas=[1.0], slack_minutes=[0], designs=["codesign"],
                              **{limit: value})

    @pytest.mark.parametrize("alphas, slacks, designs, named", [
        ([0.1234567, 0.1234568], [0], ["codesign"], ["0.1234567", "0.1234568"]),
        ([1.0, 1], [0], ["codesign"], ["alpha=1.0", "alpha=1,"]),
        ([1.0], [15, 15], ["codesign"], ["slack_minutes=15"]),
        ([1.0], [0], ["codesign", "codesign"], ["design='codesign'"]),
    ])
    def test_cells_sharing_a_tag_are_rejected(self, alphas, slacks, designs, named):
        # Each cell writes plan_<tag>.json, so such cells would share one file.
        with pytest.raises(ValueError, match="share the tag") as info:
            SweepSpec(alphas=alphas, slack_minutes=slacks, designs=designs)
        for text in named:
            assert text in str(info.value)

    def test_single_cell_matches_single_solve(self, two_truck_scenario, tmp_path):
        spec = SweepSpec(alphas=[1.0], slack_minutes=[0], designs=["codesign"],
                         rel_gap=1e-6, out_dir=tmp_path)
        summary = run_sweep(two_truck_scenario, spec)
        assert len(summary["cells"]) == 1
        direct = fc.solve_scenario(two_truck_scenario, rel_gap=1e-6)
        rows = read_csv(tmp_path / "costs.csv")
        assert float(rows[0]["total"]) == pytest.approx(
            direct.plan.costs.total, abs=1e-9)

    def test_full_factorial_grid(self, two_truck_scenario, tmp_path):
        spec = SweepSpec(
            alphas=[0.5, 1.0], slack_minutes=[0, 15],
            designs=["codesign", "fixed"],
            fixed_counts={"DC": {1: 2}},
            rel_gap=1e-3, out_dir=tmp_path)
        summary = run_sweep(two_truck_scenario, spec)
        assert len(summary["cells"]) == 8
        expected = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "summary.json").read_bytes() == expected.encode()
        plans = sorted(tmp_path.glob("plan_*.json"))
        assert len(plans) == 8
        assert (tmp_path / "infrastructure.csv").exists()
        assert (tmp_path / "power_curves.csv").exists()

    def test_costs_match_validator_in_every_cell(self, two_truck_scenario, tmp_path):
        spec = SweepSpec(
            alphas=[1.0], slack_minutes=[0, 15], designs=["codesign"],
            rel_gap=1e-6, out_dir=tmp_path)
        run_sweep(two_truck_scenario, spec)
        for row in read_csv(tmp_path / "costs.csv"):
            plan_path = tmp_path / f"plan_a{float(row['alpha']):g}_s{row['slack_minutes']}_{row['design']}.json"
            with open(plan_path) as fh:
                plan_doc = json.load(fh)
            assert float(row["total"]) == pytest.approx(
                plan_doc["costs"]["total"], abs=1e-9)
            parts = plan_doc["costs"]
            assert float(row["total"]) == pytest.approx(
                parts["energy"] + parts["infrastructure"] + parts["peak"], abs=1e-6)

    def test_failed_cells_recorded_and_continue(self, two_truck_scenario, tmp_path):
        spec = SweepSpec(
            alphas=[1.0], slack_minutes=[0], designs=["codesign", "fixed"],
            fixed_counts={},  # zero chargers: fixed cell infeasible
            rel_gap=1e-3, out_dir=tmp_path)
        summary = run_sweep(two_truck_scenario, spec)
        statuses = {c["design"]: c["status"] for c in summary["cells"]}
        assert statuses["codesign"] == "optimal"
        assert statuses["fixed"] == "infeasible"
        assert summary["failures"]

    def test_deterministic_bytes(self, two_truck_scenario, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            spec = SweepSpec(
                alphas=[0.5, 1.0], slack_minutes=[0, 15], designs=["codesign"],
                rel_gap=1e-3, out_dir=out)
            run_sweep(two_truck_scenario, spec)
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("infrastructure.csv", "costs.csv", "power_curves.csv")
            })
        assert outputs[0] == outputs[1]

    def test_amortization_convention(self, two_truck_scenario, tmp_path):
        ratio = fc.default_amortize_ratio(two_truck_scenario)
        assert ratio == pytest.approx(1 / 3650)
        spec = SweepSpec(alphas=[1.0], slack_minutes=[0], designs=["codesign"],
                         rel_gap=1e-3, out_dir=tmp_path)
        run_sweep(two_truck_scenario, spec)
        row = read_csv(tmp_path / "costs.csv")[0]
        assert float(row["infrastructure_amortized"]) == pytest.approx(
            float(row["infrastructure"]) * ratio)
        # The plan and the CSV print one figure each: capital times the
        # ratio, and energy plus that plus peak, summed in that order.
        plan = json.loads((tmp_path / "plan_a1_s0_codesign.json").read_text())
        infrastructure = plan["costs"]["infrastructure"] * ratio
        total = plan["costs"]["energy"] + infrastructure + plan["costs"]["peak"]
        assert plan["costs_amortized"] == {
            "infrastructure": infrastructure, "total": total, "amortization_ratio": ratio}
        assert (row["infrastructure_amortized"], row["total_amortized"]) == (
            repr(infrastructure), repr(total))

    def test_power_curves_columns(self, two_truck_scenario, tmp_path):
        spec = SweepSpec(alphas=[1.0], slack_minutes=[0], designs=["codesign"],
                         rel_gap=1e-3, out_dir=tmp_path)
        run_sweep(two_truck_scenario, spec)
        rows = read_csv(tmp_path / "power_curves.csv")
        bpd = two_truck_scenario.time_grid.blocks_per_day
        assert len(rows) == len(two_truck_scenario.location_ids) * bpd
        sample = rows[0]
        assert {"kw_type_1", "kw_type_1_smooth", "kw_total", "kw_total_smooth",
                "max_peak_kw", "installed_kw"} <= set(sample)
        depot_rows = [r for r in rows if r["location"] == "DC"]
        raw_total = sum(float(r["kw_total"]) for r in depot_rows)
        smooth_total = sum(float(r["kw_total_smooth"]) for r in depot_rows)
        assert raw_total > 0
        # Smoothing preserves rough mass (edges truncate the window).
        assert smooth_total == pytest.approx(raw_total, rel=0.25)


def as_written(rows):
    """Each value as ``csv`` writes it: strings as they are, the rest by repr."""
    return [[v if isinstance(v, str) else repr(v) for v in row] for row in rows]


def random_plan(scenario, seed):
    """Curves with roundoff-prone values, exact -0.0 blocks and types or
    locations that draw nothing."""
    rng = np.random.default_rng(seed)
    blocks = scenario.time_grid.total_blocks
    power, counts = {}, {}
    for location in scenario.location_ids[1:]:
        power[location], counts[location] = {}, {}
        for charger in scenario.charger_catalog[1:]:
            curve = rng.uniform(0.0, 350.0, blocks) * (rng.random(blocks) < 0.6)
            curve[rng.random(blocks) < 0.2] = -0.0
            power[location][charger.id] = curve.tolist()
            counts[location][charger.id] = int(rng.integers(0, 4))
    return SimpleNamespace(power_by_type=power, charger_counts=counts)


class TestCurveRows:
    """The numpy power curves against the per-block loops: every value
    prints the same."""

    CELL = SweepCell(1.0, 0, "codesign")

    def check(self, scenario, plan):
        type_ids = [c.id for c in scenario.charger_catalog]
        rows = _curve_rows(scenario, self.CELL, plan, type_ids)
        reference = curve_rows_by_loop(scenario, self.CELL, plan, type_ids)
        assert as_written(rows) == as_written(reference)
        assert all(type(v) is float for row in rows for v in row[5:])
        return rows

    def test_fixture_plans(self, two_truck_scenario, two_truck_outcome,
                           depot_scenario, depot_base_outcome):
        self.check(two_truck_scenario, two_truck_outcome.plan)
        self.check(depot_scenario, depot_base_outcome.plan)

    @pytest.mark.parametrize("blocks_per_day", [96, 3, 1])  # 3 and 1: below the window
    @pytest.mark.parametrize("days", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_multi_day_grids(self, seed, days, blocks_per_day):
        scenario = fc.generate_synthetic(1, n_trucks=2, n_locations=3, n_days=days)
        grid = fc.TimeGrid(1440 // blocks_per_day, days)
        scenario = replace(scenario, time_grid=grid)
        rows = self.check(scenario, random_plan(scenario, seed))
        assert "-0.0" not in {v for row in as_written(rows) for v in row}


class TestCli:
    def test_generate_then_validate(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["generate", "--seed", "9", "--trucks", "2",
                     "--locations", "3", "--days", "1", "--out", str(out)]) == 0
        assert main(["validate", "--scenario", str(out)]) == 0
        assert "scenario ok" in capsys.readouterr().out

    def test_validate_broken_chain(self, tmp_path, capsys):
        doc = json.loads(Path(REMOTE).read_text())
        doc["legs"][1]["origin"] = "DC"  # leg 2 should leave from R_FAR
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "ChainBroken" in captured.out + captured.err

    def test_module_entry_point_exits_with_the_command_code(self, tmp_path):
        """``python -m fleetcharge.cli`` runs ``main`` and exits with its code."""
        doc = json.loads(Path(REMOTE).read_text())
        doc["legs"][1]["origin"] = "DC"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run_fresh(
            "import runpy, sys\n"
            f"sys.argv = ['fleetcharge.cli', 'validate', '--scenario', {str(bad)!r}]\n"
            "runpy.run_module('fleetcharge.cli', run_name='__main__', alter_sys=True)\n")
        assert result.returncode == 1, result.stderr
        assert "ChainBroken" in result.stdout + result.stderr

    def test_solve_writes_verified_plan(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--scenario", TWO_TRUCK, "--gap", "0.001",
                     "--out", str(out), "--dump-lp"])
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["solver"]["status"] == "optimal"
        assert (out / "power_curves.csv").exists()
        assert (out / "model.lp").read_text().startswith("Minimize")
        assert "window_mode" not in plan
        scenario = fc.load_scenario(TWO_TRUCK)
        assert plan["costs"]["total"] == pytest.approx(41218.3673, abs=1e-3)
        assert "status=optimal" in capsys.readouterr().out

    def test_solve_prints_the_build_diagnostics(self, tmp_path, capsys):
        """At slack 0 one remote leg departs in the block its truck arrives,
        so its charging window is empty: a warning, and the solve goes on."""
        code = main(["solve", "--scenario", REMOTE, "--slack-min", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("note: ")] == [
            "note: [WindowEmpty] truck TR day 0 leg 3 has an empty charging window"]
        assert out[1].startswith("status=optimal ")

    def test_solve_amortize_objective(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--scenario", TWO_TRUCK, "--amortize-objective",
                     "--out", str(out)]) == 0
        plan = json.loads((out / "plan.json").read_text())
        scenario = fc.validate_scenario(
            scenario_variant(fc.load_scenario(TWO_TRUCK), fc.CODESIGN))
        build = fc.build_problem(scenario, amortize=True)
        direct = fc.branch_and_bound(build.model, rel_gap_target=0.01)  # the CLI's --gap
        assert plan["solver"]["objective"] == direct.objective
        # The flag reached the model: capital enters the objective amortized.
        assert plan["solver"]["objective"] < plan["costs"]["total"]

    def test_solve_fixed_requires_file(self, capsys):
        assert main(["solve", "--scenario", TWO_TRUCK, "--design", "fixed"]) == 2
        assert self.config_error(capsys) == "a fixed design needs fixed_counts"

    def test_solve_infeasible_exit_code(self, tmp_path, capsys):
        design = tmp_path / "zero.json"
        design.write_text("{}")
        code = main(["solve", "--scenario", TWO_TRUCK, "--design", "fixed",
                     "--fixed-file", str(design), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_solve_limit_exit_code(self, tmp_path):
        code = main(["solve", "--scenario", TWO_TRUCK, "--node-limit", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_sweep_cli(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", TWO_TRUCK, "--alpha", "0.5,1",
                     "--slack-min", "0,15", "--design", "codesign",
                     "--gap", "0.001", "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").exists()
        assert len(list(out.glob("plan_*.json"))) == 4

    def test_sweep_limit_without_incumbent_writes_strict_json(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(FIXTURES / "depot_fixture.json"),
                     "--alpha", "1", "--slack-min", "0", "--design", "codesign",
                     "--node-limit", "1", "--out", str(out)])
        assert code == 3

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert len(summary["cells"]) == len(summary["failures"]) == 1
        for entry in summary["cells"] + summary["failures"]:
            assert entry["status"] == "feasible"
            assert entry["gap"] is None
            assert entry["objective"] is None

    @pytest.mark.parametrize("alphas", ["0.1234567,0.1234568", "1,1"])
    def test_sweep_rejects_cells_sharing_a_tag(self, alphas, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["sweep", "--scenario", TWO_TRUCK, "--alpha", alphas,
                     "--slack-min", "0", "--out", str(out)])
        assert code == 2  # rejected before any cell runs
        message = self.config_error(capsys)
        assert "share the tag" in message
        for alpha in alphas.split(","):
            assert f"alpha={float(alpha)!r}" in message
        assert not out.exists()

    @pytest.fixture
    def fixed_scenario(self, tmp_path):
        """The two-truck fixture with its own fixed design: three DC chargers."""
        doc = json.loads(Path(TWO_TRUCK).read_text())
        doc["params"]["design_mode"] = "fixed"
        doc["params"]["fixed_counts"] = {"DC": {"1": 3}}
        path = tmp_path / "fixed_scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("flags, design, counts", [
        ([], "fixed", {"DC": {"1": 3}}),
        (["--design", "fixed"], "fixed", {"DC": {"1": 3}}),
        (["--fixed-file"], "fixed", {"DC": {"1": 4}}),
        (["--design", "codesign"], "codesign", {"DC": {"1": 2}}),
    ], ids=["file", "design-fixed", "fixed-file", "design-codesign"])
    def test_solve_defaults_to_the_scenarios_design(self, flags, design, counts,
                                                    fixed_scenario, tmp_path, capsys):
        if flags == ["--fixed-file"]:
            design_file = tmp_path / "design.json"
            design_file.write_text(json.dumps({"DC": {"1": 4}}))
            flags = [*flags, str(design_file)]
        out = tmp_path / "o"
        assert main(["solve", "--scenario", fixed_scenario, *flags,
                     "--out", str(out)]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["design_mode"] == design
        assert plan["charger_counts"] == counts

    def test_sweep_fixed_cells_take_the_scenarios_design(self, fixed_scenario, tmp_path,
                                                        capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", fixed_scenario, "--alpha", "1",
                     "--slack-min", "0", "--design", "fixed", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        plan = json.loads((out / summary["cells"][0]["plan"]).read_text())
        assert plan["design_mode"] == "fixed"
        assert plan["charger_counts"] == {"DC": {"1": 3}}

    @pytest.mark.parametrize("policy", [
        "main-depot-only:2", "main-depot-only:a:1", "peak-cover:", "peak-cover:x",
        "bogus:1"])
    def test_compare_bad_policy_names_it(self, policy, capsys):
        code = main(["compare", "--scenario", TWO_TRUCK, "--policy", policy])
        assert code == 2
        message = self.config_error(capsys)
        assert repr(policy) in message
        assert "main-depot-only:N:R, peak-cover:R or explicit:PATH" in message

    def test_sweep_bad_slack(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", TWO_TRUCK, "--alpha", "1",
                     "--slack-min", "10", "--design", "codesign",
                     "--out", str(tmp_path / "x")])
        assert code == 2  # rejected before any cell runs
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, slack", [
        ("-1", "0"), ("nan", "0"), ("inf", "0"), ("1", "-15")])
    def test_sweep_rejects_invalid_grid_values(self, alpha, slack, tmp_path, capsys):
        code = main(["sweep", "--scenario", TWO_TRUCK, "--alpha", alpha,
                     "--slack-min", slack, "--design", "codesign",
                     "--out", str(tmp_path / "x")])
        assert code == 2  # rejected before any cell runs
        assert "must be nonnegative" in self.config_error(capsys)
        assert not (tmp_path / "x").exists()

    LIMIT_FLAGS = [
        pytest.param(command, flag, value, id=f"{command}{flag}={value}")
        for command, flags in [("solve", ("--gap", "--time-limit", "--node-limit")),
                               ("sweep", ("--gap", "--time-limit", "--node-limit")),
                               ("compare", ("--gap",))]
        for flag in flags
        for value in (("-1",) if flag == "--node-limit" else ("nan", "inf", "-1"))
    ]

    @pytest.mark.parametrize("command, flag, value", LIMIT_FLAGS)
    def test_limit_flags_must_be_finite_and_nonnegative(self, command, flag, value,
                                                        tmp_path, capsys):
        extra = {"solve": [], "sweep": ["--alpha", "1", "--slack-min", "0"],
                 "compare": ["--policy", "peak-cover:1"]}[command]
        out = tmp_path / "o"
        code = main([command, "--scenario", TWO_TRUCK, *extra, flag, value,
                     "--out", str(out)])
        assert code == 2
        assert f"argument {flag}: must be finite and nonnegative" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_compare_cli_reports_infeasible_fixed(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(["compare", "--scenario", REMOTE,
                     "--policy", "main-depot-only:2:2",
                     "--slack-min", "15", "--gap", "0.001", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["fixed_feasible"] is False
        assert doc["codesign_feasible"] is True
        assert "infeasible" in doc["finding"]

    def test_compare_cli_feasible(self, capsys):
        code = main(["compare", "--scenario", REMOTE,
                     "--policy", "main-depot-only:2:2", "--slack-min", "30",
                     "--gap", "0.001"])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["fixed_feasible"] and doc["codesign_feasible"]
        assert doc["deltas_pct"]["total"] is not None

    FAILURES = [
        (NumericalFailure("vanishing pivot element"), "SolverFailure"),
        (PlanVerificationError([ValidationIssue("SoeBelowZero", "truck T1")]),
         "PlanVerificationFailed"),
    ]

    @pytest.mark.parametrize("exc, code", FAILURES)
    @pytest.mark.parametrize("argv, module", [
        (["solve", "--scenario", TWO_TRUCK], "fleetcharge.run"),
        (["compare", "--scenario", REMOTE, "--policy", "main-depot-only:2:2"],
         "fleetcharge.sweep"),
    ])
    def test_internal_failure_exit_code(self, argv, module, exc, code,
                                        monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(f"{module}.solve_scenario", fail)
        if argv[0] == "solve":
            argv = [*argv, "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert error["code"] == code
        assert error["message"] == str(exc)
        if code == "PlanVerificationFailed":
            assert error["details"] == ["[SoeBelowZero] truck T1"]
        assert not (tmp_path / "o" / "plan.json").exists()

    def test_other_runtime_error_propagates(self, monkeypatch, tmp_path, capsys):
        # Only the internal failures become exit 4; any other RuntimeError
        # is a bug in the front end and keeps its traceback.
        def fail(*args, **kwargs):
            raise RuntimeError("not an internal failure")
        monkeypatch.setattr("fleetcharge.run.solve_scenario", fail)
        with pytest.raises(RuntimeError) as err:
            main(["solve", "--scenario", TWO_TRUCK, "--out", str(tmp_path / "o")])
        assert type(err.value) is RuntimeError
        assert str(err.value) == "not an internal failure"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("exc, code", FAILURES)
    def test_sweep_internal_failure_exit_code(self, exc, code, monkeypatch, tmp_path):
        # One cell fails internally and one with a plain error (exit 1 on its
        # own); the internal failure wins, and every cell still runs.
        from fleetcharge import sweep

        solve = sweep.solve_scenario

        def fail_some(variant, **kwargs):
            if variant.alpha == 0.5:
                raise exc
            if variant.alpha == 1.0:
                raise RuntimeError("not internal")
            return solve(variant, **kwargs)

        monkeypatch.setattr(sweep, "solve_scenario", fail_some)
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", TWO_TRUCK, "--alpha", "0.5,1,2",
                     "--slack-min", "15", "--out", str(out)]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert [cell["status"] for cell in summary["cells"]] == \
            ["error", "error", "optimal"]
        assert [cell["error_class"] for cell in summary["failures"]] == \
            [type(exc).__name__, "RuntimeError"]

    @staticmethod
    def config_error(capsys) -> str:
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "ConfigError"
        return error["message"]

    def test_generate_too_many_trucks_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["generate", "--seed", "1", "--trucks", "29",
                     "--out", str(out)]) == 2
        assert self.config_error(capsys) == (
            "the 45-minute departure stagger limits a day to 28 trucks, got 29")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve"], ["sweep", "--alpha", "1", "--slack-min", "0"]], ids=["solve", "sweep"])
    def test_design_file_schema_failure_names_the_file(self, argv, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"DC": {"1": 2.7}}))
        out = tmp_path / "o"
        code = main([*argv, "--scenario", TWO_TRUCK, "--design", "fixed",
                     "--fixed-file", str(design), "--out", str(out)])
        assert code == 2
        assert self.config_error(capsys) == (
            f"{design}: schema violation at DC/1: 2.7 is not of type 'integer'")
        assert not out.exists()

    @pytest.mark.parametrize("count", [2.7, -1])
    def test_solve_rejects_bad_design_file(self, count, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"DC": {"1": count}}))
        code = main(["solve", "--scenario", TWO_TRUCK, "--design", "fixed",
                     "--fixed-file", str(design), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "DC/1" in self.config_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("policy", ["peak-cover:2", "main-depot-only:1:9"])
    def test_compare_rejects_charger_type_outside_catalog(self, policy, capsys):
        code = main(["compare", "--scenario", TWO_TRUCK, "--policy", policy])
        assert code == 2
        assert "is not in the scenario's catalog" in self.config_error(capsys)

    def test_compare_rejects_bad_explicit_design(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"DC": {"1": 2.7}}))
        code = main(["compare", "--scenario", REMOTE,
                     "--policy", f"explicit:{design}"])
        assert code == 2
        assert "DC/1" in self.config_error(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--design", "fixed", "--fixed-file", "{design}", "--out", "{out}"],
         "unknown location 'NOPE'"),
        (["sweep", "--alpha", "1", "--slack-min", "30", "--design", "codesign,fixed",
          "--fixed-file", "{design}", "--out", "{out}"], "unknown location 'NOPE'"),
        (["compare", "--policy", "explicit:{design}", "--out", "{out}/c.json"],
         "unknown location 'NOPE'"),
        (["compare", "--policy", "main-depot-only:2:2", "--alpha", "-1",
          "--out", "{out}/c.json"], "[NegativeQuantity] alpha"),
    ], ids=["solve", "sweep", "compare", "compare-alpha"])
    def test_design_at_unknown_location_fails_before_any_solve(self, argv, message,
                                                               tmp_path, monkeypatch,
                                                               capsys):
        # Each command checks its whole request before the first solve, and
        # before it makes an output directory.
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the design was checked")
        for module in ("fleetcharge.run", "fleetcharge.sweep"):
            monkeypatch.setattr(f"{module}.solve_scenario", no_solve)
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"NOPE": {"1": 2}}))
        out = tmp_path / "o"
        argv = [arg.format(design=design, out=out) for arg in argv]
        assert main([argv[0], "--scenario", REMOTE, *argv[1:]]) == 2
        assert message in self.config_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--seed", "1"],
        ["solve", "--scenario", TWO_TRUCK],
        ["sweep", "--scenario", TWO_TRUCK, "--alpha", "1", "--slack-min", "0"],
        ["compare", "--scenario", REMOTE, "--policy", "main-depot-only:2:2"],
    ], ids=["generate", "solve", "sweep", "compare"])
    def test_unwritable_out_is_a_config_error(self, argv, monkeypatch, tmp_path, capsys):
        # --out under a regular file; the solving commands fail before any solve.
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output location was made")
        for module in ("fleetcharge.run", "fleetcharge.sweep"):
            monkeypatch.setattr(f"{module}.solve_scenario", no_solve)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([*argv, "--out", str(taken / "out")]) == 2
        assert str(taken) in self.config_error(capsys)

    def test_compare_out_naming_a_directory_is_a_config_error(self, tmp_path, capsys):
        code = main(["compare", "--scenario", REMOTE, "--policy", "main-depot-only:2:2",
                     "--slack-min", "30", "--out", str(tmp_path)])
        assert code == 2
        assert str(tmp_path) in self.config_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["solve", "--design", "fixed"],
        ["sweep", "--alpha", "1", "--slack-min", "0", "--design", "fixed"],
        ["compare", "--policy", "main-depot-only:2:2"],
    ], ids=["solve", "sweep", "compare"])
    def test_scenario_schema_failure_is_a_config_error(self, argv, tmp_path, capsys):
        doc = json.loads(Path(TWO_TRUCK).read_text())
        doc["params"]["fixed_counts"] = {"DC": {"1": 2.5}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main([argv[0], "--scenario", str(bad), *argv[1:],
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert self.config_error(capsys) == (f"{bad}: schema violation at params/"
                                             "fixed_counts/DC/1: 2.5 is not of type "
                                             "'integer'")
        assert not (tmp_path / "o").exists()

    def test_price_profile_for_unknown_charger_is_a_config_error(self, tmp_path, capsys):
        doc = json.loads(Path(REMOTE).read_text())
        doc["prices"]["by_charger"] = {"99": doc["prices"]["energy_per_kwh"]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown charger type 99" in self.config_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("place", ["by_charger", "fixed_counts", "design_file"])
    def test_non_canonical_charger_type_key_is_a_config_error(self, place, tmp_path, capsys):
        doc = json.loads(Path(REMOTE).read_text())
        argv = ["solve"]
        if place == "by_charger":
            doc["prices"]["by_charger"] = {"01": doc["prices"]["energy_per_kwh"]}
            where = "bad.json: schema violation at prices/by_charger"
        elif place == "fixed_counts":
            doc["params"]["fixed_counts"] = {"DC": {"01": 2}}
            argv += ["--design", "fixed"]
            where = "bad.json: schema violation at params/fixed_counts/DC"
        else:
            design = tmp_path / "design.json"
            design.write_text(json.dumps({"DC": {"01": 2}}))
            argv += ["--design", "fixed", "--fixed-file", str(design)]
            where = "design.json: schema violation at DC"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main([*argv, "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert self.config_error(capsys).startswith(
            f"{tmp_path}{os.sep}{where}: '01' does not match any of the regexes")
        assert not (tmp_path / "o").exists()

    # The schema's maximum of 1 already rejects an infinite efficiency.
    NON_FINITE_FIELDS = [
        pytest.param(path, code, value, id=".".join(map(str, path)) + f"={value}")
        for path, code in [
            (("params", "alpha"), "NegativeQuantity"),
            (("prices", "peak_per_kw"), "NegativeQuantity"),
            (("prices", "energy_per_kwh", 5), "NegativeQuantity"),
            (("chargers", 0, "power_kw"), "NegativeQuantity"),
            (("chargers", 0, "cost"), "NegativeQuantity"),
            (("chargers", 0, "efficiency"), "NegativeQuantity"),
            (("trucks", 0, "battery_kwh"), "NegativeQuantity"),
            (("trucks", 0, "consumption_kwh_per_km_ton"), "NegativeQuantity"),
            (("trucks", 0, "initial_soe_kwh"), "BatteryRange"),
            (("trucks", 0, "tare_tons"), "NegativeQuantity"),
            (("legs", 0, "distance_km"), "NegativeQuantity"),
            (("legs", 0, "payload_tons"), "NegativeQuantity"),
        ]
        for value in (math.nan, math.inf)
        if not (path[-1] == "efficiency" and value == math.inf)
    ]

    @pytest.mark.parametrize("path, code, value", NON_FINITE_FIELDS)
    def test_non_finite_number_fails_validation(self, path, code, value, tmp_path,
                                                capsys):
        doc = json.loads(Path(TWO_TRUCK).read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # NaN and Infinity literals
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert f"[{code}]" in capsys.readouterr().out
        out = tmp_path / "o"
        assert main(["solve", "--scenario", str(bad), "--out", str(out)]) == 2
        assert f"[{code}]" in self.config_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["solve"], ["compare", "--policy", "peak-cover:1"]], ids=["solve", "compare"])
    def test_non_finite_alpha_flag_is_a_config_error(self, argv, alpha, tmp_path,
                                                     capsys):
        out = tmp_path / "o"
        code = main([*argv, "--scenario", TWO_TRUCK, "--alpha", alpha,
                     "--out", str(out)])
        assert code == 2
        assert "alpha must be nonnegative and finite" in self.config_error(capsys)
        assert not out.exists()

    def test_same_leg_arrival_window_is_a_config_error(self, tmp_path, capsys):
        doc = json.loads(Path(TWO_TRUCK).read_text())
        doc["params"]["window_mode"] = "same_leg_arrival"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "params/window_mode" in self.config_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_window_mode_flag_is_gone(self, tmp_path, capsys):
        assert main(["solve", "--scenario", TWO_TRUCK, "--window-mode",
                     "previous_arrival", "--out", str(tmp_path / "o")]) == 2
        assert "--window-mode" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_usage_error(self, capsys):
        assert main(["solve"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("place", ["by_charger", "fixed_counts", "design_file"])
    def test_charger_type_key_with_trailing_newline_is_a_config_error(
            self, place, tmp_path, capsys):
        # int("1\n") is 1, so the key would alias charger type 1.
        doc = json.loads(Path(REMOTE).read_text())
        argv = ["solve"]
        if place == "by_charger":
            doc["prices"]["by_charger"] = {"1\n": doc["prices"]["energy_per_kwh"]}
            where = "bad.json: schema violation at prices/by_charger"
        elif place == "fixed_counts":
            doc["params"]["fixed_counts"] = {"DC": {"1\n": 2}}
            argv += ["--design", "fixed"]
            where = "bad.json: schema violation at params/fixed_counts/DC"
        else:
            design = tmp_path / "design.json"
            design.write_text(json.dumps({"DC": {"1\n": 2}}))
            argv += ["--design", "fixed", "--fixed-file", str(design)]
            where = "design.json: schema violation at DC"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main([*argv, "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert self.config_error(capsys).startswith(
            f"{tmp_path}{os.sep}{where}: '1\\n' does not match any of the regexes")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, flag", [
        ("plan.json", None), ("power_curves.csv", None),
        ("model.lp", "--dump-lp"), ("solver_trace.log", "--trace")])
    def test_solve_unwritable_output_file_is_a_config_error(self, name, flag,
                                                            tmp_path, capsys):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)  # a directory where the file goes
        argv = ["solve", "--scenario", TWO_TRUCK, "--out", str(out)]
        assert main(argv + ([flag] if flag else [])) == 2
        assert str(out / name) in self.config_error(capsys)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_json", "schema",
                                      "clock", "prices"])
    def test_validate_bad_input_is_a_config_error(self, kind, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_json":
            path.write_text("time_grid: 15\n")
        elif kind == "schema":
            doc = json.loads(Path(TWO_TRUCK).read_text())
            del doc["trucks"]
            path.write_text(json.dumps(doc))
        elif kind == "clock":
            doc = json.loads(Path(TWO_TRUCK).read_text())
            doc["legs"][0]["departure"] = "24:30"
            path.write_text(json.dumps(doc))
        elif kind == "prices":
            # The depot fixture prices each type apart and has no shared profile.
            doc = json.loads((FIXTURES / "depot_fixture.json").read_text())
            assert "energy_per_kwh" not in doc["prices"]
            doc["prices"]["by_charger"] = {"1": doc["prices"]["by_charger"]["1"]}
            path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        message = self.config_error(capsys)
        if kind == "schema":
            assert message == (f"{path}: schema violation at document: 'trucks' is a "
                               "required property")
        elif kind == "clock":
            assert message == "invalid clock time '24:30'"
        elif kind == "prices":
            assert message == "no energy price profile for charger type 2"
        else:
            assert str(path) in message

    def test_scenario_that_is_not_json_names_the_file(self, capsys):
        assert main(["validate", "--scenario", os.devnull]) == 2
        assert self.config_error(capsys) == (
            f"{os.devnull} is not JSON: Expecting value: line 1 column 1 (char 0)")

    def test_design_file_that_is_not_json_names_the_file(self, tmp_path, capsys):
        design = tmp_path / "design.txt"
        design.write_text("DC: {1: 2}\n")
        out = tmp_path / "o"
        assert main(["solve", "--scenario", TWO_TRUCK, "--design", "fixed",
                     "--fixed-file", str(design), "--out", str(out)]) == 2
        assert self.config_error(capsys).startswith(f"{design} is not JSON: ")
        assert not out.exists()

    def test_solve_trace_logs_every_solved_node(self, tmp_path, capsys):
        """One line per solved node, one more when a polish sets the
        incumbent, and a last line with why the search stopped: the trace
        ends at the incumbent that plan.json reports."""
        out = tmp_path / "o"
        assert main(["solve", "--scenario", str(FIXTURES / "depot_fixture.json"),
                     "--trace", "--out", str(out)]) == 0
        lines = (out / "solver_trace.log").read_text().splitlines()
        solver = json.loads((out / "plan.json").read_text())["solver"]
        node_lines = lines[:-1]
        assert all(line.startswith("node ") for line in node_lines)
        assert len({line.split()[1] for line in node_lines}) == solver["nodes"] == 7
        assert lines[0].endswith("incumbent -")
        found = [line for line in node_lines if not line.endswith("incumbent -")]
        assert found == [node_lines[-1]]  # the last node's polish
        assert lines[-1] == (f"stop {solver['stop_reason']} nodes {solver['nodes']} "
                             f"incumbent {solver['objective']:.9g}")
        assert solver["stop_reason"] == "gap"

    @pytest.mark.parametrize("flags, code, tail", [
        (["--trace"], 1, ["node 0 depth 0 bound inf incumbent -",
                          "stop infeasible nodes 1 incumbent -"]),
        (["--trace", "--node-limit", "0"], 3, ["stop node_limit nodes 0 incumbent -"]),
    ], ids=["proven", "node-limit-0"])
    def test_unreachable_leg_goes_through_the_search(self, flags, code, tail,
                                                     tmp_path, capsys):
        """The depot fixture with its first leg 50x longer: the note names
        the leg, and the verdict is the search's. The root LP proves it
        infeasible, and a node limit of 0 stops before the root."""
        scenario = fc.load_scenario(FIXTURES / "depot_fixture.json")
        legs = list(scenario.legs)
        legs[0] = replace(legs[0], distance_km=legs[0].distance_km * 50)
        path = tmp_path / "unreachable.json"
        fc.save_scenario(replace(scenario, legs=tuple(legs)), path)
        out = tmp_path / "o"
        assert main(["solve", "--scenario", str(path), *flags, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "note: [EnergyDeficit] truck T01 day 0 leg 1: needs 4796.914 kWh but "
            "at most 150.000 kWh is reachable"]
        error = json.loads(captured.err)["error"]
        assert (error["code"], error["message"]) == (
            ("Infeasible", "solver status: infeasible") if code == 1
            else ("NoIncumbent", "solver status: feasible"))
        assert (out / "solver_trace.log").read_text().splitlines() == tail
        assert not (out / "plan.json").exists()


def stray_event_decoder(monkeypatch):
    """Make ``decode_plan`` append a copy of the plan's first charge event
    moved one block past its leg's window, so the real replay fails."""
    decode = fc.run.decode_plan

    def decode_with_stray_event(scenario, catalog, solution):
        plan = decode(scenario, catalog, solution)
        first = plan.events[0]
        window = fc.charging_windows(scenario)[
            (first.truck_id, first.day, first.leg_index)]
        plan.events = (*plan.events, replace(first, block=window.stop))
        return plan

    monkeypatch.setattr(fc.run, "decode_plan", decode_with_stray_event)


def inflated_energy(monkeypatch):
    """Make the plan's cost breakdown read 0.1% more energy than the
    solution's objective carries."""
    costs = fc.validator._costs

    def inflated(*args, **kwargs):
        c = costs(*args, **kwargs)
        energy = c.energy * 1.001
        return replace(c, energy=energy, total=energy + c.infrastructure + c.peak)

    monkeypatch.setattr(fc.validator, "_costs", inflated)


def failing_recheck(monkeypatch):
    """Make the incumbent's independent re-check in ``branch_and_bound``
    report a violated row."""
    monkeypatch.setattr("fleetcharge.solver.branch_bound.check_solution",
                        lambda model, values: ["row cover: 1 > 0"])


def vanishing_pivot(monkeypatch):
    """Shrink every FTRAN 1e12-fold, so the real dual loop raises its own
    ``NumericalFailure("vanishing pivot element")`` at the first pivot of
    each cell's cold root LP (from the slack basis of a row-scaled LP, a
    pivot element is at most 1)."""
    ftran = simplex.Factor.ftran
    monkeypatch.setattr(simplex.Factor, "ftran",
                        lambda factor, j, basic: ftran(factor, j, basic) * 1e-12)


def stalled_pivot(monkeypatch) -> list[int]:
    """Make each pivot only rebuild x_B from the unchanged basis, so the
    real dual loop runs into its iteration cap; returns the list of the
    stalled LPs' column counts n + m, one per pivot."""
    sizes = []

    def stalled(state, *args, **kwargs):
        sizes.append(state.n_real)
        state._refactor()

    monkeypatch.setattr(simplex._SimplexState, "_pivot", stalled)
    return sizes


class TestInternalFailuresThroughThePipeline:
    """Each internal failure, raised by the real pipeline and not by a
    patched ``solve_scenario``, is exit 4 with its JSON report from every
    command that solves."""

    @pytest.mark.parametrize("inject, code, message, detail", [
        (stray_event_decoder, "PlanVerificationFailed", "solved plan failed verification: ",
         "[WindowViolation] "),
        (inflated_energy, "PlanVerificationFailed", "solved plan failed verification: ",
         "[CostMismatch] "),
        (failing_recheck, "SolverFailure",
         "incumbent failed the independent feasibility re-check: row cover: 1 > 0", None),
        (vanishing_pivot, "SolverFailure", "vanishing pivot element", None),
    ], ids=["replay", "costs", "recheck", "pivot"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--scenario", TWO_TRUCK],
        ["compare", "--scenario", REMOTE, "--policy", "main-depot-only:2:2",
         "--slack-min", "30"],
        ["sweep", "--scenario", TWO_TRUCK, "--alpha", "1", "--slack-min", "0,15"],
    ], ids=["solve", "compare", "sweep"])
    def test_exit_code_and_report(self, argv, inject, code, message, detail, monkeypatch,
                                  tmp_path, capsys):
        inject(monkeypatch)
        out = tmp_path / "o"
        if argv[0] != "compare":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == code
        if detail is None:
            assert error["message"] == message
        else:
            assert error["message"].startswith(message)
            assert any(d.startswith(detail) for d in error["details"])
        assert not (out / "plan.json").exists()
        if argv[0] == "sweep":  # every cell ran and is on record
            summary = json.loads((out / "summary.json").read_text())
            assert [c["status"] for c in summary["cells"]] == ["error", "error"]
            assert {c["error_class"] for c in summary["failures"]} == {
                "PlanVerificationError" if detail else "NumericalFailure"}

    def test_iteration_cap(self, two_truck_scenario, monkeypatch, tmp_path, capsys):
        """The dual loop's iteration cap, max(1000, 3 (n + m)), leaves
        ``solve_scenario`` as NumericalFailure and ``solve`` with exit 4."""
        sizes = stalled_pivot(monkeypatch)
        with pytest.raises(NumericalFailure) as raised:
            fc.solve_scenario(two_truck_scenario)
        cap = max(1000, 3 * sizes[0])
        assert len(sizes) == cap
        assert str(raised.value) == f"dual simplex exceeded {cap} iterations without converging"
        sizes.clear()
        assert main(["solve", "--scenario", TWO_TRUCK, "--out", str(tmp_path / "o")]) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "SolverFailure"
        assert error["message"] == (f"dual simplex exceeded {max(1000, 3 * sizes[0])} "
                                    "iterations without converging")
        assert not (tmp_path / "o" / "plan.json").exists()
