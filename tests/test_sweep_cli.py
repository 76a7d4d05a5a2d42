"""Sweep runner outputs and the command-line interface."""

import csv
import json
from pathlib import Path

import pytest

import fleetcharge as fc
from fleetcharge.cli import main
from fleetcharge.run import PlanVerificationError
from fleetcharge.solver import NumericalFailure
from fleetcharge.sweep import SweepSpec, default_amortize_ratio, run_sweep
from fleetcharge.validator import ReplayResult, Violation

FIXTURES = Path(__file__).parent / "fixtures"
TWO_TRUCK = str(FIXTURES / "two_truck.json")
REMOTE = str(FIXTURES / "remote_variant.json")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(alphas=[], slack_minutes=[0], designs=["codesign"])
        with pytest.raises(ValueError):
            SweepSpec(alphas=[1.0], slack_minutes=[0], designs=["bogus"])
        with pytest.raises(ValueError):
            SweepSpec(alphas=[1.0], slack_minutes=[0], designs=["fixed"])

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
        ratio = default_amortize_ratio(two_truck_scenario)
        assert ratio == pytest.approx(1 / 3650)
        spec = SweepSpec(alphas=[1.0], slack_minutes=[0], designs=["codesign"],
                         rel_gap=1e-3, out_dir=tmp_path)
        run_sweep(two_truck_scenario, spec)
        row = read_csv(tmp_path / "costs.csv")[0]
        assert float(row["infrastructure_amortized"]) == pytest.approx(
            float(row["infrastructure"]) * ratio)

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

    def test_solve_writes_verified_plan(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--scenario", TWO_TRUCK, "--gap", "0.001",
                     "--out", str(out), "--dump-lp"])
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["solver"]["status"] == "optimal"
        assert (out / "power_curves.csv").exists()
        assert (out / "model.lp").read_text().startswith("Minimize")
        scenario = fc.load_scenario(TWO_TRUCK)
        assert plan["costs"]["total"] == pytest.approx(41218.3673, abs=1e-3)
        assert "status=optimal" in capsys.readouterr().out

    def test_solve_fixed_requires_file(self, capsys):
        assert main(["solve", "--scenario", TWO_TRUCK, "--design", "fixed"]) == 2
        assert "ConfigError" in capsys.readouterr().err

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

    def test_sweep_bad_slack(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", TWO_TRUCK, "--alpha", "1",
                     "--slack-min", "10", "--design", "codesign",
                     "--out", str(tmp_path / "x")])
        assert code == 2  # rejected before any cell runs
        assert "whole number" in capsys.readouterr().err

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
        (PlanVerificationError(ReplayResult([Violation("SoeBelowZero", "truck T1")])),
         "PlanVerificationFailed"),
    ]

    @pytest.mark.parametrize("exc, code", FAILURES)
    @pytest.mark.parametrize("argv, module", [
        (["solve", "--scenario", TWO_TRUCK], "fleetcharge.cli"),
        (["compare", "--scenario", REMOTE, "--policy", "main-depot-only:2:2"],
         "fleetcharge.baseline"),
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

    def test_usage_error(self, capsys):
        assert main(["solve"]) == 2
        capsys.readouterr()
