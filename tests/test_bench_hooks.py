"""The benchmark's layer hooks and HiGHS check still work on the package.

``perfbench/spans.py`` replaces package attributes by name
(``fleetcharge.run.build_problem``, ``PreparedLP.solve``, ...) and hands
``branch_and_bound`` a ``trace=`` keyword. A rename, or a call that stops
passing ``trace`` by keyword, would break traced benchmark runs without a
sound; the first test fails instead. ``perfbench/highs_ref.py`` reads a
model through its ``rows`` view; the second test holds it to the tests'
own HiGHS adapter, which reads the row lists.
"""

import sys
from pathlib import Path

import pytest

import fleetcharge as fc
from fleetcharge.model import LE, LinearModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Tracer, instrument, layer_metrics  # noqa: E402


def test_traced_sweep_reports_every_layer(two_truck_scenario, tmp_path):
    original = fc.run.build_problem
    tracer = Tracer()
    spec = fc.SweepSpec(alphas=[1.0], slack_minutes=[0], designs=[fc.CODESIGN],
                        out_dir=tmp_path)
    with instrument(tracer), tracer.span("run") as root:
        summary = fc.run_sweep(two_truck_scenario, spec)
    assert [cell["status"] for cell in summary["cells"]] == ["optimal"]
    assert fc.run.build_problem is original  # the hooks are taken out again

    metrics = layer_metrics(tracer.spans, root["id"])
    assert metrics["branch_bound.nodes"] > 0
    assert metrics["simplex.lp_solves"] > 0
    assert metrics["builder.cols"] > 0
    assert metrics["validator.replay_s"] > 0


def test_benchmark_highs_check_matches_reference(two_truck_scenario):
    pytest.importorskip("scipy")
    from highs_ref import highs_objective
    from highs_reference import highs_solve

    # max x with x + x <= 3: a repeated (row, column) entry must add up,
    # or the bound reads x <= 3 and the optimum moves.
    repeated = LinearModel()
    repeated.add_column("x", 0.0, 10.0, objective=-1.0, integer=True)
    repeated.add_row("twice", [(0, 1.0), (0, 1.0)], LE, 3.0)
    for model, expected in [(fc.build_problem(two_truck_scenario).model, None),
                            (repeated, -1.0)]:
        objective, _ = highs_objective(model)
        reference, _ = highs_solve(model)
        assert objective is not None and objective == reference
        if expected is not None:
            assert objective == expected
