"""The benchmark's layer hooks still find what they wrap.

``perfbench/spans.py`` replaces package attributes by name
(``fleetcharge.run.build_problem``, ``PreparedLP.solve``, ...) and hands
``branch_and_bound`` a ``trace=`` keyword. A rename, or a call that stops
passing ``trace`` by keyword, would break traced benchmark runs without a
sound; this test fails instead.
"""

import sys
from pathlib import Path

import fleetcharge as fc

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
