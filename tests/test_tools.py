"""The same-numbers dump runs: one record of each kind, twice, to the same line."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _dump_module():
    spec = importlib.util.spec_from_file_location("dump_outcomes",
                                                  ROOT / "tools" / "dump_outcomes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_record_of_each_kind_dumps_one_line_twice(tmp_path):
    dump = _dump_module()
    first = {}
    for kind, name, thunk in dump.records(tmp_path):
        first.setdefault(kind, (name, thunk))
    assert set(first) == {"scan", "report", "verify", "apply", "norm", "algebra", "check",
                          "cocycle", "moment"}
    for kind, (name, thunk) in first.items():
        line = dump.line(kind, name, thunk())
        assert "\n" not in line
        outcome = json.loads(line)["outcome"]
        assert "runtime_ms" not in outcome.get("report", {})
        assert line == dump.line(kind, name, thunk())


def test_sign_model_scans_report_the_route_their_planner_picks():
    """Every xp_linear and rosenthal scan of the dump names in ``extra["route"]`` the
    route of ``_xp_plan`` or ``_rosenthal_plan``; the scans cover both routes of each."""
    from xpchaos import harness, scan
    routes = set()
    for experiment, _, params in _dump_module().SCANS:
        if experiment not in ("xp_linear", "rosenthal"):
            continue
        n, p, ks = params["n"], params.get("p", 4), params.get("ks", [params.get("k", 1)])
        d = params.get("d", 4)
        plan = (harness._xp_plan(n, d, d, p, ks) if experiment == "xp_linear" else
                harness._rosenthal_plan(n, p, ks))
        assert scan(experiment, trials=1, seed=0, **params).extra["route"] == plan.route
        routes.add((experiment, plan.route))
    assert routes == {(e, r) for e in ("xp_linear", "rosenthal") for r in ("pairs", "signs")}
