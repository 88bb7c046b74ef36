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
