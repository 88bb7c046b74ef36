"""Command-line interface: reports, exit codes, determinism, config handling."""

import json

import pytest

from xpchaos.cli import main
from xpchaos.groups import GroupAlgebraElement, GroupDescriptor
from xpchaos.norms import lp_norm_torus_grid
from xpchaos.words import ReducedWord


def run(args):
    return main(args)


def load(path):
    return json.loads(path.read_text())


class TestVerify:
    def test_happy_path_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "naor", "--n", "6", "--k", "2", "--p", "4",
                    "--trials", "10", "--seed", "7", "--out", str(out)])
        assert code == 0
        report = load(out)
        assert report["experiment"] == "naor"
        assert report["trials"] == 10 and report["seed"] == 7
        assert report["ratio"] == report["lhs"] / report["rhs"]
        for key in ("witness", "max_ratio", "runtime_ms", "monte_carlo",
                    "artifact_version", "config_hash"):
            assert key in report

    def test_validation_exit_code(self, tmp_path):
        code = run(["verify", "naor", "--n", "6", "--k", "9", "--p", "4",
                    "--trials", "5", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_non_finite_p_exit_code(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", "3", "--p", "nan", "--out", str(out)]) == 2
        assert not out.exists()

    def test_p_below_one_exit_code(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", "3", "--p", "0.5", "--out", str(out)]) == 2
        assert not out.exists()

    def test_oversized_lattice_exit_code(self, tmp_path):
        """A hypercube n = 22 lattice at p = 4 is refused before the first sample."""
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", "22", "--p", "4", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_experiment_exit_code(self):
        assert run(["verify", "nonsense"]) == 2

    def test_rerun_identical_except_runtime(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["verify", "ztorus", "--n", "3", "--k", "1..3", "--p", "4",
                "--modulus", "4", "--trials", "8", "--seed", "3"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        a, b = load(out1), load(out2)
        assert a.pop("runtime_ms") != b.pop("runtime_ms") or True
        assert a == b

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        assert run(["verify", "rosenthal", "--n", "5", "--k", "2", "--p", "4",
                    "--trials", "5", "--out", str(out), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("experiment,lhs,rhs,ratio")
        assert len(lines) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 4, "k": "2", "p": 4, "trials": 5, "seed": 1}))
        out1 = tmp_path / "a.json"
        assert run(["verify", "naor", "--config", str(config), "--out", str(out1)]) == 0
        assert load(out1)["params"]["n"] == 4
        out2 = tmp_path / "b.json"
        assert run(["verify", "naor", "--config", str(config), "--n", "5",
                    "--out", str(out2)]) == 0
        assert load(out2)["params"]["n"] == 5

    def test_config_hash_stable_under_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "xp-linear", "--n", "4", "--k", "2", "--p", "2",
                "--d", "3", "--trials", "4", "--seed", "0"]
        run(argv + ["--out", str(out1)])
        run(argv + ["--out", str(out2)])
        assert load(out1)["config_hash"] == load(out2)["config_hash"]

    @pytest.mark.parametrize("experiment,extra", [
        ("torus", ["--n", "2", "--k", "1", "--p", "4", "--bound", "2"]),
        ("riesz", ["--n", "2", "--p", "2", "--modulus", "4"]),
        ("free-identities", ["--n", "2"]),
    ])
    def test_other_experiments_run(self, tmp_path, experiment, extra):
        out = tmp_path / "r.json"
        assert run(["verify", experiment, *extra, "--trials", "4",
                    "--out", str(out)]) == 0
        assert load(out)["experiment"]


class TestCheck:
    def test_cocycle_report_schema(self, tmp_path):
        out = tmp_path / "cocycle.json"
        code = run(["check", "cocycle", "--family", "cyclic_word", "--modulus", "4",
                    "--n", "2", "--sample-size", "12", "--t", "0.1,1,10",
                    "--out", str(out)])
        assert code == 0
        report = load(out)
        assert report["family"] == "cyclic_word"
        assert report["gap"] == 1.0
        assert set(report["psd_min_eigenvalues"]) == {"0.1", "1.0", "10.0"}
        assert report["gram_max_abs_error"] == 0.0
        assert report["completeness_max_abs_error"] == 0.0
        assert report["passed"]

    def test_weighted_cube_check(self, tmp_path):
        out = tmp_path / "cocycle.json"
        code = run(["check", "cocycle", "--family", "weighted_cube", "--n", "3",
                    "--weights", "1,2,0.5", "--sample-size", "8", "--out", str(out)])
        assert code == 0
        assert load(out)["gap"] == pytest.approx(2.0)

    def test_odd_cyclic_has_no_basis_fields(self, tmp_path):
        out = tmp_path / "cocycle.json"
        code = run(["check", "cocycle", "--family", "odd_cyclic_word", "--modulus", "5",
                    "--n", "2", "--out", str(out)])
        assert code == 0
        report = load(out)
        assert report["gram_max_abs_error"] is None
        assert report["passed"]

    def test_unknown_family(self, tmp_path):
        assert run(["check", "cocycle", "--family", "bogus",
                    "--out", str(tmp_path / "c.json")]) == 2


class TestNormAndApply:
    @pytest.fixture
    def torus_element(self, tmp_path):
        group = GroupDescriptor.torus(1, 1)
        f = GroupAlgebraElement(group, {(0,): 1.0, (1,): 1.0})
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        return path

    def test_norm_exact_and_grid_agree(self, torus_element, capsys):
        assert run(["norm", "--in", str(torus_element), "--p", "4"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert run(["norm", "--in", str(torus_element), "--p", "4",
                    "--method", "grid"]) == 0
        grid = json.loads(capsys.readouterr().out)
        assert exact["norm"] == pytest.approx(6 ** 0.25)
        assert grid["norm"] == pytest.approx(exact["norm"], abs=1e-8)

    def test_norm_exact_at_non_even_p_uses_grid(self, tmp_path, capsys):
        group = GroupDescriptor.torus(2, 2)
        f = GroupAlgebraElement(group, {(1, 0): 1.0, (0, 2): 0.5 - 1j, (-1, 1): 2.0})
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        assert run(["norm", "--in", str(path), "--p", "3.5", "--method", "exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"norm": lp_norm_torus_grid(f, 3.5, 4), "p": 3.5, "method": "grid"}

    def test_norm_missing_file(self, tmp_path):
        assert run(["norm", "--in", str(tmp_path / "nope.json"), "--p", "2"]) == 2

    @pytest.mark.parametrize("method", ["auto", "exact", "grid"])
    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_norm_non_finite_p_exit_code(self, tmp_path, capsys, method, p):
        elements = [GroupAlgebraElement.lam(GroupDescriptor.finite_abelian([4, 4]), (1, 0)),
                    GroupAlgebraElement(GroupDescriptor.torus(2, 2), {(1, 0): 1.0})]
        for index, f in enumerate(elements):
            if method == "grid" and f.group.kind != "torus":
                continue
            path = tmp_path / f"f{index}.json"
            path.write_text(json.dumps(f.to_json()))
            assert run(["norm", "--in", str(path), "--p", p, "--method", method]) == 2
            assert capsys.readouterr().out == ""

    def test_apply_riesz_symbol(self, tmp_path, capsys):
        group = GroupDescriptor.torus(2, 5)
        f = GroupAlgebraElement.lam(group, (3, 4))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(f.to_json()))
        assert run(["apply", "--op", "riesz", "--u", "Euclidean:1",
                    "--family", "euclidean", "--in", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["coeffs"][0]
        assert entry["g"] == [3, 4]
        assert entry["im"] == pytest.approx(6 * 3.141592653589793 / 5)

    def test_apply_truncate_roundtrip(self, tmp_path, capsys):
        group = GroupDescriptor.free_group(2)
        f = GroupAlgebraElement(group, {ReducedWord(((1, 1),)): 1.0,
                                        ReducedWord(((2, 1), (1, 1))): 2.0})
        path = tmp_path / "w.json"
        path.write_text(json.dumps(f.to_json()))
        out = tmp_path / "t.json"
        assert run(["apply", "--op", "truncate", "--S", "1", "--in", str(path),
                    "--out", str(out)]) == 0
        restored = GroupAlgebraElement.from_json(load(out))
        assert restored.coeffs == {ReducedWord(((1, 1),)): pytest.approx(1.0)}

    def test_apply_hilbert(self, tmp_path, capsys):
        group = GroupDescriptor.free_group(2)
        f = GroupAlgebraElement(group, {ReducedWord(((1, 1),)): 1.0,
                                        ReducedWord(((2, 1),)): 1.0})
        path = tmp_path / "h.json"
        path.write_text(json.dumps(f.to_json()))
        assert run(["apply", "--op", "hilbert", "--eps", "1,-1",
                    "--in", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = {tuple(map(tuple, e["word"])): e["re"] for e in payload["coeffs"]}
        assert values == {((1, 1),): pytest.approx(1.0), ((2, 1),): pytest.approx(-1.0)}

    def test_apply_requires_u_for_riesz(self, tmp_path):
        group = GroupDescriptor.torus(1, 1)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(GroupAlgebraElement.lam(group, (1,)).to_json()))
        assert run(["apply", "--op", "riesz", "--in", str(path)]) == 2


class TestWitnessRoundTrip:
    def test_written_report_reevaluates(self, tmp_path):
        from xpchaos import reevaluate_witness
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", "5", "--k", "1..5", "--p", "4",
                    "--derivative", "gradient", "--trials", "5", "--seed", "9",
                    "--out", str(out)]) == 0
        report = load(out)
        rerun = reevaluate_witness(report)
        assert rerun["ratio"] == pytest.approx(report["ratio"], abs=1e-9)


class TestScanSuite:
    def test_fast_battery_passes_and_writes(self, tmp_path):
        out = tmp_path / "suite.json"
        assert run(["scan-suite", "--fast", "--out", str(out)]) == 0
        payload = load(out)
        assert len(payload["criteria"]) == 10
        assert all(entry["passed"] for entry in payload["criteria"])
