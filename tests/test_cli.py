"""Command-line interface: reports, exit codes, determinism, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xpchaos
from xpchaos import build_cocycle, norms, operators
from xpchaos.cli import main
from xpchaos.cocycles import FAMILIES
from xpchaos.groups import GroupAlgebraElement, GroupDescriptor
from xpchaos.norms import lp_norm_torus_grid, lp_norm_torus_refined
from xpchaos.words import ReducedWord


def run(args):
    return main(args)


def load(path):
    return json.loads(path.read_text())


def write_element(path, f):
    path.write_text(json.dumps(f.to_json()))
    return str(path)


#: group options of ``check cocycle`` for each family
FAMILY_OPTIONS = {
    "euclidean": ["--n", "2", "--bound", "3"],
    "torus_word": ["--n", "2", "--bound", "3"],
    "cyclic_word": ["--n", "2", "--modulus", "6"],
    "odd_cyclic_word": ["--n", "2", "--modulus", "5"],
    "free_word": ["--n", "2"],
    "free_product_word": ["--n", "2", "--modulus", "4"],
    "weighted_cube": ["--n", "3", "--weights", "1,2,0.5"],
}


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

    def test_oversized_torus_grid_exit_code(self, tmp_path, monkeypatch):
        """Rank 8, bound 3 at p = 4 needs a 14^8 extended grid: refused before any FFT."""
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        out = tmp_path / "r.json"
        assert run(["verify", "torus", "--n", "8", "--bound", "3", "--p", "4",
                    "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--p", "0.5"], ["--p", "nan"], ["--p", "inf"],
        ["--family", "torus", "--n", "8", "--bound", "3", "--p", "4"]])
    def test_riesz_refused_before_sampling(self, tmp_path, monkeypatch, args):
        """A bad p or an oversized torus grid (96 Riesz rows of 13^8 points) exits 2
        before the first input is drawn."""
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        monkeypatch.setattr(xpchaos.harness, "sample_element", _no_fft)
        out = tmp_path / "r.json"
        assert run(["verify", "riesz", *args, "--out", str(out)]) == 2
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

    def test_unknown_ensemble_in_config_exit_code(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ensemble": "bogus", "trials": 2}))
        out = tmp_path / "r.json"
        assert run(["verify", "free-identities", "--config", str(config),
                    "--out", str(out)]) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("verb, family", [
        ("naor", "hypercube"), ("torus", "torus"), ("ztorus", "cyclic")])
    def test_fixed_family_cannot_be_overridden(self, tmp_path, capsys, verb, family):
        out = tmp_path / "r.json"
        assert run(["verify", verb, "--family", "weighted_cube", "--n", "2",
                    "--out", str(out)]) == 2
        assert f"'{family}'" in capsys.readouterr().err
        assert not out.exists()
        assert run(["verify", verb, "--family", family, "--n", "2", "--trials", "2",
                    "--out", str(out)]) == 0

    @pytest.mark.parametrize("weights, expected", [([], [1.0, 1.0]),
                                                   (["--weights", "0.5,2"], [0.5, 2.0])])
    def test_weighted_cube_riesz(self, tmp_path, weights, expected):
        out = tmp_path / "r.json"
        assert run(["verify", "riesz", "--family", "weighted_cube", "--n", "2", *weights,
                    "--trials", "3", "--seed", "4", "--out", str(out)]) == 0
        report = load(out)
        assert report["witness"]["weights"] == expected
        rerun = xpchaos.reevaluate_witness(report)
        for key in ("lhs", "rhs", "ratio"):
            assert rerun[key] == pytest.approx(report[key], rel=1e-9)

    def test_weights_refused_off_a_weighted_family(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify", "riesz", "--n", "2", "--weights", "1,2", "--out", str(out)]) == 2
        assert "takes no weights" in capsys.readouterr().err

    def test_naor_reports_name_their_route(self, tmp_path):
        routes = {}
        for p in ("4", "3"):
            out = tmp_path / f"r{p}.json"
            assert run(["verify", "naor", "--n", "6", "--k", "all", "--p", p,
                        "--ensemble", "sparse", "--sparsity", "4", "--trials", "3",
                        "--out", str(out)]) == 0
            routes[p] = load(out)["extra"]["route"]
        assert routes == {"4": "pairs", "3": "grid"}


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

    def test_options_cover_every_family(self):
        assert set(FAMILY_OPTIONS) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_OPTIONS))
    def test_every_family_certifies(self, tmp_path, family):
        out = tmp_path / "cocycle.json"
        assert run(["check", "cocycle", "--family", family, *FAMILY_OPTIONS[family],
                    "--sample-size", "10", "--out", str(out)]) == 0
        report = load(out)
        assert report["family"] == family and report["passed"]
        if family == "odd_cyclic_word":
            assert report["gram_max_abs_error"] is None
        else:
            assert report["gram_max_abs_error"] <= 1e-12
            assert report["completeness_max_abs_error"] <= 1e-12


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
        norm, gap = lp_norm_torus_refined(f, 3.5, 4)
        assert payload == {"norm": norm, "p": 3.5, "method": "grid", "quadrature_gap": gap}
        fine = lp_norm_torus_grid(f, 3.5, 256)
        assert gap <= 1e-8
        assert abs(norm - fine) < abs(lp_norm_torus_grid(f, 3.5, 4) - fine) / 100

    def test_norm_grid_refinement_stops_at_the_cap(self, tmp_path, capsys, monkeypatch):
        """Without room for a finer grid the norm is the --oversample grid's, with no gap."""
        monkeypatch.setattr(norms, "GRID_REFINE_MAX_POINTS", 40 ** 2 - 1)
        f = GroupAlgebraElement(GroupDescriptor.torus(2, 2), {(1, 0): 1.0, (0, 2): 0.5 - 1j})
        path = write_element(tmp_path / "f.json", f)
        assert run(["norm", "--in", path, "--p", "3", "--method", "grid"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "norm": lp_norm_torus_grid(f, 3, 4), "p": 3.0, "method": "grid",
            "quadrature_gap": None}

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

    @pytest.mark.parametrize("group, key, family", [
        (GroupDescriptor.torus(2, 2), (1, -2), "torus_word"),
        (GroupDescriptor.finite_abelian([4, 4]), (1, 3), "cyclic_word"),
        (GroupDescriptor.finite_abelian([5, 5]), (2, 4), "odd_cyclic_word"),
        (GroupDescriptor.free_group(2), ReducedWord(((1, 2), (2, -1))), "free_word"),
        (GroupDescriptor.free_product(2, 4), ReducedWord(((1, 3), (2, 2))),
         "free_product_word")], ids=lambda x: getattr(x, "kind", None))
    def test_apply_laplacian_default_family(self, tmp_path, capsys, group, key, family):
        """Without --family, apply uses the word-length family of the input's group."""
        f = GroupAlgebraElement.lam(group, key, 2.0)
        assert run(["apply", "--op", "laplacian", "--in",
                    write_element(tmp_path / "f.json", f)]) == 0
        result = GroupAlgebraElement.from_json(json.loads(capsys.readouterr().out))
        assert result == operators.laplacian_power(f, 1.0, build_cocycle(family, group))

    @pytest.mark.parametrize("group, vector", [
        (GroupDescriptor.torus(2, 2), "ZWord:1"),
        (GroupDescriptor.finite_abelian([4, 4]), "Z2mWord:5:1"),
        (GroupDescriptor.finite_abelian([4, 4]), "Z2mWord:1:7"),
        (GroupDescriptor.torus(2, 2), "ZWord:1:0"),
    ], ids=lambda x: x if isinstance(x, str) else x.kind)
    def test_apply_bad_basis_vector_exit_code(self, tmp_path, capsys, group, vector):
        f = GroupAlgebraElement(group, {(1, 1): 1.0, (2, 1): 0.5})
        for op in ("derivative", "riesz"):
            assert run(["apply", "--op", op, "--u", vector,
                        "--in", write_element(tmp_path / "f.json", f)]) == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("op", ["absorbent", "adjoint"])
    def test_apply_unknown_family_exit_code(self, tmp_path, capsys, op):
        f = GroupAlgebraElement.lam(GroupDescriptor.finite_abelian([4, 4]), (1, 0))
        assert run(["apply", "--op", op, "--family", "bogus",
                    "--in", write_element(tmp_path / "f.json", f)]) == 2
        assert capsys.readouterr().out == ""

    def test_apply_requires_u_for_riesz(self, tmp_path):
        group = GroupDescriptor.torus(1, 1)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(GroupAlgebraElement.lam(group, (1,)).to_json()))
        assert run(["apply", "--op", "riesz", "--in", str(path)]) == 2


def _no_fft(*args, **kwargs):
    raise AssertionError("an FFT ran before the input was checked")


def test_python_dash_m_runs_the_cli():
    src = Path(xpchaos.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "xpchaos", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.strip() == xpchaos.__version__


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
