"""Command-line interface: reports, exit codes, determinism, config handling."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import xpchaos
from xpchaos import build_cocycle, cli, groups, harness, norms, operators
from xpchaos.cli import APPLY_OPS, main
from xpchaos.cocycles import FAMILIES, BasisVector
from xpchaos.groups import GroupAlgebraElement, GroupDescriptor, adjoint
from xpchaos.norms import lp_norm_torus_grid, lp_norm_torus_refined
from xpchaos.words import ReducedWord


#: the rank-1, bound-2 torus element 1 lambda(1) + (0.5 + 0.1i) lambda(-2)
TWO_KEY_TORUS = GroupAlgebraElement(GroupDescriptor.torus(1, 2), {(1,): 1.0, (-2,): 0.5 + 0.1j})


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
        for key in ("witness", "runtime_ms", "monte_carlo", "artifact_version",
                    "config_hash"):
            assert key in report
        assert "max_ratio" not in report

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

    def test_huge_even_p_on_a_torus_exit_code(self, tmp_path):
        """One key at p = 2e12 is held off key pairs by the tuple-step cap, and the
        torus grid of p*B + 1 points per axis is refused before it is built."""
        out = tmp_path / "r.json"
        assert run(["verify", "torus", "--n", "1", "--bound", "1", "--p", "2e12",
                    "--derivative", "absorbent", "--ensemble", "sparse", "--sparsity", "1",
                    "--trials", "1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_huge_grid_size_reads_in_two_digits(self, tmp_path, capsys):
        """At p = 1e300 a bound-1 torus grid needs a byte count of some 600 digits: it
        is refused by its arrays' name and a size in two significant digits."""
        out = tmp_path / "r.json"
        assert run(["verify", "torus", "--n", "2", "--bound", "1", "--p", "1e300",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the profile's grid tensors need 4.8e+601 bytes, above "
            f"LATTICE_MAX_BYTES = {xpchaos.harness.LATTICE_MAX_BYTES}\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["naor", "--n", "3", "--p", "1500", "--derivative", "walsh"],
        ["naor", "--n", "3", "--p", "1500", "--derivative", "absorbent"],
        ["torus", "--n", "1", "--bound", "1", "--p", "2e5", "--derivative", "absorbent"]],
        ids=["walsh-overflow", "absorbent-underflow", "torus-underflow"])
    def test_sides_past_the_float_range_exit_code(self, tmp_path, capsys, args):
        """2^p overflows past p = 1023 and |c|^p underflows to an rhs of 0."""
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(["verify", *args, "--ensemble", "sparse", "--sparsity", "1",
                        "--trials", "3", "--out", str(out)]) == 2
        assert f"at p = {float(args[args.index('--p') + 1])}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["rosenthal", "--n", "3", "--p", "1e308"],
        ["xp-linear", "--n", "3", "--p", "999"],
        ["riesz", "--n", "2", "--p", "1000"]],
        ids=["rosenthal", "xp-linear", "riesz"])
    def test_every_experiment_refuses_sides_past_the_float_range(self, tmp_path, capsys, args):
        """A sign mean under- or overflows, or both sides overflow to inf."""
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(["verify", *args, "--trials", "2", "--out", str(out)]) == 2
        assert f"at p = {float(args[-1])} the sides leave" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["xp-linear", "--n", "3", "--p", "999"], ["riesz", "--n", "2", "--p", "1000"],
        ["ztorus", "--n", "2", "--p", "3001"], ["torus", "--n", "2", "--p", "3001"]],
        ids=["xp-linear", "riesz", "ztorus", "torus"])
    def test_sides_past_the_float_range_print_only_the_error(self, tmp_path, args):
        """The overflow of a power is refused with the sides; numpy's warning is not shown."""
        env = {**os.environ, "PYTHONPATH": str(Path(xpchaos.__file__).parents[1]),
               "PYTHONWARNINGS": "default"}
        done = subprocess.run([sys.executable, "-m", "xpchaos", "verify", *args, "--trials", "2",
                               "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines() == [
            f"error: at p = {float(args[-1])} the sides leave the float range "
            f"(a positive side of 0 or a side not finite)"]

    def test_non_finite_weight_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify", "riesz", "--family", "weighted_cube", "--n", "2",
                    "--weights", "nan,1", "--trials", "2", "--out", str(out)]) == 2
        assert "weights must be positive and finite, got (nan, 1.0)" in capsys.readouterr().err
        assert not out.exists()

    def test_large_p_inside_the_float_range_runs(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", "3", "--p", "200", "--derivative", "walsh",
                    "--ensemble", "sparse", "--sparsity", "1", "--trials", "3",
                    "--out", str(out)]) == 0
        assert load(out)["rhs"] > 0

    @pytest.mark.parametrize("verb, option", [
        ("riesz", ["--derivative", "walsh"]), ("riesz", ["--k", "2"]),
        ("xp-linear", ["--bound", "3"]), ("xp-linear", ["--derivative", "walsh"]),
        ("naor", ["--d", "7"]), ("naor", ["--modulus", "6"]), ("naor", ["--bound", "3"]),
        ("torus", ["--modulus", "6"]), ("ztorus", ["--bound", "3"]),
        ("rosenthal", ["--d", "3"]), ("rosenthal", ["--family", "cyclic"]),
        ("free-identities", ["--k", "2"]), ("free-identities", ["--p", "4"])])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_options_the_verb_does_not_read_exit_code(self, tmp_path, capsys, verb, option,
                                                      source):
        out = tmp_path / "r.json"
        args = ["verify", verb, "--trials", "2", "--out", str(out)]
        if source == "flag":
            args += option
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({option[0][2:]: option[1]}))
            args += ["--config", str(config)]
        assert run(args) == 2
        assert f"does not read {option[0]}" in capsys.readouterr().err
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
        texts = []
        for out in (out1, out2):
            text, count = re.subn(r'"runtime_ms": [^,}]+', '"runtime_ms": null', out.read_text())
            assert count == 1 and text.count("\n") == 1
            texts.append(text)
        assert texts[0] == texts[1]

    def test_reports_use_the_c_encoder(self, tmp_path, monkeypatch):
        """Reports are written without the pure-Python encoder, and each holds the
        payload its command built."""
        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("a report went through the pure-Python JSON encoder")

        written = []
        write_report = cli._write_report

        def spy(report, out):
            written.append((report, out))
            write_report(report, out)

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        monkeypatch.setattr(cli, "_write_report", spy)
        f = GroupAlgebraElement(GroupDescriptor.finite_abelian([4, 4]),
                                {(1, 0): 1.0, (2, 3): 0.5j})
        assert run(["verify", "naor", "--n", "4", "--k", "all", "--trials", "2",
                    "--out", str(tmp_path / "v.json")]) == 0
        assert run(["check", "cocycle", "--family", "cyclic_word", "--n", "2",
                    "--out", str(tmp_path / "c.json")]) == 0
        assert run(["apply", "--op", "adjoint", "--in", write_element(tmp_path / "f.json", f),
                    "--out", str(tmp_path / "a.json")]) == 0
        assert [Path(out).name for _, out in written] == ["v.json", "c.json", "a.json"]
        for report, out in written:
            assert load(Path(out)) == report

    def test_rosenthal_pairs_take_k_past_the_sign_cap(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "rosenthal", "--n", "30", "--p", "6", "--k", "20",
                    "--trials", "1", "--out", str(out)]) == 0
        assert load(out)["extra"]["route"] == "pairs"

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

    @pytest.mark.parametrize("content, named", [
        ({"bogus": 1, "n": 3}, "['bogus']"), ({"n": [3]}, "'n' must be a number"),
        ({"trials": {"n": 1}}, "'trials' must be a number"), ({"seed": True}, "'seed'"),
        ({"weights": [1, "a"]}, "'weights' must be")],
        ids=["unknown-key", "list", "object", "bool", "weights"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, content, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--config", str(config), "--trials", "2",
                    "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb, text, named", [
        ("naor", '{"n": 2.5}', "n must be an integer, got 2.5"),
        ("naor", '{"trials": 2.9, "seed": 1}', "trials must be an integer, got 2.9"),
        ("naor", '{"trials": 2, "seed": 1.5}', "seed must be an integer, got 1.5"),
        ("naor", '{"trials": 1e400}', "trials must be an integer, got inf"),
        ("naor", '{"n": NaN}', "n must be an integer, got nan"),
        ("naor", '{"ensemble": "sparse", "sparsity": 2.5}', "sparsity must be an integer, got 2.5"),
        ("naor", '{"ensemble": "chaos_degree", "degree": "2.5"}',
         "degree must be an integer, got '2.5'"),
        ("ztorus", '{"modulus": 4.5}', "modulus must be an integer, got 4.5"),
        ("torus", '{"bound": 2.5}', "bound must be an integer, got 2.5"),
        ("xp-linear", '{"d": 2.5}', "d must be an integer, got 2.5"),
        ("rosenthal", '{"n": 1e400}', "n must be an integer, got inf"),
        ("free-identities", '{"n": 2.5}', "n must be an integer, got 2.5"),
        ("free-identities", '{"modulus": 4.5}', "modulus must be an integer, got 4.5")])
    def test_config_integer_not_an_integer_exit_code(self, tmp_path, capsys, verb, text, named):
        """Refused by name with exit code 2, not truncated to another run (n = 2.5 ran
        n = 2) or crashed (inf overflowed, NaN went unnamed)."""
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "r.json"
        assert run(["verify", verb, "--config", str(config), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_integer_strings_run_as_integers(self, tmp_path):
        reports = []
        for name, value in (("ints", 3), ("strings", "3")):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"n": value, "trials": value, "seed": value,
                                          "ensemble": "sparse", "sparsity": value}))
            out = tmp_path / f"{name}-report.json"
            assert run(["verify", "naor", "--config", str(config), "--out", str(out)]) == 0
            reports.append({key: v for key, v in load(out).items() if key != "runtime_ms"})
        assert reports[0] == reports[1]
        assert (reports[0]["params"]["n"], reports[0]["trials"], reports[0]["seed"]) == (3, 3, 3)

    def test_config_weights_list_runs(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "weighted_cube", "n": 2, "weights": [1, 2.5]}))
        out = tmp_path / "r.json"
        assert run(["verify", "riesz", "--config", str(config), "--trials", "2",
                    "--out", str(out)]) == 0

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

    @pytest.mark.parametrize("verb", ["naor", "xp-linear", "rosenthal"])
    def test_empty_k_range_exit_code(self, tmp_path, capsys, verb):
        out = tmp_path / "r.json"
        assert run(["verify", verb, "--n", "4", "--k", "3..1", "--trials", "2",
                    "--out", str(out)]) == 2
        assert "nonempty list of k" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_matrices_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify", "xp-linear", "--n", "3", "--d", "0", "--out", str(out)]) == 2
        assert "d must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["xp-linear", "--n", "0"], "n must be >= 1, got 0"),
        (["xp-linear", "--d", "-2"], "d must be >= 1, got -2"),
        (["rosenthal", "--n", "0"], "n must be >= 1, got 0"),
        (["rosenthal", "--n", "-1", "--k", "1"], "n must be >= 1, got -1")])
    def test_counts_below_one_exit_code(self, tmp_path, capsys, monkeypatch, args, named):
        """n and d below 1 are refused by name before anything is drawn."""
        monkeypatch.setattr(harness, "_complex_normal", _no_draw)
        out = tmp_path / "r.json"
        assert run(["verify", *args, "--trials", "2", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, named", [
        (["xp-linear", "--n", "3", "--ensemble", "sparse", "--sparsity", "1"],
         "the xp_linear draw reads no ensemble field; got kind='sparse', sparsity=1"),
        (["xp-linear", "--n", "3", "--degree", "3"],
         "the xp_linear draw reads no ensemble field; got degree=3"),
        (["rosenthal", "--n", "3", "--ensemble", "sparse", "--sparsity", "1"],
         "the rosenthal draw reads no ensemble field; got kind='sparse', sparsity=1"),
        (["free-identities", "--n", "3", "--ensemble", "chaos_degree", "--degree", "1"],
         "read sparsity and word_length, not the kind 'chaos_degree'"),
        (["free-identities", "--n", "2", "--ensemble", "linear_span"],
         "read sparsity and word_length, not the kind 'linear_span'"),
        (["naor", "--n", "4", "--sparsity", "3"],
         "the gaussian naor draw reads no field besides its kind; got sparsity=3"),
        (["naor", "--n", "4", "--ensemble", "sparse", "--sparsity", "3", "--degree", "5"],
         "the sparse naor draw reads sparsity besides its kind; got degree=5"),
        (["naor", "--n", "4", "--ensemble", "chaos_degree", "--sparsity", "3"],
         "the chaos_degree naor draw reads degree besides its kind; got sparsity=3"),
        (["riesz", "--n", "2", "--ensemble", "linear_span", "--degree", "3"],
         "the linear_span riesz_equivalence draw reads no field besides its kind; got degree=3"),
        (["free-identities", "--n", "2", "--degree", "5"],
         "the gaussian free_identities draw reads sparsity and word_length besides its kind; "
         "got degree=5"),
        (["free-identities", "--n", "2", "--ensemble", "sparse", "--sparsity", "3"],
         "free draws take the kind 'gaussian' (sparsity reduced words of length at most "
         "word_length, with gaussian coefficients)")],
        ids=["xp-linear-sparse", "xp-linear-degree", "rosenthal-sparse",
             "free-chaos-degree", "free-linear-span", "naor-gaussian-sparsity",
             "naor-sparse-degree", "naor-chaos-degree-sparsity", "riesz-linear-span-degree",
             "free-degree", "free-sparse"])
    def test_ensemble_the_draw_does_not_read_exit_code(self, tmp_path, capsys, monkeypatch,
                                                       args, named):
        """An ensemble setting that the experiment's draw would not read is refused, by
        field, before any draw; its default values, which every verb takes, run."""
        monkeypatch.setattr(harness, "_complex_normal", _no_draw)
        monkeypatch.setattr(groups, "random_group_elements", _no_draw)
        out = tmp_path / "r.json"
        assert run(["verify", *args, "--trials", "2", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.undo()
        assert run(["verify", args[0], "--n", "3", "--ensemble", "gaussian", "--sparsity", "8",
                    "--degree", "2", "--trials", "2", "--out", str(out)]) == 0

    @pytest.mark.parametrize("args", [
        ["naor", "--n", "4", "--ensemble", "sparse", "--sparsity", "3"],
        ["naor", "--n", "4", "--ensemble", "chaos_degree", "--degree", "3"],
        ["riesz", "--n", "2", "--ensemble", "sparse", "--sparsity", "3"],
        ["free-identities", "--n", "2", "--ensemble", "gaussian", "--sparsity", "3"]])
    def test_ensemble_fields_the_draw_reads_run(self, tmp_path, args):
        """Each draw takes the fields it reads: sparse its sparsity, chaos_degree its
        degree, a free draw its sparsity; the report records them."""
        out = tmp_path / "r.json"
        assert run(["verify", *args, "--trials", "2", "--out", str(out)]) == 0
        ensemble = json.loads(out.read_text())["params"]["ensemble"]
        assert ensemble[args[-2].lstrip("-")] == 3

    @pytest.mark.parametrize("args, named", [
        (["verify", "naor", "--n", "0"], "n must be >= 1, got 0"),
        (["verify", "ztorus", "--n", "0"], "n must be >= 1, got 0"),
        (["verify", "riesz", "--n", "0"], "n must be >= 1, got 0"),
        (["check", "cocycle", "--n", "0"], "n must be >= 1, got 0"),
        (["verify", "torus", "--bound", "0"], "bound must be >= 1, got 0"),
        (["verify", "riesz", "--family", "torus", "--bound", "0"], "bound must be >= 1, got 0"),
        (["check", "cocycle", "--family", "torus_word", "--bound", "0"],
         "bound must be >= 1, got 0"),
        (["check", "cocycle", "--family", "euclidean", "--bound", "0"],
         "bound must be >= 1, got 0"),
        (["verify", "naor", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["check", "cocycle", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "naor", "--k", "1..x"], "--k must be a value, a..b, or 'all'; got '1..x'"),
        (["verify", "naor", "--k", "2,3"], "--k must be a value, a..b, or 'all'; got '2,3'")],
        ids=["naor-n", "ztorus-n", "riesz-n", "check-n", "torus-bound", "riesz-torus-bound",
             "check-torus-bound", "check-euclidean-bound", "verify-seed", "check-seed",
             "k-range", "k-list"])
    def test_out_of_range_options_named_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                        args, named):
        """An option out of its range is refused in its own words, with exit code 2,
        before anything is drawn and with no report written."""
        monkeypatch.setattr(harness, "_complex_normal", _no_draw)
        monkeypatch.setattr(groups, "random_group_elements", _no_draw)
        monkeypatch.setattr(cli, "random_group_elements", _no_draw)
        out = tmp_path / "r.json"
        assert run([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_sparse_naor_runs_past_the_grid(self, tmp_path):
        """Six keys on a hypercube n = 22 take key pairs, whose arrays fit the budget."""
        from xpchaos import reevaluate_witness
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", "22", "--ensemble", "sparse", "--sparsity", "6",
                    "--p", "4", "--k", "all", "--trials", "10", "--out", str(out)]) == 0
        report = load(out)
        assert report["extra"]["route"] == "pairs"
        rerun = reevaluate_witness(report)
        assert (rerun["lhs"], rerun["rhs"], rerun["ratio"]) == (
            report["lhs"], report["rhs"], report["ratio"])

    @pytest.mark.parametrize("args", [
        ["--n", "22", "--p", "3", "--sparsity", "6"],       # grid: the odd p
        ["--n", "40", "--p", "4", "--sparsity", "2000"],    # pairs: 2e6 key multisets
        ["--n", "40", "--p", "4", "--sparsity", "3000"]],   # pairs: 4.5e6 key multisets
        ids=["grid", "pairs", "pairs-3000"])
    def test_each_route_refused_before_allocation(self, tmp_path, monkeypatch, args):
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            assert run(["verify", "naor", "--ensemble", "sparse", *args,
                        "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert not out.exists()

    @pytest.mark.parametrize("n", ["63", "70"])
    def test_key_box_past_int64_exit_code(self, tmp_path, capsys, n):
        """Sparse draws index the box positions; 2^63 and more of them do not fit."""
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", n, "--ensemble", "sparse", "--sparsity", "6",
                    "--out", str(out)]) == 2
        assert "past int64" in capsys.readouterr().err

    def test_naor_reports_name_their_route(self, tmp_path):
        routes = {}
        for p in ("4", "3"):
            out = tmp_path / f"r{p}.json"
            assert run(["verify", "naor", "--n", "6", "--k", "all", "--p", p,
                        "--ensemble", "sparse", "--sparsity", "4", "--trials", "3",
                        "--out", str(out)]) == 0
            routes[p] = load(out)["extra"]["route"]
        assert routes == {"4": "pairs", "3": "grid"}

    def test_chaos_degree_plans_for_the_keys_it_draws(self, tmp_path):
        """A degree-2 draw on a hypercube n = 17 holds 17 + C(17, 2) = 153 keys; planned
        for the box's 2^17 - 1 keys, the scan was refused its grid tensors."""
        out = tmp_path / "r.json"
        assert run(["verify", "naor", "--n", "17", "--ensemble", "chaos_degree", "--degree", "2",
                    "--p", "4", "--trials", "2", "--out", str(out)]) == 0
        report = load(out)
        assert report["extra"]["route"] == "pairs" and len(report["witness"]["f"]["coeffs"]) == 153
        assert xpchaos.reevaluate_witness(report)["ratio"] == report["ratio"]

    @pytest.mark.parametrize("n", ["28", "40", "63"])
    def test_chaos_degree_key_lengths_refused_before_allocation(self, tmp_path, capsys, n):
        """chaos_degree binds count the keys of the box's length table, which is
        refused before any psi call once it would not fit the budget."""
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            assert run(["verify", "naor", "--n", n, "--ensemble", "chaos_degree",
                        "--degree", "2", "--p", "4", "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert "key lengths need" in capsys.readouterr().err
        assert not out.exists()

    def test_chaos_degree_below_every_length_exit_code(self, tmp_path, capsys):
        """weighted_cube lengths are 4 times the weight sum, so at unit weights no key
        has a length of at most 2."""
        out = tmp_path / "r.json"
        args = ["verify", "riesz", "--family", "weighted_cube", "--n", "3",
                "--ensemble", "chaos_degree", "--trials", "2", "--out", str(out)]
        assert run([*args, "--degree", "2"]) == 2
        err = capsys.readouterr().err
        assert "degree 2" in err and "shortest nonzero length is 4" in err
        assert not out.exists()
        assert run([*args, "--degree", "4"]) == 0

    @pytest.mark.parametrize("p", ["0", "-2", "0.5"])
    def test_rosenthal_p_below_one_exit_code(self, tmp_path, capsys, p):
        out = tmp_path / "r.json"
        assert run(["verify", "rosenthal", "--p", p, "--trials", "2", "--out", str(out)]) == 2
        assert "p must be" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        """``main`` builds its parser once across calls of different verbs, and no
        call's options reach a later one: a call without --csv writes no CSV, a left
        out --seed is 0 again, and --out falls back to its default."""
        monkeypatch.chdir(tmp_path)
        cli.build_parser.cache_clear()
        first = tmp_path / "first.json"
        assert run(["verify", "naor", "--n", "3", "--trials", "2", "--seed", "7",
                    "--out", str(first), "--csv", str(tmp_path / "first.csv")]) == 0
        assert run(["norm", "--in", write_element(tmp_path / "f.json", TWO_KEY_TORUS),
                    "--p", "4"]) == 0
        assert run(["check", "cocycle", "--n", "2"]) == 0
        assert run(["verify", "naor", "--n", "3", "--trials", "2"]) == 0
        assert cli.build_parser.cache_info().misses == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "cocycle.json", "f.json", "first.csv", "first.json", "report.json"]
        assert (load(first)["seed"], load(tmp_path / "report.json")["seed"]) == (7, 0)


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

    def test_oversized_sample_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        """200000 elements need a 320 GB psi matrix: refused before the sample is drawn."""
        monkeypatch.setattr(cli, "random_group_elements", _no_draw)
        out = tmp_path / "cocycle.json"
        tracemalloc.start()
        try:
            assert run(["check", "cocycle", "--family", "cyclic_word", "--n", "2",
                        "--modulus", "4", "--sample-size", "200000", "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert "psi matrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, named", [
        (["--family", "weighted_cube", "--n", "2", "--weights", "inf,1"], "got (inf, 1.0)"),
        (["--family", "weighted_cube", "--n", "2", "--weights", "nan,1"], "got (nan, 1.0)"),
        (["--t", "nan"], "t = nan"), (["--t", "0.1,inf"], "t = inf")],
        ids=["weight-inf", "weight-nan", "t-nan", "t-inf"])
    def test_non_finite_weight_or_time_exit_code(self, tmp_path, capsys, option, named):
        out = tmp_path / "cocycle.json"
        assert run(["check", "cocycle", *option, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content, named", [
        ({"sample_size": 3.7, "n": 2.2}, "sample_size must be an integer, got 3.7"),
        ({"n": 2.2}, "n must be an integer, got 2.2"),
        ({"seed": 0.5}, "seed must be an integer, got 0.5"),
        ({"modulus": 4.5}, "modulus must be an integer, got 4.5"),
        ({"family": "torus_word", "bound": 2.5}, "bound must be an integer, got 2.5"),
        ({"sample_size": "3.7"}, "sample_size must be an integer, got '3.7'")])
    def test_config_integer_not_an_integer_exit_code(self, tmp_path, capsys, content, named):
        """Refused by name: sample_size 3.7 and n 2.2 certified 3 samples on Z_4^2."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        out = tmp_path / "cocycle.json"
        assert run(["check", "cocycle", "--config", str(config), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_integer_strings_run_as_integers(self, tmp_path):
        reports = []
        for name, value in (("ints", 3), ("strings", "3")):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"n": value, "sample_size": value, "seed": value,
                                          "modulus": 2 * int(value)}))
            out = tmp_path / f"{name}-cocycle.json"
            assert run(["check", "cocycle", "--config", str(config), "--out", str(out)]) == 0
            reports.append(load(out))
        assert reports[0] == reports[1]
        assert reports[0]["group"]["moduli"] == [6, 6, 6]

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

    @pytest.mark.parametrize("group, key", [
        (GroupDescriptor.hypercube(2), [1.5, 0]),
        (GroupDescriptor.torus(2, 1), [1, 0.9]),
        (GroupDescriptor.hypercube(2), [1e30, 0]),
        (GroupDescriptor.hypercube(2), [2 ** 70, 0]),
    ], ids=["fraction", "torus-fraction", "1e30", "2^70"])
    @pytest.mark.parametrize("command", [["norm", "--p", "2"], ["apply", "--op", "adjoint"]],
                             ids=["norm", "apply"])
    def test_non_integral_key_exit_code(self, tmp_path, capsys, group, key, command):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"group": group.to_json(),
                                    "coeffs": [{"g": key, "re": 1.0, "im": 0.0}]}))
        assert run([*command, "--in", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("payload", [
        {"group": {"kind": "finite_abelian", "moduli": [2, 2]},
         "coeffs": [{"g": [1, 0], "re": "1"}]},
        {"group": {"kind": "finite_abelian", "moduli": [2, 2]},
         "coeffs": [{"g": [1, 0], "re": None, "im": 0.0}]},
        {"group": {"kind": "free_group", "rank": 2}, "coeffs": [{"word": [[1, 1.5]], "re": 1.0}]},
        {"group": {"kind": "torus", "rank": 1, "bound": 1.5}, "coeffs": [{"g": [1], "re": 1.0}]},
    ], ids=["string-re", "null-re", "word-fraction", "torus-bound"])
    @pytest.mark.parametrize("command", [["norm", "--p", "2"], ["apply", "--op", "adjoint"]],
                             ids=["norm", "apply"])
    def test_bad_json_numbers_exit_code(self, tmp_path, capsys, payload, command):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        assert run([*command, "--in", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("f, p, oversample", [
        (GroupAlgebraElement(GroupDescriptor.torus(1, 2), {(1,): 1.0, (-2,): 0.5}), "4", "-7"),
        (GroupAlgebraElement.lam(GroupDescriptor.finite_abelian([4, 4]), (1, 0)), "3", "0"),
    ], ids=["torus-exact", "z4^2"])
    def test_norm_oversample_refused_on_every_route(self, tmp_path, capsys, f, p, oversample):
        path = write_element(tmp_path / "f.json", f)
        assert run(["norm", "--in", path, "--p", p, "--oversample", oversample]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("option", [["--op", "laplacian", "--gamma", "nan"],
                                        ["--op", "laplacian", "--gamma", "inf"],
                                        ["--op", "heat", "--t", "nan"],
                                        ["--op", "heat", "--t", "inf"]],
                             ids=["gamma-nan", "gamma-inf", "t-nan", "t-inf"])
    def test_apply_non_finite_parameter_exit_code(self, tmp_path, capsys, option):
        f = GroupAlgebraElement(GroupDescriptor.torus(1, 2), {(1,): 1.0, (-2,): 0.5})
        assert run(["apply", *option, "--in", write_element(tmp_path / "f.json", f)]) == 2
        assert capsys.readouterr().out == ""

    def test_apply_laplacian_overflow_exit_code(self, tmp_path, capsys):
        """psi(-2) ** 1e308 overflows a float."""
        f = GroupAlgebraElement(GroupDescriptor.torus(1, 2), {(1,): 1.0, (-2,): 0.5})
        path = write_element(tmp_path / "f.json", f)
        assert run(["apply", "--op", "laplacian", "--gamma", "1e308", "--in", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma" in captured.err

    @pytest.mark.parametrize("f, p, method, power", [
        (TWO_KEY_TORUS, "2048", "auto", "nan"),
        (GroupAlgebraElement(GroupDescriptor.finite_abelian([4, 4]),
                             {(1, 0): 1.0, (2, 3): 0.5 - 0.25j, (3, 1): 2.0}),
         "2000", "auto", "inf"),
        (TWO_KEY_TORUS, "3000", "grid", "inf"),
        (GroupAlgebraElement(GroupDescriptor.torus(1, 2), {(1,): 1e-3}), "1e5", "grid", "0.0")],
        ids=["torus-exact-nan", "z4^2-inf", "torus-grid-inf", "torus-grid-underflow"])
    def test_norm_past_the_float_range_exit_code(self, tmp_path, capsys, f, p, method, power):
        path = write_element(tmp_path / "f.json", f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(["norm", "--in", path, "--p", p, "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at p = {float(p)} the norm leaves the float range " \
               f"(its p-th power reads {power})" in captured.err

    @pytest.mark.parametrize("p", ["4096", "1e308"])
    def test_norm_trace_power_priced_before_any_convolution(self, tmp_path, capsys,
                                                             monkeypatch, p):
        """1e308 is an even float: its trace power would take 2.5e307 convolutions."""
        def no_convolution(*args):
            raise AssertionError("convolved before the price was checked")

        monkeypatch.setattr(norms, "convolve", no_convolution)
        monkeypatch.setattr(groups, "convolve", no_convolution)
        path = write_element(tmp_path / "f.json", TWO_KEY_TORUS)
        start = time.perf_counter()
        assert run(["norm", "--in", path, "--p", p]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at p = {float(p)} the exact trace power takes more than" in captured.err

    def test_norm_missing_file(self, tmp_path):
        assert run(["norm", "--in", str(tmp_path / "nope.json"), "--p", "2"]) == 2

    @pytest.mark.parametrize("document, field", [
        ({"group": {"kind": "finite_abelian", "moduli": [4]}, "coeffs": [[1, 0]]}, "coeffs"),
        ({"group": {"kind": "finite_abelian", "moduli": [4]}, "coeffs": 5}, "coeffs"),
        ({"group": "torus", "coeffs": []}, "group"),
        ([], "element")], ids=["coeff-list", "coeffs-number", "group-string", "list"])
    def test_norm_malformed_element_exit_code(self, tmp_path, capsys, document, field):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(document))
        assert run(["norm", "--in", str(path), "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: the element's {field}" in captured.err \
            or field == "element" and "error: an element must be a JSON object" in captured.err

    def test_norm_of_a_directory_exit_code(self, tmp_path, capsys):
        assert run(["norm", "--in", str(tmp_path), "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Is a directory" in captured.err

    def test_norm_past_the_float_range_prints_only_the_error(self, tmp_path):
        """The overflow of |f|^p is refused by the norm; numpy's warning is not shown."""
        f = GroupAlgebraElement(GroupDescriptor.finite_abelian([4, 4]),
                                {(1, 0): 1.0, (2, 3): 0.5 - 0.25j, (3, 1): 2.0})
        path = write_element(tmp_path / "f.json", f)
        env = {**os.environ, "PYTHONPATH": str(Path(xpchaos.__file__).parents[1]),
               "PYTHONWARNINGS": "default"}
        done = subprocess.run([sys.executable, "-m", "xpchaos", "norm", "--in", path,
                               "--p", "2000"], capture_output=True, text=True, env=env)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: at p = 2000.0 the norm leaves the float range (its p-th power reads inf)"]

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

    @pytest.mark.parametrize("op", sorted(APPLY_OPS))
    def test_apply_every_op_matches_the_operator(self, tmp_path, capsys, op):
        """Each op through ``main`` gives what the operator gives when called directly."""
        cube = GroupDescriptor.hypercube(3)
        cocycle = build_cocycle("cyclic_word", cube)
        f = GroupAlgebraElement(cube, {(0, 0, 0): 0.5, (1, 0, 1): 1.0, (0, 1, 1): 2 - 1j,
                                       (1, 1, 0): -0.5j})
        mean_zero = GroupAlgebraElement(cube, {key: c for key, c in f.coeffs.items() if any(key)})
        words = GroupAlgebraElement(GroupDescriptor.free_group(2), {
            ReducedWord(((1, 1),)): 1.0, ReducedWord(((2, -1), (1, 2))): 2.0 - 1j})
        u = BasisVector.from_id("Z2mWord:3:1")
        direct = {
            "derivative": lambda: operators.directional_derivative(f, u, cocycle),
            "riesz": lambda: operators.riesz_transform(mean_zero, u, cocycle),
            "absorbent": lambda: operators.absorbent_derivative(f, 2),
            "walsh": lambda: operators.walsh_derivative(f, 2),
            "laplacian": lambda: operators.laplacian_power(f, 0.5, cocycle),
            "heat": lambda: operators.heat_semigroup(f, 0.3, cocycle),
            "truncate": lambda: operators.truncate(f, [1, 3]),
            "adjoint-truncate": lambda: operators.adjoint_truncation(f, [1, 3]),
            "project-as": lambda: operators.project_AS(words, [1]),
            "hilbert": lambda: operators.free_hilbert_transform(words, [1, -1]),
            "adjoint": lambda: adjoint(f),
            "mean-zero": lambda: groups.project_mean_zero(f, cocycle),
        }
        source = {"project-as": words, "hilbert": words, "riesz": mean_zero}.get(op, f)
        assert run(["apply", "--op", op, "--in", write_element(tmp_path / "f.json", source),
                    "--u", u.to_id(), "--j", "2", "--gamma", "0.5", "--t", "0.3",
                    "--S", "1" if op == "project-as" else "1,3", "--eps", "1,-1"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            json.dumps(direct[op]().to_json()))

    def test_apply_requires_u_for_riesz(self, tmp_path):
        group = GroupDescriptor.torus(1, 1)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(GroupAlgebraElement.lam(group, (1,)).to_json()))
        assert run(["apply", "--op", "riesz", "--in", str(path)]) == 2


def _no_draw(*args, **kwargs):
    raise AssertionError("the sample was drawn")


def _no_fft(*args, **kwargs):
    raise AssertionError("an FFT ran before the input was checked")


@pytest.mark.parametrize("args, option", [
    (["verify", "naor", "--n", "3", "--trials", "1", "--out", "{missing}"], "--out"),
    (["verify", "naor", "--n", "3", "--trials", "1", "--out", "{written}", "--csv", "{missing}"],
     "--csv"),
    (["check", "cocycle", "--out", "{missing}"], "--out"),
    (["apply", "--op", "adjoint", "--in", "{written}", "--out", "{missing}"], "--out"),
    (["scan-suite", "--fast", "--out", "{missing}"], "--out"),
    (["verify", "naor", "--n", "3", "--trials", "1", "--out", ""], "--out"),
    (["verify", "naor", "--n", "3", "--trials", "1", "--out", "{written}", "--csv", ""],
     "--csv"),
    (["check", "cocycle", "--out", ""], "--out"),
    (["apply", "--op", "adjoint", "--in", "{written}", "--out", ""], "--out"),
    (["scan-suite", "--fast", "--out", ""], "--out")],
    ids=["verify-out", "verify-csv", "check-out", "apply-out", "scan-suite-out",
         "verify-out-empty", "verify-csv-empty", "check-out-empty", "apply-out-empty",
         "scan-suite-out-empty"])
def test_output_in_a_missing_directory_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                               args, option):
    """An output file in a directory that does not exist, or an empty output path, is
    refused by its option, with exit code 2, before any scan, draw, criterion or input
    file is reached, and no file is written (``{written}`` names a file that would be
    written, or read by apply)."""
    for target, name in ((cli, "scan"), (cli, "run_all"), (cli, "random_group_elements"),
                         (cli, "_load_element")):
        monkeypatch.setattr(target, name, _no_draw)
    missing, written = tmp_path / "missing" / "r.json", tmp_path / "r.json"
    argv = [arg.format(missing=missing, written=written) for arg in args]
    assert run(argv) == 2
    path = argv[argv.index(option) + 1]
    reason = (f"the directory {str(missing.parent)!r} does not exist" if path else
              "an empty path names no file")
    assert capsys.readouterr().err == f"error: {option} {path!r}: {reason}\n"
    assert not missing.parent.exists() and not written.exists()


@pytest.mark.parametrize("args, named", [
    (["check", "cocycle", "--t", ""], "--t must be comma-separated numbers, got ''"),
    (["check", "cocycle", "--t", "a"], "--t must be comma-separated numbers, got 'a'"),
    (["verify", "riesz", "--family", "weighted_cube", "--weights", "a"],
     "--weights must be comma-separated numbers, got 'a'"),
    (["check", "cocycle", "--weights", "a"], "--weights must be comma-separated numbers, got 'a'"),
    (["apply", "--op", "truncate", "--S", "x", "--in", "{element}"],
     "--S must be comma-separated integers, got 'x'"),
    (["apply", "--op", "hilbert", "--eps", "x", "--in", "{element}"],
     "--eps must be comma-separated integers, got 'x'"),
    (["check", "cocycle", "--sample-size", "0"], "sample_size must be >= 1, got 0"),
    (["check", "cocycle", "--sample-size", "-5"], "sample_size must be >= 1, got -5")],
    ids=["t-empty", "t-letter", "verify-weights", "check-weights", "truncate-S", "hilbert-eps",
         "sample-size-0", "sample-size-negative"])
def test_malformed_option_values_named(tmp_path, capsys, monkeypatch, args, named):
    """A malformed option value is refused in words that name the option and the form it
    takes, with exit code 2, before anything is drawn and with no output written."""
    monkeypatch.setattr(harness, "_complex_normal", _no_draw)
    monkeypatch.setattr(groups, "random_group_elements", _no_draw)
    monkeypatch.setattr(cli, "random_group_elements", _no_draw)
    element = write_element(tmp_path / "f.json", GroupAlgebraElement.lam(
        GroupDescriptor.free_group(2), ReducedWord(((1, 1), (2, -1)))))
    out = tmp_path / "r.json"
    assert run([*(arg.format(element=element) for arg in args), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


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
    @pytest.fixture(scope="class")
    def fast_battery(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("suite") / "suite.json"
        return run(["scan-suite", "--fast", "--out", str(out)]), load(out)

    def test_fast_battery_passes_and_writes(self, fast_battery):
        code, payload = fast_battery
        assert code == 0
        assert len(payload["criteria"]) == 10
        assert all(entry["passed"] for entry in payload["criteria"])

    def test_boundedness_scans_report_every_series(self, fast_battery):
        """Criterion 7 writes one row per scan: 6 hypercube, 4 cyclic, 2 torus."""
        criterion = next(entry for entry in fast_battery[1]["criteria"] if entry["id"] == 7)
        series = criterion["series"]
        cubes = [("hypercube", n, derivative)
                 for n in (4, 7, 10) for derivative in ("walsh", "absorbent")]
        assert [(row["family"], row["n"], row["derivative"]) for row in series] == cubes + [
            ("cyclic", n, "absorbent") for n in (2, 4, 2, 4)] + [
            ("torus", n, "euclidean") for n in (1, 2)]
        for row in series:
            assert set(row) == {"family", "n", "derivative", "trials", "max_ratio", "p4_max",
                                "runtime_ms"}
            assert row["trials"] == 20 and 0 < row["p4_max"] <= row["max_ratio"]
            assert 0 < row["runtime_ms"] <= criterion["runtime_ms"]
