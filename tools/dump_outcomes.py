"""Print one compact JSON line per outcome of xpchaos, to show that two trees agree.

Run from a source checkout, on each tree, and compare the outputs byte for byte::

    python tools/dump_outcomes.py > before.jsonl     # on the parent tree
    python tools/dump_outcomes.py > after.jsonl      # on the changed tree
    cmp before.jsonl after.jsonl

When one tree prints records the other does not, compare the records both print,
matched by their ``kind`` and ``name``.

xpchaos is imported from the ``src/`` beside this script, so a copy of it run in
another checkout dumps that checkout.  The records are scan reports with their
witness re-evaluations (``TRIALS`` draws each, within one batch, and scans of 130
draws, which run in batches of 64, 64 and 2 at ``SCAN_BATCH_DRAWS = 64``: naor on key
pairs, on the hypercube n = 4 grid and on the torus grid with a multiplier stack, and
riesz on Z_4^2 and the bound-1 torus; dense p = 2 scans on key pairs, on the grid
alone under a multiplier derivative and on the grid beside p = 4), single-run reports with
theirs (``xp_linear_ratio`` on square, wide 2x4 and tall 3x2 and 4x2 tuples, the
rectangular ones at p = 3, 6 and 8 too), and the outputs of ``xpchaos verify``
(every verb, and the six dense runs of the ``cube-dense`` benchmark), ``apply``
(every op on a torus, Z_4^2, Z_2^3, F_2 and Z_4*Z_4 element), ``norm`` and
``check cocycle`` (every family), with their exit codes, the group algebra's own
arithmetic on every element of ``ELEMENTS`` (``+``, ``-``, negation, complex
scalings that prune none, some and all of its coefficients, and the free kinds'
convolutions ``f f`` and ``f f*``), the ``fourier_coefficients(evaluate_on_dual(f))``
round trip on Z_4^2 and Z_2^3, ``square_function_norm`` on Z_4^2 and on the rank-2
torus at p = 3 and 4, ``lp_norm_torus_grid`` at oversample 4 and 8, and the cocycle
certificates:
``gram_matrix`` on the acceptance battery's slices and on one basis with formal
vectors, the sign-relation ``gromov_bilinear`` pairs,
``conditional_negativity_check`` at seeds 0-2 and the spectral gap of the
battery's nine cocycles, each value by ``repr`` so that types show too, and
``moment_checks`` for every n <= 10 and k, and its refusal of k = n + 1.
``runtime_ms`` is left out: it is the one field a rerun may change.
Floats print with ``repr``, so equal lines mean bit-identical numbers, signed
zeros included.  A run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

# the tree's own sources come first, whatever xpchaos is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from xpchaos import (EnsembleSpec, GroupAlgebraElement, GroupDescriptor,  # noqa: E402
                     acceptance, adjoint, build_cocycle, cli, conditional_negativity_check,
                     convolve, evaluate_on_dual, fourier_coefficients, gram_matrix,
                     gromov_bilinear, lp_norm_torus_grid, moment_checks, naor_ratio,
                     random_group_elements, reevaluate_witness, riesz_equivalence_ratio,
                     rosenthal_linear_ratio, scan, square_function_norm, words,
                     xp_linear_ratio)
from xpchaos.cocycles import BasisVector  # noqa: E402
from xpchaos.words import ReducedWord  # noqa: E402

SEEDS = (0, 1, 2)
TRIALS = 4
MOMENT_PS = (1, 1.5, 2, 2.5, 3, 4, 6, 8)

#: (experiment, ensemble, params): both routes of naor, xp_linear and rosenthal,
#: their pair routes at every even p they take (naor and rosenthal up to p = 8,
#: rosenthal at (n, p) = (14, 8) and (30, 6) too,
#: xp_linear at p = 2 and 4 on one- and two-byte index masks, and rosenthal at
#: (14, 6) and xp_linear at (n, p, d) = (14, 4, 4) with every k, whose cached plans
#: serve every trial, seed and witness replay), xp_linear's sign
#: tables at p = 6 and on 1 x 1 tuples at p = 3 and 6, its Monte Carlo shapes of the
#: matrix-signs benchmark and a Monte Carlo k < n beside k = n, rosenthal's sign
#: route at p = 1.5, 2.5 and 3, every naor family and derivative, the
#: chaos_degree and linear_span draws, and p = 2 on dense elements: alone on key
#: pairs (torus absorbent) and on the grid (torus gradient), and beside p = 4 on
#: the grid (Z_6^4 absorbent)
SCANS = [
    ("naor", EnsembleSpec("gaussian"), {"n": 10, "ps": [2, 4], "derivative": "walsh"}),
    ("naor", EnsembleSpec("gaussian"), {"n": 10, "ps": [2, 4], "derivative": "absorbent"}),
    *[("naor", EnsembleSpec("gaussian"), {"family": "torus", "n": 2, "bound": 2,
                                          "ps": [2, 3, 6], "derivative": derivative})
      for derivative in ("absorbent", "euclidean", "gradient")],
    ("naor", EnsembleSpec("sparse", sparsity=6), {"n": 7, "ps": [2, 4, 6], "ks": [1, 3, 7]}),
    ("naor", EnsembleSpec("sparse", sparsity=5), {"n": 4, "ps": [2, 4], "derivative": "walsh"}),
    ("naor", EnsembleSpec("sparse", sparsity=6), {"family": "cyclic", "modulus": 6, "n": 3,
                                                  "ps": [2, 3, 4], "ks": [1, 2]}),
    ("naor", EnsembleSpec("gaussian"), {"family": "cyclic", "modulus": 4, "n": 2,
                                        "ps": [3, 4], "derivative": "gradient"}),
    ("naor", EnsembleSpec("sparse", sparsity=4), {"family": "torus", "n": 1, "bound": 3,
                                                  "ps": [2, 4, 6]}),
    ("naor", EnsembleSpec("sparse", sparsity=6), {"n": 12, "ps": [8], "ks": [1, 6, 12]}),
    ("naor", EnsembleSpec("chaos_degree", degree=2), {"n": 6, "p": 4, "ks": [2, 3]}),
    ("naor", EnsembleSpec("linear_span"), {"family": "weighted_cube", "n": 3,
                                           "weights": [1.0, 2.0, 0.5], "p": 4,
                                           "derivative": "gradient"}),
    *[("naor", EnsembleSpec("gaussian"), {"family": "torus", "n": 2, "bound": 2, "ps": [2],
                                          "derivative": derivative})
      for derivative in ("absorbent", "gradient")],
    ("naor", EnsembleSpec("gaussian"), {"family": "cyclic", "modulus": 6, "n": 4,
                                        "ps": [2, 4]}),
    ("xp_linear", None, {"n": 4, "p": 4, "ks": [1, 2, 4]}),
    ("xp_linear", None, {"n": 11, "p": 4, "d": 2, "ks": [1, 5, 11]}),
    *[("xp_linear", None, {"n": n, "p": 2, "d": 3, "ks": [1, 3, n]}) for n in (5, 9, 14)],
    ("xp_linear", None, {"n": 4, "p": 3, "d": 3, "k": 2}),
    ("xp_linear", None, {"n": 15, "p": 2, "d": 2, "ks": [15]}),
    ("xp_linear", None, {"n": 16, "p": 4, "d": 4, "ks": [16]}),
    ("xp_linear", None, {"n": 16, "p": 2, "d": 4, "ks": [2, 16]}),
    ("xp_linear", None, {"n": 8, "p": 6, "d": 3, "ks": [1, 4, 8]}),
    *[("xp_linear", None, {"n": 6, "p": p, "d": 1, "ks": [1, 3, 6]}) for p in (3, 6)],
    ("xp_linear", None, {"n": 16, "p": 2, "d": 2, "ks": [15, 16]}),
    *[("rosenthal", None, {"n": n, "p": p, "ks": [1, 3, n]}) for n, p in ((10, 2), (6, 4), (6, 6),
                                                                           (9, 8))],
    ("rosenthal", None, {"n": 5, "p": 3, "k": 2}),
    ("rosenthal", None, {"n": 14, "p": 8, "ks": [1, 3, 14]}),
    ("rosenthal", None, {"n": 30, "p": 6, "ks": [1, 2, 3]}),
    ("rosenthal", None, {"n": 14, "p": 6, "ks": list(range(1, 15))}),
    ("xp_linear", None, {"n": 14, "p": 4, "d": 4, "ks": list(range(1, 15))}),
    *[("rosenthal", None, {"n": 6, "p": p, "ks": list(range(1, 7))}) for p in (1.5, 2.5)],
    ("riesz_equivalence", None, {"family": "cyclic", "modulus": 4, "n": 2, "p": 4}),
    ("riesz_equivalence", None, {"family": "torus", "n": 2, "bound": 1, "p": 3}),
    ("free_identities", None, {"rank": 2, "modulus": 4}),
    ("free_identities", None, {"rank": 3}),
]

#: (experiment, ensemble, params) of the scans of BATCHED_TRIALS draws, longer than a
#: batch: naor on key pairs, naor on the grid with and without a multiplier stack,
#: and riesz on Z_4^2 and the bound-1 torus
BATCHED_SCANS = [
    ("naor", EnsembleSpec("sparse", sparsity=6), {"n": 7, "ps": [2, 4], "ks": list(range(1, 8))}),
    *[("naor", EnsembleSpec("sparse", sparsity=6), {"n": 4, "ps": [2, 4], "derivative": derivative})
      for derivative in ("walsh", "absorbent")],
    ("naor", EnsembleSpec("gaussian"), {"family": "torus", "n": 2, "bound": 3, "ps": [3, 4],
                                        "derivative": "euclidean"}),
    ("riesz_equivalence", None, {"family": "cyclic", "modulus": 4, "n": 2, "p": 4}),
    ("riesz_equivalence", None, {"family": "torus", "n": 2, "bound": 1, "p": 3}),
]
BATCHED_TRIALS = 130

#: verify argv lists, every verb at least once, the six verify runs of the
#: cube-dense benchmark, and five sign-model runs that their planners refuse (the
#: sign rows, the sign arrays, the cap at k = 14); a list without --trials takes 5
VERIFY = [
    ["naor", "--n", "6", "--p", "3", "--k", "all"],
    ["naor", "--n", "10", "--p", "4", "--k", "1..4"],
    ["naor", "--n", "8", "--p", "4", "--ensemble", "sparse", "--sparsity", "5", "--k", "all"],
    ["naor", "--n", "9", "--p", "4", "--ensemble", "chaos_degree", "--degree", "2"],
    ["torus", "--n", "2", "--bound", "2", "--p", "3", "--k", "all"],
    ["torus", "--n", "2", "--bound", "2", "--p", "4", "--derivative", "absorbent"],
    ["ztorus", "--n", "4", "--modulus", "6", "--p", "4", "--k", "2"],
    ["xp-linear", "--n", "5", "--p", "4", "--k", "all"],
    ["rosenthal", "--n", "6", "--p", "4", "--k", "all"],
    ["rosenthal", "--n", "5", "--p", "3", "--k", "2"],
    ["riesz", "--n", "2", "--p", "4"],
    ["riesz", "--family", "torus", "--n", "2", "--bound", "1", "--p", "3"],
    ["riesz", "--family", "weighted_cube", "--n", "3", "--weights", "1,2,3", "--p", "4",
     "--ensemble", "chaos_degree", "--degree", "4"],
    ["free-identities", "--n", "3"],
    ["free-identities", "--n", "2", "--modulus", "4"],
    *[[*verb, "--p", str(p), "--k", "all", "--ensemble", "gaussian", "--trials", "1"]
      for verb in (["naor", "--n", "10"], ["ztorus", "--n", "4", "--modulus", "6"])
      for p in (2, 4, 6)],
    ["xp-linear", "--n", "30", "--k", "15", "--p", "4", "--d", "2"],
    ["xp-linear", "--n", "15", "--p", "4", "--d", "200", "--k", "1"],
    ["rosenthal", "--n", "40", "--p", "3", "--k", "12"],
    ["rosenthal", "--n", "15", "--p", "3", "--k", "15"],
    ["rosenthal", "--n", "400", "--p", "30", "--k", "3"],
]

#: element name -> (group, coefficients): real coefficients among them, so a
#: conjugated zero imaginary part (-0.0) passes through the operators
ELEMENTS = {
    "torus": (GroupDescriptor.torus(2, 2),
              {(1, 0): 1.5, (-2, 1): 0.25 - 0.5j, (0, 2): -0.75j, (2, -2): 0.5 + 1j}),
    "z4^2": (GroupDescriptor.finite_abelian([4, 4]),
             {(0, 0): 0.5, (1, 0): -1.0, (2, 3): 0.5 + 0.25j, (3, 1): 1j}),
    "z2^3": (GroupDescriptor.hypercube(3), {(1, 0, 0): 1.0, (1, 1, 0): -0.5, (0, 1, 1): 0.25j}),
    "f2": (GroupDescriptor.free_group(2),
           {ReducedWord(((1, 1),)): 1.0, ReducedWord(((2, -1), (1, 2))): -0.5 + 0.5j,
            ReducedWord(((1, -1), (2, 1))): 0.75j}),
    "z4*z4": (GroupDescriptor.free_product(2, 4),
              {ReducedWord(((1, 1),)): -1.0, ReducedWord(((2, 2), (1, 3))): 0.5 - 0.25j,
               ReducedWord(((1, 2), (2, 1))): 1j}),
}

#: check-cocycle options beyond --family
CHECK_OPTIONS = {"odd_cyclic_word": ["--modulus", "5"], "weighted_cube": ["--weights", "1,2"],
                 "euclidean": ["--bound", "2"]}


def _without_runtime(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "runtime_ms"}


def _reported(report) -> dict:
    return {"report": _without_runtime(report.to_json()),
            "reevaluated": reevaluate_witness(report)}


def _run(argv: list[str], out: Path | None = None) -> dict:
    """``xpchaos argv``: its exit code, stdout and stderr, and the report it wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + (["--out", str(out)] if out else []))
    result = {"exit": code, "stderr": stderr.getvalue()}
    if out is None:
        result["stdout"] = stdout.getvalue()
    elif code == 0:
        result["report"] = _without_runtime(json.loads(out.read_text()))
    return result


def _report_records():
    rng = np.random.default_rng(7)
    cube = GroupDescriptor.hypercube(5)
    f = GroupAlgebraElement(cube, {(1, 0, 1, 0, 0): 1.0, (0, 1, 1, 1, 0): -0.5 + 0.25j,
                                   (1, 1, 0, 0, 1): 0.75j})
    torus = GroupDescriptor.torus(2, 2)
    g = GroupAlgebraElement(torus, {(1, 0): 1.0, (-1, 2): 0.5j, (2, -1): -0.25 + 0.5j})
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(5)]
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    wide = [rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)) for _ in range(10)]
    yield "naor_ratio walsh p=4", lambda: naor_ratio(
        f, build_cocycle("cyclic_word", cube), 4, 2, "walsh")
    yield "naor_ratio absorbent p=3", lambda: naor_ratio(
        f, build_cocycle("cyclic_word", cube), 3, 3)
    yield "naor_ratio torus euclidean p=3", lambda: naor_ratio(
        g, build_cocycle("euclidean", torus), 3, 1, "euclidean")
    yield "xp_linear_ratio p=4", lambda: xp_linear_ratio(mats, 4, 2)
    yield "xp_linear_ratio p=3", lambda: xp_linear_ratio(mats, 3, 3)
    for p in (2, 3, 4, 6, 8):
        yield f"xp_linear_ratio wide p={p}", lambda p=p: xp_linear_ratio(wide, p, 2)
    tall = [rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for _ in range(16)]
    yield "xp_linear_ratio tall monte carlo p=4", lambda: xp_linear_ratio(tall, 4, 16, seed=3)
    tall_4x2 = [rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)) for _ in range(8)]
    for p in (3, 6, 8):
        yield f"xp_linear_ratio tall 4x2 p={p}", lambda p=p: xp_linear_ratio(tall_4x2, p, 2)
    yield "rosenthal_linear_ratio p=4", lambda: rosenthal_linear_ratio(coeffs, 4, 3)
    yield "rosenthal_linear_ratio p=3", lambda: rosenthal_linear_ratio(coeffs, 3, 2)
    yield "riesz_equivalence_ratio torus p=3", lambda: riesz_equivalence_ratio(
        g, 3, build_cocycle("torus_word", torus))


def _element_files(workdir: Path) -> dict[str, Path]:
    paths = {}
    for name, (group, coeffs) in ELEMENTS.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(GroupAlgebraElement(group, coeffs).to_json()))
    return paths


def _apply_records(paths: dict[str, Path]):
    for name, path in paths.items():
        group, coeffs = ELEMENTS[name]
        f = GroupAlgebraElement(group, coeffs)
        cocycle = build_cocycle(cli._default_family(group), group)
        basis = cocycle.basis_for_support(list(f.coeffs))
        options = {"derivative": [["--u", u.to_id()] for u in (basis[0], basis[-1])],
                   "riesz": [["--u", u.to_id()] for u in (basis[0], basis[-1])],
                   "absorbent": [["--j", "1"], ["--j", "2"]],
                   "laplacian": [["--gamma", "1"], ["--gamma", "-0.5"]],
                   "heat": [["--t", "0.3"]],
                   "truncate": [["--S", "1"], ["--S", "2"]],
                   "adjoint-truncate": [["--S", "1"]],
                   "project-as": [["--S", "2"]],
                   "hilbert": [["--eps", "1,-1"]]}
        for op in cli.APPLY_OPS:
            for extra in options.get(op, [[]]):
                argv = ["apply", "--op", op, "--in", str(path), *extra]
                yield f"{name} {op} {' '.join(extra)}".strip(), lambda argv=argv: _run(argv)


def _algebra_records():
    """The arithmetic, free convolutions, dual round trips and grid norms of ``ELEMENTS``,
    elements as their JSON and numbers by ``repr``."""
    elements = {name: GroupAlgebraElement(group, coeffs)
                for name, (group, coeffs) in ELEMENTS.items()}
    for name, f in elements.items():
        star = adjoint(f)
        for label, make in (("f + f*", lambda f=f, g=star: f + g),
                            ("f* + f", lambda f=f, g=star: g + f),
                            ("f - f*", lambda f=f, g=star: f - g),
                            ("f - f", lambda f=f: f - f),
                            ("-f", lambda f=f: -f),
                            ("0.5j f", lambda f=f: 0.5j * f),
                            ("f (-2)", lambda f=f: f * -2),
                            ("2e-14 f", lambda f=f: 2e-14 * f),
                            ("1e-15 f", lambda f=f: 1e-15 * f)):
            yield f"{name} {label}", lambda make=make: make().to_json()
        if f.group.is_free_kind:
            yield f"{name} f f", lambda f=f: convolve(f, f).to_json()
            yield f"{name} f f*", lambda f=f, g=star: convolve(f, g).to_json()
        if f.group.kind == "finite_abelian":
            yield f"{name} dual round trip", lambda f=f: fourier_coefficients(
                evaluate_on_dual(f)).to_json()
    z4, torus = elements["z4^2"], elements["torus"]
    wide = GroupAlgebraElement(GroupDescriptor.torus(2, 1), {(1, -1): 0.5, (0, 1): -0.25j})
    for p in (3, 4):
        yield f"square function z4^2 p={p}", lambda p=p: repr(
            square_function_norm([z4, adjoint(z4), 0.5j * z4], p))
        yield f"square function torus p={p}", lambda p=p: repr(
            square_function_norm([torus, wide], p))
        for oversample in (4, 8):
            yield f"torus grid p={p} oversample={oversample}", lambda p=p, o=oversample: repr(
                lp_norm_torus_grid(torus, p, o))


def _norm_records(paths: dict[str, Path]):
    for name, p, method in (("z4^2", 3, "auto"), ("torus", 4, "auto"), ("torus", 4, "exact"),
                            ("torus", 4, "grid"), ("torus", 3.5, "exact"),
                            ("torus", 3.5, "grid"), ("torus", 2, "exact")):
        argv = ["norm", "--in", str(paths[name]), "--p", str(p), "--method", method]
        yield f"{name} p={p} {method}", lambda argv=argv: _run(argv)


def _sign_relation_pairs(modulus: int):
    """(w, w g^m) for the words w of length <= 2 on Z_2m * Z_2m whose last
    exponent lies in [1, m - 1], so that the extension stays reduced."""
    m = modulus // 2
    for w in words.enumerate_words(2, 2, modulus=modulus):
        if not w.is_identity and 1 <= w.blocks[-1][1] <= m - 1:
            yield w, words.concat(w, ReducedWord(((w.blocks[-1][0], m),)), modulus)


def _cocycle_records():
    for cocycle, basis, _ in acceptance._enumerated_slices():
        yield f"gram {cocycle.family} {cocycle.group.to_json()}", (
            lambda c=cocycle, b=basis: {"gram": repr(gram_matrix(c, b))})
    # the family's expansion without the basis check, so that each w g^m
    # enters as the formal vector of the sign relation: not an ONB
    formal = build_cocycle("free_product_word", GroupDescriptor.free_product(2, 6))
    formal.delta_expansion = functools.partial(formal._spec.delta_expansion, formal)
    vectors = [BasisVector("free_prod", word=w) for pair in _sign_relation_pairs(6) for w in pair]
    yield "gram free_product_word Z_6*Z_6 formal", lambda: {
        "gram": repr(gram_matrix(formal, vectors))}
    for modulus in (2, 4, 6):
        cocycle = build_cocycle("free_product_word", GroupDescriptor.free_product(2, modulus))
        for w, extended in _sign_relation_pairs(modulus):
            u_w = [(w, 1), (words.predecessor(w, modulus), -1)]
            u_ext = [(extended, 1), (words.predecessor(extended, modulus), -1)]
            yield f"bilinear 2m={modulus} {w}", lambda c=cocycle, a=u_w, b=u_ext: {
                "bilinear": repr(gromov_bilinear(c, a, b))}
    for cocycle in acceptance._builtin_cocycles():
        for seed in SEEDS:
            def thunk(c=cocycle, seed=seed):
                sample = random_group_elements(c.group, 12, np.random.default_rng(seed))
                report = conditional_negativity_check(c, sample, (0.1, 1.0, 10.0), seed=seed)
                return {key: repr(value) for key, value in report.items()}
            yield f"negativity {cocycle.family} {cocycle.group.to_json()} seed={seed}", thunk
        yield f"gap {cocycle.family} {cocycle.group.to_json()}", lambda c=cocycle: {
            "gap": repr(c.gap)}


def _moments(n: int, k: int, p: float) -> dict:
    try:
        report = moment_checks(n, k, p)
    except ValueError as exc:
        return {"error": str(exc)}
    return {key: repr(value) for key, value in report.items()}


def _moment_records():
    for n in range(1, 11):
        for k in range(1, n + 1):
            for p in MOMENT_PS:
                yield f"n={n} k={k} p={p}", lambda n=n, k=k, p=p: _moments(n, k, p)
        yield f"n={n} k={n + 1} p=4", lambda n=n: _moments(n, n + 1, 4)


def records(workdir: Path):
    """(kind, name, thunk) for every record, in print order."""
    for experiment, ensemble, params in SCANS:
        for seed in SEEDS:
            yield "scan", f"{experiment} {params} {ensemble} seed={seed}", (
                lambda e=experiment, s=seed, en=ensemble, pa=params: _reported(
                    scan(e, en, trials=TRIALS, seed=s, **pa)))
    for experiment, ensemble, params in BATCHED_SCANS:
        yield "scan", f"{experiment} {params} {ensemble} trials={BATCHED_TRIALS}", (
            lambda e=experiment, en=ensemble, pa=params: _reported(
                scan(e, en, trials=BATCHED_TRIALS, seed=0, **pa)))
    for name, make in _report_records():
        yield "report", name, lambda make=make: _reported(make())
    for index, argv in enumerate(VERIFY):
        trials = [] if "--trials" in argv else ["--trials", "5"]
        yield "verify", " ".join(argv), lambda argv=argv + trials, index=index: _run(
            ["verify", *argv], workdir / f"verify-{index}.json")
    paths = _element_files(workdir)
    for name, thunk in _apply_records(paths):
        yield "apply", name, thunk
    for name, thunk in _norm_records(paths):
        yield "norm", name, thunk
    for name, thunk in _algebra_records():
        yield "algebra", name, thunk
    for family in cli.FAMILIES:
        argv = ["check", "cocycle", "--family", family, *CHECK_OPTIONS.get(family, [])]
        yield "check", family, lambda argv=argv, family=family: _run(
            argv, workdir / f"check-{family}.json")
    for name, thunk in _cocycle_records():
        yield "cocycle", name, thunk
    for name, thunk in _moment_records():
        yield "moment", name, thunk


def line(kind: str, name: str, outcome) -> str:
    return json.dumps({"kind": kind, "name": name, "outcome": outcome}, sort_keys=True,
                      separators=(",", ":"))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for kind, name, thunk in records(Path(tmp)):
            print(line(kind, name, thunk()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
