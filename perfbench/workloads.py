"""The four seeded workloads, as lists of operations.

An operation calls xpchaos (a ``scan``, or ``cli.main`` in process), then the
program's own certification (witness re-evaluation, the p = 2 lattice of the
witness) and returns a JSON-able record; its ``check`` compares that record
with :mod:`reference` afterwards, outside every timing.  Inputs come from the
workload seed only: scan seeds, cocycle samples and the CLI arguments are
derived from it, and the program sees nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check


@dataclass
class Op:
    """One operation of a pass.

    ``call(trials)`` returns the output record and the seconds spent inside
    the scan or ``verify`` call; ``trials`` is what one timed call evaluates.
    ``warm`` operations are called once during set-up: one per configuration
    when a configuration is split over several operations.
    """

    name: str
    call: Callable[[int], tuple[object, float]]
    check: Callable[[object], list[str]]
    trials: int = 0
    known_fault: bool = False
    warm: bool = True


class Env:
    """What operations share: the program, the tracer and a scratch directory."""

    def __init__(self, xp, cli, tracer, workdir: Path, seed: int):
        self.xp = xp
        self.cli = cli
        self.tracer = tracer
        self.workdir = workdir
        self.seed = seed
        self.report_bytes = 0   # bytes of reports ``verify`` wrote, reset per pass

    def seed_for(self, index: int) -> int:
        """Scan seed of operation ``index``, derived from the workload seed."""
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def scan(self, tags, trials, experiment, ensemble, seed, params):
        with self.tracer.trials_scope(tags, trials):
            start = time.perf_counter()
            report = self.xp.scan(experiment, ensemble, trials=trials, seed=seed, **params)
            elapsed = time.perf_counter() - start
        data = report.to_json()
        data.pop("runtime_ms")
        return {"report": data, "rerun": self.xp.reevaluate_witness(data)}, elapsed

    def cli_main(self, argv: list[str]) -> str:
        """Run ``xpchaos <argv>`` in process and return what it printed."""
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"xpchaos {' '.join(argv)} exited with {code}")
        return captured.getvalue()


# -- operation builders -------------------------------------------------------------


def _naor(env: Env, index: int, name: str, trials: int, ensemble, params: dict,
          tags: tuple[str, ...], certify_p2: bool) -> Op:
    seed = env.seed_for(index)
    spec = {"n": params["n"], "ps": [float(p) for p in params["ps"]],
            "ks": params["ks"], "derivative": params["derivative"]}

    def call(count: int):
        out, elapsed = env.scan(tags, count, "naor", ensemble, seed, params)
        if certify_p2:
            witness = out["report"]["witness"]
            f = env.xp.GroupAlgebraElement.from_json(witness["f"])
            cocycle = env.xp.build_cocycle(witness["family"], f.group, witness["weights"])
            profile = env.xp.naor_profile(f, cocycle, [2], params["ks"], witness["derivative"])
            out["p2_profile"] = {str(k): list(profile[2][k]) for k in params["ks"]}
        return out, elapsed

    return Op(name, call, lambda out: check.check_naor(out, spec), trials)


def _verify(env: Env, index: int, name: str, trials: int, args: list[str],
            spec: dict, tags: tuple[str, ...]) -> Op:
    seed = env.seed_for(index)
    path = env.workdir / f"{name}.json"

    def call(count: int):
        argv = ["verify", *args, "--ensemble", "gaussian", "--trials", str(count),
                "--seed", str(seed), "--out", str(path)]
        with env.tracer.trials_scope(tags, count):
            start = time.perf_counter()
            env.cli_main(argv)
            elapsed = time.perf_counter() - start
        text = path.read_text()
        env.report_bytes += len(text.encode())
        data = json.loads(text)
        data.pop("runtime_ms")
        return {"report": data, "rerun": env.xp.reevaluate_witness(data)}, elapsed

    return Op(name, call, lambda out: check.check_naor(out, spec), trials)


def _scan_op(env: Env, index: int, name: str, trials: int, experiment: str,
             params: dict, checker: Callable, ensemble=None) -> Op:
    seed = env.seed_for(index)

    def call(count: int):
        return env.scan((experiment,), count, experiment, ensemble, seed, params)

    return Op(name, call, checker, trials)


# -- cube-sparse ----------------------------------------------------------------------


def cube_sparse(env: Env) -> list[Op]:
    """Criterion 7's abelian series scaled up, on 6-coefficient inputs."""
    sparse = env.xp.EnsembleSpec("sparse", sparsity=6)
    series = [  # (name, family params, derivative, trials per call, calls)
        ("cube7-walsh", {"family": "hypercube", "n": 7}, "walsh", 5, 1),
        ("cube7-absorbent", {"family": "hypercube", "n": 7}, "absorbent", 5, 1),
        ("cube10-walsh", {"family": "hypercube", "n": 10}, "walsh", 1, 3),
        ("cube10-absorbent", {"family": "hypercube", "n": 10}, "absorbent", 1, 3),
        ("cube12-walsh", {"family": "hypercube", "n": 12}, "walsh", 1, 1),
        ("cube12-absorbent", {"family": "hypercube", "n": 12}, "absorbent", 1, 1),
        ("z4^4-absorbent", {"family": "cyclic", "modulus": 4, "n": 4}, "absorbent", 5, 1),
        ("z6^4-absorbent", {"family": "cyclic", "modulus": 6, "n": 4}, "absorbent", 5, 1),
    ]
    ops = []
    for name, family, derivative, trials, calls in series:
        n = family["n"]
        params = dict(family, ps=[2, 4], ks=list(range(1, n + 1)), derivative=derivative)
        tags = ("naor", derivative) + (("n10",) if name.startswith("cube10") else ())
        for call in range(1, calls + 1):
            ops.append(_naor(env, len(ops), name + (f"-{call}" if calls > 1 else ""), trials,
                             sparse, params, tags, certify_p2=True))
    return ops


# -- cube-dense -----------------------------------------------------------------------


def cube_dense(env: Env) -> list[Op]:
    """Dense (gaussian) inputs through ``xpchaos verify`` at p = 2, 4 and 6."""
    ops = []
    for p in (2, 4, 6):
        ops.append(_verify(
            env, len(ops), f"verify-naor-n10-p{p}", 1,
            ["naor", "--n", "10", "--k", "all", "--p", str(p)],
            {"n": 10, "ps": [float(p)], "ks": list(range(1, 11)), "derivative": "walsh"},
            ("naor", "walsh", "n10")))
        ops.append(_verify(
            env, len(ops), f"verify-ztorus-z6^4-p{p}", 1,
            ["ztorus", "--n", "4", "--modulus", "6", "--k", "all", "--p", str(p)],
            {"n": 4, "ps": [float(p)], "ks": [1, 2, 3, 4], "derivative": "absorbent"},
            ("naor", "absorbent")))
    return ops


# -- torus-generic ----------------------------------------------------------------------


#: the polynomial of the known-fault operation; fixed, independent of the seed
FAULT_P = 3.5


def _fault_element() -> dict:
    rng = np.random.default_rng(35)
    keys = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    values = rng.standard_normal((len(keys), 2))
    return {"group": {"kind": "torus", "rank": 2, "bound": 2},
            "coeffs": [{"g": list(g), "re": float(re), "im": float(im)}
                       for g, (re, im) in zip(keys, values)]}


def _random_words(rng, rank: int, modulus: int, count: int) -> list[list[list[int]]]:
    """Reduced words of 1 to 4 blocks; exponents +-1, +-2 or in [1, modulus)."""
    out = []
    for _ in range(count):
        blocks, last = [], 0
        for _ in range(int(rng.integers(1, 5))):
            gen = int(rng.choice([g for g in range(1, rank + 1) if g != last]))
            exp = (int(rng.integers(1, modulus)) if modulus
                   else int(rng.choice([-2, -1, 1, 2])))
            blocks.append([gen, exp])
            last = gen
        out.append(blocks)
    return out


def _cocycle_ops(env: Env, index: int) -> list[Op]:
    """Gromov forms, Gram matrices, completeness and Schoenberg kernels.

    One operation per cocycle family; the samples of all four come from the
    seed of operation ``index``.
    """
    xp = env.xp
    rng = np.random.default_rng(env.seed_for(index))
    torus_sample = [[int(x) for x in rng.integers(-3, 4, 2)] for _ in range(10)]
    cyclic_sample = [[int(x) for x in rng.integers(0, 6, 2)] for _ in range(10)]
    cases = [  # (family, group, modulus, sample, sample holds words)
        ("torus_word", xp.GroupDescriptor.torus(2, 3), 0, torus_sample, False),
        ("cyclic_word", xp.GroupDescriptor.finite_abelian([6, 6]), 6, cyclic_sample, False),
        ("free_word", xp.GroupDescriptor.free_group(2), 0, _random_words(rng, 2, 0, 10), True),
        ("free_product_word", xp.GroupDescriptor.free_product(2, 4), 4,
         _random_words(rng, 2, 4, 10), True),
    ]
    negativity_seed = env.seed_for(index + 1000)

    def op(family, group, modulus, sample, is_words) -> Op:
        def call(_count: int):
            cocycle = xp.build_cocycle(family, group)
            elements = [xp.ReducedWord(tuple(map(tuple, g))) if is_words else tuple(g)
                        for g in sample]
            gromov = [[str(xp.gromov_form(cocycle, a, b)) for b in elements] for a in elements]
            support = [g for g in elements if cocycle.psi(g) != 0][:6]
            gram = xp.gram_matrix(cocycle, cocycle.basis_for_support(support))
            completeness = [str(xp.completeness_defect(cocycle, g)) for g in support]
            negativity = xp.conditional_negativity_check(cocycle, elements, (0.1, 1.0, 10.0),
                                                         seed=negativity_seed)
            return [{
                "family": family, "modulus": modulus, "sample": sample, "words": is_words,
                "gromov": gromov, "gram": [[str(x) for x in row] for row in gram],
                "completeness": completeness,
                "negativity": {"passed": bool(negativity["passed"]),
                               "kernel_min_eigenvalues":
                                   list(negativity["kernel_min_eigenvalues"].values()),
                               "direct_form_max": negativity["direct_form_max"]}}], 0.0

        return Op(f"cocycles-{family}", call, check.check_cocycles)

    return [op(*case) for case in cases]


def _fault_op(env: Env) -> Op:
    """``xpchaos norm --method exact --p 3.5`` on a torus polynomial.

    Known to fail: the CLI evaluates the exact route at int(p) = 3.
    """
    element = _fault_element()
    path = env.workdir / "fault-element.json"
    path.write_text(json.dumps(element))
    argv = ["norm", "--in", str(path), "--p", str(FAULT_P), "--method", "exact"]

    def call(_count: int):
        return json.loads(env.cli_main(argv)), 0.0

    return Op("norm-exact-p3.5", call,
              lambda out: check.check_norm(out, element, FAULT_P), known_fault=True)


def torus_generic(env: Env) -> list[Op]:
    """The dict-of-coefficients path: torus, Riesz, free identities, cocycles."""
    gaussian = env.xp.EnsembleSpec("gaussian")
    ops = []
    for name, n, bound, ps, calls in (("torus-r2-b3", 2, 3, [4, 6], 4),
                                      ("torus-r3-b2-p4", 3, 2, [4], 1)):
        params = {"family": "torus", "n": n, "bound": bound, "ps": ps,
                  "ks": list(range(1, n + 1)), "derivative": "euclidean"}
        for call in range(1, calls + 1):
            ops.append(_naor(env, len(ops), name + (f"-{call}" if calls > 1 else ""), 1,
                             gaussian, params, ("naor",), certify_p2=False))
    for p in (2, 4):
        for name, params, trials in (
                (f"riesz-z4^2-p{p}", {"family": "cyclic", "modulus": 4}, 10),
                (f"riesz-torus-r2-b2-p{p}", {"family": "torus", "bound": 2}, 4)):
            ops.append(_scan_op(env, len(ops), name, trials, "riesz_equivalence",
                                dict(params, n=2, p=p),
                                lambda out, p=p: check.check_riesz(out, float(p)), gaussian))
    for name, params, trials in (("free-f2", {"rank": 2}, 30),
                                 ("free-z4*z4*z4", {"rank": 3, "modulus": 4}, 10)):
        ops.append(_scan_op(env, len(ops), name, trials, "free_identities", params,
                            check.check_free, gaussian))
    ops.extend(_cocycle_ops(env, len(ops)))
    ops.append(_fault_op(env))
    return ops


# -- matrix-signs -------------------------------------------------------------------------


def matrix_signs(env: Env) -> list[Op]:
    """Schatten sign averages: no group algebra, batched SVDs and sign tables.

    Every call evaluates the full n-sign average of its right-hand side, so
    the k lists are short; rosenthal's k range is split in seven parts of
    at most 3432 subsets to keep each timed call short, and set-up warms
    the first part of each p only.
    """
    ops = []
    for n, p, ks in ((14, 2, [1, 2, 3]), (14, 4, [2]), (16, 2, [2, 16]), (16, 4, [16])):
        ops.append(_scan_op(env, len(ops), f"xp-linear-n{n}-p{p}", 1, "xp_linear",
                            {"n": n, "d": 4, "p": p, "ks": ks}, check.check_xp_linear))
    for p in (2, 6):
        for ks in ((1, 2, 3, 4), (5,), (6,), (7,), (8,), (9,), (10, 11, 12, 13, 14)):
            name = f"rosenthal-n14-p{p}-k" + "-".join(map(str, sorted({ks[0], ks[-1]})))
            op = _scan_op(env, len(ops), name, 1, "rosenthal",
                          {"n": 14, "p": p, "ks": list(ks)}, check.check_rosenthal)
            op.warm = ks[0] == 1
            ops.append(op)
    return ops


WORKLOADS = {
    "cube-sparse": cube_sparse,
    "cube-dense": cube_dense,
    "torus-generic": torus_generic,
    "matrix-signs": matrix_signs,
}
