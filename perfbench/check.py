"""Checks of program outputs against the references in :mod:`reference`.

Each ``check_*`` function takes the JSON-able record an operation produced
and returns a list of failure messages (empty when the output is correct).
No check compares against a stored copy of earlier output: every expected
value is computed here from the operation's own inputs and witness, or is a
property the method must have.

Run this file to self-test the checker: a result whose ``lhs`` is off by
1e-6 relative must be reported as failed.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

import reference

#: witnesses must re-evaluate to the recorded numbers within this
WITNESS_TOL = 1e-9
#: relative agreement of lhs / rhs with an independent reference
REFERENCE_TOL = 1e-9
#: free-operator identities hold to this absolute deviation
IDENTITY_TOL = 1e-12
#: a Monte Carlo sign average must lie within this many standard errors
MC_SIGMAS = 6.0
#: the known-fault check compares the exact norm with the grid at this tolerance
NORM_TOL = 1e-6
#: points per axis of the grid quadrature used at non-even p
FINE_GRID = 256
#: xpchaos documents exhaustive sign sums up to this many signs, Monte Carlo beyond
SIGN_ENUMERATION_CAP = 14


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _compare(errors: list, label: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and close(got, want, tol)):
        errors.append(f"{label}: got {got!r}, reference {want!r}")


def _rerun(out: dict) -> list[str]:
    errors: list[str] = []
    report, rerun = out["report"], out["rerun"]
    for key in ("lhs", "rhs", "ratio"):
        if not abs(rerun[key] - report[key]) <= WITNESS_TOL * max(1.0, abs(report[key])):
            errors.append(f"witness re-evaluates {key} to {rerun[key]!r}, "
                          f"report has {report[key]!r}")
    return errors


def same(a, b) -> bool:
    """Whether two output records agree: structure exactly, numbers to 1e-9."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and (a == b or close(a, b, WITNESS_TOL)))
    return a == b


# -- truncation averages ---------------------------------------------------------


def check_naor(out: dict, spec: dict) -> list[str]:
    """A naor scan: witness, references at the witness, p = 2 closure and bound.

    ``spec`` holds the scan's ``n``, ``ps``, ``ks`` and ``derivative``.
    """
    errors = _rerun(out)
    report = out["report"]
    witness = report["witness"]
    p, k = float(witness["p"]), int(witness["k"])
    if p not in spec["ps"] or k not in spec["ks"] or witness["derivative"] != spec["derivative"]:
        errors.append(f"witness (p={p}, k={k}, {witness['derivative']}) is outside the scan")
        return errors
    lhs, rhs = reference.naor_sides(witness["f"], p, k, witness["derivative"])
    _compare(errors, "lhs", report["lhs"], lhs, REFERENCE_TOL)
    _compare(errors, "rhs", report["rhs"], rhs, REFERENCE_TOL)
    if p == 2:
        _compare(errors, "p=2 lhs vs closure", report["lhs"],
                 reference.hypergeometric_p2(witness["f"], k), REFERENCE_TOL)
    if 2 in spec["ps"]:
        by_p = report["extra"].get("max_ratio_by_p", {})
        top = by_p.get("2.0", by_p.get("2"))
        if top is None:
            errors.append("report has no p = 2 maximum ratio")
        elif not top <= 1 + 1e-12:
            errors.append(f"p = 2 max ratio {top!r} exceeds 1")
    for key, (lhs2, rhs2) in out.get("p2_profile", {}).items():
        _compare(errors, f"p=2 lattice k={key} vs closure", lhs2,
                 reference.hypergeometric_p2(witness["f"], int(key)), REFERENCE_TOL)
        if not lhs2 <= rhs2 * (1 + 1e-12):
            errors.append(f"p = 2 ratio above 1 at k={key}")
    return errors


def check_riesz(out: dict, p: float) -> list[str]:
    errors = _rerun(out)
    report = out["report"]
    _compare(errors, "||f||_p", report["lhs"],
             reference.lp_norm(report["witness"]["f"], p), REFERENCE_TOL)
    if p == 2 and not abs(report["ratio"] - 1) <= 1e-9:
        errors.append(f"Riesz ratio {report['ratio']!r} is not 1 at p = 2")
    return errors


def check_free(out: dict) -> list[str]:
    errors = _rerun(out)
    if not out["report"]["lhs"] <= IDENTITY_TOL:
        errors.append(f"free-identity deviation {out['report']['lhs']!r}")
    return errors


# -- linear models ---------------------------------------------------------------


def _matrices(witness: dict) -> np.ndarray:
    return np.stack([np.array(x["re"]) + 1j * np.array(x["im"])
                     for x in witness["matrices"]])


def _monte_carlo(errors: list, label: str, got: float, powers: np.ndarray) -> None:
    """``got`` estimates mean(powers) from 2^14 iid sign draws."""
    exact = float(np.mean(powers))
    stderr = float(np.std(powers)) / math.sqrt(2 ** 14)
    if not abs(got - exact) <= MC_SIGMAS * stderr + 1e-12 * abs(exact):
        errors.append(f"{label}: Monte Carlo {got!r} is more than {MC_SIGMAS:g} "
                      f"standard errors ({stderr:.3g}) from the exact {exact!r}")


def check_xp_linear(out: dict) -> list[str]:
    """Exhaustive sums exactly; Monte Carlo ones within MC_SIGMAS of the exact 2^n."""
    errors = _rerun(out)
    report = out["report"]
    witness = report["witness"]
    mats = _matrices(witness)
    n, p, k = len(mats), float(witness["p"]), int(witness["k"])
    cap = SIGN_ENUMERATION_CAP
    if report["monte_carlo"] != (n > cap or k > cap):
        errors.append(f"monte_carlo flag {report['monte_carlo']} at n={n}, k={k}")
    if k <= cap:
        _compare(errors, "lhs", report["lhs"], reference.subset_sign_average(mats, p, k),
                 REFERENCE_TOL)
        if p == 2:
            _compare(errors, "p=2 lhs vs (k/n) sum ||x_j||_2^2", report["lhs"],
                     (k / n) * reference.schatten_sum(mats, 2), REFERENCE_TOL)
    elif k == n:
        _monte_carlo(errors, "lhs", report["lhs"], reference.sign_norm_powers(mats, p))
    else:
        errors.append(f"no reference for a Monte Carlo subset average at k={k} < n={n}")
    norm_sum = reference.schatten_sum(mats, p)
    if n <= cap:
        full = float(np.mean(reference.sign_norm_powers(mats, p)))
        _compare(errors, "rhs", report["rhs"],
                 (k / n) * norm_sum + (k / n) ** (p / 2) * full, REFERENCE_TOL)
    else:
        implied = (report["rhs"] - (k / n) * norm_sum) / (k / n) ** (p / 2)
        _monte_carlo(errors, "full sign average", implied, reference.sign_norm_powers(mats, p))
    return errors


def check_rosenthal(out: dict) -> list[str]:
    errors = _rerun(out)
    report = out["report"]
    witness = report["witness"]
    coeffs = np.array([complex(z["re"], z["im"]) for z in witness["coeffs"]])
    p, k = float(witness["p"]), int(witness["k"])
    lhs, rhs = reference.rosenthal_sides(coeffs, p, k)
    _compare(errors, "lhs", report["lhs"], lhs, REFERENCE_TOL)
    _compare(errors, "rhs", report["rhs"], rhs, REFERENCE_TOL)
    if p == 2:
        closed = math.sqrt(k / len(coeffs) * float(np.sum(np.abs(coeffs) ** 2)))
        _compare(errors, "p=2 lhs closed form", report["lhs"], closed, REFERENCE_TOL)
    return errors


# -- cocycles and norms -------------------------------------------------------------


def check_cocycles(out: list) -> list[str]:
    """Closed Gromov forms equal the integer forms from psi; ONB and PSD properties."""
    errors: list[str] = []
    for case in out:
        family = case["family"]
        lengths = reference.Lengths(family, case["modulus"])
        sample = [tuple(map(tuple, g)) if case["words"] else tuple(g) for g in case["sample"]]
        for a, row in zip(sample, case["gromov"]):
            for b, value in zip(sample, row):
                if Fraction(value) != lengths.gromov(a, b):
                    errors.append(f"{family}: Gromov form at {a}, {b} is {value}, "
                                  f"reference {lengths.gromov(a, b)}")
        size = len(case["gram"])
        for i, row in enumerate(case["gram"]):
            if [Fraction(x) for x in row] != [int(i == j) for j in range(size)]:
                errors.append(f"{family}: Gram row {i} is not the identity row")
        if any(Fraction(x) != 0 for x in case["completeness"]):
            errors.append(f"{family}: completeness defects {case['completeness']}")
        negativity = case["negativity"]
        if not (negativity["passed"] and min(negativity["kernel_min_eigenvalues"]) >= -1e-10
                and negativity["direct_form_max"] <= 1e-10):
            errors.append(f"{family}: conditional negativity not certified: {negativity}")
    return errors


def check_norm(out: dict, element: dict, p: float) -> list[str]:
    """``norm --method exact`` at p against grid quadrature at the same p."""
    errors: list[str] = []
    if out["p"] != p:
        errors.append(f"norm reported for p={out['p']!r}, asked p={p!r}")
    _compare(errors, f"||f||_{p:g}", out["norm"],
             reference.lp_norm(element, p, grid=FINE_GRID), NORM_TOL)
    return errors


# -- self-test --------------------------------------------------------------------


def self_test() -> list[str]:
    """Problems with the checker itself (empty when it detects a 1e-6 lhs error)."""
    element = {"group": {"kind": "finite_abelian", "moduli": [2, 2, 2, 2]},
               "coeffs": [{"g": g, "re": re, "im": im} for g, re, im in (
                   ([1, 0, 0, 0], 0.8, -0.3), ([0, 1, 1, 0], -1.1, 0.4),
                   ([1, 1, 0, 1], 0.5, 0.9), ([0, 0, 1, 1], 0.2, -0.7),
                   ([1, 1, 1, 1], -0.6, 0.1))]}
    spec = {"n": 4, "ps": [4.0], "ks": [1, 2, 3, 4], "derivative": "walsh"}
    lhs, rhs = reference.naor_sides(element, 4.0, 2, "walsh")

    def result(lhs_value: float) -> dict:
        sides = {"lhs": lhs_value, "rhs": rhs, "ratio": lhs_value / rhs}
        report = dict(sides, witness={"f": element, "p": 4.0, "k": 2, "derivative": "walsh"},
                      extra={"max_ratio_by_p": {"4.0": lhs_value / rhs}})
        return {"report": report, "rerun": dict(sides)}

    problems = []
    if check_naor(result(lhs), spec):
        problems.append(f"exact result rejected: {check_naor(result(lhs), spec)}")
    if not check_naor(result(lhs * (1 + 1e-6)), spec):
        problems.append("lhs off by 1e-6 relative was not reported as failed")
    return problems


if __name__ == "__main__":
    found = self_test()
    print("checker self-test:", "; ".join(found) if found else "ok")
    sys.exit(1 if found else 0)
