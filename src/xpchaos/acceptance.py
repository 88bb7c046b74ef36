"""The acceptance battery behind ``scan-suite`` and the acceptance tests.

Each criterion returns a dict with ``id``, ``name``, ``passed``, ``details``
and ``runtime_ms``, and criterion 7 one ``series`` row per scan it runs;
:func:`run_all` executes them in order and appends the overall wall-clock
budget check.  Tolerances are fixed here, not configurable:
exact identities are compared exactly, floating checks carry the stated
tolerances.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from . import cocycles, harness, operators, words
from .cocycles import BasisVector, LengthCocycle, build_cocycle, \
    conditional_negativity_check, completeness_defect, gram_matrix, gromov_bilinear, gromov_form
from .groups import (GroupAlgebraElement, GroupDescriptor,
                     random_group_elements)
from .harness import (EnsembleSpec, moment_checks, naor_profile,
                      reevaluate_witness, riesz_equivalence_ratio,
                      rosenthal_linear_ratio, sample_element, scan,
                      xp_linear_profile)
from .norms import lp_norm_torus_even, lp_norm_torus_grid, schatten_norm
from .words import ReducedWord

SUITE_BUDGET_SECONDS = 300.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    result["runtime_ms"] = 1e3 * (time.perf_counter() - start)
    return result


def _abelian_box(moduli):
    return list(itertools.product(*(range(m) for m in moduli)))


# -- criterion 1: Gromov exactness -------------------------------------------


def criterion_gromov_exactness() -> dict:
    start = time.perf_counter()
    mismatches = checked = 0

    def compare(cocycle, keys):
        """The closed form at every pair of ``keys`` against one defining table."""
        nonlocal mismatches, checked
        for g, defining in zip(keys, cocycles._defining_table(cocycle, keys, keys)):
            for h, value in zip(keys, defining):
                checked += 1
                if gromov_form(cocycle, g, h) != value:
                    mismatches += 1

    compare(build_cocycle("torus_word", GroupDescriptor.torus(2, 6)),
            list(itertools.product(range(-3, 4), repeat=2)))
    for modulus in (4, 6):
        compare(build_cocycle("cyclic_word", GroupDescriptor.finite_abelian([modulus, modulus])),
                _abelian_box((modulus, modulus)))
    compare(build_cocycle("free_word", GroupDescriptor.free_group(2)),
            list(words.enumerate_words(2, 4)))
    compare(build_cocycle("free_product_word", GroupDescriptor.free_product(2, 4)),
            list(words.enumerate_words(2, 3, modulus=4)))
    elapsed = time.perf_counter() - start
    return {"id": 1, "name": "Gromov closed form equals defining form (exact, < 10 s)",
            "passed": mismatches == 0 and elapsed < 10.0,
            "details": f"{checked} pairs, {mismatches} mismatches, {elapsed:.2f} s"}


# -- criterion 2: ONB certification -------------------------------------------


def _enumerated_slices() -> list[tuple[LengthCocycle, list[BasisVector], list]]:
    slices = []
    torus = build_cocycle("torus_word", GroupDescriptor.torus(2, 6))
    torus_basis = [BasisVector("zword", j=j, ell=ell)
                   for j in (1, 2) for ell in (-3, -2, -1, 1, 2, 3)]
    slices.append((torus, torus_basis, list(itertools.product(range(-3, 4), repeat=2))))
    for modulus in (4, 6):
        cocycle = build_cocycle("cyclic_word",
                                GroupDescriptor.finite_abelian([modulus, modulus]))
        basis = [BasisVector("z2m", j=j, ell=ell)
                 for j in (1, 2) for ell in range(1, modulus // 2 + 1)]
        slices.append((cocycle, basis, _abelian_box((modulus, modulus))))
    free = build_cocycle("free_word", GroupDescriptor.free_group(2))
    free_words = [w for w in words.enumerate_words(2, 4) if not w.is_identity]
    free_basis = [BasisVector("free", word=w) for w in words.enumerate_words(2, 2)
                  if not w.is_identity]
    slices.append((free, free_basis, free_words))
    prod = build_cocycle("free_product_word", GroupDescriptor.free_product(2, 4))
    prod_words = [w for w in words.enumerate_words(2, 3, modulus=4) if not w.is_identity]
    prod_basis = [BasisVector("free_prod", word=w) for w in prod_words
                  if 1 <= w.blocks[-1][1] <= 2 and words.word_length(w, 4) <= 2]
    slices.append((prod, prod_basis, prod_words))
    return slices


def criterion_onb_certification() -> dict:
    failures = []
    for cocycle, basis, domain in _enumerated_slices():
        gram = gram_matrix(cocycle, basis)
        for a in range(len(basis)):
            for b in range(len(basis)):
                if gram[a][b] != (1 if a == b else 0):
                    failures.append(f"gram {cocycle.family} {a},{b} = {gram[a][b]}")
        for g in domain:
            if completeness_defect(cocycle, g) != 0:
                failures.append(f"completeness {cocycle.family} at {g}")
    # sign relation <u_w, u_{w g^m}> = -1 (words whose extension stays reduced)
    sign_checked = 0
    for modulus in (2, 4, 6):
        m = modulus // 2
        cocycle = build_cocycle("free_product_word", GroupDescriptor.free_product(2, modulus))
        for w in words.enumerate_words(2, 2, modulus=modulus):
            if w.is_identity:
                continue
            gen, exp = w.blocks[-1]
            if not 1 <= exp <= m - 1:
                continue
            extended = words.concat(w, ReducedWord(((gen, m),)), modulus)
            u_w = [(w, 1), (words.predecessor(w, modulus), -1)]
            u_ext = [(extended, 1), (words.predecessor(extended, modulus), -1)]
            sign_checked += 1
            if gromov_bilinear(cocycle, u_w, u_ext) != -1:
                failures.append(f"sign relation at {w} (2m={modulus})")
    return {"id": 2, "name": "ONB Gram identity, completeness, sign relation (exact)",
            "passed": not failures,
            "details": failures[:5] or f"all slices certified, {sign_checked} sign pairs"}


# -- criterion 3: Schoenberg PSD ----------------------------------------------


def _builtin_cocycles() -> list[LengthCocycle]:
    return [
        build_cocycle("euclidean", GroupDescriptor.torus(2, 4)),
        build_cocycle("torus_word", GroupDescriptor.torus(2, 4)),
        build_cocycle("cyclic_word", GroupDescriptor.hypercube(3)),
        build_cocycle("cyclic_word", GroupDescriptor.finite_abelian([4, 4])),
        build_cocycle("cyclic_word", GroupDescriptor.finite_abelian([6, 6])),
        build_cocycle("odd_cyclic_word", GroupDescriptor.finite_abelian([5, 5])),
        build_cocycle("free_word", GroupDescriptor.free_group(2)),
        build_cocycle("free_product_word", GroupDescriptor.free_product(2, 4)),
        build_cocycle("weighted_cube", GroupDescriptor.hypercube(3), [1.0, 2.0, 0.5]),
    ]


def criterion_schoenberg_psd() -> dict:
    worst = math.inf
    failures = []
    for cocycle in _builtin_cocycles():
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sample = random_group_elements(cocycle.group, 12, rng)
            report = conditional_negativity_check(cocycle, sample, (0.1, 1.0, 10.0),
                                                  seed=seed)
            worst = min(worst, min(report["kernel_min_eigenvalues"].values()))
            if not report["passed"]:
                failures.append(f"{cocycle.family} seed {seed}")
    return {"id": 3, "name": "Schoenberg kernels PSD (min eigenvalue >= -1e-10)",
            "passed": not failures,
            "details": failures[:5] or f"worst eigenvalue {worst:.3e}"}


# -- criterion 4: operator identities -----------------------------------------


def _identity_supports(rng: np.random.Generator):
    """(cocycle, support) pairs, supports capped at 50 keys."""
    cases = []
    torus_group = GroupDescriptor.torus(2, 3)
    torus_keys = [k for k in itertools.product(range(-2, 3), repeat=2)][:50]
    cases.append((build_cocycle("torus_word", torus_group), torus_keys))
    cases.append((build_cocycle("euclidean", torus_group), torus_keys))
    z4 = GroupDescriptor.finite_abelian([4, 4])
    cases.append((build_cocycle("cyclic_word", z4), _abelian_box((4, 4))[:50]))
    cube = GroupDescriptor.hypercube(4)
    cases.append((build_cocycle("cyclic_word", cube), _abelian_box((2,) * 4)[:50]))
    cases.append((build_cocycle("weighted_cube", cube, [1.0, 2.0, 0.5, 1.5]),
                  _abelian_box((2,) * 4)[:50]))
    free = GroupDescriptor.free_group(2)
    cases.append((build_cocycle("free_word", free),
                  list(words.enumerate_words(2, 3))[:50]))
    prod = GroupDescriptor.free_product(2, 4)
    cases.append((build_cocycle("free_product_word", prod),
                  list(words.enumerate_words(2, 3, modulus=4))[:50]))
    return cases


def criterion_operator_identities() -> dict:
    rng = np.random.default_rng(11)
    failures = []
    for cocycle, support in _identity_supports(rng):
        group = cocycle.group
        n = group.n_components
        identity = group.identity()
        support = [g for g in support if g != identity]
        basis = cocycle.basis_for_support(support)
        exact_pairings = cocycle.family != "weighted_cube"
        # absorbency, Riesz normalization, and Laplacian factorization per frequency
        for g in support:
            psi = cocycle.psi(g)
            riesz_total = 0.0
            pairing_square = 0
            for u in basis:
                pairing = cocycle.pairing(g, u)
                pairing_square += pairing * pairing
                riesz_total += abs(2 * math.pi * pairing) ** 2 / float(psi)
                if pairing != 0:
                    single = GroupAlgebraElement.lam(group, g)
                    left = operators.directional_derivative(
                        operators.absorbent_derivative(single, u.component), u, cocycle)
                    right = operators.directional_derivative(single, u, cocycle)
                    if not left.allclose(right, 1e-12):
                        failures.append(f"absorbency {cocycle.family} {g} {u.to_id()}")
            if (pairing_square != psi if exact_pairings else abs(pairing_square - psi) > 1e-10):
                failures.append(f"laplacian factorization {cocycle.family} at {g}")
            if abs(riesz_total - 4 * math.pi ** 2) > 1e-10:
                failures.append(f"riesz normalization {cocycle.family} at {g}")
        # R o E_S = delta_{j in S} E_S o R on a random mean-zero element
        coeffs = dict(zip(support, rng.standard_normal(len(support))
                          + 1j * rng.standard_normal(len(support))))
        f = GroupAlgebraElement(group, coeffs)
        for subset_size in range(n + 1):
            for subset in itertools.combinations(range(1, n + 1), subset_size):
                truncated = operators.truncate(f, subset)
                for u in basis:
                    left = operators.riesz_transform(truncated, u, cocycle)
                    right = operators.truncate(operators.riesz_transform(f, u, cocycle), subset)
                    expected = right if u.component in subset else GroupAlgebraElement.zero(group)
                    if not left.allclose(expected, 1e-12):
                        failures.append(f"riesz/truncation {cocycle.family} S={subset} {u.to_id()}")
        if group.is_free_kind:
            signs = tuple(1 if i % 2 else -1 for i in range(n))
            flip = operators.free_hilbert_transform(f, signs)
            if not operators.free_hilbert_transform(flip, signs).allclose(f, 1e-12):
                failures.append(f"hilbert involution {cocycle.family}")
            total = sum((operators.absorbent_derivative(f, j) for j in range(2, n + 1)),
                        operators.absorbent_derivative(f, 1))
            if not total.allclose(f, 1e-12):
                failures.append(f"mean-zero decomposition {cocycle.family}")
            for subset in ((1,), (2,), (1, 2)):
                direct = operators.truncate(f, subset)
                through = operators.truncate(operators.project_AS(f, subset), subset)
                if not direct.allclose(through, 1e-12):
                    failures.append(f"A_S consistency {cocycle.family} S={subset}")
    return {"id": 4, "name": "Operator identities (absorbency, Riesz, commutation, free battery)",
            "passed": not failures, "details": failures[:5] or "all identities hold"}


# -- criterion 5: exact p = 2 closures ----------------------------------------


def subset_inclusion_probability(n: int, k: int, size: int) -> Fraction:
    """Pr(A subset of S) for |A| = size and uniform k-subsets S of [n]."""
    if size > k:
        return Fraction(0)
    return Fraction(math.comb(n - size, k - size), math.comb(n, k))


def criterion_p2_closures() -> dict:
    failures = []
    rng = np.random.default_rng(5)
    # (a) matrix model closure at p = 2
    for n in (4, 6, 8):
        for trial in range(100):
            mats = [(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                    / math.sqrt(2) for _ in range(n)]
            norm_sum = sum(schatten_norm(x, 2) ** 2 for x in mats)
            profile = xp_linear_profile(mats, 2, list(range(1, n + 1)))
            for k in range(1, n + 1):
                if abs(profile[k][0] - (k / n) * norm_sum) > 1e-9:
                    failures.append(f"xp closure n={n} k={k} trial={trial}")
            if failures:
                break
    # (b) hypercube p = 2: hypergeometric formula, ratio <= 1
    for n in (4, 7, 10):
        group = GroupDescriptor.hypercube(n)
        cocycle = build_cocycle("cyclic_word", group)
        for trial in range(10):
            f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
            profile = naor_profile(f, cocycle, [2], list(range(1, n + 1)), "walsh")
            for k in range(1, n + 1):
                lhs, rhs = profile[2][k]
                expected = sum(abs(v) ** 2 * subset_inclusion_probability(n, k, sum(key))
                               for key, v in f.coeffs.items())
                if abs(lhs - float(expected)) > 1e-10:
                    failures.append(f"hypergeometric n={n} k={k}")
                if lhs > rhs + 1e-12:
                    failures.append(f"p2 ratio above 1 at n={n} k={k}")
    # (c) Riesz equivalence equals 1 at p = 2
    group = GroupDescriptor.finite_abelian([4, 4])
    cocycle = build_cocycle("cyclic_word", group)
    for trial in range(25):
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
        ratio = riesz_equivalence_ratio(f, 2, cocycle).ratio
        if abs(ratio - 1) > 1e-9:
            failures.append(f"riesz p2 trial={trial} ratio={ratio}")
    return {"id": 5, "name": "Exact p=2 closures (matrix model, hypergeometric, Riesz)",
            "passed": not failures, "details": failures[:5] or "all closures hold"}


# -- criterion 6: moment formulas ---------------------------------------------


def criterion_moment_formulas() -> dict:
    failures = []
    for n in range(1, 11):
        for k in range(1, n + 1):
            for p in (2, 4, 6):
                report = moment_checks(n, k, p)
                if not report["passed"]:
                    failures.append(f"n={n} k={k} p={p}")
    return {"id": 6, "name": "Sign-subset moments k/n and k^(p/2) (exact)",
            "passed": not failures, "details": failures[:5] or "all exact"}


# -- criterion 7: boundedness scans --------------------------------------------


def _scan_series(family: str, ns, trials: int, extra_params: dict,
                 derivatives) -> tuple[list[dict], dict[int, float], list[str]]:
    rows = []
    p4_max: dict[int, float] = {}
    failures = []
    for n in ns:
        for derivative in derivatives:
            params = dict(extra_params)
            params.update({"n": n, "ps": [2, 4], "ks": list(range(1, n + 1)),
                           "derivative": derivative, "family": family})
            start = time.perf_counter()
            report = scan("naor", EnsembleSpec("sparse", sparsity=6),
                          trials=trials, seed=1000 + n, **params)
            rerun = reevaluate_witness(report)
            runtime_ms = 1e3 * (time.perf_counter() - start)
            if abs(rerun["ratio"] - report.ratio) > 1e-9:
                failures.append(f"witness drift {family} n={n} {derivative}")
            p4 = report.extra["max_ratio_by_p"].get("4.0", 0.0)
            p4_max[n] = max(p4_max.get(n, 0.0), p4)
            rows.append({"family": family, "n": n, "derivative": derivative, "trials": trials,
                         "max_ratio": report.ratio, "p4_max": p4,
                         "runtime_ms": runtime_ms})
    return rows, p4_max, failures


def criterion_boundedness_scans(trials: int = 500) -> dict:
    failures = []
    all_rows = []
    series = [
        ("hypercube", (4, 7, 10), {}, ("walsh", "absorbent")),
        ("cyclic", (2, 4), {"modulus": 4}, ("absorbent",)),
        ("cyclic", (2, 4), {"modulus": 6}, ("absorbent",)),
        ("torus", (1, 2), {"bound": 3}, ("euclidean",)),
    ]
    for family, ns, extra, derivatives in series:
        rows, p4_max, drift = _scan_series(family, ns, trials, extra, derivatives)
        all_rows.extend(rows)
        failures.extend(drift)
        anchor = p4_max[ns[0]]
        for n, value in p4_max.items():
            if not math.isfinite(value):
                failures.append(f"non-finite ratio {family} n={n}")
            if value > 10 * anchor:
                failures.append(f"dimension sanity {family}: p4 max {value:.3g} at n={n} "
                                f"exceeds 10x anchor {anchor:.3g}")
    top = max(row["max_ratio"] for row in all_rows)
    return {"id": 7, "name": "Boundedness scans with reproducible witnesses",
            "passed": not failures,
            "details": failures[:5] or f"{len(all_rows)} scan series rows, top ratio {top:.4g}",
            "series": all_rows}


# -- criterion 8: even-p torus norms -------------------------------------------


def criterion_even_p_grid_agreement() -> dict:
    rng = np.random.default_rng(17)
    worst = 0.0
    failures = []
    for _ in range(200):
        rank = int(rng.integers(1, 3))
        bound = int(rng.integers(1, 4))
        group = GroupDescriptor.torus(rank, bound)
        keys = list(itertools.product(range(-bound, bound + 1), repeat=rank))
        coeffs = dict(zip(keys, rng.standard_normal(len(keys))
                          + 1j * rng.standard_normal(len(keys))))
        f = GroupAlgebraElement(group, coeffs)
        for p in (2, 4, 6):
            exact = lp_norm_torus_even(f, p)
            grid = lp_norm_torus_grid(f, p, oversample=4)
            gap = abs(exact - grid)
            worst = max(worst, gap)
            if gap > 1e-8:
                failures.append(f"p={p} gap={gap:.2e}")
    return {"id": 8, "name": "Even-p torus norms: exact vs grid within 1e-8",
            "passed": not failures,
            "details": failures[:5] or f"200 polynomials, worst gap {worst:.2e}"}


# -- criterion 9: linear-model consistency --------------------------------------


def criterion_linear_model_consistency() -> dict:
    """The pair routes of naor's walsh lhs on the hypercube's linear span and of the
    scalar model against the exhaustive sign enumeration of the 1 x 1 matrices a_j."""
    rng = np.random.default_rng(23)
    failures = []
    n = 6
    group = GroupDescriptor.hypercube(n)
    cocycle = build_cocycle("cyclic_word", group)
    for trial in range(20):
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = GroupAlgebraElement(group, {
            tuple(1 if i == j else 0 for i in range(n)): coeffs[j] for j in range(n)})
        for p in (2, 4):
            profile = naor_profile(f, cocycle, [p], list(range(1, n + 1)), "walsh")
            for k in range(1, n + 1):
                signs = harness._sign_mean(coeffs[:, None, None], p, k, None)
                gap = max(abs(profile[p][k][0] - signs),
                          abs(rosenthal_linear_ratio(coeffs, p, k).lhs ** p - signs))
                if gap > 1e-10:
                    failures.append(f"trial={trial} p={p} k={k} gap={gap:.2e}")
    return {"id": 9, "name": "Linear span and scalar model pairs match the sign enumeration "
                             "(1e-10)",
            "passed": not failures, "details": failures[:5] or "20 trials, p in {2,4}, all k"}


# -- driver ---------------------------------------------------------------------


CRITERIA = [
    criterion_gromov_exactness,
    criterion_onb_certification,
    criterion_schoenberg_psd,
    criterion_operator_identities,
    criterion_p2_closures,
    criterion_moment_formulas,
    criterion_boundedness_scans,
    criterion_even_p_grid_agreement,
    criterion_linear_model_consistency,
]


def run_all(fast: bool = False, log=print) -> list[dict]:
    """Run the full battery; criterion 10 is the wall-clock budget itself."""
    results = []
    start = time.perf_counter()
    for criterion in CRITERIA:
        if fast and criterion is criterion_boundedness_scans:
            result = _timed(lambda: criterion_boundedness_scans(trials=20))
        else:
            result = _timed(criterion)
        results.append(result)
        if log:
            log(format_line(result))
    elapsed = time.perf_counter() - start
    budget = {"id": 10, "name": f"Full suite under {SUITE_BUDGET_SECONDS:.0f} s",
              "passed": elapsed < SUITE_BUDGET_SECONDS,
              "details": f"elapsed {elapsed:.1f} s",
              "runtime_ms": 1e3 * elapsed}
    results.append(budget)
    if log:
        log(format_line(budget))
    return results


def format_line(result: dict) -> str:
    status = "PASS" if result["passed"] else "FAIL"
    detail = result["details"]
    if isinstance(detail, list):
        detail = "; ".join(str(item) for item in detail)
    return f"[{status}] criterion {result['id']:>2}: {result['name']} ({detail})"
