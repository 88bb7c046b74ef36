"""Experiment harness: inequality sides, exact closures, scans, witnesses."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpchaos import (EnsembleSpec, GroupAlgebraElement, GroupDescriptor, adjoint,
                     build_cocycle, harness, lp_norm, moment_checks, naor_profile,
                     naor_ratio, operators, reevaluate_witness, riesz_equivalence_ratio,
                     rosenthal_linear_ratio, sample_element, scan,
                     schatten_norm, xp_linear_profile, xp_linear_ratio)
from xpchaos import groups, norms
from xpchaos.cocycles import BasisVector
from xpchaos.harness import LATTICE_MAX_BYTES, SigmaModel
from xpchaos.norms import square_function_norm
from xpchaos.words import ReducedWord


def hypercube_pair(n):
    group = GroupDescriptor.hypercube(n)
    return group, build_cocycle("cyclic_word", group)


def inclusion_probability(n, k, size):
    """Pr(A subset S) for |A| = size: the hypergeometric product."""
    if size > k:
        return Fraction(0)
    prob = Fraction(1)
    for i in range(size):
        prob *= Fraction(k - i, n - i)
    return prob


class TestNaorRatio:
    def test_single_walsh_character_at_full_k(self):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 0, 0))
        report = naor_ratio(f, cocycle, 2, 3, "walsh")
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(5.0)
        assert report.ratio == pytest.approx(0.2)

    def test_full_k_lhs_is_full_norm(self):
        rng = np.random.default_rng(0)
        group, cocycle = hypercube_pair(4)
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
        from xpchaos.norms import lp_norm_abelian
        for p in (2, 4):
            report = naor_ratio(f, cocycle, p, 4, "walsh")
            assert report.lhs == pytest.approx(lp_norm_abelian(f, p) ** p, rel=1e-12)

    def test_p2_hypergeometric_closure_and_bound(self):
        rng = np.random.default_rng(1)
        n = 6
        group, cocycle = hypercube_pair(n)
        for _ in range(5):
            f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
            profile = naor_profile(f, cocycle, [2], list(range(1, n + 1)), "walsh")
            for k in range(1, n + 1):
                lhs, rhs = profile[2][k]
                expected = sum(abs(v) ** 2 * float(inclusion_probability(n, k, sum(g)))
                               for g, v in f.coeffs.items())
                assert lhs == pytest.approx(expected, abs=1e-10)
                assert lhs <= rhs + 1e-12

    def test_lhs_monotone_in_k_at_p2(self):
        rng = np.random.default_rng(2)
        cases = [hypercube_pair(5),
                 (GroupDescriptor.finite_abelian([4] * 3),
                  build_cocycle("cyclic_word", GroupDescriptor.finite_abelian([4] * 3)))]
        for group, cocycle in cases:
            f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
            n = group.n_components
            profile = naor_profile(f, cocycle, [2], list(range(1, n + 1)), "absorbent")
            values = [profile[2][k][0] for k in range(1, n + 1)]
            for lower, higher in zip(values, values[1:]):
                assert lower <= higher + 1e-12

    def test_mean_zero_required(self):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (0, 0, 0))
        with pytest.raises(ValueError):
            naor_ratio(f, cocycle, 2, 1, "walsh")

    def test_zero_element_rejected(self):
        group, cocycle = hypercube_pair(3)
        with pytest.raises(ValueError, match="nonzero"):
            naor_ratio(GroupAlgebraElement.zero(group), cocycle, 2, 1, "walsh")

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_rejected(self, p):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 0, 0))
        with pytest.raises(ValueError, match="finite"):
            naor_ratio(f, cocycle, p, 1, "walsh")

    def test_k_out_of_range(self):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 0, 0))
        with pytest.raises(ValueError):
            naor_ratio(f, cocycle, 2, 4, "walsh")

    def test_derivative_choices_on_torus(self):
        group = GroupDescriptor.torus(2, 2)
        rng = np.random.default_rng(3)
        for family, derivative in [("euclidean", "euclidean"),
                                   ("torus_word", "absorbent"),
                                   ("torus_word", "gradient")]:
            cocycle = build_cocycle(family, group)
            f = sample_element(group, cocycle, EnsembleSpec("sparse", sparsity=4), rng)
            report = naor_ratio(f, cocycle, 4, 2, derivative)
            assert np.isfinite(report.ratio) and report.ratio > 0

    def test_gradient_profile_on_cyclic(self):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        rng = np.random.default_rng(4)
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
        report = naor_ratio(f, cocycle, 4, 2, "gradient")
        assert np.isfinite(report.ratio) and report.ratio > 0

    def test_euclidean_term_independent_of_cocycle_argument(self):
        """The euclidean choice must use coordinate derivatives even when the
        truncation cocycle is the word-length one."""
        group = GroupDescriptor.torus(2, 2)
        rng = np.random.default_rng(5)
        word_cocycle = build_cocycle("torus_word", group)
        euclid_cocycle = build_cocycle("euclidean", group)
        f = sample_element(group, word_cocycle, EnsembleSpec("sparse", sparsity=5), rng)
        via_word = naor_ratio(f, word_cocycle, 4, 1, "euclidean")
        via_euclid = naor_ratio(f, euclid_cocycle, 4, 1, "euclidean")
        assert via_word.rhs == pytest.approx(via_euclid.rhs, rel=1e-12)

    def test_euclidean_rejected_off_torus(self):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 0, 0))
        with pytest.raises(ValueError):
            naor_ratio(f, cocycle, 2, 1, "euclidean")


def _no_fft(*args, **kwargs):
    raise AssertionError("an FFT ran before the input was checked")


class TestNaorInputChecks:
    """Every input check runs before the dual evaluation does."""

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_bad_p_rejected_before_any_fft(self, p, monkeypatch):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 0, 0))
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        with pytest.raises(ValueError, match="p must be"):
            naor_profile(f, cocycle, [4, p], [1], "walsh")

    def test_walsh_rejected_off_the_hypercube(self, monkeypatch):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement.lam(group, (1, 0))
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        for p in (2, 4):
            with pytest.raises(ValueError, match="hypercube"):
                naor_profile(f, cocycle, [p], [1], "walsh")

    def test_unknown_derivative_rejected(self):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 0, 0))
        with pytest.raises(ValueError, match="unknown derivative"):
            naor_profile(f, cocycle, [4], [1], "flip")

    @pytest.mark.parametrize("group, family", [
        (GroupDescriptor.hypercube(3), "cyclic_word"),
        (GroupDescriptor.finite_abelian([6, 6]), "cyclic_word"),
        (GroupDescriptor.torus(2, 2), "torus_word")])
    def test_coefficient_at_the_identity_rejected(self, group, family):
        cocycle = build_cocycle(family, group)
        unit = (1,) + (0,) * (group.n_components - 1)
        f = GroupAlgebraElement(group, {group.identity(): 0.5, unit: 1.0})
        with pytest.raises(ValueError, match="mean-zero"):
            naor_profile(f, cocycle, [4], [1], "absorbent")


class TestLatticeGuard:
    def test_large_lattice_refused_before_allocation(self, monkeypatch):
        group, cocycle = hypercube_pair(22)
        f = GroupAlgebraElement(group, {tuple(int(i == j) for i in range(22)): 1.0 + j
                                        for j in range(6)})
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
                naor_profile(f, cocycle, [2, 4], [2], "walsh")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_p2_is_exempt_and_the_budget_is_the_extended_tensor(self, monkeypatch):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 1, 0))
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 3 ** 3 - 1)
        assert naor_profile(f, cocycle, [2], [1, 2], "walsh")[2][2][0] == pytest.approx(1 / 3)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            naor_profile(f, cocycle, [4], [1], "walsh")
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            scan("naor", trials=1, family="hypercube", n=3, ps=[4], ks=[1])
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 3 ** 3)
        naor_profile(f, cocycle, [4], [1], "walsh")

    def test_every_lattice_up_to_n14_fits(self):
        assert 16 * 3 ** 14 <= LATTICE_MAX_BYTES < 16 * 3 ** 22

    def test_torus_grid_refused_before_allocation(self, monkeypatch):
        """Rank 8, bound 3 at p = 4 puts 13 points on each axis: 14^8 extended entries."""
        group = GroupDescriptor.torus(8, 3)
        cocycle = build_cocycle("torus_word", group)
        f = GroupAlgebraElement.lam(group, (1,) + (0,) * 7)
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        for derivative in ("euclidean", "absorbent", "gradient"):
            with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
                naor_profile(f, cocycle, [4], [1], derivative)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            scan("naor", trials=1, family="torus", n=8, bound=3, ps=[4], ks=[1])

    def test_derivative_stack_counts(self, monkeypatch):
        """Z_4^2 gradient: 2 slices of 2 vectors for f and f*, 8 rows of 16 points."""
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement.lam(group, (1, 2))
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 8 * 16 - 1)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            naor_profile(f, cocycle, [2], [1], "gradient")
        naor_profile(f, cocycle, [2], [1], "absorbent")
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 8 * 16)
        naor_profile(f, cocycle, [2], [1], "gradient")

    def test_free_kinds_refused_before_any_work(self, monkeypatch):
        group = GroupDescriptor.free_group(2)
        cocycle = build_cocycle("free_word", group)
        f = GroupAlgebraElement.lam(group, ReducedWord(((1, 1),)))
        monkeypatch.setattr(cocycle, "psi", lambda g: pytest.fail("psi ran on a free kind"))
        with pytest.raises(ValueError, match="abelian"):
            naor_profile(f, cocycle, [4], [1], "absorbent")


def _reference_profile(f, cocycle, p, k, derivative):
    """The operator path the one-evaluation route replaced: truncations, derivatives, norms."""
    n = f.group.n_components
    subsets = list(itertools.combinations(range(1, n + 1), k))
    lhs = sum(lp_norm(operators.truncate(f, s), p) ** p for s in subsets) / len(subsets)
    if derivative == "walsh":
        deriv = sum(lp_norm(operators.walsh_derivative(f, j), p) ** p for j in range(1, n + 1))
    elif derivative == "euclidean":
        euclid = build_cocycle("euclidean", f.group)
        deriv = sum(lp_norm(operators.directional_derivative(
            f, BasisVector("euclidean", j=j), euclid), p) ** p for j in range(1, n + 1))
    elif derivative == "gradient":
        deriv = 0.0
        for j in range(1, n + 1):
            for side in (f, adjoint(f)):
                grad = operators.gradient(side, j, cocycle)
                if grad.components:
                    deriv += square_function_norm(grad.elements, p) ** p
    else:
        deriv = sum(lp_norm(operators.absorbent_derivative(side, j), p) ** p
                    for j in range(1, n + 1) for side in (f, adjoint(f)))
    return lhs, (k / n) * deriv + (k / n) ** (p / 2) * lp_norm(f, p) ** p


_ABELIAN_CASES = {
    "cube1": (GroupDescriptor.hypercube(1), "cyclic_word", None),
    "cube3": (GroupDescriptor.hypercube(3), "cyclic_word", None),
    "cube6": (GroupDescriptor.hypercube(6), "cyclic_word", None),
    "z4^3": (GroupDescriptor.finite_abelian([4] * 3), "cyclic_word", None),
    "z6^2": (GroupDescriptor.finite_abelian([6] * 2), "cyclic_word", None),
    "wcube4": (GroupDescriptor.hypercube(4), "weighted_cube", [0.5, 1.0, 2.0, 3.5]),
}

#: (group, cocycle family, derivative) of every torus case; rank 3 draws sparse inputs
_TORUS_CASES = [(GroupDescriptor.torus(rank, bound), family, derivative)
                for rank in (1, 2, 3) for bound in (1, 2, 3)
                for family in ("torus_word", "euclidean")
                for derivative in ("euclidean", "absorbent", "gradient")]


def _assert_profile_matches(f, cocycle, derivative, lhs_abs=0.0):
    """Every (p, k) of p = 2, 3, 4, 6 to 1e-12 relative; ``lhs_abs`` allows an
    lhs off by that fraction of the rhs."""
    ks = list(range(1, f.group.n_components + 1))
    profile = naor_profile(f, cocycle, [2, 3, 4, 6], ks, derivative)
    for p in (2, 3, 4, 6):
        for k in ks:
            lhs, rhs = _reference_profile(f, cocycle, p, k, derivative)
            assert profile[p][k][1] == pytest.approx(rhs, rel=1e-12)
            assert profile[p][k][0] == pytest.approx(lhs, rel=1e-12, abs=lhs_abs * rhs)


class TestAbelianProfileMatchesOperatorPath:
    @pytest.mark.parametrize("case, derivative", [
        (case, derivative) for case in _ABELIAN_CASES
        for derivative in ("walsh", "absorbent", "gradient")
        if derivative != "walsh" or not case.startswith("z")])
    def test_every_p_and_k(self, case, derivative):
        group, family, weights = _ABELIAN_CASES[case]
        cocycle = build_cocycle(family, group, weights)
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), np.random.default_rng(21))
        _assert_profile_matches(f, cocycle, derivative)

    @pytest.mark.parametrize("group, family, derivative", _TORUS_CASES,
                             ids=lambda x: f"r{x.rank}b{x.bound}" if hasattr(x, "rank") else x)
    def test_torus_every_p_and_k(self, group, family, derivative):
        cocycle = build_cocycle(family, group)
        spec = EnsembleSpec("sparse", sparsity=6) if group.rank == 3 else EnsembleSpec()
        f = sample_element(group, cocycle, spec, np.random.default_rng(24))
        # a sparse input's E_S f can vanish: 0 on the operator path, rounding noise on the grid
        _assert_profile_matches(f, cocycle, derivative, lhs_abs=1e-12)

    def test_torus_grid_rule(self):
        """p*B + 1 points per axis for even p; a non-even p adds the 4x grid."""
        torus = GroupDescriptor.torus(2, 3)
        assert harness._grid_shape(torus, [2]) == (7, 7)
        assert harness._grid_shape(torus, [4, 6]) == (19, 19)
        assert harness._grid_shape(torus, [3, 4]) == (28, 28)
        assert harness._grid_shape(torus, [3, 10]) == (31, 31)
        assert harness._grid_shape(GroupDescriptor.finite_abelian([4, 6]), [3]) == (4, 6)

    def test_one_dual_evaluation_per_profile(self, monkeypatch):
        calls = []
        real_ifftn = np.fft.ifftn
        monkeypatch.setattr(np.fft, "ifftn",
                            lambda *args, **kwargs: calls.append(1) or real_ifftn(*args, **kwargs))
        torus = GroupDescriptor.torus(2, 2)
        cases = [(GroupDescriptor.hypercube(5), "cyclic_word", ("walsh", "absorbent", "gradient")),
                 (GroupDescriptor.finite_abelian([4] * 3), "cyclic_word",
                  ("absorbent", "gradient")),
                 (torus, "torus_word", ("euclidean", "absorbent", "gradient")),
                 (torus, "euclidean", ("euclidean", "absorbent", "gradient"))]
        routes = []
        for group, family, derivatives in cases:
            cocycle = build_cocycle(family, group)
            f = sample_element(group, cocycle, EnsembleSpec("gaussian"), np.random.default_rng(22))
            for ps in ([2, 3, 4, 6], [2]):
                for derivative in derivatives:
                    calls.clear()
                    naor_profile(f, cocycle, ps, [1, 2], derivative)
                    route = harness._naor_route(f, ps, derivative)
                    routes.append((group.kind, derivative, len(ps), route))
                    assert len(calls) == {"grid": 1, "pairs": 0}[route], (group, derivative, ps)
        # only the gaussian hypercube n = 5 at p = 2 (31 keys, each pairing with itself)
        # takes key pairs, for walsh and absorbent
        assert [r[:3] for r in routes if r[3] == "pairs"] == [
            ("finite_abelian", "walsh", 1), ("finite_abelian", "absorbent", 1)]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["hypercube", "z4", "z6", "torus"]), n=st.integers(1, 8),
       derivative=st.sampled_from(["walsh", "absorbent"]), sparsity=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_key_pairs_match_the_grid(case, n, derivative, sparsity, seed):
    """The pair route equals the grid route to 1e-12 of the rhs at p = 2, 4, 6, and
    p = 2 is the hypergeometric closure sum |c_g|^2 C(n - |g|, k - |g|) / C(n, k)."""
    rng = np.random.default_rng(seed)
    if case == "hypercube":
        group = GroupDescriptor.hypercube(n)
    elif case == "torus":
        group = GroupDescriptor.torus(1 + n % 3, 1 + n % 2)
    else:                               # Z_4^1..Z_4^5, Z_6^1..Z_6^4
        modulus, most = {"z4": (4, 5), "z6": (6, 4)}[case]
        group = GroupDescriptor.finite_abelian([modulus] * (1 + n % most))
    if derivative == "walsh" and case != "hypercube":
        derivative = "absorbent"
    cocycle = build_cocycle("torus_word" if case == "torus" else "cyclic_word", group)
    f = sample_element(group, cocycle, EnsembleSpec("sparse", sparsity=sparsity), rng)
    m = group.n_components
    ks, ps = tuple(range(1, m + 1)), [2, 4, 6]
    grid = {p: terms for p, *terms in harness._grid_terms(f, cocycle, ps, ks, derivative)}
    pairs = {p: terms for p, *terms in harness._pair_terms(f, ps, ks, derivative)}
    for p in ps:
        (grid_lhs, grid_deriv, grid_norm), (lhs, deriv, norm) = grid[p], pairs[p]
        for k in ks:
            rhs = (k / m) * grid_deriv + (k / m) ** (p / 2) * grid_norm
            assert abs(lhs[k] - grid_lhs[k]) <= 1e-12 * rhs
            assert abs((k / m) * (deriv - grid_deriv)
                       + (k / m) ** (p / 2) * (norm - grid_norm)) <= 1e-12 * rhs
    for k in ks:
        closure = sum(abs(c) ** 2 * float(inclusion_probability(m, k, sum(map(bool, g))))
                      for g, c in f.coeffs.items())
        assert pairs[2][0][k] == pytest.approx(closure, rel=1e-12)


class TestXpLinear:
    def test_p2_closure(self):
        rng = np.random.default_rng(5)
        n = 6
        xs = [(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
              for _ in range(n)]
        norm_sum = sum(schatten_norm(x, 2) ** 2 for x in xs)
        for k in (1, 3, 6):
            report = xp_linear_ratio(xs, 2, k)
            assert report.lhs == pytest.approx((k / n) * norm_sum, abs=1e-9)
            assert report.ratio <= 1 + 1e-12

    def test_full_k_ratio_below_one(self):
        rng = np.random.default_rng(6)
        xs = [rng.standard_normal((3, 3)) for _ in range(5)]
        report = xp_linear_ratio(xs, 4, 5)
        assert report.ratio <= 1 + 1e-12

    def test_scalar_reduction_matches_rosenthal(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        xs = [np.array([[z]]) for z in coeffs]
        for p, k in [(2, 2), (4, 3)]:
            matrix_report = xp_linear_ratio(xs, p, k)
            scalar = rosenthal_linear_ratio(coeffs, p, k)
            assert matrix_report.lhs == pytest.approx(scalar["lhs"] ** p, rel=1e-10)

    def test_p_below_two_warns(self):
        xs = [np.eye(2), np.eye(2)]
        with pytest.warns(UserWarning):
            xp_linear_ratio(xs, 1.5, 1)

    def test_unseeded_monte_carlo_report_reevaluates(self):
        rng = np.random.default_rng(23)
        xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(15)]
        report = xp_linear_ratio(xs, 4, 2)
        assert report.monte_carlo and isinstance(report.seed, int)
        rerun = reevaluate_witness(report.to_json())
        for key in ("lhs", "rhs", "ratio"):
            assert rerun[key] == pytest.approx(getattr(report, key), rel=1e-9)

    def test_monte_carlo_above_sign_cap(self):
        rng = np.random.default_rng(11)
        xs = [rng.standard_normal((2, 2)) for _ in range(15)]
        report = xp_linear_ratio(xs, 2, 2, seed=0)
        assert report.monte_carlo  # the full 15-sign average is sampled
        assert np.isfinite(report.ratio)
        exhaustive = xp_linear_ratio(xs[:6], 2, 2, seed=0)
        assert not exhaustive.monte_carlo

    def test_trace_convention_recorded(self):
        report = xp_linear_ratio([np.eye(2), np.eye(2)], 4, 1)
        assert report.params["trace_convention"] == "unnormalized"

    def test_non_finite_p_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            xp_linear_ratio([np.eye(2), np.eye(2)], math.nan, 1)


def _loop_schatten_power(x, p):
    return float(np.sum(np.linalg.svd(x, compute_uv=False) ** p))


def _loop_sign_average(mats, p):
    """E_eps ||sum_j eps_j x_j||_p^p: every sign vector, one SVD each."""
    powers = [_loop_schatten_power(sum(e * x for e, x in zip(eps, mats)), p)
              for eps in itertools.product((1.0, -1.0), repeat=len(mats))]
    return sum(powers) / len(powers)


def _loop_xp_sides(mats, p, k):
    """The per-subset loop the batched exhaustive xp_linear replaces."""
    n = len(mats)
    subsets = list(itertools.combinations(range(n), k))
    lhs = sum(_loop_sign_average([mats[j] for j in s], p) for s in subsets) / len(subsets)
    rhs = (k / n) * sum(_loop_schatten_power(x, p) for x in mats) \
        + (k / n) ** (p / 2) * _loop_sign_average(mats, p)
    return lhs, rhs


def _loop_rosenthal_sides(coeffs, p, k):
    n = len(coeffs)
    total, count = 0.0, 0
    for s in itertools.combinations(range(n), k):
        sums = [sum(e * coeffs[j] for e, j in zip(eps, s))
                for eps in itertools.product((1.0, -1.0), repeat=k)]
        total += sum(abs(z) ** p for z in sums) / len(sums)
        count += 1
    kn = k / n
    rhs = (kn * sum(abs(a) ** p for a in coeffs)) ** (1 / p) \
        + math.sqrt(kn * sum(abs(a) ** 2 for a in coeffs))
    return (total / count) ** (1 / p), rhs


class TestBatchedSignAveragesMatchLoops:
    """The batched sign averages against the plain per-subset, per-pattern loops."""

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_xp_linear_exhaustive(self, n, p):
        rng = np.random.default_rng(100 + n)
        mats = [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
                for _ in range(n)]
        profile = xp_linear_profile(mats, p, list(range(1, n + 1)), seed=0)
        for k in range(1, n + 1):
            lhs, rhs = _loop_xp_sides(mats, p, k)
            assert profile[k][0] == pytest.approx(lhs, rel=1e-12, abs=0)
            assert profile[k][1] == pytest.approx(rhs, rel=1e-12, abs=0)
            assert not profile[k][2]
            report = xp_linear_ratio(mats, p, k)
            assert (report.lhs, report.rhs) == profile[k][:2]

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_rosenthal(self, n, p):
        rng = np.random.default_rng(200 + n)
        coeffs = list(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for k in range(1, n + 1):
            lhs, rhs = _loop_rosenthal_sides(coeffs, p, k)
            result = rosenthal_linear_ratio(coeffs, p, k)
            assert result["lhs"] == pytest.approx(lhs, rel=1e-12, abs=0)
            assert result["rhs"] == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_blocks_cover_every_subset_in_order(self, monkeypatch):
        monkeypatch.setattr(harness, "SIGN_BLOCK_ROWS", 4)
        blocks = list(harness._subset_blocks(6, 3, 2))
        assert [len(b) for b in blocks] == [2] * 10
        assert [tuple(s) for b in blocks for s in b] == list(
            itertools.combinations(range(6), 3))


class TestXpLinearProfile:
    def test_monte_carlo_rows_depend_only_on_their_own_k(self):
        rng = np.random.default_rng(21)
        mats = [rng.standard_normal((2, 2)) for _ in range(16)]
        profile = xp_linear_profile(mats, 4, [2, 15, 16], seed=3)
        for k in (2, 15, 16):
            alone = xp_linear_profile(mats, 4, [k], seed=3)[k]
            assert alone == profile[k]
            report = xp_linear_ratio(mats, 4, k, seed=3)
            assert (report.lhs, report.rhs, report.monte_carlo) == profile[k]
        # one full n-sign average feeds every rhs
        norm_sum = sum(schatten_norm(x, 4) ** 4 for x in mats)
        implied = [(profile[k][1] - (k / 16) * norm_sum) / (k / 16) ** 2 for k in (2, 15, 16)]
        assert implied == pytest.approx([implied[0]] * 3, rel=1e-12)
        assert all(row[2] for row in profile.values())

    def test_scan_calls_the_profile_once_per_trial(self, monkeypatch):
        calls = []
        original = harness.xp_linear_profile

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "xp_linear_profile", counting)
        scan("xp_linear", trials=2, seed=4, n=4, d=2, p=4, ks=[1, 2, 4])
        assert len(calls) == 2 and all(list(c[2]) == [1, 2, 4] for c in calls)

    def test_monte_carlo_scan_draws_new_signs_per_trial(self, monkeypatch):
        seeds = []
        original = harness.xp_linear_profile

        def recording(mats, p, ks, seed):
            seeds.append(seed)
            return original(mats, p, ks, seed)

        monkeypatch.setattr(harness, "xp_linear_profile", recording)
        n, d, seed = 16, 2, 9
        report = scan("xp_linear", trials=3, seed=seed, n=n, d=d, p=4, ks=[16])
        assert report.monte_carlo
        assert len(set(seeds)) == 3  # every trial has its own sign sample
        assert report.witness["sign_seed"] in seeds
        assert reevaluate_witness(report)["ratio"] == pytest.approx(report.ratio, abs=1e-9)
        # the sign seeds do not consume the scan's draws: the inputs are unchanged
        rng = np.random.default_rng(seed)
        drawn = [[harness._complex_normal(rng, (d, d)) for _ in range(n)] for _ in range(3)]
        winner = seeds.index(report.witness["sign_seed"])
        witness_mats = [harness._matrix_from_json(x) for x in report.witness["matrices"]]
        assert all(np.array_equal(a, b) for a, b in zip(witness_mats, drawn[winner]))


class TestRosenthal:
    def test_single_basis_coefficient(self):
        for n, k, p in [(4, 2, 4), (5, 3, 2), (6, 6, 6)]:
            result = rosenthal_linear_ratio([1] + [0] * (n - 1), p, k)
            assert result["lhs"] ** p == pytest.approx(k / n, rel=1e-12)

    def test_all_ones_p2(self):
        result = rosenthal_linear_ratio([1] * 6, 2, 4)
        assert result["lhs"] == pytest.approx(math.sqrt(4))

    def test_full_k_p2_is_l2_norm(self):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        result = rosenthal_linear_ratio(coeffs, 2, 5)
        assert result["lhs"] == pytest.approx(float(np.linalg.norm(coeffs)))

    def test_two_sided_fields(self):
        result = rosenthal_linear_ratio([1.0, 2.0, 3.0], 4, 2)
        assert result["lhs_over_rhs"] == pytest.approx(result["lhs"] / result["rhs"])
        assert result["rhs_over_lhs"] == pytest.approx(result["rhs"] / result["lhs"])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rosenthal_linear_ratio([0, 0, 0], 4, 2)

    def test_zero_witness_fails_to_reevaluate(self):
        report = scan("rosenthal", trials=1, seed=0, n=3, p=4, ks=[2]).to_json()
        report["witness"]["coeffs"] = [{"re": 0.0, "im": 0.0}] * 3
        with pytest.raises(ValueError, match="nonzero"):
            reevaluate_witness(report)


class TestMoments:
    def test_reference_values(self):
        report = moment_checks(4, 2, 4)
        assert report["sigma_moment"] == Fraction(1, 2)
        assert report["square_moment"] == 4
        assert report["passed"]

    def test_full_k(self):
        report = moment_checks(5, 5, 4)
        assert report["sigma_moment"] == 1
        assert report["square_moment"] == 25

    def test_k_one(self):
        report = moment_checks(6, 1, 6)
        assert report["sigma_moment"] == Fraction(1, 6)
        assert report["square_moment"] == 1

    def test_sigma_model_validation(self):
        with pytest.raises(ValueError):
            SigmaModel(3, 4)
        assert SigmaModel(4, 2).num_subsets == 6

    def test_moments_against_atom_enumeration(self):
        """Cross-check the subset-only computation on the full (eps, S) space."""
        model = SigmaModel(4, 2)
        atoms = list(model.atoms())
        assert len(atoms) == 2 ** 4 * 6
        for p in (2, 4):
            brute = Fraction(sum(abs(model.sigma(1, eps, subset)) ** p
                                 for eps, subset in atoms), len(atoms))
            assert brute == model.sigma_moment(1, p)
            brute_square = Fraction(
                sum(sum(model.sigma(j, eps, subset) ** 2 for j in range(1, 5)) ** (p // 2)
                    for eps, subset in atoms), len(atoms))
            assert brute_square == model.square_function_moment(p)


class TestRieszEquivalence:
    def test_exact_one_at_p2(self):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
            result = riesz_equivalence_ratio(f, 2, cocycle)
            assert result["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_single_character_all_p(self):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement.lam(group, (1, 2))
        for p in (2, 3, 4, 6):
            result = riesz_equivalence_ratio(f, p, cocycle)
            assert result["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_p4_finite(self):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        rng = np.random.default_rng(10)
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
        result = riesz_equivalence_ratio(f, 4, cocycle)
        assert np.isfinite(result["ratio"]) and np.isfinite(result["inverse_ratio"])

    def test_mean_zero_required(self):
        group = GroupDescriptor.finite_abelian([4])
        cocycle = build_cocycle("cyclic_word", group)
        with pytest.raises(ValueError):
            riesz_equivalence_ratio(GroupAlgebraElement.lam(group, (0,)), 2, cocycle)
        with pytest.raises(ValueError, match="nonzero"):
            riesz_equivalence_ratio(GroupAlgebraElement.zero(group), 2, cocycle)

    def test_adjoint_side_uses_inverse_support_directions(self):
        """The row square function must see the directions of supp(f)^{-1}."""
        from xpchaos.norms import square_function_norm
        from xpchaos.operators import riesz_transform
        from xpchaos import adjoint
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement(group, {(1, 0): 1.0, (1, 1): 1j})
        result = riesz_equivalence_ratio(f, 4, cocycle)
        full_basis = cocycle.basis_for_support(
            [(a, b) for a in range(4) for b in range(4)])
        sides = []
        for element in (f, adjoint(f)):
            parts = [riesz_transform(element, u, cocycle) for u in full_basis]
            sides.append(square_function_norm([x for x in parts if x.coeffs], 4))
        expected = max(sides) / (2 * math.pi)
        assert result["rhs"] == pytest.approx(expected, rel=1e-12)


def _reference_riesz(f, p, cocycle):
    """The operator path the grid route replaced: a Riesz transform per basis direction
    of supp(f) and its inverse, then ``square_function_norm`` and ``lp_norm``."""
    basis = cocycle.basis_for_support([*f.coeffs, *adjoint(f).coeffs])
    sides = []
    for side in (f, adjoint(f)):
        transforms = [rf for u in basis if (rf := operators.riesz_transform(side, u, cocycle)).coeffs]
        sides.append(square_function_norm(transforms, p))
    return lp_norm(f, p), max(sides) / (2 * math.pi)


#: (group, cocycle family, weights) of the Riesz cases; torus rank 3 draws sparse inputs
_RIESZ_CASES = {
    "z4^2": (GroupDescriptor.finite_abelian([4, 4]), "cyclic_word", None),
    "z6^2": (GroupDescriptor.finite_abelian([6, 6]), "cyclic_word", None),
    "cube4": (GroupDescriptor.hypercube(4), "cyclic_word", None),
    "wcube3": (GroupDescriptor.hypercube(3), "weighted_cube", [0.5, 1.0, 2.0]),
    **{f"t{rank}b{bound}-{family}": (GroupDescriptor.torus(rank, bound), family, None)
       for rank in (1, 2, 3) for bound in (1, 2, 3) for family in ("torus_word", "euclidean")}}


def _riesz_input(group, cocycle, seed):
    torus3 = group.kind == "torus" and group.rank == 3
    spec = EnsembleSpec("sparse", sparsity=6) if torus3 else EnsembleSpec()
    return sample_element(group, cocycle, spec, np.random.default_rng(seed))


class TestRieszGridRoute:
    @pytest.mark.parametrize("case", _RIESZ_CASES)
    def test_matches_operator_path(self, case):
        group, family, weights = _RIESZ_CASES[case]
        cocycle = build_cocycle(family, group, weights)
        f = _riesz_input(group, cocycle, 31)
        for p in (2, 3, 4, 6):
            result = riesz_equivalence_ratio(f, p, cocycle)
            lhs, rhs = _reference_riesz(f, p, cocycle)
            assert result["lhs"] == pytest.approx(lhs, rel=1e-12)
            assert result["rhs"] == pytest.approx(rhs, rel=1e-12)
            assert result["ratio"] == pytest.approx(lhs / rhs, rel=1e-12)
            assert result["inverse_ratio"] == pytest.approx(rhs / lhs, rel=1e-12)
            assert set(result) == {"lhs", "rhs", "ratio", "inverse_ratio"}

    def test_one_dual_evaluation_per_trial(self, monkeypatch):
        calls = []
        real_ifftn = np.fft.ifftn
        monkeypatch.setattr(np.fft, "ifftn",
                            lambda *args, **kwargs: calls.append(1) or real_ifftn(*args, **kwargs))
        for module, name in [(groups, "convolve"), (norms, "convolve"),
                             (operators, "riesz_transform"), (norms, "square_function_norm")]:
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: pytest.fail(
                f"{name} ran on the grid route"))
        for group in (GroupDescriptor.finite_abelian([4, 4]), GroupDescriptor.hypercube(4),
                      GroupDescriptor.torus(2, 2)):
            cocycle = build_cocycle("torus_word" if group.kind == "torus" else "cyclic_word", group)
            f = _riesz_input(group, cocycle, 32)
            for p in (2, 3, 4):
                calls.clear()
                riesz_equivalence_ratio(f, p, cocycle)
                assert len(calls) == 1, (group, p)

    @pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
    def test_bad_p_rejected_before_any_fft(self, p, monkeypatch):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        with pytest.raises(ValueError, match="p must be"):
            riesz_equivalence_ratio(GroupAlgebraElement.lam(group, (1, 0)), p, cocycle)
        with pytest.raises(ValueError, match="p must be"):
            scan("riesz_equivalence", trials=1, family="cyclic", modulus=4, n=2, p=p)

    def test_free_kinds_refused_before_any_work(self, monkeypatch):
        group = GroupDescriptor.free_group(2)
        cocycle = build_cocycle("free_word", group)
        f = GroupAlgebraElement.lam(group, ReducedWord(((1, 1),)))
        monkeypatch.setattr(cocycle, "psi", lambda g: pytest.fail("psi ran on a free kind"))
        with pytest.raises(ValueError, match="abelian"):
            riesz_equivalence_ratio(f, 4, cocycle)

    def test_oversized_torus_grid_refused_before_allocation(self, monkeypatch):
        """Rank 8, bound 3 at p = 4: 96 Riesz rows of 13^8 points."""
        group = GroupDescriptor.torus(8, 3)
        cocycle = build_cocycle("torus_word", group)
        f = GroupAlgebraElement.lam(group, (1,) + (0,) * 7)
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            riesz_equivalence_ratio(f, 4, cocycle)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            scan("riesz_equivalence", trials=1, family="torus", n=8, bound=3, p=4)

    def test_guard_counts_only_the_stack(self, monkeypatch):
        """Z_4^2: 2 slices of 2 vectors for f and f*, 8 rows of 16 points; no
        mean-extended tensor even at p = 4."""
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement.lam(group, (1, 2))
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 8 * 16 - 1)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            riesz_equivalence_ratio(f, 4, cocycle)
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 8 * 16)
        assert riesz_equivalence_ratio(f, 4, cocycle)["ratio"] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(["cyclic", "hypercube", "weighted_cube", "torus_word", "euclidean"]),
       n=st.integers(1, 3), half=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_riesz_ratio_is_one_at_p2(case, n, half, seed):
    """||f||_2 equals the Riesz square function at p = 2 on every group it runs on."""
    rng = np.random.default_rng(seed)
    if case in ("torus_word", "euclidean"):
        group, weights = GroupDescriptor.torus(n, half), None
    elif case == "cyclic":
        group, weights = GroupDescriptor.finite_abelian([2 * half] * n), None
    else:
        group = GroupDescriptor.hypercube(n)
        weights = rng.uniform(0.1, 3.0, n).tolist() if case == "weighted_cube" else None
    family = {"cyclic": "cyclic_word", "hypercube": "cyclic_word"}.get(case, case)
    cocycle = build_cocycle(family, group, weights)
    spec = EnsembleSpec("sparse", sparsity=int(rng.integers(1, 9)))
    f = sample_element(group, cocycle, spec, rng)
    assert riesz_equivalence_ratio(f, 2, cocycle)["ratio"] == pytest.approx(1.0, rel=1e-12)


class TestScan:
    def test_single_trial_matches_direct_call(self):
        report = scan("naor", EnsembleSpec("sparse", sparsity=4), trials=1, seed=3,
                      n=4, ps=[4], ks=[2], derivative="walsh", family="hypercube")
        rng = np.random.default_rng(3)
        group, cocycle = hypercube_pair(4)
        f = sample_element(group, cocycle, EnsembleSpec("sparse", sparsity=4), rng)
        direct = naor_ratio(f, cocycle, 4, 2, "walsh")
        assert report.ratio == pytest.approx(direct.ratio, rel=1e-12)

    def test_deterministic_given_seed(self):
        kwargs = dict(n=4, ps=[2, 4], ks=[1, 2], derivative="absorbent",
                      family="cyclic", modulus=4)
        a = scan("naor", EnsembleSpec("sparse"), trials=4, seed=11, **kwargs).to_json()
        b = scan("naor", EnsembleSpec("sparse"), trials=4, seed=11, **kwargs).to_json()
        a.pop("runtime_ms")
        b.pop("runtime_ms")
        assert a == b

    def test_witness_reproduces(self):
        for experiment, params in [
            ("naor", dict(n=5, ps=[4], ks=[1, 3], derivative="walsh", family="hypercube")),
            ("xp_linear", dict(n=4, d=3, p=4, ks=[2])),
            ("rosenthal", dict(n=5, p=4, ks=[2, 4])),
            ("riesz_equivalence", dict(n=2, p=4, family="cyclic", modulus=4)),
            ("free_identities", dict(rank=2, modulus=None)),
            ("free_identities", dict(rank=2, modulus=4)),
        ]:
            report = scan(experiment, EnsembleSpec("gaussian"), trials=3, seed=5, **params)
            rerun = reevaluate_witness(report)
            assert rerun["ratio"] == pytest.approx(report.ratio, abs=1e-9)

    def test_single_run_reports_reevaluate(self):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement(group, {(1, 0, 0): 1.0, (1, 1, 0): 0.5j})
        rng = np.random.default_rng(17)
        mats = [rng.standard_normal((2, 2)) for _ in range(3)]
        for name, report in [("naor", naor_ratio(f, cocycle, 4, 2, "walsh")),
                             ("xp_linear", xp_linear_ratio(mats, 4, 2))]:
            assert report.experiment == name
            assert reevaluate_witness(report)["ratio"] == report.ratio

    @pytest.mark.parametrize("experiment,params", [
        ("naor", dict(n=3, ps=[4, math.nan], ks=[1], family="hypercube")),
        ("xp_linear", dict(n=3, d=2, p=math.nan, ks=[1])),
        ("rosenthal", dict(n=3, p=math.inf, ks=[1])),
        ("riesz_equivalence", dict(n=2, p=math.nan, family="cyclic", modulus=4)),
    ])
    def test_non_finite_p_rejected(self, experiment, params):
        with pytest.raises(ValueError, match="finite"):
            scan(experiment, EnsembleSpec("gaussian"), trials=2, seed=0, **params)

    def test_tied_riesz_scores_report_the_first_trial(self):
        """Every Riesz ratio is 1 at p = 2; rounding must not pick the witness."""
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        report = scan("riesz_equivalence", EnsembleSpec(), trials=10, seed=5,
                      family="cyclic", modulus=4, n=2, p=2)
        first = sample_element(group, cocycle, EnsembleSpec(), np.random.default_rng(5))
        assert report.witness["f"] == first.to_json()

    @pytest.mark.parametrize("family", ["torus_word", "euclidean"])
    def test_tied_naor_scores_report_the_first_row(self, family):
        """On a rank-1 torus the absorbent derivative of f is f: every ratio is 1/3."""
        group = GroupDescriptor.torus(1, 2)
        cocycle = build_cocycle(family, group)
        for seed in range(4):
            report = scan("naor", EnsembleSpec(), trials=6, seed=seed, family="torus", n=1,
                          bound=2, cocycle=family, derivative="absorbent", ps=[2, 4], ks=[1])
            first = sample_element(group, cocycle, EnsembleSpec(), np.random.default_rng(seed))
            assert report.witness["f"] == first.to_json()
            assert (report.witness["p"], report.witness["k"]) == (2, 1)

    def test_a_later_row_must_win_by_the_tie_margin(self, monkeypatch):
        """Scores 1, 1 + 5e-12, 1 + 5.5e-12: the second beats the first by more than
        SCORE_TIE_RTOL, the third beats the second by less."""
        scores = iter([1.0, 1.0 + 5e-12, 1.0 + 5.5e-12])
        record = harness.Experiment(
            lambda params, ensemble, seed: (
                lambda rng: next(scores), lambda score: [harness.Row(score, 1.0, 1.0, 1.0)],
                lambda score, row: {"score": score}),
            lambda witness, seed: None)
        monkeypatch.setitem(harness.EXPERIMENTS, "probe", record)
        assert scan("probe", trials=3).witness == {"score": 1.0 + 5e-12}

    def test_free_identities_scan(self):
        report = scan("free_identities", EnsembleSpec(sparsity=6), trials=5, seed=1,
                      rank=2, modulus=None)
        assert report.ratio <= 1.0
        report = scan("free_identities", EnsembleSpec(sparsity=6), trials=5, seed=1,
                      rank=2, modulus=4)
        assert report.ratio <= 1.0

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="valid"):
            scan("bogus", EnsembleSpec(), trials=1, seed=0)

    def test_linear_span_matches_scalar_model(self):
        rng = np.random.default_rng(12)
        n = 6
        group, cocycle = hypercube_pair(n)
        f = sample_element(group, cocycle, EnsembleSpec("linear_span"), rng)
        coeffs = np.zeros(n, dtype=complex)
        for key, value in f.coeffs.items():
            coeffs[key.index(1)] = value
        for p, k in [(2, 2), (4, 3)]:
            profile = naor_profile(f, cocycle, [p], [k], "walsh")
            scalar = rosenthal_linear_ratio(coeffs, p, k)
            assert profile[p][k][0] == pytest.approx(scalar["lhs"] ** p, abs=1e-10)

    def test_weighted_cube_sweep(self):
        group = GroupDescriptor.hypercube(3)
        rng = np.random.default_rng(13)
        curves = {}
        for weights in ([1.0, 1.0, 1.0], [1.0, 2.0, 4.0]):
            cocycle = build_cocycle("weighted_cube", group, weights)
            f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
            report = naor_ratio(f, cocycle, 4, 2, "gradient")
            curves[tuple(weights)] = report.ratio
        assert all(np.isfinite(v) for v in curves.values())


class TestFamilyRecords:
    """Scan params build the same groups and cocycles as the explicit constructors."""

    @pytest.mark.parametrize("params, group, family, weights", [
        (dict(family="hypercube", n=3, modulus=6, bound=5), GroupDescriptor.hypercube(3),
         "cyclic_word", None),
        (dict(n=2), GroupDescriptor.hypercube(2), "cyclic_word", None),
        (dict(family="cyclic", n=2, modulus=6), GroupDescriptor.finite_abelian([6, 6]),
         "cyclic_word", None),
        (dict(family="cyclic", n=3), GroupDescriptor.finite_abelian([4] * 3), "cyclic_word", None),
        (dict(family="torus", n=2, bound=3), GroupDescriptor.torus(2, 3), "torus_word", None),
        (dict(family="torus", n=3), GroupDescriptor.torus(3, 2), "torus_word", None),
        (dict(family="torus", n=2, cocycle="euclidean"), GroupDescriptor.torus(2, 2),
         "euclidean", None),
        (dict(family="weighted_cube", n=2, weights=[1, 2]), GroupDescriptor.hypercube(2),
         "weighted_cube", (1.0, 2.0)),
        (dict(family="weighted_cube", n=3), GroupDescriptor.hypercube(3), "weighted_cube",
         (1.0, 1.0, 1.0))])
    def test_naor_family(self, params, group, family, weights):
        built_group, cocycle, derivative = harness._naor_family(params)
        assert built_group == group and cocycle.group == group
        assert (cocycle.family, cocycle.weights, derivative) == (family, weights, "absorbent")

    @pytest.mark.parametrize("params, error", [
        (dict(family="bogus", n=2), "unknown truncation family"),
        (dict(family="torus", n=2, cocycle="cyclic_word"), "equal even moduli"),
        (dict(family="cyclic", n=2, modulus=5), "equal even moduli"),
        (dict(family="hypercube", n=2, derivative="flip"), "unknown derivative"),
        (dict(family="cyclic", n=2, weights=[1, 2]), "takes no weights"),
        (dict(family="weighted_cube", n=2, weights=[1]), "one weight per coordinate")])
    def test_naor_family_refusals(self, params, error):
        with pytest.raises(ValueError, match=error):
            harness._naor_family(params)

    @pytest.mark.parametrize("params, group, family", [
        (dict(rank=3, modulus=None), GroupDescriptor.free_group(3), "free_word"),
        (dict(), GroupDescriptor.free_group(2), "free_word"),
        (dict(rank=2, modulus=4), GroupDescriptor.free_product(2, 4), "free_product_word")])
    def test_free_identities_family(self, params, group, family, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "build_cocycle",
                            lambda *args: built.append(args) or build_cocycle(*args))
        harness._free_identities(params, EnsembleSpec(), 0)
        assert built == [(family, group)]


def _reference_sample(group, cocycle, spec, rng):
    """The per-key psi sampler that the cached key table replaced."""
    if group.kind == "finite_abelian":
        box = itertools.product(*(range(m) for m in group.moduli))
    else:
        box = itertools.product(range(-group.bound, group.bound + 1), repeat=group.rank)
    keys = [key for key in box if cocycle.psi(key) != 0]
    n = group.n_components
    if spec.kind == "gaussian":
        chosen = keys
    elif spec.kind == "sparse":
        idx = rng.choice(len(keys), size=min(spec.sparsity, len(keys)), replace=False)
        chosen = [keys[i] for i in sorted(idx)]
    elif spec.kind == "chaos_degree":
        chosen = [key for key in keys if cocycle.psi(key) <= spec.degree]
    else:
        chosen = []
        for j in range(n):
            chosen.append(tuple(1 if i == j else 0 for i in range(n)))
            inverse = group.moduli[j] - 1 if group.kind == "finite_abelian" else -1
            if inverse != 1:
                chosen.append(tuple(inverse if i == j else 0 for i in range(n)))
    values = (rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))) / math.sqrt(2)
    return GroupAlgebraElement(group, dict(zip(chosen, values)))


class TestEnsembles:
    @pytest.mark.parametrize("group, family, weights", [
        (GroupDescriptor.hypercube(7), "cyclic_word", None),
        (GroupDescriptor.finite_abelian([6] * 3), "cyclic_word", None),
        (GroupDescriptor.torus(2, 2), "torus_word", None),
        (GroupDescriptor.torus(2, 2), "euclidean", None),
        (GroupDescriptor.hypercube(4), "weighted_cube", [0.2, 0.3, 0.6, 1.5])])
    @pytest.mark.parametrize("spec", [
        EnsembleSpec("gaussian"), EnsembleSpec("sparse", sparsity=5),
        EnsembleSpec("chaos_degree", degree=2), EnsembleSpec("linear_span")],
        ids=lambda spec: spec.kind)
    def test_draws_match_the_per_key_reference(self, group, family, weights, spec):
        cocycle = build_cocycle(family, group, weights)
        rng, reference_rng = np.random.default_rng(24), np.random.default_rng(24)
        for _ in range(3):
            f = sample_element(group, cocycle, spec, rng)
            expected = _reference_sample(group, cocycle, spec, reference_rng)
            assert list(f.coeffs) == list(expected.coeffs)
            assert json.dumps(f.to_json()) == json.dumps(expected.to_json())
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_mean_zero_and_support_shapes(self):
        rng = np.random.default_rng(14)
        group, cocycle = hypercube_pair(5)
        full = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
        assert (0,) * 5 not in full.coeffs
        assert full.support_size == 2 ** 5 - 1
        sparse = sample_element(group, cocycle, EnsembleSpec("sparse", sparsity=4), rng)
        assert sparse.support_size == 4
        low = sample_element(group, cocycle, EnsembleSpec("chaos_degree", degree=2), rng)
        assert all(sum(key) <= 2 for key in low.coeffs)
        linear = sample_element(group, cocycle, EnsembleSpec("linear_span"), rng)
        assert all(sum(key) == 1 for key in linear.coeffs)

    def test_free_ensemble(self):
        group = GroupDescriptor.free_product(2, 4)
        cocycle = build_cocycle("free_product_word", group)
        rng = np.random.default_rng(15)
        f = sample_element(group, cocycle, EnsembleSpec(sparsity=5, word_length=3), rng)
        assert f.support_size == 5
        assert all(not w.is_identity for w in f.coeffs)

    def test_unknown_kind_rejected_on_construction(self):
        with pytest.raises(ValueError, match="unknown ensemble kind 'bogus'"):
            EnsembleSpec("bogus")

    def test_free_ensemble_small_pool_terminates(self):
        group = GroupDescriptor.free_group(1)
        cocycle = build_cocycle("free_word", group)
        rng = np.random.default_rng(16)
        f = sample_element(group, cocycle, EnsembleSpec(sparsity=50, word_length=1), rng)
        assert 0 < f.support_size <= 50
