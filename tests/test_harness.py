"""Experiment harness: inequality sides, exact closures, scans, witnesses."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import time
import tracemalloc
import warnings
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
from xpchaos.cocycles import BasisVector, LengthCocycle
from xpchaos.harness import LATTICE_MAX_BYTES
from xpchaos.norms import square_function_norm
from xpchaos.words import ReducedWord


def hypercube_pair(n):
    group = GroupDescriptor.hypercube(n)
    return group, build_cocycle("cyclic_word", group)


def _route_and_profile(f, cocycle, ps, ks, derivative):
    """(planned route, naor_profile) of one element."""
    rows = harness._naor_one(f, cocycle, ps, ks, derivative)
    profile = {}
    for row in rows:
        profile.setdefault(row.p, {})[row.k] = (row.lhs, row.rhs)
    return rows[0].extra["route"], profile


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


def _no_pairs(*args, **kwargs):
    raise AssertionError("joined pairs were built before their bytes were checked")


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

    @pytest.mark.parametrize("ps, ks, match", [([], [1], "list of p"), ([4], [], "list of k")])
    def test_empty_ps_or_ks_rejected(self, ps, ks, match, monkeypatch):
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement.lam(group, (1, 0, 0))
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        with pytest.raises(ValueError, match=match):
            naor_profile(f, cocycle, ps, ks, "absorbent")

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
        """An odd p keeps a 6-key hypercube n = 22 element on the grid, whose
        mean-extended tensor is refused."""
        group, cocycle = hypercube_pair(22)
        f = GroupAlgebraElement(group, {tuple(int(i == j) for i in range(22)): 1.0 + j
                                        for j in range(6)})
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid tensors.*LATTICE_MAX_BYTES"):
                naor_profile(f, cocycle, [3, 4], [2], "walsh")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_p2_is_exempt_and_the_budget_is_the_extended_tensor(self, monkeypatch):
        """Every key of Z_4^2 at coefficient 1: at p = 2, which joins nothing, its 15
        keys take key pairs, priced at 8 (n + 2 + 10) = 112 bytes a key; at p = 3 the
        grid's budget is the mean-extended tensor of 5^2 entries."""
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement(group, {key: 1.0 for key in itertools.product(range(4), repeat=2)
                                        if any(key)})
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 1680)
        assert harness._plan(group, cocycle, 15, [2], "absorbent") == ("pairs", (4, 4), 1680)
        route, profile = _route_and_profile(f, cocycle, [2], [1, 2], "absorbent")
        assert route == "pairs" and profile[2][1][0] == pytest.approx(3)
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 5 ** 2 - 1)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            naor_profile(f, cocycle, [3], [1], "absorbent")
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
            scan("naor", trials=1, family="cyclic", n=2, modulus=4, ps=[3], ks=[1])
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", 16 * 5 ** 2)
        naor_profile(f, cocycle, [3], [1], "absorbent")

    def test_p2_prices_the_keys_it_allocates(self):
        """At p = 2 every key of a hypercube n = 21 fits, about 0.62 GB of key arrays;
        n = 22 does not."""
        group, cocycle = hypercube_pair(21)
        plan = harness._plan(group, cocycle, 2 ** 21 - 1, [2], "absorbent")
        assert plan.route == "pairs" and plan.nbytes == 8 * (2 ** 21 - 1) * (21 + 6 + 10)
        group, cocycle = hypercube_pair(22)
        with pytest.raises(ValueError, match="key tuples.*LATTICE_MAX_BYTES"):
            harness._plan(group, cocycle, 2 ** 22 - 1, [2], "walsh")

    @pytest.mark.parametrize("group, trials", [
        (GroupDescriptor.hypercube(12), 1), (GroupDescriptor.hypercube(9), 8),
        (GroupDescriptor.finite_abelian([6] * 4), 2), (GroupDescriptor.torus(2, 6), 1)],
        ids=["hypercube-12", "hypercube-9-batch", "z6^4", "torus"])
    def test_p2_price_bounds_the_traced_peak(self, group, trials):
        """The peak of ``_pair_terms`` at p = 2 on a batch of every-key draws stays below
        its price and 256 KiB of ufunc buffers and small tables."""
        cocycle = build_cocycle("torus_word" if group.kind == "torus" else "cyclic_word", group)
        rng = np.random.default_rng(trials)
        fs = [sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
              for _ in range(trials)]
        n, keys = group.n_components, len(fs[0].coeffs)
        tracemalloc.start()
        try:
            harness._pair_terms(fs, [2], tuple(range(1, n + 1)), "absorbent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness._pair_route_bytes(n, 1, trials * keys, 0) + 2 ** 18

    def test_every_lattice_up_to_n14_fits(self):
        assert 16 * 3 ** 14 <= LATTICE_MAX_BYTES < 16 * 3 ** 22

    def test_torus_grid_refused_before_allocation(self, monkeypatch):
        """Rank 8, bound 3 at p = 4 puts 13 points on each axis: 14^8 extended entries.
        A one-key absorbent input takes key pairs at p = 4, so it is held at p = 3."""
        group = GroupDescriptor.torus(8, 3)
        cocycle = build_cocycle("torus_word", group)
        f = GroupAlgebraElement.lam(group, (1,) + (0,) * 7)
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        for derivative in ("euclidean", "gradient"):
            with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):
                naor_profile(f, cocycle, [4], [1], derivative)
        with pytest.raises(ValueError, match="LATTICE_MAX_BYTES"):     # 1 key at p = 4: pairs
            naor_profile(f, cocycle, [3], [1], "absorbent")
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


class TestPlan:
    """One plan per profile picks the route and counts only that route's arrays."""

    @pytest.mark.parametrize("n", [22, 40, 1000])
    @pytest.mark.parametrize("derivative", ["walsh", "absorbent"])
    def test_key_pairs_reach_dimension_scale(self, n, derivative, monkeypatch):
        """A 6-key element on the first 8 of n coordinates: each lhs mixes the n = 8
        grid lhs by the hypergeometric law of |S & [8]|, and the rhs takes the n = 8
        derivative sum and norm.  The inclusion odds stop at the widest union, so
        n = 1000 needs no n by n table of binomials."""
        small, small_cocycle = hypercube_pair(8)
        f8 = sample_element(small, small_cocycle, EnsembleSpec("sparse", sparsity=6),
                            np.random.default_rng(n))
        ps = [2, 4, 6]
        grid = {p: terms for p, *terms in harness._grid_terms(
            f8, small_cocycle, ps, tuple(range(1, 9)), derivative, small.moduli)}
        group, cocycle = hypercube_pair(n)
        f = GroupAlgebraElement(group, {key + (0,) * (n - 8): c for key, c in f8.coeffs.items()})
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        ks = list(range(1, n + 1))
        route, profile = _route_and_profile(f, cocycle, ps, ks, derivative)
        assert route == "pairs"
        law = {k: [(j, math.comb(8, j) * math.comb(n - 8, k - j) / math.comb(n, k))
                   for j in range(1, min(8, k) + 1)] for k in ks}
        for p in ps:
            lhs8, deriv, norm = grid[p]
            for k in ks:
                lhs, rhs = profile[p][k]
                expected = (k / n) * deriv + (k / n) ** (p / 2) * norm
                mixed = sum(odds * lhs8[j] for j, odds in law[k])
                assert abs(rhs - expected) <= 1e-12 * expected
                assert abs(lhs - mixed) <= 1e-12 * rhs

    @pytest.mark.parametrize("group, family", [
        (GroupDescriptor.finite_abelian([6] * 4), "cyclic_word"),
        (GroupDescriptor.torus(2, 2), "torus_word")], ids=["z6^4", "torus"])
    def test_p2_alone_takes_key_pairs_on_dense_elements(self, group, family, monkeypatch):
        """At p = 2 each key pairs with itself alone, so no key count sends a walsh or
        absorbent profile to the grid: here every key of the box but the identity."""
        cocycle = build_cocycle(family, group)
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), np.random.default_rng(3))
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        assert harness._plan(group, cocycle, len(f.coeffs), [2], "absorbent").route == "pairs"
        assert _route_and_profile(f, cocycle, [2], [1, 2], "absorbent")[0] == "pairs"

    def test_key_tuples_refused_before_allocation(self, monkeypatch):
        """2000 keys at p = 4 take pairs on a hypercube n = 40; the tuple stage of their
        2e6 multisets of two keys does not fit."""
        group, cocycle = hypercube_pair(40)
        f = GroupAlgebraElement(group, {tuple(int(b) for b in np.binary_repr(i, 40)): 1.0
                                        for i in range(1, 2001)})
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="key tuples.*LATTICE_MAX_BYTES"):
                naor_profile(f, cocycle, [4], [1], "absorbent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_joined_pairs_refused_before_they_are_built(self, monkeypatch):
        """The 4 unit keys of a hypercube n = 4 at p = 4: a budget that fits their 10
        multisets of two keys does not fit their 22 joined pairs."""
        group, cocycle = hypercube_pair(4)
        f = GroupAlgebraElement(group, {tuple(int(i == j) for i in range(4)): 1.0 + j
                                        for j in range(4)})
        budget = harness._pair_route_bytes(4, 2, 10, 22)
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", harness._pair_route_bytes(4, 2, 10, 0))
        monkeypatch.setattr(np.fft, "ifftn", _no_fft)
        real_join = harness._join_plan

        def join_without_building_pairs(*args):
            """The join with ``np.repeat``, which builds its pair indices, failing."""
            with monkeypatch.context() as patch:
                patch.setattr(np, "repeat", _no_pairs)
                return real_join(*args)

        monkeypatch.setattr(harness, "_join_plan", join_without_building_pairs)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="joined key pairs.*LATTICE_MAX_BYTES"):
                naor_profile(f, cocycle, [4], [1], "walsh")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        monkeypatch.setattr(harness, "_join_plan", real_join)
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", budget)
        assert _route_and_profile(f, cocycle, [4], [1], "walsh")[0] == "pairs"

    @pytest.mark.parametrize("n, s, q, trials, modulus", [
        (40, 300, 2, 1, 2), (20, 150, 2, 4, 2), (12, 6, 3, 64, 2), (10, 100, 2, 1, 3),
        (40, 60, 3, 1, 2), (1, 12, 6, 1, 7)])
    def test_tuple_price_bounds_the_traced_peak(self, monkeypatch, n, s, q, trials, modulus):
        """The peak of ``_key_pairs`` up to the join's price check, and to its end, stays
        below the tuples' price, and their pairs' price, and 256 KiB of ufunc buffers
        and small tables."""
        rng = np.random.default_rng(n + s + q)
        keys = rng.integers(0, modulus, size=(trials, s, n)).astype(np.int64)
        coeffs = rng.standard_normal((trials, s)) + 1j * rng.standard_normal((trials, s))
        tuples = trials * math.comb(s + q - 1, q)
        real_join, seen = harness._join_plan, []

        def join(table, prefix, pair_bytes):
            def priced(pairs):
                seen.append((pairs, tracemalloc.get_traced_memory()[1]))
                return pair_bytes(pairs)
            return real_join(table, prefix, priced)

        monkeypatch.setattr(harness, "_join_plan", join)
        harness._multisets.cache_clear()
        tracemalloc.start()
        try:
            harness._key_pairs(keys, coeffs, np.full(n, modulus), 2 * q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [(pairs, tuple_peak)] = seen
        assert tuple_peak <= harness._pair_route_bytes(n, q, tuples, 0) + 2 ** 18
        assert peak <= harness._pair_route_bytes(n, q, tuples, pairs) + 2 ** 18

    @pytest.mark.parametrize("group", [
        GroupDescriptor.hypercube(5), GroupDescriptor.finite_abelian((3, 3)),
        GroupDescriptor.finite_abelian((2, 4, 6)), GroupDescriptor.torus(3, 2)],
        ids=["hypercube", "z3^2", "z2-z4-z6", "torus"])
    def test_linear_span_counts_its_keys(self, group):
        """A unit key of modulus 2 is its own inverse, so a draw has one key there."""
        spec = EnsembleSpec("linear_span")
        f = harness.sample_element(group, None, spec, np.random.default_rng(0))
        assert harness._most_keys(group, None, spec) == len(f.coeffs)

    def test_wide_hypercube_linear_span_plans_pairs(self):
        """The n keys of a linear_span draw on a hypercube n = 400 fit the pair route
        at p = 4; 2n keys would not."""
        group, cocycle = hypercube_pair(400)
        keys = harness._most_keys(group, cocycle, EnsembleSpec("linear_span"))
        assert keys == 400
        assert harness._plan(group, cocycle, keys, [4], "walsh").route == "pairs"
        with pytest.raises(ValueError, match="key tuples"):
            harness._plan(group, cocycle, 2 * keys, [4], "walsh")

    @pytest.mark.parametrize("group, spec", [
        (GroupDescriptor.hypercube(12), EnsembleSpec("gaussian")),
        (GroupDescriptor.hypercube(16), EnsembleSpec("gaussian")),
        (GroupDescriptor.finite_abelian([6] * 6), EnsembleSpec("gaussian")),
        (GroupDescriptor.finite_abelian([300, 300]), EnsembleSpec("gaussian")),
        (GroupDescriptor.torus(2, 100), EnsembleSpec("gaussian")),
        (GroupDescriptor.torus(6, 3), EnsembleSpec("gaussian")),
        (GroupDescriptor.hypercube(14), EnsembleSpec("sparse", sparsity=1000)),
        (GroupDescriptor.hypercube(14), EnsembleSpec("chaos_degree", degree=9)),
        (GroupDescriptor.hypercube(400), EnsembleSpec("linear_span")),
        (GroupDescriptor.torus(30, 7), EnsembleSpec("linear_span"))],
        ids=["cube-12", "cube-16", "z6^6", "z300^2", "torus-2-100", "torus-6-3", "sparse",
             "chaos", "span-cube-400", "span-torus"])
    def test_draw_price_bounds_the_traced_peak(self, group, spec):
        """The peak of one abelian draw stays below its price and 64 KiB of small tables."""
        cocycle = build_cocycle("torus_word" if group.kind == "torus" else "cyclic_word", group)
        keys = harness._most_keys(group, cocycle, spec)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            f = sample_element(group, cocycle, spec, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(f.coeffs) <= keys
        assert peak <= harness._draw_bytes(group, spec, keys) + 2 ** 16

    @pytest.mark.parametrize("argv, what", [
        (["--n", "21", "--p", "2"], "gaussian draw and pairs route"),
        (["--n", "400", "--p", "4", "--ensemble", "linear_span", "--derivative", "walsh"],
         "joined key pairs")], ids=["gaussian-21", "linear-span-400"])
    def test_scans_refused_before_any_draw(self, argv, what, monkeypatch, capsys):
        """Every key of a hypercube n = 21 peaks near 1.3 GB as a draw, beside 0.62 GB
        of p = 2 route; the 400 unit keys' 239800 joined pairs at p = 4 need 1.08 GB."""
        from xpchaos import cli
        monkeypatch.setattr(harness, "_complex_normal", _no_draw)
        monkeypatch.setattr(harness, "_join_plan", _no_draw)
        tracemalloc.start()
        try:
            code = cli.main(["verify", "naor", *argv, "--trials", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert re.search(f"{what} need .*LATTICE_MAX_BYTES", capsys.readouterr().err)
        assert peak < 2 ** 20

    def test_draw_and_route_fit_below_the_refused_sizes(self):
        """Hypercube n = 20 at p = 2 and the 300 unit keys at p = 4 still plan."""
        for n, ps, spec in ((20, [2.0], EnsembleSpec("gaussian")),
                            (300, [4.0], EnsembleSpec("linear_span"))):
            group, cocycle = hypercube_pair(n)
            harness._check_draw_budget(group, cocycle, spec, ps, "walsh")

    def test_one_plan_per_profile(self, monkeypatch):
        """Profiles plan once with their key count; scans plan once more, when they
        bind, with the most keys the ensemble can draw."""
        keys = []
        real_plan = harness._plan
        monkeypatch.setattr(harness, "_plan", lambda *args: keys.append(args[2]) or real_plan(*args))
        group, cocycle = hypercube_pair(5)
        f = GroupAlgebraElement(group, {(1, 0, 0, 0, 0): 1.0, (0, 1, 1, 0, 0): 2.0})
        naor_profile(f, cocycle, [2, 4], [1, 2], "walsh")
        naor_ratio(f, cocycle, 4, 2, "walsh")
        riesz_equivalence_ratio(f, 4, cocycle)
        assert keys == [2, 2, 2]
        for spec, most, drawn in [(EnsembleSpec("sparse", sparsity=3), 3, 3),
                                  (EnsembleSpec("sparse", sparsity=40), 31, 31),
                                  (EnsembleSpec("gaussian"), 31, 31),
                                  (EnsembleSpec("linear_span"), 5, 5),
                                  (EnsembleSpec("chaos_degree", degree=2), 15, 15)]:
            for experiment, ps in (("naor", {"ps": [2, 4]}), ("riesz_equivalence", {"p": 2})):
                keys.clear()
                scan(experiment, spec, trials=2, family="hypercube", n=5, **ps)
                assert keys == [most, drawn, drawn]

    def test_inclusion_odds_match_the_binomials_and_stop_at_the_cap(self):
        odds = harness._inclusion_odds(9, 4)
        for k in range(1, 10):
            assert odds[k - 1].tolist() == [
                math.comb(9 - u, k - u) / math.comb(9, k) if u <= min(k, 4) else 0.0
                for u in range(10)]

    @pytest.mark.parametrize("n", [1, 7, 40, 1000])
    def test_subset_means_take_their_width_from_the_bins(self, n):
        """The odds of ``_subset_means`` run to the highest nonzero bin: the same bits,
        by ==, as the odds of every wider cap, on random bins with trailing zeros and on
        a zero vector.  At n = 1000 the caps run from the top bin to 32 and then n, as
        one table to cap 500 takes over half a second."""
        rng = np.random.default_rng(n)
        cases = [np.zeros(n + 1)]
        for top in sorted({min(n, 3), n // 2, n} if n < 1000 else {0, 3, 17}):
            bins = np.zeros(n + 1)
            bins[:top + 1] = rng.standard_normal(top + 1)
            if top > 1:
                bins[top // 2] = 0.0        # a zero bin below the top
            cases.append(bins)
        for bins in cases:
            top = int(max(np.flatnonzero(bins), default=0))
            means = harness._subset_means(bins)
            for cap in (range(top, n + 1) if n < 1000 else [*range(top, 33), n]):
                assert (means == harness._inclusion_odds(n, cap) @ bins).all()

    def test_witness_reevaluates_on_the_route_its_report_names(self):
        """A gaussian scan plans the grid for ps [2, 4]; the witness's single p = 2 would
        plan key pairs, but re-evaluates on the grid to the reported numbers exactly."""
        report = scan("naor", EnsembleSpec("gaussian"), trials=3, seed=0, family="hypercube",
                      n=10, ps=[2, 4], ks=[1, 2], derivative="walsh").to_json()
        assert report["extra"]["route"] == "grid" and report["witness"]["p"] == 2
        assert reevaluate_witness(report) == {key: report[key] for key in ("lhs", "rhs", "ratio")}
        f, cocycle = harness._load_element(report["witness"])
        assert _route_and_profile(f, cocycle, [2], [1], "walsh")[0] == "pairs"

    @pytest.mark.parametrize("p", [2e5, 2e12])
    def test_one_key_at_a_huge_p_takes_the_grid(self, p):
        """One key's q-tuples never grow, so only the cap of SIGN_ENUMERATION_CAP tuple
        steps keeps it off key pairs; the grid of Z_2^3 does not grow with p.  A
        unit-modulus coefficient keeps |f|^p at 1, with no overflow."""
        group, cocycle = hypercube_pair(3)
        f = GroupAlgebraElement(group, {(1, 0, 1): complex(0.6, 0.8)})
        assert harness._plan(group, cocycle, 1, [p], "absorbent").route == "grid"
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            route, profile = _route_and_profile(f, cocycle, [p], [1, 2, 3], "absorbent")
        assert time.perf_counter() - start < 0.5
        assert route == "grid"
        assert [profile[p][k][0] for k in (1, 2, 3)] == pytest.approx([0, 1 / 3, 1])

    def test_tuple_steps_stop_at_the_sign_cap(self):
        group, cocycle = hypercube_pair(3)
        cap = harness.SIGN_ENUMERATION_CAP
        assert harness._plan(group, cocycle, 1, [2 * cap], "walsh").route == "pairs"
        assert harness._plan(group, cocycle, 1, [2, 2 * cap + 2], "walsh").route == "grid"

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_torus_witness_reevaluates_on_the_grid_its_report_names(self, seed):
        """ps [2, 3, 6] put 4(2B + 1) = 20 points on each axis of a bound-2 torus; the
        witness's p alone would take 13 at p = 6, and the report names the 20."""
        report = scan("naor", EnsembleSpec("gaussian"), trials=3, seed=seed, family="torus",
                      n=2, bound=2, ps=[2, 3, 6], ks=[1, 2], derivative="absorbent").to_json()
        assert report["extra"]["route"] == "grid" and report["extra"]["grid"] == 20
        assert reevaluate_witness(report) == {key: report[key] for key in ("lhs", "rhs", "ratio")}

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_reevaluation_replays_one_profile_at_the_witness_p(self, monkeypatch, seed):
        """The witness of a torus scan at ps [2, 3, 6] is evaluated once, at its own p
        alone, on the 20 points per axis that the scan's ps plan and its report names."""
        report = scan("naor", EnsembleSpec("gaussian"), trials=3, seed=seed, family="torus",
                      n=2, bound=2, ps=[2, 3, 6], ks=[1, 2], derivative="absorbent").to_json()
        calls, ffts = [], []
        real_terms, real_ifftn = harness._grid_terms, np.fft.ifftn
        monkeypatch.setattr(harness, "_grid_terms", lambda f, cocycle, ps, ks, derivative, grid:
                            calls.append((list(ps), ks, grid))
                            or real_terms(f, cocycle, ps, ks, derivative, grid))
        monkeypatch.setattr(np.fft, "ifftn", lambda *args, **kwargs:
                            ffts.append(1) or real_ifftn(*args, **kwargs))
        assert reevaluate_witness(report) == {key: report[key] for key in ("lhs", "rhs", "ratio")}
        assert report["extra"]["grid"] == 20
        assert calls == [([report["witness"]["p"]], (report["witness"]["k"],), (20, 20))]
        assert len(ffts) == 1

    @pytest.mark.parametrize("experiment, params, key, named", [
        ("naor", dict(family="hypercube", n=5, ps=[3], ks=[1, 2]), "route", "pairs"),
        ("naor", dict(family="hypercube", n=5, ps=[3], ks=[1, 2]), "route", "lattice"),
        ("naor", dict(family="hypercube", n=5, ps=[2], ks=[1, 2]), "route", "grid"),
        ("naor", dict(family="hypercube", n=3, ps=[3], ks=[1]), "grid", 2),
        ("naor", dict(family="torus", n=2, bound=2, ps=[6], ks=[1]), "route", "pairs"),
        ("naor", dict(family="torus", n=2, bound=2, ps=[6], ks=[1]), "route", None),
        ("naor", dict(family="torus", n=2, bound=2, ps=[6], ks=[1]), "grid", 12),
        ("naor", dict(family="torus", n=2, bound=2, ps=[6], ks=[1]), "grid", 40),
        ("xp_linear", dict(n=4, d=2, p=4, ks=[1, 2]), "route", "signs"),
        ("xp_linear", dict(n=4, d=2, p=3, ks=[1, 2]), "route", "pairs"),
        ("rosenthal", dict(n=5, p=4, ks=[1, 2]), "route", "signs"),
        ("rosenthal", dict(n=5, p=3, ks=[1, 2]), "route", "pairs")])
    def test_report_naming_another_route_or_grid_refused(self, experiment, params, key, named):
        """The witness replays the plan of its report's params; a report that names
        another route or torus grid (the torus plans 13 points per axis at p = 6) is
        refused with one message."""
        report = scan(experiment, EnsembleSpec("gaussian"), trials=2, seed=1, **params).to_json()
        assert reevaluate_witness(report) == {name: report[name] for name in ("lhs", "rhs", "ratio")}
        assert report["extra"].get(key) != named
        assert report["extra"].get("grid") == (13 if params.get("family") == "torus" else None)
        report["extra"][key] = named
        with pytest.raises(ValueError, match=f"the report names the {key} .*; its witness replays"):
            reevaluate_witness(report)

    def test_witness_p_outside_the_report_ps_refused(self):
        """The plan of ps [4] would send an odd p to key pairs."""
        report = scan("naor", EnsembleSpec("sparse", sparsity=3), trials=2, seed=1,
                      family="hypercube", n=4, ps=[4], ks=[1, 2]).to_json()
        assert report["extra"]["route"] == "pairs"
        report["witness"]["p"] = 3.0
        with pytest.raises(ValueError, match="not among its report's ps"):
            reevaluate_witness(report)

    def test_draws_and_checks_read_no_key_table(self, monkeypatch):
        monkeypatch.setattr(harness, "_mean_zero_keys", _no_fft)
        monkeypatch.setattr(LengthCocycle, "psi", _no_fft)
        for params in (dict(family="hypercube", n=10), dict(family="torus", n=2, bound=2)):
            for spec in (EnsembleSpec("sparse", sparsity=6), EnsembleSpec("gaussian")):
                report = scan("naor", spec, trials=3, ps=[2, 4], ks=[1, 2], **params)
                assert reevaluate_witness(report)["ratio"] == pytest.approx(report.ratio, rel=1e-9)


@pytest.mark.parametrize("group, family, weights", [
    *[(GroupDescriptor.hypercube(n), "cyclic_word", None) for n in (1, 3, 6)],
    (GroupDescriptor.finite_abelian([4] * 3), "cyclic_word", None),
    (GroupDescriptor.finite_abelian([5] * 2), "odd_cyclic_word", None),
    (GroupDescriptor.hypercube(4), "weighted_cube", [0.25, 1.0, 2.0, 3.5]),
    *[(GroupDescriptor.torus(rank, 2), family, None)
      for rank in (1, 2, 3) for family in ("torus_word", "euclidean")]])
def test_only_the_identity_has_length_zero(group, family, weights):
    """Mean-zero is the identity test, and gaussian and sparse draws skip only the
    identity's box position, because no other key of the box has psi = 0."""
    cocycle = build_cocycle(family, group, weights)
    shape, low = groups.key_box(group)
    box = itertools.product(*(range(low, low + m) for m in shape))
    assert [key for key in box if cocycle.psi(key) == 0] == [group.identity()]


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
                    route = _route_and_profile(f, cocycle, ps, [1, 2], derivative)[0]
                    routes.append((group.kind, derivative, len(ps), route))
                    assert len(calls) == {"grid": 1, "pairs": 0}[route], (group, derivative, ps)
        # walsh and absorbent at p = 2 alone take key pairs on every element, whose keys
        # each pair with themselves alone
        assert [r[:3] for r in routes if r[3] == "pairs"] == [
            ("finite_abelian", "walsh", 1), ("finite_abelian", "absorbent", 1),
            ("finite_abelian", "absorbent", 1), ("torus", "absorbent", 1),
            ("torus", "absorbent", 1)]


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
    grid = {p: terms for p, *terms in harness._grid_terms(f, cocycle, ps, ks, derivative,
                                                          harness._grid_shape(group, ps))}
    pairs = {p: terms for p, *terms in harness._pair_terms([f], ps, ks, derivative)[0]}
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


@pytest.mark.parametrize("ps", [[2], [2, 3]])
@pytest.mark.parametrize("group, family, derivative", [
    (GroupDescriptor.hypercube(10), "cyclic_word", "walsh"),
    (GroupDescriptor.finite_abelian([6] * 4), "cyclic_word", "absorbent"),
    (GroupDescriptor.torus(2, 2), "torus_word", "euclidean")], ids=["hypercube", "z6^4", "torus"])
def test_grid_closure_is_the_key_pair_closure(group, family, derivative, ps):
    """The grid route's p = 2 lhs and ||f||_2^2, read from the coefficient tensor, are
    those of ``_pair_terms`` bit for bit on gaussian draws."""
    cocycle = build_cocycle(family, group)
    ks = tuple(range(1, group.n_components + 1))
    for seed in range(3):
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), np.random.default_rng(seed))
        p, lhs, _, full_norm = next(harness._grid_terms(f, cocycle, ps, ks, derivative,
                                                        harness._grid_shape(group, ps)))
        _, pair_lhs, _, pair_norm = harness._pair_terms([f], [2], ks, derivative)[0][0]
        assert (p, lhs, full_norm) == (2, pair_lhs, pair_norm)


def _ordered_key_pairs(keys, coeffs, moduli, p):
    """``harness._key_pairs`` at p = 2q >= 4 from all s^q ordered q-tuples of each
    element's keys, extended one key at a time, with the orderings of one multiset
    merged by the join: the reference for the multiset tuples."""
    trials, s, n = keys.shape
    q = int(p) // 2
    masks = np.packbits(keys != 0, axis=2).astype(np.int64)
    width = masks.shape[2]
    sums, prods, unions, inters = keys, coeffs, masks, masks
    for _ in range(q - 1):              # extend every tuple by every key of its element
        sums = (sums[:, :, None] + keys[:, None]).reshape(trials, -1, n)
        if moduli is not None:
            sums %= moduli
        prods = (prods[:, :, None] * coeffs[:, None]).reshape(trials, -1)
        unions = (unions[:, :, None] | masks[:, None]).reshape(trials, -1, width)
        inters = (inters[:, :, None] & masks[:, None]).reshape(trials, -1, width)
    tuples = prods.size
    offsets = np.arange(0, trials * (n + 1), n + 1)
    owners = np.repeat(offsets, tuples // trials).reshape(trials, -1, 1)
    table = np.concatenate([owners, sums, unions, inters], axis=2).reshape(tuples, -1)
    values = prods.ravel()
    rows, order, labels, left, right = harness._join_plan(table, n + 1)
    prods = np.bincount(labels, values[order].real) + 1j * np.bincount(labels, values[order].imag)
    w = (prods[left] * prods[right].conj()).real
    unions, inters = rows[:, n + 1:n + 1 + width], rows[:, n + 1 + width:]
    union = harness._BYTE_BITS[unions[left] | unions[right]].sum(axis=1)
    inter = harness._BYTE_BITS[inters[left] & inters[right]].sum(axis=1)
    owner = rows[left, 0]
    by_union = np.bincount(owner + union, w, minlength=trials * (n + 1))
    ends = np.searchsorted(owner, offsets[1:]).tolist() + [len(w)]
    runs = [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]
    return (by_union.reshape(trials, n + 1), [float(w[run] @ inter[run]) for run in runs],
            [float(w[run].sum()) for run in runs])


class TestMultisetPairs:
    """Key pairs list each element's q-multisets of keys, not its s^q ordered q-tuples."""

    @staticmethod
    def _batch(case):
        """(keys, coeffs, moduli) of a batch of three elements of five or six keys."""
        rng = np.random.default_rng(71)
        if case == "hypercube":
            keys = rng.integers(0, 2, size=(3, 6, 7))
            keys[:, :, 0] = 1                           # no zero key
            moduli = np.full(7, 2)
        elif case == "z6^3":                            # {1, 4} and {2, 3} (times (1, 1, 1))
            keys = np.array([[(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (1, 2, 3)],
                             [(5, 5, 5), (1, 1, 1), (4, 4, 4), (2, 0, 1), (3, 3, 3)],
                             [(0, 1, 2), (0, 2, 4), (0, 3, 0), (0, 4, 2), (0, 5, 4)]])
            moduli = np.full(3, 6)
        else:                                           # torus rank 2, bound 2: no moduli
            keys = np.array([[(1, 0), (-1, 2), (2, -2), (0, 1), (-2, -1)],
                             [(1, 1), (-1, -1), (2, 0), (0, -2), (1, -1)],
                             [(2, 2), (-2, 1), (1, 2), (0, 1), (-1, 0)]])
            moduli = None
        coeffs = rng.standard_normal(keys.shape[:2]) + 1j * rng.standard_normal(keys.shape[:2])
        return keys.astype(np.int64), coeffs, moduli

    @pytest.mark.parametrize("p", [4, 6, 8])
    @pytest.mark.parametrize("case", ["hypercube", "z6^3", "torus"])
    def test_multisets_match_ordered_tuples(self, case, p):
        keys, coeffs, moduli = self._batch(case)
        by_union, projections, norms_ = harness._key_pairs(keys, coeffs, moduli, p)
        ref_union, ref_projections, ref_norms = _ordered_key_pairs(keys, coeffs, moduli, p)
        for t in range(len(keys)):
            scale = ref_norms[t]
            assert scale > 0
            gap = np.abs(by_union[t] - ref_union[t]).max()
            assert gap <= 1e-13 * np.abs(ref_union[t]).max()
            assert abs(projections[t] - ref_projections[t]) <= 1e-13 * abs(ref_projections[t])
            assert abs(norms_[t] - scale) <= 1e-13 * scale

    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_distinct_multisets_of_one_row_merge(self, p):
        """On Z_6^3, {1, 4} and {2, 3} (times (1, 1, 1)) share their sum and supports."""
        keys, coeffs, moduli = self._batch("z6^3")
        masks = np.packbits(keys != 0, axis=2).astype(np.int64)
        table = harness._multiset_table(keys, masks, moduli, harness._multisets(5, p // 2)[0])
        assert len(table) == 3 * math.comb(5 + p // 2 - 1, p // 2)
        assert len(np.unique(table, axis=0)) < len(table)

    @pytest.mark.parametrize("s, q", [(1, 3), (4, 1), (5, 2), (6, 3), (3, 4), (7, 5)])
    def test_multisets_and_their_orderings(self, s, q):
        rows, orderings = harness._multisets(s, q)
        expected = list(itertools.combinations_with_replacement(range(s), q))
        assert list(map(tuple, rows.tolist())) == expected
        assert orderings.tolist() == [
            math.factorial(q) / math.prod(math.factorial(row.count(i)) for i in set(row))
            for row in expected]
        assert sum(orderings) == s ** q
        assert not rows.flags.writeable and not orderings.flags.writeable

    @pytest.mark.parametrize("batch", [3, 1], ids=["batched", "alone"])
    def test_linear_span_witness_replays_bit_for_bit(self, monkeypatch, batch):
        """linear_span inserts its unit keys in another order than ``to_json`` stores
        them; the pairs take them in the stored order, so the witness replays the
        reported numbers bit for bit, whether its draw ran in a batch or alone."""
        monkeypatch.setattr(harness, "SCAN_BATCH_DRAWS", batch)
        report = scan("naor", EnsembleSpec("linear_span"), trials=3, seed=0, family="hypercube",
                      n=100, ps=[4], ks=list(range(1, 101)), derivative="walsh").to_json()
        assert report["extra"]["route"] == "pairs"
        assert reevaluate_witness(json.loads(json.dumps(report))) == {
            key: report[key] for key in ("lhs", "rhs", "ratio")}


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
            assert matrix_report.lhs == pytest.approx(scalar.lhs ** p, rel=1e-10)

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

    @pytest.mark.parametrize("shape", [(2, 2), (0, 0)])
    def test_zero_tuple_rejected(self, shape):
        for call in (lambda xs: xp_linear_ratio(xs, 4, 1),
                     lambda xs: xp_linear_profile(xs, 4, [1, 2])):
            with pytest.raises(ValueError, match="nonzero"):
                call([np.zeros(shape)] * 3)

    def test_trace_convention_recorded(self):
        report = xp_linear_ratio([np.eye(2), np.eye(2)], 4, 1)
        assert report.params["trace_convention"] == "unnormalized"

    def test_non_finite_p_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            xp_linear_ratio([np.eye(2), np.eye(2)], math.nan, 1)

    @pytest.mark.parametrize("xs, named", [
        ([], "n must be >= 1, got 0"),
        ([np.ones(3), np.ones(3)], r"2-D matrices of one shape, got the shapes \[\(3,\)\]"),
        ([np.ones((2, 2, 2))] * 2, "2-D matrices of one shape"),
        ([np.eye(2), np.eye(3)], "2-D matrices of one shape"),
        ([np.eye(2), np.full((2, 2), np.nan)], "entries must be finite"),
        ([np.eye(2), np.full((2, 2), np.inf)], "entries must be finite")],
        ids=["empty", "vectors", "3-d", "shapes", "nan", "inf"])
    @pytest.mark.parametrize("p", [3, 4])
    def test_bad_tuples_refused_by_name(self, xs, named, p):
        """Refused before any work, with no numpy warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: xp_linear_ratio(xs, p, 1),
                         lambda: xp_linear_profile(xs, p, [1])):
                with pytest.raises(ValueError, match=named):
                    call()

    def test_profile_refuses_a_p_past_the_float_range(self):
        """The public profile refuses such a p itself, naming it, with no overflow
        warning, as the rows of every scan do."""
        rng = np.random.default_rng(24)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ks in ([1], [1, 2]):
                with pytest.raises(ValueError, match="at p = 2000.0 the sides leave the float"):
                    xp_linear_profile(mats, 2000.0, ks)


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

    @pytest.mark.parametrize("p", [1.5, 2, 2.5, 3, 4, 6])
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_rosenthal(self, n, p):
        rng = np.random.default_rng(200 + n)
        coeffs = list(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for k in range(1, n + 1):
            lhs, rhs = _loop_rosenthal_sides(coeffs, p, k)
            result = rosenthal_linear_ratio(coeffs, p, k)
            assert result.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
            assert result.rhs == pytest.approx(rhs, rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("n, p, route", [(5, 4, "pairs"), (5, 3, "signs"),
                                             (15, 4, "signs")])
    def test_k_equal_n_lhs_is_the_full_average(self, n, p, route):
        """The k = n lhs is the full n-sign average of the rhs, bit for bit, on the pair
        route, the exhaustive sign route and the Monte Carlo one."""
        rng = np.random.default_rng(22)
        mats = rng.standard_normal((n, 2, 3)) + 1j * rng.standard_normal((n, 2, 3))
        assert harness._xp_route(n, p) == route
        lhs, rhs, monte_carlo = xp_linear_profile(mats, p, [1, n], seed=7)[n]
        assert rhs == float(np.sum(norms.schatten_powers(mats, p))) + lhs
        assert monte_carlo == (n > harness.SIGN_ENUMERATION_CAP)

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


def _golden_tuples():
    """Three tuples drawn in one order from one generator: 16 4x4, 8 3x3, 16 2x3."""
    rng = np.random.default_rng(2024)

    def draw(n, rows, cols):
        return [(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
                / np.sqrt(2) for _ in range(n)]
    return draw(16, 4, 4), draw(8, 3, 3), draw(16, 2, 3)


class TestSignRouteGolden:
    """Profiles taken before the sign kernel moved to planes.  The Monte Carlo rows
    pin the sign draws, the n = 8, p = 6 rows the exhaustive route.  The k = 16 lhs
    goldens were retaken when that row became the full n-sign average of its rhs."""

    CASES = [
        (0, 2, [2, 16], 5, {2: (31.757675264689663, 63.56782709319274),
                            16: (254.48121462802462, 508.5426167455419)}),
        (0, 4, [16], 5, {16: (32119.69357477826, 34131.2222576132)}),
        (1, 6, [1, 4, 8], None, {1: (465.9805320928582, 892.2201316306932),
                                 4: (27718.310289566496, 29143.256498792874),
                                 8: (218234.67496337154, 221962.5192201144)}),
        (2, 4, [16], 3, {16: (9518.80640761224, 10143.816574961445)}),
    ]

    @pytest.mark.parametrize("tuple_index, p, ks, seed, expected", CASES)
    def test_profile(self, tuple_index, p, ks, seed, expected):
        mats = _golden_tuples()[tuple_index]
        profile = xp_linear_profile(mats, p, ks, seed=seed)
        for k, (lhs, rhs) in expected.items():
            assert profile[k][:2] == pytest.approx((lhs, rhs), rel=1e-13, abs=0)
            assert profile[k][2] == (len(mats) > 14)


@pytest.mark.parametrize("p", [2, 3, 4, 6])
@pytest.mark.parametrize("n", [15, 16, 17])
def test_streamed_sign_draws_match_one_table(n, p):
    """The Monte Carlo average draws its signs block by block: the same average, bit for
    bit, and the same generator state after it as one table of all the rows."""
    rng = np.random.default_rng(40 + n)
    mats = rng.standard_normal((n, 2, 3)) + 1j * rng.standard_normal((n, 2, 3))
    streamed, whole = np.random.default_rng(n), np.random.default_rng(n)
    table = whole.choice((1.0, -1.0), size=(2 ** 14, n))
    assert harness._monte_carlo_average(mats, p, streamed) == \
        float(np.mean(norms.sign_block_powers(norms.sign_row_blocks(table), mats, p)))
    assert streamed.bit_generator.state == whole.bit_generator.state


def _no_draw(*args, **kwargs):
    raise AssertionError("the refused profile drew its sample or its signs")


class TestXpLinearBudget:
    """The sample, the pair route's Gram factors and the sign route's blocks are priced
    against LATTICE_MAX_BYTES before anything is drawn."""

    @pytest.mark.parametrize("argv, what", [
        (["--n", "15", "--d", "400", "--p", "4", "--k", "1"], "signs route arrays"),
        (["--n", "14", "--d", "1000", "--p", "4"], "pairs route arrays"),
        (["--n", "2", "--d", "20000"], "sample matrices")])
    def test_oversized_verify_exits_2_before_any_draw(self, argv, what, monkeypatch, capsys):
        from xpchaos import cli
        monkeypatch.setattr(harness, "_complex_normal", _no_draw)
        monkeypatch.setattr(harness, "_monte_carlo_average", _no_draw)
        tracemalloc.start()
        try:
            code = cli.main(["verify", "xp-linear", *argv, "--trials", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert re.search(f"{what}.*LATTICE_MAX_BYTES", capsys.readouterr().err)
        assert peak < 2 ** 20

    @pytest.mark.parametrize("argv", [
        ["xp-linear", "--n", "30", "--p", "4", "--k", "15", "--d", "2"],
        ["rosenthal", "--n", "40", "--p", "3", "--k", "12"]])
    def test_unpriced_subset_loops_exit_2_before_any_draw(self, argv, monkeypatch, capsys):
        """C(30, 15) Monte Carlo subsets and C(40, 12) exhaustive ones, each far past 20 s
        of work, are refused by their count of (eps, S) rows before any draw."""
        from xpchaos import cli
        monkeypatch.setattr(harness, "_sign_mean", _no_draw)
        monkeypatch.setattr(harness, "_complex_normal", _no_draw)
        assert cli.main(["verify", *argv, "--trials", "1"]) == 2
        assert re.search(r"signs route averages \d+ \(eps, S\) rows.*SIGN_ROWS_MAX",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("n, p, ks, rows", [
        (16, 3, [10], math.comb(16, 10) * 2 ** 9 + harness.MONTE_CARLO_SIGNS),
        (16, 4, [2, 15], 120 * 2 + 16 * harness.MONTE_CARLO_SIGNS + harness.MONTE_CARLO_SIGNS),
        (9, 6, [3, 9], math.comb(9, 3) * 4 + 2 ** 8)])
    def test_sign_rows_refused_one_row_past_the_cap(self, n, p, ks, rows, monkeypatch):
        """The count is C(n, k) 2^(k - 1) exhaustive and C(n, k) MONTE_CARLO_SIGNS drawn,
        over the ks and the full n-sign average."""
        mats = [np.eye(1) * (j + 1) for j in range(n)]
        monkeypatch.setattr(harness, "SIGN_ROWS_MAX", rows - 1)
        with pytest.raises(ValueError, match=f"averages {rows} .*SIGN_ROWS_MAX"):
            xp_linear_profile(mats, p, ks, seed=0)
        monkeypatch.setattr(harness, "SIGN_ROWS_MAX", rows)
        monkeypatch.setattr(harness, "_sign_mean", lambda *args: 1.0)
        assert xp_linear_profile(mats, p, ks, seed=0)[ks[0]][0] == 1.0

    def test_rosenthal_sign_rows_count_only_its_ks(self, monkeypatch):
        rows = math.comb(12, 4) * 2 ** 3 + math.comb(12, 6) * 2 ** 5
        monkeypatch.setattr(harness, "SIGN_ROWS_MAX", rows - 1)
        with pytest.raises(ValueError, match=f"averages {rows} "):
            harness._rosenthal_rows(np.arange(1.0, 13.0), 3, [4, 6])
        monkeypatch.setattr(harness, "SIGN_ROWS_MAX", rows)
        assert len(harness._rosenthal_rows(np.arange(1.0, 13.0), 3, [4, 6])) == 2

    @pytest.mark.parametrize("n, p", [(16, 4), (16, 3), (4, 6), (4, 4), (4, 2)])
    def test_profile_refused_one_byte_below_its_price(self, n, p, monkeypatch):
        rng = np.random.default_rng(31)
        mats = [rng.standard_normal((3, 2)) for _ in range(n)]
        price = harness._xp_route_bytes(n, 3, 2, p)
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", price - 1)
        monkeypatch.setattr(harness, "_monte_carlo_average", _no_draw)
        with pytest.raises(ValueError, match="route arrays.*LATTICE_MAX_BYTES"):
            xp_linear_profile(mats, p, [1], seed=0)
        monkeypatch.undo()
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", price)
        assert xp_linear_profile(mats, p, [1], seed=0)[1][0] > 0

    @pytest.mark.parametrize("p", [1.5, 2, 3, 4, 6])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (2, 5), (5, 2)])
    def test_price_bounds_the_traced_peak(self, p, shape):
        """Both routes, exhaustive and Monte Carlo: the peak of a profile over its
        input stays below its price and 64 KiB of small tables."""
        rng = np.random.default_rng(32)
        for n, ks in ((13, [1, 4, 13]), (15, [2, 15]), (3, [1, 3])):
            mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in range(n)]
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    xp_linear_profile(mats, p, ks, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= harness._xp_route_bytes(n, *shape, p) + 2 ** 16


def _forced_xp_profile(monkeypatch, route, mats, p, ks):
    monkeypatch.setattr(harness, "_xp_route", lambda n, p: route)
    return xp_linear_profile(mats, p, ks, seed=0)


class TestSignPairRoutes:
    """Even-p sign averages from index pairings against the sign tables they skip."""

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3)])
    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    @pytest.mark.parametrize("p", [2, 4])
    def test_xp_pairs_match_sign_tables(self, p, n, shape, monkeypatch):
        rng = np.random.default_rng(300 + 10 * n + p)
        mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(n)]
        ks = list(range(1, n + 1))
        pairs = _forced_xp_profile(monkeypatch, "pairs", mats, p, ks)
        signs = _forced_xp_profile(monkeypatch, "signs", mats, p, ks)
        for k in ks:
            assert pairs[k][0] == pytest.approx(signs[k][0], rel=1e-12, abs=0)
            assert pairs[k][1] == pytest.approx(signs[k][1], rel=1e-12, abs=0)
            assert not pairs[k][2] and not signs[k][2]

    @pytest.mark.parametrize("n", [65, 100])
    @pytest.mark.parametrize("p", [2, 4])
    def test_index_words_past_64_indices(self, n, p):
        """The packed index masks count unions past an int64 word's 64 bits."""
        rng = np.random.default_rng(n + p)
        mats = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        means = harness._gram_pair_means(mats, p)
        for k in (1, 2):
            exact = harness._sign_mean(mats, p, k, None)
            assert means[k - 1] == pytest.approx(exact, rel=1e-12, abs=0)

    def test_pairs_need_no_numpy_2_popcount(self, monkeypatch):
        """pyproject allows numpy 1.24, which has no np.bitwise_count."""
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        c = np.arange(1.0, 6.0)
        assert harness._xp_route(len(c), 4) == "pairs"
        # ||sum eps_j c_j I_2||_4^4 = 2 (sum eps_j c_j)^4, of mean 2 (3 (sum c^2)^2 - 2 sum c^4)
        lhs = xp_linear_profile([z * np.eye(2) for z in c], 4, [5])[5][0]
        assert lhs == pytest.approx(2 * (3 * np.sum(c ** 2) ** 2 - 2 * np.sum(c ** 4)), rel=1e-12)

    @pytest.mark.parametrize("n, p, route", [
        (14, 2, "pairs"), (14, 4, "pairs"), (6, 4, "pairs"), (1, 2, "pairs"), (1, 4.0, "pairs"),
        (14, 6, "signs"), (3, 6, "signs"), (14, 8, "signs"), (1, 2e300, "signs"),
        (14, 3, "signs"), (14, 4.5, "signs"), (15, 4, "signs"), (16, 2, "signs")])
    def test_xp_route_rule(self, n, p, route):
        """Index words at p = 2 and 4 for every n up to the sign cap, sign tables else."""
        assert harness._xp_route(n, p) == route

    @pytest.mark.parametrize("n, p, route", [
        (14, 2, "pairs"), (14, 6, "pairs"), (40, 4, "pairs"), (14, 3, "signs"),
        (14, 2.5, "signs"), (1, 2e300, "signs"), (200, 8, "signs"), (30, 6, "pairs"),
        (14, 8, "pairs"), (14, 20, "signs")])
    def test_rosenthal_route_rule(self, n, p, route):
        assert harness._rosenthal_route(n, p) == route

    @pytest.mark.parametrize("q", range(1, 8))
    def test_unit_key_pairs_are_the_joined_pairs(self, q):
        """The count that prices rosenthal's join is the number of pairs its plan joins
        for the unit keys of Z_2^n, n = 1..12 (at q = 1 each key with itself alone)."""
        for n in range(1, 13):
            plan = harness._pair_plan(np.eye(n, dtype=np.int64)[None], np.full(n, 2), q)
            assert harness._unit_key_pairs(n, q) == len(plan.bins)

    @pytest.mark.parametrize("n, p", [(30, 6), (14, 8)])
    def test_rosenthal_pairs_past_the_pair_bound(self, n, p):
        """Inputs whose joined pairs the bound n^(2q - 1) priced past the budget take
        key pairs and match the sign enumeration."""
        rng = np.random.default_rng(n + p)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for row in harness._rosenthal_rows(coeffs, p, [1, 2, 3]):
            exact = harness._sign_mean(coeffs[:, None, None], p, row.k, None)
            assert row.extra["route"] == "pairs"
            assert row.lhs ** p == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 4])
    def test_scalar_matrices_match_rosenthal_and_naor(self, p):
        """At d = 1 the xp_linear lhs is rosenthal's lhs^p and naor's walsh lhs on the
        hypercube's linear span."""
        rng = np.random.default_rng(31)
        n = 8
        group, cocycle = hypercube_pair(n)
        f = sample_element(group, cocycle, EnsembleSpec("linear_span"), rng)
        coeffs = [f.coeffs[tuple(int(i == j) for i in range(n))] for j in range(n)]
        ks = list(range(1, n + 1))
        xp = xp_linear_profile([np.array([[z]]) for z in coeffs], p, ks)
        naor = naor_profile(f, cocycle, [p], ks, "walsh")[p]
        for k in ks:
            scalar = rosenthal_linear_ratio(coeffs, p, k).lhs ** p
            assert xp[k][0] == pytest.approx(scalar, rel=1e-12)
            assert naor[k][0] == pytest.approx(scalar, rel=1e-12)

    @pytest.mark.parametrize("p", [6, 8])
    def test_rosenthal_pairs_match_the_sign_enumeration(self, p):
        """Above p = 4 the pair route's merges hold up to q! orderings of one multiset."""
        rng = np.random.default_rng(43)
        n = 6
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert harness._rosenthal_route(n, p) == "pairs"
        for row in harness._rosenthal_rows(coeffs, p, range(1, n + 1)):
            exact = harness._sign_mean(coeffs[:, None, None], p, row.k, None)
            assert row.lhs ** p == pytest.approx(exact, rel=1e-12)

    def test_rosenthal_past_the_sign_cap_matches_the_fourth_moment(self):
        """For fixed S, E|sum_S eps_j a_j|^4 = 2 (sum |a|^2)^2 + |sum a^2|^2 - 2 sum |a|^4;
        averaged over S, a product of two distinct indices survives with odds
        k (k - 1) / (n (n - 1)) and a single index with k / n."""
        rng = np.random.default_rng(41)
        n, k = 20, 16
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pair, single = k * (k - 1) / (n * (n - 1)), k / n
        squares, fourth = np.abs(a) ** 2, np.abs(a) ** 4

        def averaged(x, y):         # E_S (sum_S x)(sum_S y)
            return pair * (x.sum() * y.sum() - (x * y).sum()) + single * (x * y).sum()

        moment = (2 * averaged(squares, squares) + averaged(a * a, (a * a).conj()).real
                  - 2 * single * fourth.sum())
        assert harness._rosenthal_route(n, 4) == "pairs"
        assert rosenthal_linear_ratio(a, 4, k).lhs ** 4 == pytest.approx(moment, rel=1e-12)
        with pytest.raises(ValueError, match="capped at k = 14"):
            rosenthal_linear_ratio(a, 3, k)

    @pytest.mark.parametrize("experiment, params, route", [
        ("rosenthal", dict(n=14, p=6, ks=[1, 7, 14]), "pairs"),
        ("rosenthal", dict(n=6, p=3, ks=[2, 5]), "signs"),
        ("xp_linear", dict(n=14, d=2, p=4, ks=[2, 14]), "pairs"),
        ("xp_linear", dict(n=5, d=2, p=6, ks=[1, 3]), "signs"),
        ("xp_linear", dict(n=15, d=2, p=2, ks=[2, 15]), "signs")])
    def test_reports_name_their_route_and_reevaluate_exactly(self, experiment, params, route):
        report = scan(experiment, trials=3, seed=5, **params).to_json()
        assert report["extra"]["route"] == route
        assert reevaluate_witness(report) == {key: report[key] for key in ("lhs", "rhs", "ratio")}
        report["extra"]["route"] = "signs" if route == "pairs" else "pairs"
        with pytest.raises(ValueError, match="names the"):
            reevaluate_witness(report)

    def test_xp_ratio_names_its_route(self):
        mats = [np.eye(2) * (j + 1) for j in range(7)]
        assert xp_linear_ratio(mats, 4, 3).extra == {"route": "pairs"}
        assert xp_linear_ratio(mats, 3, 3).extra == {"route": "signs"}

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_rows_do_not_depend_on_the_other_ks(self, p):
        rng = np.random.default_rng(51)
        n = 9
        coeffs = list(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        mats = [rng.standard_normal((2, 2)) for _ in range(n)]
        ks = list(range(1, n + 1))
        together = dict(zip(ks, harness._rosenthal_rows(coeffs, p, ks)))
        profile = xp_linear_profile(mats, p, ks)
        for k in ks:
            assert harness._rosenthal_rows(coeffs, p, [k]) == [together[k]]
            assert xp_linear_profile(mats, p, [k])[k] == profile[k]
            assert xp_linear_profile(mats, p, [k, 1])[k] == profile[k]


def _gram_pair_means_per_call(mats, p):
    """``harness._gram_pair_means`` with its index words built and joined for the call,
    the values summed in the join: the reference for the cached index words."""
    n, rows, cols = mats.shape
    if rows < cols:
        mats = np.swapaxes(mats, 1, 2)
    q = int(p) // 2
    a, b = np.indices((n, n)).reshape(2, -1) if q == 2 else (np.arange(n),) * 2
    masks = np.packbits(np.eye(n, dtype=bool)[:, ::-1], axis=1)
    width = masks.shape[1]
    table = np.concatenate([masks[a] ^ masks[b], masks[a] | masks[b]], axis=1).astype(np.int64)
    gram = np.conj(np.swapaxes(mats[a], 1, 2)) @ mats[b]
    if q == 1:
        traces, unions = np.einsum("pii->p", gram).real, table[:, width:]
    else:
        table, order, labels, left, right = harness._join_plan(table, width)
        gram = np.add.reduceat(gram[order], np.flatnonzero(np.diff(labels, prepend=-1)))
        traces = np.einsum("pij,pji->p", gram[left], gram[right]).real
        unions = table[left, width:] | table[right, width:]
    sizes = harness._BYTE_BITS[unions].sum(axis=1)
    return harness._subset_means(np.bincount(sizes, traces, minlength=n + 1))


def _fail_join(*args, **kwargs):
    raise AssertionError("a cached plan was joined again")


class TestCachedPlans:
    """Rosenthal's unit-key pairs and xp_linear's index words are planned once per
    (n, q) or n, read-only, and applied with the same arithmetic as a per-call join."""

    @staticmethod
    def _coeffs(n, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))

    @pytest.mark.parametrize("q", range(2, 8))
    def test_unit_key_plan_matches_the_per_call_join(self, q):
        """Bit for bit, n = 1..15 and (30, 3); the (n, q) of more than 2^20 joined pairs
        (n >= 12 at q = 7, n = 15 at q = 6) are left out, as each holds over 130 MB."""
        for n in [*range(1, 16), 30] if q == 3 else range(1, 16):
            if harness._unit_key_pairs(n, q) > 2 ** 20:
                continue
            coeffs = self._coeffs(n, 10 * n + q)
            cached = harness._pair_sums(harness._unit_key_plan(n, q), coeffs)
            per_call = harness._key_pairs(np.eye(n, dtype=np.int64)[None], coeffs,
                                          np.full(n, 2), 2 * q)
            assert np.array_equal(cached[0], per_call[0])
            assert cached[1:] == per_call[1:]
        harness._unit_key_plan.cache_clear()

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    def test_index_words_match_the_per_call_join(self, p, shape):
        for n in [*range(1, 15), 65, 100]:
            rng = np.random.default_rng(n + p)
            mats = rng.standard_normal((n, *shape)) + 1j * rng.standard_normal((n, *shape))
            assert np.array_equal(harness._gram_pair_means(mats, p),
                                  _gram_pair_means_per_call(mats, p))
        harness._index_words.cache_clear()

    def test_a_second_call_joins_nothing(self, monkeypatch):
        coeffs = self._coeffs(14, 0)[0]
        mats = np.random.default_rng(1).standard_normal((14, 3, 3))
        rows = harness._rosenthal_rows(coeffs, 6, [1, 7, 14])
        profile = xp_linear_profile(mats, 4, [1, 7, 14])
        monkeypatch.setattr(harness, "_join_plan", _fail_join)
        monkeypatch.setattr(np, "lexsort", _fail_join)
        assert harness._rosenthal_rows(coeffs, 6, [1, 7, 14]) == rows
        assert xp_linear_profile(mats, 4, [1, 7, 14]) == profile

    def test_interleaved_keys_reproduce_their_values(self):
        """One slot per plan kind: each (n, q) or n evicts the last and is rebuilt."""
        cases = [(n, p, self._coeffs(n, n + p)[0]) for n, p in ((14, 6), (10, 4), (14, 8))]
        first = [harness._rosenthal_rows(c, p, [1, 3, n]) for n, p, c in cases]
        mats = {n: np.random.default_rng(n).standard_normal((n, 2, 2)) for n in (9, 14)}
        words = {n: harness._gram_pair_means(m, 4) for n, m in mats.items()}
        for _ in range(2):
            for (n, p, c), rows in zip(cases, first):
                assert harness._rosenthal_rows(c, p, [1, 3, n]) == rows
                for m, x in mats.items():
                    assert np.array_equal(harness._gram_pair_means(x, 4), words[m])
        assert harness._unit_key_plan.cache_info().currsize == 1
        assert harness._index_words.cache_info().currsize == 1

    def test_cached_arrays_are_read_only(self):
        plans = [*harness._unit_key_plan(9, 3), *harness._index_words(9)]
        arrays = [array for array in plans if isinstance(array, np.ndarray)]
        assert len(arrays) == 8 + 7
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_a_cached_key_is_still_refused_past_the_budget(self, monkeypatch):
        """Pricing runs before the cache is read: below a cached (n, q)'s price rosenthal
        takes the sign route, which refuses k = 20, and xp_linear refuses its route."""
        coeffs = self._coeffs(30, 3)[0]
        assert harness._rosenthal_rows(coeffs, 6, [20])[0].extra["route"] == "pairs"
        mats = np.random.default_rng(2).standard_normal((14, 2, 2))
        xp_linear_profile(mats, 4, [1])
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", harness._pair_route_bytes(
            30, 3, math.comb(32, 3), harness._unit_key_pairs(30, 3)) - 1)
        with pytest.raises(ValueError, match="capped at k = 14"):
            harness._rosenthal_rows(coeffs, 6, [20])
        assert harness._rosenthal_rows(coeffs, 6, [2])[0].extra["route"] == "signs"
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", harness._xp_route_bytes(14, 2, 2, 4) - 1)
        with pytest.raises(ValueError, match="pairs route arrays.*LATTICE_MAX_BYTES"):
            xp_linear_profile(mats, 4, [1])


class TestRosenthal:
    def test_single_basis_coefficient(self):
        for n, k, p in [(4, 2, 4), (5, 3, 2), (6, 6, 6)]:
            result = rosenthal_linear_ratio([1] + [0] * (n - 1), p, k)
            assert result.lhs ** p == pytest.approx(k / n, rel=1e-12)

    def test_all_ones_p2(self):
        result = rosenthal_linear_ratio([1] * 6, 2, 4)
        assert result.lhs == pytest.approx(math.sqrt(4))

    def test_full_k_p2_is_l2_norm(self):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        result = rosenthal_linear_ratio(coeffs, 2, 5)
        assert result.lhs == pytest.approx(float(np.linalg.norm(coeffs)))

    def test_two_sided_fields(self):
        result = rosenthal_linear_ratio([1.0, 2.0, 3.0], 4, 2)
        assert result.extra["lhs_over_rhs"] == pytest.approx(result.lhs / result.rhs)
        assert result.extra["rhs_over_lhs"] == pytest.approx(result.rhs / result.lhs)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rosenthal_linear_ratio([0, 0, 0], 4, 2)

    @pytest.mark.parametrize("coeffs, named", [
        ([], "n must be >= 1, got 0"),
        ([1.0, math.nan, 2.0], "coefficients must be finite"),
        ([1.0, complex(0, math.inf)], "coefficients must be finite")])
    @pytest.mark.parametrize("p", [3, 4])
    def test_bad_coefficients_refused_by_name(self, coeffs, named, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                rosenthal_linear_ratio(coeffs, p, 1)

    def test_underflowed_lhs_refused(self):
        """|sum_j eps_j a_j|^p underflows to an lhs of 0, while the rhs keeps its
        square-function term; the exact lhs is positive."""
        with pytest.raises(ValueError, match="at p = 100000.0 the sides leave the float range"):
            rosenthal_linear_ratio([1e-3, 2e-3, -1e-3], 1e5, 2)

    @pytest.mark.parametrize("p", [2001, 1e308])
    def test_overflowing_p_refused_without_a_warning(self, p):
        """|sum_j eps_j a_j|^p and sum |a_j|^p overflow on the sign route; the rows
        refuse the p by name, and numpy's overflow warning is not raised first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the sides leave the float range"):
                rosenthal_linear_ratio([3.0, -2.0, 1.5], p, 2)

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
        for n, k in ((3, 4), (3, 0), (1, 2)):
            with pytest.raises(ValueError, match=f"need 1 <= k <= n, got k={k}, n={n}"):
                moment_checks(n, k, 4)

    def test_moments_against_atom_enumeration(self):
        """Cross-check the subset-only computation on the full (eps, S) space, where
        sigma_j(eps, S) = eps_j 1_{j in S} and every atom weighs 1 / (2^n C(n, k))."""
        def sigma(j, eps, subset):
            return eps[j - 1] if j in subset else 0

        for n, k in ((4, 2), (3, 1), (5, 3), (4, 4)):
            atoms = [(eps, subset) for eps in itertools.product((1, -1), repeat=n)
                     for subset in itertools.combinations(range(1, n + 1), k)]
            for p in (2, 4, 6):
                report = moment_checks(n, k, p)
                for j in range(1, n + 1):
                    brute = Fraction(sum(abs(sigma(j, eps, subset)) ** p
                                         for eps, subset in atoms), len(atoms))
                    assert brute == report["sigma_expected"]
                assert report["sigma_moment"] == report["sigma_expected"] and report["passed"]
                brute_square = Fraction(
                    sum(sum(sigma(j, eps, subset) ** 2 for j in range(1, n + 1)) ** (p // 2)
                        for eps, subset in atoms), len(atoms))
                assert brute_square == report["square_moment"] == report["square_expected"]
            brute_square = sum(sum(sigma(j, eps, subset) ** 2 for j in range(1, n + 1)) ** 1.5
                               for eps, subset in atoms) / len(atoms)
            assert moment_checks(n, k, 3)["square_moment"] == pytest.approx(brute_square,
                                                                             rel=1e-14)


class TestRieszEquivalence:
    def test_exact_one_at_p2(self):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
            result = riesz_equivalence_ratio(f, 2, cocycle)
            assert result.ratio == pytest.approx(1.0, abs=1e-9)

    def test_single_character_all_p(self):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement.lam(group, (1, 2))
        for p in (2, 3, 4, 6):
            result = riesz_equivalence_ratio(f, p, cocycle)
            assert result.ratio == pytest.approx(1.0, abs=1e-9)

    def test_p4_finite(self):
        group = GroupDescriptor.finite_abelian([4, 4])
        cocycle = build_cocycle("cyclic_word", group)
        rng = np.random.default_rng(10)
        f = sample_element(group, cocycle, EnsembleSpec("gaussian"), rng)
        result = riesz_equivalence_ratio(f, 4, cocycle)
        assert np.isfinite(result.ratio) and np.isfinite(result.extra["inverse_ratio"])

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
        assert result.rhs == pytest.approx(expected, rel=1e-12)


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
            assert result.lhs == pytest.approx(lhs, rel=1e-12)
            assert result.rhs == pytest.approx(rhs, rel=1e-12)
            assert result.ratio == pytest.approx(lhs / rhs, rel=1e-12)
            assert result.extra["inverse_ratio"] == pytest.approx(rhs / lhs, rel=1e-12)
            assert set(result.extra) == {"inverse_ratio", "two_sided_spread"}

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
        assert riesz_equivalence_ratio(f, 4, cocycle).ratio == pytest.approx(1.0)


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
    assert riesz_equivalence_ratio(f, 2, cocycle).ratio == pytest.approx(1.0, rel=1e-12)


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

    @pytest.mark.parametrize("params", [
        dict(family="hypercube", n=5, ps=[2, 4], ks=[1, 3], derivative="walsh"),
        dict(family="torus", n=2, bound=2, ps=[3, 4], ks=[1, 2], derivative="euclidean")],
        ids=["hypercube", "torus"])
    def test_naor_witness_reevaluates_without_serializing(self, monkeypatch, params):
        """The rerun reads the (p, k) row from the sides alone: no element is written
        to JSON again, and the numbers are naor_ratio's to the bit."""
        data = scan("naor", EnsembleSpec("gaussian"), trials=3, seed=2, **params).to_json()
        witness = data["witness"]
        f = GroupAlgebraElement.from_json(witness["f"])
        cocycle = build_cocycle(witness["family"], f.group, witness["weights"])
        direct = naor_ratio(f, cocycle, witness["p"], witness["k"], witness["derivative"])

        def refuse(self):
            raise AssertionError("the witness was serialized again")

        monkeypatch.setattr(GroupAlgebraElement, "to_json", refuse)
        assert reevaluate_witness(data) == {"lhs": direct.lhs, "rhs": direct.rhs,
                                            "ratio": direct.ratio}

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
                lambda rng: next(scores),
                harness._each(lambda score: [harness.Row(score, 1.0, 1.0, 1.0)]),
                lambda score, row: {"score": score}),
            lambda report: None)
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

    @pytest.mark.parametrize("experiment, params", [
        ("naor", {"n": 4, "kk": 3}),
        ("rosenthal", {"n": 4, "d": 7}),
        ("xp_linear", {"n": 3, "bound": 9}),
        ("riesz_equivalence", {"n": 2, "derivative": "walsh"}),
        ("free_identities", {"rank": 2, "p": 3}),
    ])
    def test_param_the_experiment_does_not_read_refused(self, experiment, params):
        unread = [key for key in params if key not in ("n", "rank")]
        with pytest.raises(ValueError, match=re.escape(f"does not read the params {unread}")):
            scan(experiment, trials=1, **params)

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
            assert profile[p][k][0] == pytest.approx(scalar.lhs ** p, abs=1e-10)

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


def _traced_scan(monkeypatch, spec, trials, seed, **params):
    """A naor scan with every row it ranked, in ranking order."""
    ranked = []
    record = harness.EXPERIMENTS["naor"]

    def bind(*args):
        sample, evaluate, witness = record.bind(*args)
        return (sample, lambda draws: ((x, ranked.extend(rows) or rows)
                                       for x, rows in evaluate(draws)), witness)

    monkeypatch.setitem(harness.EXPERIMENTS, "naor", dataclasses.replace(record, bind=bind))
    return scan("naor", spec, trials=trials, seed=seed, **params), ranked


def _same_numbers(report):
    return reevaluate_witness(report) == {key: getattr(report, key)
                                          for key in ("lhs", "rhs", "ratio")}


#: relative gap, on the scale of the rhs, allowed between a batched scan row and
#: ``naor_profile`` of the same draw
BATCH_RTOL = 1e-14


class TestBatchedScans:
    """naor scans evaluate consecutive key-pair draws as one batch."""

    @pytest.mark.parametrize("ps", [[2, 4], [2, 4, 6]])
    @pytest.mark.parametrize("family, n, modulus, derivative", [
        ("hypercube", 4, 2, "walsh"), ("hypercube", 4, 2, "absorbent"),
        ("hypercube", 7, 2, "walsh"), ("hypercube", 7, 2, "absorbent"),
        ("hypercube", 10, 2, "walsh"), ("hypercube", 10, 2, "absorbent"),
        ("cyclic", 4, 4, "absorbent"), ("cyclic", 4, 6, "absorbent")])
    def test_rows_match_per_trial_profiles(self, monkeypatch, family, n, modulus, derivative, ps):
        """Trial t's rows are naor_profile of the t-th sample_element draw from
        default_rng(seed), and the witness re-evaluates to the same bits."""
        spec, ks, trials = EnsembleSpec("sparse", sparsity=6), list(range(1, n + 1)), 7
        report, ranked = _traced_scan(monkeypatch, spec, trials, n, family=family, n=n,
                                      modulus=modulus, ps=ps, ks=ks, derivative=derivative)
        group = GroupDescriptor.finite_abelian([modulus] * n)
        cocycle = build_cocycle("cyclic_word", group)
        rng = np.random.default_rng(n)
        expected = [(p, k, *naor_profile(f, cocycle, ps, ks, derivative)[p][k])
                    for f in (sample_element(group, cocycle, spec, rng) for _ in range(trials))
                    for p in ps for k in ks]
        assert [(row.p, row.k) for row in ranked] == [row[:2] for row in expected]
        for row, (_, _, lhs, rhs) in zip(ranked, expected):
            assert abs(row.lhs - lhs) <= BATCH_RTOL * rhs
            assert abs(row.rhs - rhs) <= BATCH_RTOL * rhs
        assert _same_numbers(report)

    @pytest.mark.parametrize("spec", [EnsembleSpec("sparse", sparsity=6), EnsembleSpec("gaussian")],
                             ids=["sparse", "gaussian"])
    @pytest.mark.parametrize("params", [
        dict(family="hypercube", n=7, derivative="walsh"),
        dict(family="hypercube", n=10, derivative="absorbent"),
        dict(family="cyclic", modulus=4, n=4), dict(family="cyclic", modulus=6, n=3),
        dict(family="torus", n=2, bound=2, derivative="absorbent")],
        ids=["cube7", "cube10", "z4^4", "z6^3", "torus"])
    def test_every_witness_reevaluates_exactly(self, spec, params):
        for seed, ps in itertools.product(range(3), ([2, 4], [2, 4, 6])):
            assert _same_numbers(scan("naor", spec, trials=4, seed=seed, ps=ps, ks=[1, 2],
                                      **params))

    def test_draws_are_unchanged(self, monkeypatch):
        """The scan draws trial t as the t-th sample_element call on default_rng(seed)."""
        drawn = []
        real_sample = harness.sample_element
        monkeypatch.setattr(harness, "sample_element",
                            lambda *args: drawn.append(real_sample(*args)) or drawn[-1])
        spec = EnsembleSpec("sparse", sparsity=6)
        report = scan("naor", spec, trials=9, seed=3, family="hypercube", n=7, ps=[2, 4],
                      ks=[1, 2], derivative="walsh")
        group, cocycle = hypercube_pair(7)
        rng = np.random.default_rng(3)
        replayed = [real_sample(group, cocycle, spec, rng).to_json() for _ in range(9)]
        assert [f.to_json() for f in drawn] == replayed
        assert report.witness["f"] in replayed

    def test_split_batches_give_the_same_report(self, monkeypatch):
        """One join per p serves a short scan; a budget of two trials' planned bytes
        splits it into batches of 2, 2, 2, 2 and 1, and a cap of 4 draws into 4, 4 and
        1, each with a byte-identical report."""
        joins = []
        real_pairs = harness._key_pairs
        monkeypatch.setattr(harness, "_key_pairs",
                            lambda *args: joins.append(len(args[0])) or real_pairs(*args))

        def report():
            data = scan("naor", EnsembleSpec("sparse", sparsity=6), trials=9, seed=4,
                        family="hypercube", n=7, ps=[2, 4], ks=list(range(1, 8)),
                        derivative="absorbent").to_json()
            data.pop("runtime_ms")
            return json.dumps(data, sort_keys=True)

        whole = report()
        assert joins == [9, 9]
        joins.clear()
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES",
                            2 * harness._pair_route_bytes(7, 2, 36, 216))
        assert report() == whole
        assert joins == [2, 2] * 4 + [1, 1]
        joins.clear()
        monkeypatch.setattr(harness, "LATTICE_MAX_BYTES", LATTICE_MAX_BYTES)
        monkeypatch.setattr(harness, "SCAN_BATCH_DRAWS", 4)
        assert report() == whole
        assert joins == [4, 4, 4, 4, 1, 1]

    def test_mixed_routes_keep_the_first_maximum(self, monkeypatch):
        """Draws of 2, 6 and 3 keys in turn on a hypercube n = 4: the 6-key draws plan the
        grid, the others key pairs in batches that mix key counts.  The report is the
        first maximum of the rows in trial order, as per-trial profiles rank them."""
        sizes = itertools.cycle([2, 6, 3])
        real_sample = harness.sample_element
        monkeypatch.setattr(harness, "sample_element", lambda group, cocycle, spec, rng:
                            real_sample(group, cocycle, EnsembleSpec("sparse", sparsity=next(sizes)),
                                        rng))
        ps, ks = [2, 4], [1, 2, 3, 4]
        report = scan("naor", EnsembleSpec("sparse", sparsity=6), trials=12, seed=8,
                      family="hypercube", n=4, ps=ps, ks=ks, derivative="walsh")
        group, cocycle = hypercube_pair(4)
        rng = np.random.default_rng(8)
        best = winner = None
        routes = set()
        for trial in range(12):
            f = real_sample(group, cocycle, EnsembleSpec("sparse", sparsity=(2, 6, 3)[trial % 3]),
                            rng)
            route, profile = _route_and_profile(f, cocycle, ps, ks, "walsh")
            routes.add((len(f.coeffs), route))
            for p, k in itertools.product(ps, ks):
                ratio = profile[p][k][0] / profile[p][k][1]
                if best is None or ratio - best > harness.SCORE_TIE_RTOL * abs(best):
                    best, winner = ratio, (f.to_json(), p, k)
        assert routes == {(2, "pairs"), (6, "grid"), (3, "pairs")}
        assert report.ratio == best
        assert (report.witness["f"], report.witness["p"], report.witness["k"]) == winner
        assert _same_numbers(report)

    def test_each_batch_runs_one_plan(self, monkeypatch):
        """The 2/6/3-key sampler of the test above, in runs of 2, 2, 6, 6, 3, 3 and 3 keys:
        each ``_naor_rows`` call gets draws of one key count on one plan, a run of equal
        draws shares a call, and the report is byte for byte that of batches of one."""
        sizes = itertools.cycle([2, 2, 6, 6, 3, 3, 3])
        real_sample, real_rows = harness.sample_element, harness._naor_rows
        monkeypatch.setattr(harness, "sample_element", lambda group, cocycle, spec, rng:
                            real_sample(group, cocycle, EnsembleSpec("sparse", sparsity=next(sizes)),
                                        rng))
        batches = []

        def rows(fs, plan, *args):
            batches.append(({len(f.coeffs) for f in fs}, plan.route, len(fs)))
            return real_rows(fs, plan, *args)

        monkeypatch.setattr(harness, "_naor_rows", rows)

        def report():
            data = scan("naor", EnsembleSpec("sparse", sparsity=6), trials=14, seed=8,
                        family="hypercube", n=4, ps=[2, 4], ks=[1, 2, 3, 4],
                        derivative="walsh").to_json()
            data.pop("runtime_ms")
            return json.dumps(data, sort_keys=True)

        batched = report()
        assert batches == [({2}, "pairs", 2), ({6}, "grid", 2), ({3}, "pairs", 3)] * 2
        monkeypatch.setattr(harness, "SCAN_BATCH_DRAWS", 1)
        assert report() == batched
        assert len(batches) == 6 + 14 and all(size == 1 for *_, size in batches[6:])


_SPARSE3, _GAUSSIAN = EnsembleSpec("sparse", sparsity=3), EnsembleSpec("gaussian")
_CUBE4 = dict(family="hypercube", n=4, ps=[2, 4], ks=[1, 2, 3, 4])

#: (experiment, ensemble, params, route, torus grid, sha256 prefix of the witness's
#: sorted JSON, lhs, rhs, ratio) of 4-trial scans at seed 11, recorded before the
#: experiments shared one rows function each
GOLDEN_SCANS = [
    ("naor", _SPARSE3, dict(_CUBE4, derivative="walsh"), "pairs", None, "1a928822eb6bfd99",
     4.003455387517903, 27.343743889539667, 0.14641211546197308),
    ("naor", _GAUSSIAN, dict(_CUBE4, derivative="walsh"), "grid", None, "8a7a3274c06b4f42",
     18.000302914527786, 157.16490430700657, 0.1145313134245666),
    ("naor", _SPARSE3, dict(_CUBE4, derivative="absorbent"), "pairs", None, "7cbed3f05e89813b",
     5.709757065402991, 10.486585555909706, 0.5444819989272164),
    ("naor", _GAUSSIAN, dict(_CUBE4, derivative="absorbent"), "grid", None, "7af1498171591ed0",
     1209.876501218606, 3116.6717706782265, 0.3881950331123004),
    ("naor", _SPARSE3, dict(family="cyclic", n=2, modulus=6, ps=[3], ks=[1, 2],
                            derivative="absorbent"), "grid", None, "a32d3bac615fa83d",
     9.23854728148026, 30.14590019469143, 0.30646115132787216),
    ("naor", _SPARSE3, dict(family="torus", n=2, bound=1, ps=[2, 4], ks=[1, 2],
                            derivative="euclidean"), "grid", 5, "d6af9573b6f99cba",
     0.382218416100627, 15.47159666299724, 0.024704523031857634),
    ("xp_linear", _GAUSSIAN, dict(n=4, d=2, p=4, ks=[1, 2, 3, 4]), "pairs", None,
     "e8cbe7e11c155b90", 106.07759302504387, 130.80129915152816, 0.810982717397609),
    ("xp_linear", _GAUSSIAN, dict(n=4, d=2, p=3, ks=[1, 2]), "signs", None,
     "cd27a87476005e6e", 24.836850439442646, 42.056845410674846, 0.5905542890085277),
    ("rosenthal", _GAUSSIAN, dict(n=5, p=4, ks=[1, 2, 3, 4, 5]), "pairs", None,
     "736e051139d3e833", 1.1211394487638866, 2.21100554970769, 0.5070722002086828),
    ("rosenthal", _GAUSSIAN, dict(n=5, p=3, ks=[1, 2, 3]), "signs", None,
     "e234e4e7b6472c48", 1.1058501772441298, 2.195716278187934, 0.5036398318988455),
    ("riesz_equivalence", _GAUSSIAN, dict(family="cyclic", n=2, modulus=4, p=4), None, None,
     "e625a5dbd1e3c578", 4.944969493723773, 4.4262166963972485, 1.11720004530026),
    ("free_identities", EnsembleSpec(sparsity=4), dict(rank=2, modulus=4), None, None,
     "6e6fae2a8f02de5f", 0.0, 1e-12, 0.0),
]


class TestScanOutcomes:
    @pytest.mark.parametrize("case", GOLDEN_SCANS, ids=lambda case: "-".join(
        str(part) for part in (case[0], case[2].get("derivative"), case[3]) if part))
    def test_golden_scans(self, case):
        experiment, spec, params, route, grid, digest, lhs, rhs, ratio = case
        report = scan(experiment, spec, trials=4, seed=11, **params)
        witness = json.dumps(report.witness, sort_keys=True).encode()
        assert hashlib.sha256(witness).hexdigest()[:16] == digest
        assert (report.extra.get("route"), report.extra.get("grid")) == (route, grid)
        for value, expected in ((report.lhs, lhs), (report.rhs, rhs), (report.ratio, ratio)):
            assert value == pytest.approx(expected, rel=1e-12, abs=0)
        assert reevaluate_witness(json.loads(json.dumps(report.to_json()))) == {
            "lhs": report.lhs, "rhs": report.rhs, "ratio": report.ratio}

    def test_memory_does_not_grow_with_trials(self):
        """A scan folds its rows as they arrive instead of keeping them."""
        params = dict(family="hypercube", n=10, ps=[2, 4], ks=list(range(1, 11)))
        spec = EnsembleSpec("sparse", sparsity=6)
        scan("naor", spec, trials=2, seed=0, **params)      # fill the module caches
        peaks = []
        for trials in (100, 1000):
            tracemalloc.start()
            try:
                scan("naor", spec, trials=trials, seed=0, **params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


def _single_run_reports():
    rng = np.random.default_rng(61)
    group, cocycle = hypercube_pair(5)
    f = sample_element(group, cocycle, EnsembleSpec("sparse", sparsity=4), rng)
    torus = GroupDescriptor.torus(2, 1)
    torus_cocycle = build_cocycle("torus_word", torus)
    g = sample_element(torus, torus_cocycle, EnsembleSpec("gaussian"), rng)
    z44 = GroupDescriptor.finite_abelian([4, 4])
    z44_cocycle = build_cocycle("cyclic_word", z44)
    h = sample_element(z44, z44_cocycle, EnsembleSpec("gaussian"), rng)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(5)]
    coeffs = list(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    return {
        "naor-walsh": naor_ratio(f, cocycle, 4, 2, "walsh"),
        "naor-torus-grid": naor_ratio(g, torus_cocycle, 3, 1, "euclidean"),
        "xp-pairs": xp_linear_ratio(mats, 4, 2),
        "xp-signs": xp_linear_ratio(mats, 3, 2),
        "rosenthal-pairs": rosenthal_linear_ratio(coeffs, 4, 3),
        "rosenthal-signs": rosenthal_linear_ratio(coeffs, 3, 3),
        "riesz-p2": riesz_equivalence_ratio(h, 2, z44_cocycle),
        "riesz-p4": riesz_equivalence_ratio(g, 4, torus_cocycle),
    }


class TestSingleRunReports:
    @pytest.mark.parametrize("name", list(_single_run_reports()))
    def test_witness_reevaluates_through_json(self, name):
        report = _single_run_reports()[name]
        data = json.loads(json.dumps(report.to_json()))
        assert reevaluate_witness(data) == {"lhs": report.lhs, "rhs": report.rhs,
                                            "ratio": report.ratio}

    def test_two_sided_extras(self):
        reports = _single_run_reports()
        for name in ("rosenthal-pairs", "rosenthal-signs"):
            report = reports[name]
            assert report.experiment == "rosenthal"
            assert report.extra["route"] == name.split("-")[1]
            assert report.ratio == report.extra["lhs_over_rhs"] == report.lhs / report.rhs
            assert report.extra["rhs_over_lhs"] == report.rhs / report.lhs
            assert report.extra["two_sided_spread"] == max(report.ratio,
                                                           report.extra["rhs_over_lhs"])
        for name in ("riesz-p2", "riesz-p4"):
            report = reports[name]
            assert report.experiment == "riesz_equivalence"
            assert report.extra["inverse_ratio"] == report.rhs / report.lhs
            assert report.extra["two_sided_spread"] == max(report.ratio,
                                                           report.extra["inverse_ratio"])


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
        """Each is refused when the scan binds its params, before any draw."""
        with pytest.raises(ValueError, match=error):
            scan("naor", trials=1, **params)

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
        assert len(full.coeffs) == 2 ** 5 - 1
        sparse = sample_element(group, cocycle, EnsembleSpec("sparse", sparsity=4), rng)
        assert len(sparse.coeffs) == 4
        low = sample_element(group, cocycle, EnsembleSpec("chaos_degree", degree=2), rng)
        assert all(sum(key) <= 2 for key in low.coeffs)
        linear = sample_element(group, cocycle, EnsembleSpec("linear_span"), rng)
        assert all(sum(key) == 1 for key in linear.coeffs)

    def test_free_ensemble(self):
        group = GroupDescriptor.free_product(2, 4)
        cocycle = build_cocycle("free_product_word", group)
        rng = np.random.default_rng(15)
        f = sample_element(group, cocycle, EnsembleSpec(sparsity=5, word_length=3), rng)
        assert len(f.coeffs) == 5
        assert all(not w.is_identity for w in f.coeffs)

    def test_unknown_kind_rejected_on_construction(self):
        with pytest.raises(ValueError, match="unknown ensemble kind 'bogus'"):
            EnsembleSpec("bogus")

    @pytest.mark.parametrize("size", ["sparsity", "degree", "word_length"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected_on_construction(self, size, value):
        with pytest.raises(ValueError, match=f"{size} must be >= 1, got {value}"):
            EnsembleSpec("sparse", **{size: value})

    def test_free_ensemble_small_pool_terminates(self):
        group = GroupDescriptor.free_group(1)
        cocycle = build_cocycle("free_word", group)
        rng = np.random.default_rng(16)
        f = sample_element(group, cocycle, EnsembleSpec(sparsity=50, word_length=1), rng)
        assert 0 < len(f.coeffs) <= 50
