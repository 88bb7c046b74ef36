"""Length cocycles: Gromov forms, conditional negativity, bases, pairings."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from xpchaos import (GroupDescriptor, build_cocycle, completeness_defect,
                     conditional_negativity_check, enumerate_words, gram_matrix,
                     gromov_bilinear, gromov_form, spectral_gap,
                     weighted_hypercube)
from xpchaos import operators, words
from xpchaos.cli import _build_cli_cocycle
from xpchaos.cocycles import COCYCLE_FAMILIES, FAMILIES, BasisVector
from xpchaos.words import ReducedWord


def torus_word(n=2, bound=6):
    return build_cocycle("torus_word", GroupDescriptor.torus(n, bound))


def cyclic(modulus, n=2):
    return build_cocycle("cyclic_word", GroupDescriptor.finite_abelian([modulus] * n))


def free(n=2):
    return build_cocycle("free_word", GroupDescriptor.free_group(n))


def free_product(modulus, n=2):
    return build_cocycle("free_product_word", GroupDescriptor.free_product(n, modulus))


class TestGromovForm:
    def test_zn_word_same_direction(self):
        c = torus_word()
        defining = (c.psi((2, 0)) + c.psi((3, 0)) - c.psi((1, 0))) / 2
        assert gromov_form(c, (2, 0), (3, 0)) == 2 == defining

    def test_zn_word_opposite_signs(self):
        c = torus_word()
        assert gromov_form(c, (1, 0), (-1, 0)) == 0
        assert gromov_form(c, (1, 0), (-1, 0), method="defining") == 0

    def test_z4_antipodal_pair(self):
        c = cyclic(4, n=1)
        assert gromov_form(c, (1,), (3,)) == 0
        assert gromov_form(c, (1,), (3,), method="defining") == 0

    def test_euclidean_is_dot_product(self):
        c = build_cocycle("euclidean", GroupDescriptor.torus(2, 6))
        for g, h in itertools.product(itertools.product(range(-3, 4), repeat=2), repeat=2):
            assert gromov_form(c, g, h) == sum(x * y for x, y in zip(g, h))
            assert gromov_form(c, g, h, method="defining") == gromov_form(c, g, h)

    @pytest.mark.parametrize("modulus", [2, 4, 6])
    def test_cyclic_closed_equals_defining(self, modulus):
        c = cyclic(modulus)
        box = list(itertools.product(range(modulus), repeat=2))
        for g, h in itertools.product(box, repeat=2):
            assert gromov_form(c, g, h) == gromov_form(c, g, h, method="defining")

    @pytest.mark.parametrize("modulus", [3, 5, 7, 9])
    def test_odd_cyclic_closed_equals_defining_with_halves(self, modulus):
        c = build_cocycle("odd_cyclic_word",
                          GroupDescriptor.finite_abelian([modulus, modulus]))
        box = list(itertools.product(range(modulus), repeat=2))
        seen_half = False
        for g, h in itertools.product(box, repeat=2):
            value = gromov_form(c, g, h)
            assert value == gromov_form(c, g, h, method="defining")
            if isinstance(value, Fraction):
                seen_half = True
        assert seen_half  # the odd case genuinely produces half-integers

    def test_free_closed_equals_defining(self):
        c = free()
        sample = list(enumerate_words(2, 3))
        for g, h in itertools.product(sample, repeat=2):
            assert gromov_form(c, g, h) == gromov_form(c, g, h, method="defining")

    @pytest.mark.parametrize("modulus", [4, 6, 8])
    def test_free_product_closed_equals_defining(self, modulus):
        c = free_product(modulus)
        sample = list(enumerate_words(2, 3, modulus=modulus))
        for g, h in itertools.product(sample, repeat=2):
            assert gromov_form(c, g, h) == gromov_form(c, g, h, method="defining")

    def test_weighted_cube(self):
        c = weighted_hypercube([1.0, 2.0])
        assert gromov_form(c, (1, 1), (1, 0)) == pytest.approx(4.0)
        assert gromov_form(c, (1, 1), (1, 0), method="defining") == pytest.approx(4.0)


class TestConditionalNegativity:
    def test_word_length_on_z_sample(self):
        c = torus_word(n=1, bound=3)
        report = conditional_negativity_check(c, [(0,), (1,), (2,)], [1.0])
        assert report["passed"]
        # eigenvalue oracle for the 3x3 kernel exp(-|i-j|)
        kernel = np.exp(-np.abs(np.subtract.outer(range(3), range(3))))
        expected = np.linalg.eigvalsh(kernel).min()
        assert report["kernel_min_eigenvalues"][1.0] == pytest.approx(expected, abs=1e-12)
        assert expected > 0

    def test_invalid_length_fails(self):
        group = GroupDescriptor.finite_abelian([5])

        def bogus(g):
            return 0 if g == (0,) else -1.0

        report = conditional_negativity_check(bogus, [(g,) for g in range(5)],
                                              [10.0], group=group)
        assert not report["passed"]

    def test_identity_sample_trivially_passes(self):
        c = cyclic(4, n=1)
        report = conditional_negativity_check(c, [(0,)], [0.1, 1.0, 10.0])
        assert report["passed"]
        assert report["sample_size"] == 1

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            conditional_negativity_check(cyclic(4), [], [1.0])

    @pytest.mark.parametrize("factory", [
        lambda: build_cocycle("euclidean", GroupDescriptor.torus(2, 3)),
        lambda: torus_word(),
        lambda: cyclic(2, 3),
        lambda: cyclic(6),
        lambda: build_cocycle("odd_cyclic_word", GroupDescriptor.finite_abelian([5, 5])),
        lambda: free(),
        lambda: free_product(4),
        lambda: weighted_hypercube([0.5, 1.0, 2.0]),
    ])
    def test_all_builtin_families_pass(self, factory):
        from xpchaos.groups import random_group_elements
        cocycle = factory()
        rng = np.random.default_rng(42)
        sample = random_group_elements(cocycle.group, 12, rng)
        report = conditional_negativity_check(cocycle, sample, [0.1, 1.0, 10.0])
        assert report["passed"]


class TestPairing:
    def test_zn_word_indicator(self):
        c = torus_word()
        u = BasisVector("zword", j=1, ell=2)
        assert c.pairing((3, 1), u) == 1
        assert c.pairing((1, 1), u) == 0
        assert c.pairing((-3, 1), u) == 0

    def test_cyclic_window(self):
        c = cyclic(4)
        u = BasisVector("z2m", j=1, ell=1)
        assert c.pairing((3, 0), u) == 0
        assert c.pairing((1, 0), u) == 1
        assert c.pairing((2, 0), u) == 1

    def test_free_initial_chain(self):
        c = free()
        u = BasisVector("free", word=ReducedWord(((1, 1),)))
        assert c.pairing(ReducedWord(((2, 1), (1, 1))), u) == 0
        assert c.pairing(ReducedWord(((1, 1), (2, 1))), u) == 1

    def test_euclidean_coordinate(self):
        c = build_cocycle("euclidean", GroupDescriptor.torus(2, 5))
        assert c.pairing((3, 4), BasisVector("euclidean", j=1)) == 3

    def test_weighted_cube_scaling(self):
        c = weighted_hypercube([4.0, 1.0])
        assert c.pairing((1, 0), BasisVector("wcube", j=1)) == pytest.approx(4.0)
        assert c.pairing((0, 1), BasisVector("wcube", j=1)) == 0.0

    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            torus_word().pairing((1, 0), BasisVector("z2m", j=1, ell=1))

    @pytest.mark.parametrize("factory,domain", [
        (lambda: torus_word(), list(itertools.product(range(-3, 4), repeat=2))),
        (lambda: cyclic(4), list(itertools.product(range(4), repeat=2))),
        (lambda: free(), list(enumerate_words(2, 3))),
        (lambda: free_product(4), list(enumerate_words(2, 3, modulus=4))),
    ])
    def test_pairing_matches_gromov_expansion(self, factory, domain):
        """<beta(g), u> recomputed as a delta-combination of Gromov values."""
        cocycle = factory()
        basis = cocycle.basis_for_support([g for g in domain if cocycle.psi(g) != 0])
        for g in domain:
            for u in basis:
                expected = gromov_bilinear(cocycle, [(g, 1)], cocycle.delta_expansion(u))
                assert cocycle.pairing(g, u) == expected


class TestSpectralGap:
    def test_formula_values(self):
        assert spectral_gap(build_cocycle("euclidean", GroupDescriptor.torus(3, 2))) == 1
        assert spectral_gap(cyclic(6)) == 1
        assert spectral_gap(weighted_hypercube([2.0, 0.25, 1.0])) == pytest.approx(1.0)

    def test_sample_validation(self):
        c = cyclic(4)
        assert spectral_gap(c, [(0, 0), (1, 0)]) == 1
        with pytest.raises(ValueError):
            spectral_gap(c, [(0, 0)])


class TestWeightedHypercube:
    def test_singleton_weight(self):
        c = weighted_hypercube([1.0, 1.0, 1.0])
        assert c.psi((0, 1, 0)) == pytest.approx(4.0)

    def test_empty_set(self):
        assert weighted_hypercube([1.0, 2.0]).psi((0, 0)) == 0.0

    def test_additive_in_weights(self):
        assert weighted_hypercube([1.0, 2.0]).psi((1, 1)) == pytest.approx(12.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_hypercube([1.0, -2.0])
        with pytest.raises(ValueError):
            weighted_hypercube([])

    def test_gram_is_identity(self):
        c = weighted_hypercube([1.0, 2.0, 0.5])
        basis = [BasisVector("wcube", j=j) for j in (1, 2, 3)]
        gram = gram_matrix(c, basis)
        for a in range(3):
            for b in range(3):
                assert gram[a][b] == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


class TestOrthonormalBases:
    def test_zn_word_gram_identity(self):
        c = torus_word()
        basis = [BasisVector("zword", j=1, ell=l) for l in (1, -1, 2, -2)]
        basis += [BasisVector("zword", j=2, ell=l) for l in (1, -1)]
        gram = gram_matrix(c, basis)
        assert gram == [[1 if a == b else 0 for b in range(6)] for a in range(6)]

    def test_z4_basis_and_antipodal_relation(self):
        c = cyclic(4, n=1)
        basis = [BasisVector("z2m", j=1, ell=1), BasisVector("z2m", j=1, ell=2)]
        assert gram_matrix(c, basis) == [[1, 0], [0, 1]]
        # u_1(l) and the formal vector at l + m are negatives of each other
        formal_u13 = [((3,), 1), ((2,), -1)]
        u11 = c.delta_expansion(basis[0])
        assert gromov_bilinear(c, u11, formal_u13) == -1
        assert gromov_bilinear(c, formal_u13, formal_u13) == 1

    def test_free_gram_identity(self):
        c = free()
        basis = [BasisVector("free", word=w)
                 for w in enumerate_words(2, 2) if not w.is_identity]
        gram = gram_matrix(c, basis)
        size = len(basis)
        assert gram == [[1 if a == b else 0 for b in range(size)] for a in range(size)]

    def test_free_product_gram_identity(self):
        c = free_product(4)
        basis = [BasisVector("free_prod", word=w)
                 for w in enumerate_words(2, 2, modulus=4)
                 if not w.is_identity and 1 <= w.blocks[-1][1] <= 2]
        gram = gram_matrix(c, basis)
        size = len(basis)
        assert gram == [[1 if a == b else 0 for b in range(size)] for a in range(size)]

    @pytest.mark.parametrize("modulus", [4, 6])
    def test_sign_relation(self, modulus):
        """<u_w, u_{w g^m}> = -1 whenever the extension stays reduced."""
        m = modulus // 2
        c = free_product(modulus)
        checked = 0
        for w in enumerate_words(2, 2, modulus=modulus):
            if w.is_identity:
                continue
            gen, exp = w.blocks[-1]
            if not 1 <= exp <= m - 1:
                continue
            extension = words.concat(w, ReducedWord(((gen, m),)), modulus)
            u_w = [(w, 1), (words.predecessor(w, modulus), -1)]
            u_ext = [(extension, 1), (words.predecessor(extension, modulus), -1)]
            assert gromov_bilinear(c, u_w, u_ext) == -1
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("factory,domain", [
        (lambda: build_cocycle("euclidean", GroupDescriptor.torus(2, 4)),
         list(itertools.product(range(-4, 5), repeat=2))),
        (lambda: torus_word(),
         list(itertools.product(range(-4, 5), repeat=2))),
        (lambda: cyclic(4), list(itertools.product(range(4), repeat=2))),
        (lambda: cyclic(6, n=1), [(g,) for g in range(6)]),
        (lambda: free(), list(enumerate_words(2, 3))),
        (lambda: free_product(4), list(enumerate_words(2, 3, modulus=4))),
        (lambda: free_product(6), list(enumerate_words(2, 3, modulus=6))),
        (lambda: weighted_hypercube([1.0, 0.5]), list(itertools.product(range(2), repeat=2))),
    ])
    def test_completeness(self, factory, domain):
        """sum_u <beta(g), u>^2 = psi(g) with finitely many nonzero terms."""
        cocycle = factory()
        for g in domain:
            defect = completeness_defect(cocycle, g)
            if cocycle.family == "weighted_cube":
                assert abs(defect) < 1e-12
            else:
                assert defect == 0

    def test_beta_orthogonality_of_truncations(self):
        """pairing(g, u) = 0 whenever g is S-supported but u is not."""
        cases = [
            (build_cocycle("euclidean", GroupDescriptor.torus(2, 3)),
             list(itertools.product(range(-3, 4), repeat=2))),
            (torus_word(), list(itertools.product(range(-3, 4), repeat=2))),
            (cyclic(4), list(itertools.product(range(4), repeat=2))),
            (weighted_hypercube([1.0, 2.0]), list(itertools.product(range(2), repeat=2))),
            (free(), list(enumerate_words(2, 3))),
            (free_product(4), list(enumerate_words(2, 3, modulus=4))),
        ]
        from xpchaos.operators import in_truncation_range
        for cocycle, domain in cases:
            support = [g for g in domain if cocycle.psi(g) != 0]
            basis = cocycle.basis_for_support(support)
            for subset in [frozenset({1}), frozenset({2})]:
                for g in support:
                    if not in_truncation_range(cocycle.group, g, subset):
                        continue
                    for u in basis:
                        if u.component not in subset:
                            assert cocycle.pairing(g, u) == 0

    def test_odd_cyclic_has_no_basis(self):
        c = build_cocycle("odd_cyclic_word", GroupDescriptor.finite_abelian([5]))
        assert not c.has_basis
        with pytest.raises(ValueError):
            c.basis_for_support([(1,)])


class TestBasisVectorIds:
    @pytest.mark.parametrize("vector", [
        BasisVector("euclidean", j=2),
        BasisVector("zword", j=1, ell=-3),
        BasisVector("z2m", j=2, ell=1),
        BasisVector("free", word=ReducedWord(((1, 2), (2, -1)))),
        BasisVector("free_prod", word=ReducedWord(((2, 3),))),
        BasisVector("wcube", j=1),
    ])
    def test_id_round_trip(self, vector):
        assert BasisVector.from_id(vector.to_id()) == vector

    def test_component_of_word_vectors(self):
        assert BasisVector("free", word=ReducedWord(((2, -1), (1, 1)))).component == 2

    @pytest.mark.parametrize("text", ["ZWord:1", "Euclidean", "WeightedCube",
                                      "Z2mWord:1:2:3", "Euclidean:1:2",
                                      "FreeWord:1", "FreeProdWord:1,2,3"])
    def test_malformed_id_rejected(self, text):
        with pytest.raises(ValueError, match="basis vector id"):
            BasisVector.from_id(text)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            BasisVector("bogus", j=1)


class TestVectorsOutsideTheBasis:
    @pytest.mark.parametrize("cocycle, u", [
        (cyclic(4), BasisVector("z2m", j=3, ell=1)),
        (cyclic(4), BasisVector("z2m", j=0, ell=1)),
        (cyclic(4), BasisVector("z2m", j=1, ell=0)),
        (cyclic(4), BasisVector("z2m", j=1, ell=3)),
        (torus_word(), BasisVector("zword", j=1, ell=0)),
        (torus_word(), BasisVector("zword", j=-1, ell=2)),
        (build_cocycle("euclidean", GroupDescriptor.torus(2, 3)), BasisVector("euclidean", j=3)),
        (free(), BasisVector("free", word=ReducedWord())),
        (free(), BasisVector("free", word=ReducedWord(((3, 1),)))),
        (free_product(4), BasisVector("free_prod", word=ReducedWord())),
        (free_product(4), BasisVector("free_prod", word=ReducedWord(((1, 3),)))),
        (weighted_hypercube([1.0, 2.0]), BasisVector("wcube", j=3)),
    ], ids=lambda x: x.to_id() if isinstance(x, BasisVector) else None)
    def test_refused_once_per_multiplier(self, cocycle, u):
        for build in (operators.directional_derivative_op, operators.riesz_transform_op):
            with pytest.raises(ValueError, match="basis"):
                build(cocycle, u)
        with pytest.raises(ValueError, match="basis"):
            cocycle.delta_expansion(u)

    def test_delta_expansion_checks_the_family(self):
        """A cyclic cocycle neither expands nor certifies vectors of another family."""
        c = cyclic(4)
        with pytest.raises(ValueError, match="mismatch"):
            c.delta_expansion(BasisVector("euclidean", j=1))
        with pytest.raises(ValueError, match="mismatch"):
            gram_matrix(c, [BasisVector("euclidean", j=1), BasisVector("zword", j=2, ell=1)])


#: a group for every family, with a support of nonzero lengths
FAMILY_CASES = {
    "euclidean": ({"n": 2, "bound": 2}, [(1, -2), (0, 1)]),
    "torus_word": ({"n": 2, "bound": 2}, [(1, -2), (-2, 2)]),
    "cyclic_word": ({"n": 2, "modulus": 6}, [(1, 4), (3, 0)]),
    "odd_cyclic_word": ({"n": 2, "modulus": 5}, [(1, 4)]),
    "free_word": ({"n": 2}, [ReducedWord(((1, 2), (2, -1))), ReducedWord(((2, -2),))]),
    "free_product_word": ({"n": 2, "modulus": 4},
                          [ReducedWord(((1, 3), (2, 2))), ReducedWord(((2, 1), (1, 1)))]),
    "weighted_cube": ({"n": 3}, [(1, 0, 1), (0, 1, 0)]),
}


class TestFamilyTable:
    def test_cases_cover_the_table(self):
        assert set(FAMILY_CASES) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_CASES))
    def test_record_is_complete(self, family):
        options, support = FAMILY_CASES[family]
        cocycle = _build_cli_cocycle({"family": family, **options})
        assert cocycle.family == family
        assert cocycle.has_basis == (COCYCLE_FAMILIES[family].tag is not None)
        assert all(cocycle.psi(g) != 0 for g in support)
        if not cocycle.has_basis:
            with pytest.raises(ValueError, match="no orthonormal basis"):
                cocycle.basis_for_support(support)
            return
        basis = cocycle.basis_for_support(support)
        assert basis
        for u in basis:
            assert u.family == COCYCLE_FAMILIES[family].tag
            assert BasisVector.from_id(u.to_id()) == u
            cocycle.require_basis_vector(u)
        for g in support:
            assert completeness_defect(cocycle, g) == pytest.approx(0, abs=1e-12)
