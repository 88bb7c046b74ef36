"""Group algebra elements: dual evaluation, convolution, adjoint, trace."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpchaos import (GroupAlgebraElement, GroupDescriptor, adjoint,
                     build_cocycle, convolve, evaluate_on_dual,
                     fourier_coefficients, norms, project_mean_zero, random_group_elements,
                     trace)
from xpchaos.groups import (KIND_FIELDS, DualEvaluation, coefficient_tensor, element_inverse,
                            element_product, key_box)
from xpchaos.norms import lp_norm, lp_norm_torus_grid, square_function_norm
from xpchaos.words import ReducedWord


def character_sum_oracle(f):
    """Direct character evaluation, independent of the FFT path."""
    moduli = f.group.moduli
    values = []
    for x in itertools.product(*(range(m) for m in moduli)):
        total = 0j
        for g, c in f.coeffs.items():
            phase = sum(gj * xj / mj for gj, xj, mj in zip(g, x, moduli))
            total += c * np.exp(2j * np.pi * phase)
        values.append(total)
    return np.array(values)


class TestDualEvaluation:
    def test_identity_character_is_constant(self):
        group = GroupDescriptor.finite_abelian([3, 4])
        f = GroupAlgebraElement.lam(group, (0, 0))
        assert np.allclose(evaluate_on_dual(f).values, 1.0)

    def test_single_walsh_character(self):
        group = GroupDescriptor.hypercube(2)
        f = GroupAlgebraElement.lam(group, (1, 0))
        assert np.allclose(evaluate_on_dual(f).values, [1, 1, -1, -1])

    def test_conjugate_character_pair_on_z4(self):
        group = GroupDescriptor.finite_abelian([4])
        f = GroupAlgebraElement(group, {(1,): 1, (3,): 1})
        assert np.allclose(evaluate_on_dual(f).values, [2, 0, -2, 0], atol=1e-12)

    def test_matches_character_sum_oracle(self):
        rng = np.random.default_rng(3)
        group = GroupDescriptor.finite_abelian([3, 4])
        for _ in range(10):
            coeffs = {key: complex(*rng.standard_normal(2))
                      for key in itertools.product(range(3), range(4))}
            f = GroupAlgebraElement(group, coeffs)
            assert np.allclose(evaluate_on_dual(f).values, character_sum_oracle(f),
                               atol=1e-12)

    def test_rejects_free_groups(self):
        f = GroupAlgebraElement.lam(GroupDescriptor.free_group(2), ReducedWord(((1, 1),)))
        with pytest.raises(ValueError):
            evaluate_on_dual(f)


class TestFourierCoefficients:
    def test_constant_array(self):
        group = GroupDescriptor.finite_abelian([3, 2])
        values = DualEvaluation(group, np.full(6, 2.5 + 1j))
        f = fourier_coefficients(values)
        assert f.coeffs == {(0, 0): pytest.approx(2.5 + 1j)}

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        group = GroupDescriptor.finite_abelian([3, 4])
        keys = list(itertools.product(range(3), range(4)))
        for _ in range(100):
            coeffs = dict(zip(keys, rng.standard_normal(12) + 1j * rng.standard_normal(12)))
            f = GroupAlgebraElement(group, coeffs)
            back = fourier_coefficients(evaluate_on_dual(f))
            assert all(abs(back.coeffs[k] - v) < 1e-12 for k, v in f.coeffs.items())

    def test_inverts_walsh_values(self):
        group = GroupDescriptor.hypercube(2)
        f = fourier_coefficients(DualEvaluation(group, np.array([1, 1, -1, -1], dtype=complex)))
        assert f.coeffs == {(1, 0): pytest.approx(1.0)}


class TestConvolve:
    def test_identity_element(self):
        group = GroupDescriptor.finite_abelian([5])
        f = GroupAlgebraElement(group, {(2,): 1.5, (3,): -2j})
        delta = GroupAlgebraElement.lam(group, (0,))
        assert convolve(f, delta) == f

    def test_torus_inverse_frequencies(self):
        group = GroupDescriptor.torus(1, 1)
        product = convolve(GroupAlgebraElement.lam(group, (1,)),
                           GroupAlgebraElement.lam(group, (-1,)))
        assert product.coeffs == {(0,): pytest.approx(1.0)}

    def test_free_word_reduction(self):
        group = GroupDescriptor.free_group(2)
        left = GroupAlgebraElement.lam(group, ReducedWord(((1, 1),)))
        right = GroupAlgebraElement.lam(group, ReducedWord(((1, -1), (2, 1))))
        product = convolve(left, right)
        assert product.coeffs == {ReducedWord(((2, 1),)): pytest.approx(1.0)}

    def test_group_mismatch(self):
        f = GroupAlgebraElement.lam(GroupDescriptor.finite_abelian([4]), (1,))
        h = GroupAlgebraElement.lam(GroupDescriptor.finite_abelian([5]), (1,))
        with pytest.raises(ValueError):
            convolve(f, h)

    def test_matches_pointwise_product_of_evaluations(self):
        rng = np.random.default_rng(11)
        group = GroupDescriptor.finite_abelian([3, 4])
        keys = list(itertools.product(range(3), range(4)))
        for _ in range(20):
            f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(12)
                                                    + 1j * rng.standard_normal(12))))
            h = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(12)
                                                    + 1j * rng.standard_normal(12))))
            direct = evaluate_on_dual(convolve(f, h)).values
            pointwise = evaluate_on_dual(f).values * evaluate_on_dual(h).values
            assert np.allclose(direct, pointwise, atol=1e-10)

    def test_torus_bound_grows(self):
        group = GroupDescriptor.torus(1, 2)
        f = GroupAlgebraElement(group, {(2,): 1.0})
        assert convolve(f, f).coeffs == {(4,): pytest.approx(1.0)}

    @pytest.mark.parametrize("left, right", [
        (GroupDescriptor.finite_abelian([3, 4]), GroupDescriptor.finite_abelian([3, 4])),
        (GroupDescriptor.finite_abelian([2, 5, 2]), GroupDescriptor.finite_abelian([2, 5, 2])),
        (GroupDescriptor.torus(2, 1), GroupDescriptor.torus(2, 3)),
        (GroupDescriptor.torus(1, 0), GroupDescriptor.torus(1, 2))])
    def test_matches_the_pairwise_sum(self, left, right):
        """Dense products agree with the sum over all pairs of keys; torus boxes never wrap."""
        rng = np.random.default_rng(12)
        elements = []
        for group in (left, right):
            if group.kind == "torus":
                box = itertools.product(range(-group.bound, group.bound + 1), repeat=group.rank)
            else:
                box = itertools.product(*(range(m) for m in group.moduli))
            keys = list(box)
            picked = rng.choice(len(keys), size=min(5, len(keys)), replace=False)
            elements.append(GroupAlgebraElement(group, {keys[i]: complex(*rng.standard_normal(2))
                                                        for i in picked}))
        f, h = elements
        expected: dict = {}
        for a, va in f.coeffs.items():
            for b, vb in h.coeffs.items():
                key = element_product(f.group, a, b)
                expected[key] = expected.get(key, 0) + va * vb
        product = convolve(f, h)
        if left.kind == "torus":
            assert product.group.bound == left.bound + right.bound
        assert set(product.coeffs) == {k for k, v in expected.items() if abs(v) > 1e-14}
        assert all(product.coeffs[k] == pytest.approx(expected[k], abs=1e-12)
                   for k in product.coeffs)

    def test_key_box(self):
        assert key_box(GroupDescriptor.finite_abelian([3, 4])) == ((3, 4), 0)
        assert key_box(GroupDescriptor.torus(2, 3)) == ((7, 7), -3)


class TestAdjoint:
    def test_real_symmetric_fixed_point(self):
        group = GroupDescriptor.torus(1, 2)
        f = GroupAlgebraElement(group, {(1,): 0.5, (-1,): 0.5, (0,): 2.0})
        assert adjoint(f) == f

    def test_imaginary_coefficient(self):
        group = GroupDescriptor.torus(1, 1)
        f = GroupAlgebraElement(group, {(1,): 1j})
        assert adjoint(f).coeffs == {(-1,): pytest.approx(-1j)}

    def test_free_word_inverse(self):
        group = GroupDescriptor.free_group(2)
        f = GroupAlgebraElement.lam(group, ReducedWord(((1, 1), (2, 1))))
        expected = ReducedWord(((2, -1), (1, -1)))
        assert adjoint(f).coeffs == {expected: pytest.approx(1.0)}

    def test_involution_and_isometry(self):
        rng = np.random.default_rng(13)
        group = GroupDescriptor.finite_abelian([4, 3])
        keys = list(itertools.product(range(4), range(3)))
        for _ in range(10):
            f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(12)
                                                    + 1j * rng.standard_normal(12))))
            assert adjoint(adjoint(f)) == f
            norm_before = sum(abs(v) ** 2 for v in f.coeffs.values())
            norm_after = sum(abs(v) ** 2 for v in adjoint(f).coeffs.values())
            assert norm_before == pytest.approx(norm_after, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.integers(2, 6), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1), support=st.integers(1, 10))
def test_adjoint_takes_the_conjugate_dual_values(moduli, seed, support):
    """On abelian groups f* evaluates to the complex conjugate of f at every dual point."""
    group = GroupDescriptor.finite_abelian(moduli)
    rng = np.random.default_rng(seed)
    f = GroupAlgebraElement(group, {
        tuple(int(rng.integers(m)) for m in moduli): complex(*rng.standard_normal(2))
        for _ in range(support)})
    np.testing.assert_allclose(evaluate_on_dual(adjoint(f)).values,
                               np.conj(evaluate_on_dual(f).values), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.integers(2, 6), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1), supports=st.tuples(st.integers(1, 10), st.integers(1, 10)))
def test_convolution_is_the_pointwise_product_on_the_dual(moduli, seed, supports):
    """evaluate_on_dual(f * h) is evaluate_on_dual(f) times evaluate_on_dual(h)."""
    group = GroupDescriptor.finite_abelian(moduli)
    rng = np.random.default_rng(seed)
    f, h = (GroupAlgebraElement(group, {
        tuple(int(rng.integers(m)) for m in moduli): complex(*rng.standard_normal(2))
        for _ in range(support)}) for support in supports)
    np.testing.assert_allclose(evaluate_on_dual(convolve(f, h)).values,
                               evaluate_on_dual(f).values * evaluate_on_dual(h).values,
                               rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(moduli=st.lists(st.integers(2, 6), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1), support=st.integers(1, 12))
def test_parseval_and_fourier_inversion(moduli, seed, support):
    """||f||_2^2 is sum |c_g|^2, and the Fourier coefficients of f's dual values are f."""
    group = GroupDescriptor.finite_abelian(moduli)
    rng = np.random.default_rng(seed)
    f = GroupAlgebraElement(group, {
        tuple(int(rng.integers(m)) for m in moduli): complex(*rng.standard_normal(2))
        for _ in range(support)})
    energy = sum(abs(c) ** 2 for c in f.coeffs.values())
    assert lp_norm(f, 2) ** 2 == pytest.approx(energy, rel=1e-12)
    assert fourier_coefficients(evaluate_on_dual(f)).allclose(f, tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3), bound=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), support=st.integers(1, 8))
def test_parseval_on_the_torus_grid(rank, bound, seed, support):
    group = GroupDescriptor.torus(rank, bound)
    rng = np.random.default_rng(seed)
    f = GroupAlgebraElement(group, {
        tuple(int(x) for x in rng.integers(-bound, bound + 1, size=rank)):
        complex(*rng.standard_normal(2)) for _ in range(support)})
    energy = sum(abs(c) ** 2 for c in f.coeffs.values())
    assert lp_norm_torus_grid(f, 2) ** 2 == pytest.approx(energy, rel=1e-12)


class TestTrace:
    def test_identity_unitaries(self):
        group = GroupDescriptor.finite_abelian([4])
        assert trace(GroupAlgebraElement.lam(group, (0,))) == 1
        assert trace(GroupAlgebraElement.lam(group, (2,))) == 0

    def test_reads_identity_coefficient(self):
        group = GroupDescriptor.torus(1, 1)
        f = GroupAlgebraElement(group, {(0,): 2 + 3j, (1,): 5})
        assert trace(f) == 2 + 3j

    def test_parseval(self):
        rng = np.random.default_rng(17)
        group = GroupDescriptor.finite_abelian([3, 3])
        keys = list(itertools.product(range(3), range(3)))
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(9)
                                                + 1j * rng.standard_normal(9))))
        expected = sum(abs(v) ** 2 for v in f.coeffs.values())
        assert trace(convolve(f, adjoint(f))) == pytest.approx(expected, abs=1e-10)

    def test_plancherel(self):
        rng = np.random.default_rng(19)
        group = GroupDescriptor.finite_abelian([4, 2])
        keys = list(itertools.product(range(4), range(2)))
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(8)
                                                + 1j * rng.standard_normal(8))))
        mean_square = np.mean(np.abs(evaluate_on_dual(f).values) ** 2)
        assert mean_square == pytest.approx(sum(abs(v) ** 2 for v in f.coeffs.values()),
                                            abs=1e-10)


class TestProjectMeanZero:
    def test_kills_constants(self):
        group = GroupDescriptor.hypercube(2)
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement.lam(group, (0, 0))
        assert not project_mean_zero(f, cocycle).coeffs

    def test_torus_word(self):
        group = GroupDescriptor.torus(1, 1)
        cocycle = build_cocycle("torus_word", group)
        f = GroupAlgebraElement(group, {(0,): 1.0, (1,): 1.0})
        assert project_mean_zero(f, cocycle).coeffs == {(1,): pytest.approx(1.0)}

    def test_only_identity_dropped_on_z4(self):
        group = GroupDescriptor.finite_abelian([4])
        cocycle = build_cocycle("cyclic_word", group)
        f = GroupAlgebraElement(group, {(g,): 1.0 for g in range(4)})
        projected = project_mean_zero(f, cocycle)
        assert set(projected.coeffs) == {(1,), (2,), (3,)}
        assert project_mean_zero(projected, cocycle) == projected


class TestCanonicalForm:
    def test_zero_coefficients_absent(self):
        group = GroupDescriptor.finite_abelian([4])
        f = GroupAlgebraElement(group, {(1,): 1.0, (2,): 0.0, (3,): 1e-16})
        assert set(f.coeffs) == {(1,)}

    def test_keys_reduced(self):
        group = GroupDescriptor.finite_abelian([4])
        f = GroupAlgebraElement(group, {(5,): 1.0, (1,): 1.0})
        assert f.coeffs == {(1,): pytest.approx(2.0)}

    def test_difference_cancels_exactly(self):
        group = GroupDescriptor.finite_abelian([4])
        f = GroupAlgebraElement(group, {(1,): 1.7})
        assert not (f - f).coeffs

    def test_element_ops(self):
        group = GroupDescriptor.torus(1, 2)
        f = GroupAlgebraElement(group, {(1,): 1.0})
        h = GroupAlgebraElement(group, {(2,): 3.0})
        assert (2 * f + h).coeffs == {(1,): pytest.approx(2.0), (2,): pytest.approx(3.0)}
        assert (f * h).coeffs == {(3,): pytest.approx(3.0)}

    def test_torus_frequency_bound_enforced(self):
        group = GroupDescriptor.torus(1, 2)
        with pytest.raises(ValueError):
            GroupAlgebraElement(group, {(3,): 1.0})


class TestElementKeyOps:
    def test_inverse_and_product(self):
        group = GroupDescriptor.finite_abelian([4, 2])
        assert element_inverse(group, (1, 1)) == (3, 1)
        assert element_product(group, (3, 1), (2, 1)) == (1, 0)

    def test_free_product_inverse(self):
        group = GroupDescriptor.free_product(2, 4)
        word = ReducedWord(((1, 1), (2, 3)))
        assert element_inverse(group, word) == ReducedWord(((2, 1), (1, 3)))


class TestSerialization:
    def test_abelian_round_trip(self):
        group = GroupDescriptor.finite_abelian([4, 2])
        f = GroupAlgebraElement(group, {(1, 0): 1.5 - 2j, (3, 1): 0.25})
        restored = GroupAlgebraElement.from_json(json.loads(json.dumps(f.to_json())))
        assert restored == f

    def test_word_round_trip(self):
        group = GroupDescriptor.free_product(2, 4)
        f = GroupAlgebraElement(group, {ReducedWord(((1, 2), (2, 1))): 1j})
        restored = GroupAlgebraElement.from_json(json.loads(json.dumps(f.to_json())))
        assert restored == f

    @pytest.mark.parametrize("group, coeffs, entries", [
        (GroupDescriptor.hypercube(3), {(1, 1, 0): -0.5, (0, 1, 1): 0.25j, (1, 0, 0): 1.0},
         [{"re": 0.0, "im": 0.25, "g": [0, 1, 1]}, {"re": 1.0, "im": 0.0, "g": [1, 0, 0]},
          {"re": -0.5, "im": 0.0, "g": [1, 1, 0]}]),
        (GroupDescriptor.torus(2, 2),
         {(1, 0): 1.5, (-2, 1): 0.25 - 0.5j, (0, 2): -0.75j, (-2, -1): 2, (0, -1): 1j},
         [{"re": 2.0, "im": 0.0, "g": [-2, -1]}, {"re": 0.25, "im": -0.5, "g": [-2, 1]},
          {"re": 0.0, "im": 1.0, "g": [0, -1]}, {"re": 0.0, "im": -0.75, "g": [0, 2]},
          {"re": 1.5, "im": 0.0, "g": [1, 0]}]),
        (GroupDescriptor.free_group(2),
         {ReducedWord(((2, -1), (1, 2))): -0.5 + 0.5j, ReducedWord(((1, 1),)): 1.0,
          ReducedWord(((1, -1), (2, 1))): 0.75j, ReducedWord(((2, 1),)): 2},
         [{"re": 1.0, "im": 0.0, "word": [[1, 1]]}, {"re": 2.0, "im": 0.0, "word": [[2, 1]]},
          {"re": 0.0, "im": 0.75, "word": [[1, -1], [2, 1]]},
          {"re": -0.5, "im": 0.5, "word": [[2, -1], [1, 2]]}])],
        ids=["hypercube", "torus", "f2"])
    def test_entries_golden(self, group, coeffs, entries):
        """Entries in sorted key order (abelian keys as tuples, so negative coordinates
        first; words by length and then blocks), each with the fields re, im and its
        key in that order."""
        payload = GroupAlgebraElement(group, coeffs).to_json()
        assert payload["coeffs"] == entries
        assert [list(entry) for entry in payload["coeffs"]] == [list(entry) for entry in entries]

    def test_schema_shape(self):
        group = GroupDescriptor.hypercube(2)
        payload = GroupAlgebraElement(group, {(1, 0): 1.0}).to_json()
        assert payload["group"] == {"kind": "finite_abelian", "moduli": [2, 2]}
        assert payload["coeffs"] == [{"g": [1, 0], "re": 1.0, "im": 0.0}]


    @pytest.mark.parametrize("group, key", [
        (GroupDescriptor.hypercube(2), [1.5, 0]),
        (GroupDescriptor.torus(2, 1), [1, 0.9]),
        (GroupDescriptor.hypercube(2), [1e30, 0]),
        (GroupDescriptor.hypercube(2), [2 ** 63, 0]),
        (GroupDescriptor.hypercube(2), [2 ** 70, 0]),
        (GroupDescriptor.hypercube(2), ["1", 0]),
        (GroupDescriptor.hypercube(2), [1, 0, 0]),
        (GroupDescriptor.torus(2, 1), [1]),
    ], ids=["fraction", "torus-fraction", "1e30", "2^63", "2^70", "string", "long", "short"])
    def test_keys_must_be_int64_integers(self, group, key):
        """A coordinate is refused, not truncated, unless it is an int64 integer."""
        payload = {"group": group.to_json(),
                   "coeffs": [{"g": [1, 0], "re": 1.0}, {"g": key, "re": 2.0}]}
        with pytest.raises(ValueError, match="integers that fit int64"):
            GroupAlgebraElement.from_json(json.loads(json.dumps(payload)))

    def test_torus_keys_outside_the_box_refused(self):
        group = GroupDescriptor.torus(2, 1)
        for key in ([1, -2], [-2 ** 63, 0]):
            payload = {"group": group.to_json(), "coeffs": [{"g": key, "re": 1.0}]}
            with pytest.raises(ValueError, match="outside the box"):
                GroupAlgebraElement.from_json(payload)

    @pytest.mark.parametrize("first", [[1, 0], [3, 0], [-1, 2]])
    def test_entries_of_one_group_element_add(self, first):
        """Equal raw keys add exactly as keys equal mod m do, at the first one's place."""
        payload = {"group": GroupDescriptor.hypercube(2).to_json(),
                   "coeffs": [{"g": [0, 1], "re": 0.5}, {"g": first, "re": 1.0},
                              {"g": [1, 0], "re": 2.0, "im": -1.0}]}
        f = GroupAlgebraElement.from_json(payload)
        assert list(f.coeffs.items()) == [((0, 1), 0.5), ((1, 0), 3 - 1j)]

    @pytest.mark.parametrize("entry", [{"re": "1"}, {"re": None}, {"re": 1.0, "im": "0"},
                                       {"re": [1.0]}, {"re": math.nan}, {"re": 1.0, "im": math.inf},
                                       {"re": 10 ** 400}],
                             ids=["string", "null", "string-im", "list", "nan", "inf", "huge"])
    def test_coefficients_must_be_finite_numbers(self, entry):
        payload = {"group": GroupDescriptor.hypercube(2).to_json(),
                   "coeffs": [{"g": [1, 0], **entry}]}
        with pytest.raises(ValueError, match="finite numbers"):
            GroupAlgebraElement.from_json(payload)

    @pytest.mark.parametrize("group", [
        {"kind": "torus", "rank": 2, "bound": 1.5}, {"kind": "torus", "rank": "2", "bound": 1},
        {"kind": "finite_abelian", "moduli": [2, 2.5]}, {"kind": "finite_abelian", "moduli": 4},
        {"kind": "free_group", "rank": 2.0}, {"kind": "free_product", "rank": 2, "modulus": None},
    ], ids=["bound", "rank-string", "modulus", "moduli-number", "rank-float", "modulus-null"])
    def test_descriptor_numbers_must_be_integers(self, group):
        with pytest.raises(ValueError, match="must be"):
            GroupDescriptor.from_json(group)

    def test_entries_that_cancel_are_pruned(self):
        payload = {"group": GroupDescriptor.finite_abelian([4]).to_json(),
                   "coeffs": [{"g": [1], "re": 1.0}, {"g": [5], "re": -1.0}]}
        assert GroupAlgebraElement.from_json(payload).coeffs == {}


def _key_strategy(group):
    if group.kind == "finite_abelian":
        return st.tuples(*(st.integers(0, m - 1) for m in group.moduli))
    if group.kind == "torus":
        return st.tuples(*(st.integers(-group.bound, group.bound) for _ in range(group.rank)))
    exponents = (st.integers(-3, 3).filter(bool) if group.kind == "free_group"
                 else st.integers(1, group.modulus - 1))
    return st.lists(st.tuples(st.integers(1, group.rank), exponents), max_size=4).map(
        lambda blocks: ReducedWord(tuple(blocks)))


_GROUPS = st.one_of(
    st.lists(st.integers(2, 6), min_size=1, max_size=5).map(GroupDescriptor.finite_abelian),
    st.builds(GroupDescriptor.torus, st.integers(1, 3), st.integers(0, 3)),
    st.builds(GroupDescriptor.free_group, st.integers(1, 3)),
    st.builds(GroupDescriptor.free_product, st.integers(1, 3), st.sampled_from([2, 4, 6])))

_VALUES = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), group=_GROUPS)
def test_json_round_trip(data, group):
    """from_json inverts to_json on every kind: same keys, values and key order
    (the order of the entries)."""
    f = GroupAlgebraElement(group, data.draw(st.dictionaries(_key_strategy(group), _VALUES,
                                                              max_size=12)))
    payload = json.loads(json.dumps(f.to_json()))
    restored = GroupAlgebraElement.from_json(payload)
    assert restored == f
    entries = [ReducedWord.from_json(e["word"]) if "word" in e else tuple(e["g"])
               for e in payload["coeffs"]]
    assert list(restored.coeffs) == entries


@settings(max_examples=80, deadline=None)
@given(moduli=st.lists(st.integers(2, 6), min_size=1, max_size=4), data=st.data())
def test_raw_finite_abelian_keys_load_as_the_constructor_reduces_them(moduli, data):
    """Keys that are negative or at least m, some equal mod m: from_json gives the
    constructor's element, key order and sums included."""
    group = GroupDescriptor.finite_abelian(moduli)
    raw = data.draw(st.dictionaries(
        st.tuples(*(st.integers(-3 * m, 3 * m) for m in moduli)), _VALUES, max_size=12))
    payload = json.loads(json.dumps({
        "group": group.to_json(),
        "coeffs": [{"g": list(key), "re": value.real, "im": value.imag}
                   for key, value in raw.items()]}))
    assert list(GroupAlgebraElement.from_json(payload).coeffs.items()) == list(
        GroupAlgebraElement(group, raw).coeffs.items())


class TestDescriptors:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupDescriptor.finite_abelian([1, 2])
        with pytest.raises(ValueError):
            GroupDescriptor.free_product(2, 3)
        with pytest.raises(ValueError):
            GroupDescriptor.torus(0, 1)

    def test_compatibility(self):
        assert GroupDescriptor.torus(2, 1).compatible(GroupDescriptor.torus(2, 5))
        assert not GroupDescriptor.torus(2, 1).compatible(GroupDescriptor.torus(3, 1))
        assert not GroupDescriptor.hypercube(2).compatible(GroupDescriptor.finite_abelian([2, 4]))
        assert GroupDescriptor.free_group(3).compatible(GroupDescriptor.free_group(3))
        assert not GroupDescriptor.free_group(2).compatible(GroupDescriptor.free_group(3))
        assert GroupDescriptor.free_product(2, 4).compatible(GroupDescriptor.free_product(2, 4))
        assert not GroupDescriptor.free_product(2, 4).compatible(
            GroupDescriptor.free_product(2, 6))
        assert not GroupDescriptor.free_product(2, 4).compatible(
            GroupDescriptor.free_product(3, 4))
        kinds = [GroupDescriptor.finite_abelian([2, 2]), GroupDescriptor.torus(2, 2),
                 GroupDescriptor.free_group(2), GroupDescriptor.free_product(2, 4)]
        for a, b in itertools.product(kinds, repeat=2):
            assert a.compatible(b) == (a is b)

    def test_to_json_of_each_kind(self):
        assert GroupDescriptor.finite_abelian([2, 4, 6]).to_json() == {
            "kind": "finite_abelian", "moduli": [2, 4, 6]}
        assert GroupDescriptor.torus(2, 3).to_json() == {"kind": "torus", "rank": 2, "bound": 3}
        assert GroupDescriptor.free_group(3).to_json() == {"kind": "free_group", "rank": 3}
        assert GroupDescriptor.free_product(2, 4).to_json() == {
            "kind": "free_product", "rank": 2, "modulus": 4}
        for group in (GroupDescriptor.finite_abelian([2, 4, 6]), GroupDescriptor.torus(2, 3),
                      GroupDescriptor.free_group(3), GroupDescriptor.free_product(2, 4)):
            assert list(group.to_json()) == ["kind", *KIND_FIELDS[group.kind]]
            assert GroupDescriptor.from_json(group.to_json()) == group


def _signed(f):
    """f's coefficients by key as reprs, which tell a -0.0 part from a +0.0 one."""
    return sorted((key, repr(value)) for key, value in f.coeffs.items())


class TestSignedZerosAndPruning:
    """Scalings, filters and sums keep each part's sign and prune at PRUNE_TOL exactly,
    as the literal values pin.  The adjoint of a real element has -0.0 imaginary parts."""

    group = GroupDescriptor.finite_abelian([4, 4])
    f = GroupAlgebraElement(group, {(0, 0): 0.5, (1, 0): -1.0, (2, 3): 1.5, (3, 1): 1e-14,
                                    (1, 1): 2e-14})
    g = adjoint(f)

    def test_the_adjoint_has_negative_zero_parts(self):
        assert _signed(self.g) == [((0, 0), "(0.5-0j)"), ((2, 1), "(1.5-0j)"),
                                   ((3, 0), "(-1-0j)"), ((3, 3), "(2e-14-0j)")]

    @pytest.mark.parametrize("scalar, expected", [
        (2.0, [((0, 0), "(1+0j)"), ((2, 1), "(3+0j)"), ((3, 0), "(-2-0j)"),
               ((3, 3), "(4e-14+0j)")]),
        (-1.0, [((0, 0), "(-0.5+0j)"), ((2, 1), "(-1.5+0j)"), ((3, 0), "(1+0j)"),
                ((3, 3), "(-2e-14+0j)")]),
        (1.5e-14, [((2, 1), "(2.25e-14+0j)"), ((3, 0), "(-1.5e-14-0j)")]),
        (0.5j, [((0, 0), "0.25j"), ((2, 1), "0.75j"), ((3, 0), "-0.5j")]),
        (0, [])])
    def test_scaling(self, scalar, expected):
        assert _signed(scalar * self.g) == expected

    def test_sums_start_from_the_left_side(self):
        """A key of the right side alone is added to 0, so its -0.0 part reads +0.0."""
        h = adjoint(GroupAlgebraElement(self.group, {(1, 0): 0.25, (2, 2): -0.75}))
        assert _signed(self.g + h) == [((0, 0), "(0.5-0j)"), ((2, 1), "(1.5-0j)"),
                                       ((2, 2), "(-0.75+0j)"), ((3, 0), "(-0.75-0j)"),
                                       ((3, 3), "(2e-14-0j)")]
        assert _signed(h + self.g) == [((0, 0), "(0.5+0j)"), ((2, 1), "(1.5+0j)"),
                                       ((2, 2), "(-0.75-0j)"), ((3, 0), "(-0.75-0j)"),
                                       ((3, 3), "(2e-14+0j)")]

    def test_sums_prune_cancellations(self):
        assert (self.g - self.g).coeffs == {}
        near = GroupAlgebraElement(self.group, {(1, 0): 1.0 + 5e-15, (0, 0): -0.5})
        assert _signed(self.g + near) == [((1, 0), "(1.000000000000005+0j)"),
                                          ((2, 1), "(1.5-0j)"), ((3, 0), "(-1-0j)"),
                                          ((3, 3), "(2e-14-0j)")]

    def test_project_mean_zero_keeps_the_parts_it_passes(self):
        cocycle = build_cocycle("cyclic_word", self.group)
        assert _signed(project_mean_zero(self.g, cocycle)) == [
            ((2, 1), "(1.5-0j)"), ((3, 0), "(-1-0j)"), ((3, 3), "(2e-14-0j)")]


class TestAllclose:
    """``allclose`` holds exactly when the largest coefficient gap is at most tol."""

    @staticmethod
    def _holds_up_to(a, b, distance):
        for x, y in ((a, b), (b, a)):
            assert x.allclose(y, tol=distance)
            assert not x.allclose(y, tol=np.nextafter(distance, 0)) or distance == 0

    def test_zero_elements(self):
        zero = GroupAlgebraElement.zero(GroupDescriptor.hypercube(3))
        self._holds_up_to(zero, zero, 0.0)

    def test_disjoint_keys(self):
        group = GroupDescriptor.finite_abelian([3, 3])
        a = GroupAlgebraElement(group, {(1, 0): 0.5})
        b = GroupAlgebraElement(group, {(0, 1): -0.75j, (2, 2): 0.25})
        self._holds_up_to(a, b, 0.75)
        self._holds_up_to(a, GroupAlgebraElement.zero(group), 0.5)

    def test_torus_elements_of_different_bounds(self):
        a = GroupAlgebraElement(GroupDescriptor.torus(2, 1), {(1, 0): 1.0})
        b = GroupAlgebraElement(GroupDescriptor.torus(2, 3), {(1, 0): 1.0 + 1e-11,
                                                             (3, -3): 2e-11j})
        self._holds_up_to(a, b, 2e-11)

    def test_incompatible_groups_are_never_close(self):
        a = GroupAlgebraElement.zero(GroupDescriptor.hypercube(2))
        assert not a.allclose(GroupAlgebraElement.zero(GroupDescriptor.finite_abelian([4, 4])))


@pytest.mark.parametrize("group", [
    GroupDescriptor.hypercube(10), GroupDescriptor.finite_abelian([6] * 4),
    GroupDescriptor.torus(2, 3), GroupDescriptor.torus(3, 2)],
    ids=["hypercube-10", "z6^4", "torus-2", "torus-3"])
def test_a_batch_on_the_grid_is_each_element_alone(group):
    """One ifftn over a stack of coefficient tensors gives each element's transform
    alone bit for bit, so the dual evaluation, the torus grid norm and the square
    function, which read the stack, read the per-element values."""
    rng = np.random.default_rng(8)
    shape, low = key_box(group)
    keys = list(itertools.product(*(range(low, low + m) for m in shape)))[1:]
    fs = [GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(len(keys))
                                              + 1j * rng.standard_normal(len(keys)))))
          for _ in range(3)]
    grid = group.moduli if group.kind == "finite_abelian" else \
        (4 * (2 * group.bound + 1),) * group.rank
    stack = np.stack([coefficient_tensor(f, grid) for f in fs])
    batch = np.fft.ifftn(stack, axes=range(-len(grid), 0)) * math.prod(grid)
    alone = [(np.fft.ifftn(coefficient_tensor(f, grid)) * math.prod(grid)).ravel() for f in fs]
    for row, values, f in zip(batch, alone, fs):
        assert (row.ravel() == values).all()
        if group.kind == "finite_abelian":
            assert (evaluate_on_dual(f).values == values).all()
        else:
            assert lp_norm_torus_grid(f, 3) == norms._root(norms._mean_power(values, 3), 3)
    moduli = np.sqrt(np.sum(np.abs(np.stack(alone)) ** 2, axis=0))
    assert square_function_norm(fs, 3) == norms._root(norms._mean_power(moduli, 3), 3)


def test_abelian_draws_are_the_box_draws():
    """Each coordinate is one ``rng.integers`` call over the key box, so a seed draws
    these exact keys."""
    draw = random_group_elements(GroupDescriptor.torus(2, 3), 4, np.random.default_rng(0))
    assert draw == [(2, 1), (0, -2), (-1, -3), (-3, -3)]
    draw = random_group_elements(GroupDescriptor.finite_abelian([3, 5]), 4,
                                 np.random.default_rng(0))
    assert draw == [(2, 3), (1, 1), (0, 0), (0, 0)]
