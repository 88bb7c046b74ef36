"""Group algebra elements: dual evaluation, convolution, adjoint, trace."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpchaos import (GroupAlgebraElement, GroupDescriptor, adjoint,
                     build_cocycle, convolve, evaluate_on_dual,
                     fourier_coefficients, project_mean_zero, trace)
from xpchaos.groups import DualEvaluation, element_inverse, element_product, key_box
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

    def test_schema_shape(self):
        group = GroupDescriptor.hypercube(2)
        payload = GroupAlgebraElement(group, {(1, 0): 1.0}).to_json()
        assert payload["group"] == {"kind": "finite_abelian", "moduli": [2, 2]}
        assert payload["coeffs"] == [{"g": [1, 0], "re": 1.0, "im": 0.0}]


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
