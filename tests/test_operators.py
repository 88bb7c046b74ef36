"""Multiplier calculus: derivatives, Laplacians, Riesz transforms, truncations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpchaos import (GroupAlgebraElement, GroupDescriptor, build_cocycle,
                     enumerate_words)
from xpchaos.cocycles import BasisVector
from xpchaos.operators import (absorbent_derivative,
                               adjoint_truncation,
                               directional_derivative, free_hilbert_transform,
                               gradient, heat_semigroup, laplacian_power,
                               project_AS, riesz_transform, truncate,
                               walsh_derivative)
from xpchaos.words import ReducedWord

TWO_PI = 2 * math.pi


def lam(group, key, coeff=1.0):
    return GroupAlgebraElement.lam(group, key, coeff)


@pytest.fixture
def torus2():
    group = GroupDescriptor.torus(2, 6)
    return group, build_cocycle("torus_word", group)


@pytest.fixture
def euclid2():
    group = GroupDescriptor.torus(2, 6)
    return group, build_cocycle("euclidean", group)


@pytest.fixture
def z4():
    group = GroupDescriptor.finite_abelian([4, 4])
    return group, build_cocycle("cyclic_word", group)


@pytest.fixture
def f2():
    group = GroupDescriptor.free_group(2)
    return group, build_cocycle("free_word", group)


class TestDirectionalDerivative:
    def test_identity_killed(self, torus2):
        group, cocycle = torus2
        for ell in (1, -1, 2):
            u = BasisVector("zword", j=1, ell=ell)
            assert not directional_derivative(lam(group, (0, 0)), u, cocycle).coeffs

    def test_euclidean_symbol(self, euclid2):
        group, cocycle = euclid2
        result = directional_derivative(lam(group, (3, 4)), BasisVector("euclidean", j=1),
                                        cocycle)
        assert result.coeffs == {(3, 4): pytest.approx(6j * math.pi)}

    def test_free_order_filter(self, f2):
        group, cocycle = f2
        g1g2 = ReducedWord(((1, 1), (2, 1)))
        g2 = ReducedWord(((2, 1),))
        f = lam(group, g1g2) + lam(group, g2)
        u = BasisVector("free", word=ReducedWord(((1, 1),)))
        result = directional_derivative(f, u, cocycle)
        assert result.coeffs == {g1g2: pytest.approx(2j * math.pi)}


class TestGradient:
    def test_empty_for_identity(self, torus2):
        group, cocycle = torus2
        assert not gradient(lam(group, (0, 0)), 1, cocycle).components

    def test_components_along_support(self, torus2):
        group, cocycle = torus2
        f = lam(group, (2, 0))
        grad = gradient(f, 1, cocycle)
        ells = sorted(u.ell for u, _ in grad.components)
        assert ells == [1, 2]
        for _, component in grad.components:
            assert component.coeffs == {(2, 0): pytest.approx(2j * math.pi)}

    def test_orthogonal_direction_empty(self, torus2):
        group, cocycle = torus2
        assert not gradient(lam(group, (2, 0)), 2, cocycle).components


class TestAbsorbentDerivative:
    def test_hypercube_projection(self):
        group = GroupDescriptor.hypercube(2)
        f = lam(group, (1, 0))
        assert absorbent_derivative(f, 1) == f
        assert not absorbent_derivative(f, 2).coeffs

    def test_free_first_letter(self, f2):
        group, _ = f2
        f = lam(group, ReducedWord(((1, -2), (2, 1))))
        assert absorbent_derivative(f, 1) == f
        assert not absorbent_derivative(f, 2).coeffs

    def test_decomposition_into_edge_derivatives(self, z4):
        """delta_{g_j != 0} equals the two-window sum minus the midpoint term."""
        group, cocycle = z4
        m = 2
        for g in itertools.product(range(4), repeat=2):
            f = lam(group, g)
            direct = absorbent_derivative(f, 1)
            windows = directional_derivative(f, BasisVector("z2m", j=1, ell=1), cocycle) \
                + directional_derivative(f, BasisVector("z2m", j=1, ell=m), cocycle)
            midpoint = lam(group, g) if g[0] == m else GroupAlgebraElement.zero(group)
            recombined = (1 / (2j * math.pi)) * windows - midpoint
            assert direct.allclose(recombined, 1e-12)

    def test_midpoint_term_via_conditional_expectation(self, z4):
        group, cocycle = z4
        m = 2

        def two_point(h):
            """The coefficient filter onto g_1 in {0, m}."""
            return GroupAlgebraElement(group, {k: v for k, v in h.coeffs.items()
                                               if k[0] in (0, m)})

        for g in itertools.product(range(4), repeat=2):
            f = lam(group, g)
            edge = directional_derivative(f, BasisVector("z2m", j=1, ell=1), cocycle)
            one_sided = (1 / (2j * math.pi)) * two_point(edge)
            both = directional_derivative(f, BasisVector("z2m", j=1, ell=1), cocycle) \
                + directional_derivative(f, BasisVector("z2m", j=1, ell=m), cocycle)
            two_sided = (1 / (4j * math.pi)) * two_point(both)
            expected = lam(group, g) if g[0] == m else GroupAlgebraElement.zero(group)
            assert one_sided.allclose(expected, 1e-12)
            assert two_sided.allclose(expected, 1e-12)

    def test_absorbency_exhaustive(self):
        """d_u o d_j = d_u for every u in the j-th slice, all families."""
        cases = []
        torus = GroupDescriptor.torus(2, 3)
        cases.append((build_cocycle("torus_word", torus),
                      [g for g in itertools.product(range(-3, 4), repeat=2)]))
        cases.append((build_cocycle("euclidean", torus),
                      [g for g in itertools.product(range(-3, 4), repeat=2)]))
        z4g = GroupDescriptor.finite_abelian([4, 4])
        cases.append((build_cocycle("cyclic_word", z4g),
                      list(itertools.product(range(4), repeat=2))))
        cases.append((build_cocycle("free_word", GroupDescriptor.free_group(2)),
                      list(enumerate_words(2, 3))))
        cases.append((build_cocycle("free_product_word", GroupDescriptor.free_product(2, 4)),
                      list(enumerate_words(2, 2, modulus=4))))
        for cocycle, domain in cases:
            support = [g for g in domain if cocycle.psi(g) != 0][:50]
            basis = cocycle.basis_for_support(support)
            for g in support:
                f = lam(cocycle.group, g)
                for u in basis:
                    absorbed = directional_derivative(
                        absorbent_derivative(f, u.component), u, cocycle)
                    direct = directional_derivative(f, u, cocycle)
                    assert absorbed.allclose(direct, 1e-12)


class TestWalshDerivative:
    def test_flip_identity(self):
        group = GroupDescriptor.hypercube(2)
        f = lam(group, (1, 0))
        assert walsh_derivative(f, 1).coeffs == {(1, 0): pytest.approx(2.0)}
        assert not walsh_derivative(f, 2).coeffs

    def test_constants_killed(self):
        group = GroupDescriptor.hypercube(2)
        assert not walsh_derivative(lam(group, (0, 0)), 1).coeffs

    def test_twice_the_absorbent_derivative(self):
        group = GroupDescriptor.hypercube(3)
        rng = np.random.default_rng(0)
        keys = list(itertools.product(range(2), repeat=3))
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(8))))
        for j in (1, 2, 3):
            assert walsh_derivative(f, j).allclose(2 * absorbent_derivative(f, j), 1e-14)

    def test_wrong_group(self):
        f = lam(GroupDescriptor.finite_abelian([4]), (1,))
        with pytest.raises(ValueError):
            walsh_derivative(f, 1)


class TestLaplacianPower:
    def test_euclidean_length(self, euclid2):
        group, cocycle = euclid2
        result = laplacian_power(lam(group, (3, 4)), 1.0, cocycle)
        assert result.coeffs == {(3, 4): pytest.approx(25.0)}

    def test_power_zero_is_identity(self, torus2):
        group, cocycle = torus2
        f = lam(group, (1, 1)) + lam(group, (2, 0), 1j)
        assert laplacian_power(f, 0.0, cocycle) == f

    def test_half_power_round_trip(self, torus2):
        group, cocycle = torus2
        f = lam(group, (1, 1)) + lam(group, (2, 0), 2.0)
        back = laplacian_power(laplacian_power(f, -0.5, cocycle), 0.5, cocycle)
        assert back.allclose(f, 1e-12)

    def test_positive_power_kills_mean(self, torus2):
        group, cocycle = torus2
        f = lam(group, (0, 0)) + lam(group, (1, 0))
        assert set(laplacian_power(f, 1.0, cocycle).coeffs) == {(1, 0)}

    def test_negative_power_needs_mean_zero(self, torus2):
        group, cocycle = torus2
        with pytest.raises(ValueError):
            laplacian_power(lam(group, (0, 0)) + lam(group, (1, 0)), -0.5, cocycle)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_refused(self, torus2, gamma):
        """NaN symbols would be pruned (abs(nan) > tol is False) or written as NaN."""
        group, cocycle = torus2
        with pytest.raises(ValueError, match="finite gamma"):
            laplacian_power(lam(group, (1, 0)) + lam(group, (-2, 0)), gamma, cocycle)

    def test_factorization_into_squared_derivatives(self, torus2):
        """Summing d_u twice over the basis gives -4 pi^2 times the Laplacian."""
        group, cocycle = torus2
        for g in [(1, 0), (2, 1), (-3, 2)]:
            f = lam(group, g)
            total = GroupAlgebraElement.zero(group)
            for u in cocycle.basis_for_support([g]):
                total = total + directional_derivative(
                    directional_derivative(f, u, cocycle), u, cocycle)
            expected = (-4 * math.pi ** 2) * laplacian_power(f, 1.0, cocycle)
            assert total.allclose(expected, 1e-10)


class TestHeatSemigroup:
    def test_time_zero(self, torus2):
        group, cocycle = torus2
        f = lam(group, (1, 1)) + lam(group, (0, 0), 2.0)
        assert heat_semigroup(f, 0.0, cocycle) == f

    def test_symbol(self, torus2):
        group, cocycle = torus2
        result = heat_semigroup(lam(group, (1, 0)), 1.0, cocycle)
        assert result.coeffs == {(1, 0): pytest.approx(math.exp(-1))}

    def test_semigroup_property(self, torus2):
        group, cocycle = torus2
        rng = np.random.default_rng(1)
        keys = [(1, 0), (2, -1), (-3, 2), (0, 1)]
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(4))))
        twice = heat_semigroup(heat_semigroup(f, 1.0, cocycle), 1.0, cocycle)
        assert twice.allclose(heat_semigroup(f, 2.0, cocycle), 1e-12)

    def test_contracts_coefficients(self, torus2):
        group, cocycle = torus2
        f = lam(group, (2, 2), 3.0)
        out = heat_semigroup(f, 0.5, cocycle)
        assert abs(out.coeffs[(2, 2)]) < 3.0

    def test_negative_time_rejected(self, torus2):
        group, cocycle = torus2
        with pytest.raises(ValueError):
            heat_semigroup(lam(group, (1, 0)), -1.0, cocycle)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_refused(self, torus2, t):
        group, cocycle = torus2
        with pytest.raises(ValueError, match="finite t"):
            heat_semigroup(lam(group, (1, 0)) + lam(group, (-2, 0)), t, cocycle)


class TestRieszTransform:
    def test_euclidean_symbol(self, euclid2):
        group, cocycle = euclid2
        f = lam(group, (3, 4))
        r1 = riesz_transform(f, BasisVector("euclidean", j=1), cocycle)
        assert r1.coeffs == {(3, 4): pytest.approx(6j * math.pi / 5)}
        r2 = riesz_transform(f, BasisVector("euclidean", j=2), cocycle)
        assert r2.coeffs == {(3, 4): pytest.approx(8j * math.pi / 5)}

    def test_mean_zero_required(self, euclid2):
        group, cocycle = euclid2
        with pytest.raises(ValueError):
            riesz_transform(lam(group, (0, 0)), BasisVector("euclidean", j=1), cocycle)

    def test_normalization(self, z4):
        """sum_u |symbol(g)|^2 = 4 pi^2 on every nonzero frequency."""
        group, cocycle = z4
        basis = cocycle.basis_for_support(list(itertools.product(range(4), repeat=2)))
        for g in itertools.product(range(4), repeat=2):
            if cocycle.psi(g) == 0:
                continue
            total = sum(abs(TWO_PI * cocycle.pairing(g, u)) ** 2 / cocycle.psi(g)
                        for u in basis)
            assert total == pytest.approx(4 * math.pi ** 2, abs=1e-10)

    def test_commutes_with_truncations(self, z4):
        group, cocycle = z4
        rng = np.random.default_rng(2)
        keys = [g for g in itertools.product(range(4), repeat=2) if g != (0, 0)]
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(len(keys)))))
        basis = cocycle.basis_for_support(keys)
        for subset in [(), (1,), (2,), (1, 2)]:
            for u in basis:
                left = riesz_transform(truncate(f, subset), u, cocycle)
                right = truncate(riesz_transform(f, u, cocycle), subset)
                if u.component in subset:
                    assert left.allclose(right, 1e-12)
                else:
                    assert not left.coeffs


class TestTruncation:
    def test_full_subset_is_identity(self, torus2):
        group, _ = torus2
        f = lam(group, (1, 1)) + lam(group, (2, 0), 1j)
        assert truncate(f, (1, 2)) == f

    def test_walsh_filter(self):
        group = GroupDescriptor.hypercube(2)
        f = lam(group, (1, 0)) + lam(group, (0, 1)) + lam(group, (1, 1))
        assert truncate(f, (1,)).coeffs == {(1, 0): pytest.approx(1.0)}

    def test_free_subgroup_filter(self, f2):
        group, _ = f2
        f = lam(group, ReducedWord(((1, 1),))) + lam(group, ReducedWord(((2, 1), (1, 1))))
        assert truncate(f, (1,)).coeffs == {ReducedWord(((1, 1),)): pytest.approx(1.0)}

    def test_lattice_of_projections(self, z4):
        group, _ = z4
        rng = np.random.default_rng(3)
        keys = list(itertools.product(range(4), repeat=2))
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(len(keys)))))
        for s1 in [(), (1,), (2,), (1, 2)]:
            assert truncate(truncate(f, s1), s1) == truncate(f, s1)
            for s2 in [(), (1,), (2,), (1, 2)]:
                both = truncate(truncate(f, s1), s2)
                meet = tuple(sorted(set(s1) & set(s2)))
                assert both == truncate(f, meet)

    @settings(max_examples=60, deadline=None)
    @given(torus=st.booleans(), n=st.integers(1, 3), size=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_idempotent_and_commutes_with_riesz(self, torus, n, size, seed):
        """E_S E_S = E_S and E_S R_u = R_u E_S on torus and Z_{2m}^n elements."""
        group = (GroupDescriptor.torus(n, size) if torus
                 else GroupDescriptor.finite_abelian([2 * size] * n))
        cocycle = build_cocycle("torus_word" if torus else "cyclic_word", group)
        rng = np.random.default_rng(seed)
        keys = [g for g in itertools.product(*(range(-size, size + 1) if torus
                                               else range(2 * size) for _ in range(n)))
                if cocycle.psi(g) != 0]
        f = GroupAlgebraElement(group, dict(zip(
            keys, rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys)))))
        subset = tuple(j for j in range(1, n + 1) if rng.random() < 0.5)
        truncated = truncate(f, subset)
        assert truncate(truncated, subset) == truncated
        for u in cocycle.basis_for_support(keys):
            assert truncate(riesz_transform(f, u, cocycle), subset).allclose(
                riesz_transform(truncated, u, cocycle), 1e-12)

    def test_index_out_of_range(self, torus2):
        group, _ = torus2
        with pytest.raises(ValueError):
            truncate(lam(group, (1, 0)), (3,))


class TestAdjointTruncation:
    def test_self_adjoint_input(self, torus2):
        group, _ = torus2
        f = lam(group, (1, 0)) + lam(group, (-1, 0))
        assert adjoint_truncation(f, (1,)) == truncate(f, (1,))

    def test_abelian_equals_truncation(self, z4):
        group, _ = z4
        rng = np.random.default_rng(4)
        keys = list(itertools.product(range(4), repeat=2))
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(len(keys))
                                                + 1j * rng.standard_normal(len(keys)))))
        for subset in [(1,), (2,), (1, 2)]:
            assert adjoint_truncation(f, subset) == truncate(f, subset)

    def test_free_group_asymmetry(self, f2):
        group, _ = f2
        f = lam(group, ReducedWord(((1, 1),)))
        assert adjoint_truncation(f, (1,)) == f
        assert not adjoint_truncation(f, (2,)).coeffs


class TestFreeProjections:
    def test_project_as_full_set_is_identity(self, f2):
        group, _ = f2
        f = lam(group, ReducedWord(((2, 1), (1, 1)))) + lam(group, ReducedWord(((1, -1),)))
        assert project_AS(f, (1, 2)) == f

    def test_project_as_first_letter(self, f2):
        group, _ = f2
        f = lam(group, ReducedWord(((2, 1), (1, 1))))
        assert project_AS(f, (2,)) == f
        assert not project_AS(f, (1,)).coeffs

    def test_project_as_equals_absorbent_sum(self, f2):
        group, _ = f2
        rng = np.random.default_rng(5)
        support = [w for w in enumerate_words(2, 3) if not w.is_identity]
        f = GroupAlgebraElement(group, dict(zip(support, rng.standard_normal(len(support)))))
        for subset in [(1,), (2,), (1, 2)]:
            total = GroupAlgebraElement.zero(group)
            for j in subset:
                total = total + absorbent_derivative(f, j)
            assert project_AS(f, subset) == total

    def test_truncation_factors_through_projection(self, f2):
        group, _ = f2
        rng = np.random.default_rng(6)
        support = [w for w in enumerate_words(2, 3) if not w.is_identity]
        f = GroupAlgebraElement(group, dict(zip(support, rng.standard_normal(len(support)))))
        for subset in [(1,), (2,)]:
            assert truncate(f, subset) == truncate(project_AS(f, subset), subset)

    def test_hilbert_transform_signs(self, f2):
        group, _ = f2
        f = lam(group, ReducedWord(((1, 1),))) + lam(group, ReducedWord(((2, 1),)))
        flipped = free_hilbert_transform(f, (1, -1))
        assert flipped.coeffs == {ReducedWord(((1, 1),)): pytest.approx(1.0),
                                  ReducedWord(((2, 1),)): pytest.approx(-1.0)}

    def test_hilbert_involution_and_identity(self, f2):
        group, _ = f2
        rng = np.random.default_rng(7)
        support = [w for w in enumerate_words(2, 3) if not w.is_identity]
        f = GroupAlgebraElement(group, dict(zip(support, rng.standard_normal(len(support))
                                                + 1j * rng.standard_normal(len(support)))))
        assert free_hilbert_transform(f, (1, 1)) == f
        for signs in [(1, -1), (-1, 1), (-1, -1)]:
            assert free_hilbert_transform(free_hilbert_transform(f, signs), signs) == f

    def test_mean_zero_decomposition_on_free_product(self):
        group = GroupDescriptor.free_product(2, 4)
        rng = np.random.default_rng(8)
        support = [w for w in enumerate_words(2, 2, modulus=4) if not w.is_identity]
        f = GroupAlgebraElement(group, dict(zip(support, rng.standard_normal(len(support)))))
        total = absorbent_derivative(f, 1) + absorbent_derivative(f, 2)
        assert total == f

    def test_mean_zero_preconditions(self, f2):
        group, _ = f2
        constant = lam(group, ReducedWord())
        with pytest.raises(ValueError):
            project_AS(constant, (1,))
        with pytest.raises(ValueError):
            free_hilbert_transform(constant, (1, 1))


class TestMultiplierComposition:
    def test_multiplier_pairs_commute(self, torus2):
        group, cocycle = torus2
        rng = np.random.default_rng(10)
        keys = [(1, 0), (2, 1), (-1, 2), (3, -3), (0, 2)]
        f = GroupAlgebraElement(group, dict(zip(keys, rng.standard_normal(5))))
        operations = [
            lambda x: heat_semigroup(x, 0.7, cocycle),
            lambda x: laplacian_power(x, 1.0, cocycle),
            lambda x: truncate(x, (1,)),
            lambda x: directional_derivative(x, BasisVector("zword", j=1, ell=1), cocycle),
        ]
        for op_a, op_b in itertools.combinations(operations, 2):
            assert op_a(op_b(f)).allclose(op_b(op_a(f)), 1e-12)
