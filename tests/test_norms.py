"""Lp, Schatten, and square-function norms."""

import decimal
import itertools
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpchaos import GroupAlgebraElement, GroupDescriptor, adjoint, norms
from xpchaos.norms import (half_sign_patterns, lp_norm,
                           lp_norm_abelian, lp_norm_torus_even, lp_norm_torus_grid,
                           lp_norm_torus_refined, schatten_norm, schatten_powers,
                           sign_block_powers, sign_patterns, sign_planes, sign_powers,
                           sign_row_blocks, square_function_norm)
from xpchaos.operators import truncate
from xpchaos.words import ReducedWord


def sign_average(mats, p, signs):
    """Mean of ||sum_j eps_j x_j||_p^p over the rows eps of ``signs``, block by block."""
    return float(np.mean(sign_block_powers(sign_row_blocks(signs), mats, p)))


def random_abelian(group, rng):
    keys = list(itertools.product(*(range(m) for m in group.moduli)))
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return GroupAlgebraElement(group, dict(zip(keys, values)))


class TestAbelianNorms:
    def test_single_character_is_unimodular(self):
        group = GroupDescriptor.finite_abelian([4, 3])
        f = GroupAlgebraElement.lam(group, (1, 2))
        for p in (1, 2, 3.5, 4):
            assert lp_norm_abelian(f, p) == pytest.approx(1.0)

    def test_two_point_values(self):
        group = GroupDescriptor.hypercube(1)
        f = GroupAlgebraElement(group, {(0,): 1.0, (1,): 1.0})  # values 2, 0
        assert lp_norm_abelian(f, 2) == pytest.approx(math.sqrt(2))
        assert lp_norm_abelian(f, 4) == pytest.approx(2 ** 0.75)

    def test_parseval_at_p2(self):
        rng = np.random.default_rng(0)
        group = GroupDescriptor.finite_abelian([3, 4])
        f = random_abelian(group, rng)
        coefficient_norm = math.sqrt(sum(abs(v) ** 2 for v in f.coeffs.values()))
        assert lp_norm_abelian(f, 2) == pytest.approx(coefficient_norm, abs=1e-10)

    def test_p_below_one_rejected(self):
        group = GroupDescriptor.hypercube(1)
        with pytest.raises(ValueError):
            lp_norm_abelian(GroupAlgebraElement.lam(group, (1,)), 0.5)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(1)
        group = GroupDescriptor.finite_abelian([4, 4])
        for _ in range(10):
            f = random_abelian(group, rng)
            norms = [lp_norm_abelian(f, p) for p in (1, 2, 3, 4, 6)]
            for smaller, larger in zip(norms, norms[1:]):
                assert smaller <= larger + 1e-12

    def test_adjoint_isometry(self):
        rng = np.random.default_rng(2)
        group = GroupDescriptor.finite_abelian([5, 2])
        for p in (1, 2, 4):
            f = random_abelian(group, rng)
            assert lp_norm_abelian(adjoint(f), p) == pytest.approx(
                lp_norm_abelian(f, p), abs=1e-12)

    def test_truncation_contractive(self):
        rng = np.random.default_rng(3)
        for moduli in ([2, 2, 2], [4, 4], [6, 3]):
            group = GroupDescriptor.finite_abelian(moduli)
            f = random_abelian(group, rng)
            n = len(moduli)
            for size in range(n + 1):
                for subset in itertools.combinations(range(1, n + 1), size):
                    for p in (2, 4):
                        assert lp_norm_abelian(truncate(f, subset), p) \
                            <= lp_norm_abelian(f, p) + 1e-12


class TestTorusNorms:
    def test_single_frequency(self):
        group = GroupDescriptor.torus(1, 1)
        f = GroupAlgebraElement.lam(group, (1,))
        for p in (2, 4, 6):
            assert lp_norm_torus_even(f, p) == pytest.approx(1.0)
        assert lp_norm_torus_grid(f, 3) == pytest.approx(1.0)

    def test_binomial_moments(self):
        group = GroupDescriptor.torus(1, 1)
        f = GroupAlgebraElement(group, {(0,): 1.0, (1,): 1.0})
        assert lp_norm_torus_even(f, 2) == pytest.approx(math.sqrt(2))
        assert lp_norm_torus_even(f, 4) == pytest.approx(6 ** 0.25)
        assert lp_norm_torus_grid(f, 4) == pytest.approx(6 ** 0.25, abs=1e-8)

    def test_constant(self):
        group = GroupDescriptor.torus(2, 0)
        f = GroupAlgebraElement.lam(group, (0, 0))
        assert lp_norm_torus_grid(f, 3.5) == pytest.approx(1.0)

    def test_odd_p_routed_to_grid(self):
        group = GroupDescriptor.torus(1, 1)
        f = GroupAlgebraElement(group, {(0,): 1.0, (1,): 1.0})
        assert lp_norm_torus_even(f, 3) == pytest.approx(lp_norm_torus_grid(f, 3))
        assert lp_norm(f, 3) == pytest.approx(lp_norm_torus_grid(f, 3))

    def test_exact_vs_grid_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            rank = int(rng.integers(1, 3))
            bound = int(rng.integers(1, 4))
            group = GroupDescriptor.torus(rank, bound)
            keys = list(itertools.product(range(-bound, bound + 1), repeat=rank))
            f = GroupAlgebraElement(group, dict(zip(
                keys, rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys)))))
            for p in (2, 4, 6):
                assert lp_norm_torus_even(f, p) == pytest.approx(
                    lp_norm_torus_grid(f, p), abs=1e-8)

    def test_refined_grid_converges_on_a_kink(self):
        """|1 + e(x)|^3 = 8|cos(pi x)|^3 has mean 32/(3 pi); the 4x grid misses it."""
        f = GroupAlgebraElement(GroupDescriptor.torus(1, 1), {(0,): 1.0, (1,): 1.0})
        exact = (32 / (3 * math.pi)) ** (1 / 3)
        norm, gap = lp_norm_torus_refined(f, 3)
        assert gap <= 1e-8
        assert norm == pytest.approx(exact, rel=1e-9)
        assert lp_norm_torus_grid(f, 3) != pytest.approx(exact, rel=1e-7)

    def test_oversample_validation(self):
        group = GroupDescriptor.torus(1, 1)
        f = GroupAlgebraElement.lam(group, (1,))
        with pytest.raises(ValueError):
            lp_norm_torus_grid(f, 2, oversample=2)

    @pytest.mark.parametrize("rank, bound, p", [(1, 2, 8), (1, 3, 14), (2, 1, 10), (2, 2, 6),
                                                (3, 1, 8), (2, 1, 18)])
    def test_trace_power_price_bounds_its_products(self, monkeypatch, rank, bound, p):
        """A budget one below the products the convolutions of the trace power take
        (after h = f f*) refuses the same norm."""
        rng = np.random.default_rng(rank * 10 + bound)
        keys = list(itertools.product(range(-bound, bound + 1), repeat=rank))
        f = GroupAlgebraElement(GroupDescriptor.torus(rank, bound),
                                dict(zip(keys, rng.standard_normal(len(keys)) + 0j)))
        products = []
        convolve = norms.convolve
        monkeypatch.setattr(norms, "convolve", lambda a, b: products.append(
            len(a.coeffs) * len(b.coeffs)) or convolve(a, b))
        lp_norm_torus_even(f, p)
        monkeypatch.setattr(norms, "TRACE_POWER_MAX_PRODUCTS", sum(products[1:]) - 1)
        with pytest.raises(ValueError, match=f"at p = {p} the exact trace power"):
            lp_norm_torus_even(f, p)

    def test_norm_past_the_float_range_refused(self):
        """lp_norm's callers get the refusal of a p-th power that overflowed, and no
        numpy overflow warning before it."""
        f = GroupAlgebraElement(GroupDescriptor.finite_abelian([4]), {(1,): 2.0})
        with warnings.catch_warnings(), pytest.raises(ValueError, match="reads inf"):
            warnings.simplefilter("error")
            lp_norm(f, 1100)

    def test_free_kind_rejected(self):
        f = GroupAlgebraElement.lam(GroupDescriptor.free_group(2), ReducedWord(((1, 1),)))
        with pytest.raises(ValueError, match="combinatorial"):
            lp_norm(f, 2)


class TestSchattenNorms:
    def test_identity_matrix(self):
        assert schatten_norm(np.eye(2), 4) == pytest.approx(2 ** 0.25)

    def test_diagonal_frobenius(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_rank_one_all_p(self):
        ones = np.ones((2, 2))
        for p in (1, 2, 3, 4, 7.5):
            assert schatten_norm(ones, p) == pytest.approx(2.0)

    def test_svd_oracle_random(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        singular_values = np.linalg.svd(x, compute_uv=False)
        for p in (1, 2.5, 4):
            assert schatten_norm(x, p) == pytest.approx(
                float(np.sum(singular_values ** p) ** (1 / p)))

    def test_frobenius_trace_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert schatten_norm(x, 2) ** 2 == pytest.approx(
            float(np.trace(x.conj().T @ x).real), abs=1e-10)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)

    def test_powers_match_svd_at_every_route(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        singular_values = np.linalg.svd(stack, compute_uv=False)
        for p in (1, 2, 2.5, 3, 4, 6, 8):
            np.testing.assert_allclose(schatten_powers(stack, p),
                                       np.sum(singular_values ** p, axis=-1), rtol=1e-12)


def _random_stack(seed, batch, rows, cols):
    rng = np.random.default_rng(seed)
    shape = (batch, rows, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(1, 4),
       rows=st.integers(1, 5), cols=st.integers(1, 5), p=st.sampled_from([2, 4, 6, 8, 10]))
def test_schatten_powers_even_p_equal_svd_sum(seed, batch, rows, cols, p):
    """At even p the trace route equals the SVD sum on square and rectangular stacks."""
    stack = _random_stack(seed, batch, rows, cols)
    svd_sum = np.sum(np.linalg.svd(stack, compute_uv=False) ** p, axis=-1)
    np.testing.assert_allclose(schatten_powers(stack, p), svd_sum, rtol=1e-10)


class TestNonFiniteP:
    """NaN passes every ``p < 1`` comparison, so each guard checks finiteness."""

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_norms_reject(self, p):
        abelian = GroupAlgebraElement.lam(GroupDescriptor.finite_abelian([4, 4]), (1, 0))
        torus = GroupAlgebraElement(GroupDescriptor.torus(2, 2), {(1, 0): 1.0, (0, 1): 0.5})
        calls = [lambda: lp_norm(abelian, p), lambda: lp_norm_abelian(abelian, p),
                 lambda: lp_norm(torus, p), lambda: lp_norm_torus_even(torus, p),
                 lambda: lp_norm_torus_grid(torus, p), lambda: schatten_norm(np.eye(2), p),
                 lambda: schatten_powers(np.eye(2)[None], p),
                 lambda: square_function_norm([abelian, abelian], p),
                 lambda: square_function_norm([torus], p)]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


class TestSquareFunctionNorms:
    def test_single_component_reduces_to_lp(self):
        group = GroupDescriptor.hypercube(2)
        f = GroupAlgebraElement(group, {(1, 0): 1.0, (1, 1): 2.0})
        for p in (2, 4):
            assert square_function_norm([f], p) == pytest.approx(lp_norm_abelian(f, p))

    def test_two_walsh_characters(self):
        group = GroupDescriptor.hypercube(2)
        components = [GroupAlgebraElement.lam(group, (1, 0)),
                      GroupAlgebraElement.lam(group, (0, 1))]
        assert square_function_norm(components, 2) == pytest.approx(math.sqrt(2))

    def test_torus_even_p_matches_grid_route(self):
        group = GroupDescriptor.torus(1, 2)
        rng = np.random.default_rng(7)
        components = []
        for _ in range(3):
            keys = [(g,) for g in range(-2, 3)]
            components.append(GroupAlgebraElement(group, dict(zip(
                keys, rng.standard_normal(5) + 1j * rng.standard_normal(5)))))
        exact = square_function_norm(components, 4)
        grid = square_function_norm(components, 4.0 + 1e-9)  # force the grid path
        assert exact == pytest.approx(grid, abs=1e-6)

    def test_mixed_operands_rejected(self):
        group = GroupDescriptor.hypercube(1)
        f = GroupAlgebraElement.lam(group, (1,))
        with pytest.raises(ValueError):
            square_function_norm([f, np.eye(2)], 2)
        with pytest.raises(ValueError):
            square_function_norm([], 2)

    @pytest.mark.parametrize("case, p, power", [
        ("torus", 2048, "nan"), ("torus", 3001, "inf"), ("torus", 3001.5, "inf"),
        ("z4^2", 2000, "inf")])
    def test_past_the_float_range_refused(self, case, p, power):
        """Every route ends in the refusal of a p-th power that is not finite, with no
        numpy warning before it; a zero family keeps its norm of 0."""
        if case == "torus":
            components = [GroupAlgebraElement(GroupDescriptor.torus(1, 2),
                                              {(1,): 1.0, (-2,): 0.5 + 0.1j})]
            zero = [GroupAlgebraElement(GroupDescriptor.torus(1, 2), {})]
        else:
            group = GroupDescriptor.finite_abelian([4, 4])
            components = [GroupAlgebraElement(group, {(1, 0): 1.0, (2, 3): 0.5 - 0.25j,
                                                      (3, 1): 2.0})]
            zero = [GroupAlgebraElement(group, {})]
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match=f"its p-th power reads {power}"):
            warnings.simplefilter("error")
            square_function_norm(components, p)
        assert square_function_norm(zero, p) == 0.0


class TestKhintchineRatio:
    """Sign tables, planes and the sign averages E_eps ||sum_j eps_j x_j||_p^p of
    noncommutative Khintchine type that xp_linear takes."""

    def test_sign_patterns_deterministic(self):
        patterns = sign_patterns(3)
        assert patterns.shape == (8, 3)
        assert patterns[0].tolist() == [1.0, 1.0, 1.0]
        assert patterns[-1].tolist() == [-1.0, -1.0, -1.0]

    @pytest.mark.parametrize("n", range(11))
    def test_sign_patterns_equal_lexicographic_product(self, n):
        expected = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        patterns = sign_patterns(n)
        assert patterns.shape == expected.shape and patterns.dtype == expected.dtype
        assert np.array_equal(patterns, expected)
        if n:
            assert np.array_equal(half_sign_patterns(n), expected[: 2 ** (n - 1)])
            assert np.all(half_sign_patterns(n)[:, 0] == 1.0)

    def test_half_table_gives_the_full_average(self):
        rng = np.random.default_rng(12)
        mats = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        for p in (2, 3, 4):
            assert sign_average(mats, p, half_sign_patterns(5)) == pytest.approx(
                sign_average(mats, p, sign_patterns(5)), rel=1e-12)

    def test_sign_combinations_match_tensordot(self):
        rng = np.random.default_rng(13)
        mats = rng.standard_normal((2, 4, 3, 2)) + 1j * rng.standard_normal((2, 4, 3, 2))
        signs = sign_patterns(4)
        planes = sign_planes(signs, mats)
        assert planes.shape == (3, 2, 2, 2, 16) and planes.flags.c_contiguous
        combos = np.moveaxis(planes[:, :, 0] + 1j * planes[:, :, 1], (0, 1), (-2, -1))
        for b in range(2):
            np.testing.assert_allclose(combos[b], np.tensordot(signs, mats[b], axes=1),
                                       rtol=0, atol=1e-14)

    def test_golden_values(self):
        """Sign averages on 2^7 and 2^6 sign rows, the numerators of Khintchine ratios
        taken before the sign kernel moved to planes (each ratio times its larger
        row or column square-function norm to the p)."""
        rng = np.random.default_rng(2024)
        mats = np.stack([(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                         / np.sqrt(2) for _ in range(8)])
        for sub, p, golden in ((mats, 4, 2665.406302494463), (mats, 6, 130040.37227899776),
                               (mats[:7], 3, 291.1650047011052)):
            assert sign_average(sub, p, half_sign_patterns(len(sub))) == pytest.approx(
                golden, rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2), (1, 3)])
def test_sign_kernel_equals_svd_sums(p, shape, monkeypatch):
    """The plane kernel against one SVD per sign combination, with blocks of 5 rows,
    on one tuple and on a stack of subset tuples."""
    monkeypatch.setattr(norms, "SIGN_BLOCK_ROWS", 5)
    rng = np.random.default_rng(14)
    mats = rng.standard_normal((5, *shape)) + 1j * rng.standard_normal((5, *shape))

    def svd_sums(combos):
        return np.sum(np.linalg.svd(combos, compute_uv=False) ** p, axis=-1)

    signs = sign_patterns(5)                    # 32 rows: seven blocks
    assert sign_average(mats, p, signs) == pytest.approx(
        np.mean(svd_sums(np.tensordot(signs, mats, axes=1))), rel=1e-12, abs=0)
    stacks = mats[np.array(list(itertools.combinations(range(5), 3)))]
    half = half_sign_patterns(3)
    np.testing.assert_allclose(sign_powers(half, stacks, p),
                               svd_sums(np.einsum("rk,skij->srij", half, stacks)), rtol=1e-12)


@pytest.mark.parametrize("p", [1.5, 3, 4, 6, 8])
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1)])
def test_rank_one_sign_powers_equal_svd_powers(p, shape):
    """A row, a column or a 1 x 1 stack has one singular value, its Frobenius norm, so
    its powers are the squared planes to the p/2.  The rounding of the squared sum
    grows p/2-fold in the power, so the bound is p times the float epsilon (below
    1e-15 up to p = 4) against the exact power of each combination (40 decimal
    digits), and twice that against one SVD per combination, whose singular value
    is rounded too."""
    rng = np.random.default_rng(15)
    mats = rng.standard_normal((6, *shape)) + 1j * rng.standard_normal((6, *shape))
    signs = sign_patterns(6)
    planes = sign_planes(signs, mats)
    combos = np.moveaxis(planes[:, :, 0] + 1j * planes[:, :, 1], (0, 1), (-2, -1))
    powers = sign_powers(signs, mats, p)
    with decimal.localcontext(decimal.Context(prec=40)):
        exact = [float(sum(Decimal(z.real) ** 2 + Decimal(z.imag) ** 2 for z in x.ravel())
                       ** (Decimal(p) / 2)) for x in combos]
    eps = np.finfo(float).eps
    np.testing.assert_allclose(powers, exact, rtol=p * eps, atol=0)
    svd = np.sum(np.linalg.svd(combos, compute_uv=False) ** p, axis=-1)
    np.testing.assert_allclose(powers, svd, rtol=2 * p * eps, atol=0)
