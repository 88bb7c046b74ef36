"""Experiment harness: assemble inequality sides, scan ensembles, report.

Every experiment produces a :class:`RatioReport` whose witness re-evaluates
to the recorded numbers, and every scan is deterministic for a fixed seed:
random inputs are drawn sequentially from the seed.  Each scan experiment is
one :class:`Experiment` record in :data:`EXPERIMENTS`, which drives both
:func:`scan` and :func:`reevaluate_witness`.

The inequalities under scan carry implicit constants, so no experiment
asserts a specific bound; the harness records empirical maxima and the test
suite asserts only the analytically exact p = 2 closures.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import operators
from .cocycles import COCYCLE_FAMILIES, LengthCocycle, build_cocycle
from .groups import (FINITE_ABELIAN, PRUNE_TOL, GroupAlgebraElement, GroupDescriptor,
                     coefficient_tensor, element_inverse, key_box)
from .norms import (SIGN_BLOCK_ROWS, half_sign_patterns, schatten_powers,
                    sign_average_power, sign_combinations)

SIGN_ENUMERATION_CAP = 14
MONTE_CARLO_SIGNS = 2 ** 14
#: largest grid allocation of ``naor_profile`` and ``riesz_equivalence_ratio``
#: (16 bytes per entry of the multiplier stack and of naor's mean-extended value
#: tensor, which p = 2 alone does not need)
LATTICE_MAX_BYTES = 2 ** 30
#: relative margin by which a later scan row must beat the best score to replace it
SCORE_TIE_RTOL = 1e-12

DERIVATIVE_CHOICES = ("walsh", "euclidean", "absorbent", "gradient")
ENSEMBLE_KINDS = ("gaussian", "sparse", "chaos_degree", "linear_span")


def _finite(p: float, low: float | None = None) -> float:
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if low is not None and p < low:
        raise ValueError(f"p must be >= {low}, got {p}")
    return p


@dataclass(frozen=True)
class SigmaModel:
    """The product of the n-sign space with uniform k-subsets of [n]."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    def subsets(self) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(1, self.n + 1), self.k))

    @property
    def num_subsets(self) -> int:
        return math.comb(self.n, self.k)

    def atoms(self):
        """All (eps, S) atoms, each of weight 1 / (2^n * C(n, k))."""
        for eps in itertools.product((1, -1), repeat=self.n):
            for subset in self.subsets():
                yield eps, subset

    def sigma(self, j: int, eps, subset) -> int:
        """sigma_j(eps, S) = eps_j * delta_{j in S}."""
        return eps[j - 1] if j in subset else 0

    def sigma_moment(self, j: int, p: float) -> Fraction:
        """||sigma_j||_p^p by explicit enumeration (|eps_j|^p = 1)."""
        hits = sum(1 for subset in self.subsets() if j in subset)
        return Fraction(hits, self.num_subsets)

    def square_function_moment(self, p: float):
        """||(sum_j sigma_j^2)^(1/2)||_p^p by explicit enumeration."""
        exact = float(p).is_integer() and int(p) % 2 == 0
        total = 0 if exact else 0.0
        for subset in self.subsets():
            size = len(subset)
            total += size ** (int(p) // 2) if exact else float(size) ** (p / 2)
        return Fraction(total, self.num_subsets) if exact else total / self.num_subsets


@dataclass
class RatioReport:
    """One experiment outcome with a reproducible witness."""

    experiment: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    max_ratio: float
    witness: dict | None
    trials: int
    seed: int | None
    runtime_ms: float
    monte_carlo: bool = False
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {item.name: getattr(self, item.name) for item in fields(self)}


# -- balanced truncation averages -------------------------------------------


def _abs_power(z: np.ndarray, p: float) -> np.ndarray:
    """|z|^p elementwise; an even p is taken as (re^2 + im^2)^(p/2), with no square root."""
    if p % 2 == 0:
        return (z.real * z.real + z.imag * z.imag) ** (p // 2)
    return np.abs(z) ** p


def _extend_with_means(values: np.ndarray) -> np.ndarray:
    """The value tensor with each axis extended by its mean along that axis.

    E_S f averages the values over the axes outside S, so the extended tensor
    holds every E_S f: index m_j on axis j means "coordinate averaged out".
    Means are sums of slices, as numpy reduces short axes slowly.
    """
    for axis, m in enumerate(values.shape):
        values = np.concatenate([values, sum(np.split(values, m, axis=axis)) / m], axis=axis)
    return values


def _power_lattice(extended: np.ndarray, p: float) -> np.ndarray:
    """mean_x |E_S f(x)|^p for ALL subsets S at once, indexed by the indicator of S.

    Each axis of the extended tensor is reduced to the pair (dropped, kept),
    averaging |.|^p over kept coordinates.
    """
    powers = _abs_power(extended, p)
    for axis, size in enumerate(extended.shape):
        *kept, dropped = np.split(powers, size, axis=axis)
        powers = np.concatenate([dropped, sum(kept) / (size - 1)], axis=axis)
    return powers


@functools.lru_cache(maxsize=64)
def _lattice_index(n: int, k: int) -> np.ndarray:
    """Flat lattice index of each k-subset of [n], in order; j in S sets bit 2^(n-j)."""
    index = np.array([sum(1 << (n - 1 - j) for j in subset)
                      for subset in itertools.combinations(range(n), k)], dtype=np.intp)
    index.flags.writeable = False       # shared by every caller through the cache
    return index


def _grid_shape(group: GroupDescriptor, ps: Sequence[float]) -> tuple[int, ...]:
    """Points per axis of a profile's grid: a finite abelian group's moduli, or for
    a torus polynomial of bound B the most of p*B + 1 at each even p (|.|^p has
    degree p*B per axis, so its grid mean is exact) and 4(2B + 1) at any other
    p, as ``lp_norm_torus_grid``.  Over 2B points per axis alias no keys, so
    E_S f is the mean over the axes outside S."""
    if group.kind == FINITE_ABELIAN:
        return group.moduli
    sides = [int(p) * group.bound + 1 if p % 2 == 0 else 4 * (2 * group.bound + 1) for p in ps]
    return (max(sides, default=2 * group.bound + 1),) * group.rank


def _symbol_blocks(cocycle: LengthCocycle, derivative: str):
    """(symbol cocycle, [(sign, basis slice)]) of a multiplier stack, in summation
    order: euclidean takes e_j of f for each j; gradient and riesz take slice j of
    ``cocycle`` for f (sign 1) and f* (sign -1: D_u f* is minus the conjugate of the
    multiplier <beta(-g), u> applied to f), over the key box's corners, which pair
    with every vector that any key of the box pairs with."""
    if derivative not in ("euclidean", "gradient", "riesz"):
        return cocycle, []
    if derivative == "euclidean":
        cocycle = build_cocycle("euclidean", cocycle.group)
    shape, low = key_box(cocycle.group)
    corners = [(low,) * len(shape), tuple(low + m - 1 for m in shape)]
    return cocycle, [(sign, basis) for j in range(1, len(shape) + 1)
                     for sign in ((1,) if derivative == "euclidean" else (1, -1))
                     if (basis := cocycle.basis_slice(j, corners))]


@functools.lru_cache(maxsize=16)
def _pairing_table(group: GroupDescriptor, family: str, weights: tuple[float, ...] | None,
                   derivative: str, grid: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """<beta(sign * g), u>, over sqrt(psi(g)) for riesz, at index g mod grid for each
    (sign, u) of ``_symbol_blocks``, and the first row of each block."""
    cocycle, blocks = _symbol_blocks(LengthCocycle(family, group, weights), derivative)
    shape, low = key_box(group)
    keys = list(itertools.product(*(range(low, low + m) for m in shape)))
    symbols = np.array([
        [cocycle.pairing(g if sign == 1 else element_inverse(group, g), u) for g in keys]
        for sign, basis in blocks for u in basis], dtype=float)
    if derivative == "riesz":
        flat, lengths = _mean_zero_keys(group, family, weights)
        symbols[:, flat] /= np.sqrt(lengths)      # keys of length 0 pair to 0
    table = np.zeros((len(symbols), *grid))
    table[(slice(None), *np.array(keys).T)] = symbols
    starts = np.cumsum([0] + [len(basis) for _, basis in blocks[:-1]])
    table.flags.writeable = starts.flags.writeable = False
    return table, starts


def _check_lattice_size(group: GroupDescriptor, cocycle: LengthCocycle, ps: Sequence[float],
                        derivative: str) -> None:
    """Refuse the multiplier stack and naor's mean-extended value tensor (unless p = 2
    alone; riesz has none) above LATTICE_MAX_BYTES before they are allocated."""
    grid = _grid_shape(group, ps)
    rows = sum(len(basis) for _, basis in _symbol_blocks(cocycle, derivative)[1])
    extended = set(ps) != {2} and derivative != "riesz"
    size = 16 * (rows * math.prod(grid) + (math.prod(m + 1 for m in grid) if extended else 0))
    if size > LATTICE_MAX_BYTES:
        raise ValueError(f"the profile's grid tensors need {size} bytes, "
                         f"above {LATTICE_MAX_BYTES = }")


def _dual_stack(f: GroupAlgebraElement, cocycle: LengthCocycle, derivative: str,
                grid: tuple[int, ...]):
    """(coefficient tensor, values, multiplier stack, first row of each block) of f on
    ``grid``: one batched ``ifftn`` evaluates f and, for a multiplier derivative
    (euclidean, gradient, riesz), f times each symbol of ``_pairing_table``."""
    tensor = coefficient_tensor(f, grid)
    stack, starts = tensor[None], None
    if derivative not in ("walsh", "absorbent"):
        table, starts = _pairing_table(f.group, cocycle.family, cocycle.weights, derivative, grid)
        stack = np.concatenate([stack, table * (operators.TWO_PI_I * tensor)])
    evaluated = np.fft.ifftn(stack, axes=range(-len(grid), 0)) * math.prod(grid)
    return tensor, evaluated[0], evaluated[1:], starts


def _grid_terms(f: GroupAlgebraElement, cocycle: LengthCocycle, ps: Sequence[float],
                ks: tuple[int, ...], derivative: str):
    """(p, lhs by k, derivative sum, ||f||_p^p) for each p, on an abelian group.

    All come from the one dual evaluation of ``_dual_stack`` on the grid of
    ``_grid_shape``; the squared moduli of a multiplier stack are summed over a
    block before the power p/2.  The subset lattice's all-kept corner is
    ||f||_p^p; at p = 2 the lhs and ||f||_2^2 are the closure of
    ``_even_sides``.  walsh/absorbent take each axis's values minus their mean
    along it; f* has the conjugate values of f, so its absorbent half is the f
    half.
    """
    n = f.group.n_components
    _, values, stack, starts = _dual_stack(f, cocycle, derivative, _grid_shape(f.group, ps))
    flips = starts is None
    extended = _extend_with_means(values) if set(ps) != {2} else None
    sums = dict.fromkeys(ps, 0.0)
    for axis in range(n if flips else 0):
        flipped = values - values.mean(axis=axis, keepdims=True)
        for p in ps:
            sums[p] += float(np.mean(_abs_power(flipped, p)))
    blocks = [] if flips else np.add.reduceat(_abs_power(stack, 2), starts)
    for p in ps:
        for block in blocks:
            sums[p] += float(np.mean(block ** (p // 2 if p % 2 == 0 else p / 2)))
        if p == 2:
            lhs, _, full_norm = _even_sides(f, 2, ks)
        else:
            lattice = _power_lattice(extended, p).ravel()
            lhs = {k: float(np.mean(lattice[_lattice_index(n, k)])) for k in ks}
            full_norm = float(lattice[-1])
        yield p, lhs, _derivative_factor(derivative, p) * sums[p], full_norm


def _derivative_factor(derivative: str, p: float) -> float:
    """What multiplies sum_j ||P_j f||_p^p (or a multiplier stack's sum): 2^p for walsh,
    2 for absorbent (f and f* alike), 1 for a multiplier derivative."""
    return 2.0 ** p if derivative == "walsh" else 2.0 if derivative == "absorbent" else 1.0


#: number of set bits of every byte, for key supports packed 8 coordinates a byte
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.intp)


@functools.lru_cache(maxsize=64)
def _inclusion_odds(n: int, ks: tuple[int, ...]) -> np.ndarray:
    """C(n - u, k - u) / C(n, k) at row k of ks and column u = 0..n: the share of the
    k-subsets of [n] that hold a given u-set."""
    odds = np.array([[math.comb(n - u, k - u) / math.comb(n, k) if u <= k else 0.0
                      for u in range(n + 1)] for k in ks])
    odds.flags.writeable = False        # shared by every caller through the cache
    return odds


def _grouped_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) indices of every ordered pair of equal rows, where equal rows
    are adjacent (as ``np.unique`` sorts them)."""
    starts = np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])
    counts = np.diff(np.r_[starts, len(rows)])
    first, size = np.repeat(starts, counts), np.repeat(counts, counts)   # each row's group
    left = np.repeat(np.arange(len(rows)), size)
    offsets = np.arange(len(left)) - np.repeat(np.cumsum(size) - size, size)
    return left, np.repeat(first, size) + offsets


def _even_sides(f: GroupAlgebraElement, p: float, ks: Sequence[int]):
    """(lhs by k, sum_j ||P_j f||_p^p, ||f||_p^p) at an even p = 2q, from key pairs.

    |E_S f|^p = (E_S f)^q conj(E_S f)^q, so mean_x |E_S f|^p sums
    w = Re(prod c_a conj prod c_b) over ordered q-tuples a, b of f's keys with
    equal sums in the group whose supports (nonzero coordinates) lie in S.  A
    k-subset holds the union U of a pair's supports with probability
    C(n - |U|, k - |U|) / C(n, k); ||f||_p^p is sum w; P_j f keeps the keys with
    g_j != 0, so sum_j ||P_j f||_p^p is sum w |intersection of the supports|.
    Tuples with the same sum, support union and support intersection (the
    orderings of one multiset among them) are merged by adding their products
    before the join.  At p = 2 only equal keys pair: the hypergeometric closure.
    """
    n, q = f.group.n_components, int(p) // 2
    keys = np.array(list(f.coeffs), dtype=np.int64).reshape(len(f.coeffs), n)
    coeffs = np.array(list(f.coeffs.values()), dtype=complex)
    masks = np.packbits(keys != 0, axis=1).astype(np.int64)
    width = masks.shape[1]
    moduli = np.array(f.group.moduli) if f.group.kind == FINITE_ABELIAN else None
    sums, prods, unions, inters = keys, coeffs, masks, masks
    for _ in range(q - 1):              # extend every tuple by every key
        sums = (sums[:, None] + keys).reshape(-1, n)
        if moduli is not None:
            sums %= moduli
        prods = np.multiply.outer(prods, coeffs).ravel()
        unions = (unions[:, None] | masks).reshape(-1, width)
        inters = (inters[:, None] & masks).reshape(-1, width)
    if q == 1:                          # distinct keys: each pairs with itself alone
        left = right = np.arange(len(keys))
    else:                               # rows sorted by sum first, so equal sums are adjacent
        rows, labels = np.unique(np.hstack([sums, unions, inters]), axis=0, return_inverse=True)
        labels = labels.ravel()
        prods = np.bincount(labels, prods.real) + 1j * np.bincount(labels, prods.imag)
        unions, inters = rows[:, n:n + width], rows[:, n + width:]
        left, right = _grouped_pairs(rows[:, :n])
    w = (prods[left] * prods[right].conj()).real
    union = _BYTE_BITS[unions[left] | unions[right]].sum(axis=1)
    inter = _BYTE_BITS[inters[left] & inters[right]].sum(axis=1)
    by_union = np.bincount(union, weights=w, minlength=n + 1)
    return (dict(zip(ks, (_inclusion_odds(n, tuple(ks)) @ by_union).tolist())),
            float(w @ inter), float(w.sum()))


def _pair_terms(f: GroupAlgebraElement, ps: Sequence[float], ks: tuple[int, ...],
                derivative: str):
    """(p, lhs by k, derivative sum, ||f||_p^p) for each even p, walsh or absorbent,
    from the key pairs of ``_even_sides``: no grid and no subset lattice."""
    for p in ps:
        lhs, projections, full_norm = _even_sides(f, p, ks)
        yield p, lhs, _derivative_factor(derivative, p) * projections, full_norm


def _naor_route(f: GroupAlgebraElement, ps: Sequence[float], derivative: str) -> str:
    """"pairs" or "grid": the route of ``naor_profile``, chosen from the input alone.

    Key pairs need every p even and a walsh or absorbent derivative.  At p = 2q
    they list s^q q-tuples of the s keys and join at most s^(2q - 1) pairs (a
    tuple and q - 1 keys of its partner fix the last key); summed over the ps,
    that bound must not exceed the prod(m_j + 1) entries of the grid's
    mean-extended tensor.
    """
    if derivative not in ("walsh", "absorbent") or any(p % 2 for p in ps):
        return "grid"
    s, entries = len(f.coeffs), math.prod(m + 1 for m in _grid_shape(f.group, ps))
    cap = entries.bit_length()          # s^cap > entries once s >= 2: higher powers decide nothing
    cost = sum(s ** min(int(p) // 2, cap) + s ** min(int(p) - 1, cap) for p in set(ps))
    return "pairs" if cost <= entries else "grid"


def _validate_input(f: GroupAlgebraElement, cocycle: LengthCocycle, ps: Sequence[float],
                    derivative: str) -> None:
    """Refuse a free kind, an oversized grid, then a zero or not mean-zero input."""
    if not f.group.is_abelian:
        raise ValueError(f"dual evaluations need an abelian group, got {f.group.kind}")
    _check_lattice_size(f.group, cocycle, ps, derivative)
    if not f.coeffs:
        raise ValueError("the input must be nonzero")
    shape, low = key_box(f.group)       # look the keys up in the table of nonzero lengths
    flat = np.ravel_multi_index((np.array(list(f.coeffs)) - low).T, shape)
    if not np.isin(flat, _mean_zero_keys(f.group, cocycle.family, cocycle.weights)[0]).all():
        raise ValueError("the input must be mean-zero (no coefficients of zero length)")


def naor_profile(f: GroupAlgebraElement, cocycle: LengthCocycle,
                 ps: Sequence[float], ks: Sequence[int],
                 derivative: str) -> dict[float, dict[int, tuple[float, float]]]:
    """(lhs, rhs) of the truncation-average inequality for each (p, k).

    lhs(p, k) averages ||E_S f||_p^p over the k-subsets; rhs(p, k) is
    (k/n) * sum_j (derivative term)_j + (k/n)^(p/2) * ||f||_p^p.  On finite
    abelian groups and torus polynomials all of them come from the key pairs of
    ``_pair_terms`` or one batched dual evaluation (``_grid_terms``), as
    ``_naor_route`` picks; free kinds are refused.
    """
    if derivative not in DERIVATIVE_CHOICES:
        raise ValueError(f"unknown derivative choice {derivative!r}; valid: {DERIVATIVE_CHOICES}")
    if derivative == "walsh" and (f.group.kind != FINITE_ABELIAN or set(f.group.moduli) != {2}):
        raise ValueError("the walsh derivative needs a hypercube group")
    _validate_input(f, cocycle, [_finite(p, 1) for p in ps], derivative)
    n = f.group.n_components
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
    ps, ks_sorted = list(ps), tuple(sorted(set(ks)))
    terms = (_pair_terms(f, ps, ks_sorted, derivative)
             if _naor_route(f, ps, derivative) == "pairs"
             else _grid_terms(f, cocycle, ps, ks_sorted, derivative))
    out: dict[float, dict[int, tuple[float, float]]] = {}
    for p, lhs, deriv_sum, full_norm in terms:
        out[p] = {k: (lhs[k], (k / n) * deriv_sum + (k / n) ** (p / 2) * full_norm)
                  for k in ks}
    return out


def naor_ratio(f: GroupAlgebraElement, cocycle: LengthCocycle, p: float, k: int,
               derivative: str = "absorbent") -> RatioReport:
    """One balanced truncation-average experiment at a single (p, k)."""
    start = time.perf_counter()
    profile = naor_profile(f, cocycle, [p], [k], derivative)
    lhs, rhs = profile[p][k]
    params = {"experiment_family": cocycle.family, "n": f.group.n_components,
              "p": p, "k": k, "derivative": derivative}
    ratio = lhs / rhs
    return RatioReport("naor", params, lhs, rhs, ratio, ratio,
                       _element_witness(f, cocycle, k=k, p=p, derivative=derivative),
                       trials=1, seed=None,
                       runtime_ms=1e3 * (time.perf_counter() - start),
                       extra={"route": _naor_route(f, [p], derivative)})


def _element_witness(f: GroupAlgebraElement, cocycle: LengthCocycle, **fields) -> dict:
    return {"f": f.to_json(), **fields, "family": cocycle.family,
            "weights": list(cocycle.weights) if cocycle.weights else None}


# -- matrix and scalar linear models -----------------------------------------


def _subset_blocks(n: int, k: int, rows: int):
    """The k-subsets of range(n) in lexicographic order, as index arrays.

    Blocks hold about SIGN_BLOCK_ROWS // rows subsets (at least one), so a
    block times a sign table of ``rows`` rows stays near SIGN_BLOCK_ROWS rows;
    each block's indices are built only when it is reached.
    """
    subsets = itertools.combinations(range(n), k)
    step = max(1, SIGN_BLOCK_ROWS // rows)
    while block := list(itertools.islice(subsets, step)):
        yield np.array(block, dtype=np.intp)


def _subset_sign_averages(mats: np.ndarray, p: float, k: int) -> np.ndarray:
    """Exact E_eps ||sum_{j in S} eps_j x_j||_p^p for every k-subset S, in order."""
    signs = half_sign_patterns(k)
    return np.concatenate([
        schatten_powers(sign_combinations(signs, mats[block]), p).mean(axis=1)
        for block in _subset_blocks(len(mats), k, len(signs))])


def _random_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice((1.0, -1.0), size=(MONTE_CARLO_SIGNS, n))


def xp_linear_profile(xs: Sequence[np.ndarray], p: float, ks: Sequence[int],
                      seed: int | None = None) -> dict[int, tuple[float, float, bool]]:
    """(lhs, rhs, monte_carlo) of the balanced sign-average inequality for each k.

    lhs(k) averages E_eps ||sum_{j in S} eps_j x_j||_p^p over the k-subsets;
    rhs(k) is (k/n) sum_j ||x_j||_p^p + (k/n)^(p/2) E_eps ||sum_j eps_j x_j||_p^p.
    Sign expectations are exhaustive up to 14 signs and Monte Carlo beyond,
    and the full n-sign average is computed once for every k.  Draw order:
    the full average is the first draw from ``default_rng(seed)``; each k
    above the cap restarts its per-subset draws from the state after it, so
    a row depends only on (xs, p, k, seed).
    """
    _finite(p)
    if p < 2:
        warnings.warn("p < 2 is outside the theorem range; computing anyway")
    mats = np.stack([np.asarray(x, dtype=complex) for x in xs])
    n = mats.shape[0]
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    # a k-subset average is sampled only when the full n-sign one is (k <= n)
    monte_carlo = n > SIGN_ENUMERATION_CAP
    if monte_carlo:
        full_avg = sign_average_power(mats, p, _random_signs(rng, n))
    else:
        full_avg = float(_subset_sign_averages(mats, p, n)[0])
    norm_sum = float(np.sum(schatten_powers(mats, p)))
    out = {}
    for k in ks:
        if k <= SIGN_ENUMERATION_CAP:
            lhs = float(np.mean(_subset_sign_averages(mats, p, k)))
        else:
            draws = copy.deepcopy(rng)
            lhs = float(np.mean([sign_average_power(mats[list(s)], p, _random_signs(draws, k))
                                 for s in itertools.combinations(range(n), k)]))
        out[k] = (lhs, (k / n) * norm_sum + (k / n) ** (p / 2) * full_avg, monte_carlo)
    return out


def xp_linear_ratio(xs: Sequence[np.ndarray], p: float, k: int,
                    seed: int | None = None) -> RatioReport:
    """The balanced sign-average inequality for matrix tuples at one k.

    See :func:`xp_linear_profile` for the two sides and the sign draws.  An
    unseeded Monte Carlo run draws its seed from fresh entropy and reports it.
    """
    start = time.perf_counter()
    mats = np.stack([np.asarray(x, dtype=complex) for x in xs])
    if seed is None and len(mats) > SIGN_ENUMERATION_CAP:
        # a concrete seed in the report lets its witness re-evaluate exactly
        seed = int(np.random.SeedSequence().generate_state(1)[0])
    lhs, rhs, monte_carlo = xp_linear_profile(mats, p, [k], seed)[k]
    ratio = lhs / rhs
    params = {"n": mats.shape[0], "d": mats.shape[1], "p": p, "k": k,
              "trace_convention": "unnormalized"}
    return RatioReport("xp_linear", params, lhs, rhs, ratio, ratio,
                       _xp_witness(mats, k, p), trials=1, seed=seed,
                       runtime_ms=1e3 * (time.perf_counter() - start),
                       monte_carlo=monte_carlo)


def _xp_witness(mats: Sequence[np.ndarray], k: int, p: float) -> dict:
    return {"matrices": [_matrix_to_json(x) for x in mats], "k": k, "p": p}


def _matrix_to_json(x: np.ndarray) -> dict:
    return {"re": np.asarray(x).real.tolist(), "im": np.asarray(x).imag.tolist()}


def _matrix_from_json(data: dict) -> np.ndarray:
    return np.array(data["re"]) + 1j * np.array(data["im"])


def rosenthal_linear_ratio(a: Sequence[complex], p: float, k: int) -> dict:
    """Two-sided scalar model: exact lhs by exhaustive (eps, S) enumeration."""
    _finite(p)
    coeffs = np.array([complex(x) for x in a])
    n = len(coeffs)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k > SIGN_ENUMERATION_CAP:
        raise ValueError("exhaustive enumeration is capped at k = 14")
    if not np.any(coeffs):
        raise ValueError("the coefficient vector must be nonzero")
    signs = half_sign_patterns(k)
    means = []
    for block in _subset_blocks(n, k, len(signs)):
        # |sum_j eps_j a_j|^2 from the real and imaginary parts separately
        sq = (coeffs.real[block] @ signs.T) ** 2 + (coeffs.imag[block] @ signs.T) ** 2
        means.append(np.mean(sq ** (p / 2), axis=1))
    total = sum(np.concatenate(means).tolist())           # in subset order
    lhs = (total / math.comb(n, k)) ** (1.0 / p)
    kn = k / n
    rhs = (kn * np.sum(np.abs(coeffs) ** p)) ** (1.0 / p) \
        + math.sqrt(kn * float(np.sum(np.abs(coeffs) ** 2)))
    return {"lhs": float(lhs), "rhs": float(rhs),
            "lhs_over_rhs": float(lhs / rhs), "rhs_over_lhs": float(rhs / lhs)}


def moment_checks(n: int, k: int, p: float) -> dict:
    """Exact moments of the sign-subset variables by enumeration."""
    model = SigmaModel(n, k)
    sigma_moments = [model.sigma_moment(j, p) for j in range(1, n + 1)]
    expected_sigma = Fraction(k, n)
    square_moment = model.square_function_moment(p)
    even = float(p).is_integer() and int(p) % 2 == 0
    expected_square = k ** (int(p) // 2) if even else float(k) ** (p / 2)
    passed = all(m == expected_sigma for m in sigma_moments) and square_moment == expected_square
    return {"n": n, "k": k, "p": p,
            "sigma_moment": sigma_moments[0],
            "sigma_expected": expected_sigma,
            "square_moment": square_moment,
            "square_expected": expected_square,
            "passed": passed}


# -- Riesz transform norm equivalence ----------------------------------------


def riesz_equivalence_ratio(f: GroupAlgebraElement, p: float,
                            cocycle: LengthCocycle) -> dict:
    """||f||_p against the Riesz square function, normalized by 2*pi.

    f and every R_u f and R_u f* (the column and row square functions) come from
    one batched dual evaluation on the grid of ``_grid_shape``.  The symbol
    normalization sum_u |symbol(g)|^2 = 4 pi^2 makes the quotient 1 at p = 2.
    """
    _validate_input(f, cocycle, [_finite(p, 1)], "riesz")
    _, values, stack, starts = _dual_stack(f, cocycle, "riesz", _grid_shape(f.group, [p]))
    squares = np.add.reduceat(_abs_power(stack, 2), starts)     # f and f* blocks alternate
    sides = [float(np.mean(sum(squares[side::2]) ** (p / 2))) ** (1 / p) for side in (0, 1)]
    lhs = float(np.mean(_abs_power(values, p))) ** (1 / p)
    rhs = max(sides) / (2 * math.pi)
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs, "inverse_ratio": rhs / lhs}


# -- random ensembles ---------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSpec:
    """How scan inputs are drawn.

    ``gaussian`` fills the whole (boxed) frequency domain, ``sparse`` picks a
    few sites, ``chaos_degree`` keeps lengths at most ``degree``, and
    ``linear_span`` uses only single-generator frequencies.
    """

    kind: str = "gaussian"
    sparsity: int = 8
    degree: int = 2
    word_length: int = 3

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; valid: {ENSEMBLE_KINDS}")

    def to_json(self) -> dict:
        return {item.name: getattr(self, item.name) for item in fields(self)}


def _complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)


@functools.lru_cache(maxsize=32)
def _mean_zero_keys(group: GroupDescriptor, family: str,
                    weights: tuple[float, ...] | None) -> tuple[np.ndarray, np.ndarray]:
    """Box positions (ascending) and psi lengths of the keys of nonzero length."""
    cocycle = LengthCocycle(family, group, weights)
    shape, low = key_box(group)
    keys = itertools.product(*(range(low, low + m) for m in shape))
    lengths = np.fromiter((cocycle.psi(key) for key in keys), dtype=float,
                          count=math.prod(shape))
    flat = np.flatnonzero(lengths)
    lengths = lengths[flat]
    flat.flags.writeable = lengths.flags.writeable = False
    return flat, lengths


def sample_element(group: GroupDescriptor, cocycle: LengthCocycle,
                   spec: EnsembleSpec, rng: np.random.Generator) -> GroupAlgebraElement:
    """Draw one mean-zero random element according to the ensemble spec.

    Abelian keys of nonzero length are found once per (group, family, weights).
    """
    if group.is_abelian:
        if spec.kind == "linear_span":      # each unit key, then its inverse if distinct
            n = group.n_components
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            keys = list(dict.fromkeys(key for unit in units
                                      for key in (unit, element_inverse(group, unit))))
            return GroupAlgebraElement(group, dict(zip(keys, _complex_normal(rng, len(keys)))))
        flat, lengths = _mean_zero_keys(group, cocycle.family, cocycle.weights)
        if spec.kind == "gaussian":
            chosen = flat
        elif spec.kind == "sparse":
            idx = rng.choice(len(flat), size=min(spec.sparsity, len(flat)), replace=False)
            chosen = flat[np.sort(idx)]
        else:                               # chaos_degree
            chosen = flat[lengths <= spec.degree]
        shape, low = key_box(group)
        keys = (np.stack(np.unravel_index(chosen, shape), axis=-1) + low).tolist()
        values = _complex_normal(rng, len(keys)).tolist()
        return GroupAlgebraElement(group, {tuple(key): v for key, v in zip(keys, values)
                                           if abs(v) > PRUNE_TOL}, _canonical=True)
    # free kinds: random reduced walks; the pool may be smaller than the
    # requested sparsity for tiny ranks, so cap the draw attempts
    from .groups import random_group_elements
    sites: dict = {}
    attempts = 0
    while len(sites) < spec.sparsity and attempts < 200 * spec.sparsity:
        (word,) = random_group_elements(group, 1, rng, max_length=spec.word_length)
        attempts += 1
        if not word.is_identity:
            sites[word] = None
    if not sites:
        raise ValueError("could not draw any nonidentity word for the ensemble")
    coeffs = dict(zip(sites.keys(), _complex_normal(rng, len(sites))))
    return GroupAlgebraElement(group, coeffs)


# -- scan driver ---------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One candidate outcome of a trial; ``score`` ranks it within a scan."""

    score: float
    lhs: float
    rhs: float
    ratio: float
    p: float | None = None
    k: int | None = None
    monte_carlo: bool = False
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    """One scan experiment.

    ``bind(params, ensemble, seed)`` resolves a scan call into ``sample(rng)``
    (one input), ``evaluate(x)`` (its candidate rows, in a fixed order) and
    ``witness(x, row)``; ``from_witness(witness, seed)`` recomputes a winner's
    row and ``summary(rows)`` adds report fields that depend on every row.
    """

    bind: Callable[[dict, EnsembleSpec, int], tuple[Callable, Callable, Callable]]
    from_witness: Callable[[dict, int | None], Row]
    summary: Callable[[list[Row]], dict] = lambda rows: {}


def _p(params: dict, default: float) -> float:
    return _finite(float(params.get("p", default)))


def _ks(params: dict) -> list[int]:
    return [int(k) for k in params.get("ks", [params.get("k", 1)])]


#: truncation family -> (cocycle family whose record builds the group, fixed modulus)
_TRUNCATION_FAMILIES = {"hypercube": ("cyclic_word", 2), "cyclic": ("cyclic_word", None),
                        "torus": ("torus_word", None), "weighted_cube": ("weighted_cube", None)}


def _naor_family(params: dict) -> tuple[GroupDescriptor, LengthCocycle, str]:
    family = params.get("family", "hypercube")
    if family not in _TRUNCATION_FAMILIES:
        raise ValueError(f"unknown truncation family {family!r}")
    name, modulus = _TRUNCATION_FAMILIES[family]
    record = COCYCLE_FAMILIES[name]
    group = record.cli_group(int(params["n"]), modulus or int(params.get("modulus", 4)),
                             int(params.get("bound", 2)))
    weights = params.get("weights")
    if record.takes_weights and weights is None:
        weights = [1.0] * group.n_components
    cocycle = build_cocycle(params.get("cocycle", name) if family == "torus" else name, group,
                            weights)
    derivative = params.get("derivative", "absorbent")
    if derivative not in DERIVATIVE_CHOICES:
        raise ValueError(f"unknown derivative choice {derivative!r}")
    return group, cocycle, derivative


def _load_element(witness: dict) -> tuple[GroupAlgebraElement, LengthCocycle]:
    f = GroupAlgebraElement.from_json(witness["f"])
    return f, build_cocycle(witness["family"], f.group, witness.get("weights"))


def _report_row(report: RatioReport) -> Row:
    return Row(report.ratio, report.lhs, report.rhs, report.ratio,
               monte_carlo=report.monte_carlo)


def _naor(params: dict, ensemble: EnsembleSpec, seed: int):
    group, cocycle, derivative = _naor_family(params)
    ps = [_finite(float(p), 1) for p in params.get("ps", [params.get("p", 4)])]
    ks = _ks(params)
    _check_lattice_size(group, cocycle, ps, derivative)

    def evaluate(f):
        profile = naor_profile(f, cocycle, ps, ks, derivative)
        extra = {"route": _naor_route(f, ps, derivative)}
        return [Row(lhs / rhs, lhs, rhs, lhs / rhs, p=p, k=k, extra=extra)
                for p in ps for k in ks for lhs, rhs in [profile[p][k]]]

    return (lambda rng: sample_element(group, cocycle, ensemble, rng), evaluate,
            lambda f, row: _element_witness(f, cocycle, k=row.k, p=row.p,
                                            derivative=derivative))


def _max_ratio_by_p(rows: list[Row]) -> dict:
    peaks: dict[float, float] = {}
    for row in rows:
        peaks[row.p] = max(peaks.get(row.p, 0.0), row.ratio)
    return {"max_ratio_by_p": {str(p): v for p, v in peaks.items()}}


def _trial_seed(seed: int, trial: int) -> int:
    """Monte Carlo sign seed of one scan trial, independent of the input draws."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def _xp_linear(params: dict, ensemble: EnsembleSpec, seed: int):
    n, d, p, ks = int(params["n"]), int(params.get("d", 4)), _p(params, 4), _ks(params)
    trials = itertools.count()

    def sample(rng):
        return [_complex_normal(rng, (d, d)) for _ in range(n)], _trial_seed(seed, next(trials))

    def evaluate(x):
        mats, sign_seed = x
        profile = xp_linear_profile(mats, p, ks, sign_seed)
        return [Row(lhs / rhs, lhs, rhs, lhs / rhs, k=k, monte_carlo=mc)
                for k in ks for lhs, rhs, mc in [profile[k]]]

    return (sample, evaluate,
            lambda x, row: {**_xp_witness(x[0], row.k, p), "sign_seed": x[1]})


def _rosenthal(params: dict, ensemble: EnsembleSpec, seed: int):
    n, p, ks = int(params["n"]), _p(params, 4), _ks(params)
    return (lambda rng: _complex_normal(rng, n),
            lambda coeffs: [_rosenthal_row(coeffs, p, k) for k in ks],
            lambda coeffs, row: {"coeffs": [{"re": z.real, "im": z.imag} for z in coeffs],
                                 "k": row.k, "p": p})


def _rosenthal_row(coeffs: Sequence[complex], p: float, k: int) -> Row:
    result = rosenthal_linear_ratio(coeffs, p, k)
    spread = max(result["lhs_over_rhs"], result["rhs_over_lhs"])
    return Row(spread, result["lhs"], result["rhs"], result["lhs_over_rhs"], k=k,
               extra={"lhs_over_rhs": result["lhs_over_rhs"],
                      "rhs_over_lhs": result["rhs_over_lhs"],
                      "two_sided_spread": spread})


def _riesz(params: dict, ensemble: EnsembleSpec, seed: int):
    group, cocycle, _ = _naor_family(params)
    p = _finite(float(params.get("p", 2)), 1)
    _check_lattice_size(group, cocycle, [p], "riesz")
    return (lambda rng: sample_element(group, cocycle, ensemble, rng),
            lambda f: [_riesz_row(f, cocycle, p)],
            lambda f, row: _element_witness(f, cocycle, p=p))


def _riesz_row(f: GroupAlgebraElement, cocycle: LengthCocycle, p: float) -> Row:
    result = riesz_equivalence_ratio(f, p, cocycle)
    spread = max(result["ratio"], result["inverse_ratio"])
    return Row(spread, result["lhs"], result["rhs"], result["ratio"],
               extra={"inverse_ratio": result["inverse_ratio"], "two_sided_spread": spread})


def free_identity_deviation(f: GroupAlgebraElement) -> float:
    """Max deviation over the free-operator identity battery for one input."""
    n = f.group.n_components
    signs = tuple(1 if i % 2 == 0 else -1 for i in range(n))
    twice = operators.free_hilbert_transform(operators.free_hilbert_transform(f, signs), signs)
    total = sum((operators.absorbent_derivative(f, j) for j in range(2, n + 1)),
                operators.absorbent_derivative(f, 1))
    deviation = max(_element_distance(twice, f), _element_distance(total, f))
    for size in range(1, n + 1):
        subset = tuple(range(1, size + 1))
        direct = operators.truncate(f, subset)
        through = operators.truncate(operators.project_AS(f, subset), subset)
        deviation = max(deviation, _element_distance(direct, through))
    return deviation


def _element_distance(a: GroupAlgebraElement, b: GroupAlgebraElement) -> float:
    keys = set(a.coeffs) | set(b.coeffs)
    if not keys:
        return 0.0
    return max(abs(a.coeffs.get(k, 0) - b.coeffs.get(k, 0)) for k in keys)


def _free_identities(params: dict, ensemble: EnsembleSpec, seed: int):
    modulus = params.get("modulus")
    name = "free_product_word" if modulus else "free_word"
    group = COCYCLE_FAMILIES[name].cli_group(int(params.get("rank", 2)), int(modulus or 0), 0)
    cocycle = build_cocycle(name, group)
    return (lambda rng: sample_element(group, cocycle, ensemble, rng),
            lambda f: [_free_row(f)],
            lambda f, row: {"f": f.to_json()})


def _free_row(f: GroupAlgebraElement) -> Row:
    deviation = free_identity_deviation(f)
    return Row(deviation, deviation, 1e-12, deviation / 1e-12)


#: every scan experiment by name; the records reach the public single-run
#: functions through module globals at call time, so module wrappers see them
EXPERIMENTS: dict[str, Experiment] = {
    "naor": Experiment(_naor, lambda w, seed: _report_row(naor_ratio(
        *_load_element(w), w["p"], w["k"], w["derivative"])), _max_ratio_by_p),
    "xp_linear": Experiment(_xp_linear, lambda w, seed: _report_row(xp_linear_ratio(
        [_matrix_from_json(x) for x in w["matrices"]], w["p"], w["k"],
        seed=w.get("sign_seed", seed)))),
    "rosenthal": Experiment(_rosenthal, lambda w, seed: _rosenthal_row(
        [complex(z["re"], z["im"]) for z in w["coeffs"]], w["p"], w["k"])),
    "riesz_equivalence": Experiment(_riesz, lambda w, seed: _riesz_row(
        *_load_element(w), w["p"])),
    "free_identities": Experiment(_free_identities, lambda w, seed: _free_row(
        GroupAlgebraElement.from_json(w["f"]))),
}


def _experiment(name: str) -> Experiment:
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; valid: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name]


def scan(experiment: str, ensemble: EnsembleSpec | None = None, trials: int = 100,
         seed: int = 0, **params) -> RatioReport:
    """Run a named experiment over a random ensemble; deterministic per seed.

    The reported row is the first maximum, in trial order and then in the order
    ``evaluate`` lists the rows, of scores equal up to SCORE_TIE_RTOL (relative).
    """
    record = _experiment(experiment)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ensemble = ensemble or EnsembleSpec()
    start = time.perf_counter()
    sample, evaluate, witness = record.bind(params, ensemble, seed)
    rng = np.random.default_rng(seed)
    rows: list[Row] = []
    best = winner = None
    for _ in range(trials):
        x = sample(rng)
        for row in evaluate(x):
            rows.append(row)
            if best is None or row.score - best.score > SCORE_TIE_RTOL * abs(best.score):
                best, winner = row, x
    report_witness = witness(winner, best)
    runtime_ms = 1e3 * (time.perf_counter() - start)
    return RatioReport(
        experiment=experiment, params={**params, "ensemble": ensemble.to_json()},
        lhs=float(best.lhs), rhs=float(best.rhs), ratio=float(best.ratio),
        max_ratio=float(best.ratio), witness=report_witness, trials=trials, seed=seed,
        runtime_ms=runtime_ms, monte_carlo=any(row.monte_carlo for row in rows),
        extra={**best.extra, **record.summary(rows)})


def reevaluate_witness(report: RatioReport | dict) -> dict:
    """Recompute (lhs, rhs, ratio) from a report's stored witness."""
    data = report.to_json() if isinstance(report, RatioReport) else report
    if data["witness"] is None:
        raise ValueError("report has no witness")
    row = _experiment(data["experiment"]).from_witness(data["witness"], data.get("seed"))
    return {"lhs": row.lhs, "rhs": row.rhs, "ratio": row.ratio}
