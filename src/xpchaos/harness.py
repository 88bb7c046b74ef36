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
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import operators
from .cocycles import COCYCLE_FAMILIES, LengthCocycle, build_cocycle
from .groups import (FINITE_ABELIAN, PRUNE_TOL, TORUS, GroupAlgebraElement, GroupDescriptor,
                     _distance, _grid_values, coefficient_tensor, element_inverse, is_mean_zero,
                     key_box)
from .norms import (SIGN_BLOCK_ROWS, _check_p, half_sign_patterns, schatten_powers,
                    sign_block_bytes, sign_block_powers, sign_row_blocks)

SIGN_ENUMERATION_CAP = 14
MONTE_CARLO_SIGNS = 2 ** 14
#: most (eps, S) rows of a sign route's profile (``_check_sign_rows``): 4.1e6 rows
#: (n = 16, k = 10) took 0.07 s on 1 x 1 matrices, 0.72 s on 4 x 4 at p = 4 and 16 s
#: at p = 3 (2 CPUs); the tests, battery, dump and benchmark average <= 278768 rows
SIGN_ROWS_MAX = 2 ** 22
#: largest allocation of the route of a ``naor_profile`` or ``riesz_equivalence_ratio``
#: call, as ``_plan`` and ``_pair_route_bytes`` count it
LATTICE_MAX_BYTES = 2 ** 30
#: most draws a naor scan evaluates as one batch: on 6-key hypercube n = 10 draws, a
#: batch of a few dozen is as fast per draw as any larger one, whose memory keeps growing
SCAN_BATCH_DRAWS = 64
#: relative margin by which a later scan row must beat the best score to replace it
SCORE_TIE_RTOL = 1e-12

DERIVATIVE_CHOICES = ("walsh", "euclidean", "absorbent", "gradient")
ENSEMBLE_KINDS = ("gaussian", "sparse", "chaos_degree", "linear_span")


@dataclass
class RatioReport:
    """One experiment outcome with a reproducible witness."""

    experiment: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    witness: dict | None
    trials: int
    seed: int | None
    runtime_ms: float
    monte_carlo: bool = False
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {item.name: getattr(self, item.name) for item in fields(self)}


def _report(experiment: str, params: dict, row: Row, start: float, witness: dict,
            trials: int = 1, seed: int | None = None) -> RatioReport:
    """The report of ``row``, a single run's outcome or a scan's winning row with the
    scan's summary, timed from ``start``."""
    return RatioReport(experiment, params, float(row.lhs), float(row.rhs), float(row.ratio),
                       witness, trials, seed, 1e3 * (time.perf_counter() - start),
                       row.monte_carlo, dict(row.extra))


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


def _dual_stack(f: GroupAlgebraElement, cocycle: LengthCocycle, derivative: str,
                grid: tuple[int, ...]):
    """(values, multiplier stack, first row of each block) of f on ``grid``: one
    batched ``ifftn`` evaluates f and, for a multiplier derivative (euclidean,
    gradient, riesz), f times each symbol of ``_pairing_table``."""
    tensor = coefficient_tensor(f, grid)
    stack, starts = tensor[None], None
    if derivative not in ("walsh", "absorbent"):
        table, starts = _pairing_table(f.group, cocycle.family, cocycle.weights, derivative, grid)
        stack = np.concatenate([stack, table * (operators.TWO_PI_I * tensor)])
    evaluated = _grid_values(stack, grid)
    return evaluated[0], evaluated[1:], starts


def _grid_terms(f: GroupAlgebraElement, cocycle: LengthCocycle, ps: Sequence[float],
                ks: tuple[int, ...], derivative: str, grid: tuple[int, ...]):
    """(p, lhs by k, derivative sum, ||f||_p^p) for each p, on an abelian group.

    All come from the one dual evaluation of ``_dual_stack`` on the planned
    ``grid``; the squared moduli of a multiplier stack are summed over a block
    before the power p/2.  The subset lattice's all-kept corner is ||f||_p^p; at
    p = 2 the lhs and ||f||_2^2 are the join-free key closure of ``_pair_terms``.
    walsh/absorbent take each axis's values minus their mean along it; f* has the
    conjugate values of f, so its absorbent half is the f half.
    """
    n = f.group.n_components
    values, stack, starts = _dual_stack(f, cocycle, derivative, grid)
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
            [[(_, lhs, _, full_norm)]] = _pair_terms([f], [2], ks, derivative)
        else:
            lattice = _power_lattice(extended, p).ravel()
            lhs = {k: float(np.mean(lattice[_lattice_index(n, k)])) for k in ks}
            full_norm = float(lattice[-1])
        yield p, lhs, _derivative_factor(derivative, p) * sums[p], full_norm


def _derivative_factor(derivative: str, p: float) -> float:
    """What multiplies sum_j ||P_j f||_p^p (or a multiplier stack's sum): 2^p for walsh
    (inf past the float range, which the rows refuse), 2 for absorbent (f and f* alike),
    1 for a multiplier derivative."""
    if derivative == "walsh":
        return 2.0 ** p if p < 1024 else math.inf
    return 2.0 if derivative == "absorbent" else 1.0


#: number of set bits of every byte, for key supports packed 8 coordinates a byte
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.intp)


@functools.lru_cache(maxsize=64)
def _inclusion_odds(n: int, cap: int) -> np.ndarray:
    """C(n - u, k - u) / C(n, k) at row k - 1 for k = 1..n and column u = 0..n: the
    share of the k-subsets of [n] that hold a given u-set.  Columns past ``cap`` stay
    0, so the falling factorials run to the widest union alone.  Each entry is the
    correctly rounded quotient of the falling factorials k!/(k - u)! and n!/(n - u)!,
    the same rational whatever the cap."""
    odds = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        falling_k = falling_n = 1
        for u in range(min(k, cap) + 1):
            odds[k - 1, u] = falling_k / falling_n
            falling_k *= k - u
            falling_n *= n - u
    odds.flags.writeable = False        # shared by every caller through the cache
    return odds


def _subset_means(by_union: np.ndarray) -> np.ndarray:
    """The mean over the k-subsets S of the weights of ``by_union`` (summed by union
    size 0..n) whose union lies in S, at index k - 1 for k = 1..n.  The odds run to
    the highest nonzero bin: past it zero bins meet zero columns.  The table has one
    shape for every list of k, so a k's mean does not depend on which other k are
    asked for."""
    nonzero = np.flatnonzero(by_union)
    cap = int(nonzero[-1]) if len(nonzero) else 0
    return _inclusion_odds(len(by_union) - 1, cap) @ by_union


def _pair_route_bytes(n: int, q: int, tuples: int, pairs: int) -> int:
    """Bytes of the pair route on n coordinates at p = 2q.  A q-tuple (a multiset of
    keys) has a row of its element's index, its sum and packed support union and
    intersection, which the tuple stage holds twice (the table and one gathered key
    column in ``_multiset_table``, or the table and its sorted or distinct rows in
    ``_join_plan``), a byte a word of row comparisons, its q key indices and
    orderings, and 7 words of products, sort order and labels; a joined pair holds
    2 indices, its element's index, a weight and 4 packed masks.  At q = 1 nothing is
    tabled or joined (each key pairs with itself alone): a key holds its n coordinates,
    its packed support and that support's byte counts, its complex coefficient and
    squared modulus (4 words), the 2 references that list its key and coefficient, and
    4 words of union, owner, bin index and weight copy."""
    width = -(-n // 8)
    if q == 1:
        return 8 * tuples * (n + 2 * width + 10)
    row = n + 1 + 2 * width
    return 8 * (tuples * (2 * row + -(-row // 8) + q + 8) + pairs * (5 + 4 * width))


def _within_budget(size: int, what: str) -> None:
    if size > LATTICE_MAX_BYTES:
        raise ValueError(f"the profile's {what} need {size} bytes, above {LATTICE_MAX_BYTES = }")


def _join_plan(table: np.ndarray, prefix: int, pair_bytes: Callable[[int], int] | None = None):
    """(rows, order, labels, left, right) of an int64 row ``table``: its distinct rows
    in ascending order, the stable order that sorts it, the distinct row of each sorted
    row, and the ordered pairs (left, right) of rows whose first ``prefix`` columns
    agree, by left row and then right row.  A value of each input row is summed per
    distinct row in input order from ``values[order]`` and ``labels``.  ``table`` is
    sorted in place, so no more than it and its distinct rows are held at once.
    ``pair_bytes(pairs)``, when given, prices the pairs against LATTICE_MAX_BYTES
    before any pair index is built."""
    order = np.lexsort(table.T[::-1])   # stable: equal rows keep their input order
    table[:] = table[order]             # in place: the unsorted rows are not kept
    new = np.concatenate(([True], (table[1:] != table[:-1]).any(axis=1)))
    rows, labels = (table if new.all() else table[new]), np.cumsum(new) - 1
    heads = rows[:, :prefix]
    edges = np.flatnonzero(np.concatenate(([True], (heads[1:] != heads[:-1]).any(axis=1), [True])))
    counts = edges[1:] - edges[:-1]
    if pair_bytes is not None:
        _within_budget(pair_bytes(int(counts @ counts)), "joined key pairs")
    sizes = np.repeat(counts, counts)           # each row pairs with every row of its group
    left = np.repeat(np.arange(len(rows)), sizes)
    shift = np.cumsum(sizes) - sizes - np.repeat(edges[:-1], counts)   # pair less partner index
    return rows, order, labels, left, np.arange(len(left)) - shift[left]


def _frozen(arrays):
    """``arrays`` with each array in it made read-only: shared by every caller through a cache."""
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _multisets(s: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(s + q - 1, q) multisets of q of the indices 0..s-1 as non-decreasing rows
    in lexicographic order, and the q!/prod m_i! orderings of each (m_i the
    multiplicities of its indices), both read-only.  Each step appends to every row
    each index from its last one on."""
    rows = np.arange(s)[:, None]
    run = ties = np.ones(s, dtype=np.int64)     # place in the run of equal indices; prod m_i!
    for _ in range(q - 1):
        last = rows[:, -1]
        counts = s - last
        following = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - last, counts)
        run = np.where(following == np.repeat(last, counts), np.repeat(run, counts) + 1, 1)
        ties = np.repeat(ties, counts) * run
        rows = np.column_stack([np.repeat(rows, counts, axis=0), following])
    return _frozen((rows, math.factorial(q) / ties))


def _multiset_table(keys: np.ndarray, masks: np.ndarray, moduli: np.ndarray | None,
                    index: np.ndarray) -> np.ndarray:
    """The rows (element, sum, packed support union, packed support intersection) of
    the multisets ``index`` of each element's keys."""
    trials, s, n = keys.shape
    sum_end, union_end = n + 1, n + 1 + masks.shape[2]
    rows = np.empty((trials, s, union_end + masks.shape[2]), dtype=np.int64)   # each key's row
    rows[..., 0] = np.arange(0, trials * sum_end, sum_end)[:, None]
    rows[..., 1:sum_end] = keys
    rows[..., sum_end:union_end] = rows[..., union_end:] = masks
    table = np.take(rows, index[:, 0], axis=1)     # C order, so the reshape below is a view
    sums, unions, inters = (table[..., 1:sum_end], table[..., sum_end:union_end],
                            table[..., union_end:])
    other = np.empty_like(table)        # one gathered key column at a time
    for column in index.T[1:]:
        np.take(rows, column, axis=1, out=other, mode="clip")   # "raise" buffers a copy of out
        sums += other[..., 1:sum_end]
        unions |= other[..., sum_end:union_end]
        inters &= other[..., union_end:]
    if moduli is not None:
        sums %= moduli
    return table.reshape(-1, table.shape[2])


class PairPlan(NamedTuple):
    """What ``_key_pairs`` makes of a batch's keys whatever their coefficients.  At
    q >= 2: the q-multisets of each element's keys (``_multisets``) and their
    orderings, and ``_join_plan``'s sort order, labels and joined pairs of their rows;
    at q = 1, which joins nothing, each key pairs with itself alone and these are
    None.  For each pair: its element's first bin of the union sums plus its union
    size, and its intersection size; the shape (elements, n + 1) of the union sums,
    and each element's run of pairs."""

    index: np.ndarray | None
    orderings: np.ndarray | None
    order: np.ndarray | None
    labels: np.ndarray | None
    left: np.ndarray | None
    right: np.ndarray | None
    bins: np.ndarray
    inter: np.ndarray
    shape: tuple[int, int]
    runs: tuple[slice, ...]


def _pair_plan(keys: np.ndarray, moduli: np.ndarray | None, q: int,
               pair_bytes: Callable[[int], int] | None = None) -> PairPlan:
    """The plan of ``_key_pairs`` at p = 2q for the s int64 ``keys[t]`` of each element
    t (one row per key, taken mod ``moduli`` unless None); ``pair_bytes`` prices the
    joined pairs as in ``_join_plan``.  The element column of a multiset's row is its
    element's first bin of the union sums, t (n + 1), so one join serves every element
    of the batch, and each element's multisets and pairs keep the order they have alone."""
    trials, s, n = keys.shape
    masks = np.packbits(keys != 0, axis=2).astype(np.int64)
    width = masks.shape[2]
    offsets = np.arange(0, trials * (n + 1), n + 1)    # each element's first bin of by_union
    if q == 1:                          # distinct keys: each pairs with itself alone
        index = orderings = order = labels = left = right = None
        union = inter = _BYTE_BITS[masks.reshape(-1, width)].sum(axis=1)
        owner = np.repeat(offsets, s)
    else:
        index, orderings = _multisets(s, q)
        rows, order, labels, left, right = _join_plan(
            _multiset_table(keys, masks, moduli, index), n + 1, pair_bytes)
        unions, inters = rows[:, n + 1:n + 1 + width], rows[:, n + 1 + width:]
        union = _BYTE_BITS[unions[left] | unions[right]].sum(axis=1)
        inter = _BYTE_BITS[inters[left] & inters[right]].sum(axis=1)
        owner = rows[left, 0]
    ends = np.searchsorted(owner, offsets[1:]).tolist() + [len(owner)]
    return PairPlan(index, orderings, order, labels, left, right, owner + union, inter,
                    (trials, n + 1), tuple(map(slice, [0] + ends[:-1], ends)))


def _pair_sums(plan: PairPlan, coeffs: np.ndarray):
    """(w summed by support union size 0..n, sum w |intersection|, sum w) of each
    element of ``plan``'s batch with the complex ``coeffs[t]`` of its keys.

    A multiset's product takes one factor at a time, in key order, times its
    orderings, and the products of one distinct row are summed in input order, so an
    element's sums are the same bits alone or in any batch and on any plan of its keys."""
    if plan.order is None:
        prods = coeffs.ravel()
        w = (prods * prods.conj()).real
    else:
        prods = np.take(coeffs, plan.index[:, 0], axis=1)
        for column in plan.index.T[1:]:
            prods = prods * coeffs[:, column]
        values = (prods * plan.orderings).ravel()[plan.order]
        sums = np.bincount(plan.labels, values.real) + 1j * np.bincount(plan.labels, values.imag)
        w = (sums[plan.left] * sums[plan.right].conj()).real
    by_union = np.bincount(plan.bins, w, minlength=math.prod(plan.shape))
    return (by_union.reshape(plan.shape), [float(w[run] @ plan.inter[run]) for run in plan.runs],
            [float(w[run].sum()) for run in plan.runs])


def _key_pairs(keys: np.ndarray, coeffs: np.ndarray, moduli: np.ndarray | None, p: float):
    """(w summed by support union size 0..n, sum w |intersection|, sum w) of each
    element of a batch at an even p = 2q, one row per element.  Element t is
    sum_g c_g g with the s int64 ``keys[t]`` (one row per key, taken mod ``moduli``
    unless None) and the complex ``coeffs[t]``.

    |E_S f|^p = (E_S f)^q conj(E_S f)^q, so mean_x |E_S f|^p sums
    w = Re(prod c_a conj prod c_b) over ordered q-tuples a, b of keys with equal
    sums in the group whose supports (nonzero coordinates) lie in S.  The orderings
    of one multiset share its sum, supports and product, so the tuples are the
    C(s + q - 1, q) multisets of ``_multiset_table``, each product times its number of
    orderings.  The join merges the multisets of equal rows (element, sum, packed
    support union and intersection) by adding their products and pairs the rows of
    equal (element, sum).  At p = 2 only equal keys pair: the hypergeometric closure,
    with no join.  The keys' plan (``_pair_plan``) is built for this call and priced
    against LATTICE_MAX_BYTES before its pairs are; ``_pair_sums`` applies it.
    """
    trials, s, n = keys.shape
    q = int(p) // 2
    tuples = trials * math.comb(s + q - 1, q)
    return _pair_sums(_pair_plan(keys, moduli, q,
                                 lambda pairs: _pair_route_bytes(n, q, tuples, pairs)), coeffs)


def _stored_items(f: GroupAlgebraElement) -> tuple[tuple, tuple]:
    """f's keys and coefficients in the order ``to_json`` stores them, keys sorted (no
    two are equal, so no coefficients are compared)."""
    return tuple(zip(*sorted(f.coeffs.items())))


def _pair_terms(fs: Sequence[GroupAlgebraElement], ps: Sequence[float], ks: tuple[int, ...],
                derivative: str) -> list[list[tuple]]:
    """[(p, lhs by k, derivative sum, ||f||_p^p) for each even p] for each element of
    ``fs`` (one group, one key count), walsh or absorbent, from one ``_key_pairs``
    call per p: no grid and no subset lattice.  Each element's keys go in the order
    ``to_json`` stores them, so a witness replays its products bit for bit (under FMA
    a complex product depends on its order).

    A k-subset holds the union U of a pair's supports with probability
    C(n - |U|, k - |U|) / C(n, k).  ||f||_p^p is sum w; P_j f keeps the keys with
    g_j != 0, so sum_j ||P_j f||_p^p is sum w |intersection of the supports|.
    """
    group = fs[0].group
    n = group.n_components
    moduli = np.array(group.moduli) if group.kind == FINITE_ABELIAN else None
    key_lists, coeff_lists = zip(*map(_stored_items, fs))
    keys = np.array(key_lists, dtype=np.int64).reshape(len(fs), -1, n)
    coeffs = np.array(coeff_lists, dtype=complex)
    out: list[list[tuple]] = [[] for _ in fs]
    for p in ps:
        by_union, projections, full_norms = _key_pairs(keys, coeffs, moduli, p)
        factor = _derivative_factor(derivative, p)
        for terms, bins, projection, full_norm in zip(out, by_union, projections, full_norms):
            means = _subset_means(bins)
            terms.append((p, {k: float(means[k - 1]) for k in ks}, factor * projection, full_norm))
    return out


class Plan(NamedTuple):
    """A naor (or riesz) profile's route, the grid the grid route evaluates on, and
    the bytes its arrays need as ``_plan`` prices them."""

    route: str
    grid: tuple[int, ...]
    nbytes: int


def _plan(group: GroupDescriptor, cocycle: LengthCocycle, keys: int, ps: Sequence[float],
          derivative: str) -> Plan:
    """The plan of a naor (or riesz) profile of ``keys`` keys, once its arrays are
    known to fit LATTICE_MAX_BYTES, before any is allocated.

    Key pairs need a walsh or absorbent derivative and every p even, p = 2q with
    q <= SIGN_ENUMERATION_CAP tuple steps (one key's tuples never grow, so no cost
    bound stops a large q).  The route rule counts s^q ordered q-tuples of the s keys
    and at most s^(2q - 1) joined pairs (a tuple and q - 1 keys of its partner fix
    the last key) at each q > 1, as q = 1 joins nothing; summed over the ps, that
    must not exceed the prod(m_j + 1) entries of the grid's mean-extended tensor.
    The pairs route lists only the C(s + q - 1, q) multisets, so its bytes count
    those: the tuple stage of its largest multiset list here (two copies of its
    table, as ``_pair_route_bytes`` counts them), and its joined pairs in
    ``_join_plan`` once its sort has counted them; ``nbytes`` prices both, the pairs
    at the bound s^(2q - 1).  At q = 1 both are the keys' own arrays, priced below any
    larger q.  The grid counts its multiplier stack and mean-extended tensor (none at
    p = 2 alone or riesz).
    """
    if not group.is_abelian:
        raise ValueError(f"dual evaluations need an abelian group, got {group.kind}")
    grid = _grid_shape(group, ps)
    entries = math.prod(m + 1 for m in grid)
    steps = [int(p) // 2 for p in set(ps)]
    if derivative in ("walsh", "absorbent") and not any(p % 2 for p in ps) and \
            max(steps) <= SIGN_ENUMERATION_CAP and \
            sum(keys ** q + keys ** (2 * q - 1) for q in steps if q > 1) <= entries:
        n, q = group.n_components, max(steps)
        tuples = math.comb(keys + q - 1, q)
        _within_budget(_pair_route_bytes(n, q, tuples, 0), "key tuples")
        return Plan("pairs", grid, _pair_route_bytes(n, q, tuples, keys ** (2 * q - 1)))
    rows = sum(len(basis) for _, basis in _symbol_blocks(cocycle, derivative)[1])
    extended = set(ps) != {2} and derivative != "riesz"
    nbytes = 16 * (rows * math.prod(grid) + (entries if extended else 0))
    _within_budget(nbytes, "grid tensors")
    return Plan("grid", grid, nbytes)


def _require_mean_zero(f: GroupAlgebraElement) -> None:
    """Refuse a zero f or a coefficient at the identity, the one key of length 0
    under every built-in abelian family."""
    if not f.coeffs or not is_mean_zero(f):
        raise ValueError("the input must be nonzero and mean-zero (no identity coefficient)")


def _check_ks(ks: Sequence[int], n: int) -> list[int]:
    """ks, refused when empty or outside [1, n]."""
    if not ks or not all(1 <= k <= n for k in ks):
        raise ValueError(f"need a nonempty list of k in [1, {n}], got {list(ks)}")
    return list(ks)


def _naor_inputs(group: GroupDescriptor, ps: Sequence[float], derivative: str) -> list[float]:
    """The ps of a naor profile as floats, once an unknown derivative, walsh off the
    hypercube and an empty list of p have been refused."""
    if derivative not in DERIVATIVE_CHOICES:
        raise ValueError(f"unknown derivative choice {derivative!r}; valid: {DERIVATIVE_CHOICES}")
    if derivative == "walsh" and not group.is_hypercube:
        raise ValueError("the walsh derivative needs a hypercube group")
    if not ps:
        raise ValueError("the list of p is empty")
    return [_check_p(p) for p in ps]


def _check_float_range(p: float, positive: Sequence[float], rest: Sequence[float] = ()) -> None:
    """Refuse a p at which the sides of a row leave the float range (a huge p overflows
    or underflows |.|^p): a side of ``positive``, whose exact value is positive, reads 0,
    or a side of ``positive`` or ``rest`` is not finite."""
    if not (min(positive) > 0 and math.isfinite(sum(positive) + sum(rest))):
        raise ValueError(f"at p = {p} the sides leave the float range "
                         f"(a positive side of 0 or a side not finite)")


def _naor_rows(fs: Sequence[GroupAlgebraElement], plan: Plan, cocycle: LengthCocycle,
               ps: Sequence[float], ks: Sequence[int], derivative: str):
    """Each element of a batch on one ``plan`` with its rows, by p and then k as
    listed: the batch shares ``_pair_terms`` on key pairs, and on the grid each
    element runs alone.  A torus row on the grid names its points per axis.  A p whose
    sides leave the float range is refused, in one check per (element, p), so the
    grid's powers that overflow on the way raise no numpy warning."""
    group = fs[0].group
    n = group.n_components
    ks_sorted = tuple(sorted(set(ks)))
    extra = {"route": plan.route}
    if plan.route == "pairs":
        terms = _pair_terms(fs, ps, ks_sorted, derivative)
    else:
        if group.kind == TORUS:
            extra["grid"] = plan.grid[0]
        with np.errstate(over="ignore"):
            terms = [list(_grid_terms(f, cocycle, ps, ks_sorted, derivative, plan.grid))
                     for f in fs]
    for f, element_terms in zip(fs, terms):
        rows = []
        for p, by_k, deriv_sum, full_norm in element_terms:
            lhs = [by_k[k] for k in ks]
            rhs = [(k / n) * deriv_sum + (k / n) ** (p / 2) * full_norm for k in ks]
            _check_float_range(p, rhs, lhs)        # an lhs may be 0: E_S f = 0 for every S
            rows += [Row(a / b, a, b, a / b, p=p, k=k, extra=extra)
                     for k, a, b in zip(ks, lhs, rhs)]
        yield f, rows


def _naor_one(f: GroupAlgebraElement, cocycle: LengthCocycle, ps: Sequence[float],
              ks: Sequence[int], derivative: str, at: float | None = None) -> list[Row]:
    """The rows of one element on the plan of ``ps``, as a batch of one: at every p of
    ``ps``, or at the one p ``at`` among them alone, as a witness replays its report."""
    ps = _naor_inputs(f.group, ps, derivative)
    if at is not None and at not in ps:
        raise ValueError(f"the witness's p = {at} is not among its report's ps {ps}")
    plan = _plan(f.group, cocycle, len(f.coeffs), ps, derivative)
    _require_mean_zero(f)
    _check_ks(ks, f.group.n_components)
    return next(_naor_rows([f], plan, cocycle, ps if at is None else [at], ks, derivative))[1]


def naor_profile(f: GroupAlgebraElement, cocycle: LengthCocycle,
                 ps: Sequence[float], ks: Sequence[int],
                 derivative: str) -> dict[float, dict[int, tuple[float, float]]]:
    """(lhs, rhs) of the truncation-average inequality for each (p, k).

    lhs(p, k) averages ||E_S f||_p^p over the k-subsets; rhs(p, k) is
    (k/n) * sum_j (derivative term)_j + (k/n)^(p/2) * ||f||_p^p.  On finite
    abelian groups and torus polynomials all of them come from the key pairs of
    ``_pair_terms`` or one batched dual evaluation (``_grid_terms``), as
    ``_plan`` picks; free kinds are refused.
    """
    profile: dict = {}
    for row in _naor_one(f, cocycle, ps, ks, derivative):
        profile.setdefault(row.p, {})[row.k] = (row.lhs, row.rhs)
    return profile


def naor_ratio(f: GroupAlgebraElement, cocycle: LengthCocycle, p: float, k: int,
               derivative: str = "absorbent") -> RatioReport:
    """One balanced truncation-average experiment at a single (p, k)."""
    start = time.perf_counter()
    (row,) = _naor_one(f, cocycle, [p], [k], derivative)
    params = {"experiment_family": cocycle.family, "n": f.group.n_components,
              "p": p, "k": k, "derivative": derivative}
    return _report("naor", params, row, start,
                   _element_witness(f, cocycle, k=k, p=p, derivative=derivative))


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
    indices = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    step = max(1, SIGN_BLOCK_ROWS // rows)
    while (block := np.fromiter(itertools.islice(indices, step * k), dtype=np.intp)).size:
        yield block.reshape(-1, k)


def _sign_mean(mats: np.ndarray, p: float, k: int, rng: np.random.Generator | None) -> float:
    """E_S E_eps ||sum_{j in S} eps_j x_j||_p^p over the k-subsets S of a stack (n, m, c):
    exhaustive up to SIGN_ENUMERATION_CAP signs, and above it ``_monte_carlo_average``
    of each subset in order, all drawn from ``rng`` one after the other."""
    if k > SIGN_ENUMERATION_CAP:
        return float(np.mean([_monte_carlo_average(mats[list(s)], p, rng)
                              for s in itertools.combinations(range(len(mats)), k)]))
    signs = half_sign_patterns(k)
    return float(np.mean(np.concatenate([
        sign_block_powers(sign_row_blocks(signs), mats[block], p).mean(axis=1)
        for block in _subset_blocks(len(mats), k, len(signs))])))


def _monte_carlo_average(mats: np.ndarray, p: float, rng: np.random.Generator) -> float:
    """Mean of ||sum_j eps_j x_j||_p^p over MONTE_CARLO_SIGNS rows of random signs.
    The rows are drawn from ``rng`` SIGN_BLOCK_ROWS at a time, each block as
    ``sign_powers`` takes it; the rows, the mean and the state left in ``rng`` are
    those of one draw of all the rows."""
    blocks = (rng.choice((1.0, -1.0), size=(SIGN_BLOCK_ROWS, len(mats)))
              for _ in range(MONTE_CARLO_SIGNS // SIGN_BLOCK_ROWS))
    return float(np.mean(sign_block_powers(blocks, mats, p)))


def _xp_route(n: int, p: float) -> str:
    """"pairs" or "signs": the route of an xp_linear profile, from (n, p) alone.

    Index words take p = 2 and 4 at n <= SIGN_ENUMERATION_CAP: one Gram factor a
    side, at most n^2 of them, timed faster than the sign tables' plane kernel at
    every n there, k = 1 included (n = 14, d = 2: 0.26 ms against 3.5 ms).  From
    p = 6 on a side needs two or more factors; a prototype of them was timed slower
    than the sign tables at small k, which the plane kernel has made faster at
    n = 14, so larger p keeps the sign tables (README).
    """
    return "pairs" if p in (2, 4) and n <= SIGN_ENUMERATION_CAP else "signs"


def _check_sign_rows(n: int, ks: Sequence[int]) -> None:
    """Refuse a sign route whose ks average more than SIGN_ROWS_MAX (eps, S) rows:
    C(n, k) 2^(k - 1) at a k enumerated, C(n, k) MONTE_CARLO_SIGNS at a k drawn."""
    rows = sum(math.comb(n, k) * (MONTE_CARLO_SIGNS if k > SIGN_ENUMERATION_CAP else 2 ** (k - 1))
               for k in set(ks))
    if rows > SIGN_ROWS_MAX:
        raise ValueError(f"the signs route averages {rows} (eps, S) rows, above {SIGN_ROWS_MAX = }")


def _check_xp_route(n: int, rows: int, cols: int, p: float, ks: Sequence[int]) -> None:
    """Refuse an xp_linear profile's arrays past LATTICE_MAX_BYTES, its signs past SIGN_ROWS_MAX."""
    _within_budget(_xp_route_bytes(n, rows, cols, p), f"{_xp_route(n, p)} route arrays")
    _check_sign_rows(n, [*ks, n] if _xp_route(n, p) == "signs" else [])


def _xp_route_bytes(n: int, rows: int, cols: int, p: float) -> int:
    """At most the bytes that an xp_linear profile of n rows x cols matrices forms on
    its route.  Each of the pair route's n^q Gram factors gathers two index matrices
    and forms a factor on the smaller side, of which the join holds at most three
    copies.  The sign route forms one block of ``sign_powers`` at a time, and the larger
    of its longest sign table, 2^c rows of c = min(n, SIGN_ENUMERATION_CAP) signs, with
    two arrays of its size (the bits of ``sign_patterns``), and above the cap one
    block of SIGN_BLOCK_ROWS drawn rows of n signs with the draw's indices and the
    powers of all MONTE_CARLO_SIGNS rows."""
    if _xp_route(n, p) == "signs":
        exhaustive = min(n, SIGN_ENUMERATION_CAP)
        drawn = SIGN_BLOCK_ROWS * n + MONTE_CARLO_SIGNS if n > SIGN_ENUMERATION_CAP else 0
        return sign_block_bytes(rows, cols, p) + 24 * max(2 ** exhaustive * exhaustive, drawn)
    side = min(rows, cols)
    return 16 * n ** (int(p) // 2) * side * (2 * max(rows, cols) + 3 * side)


@functools.lru_cache(maxsize=1)
def _index_words(n: int) -> tuple[np.ndarray, ...]:
    """The q = 2 index words of ``_gram_pair_means`` on n indices, read-only: shared by
    every profile of that n through the cache (``_check_xp_route`` has priced them).
    The Gram factors' indices a and b, the join's sort order of their rows and the
    ``reduceat`` start of each distinct row, the joined pairs (left, right) of distinct
    rows and the size of each pair's union.  A factor's row is (parity mask of {a, b},
    union mask), packed as ``_key_pairs`` packs supports, highest index first so rows
    sort as the numbers sum_a 2^a."""
    a, b = np.indices((n, n)).reshape(2, -1)
    masks = np.packbits(np.eye(n, dtype=bool)[:, ::-1], axis=1)    # index a's bit
    width = masks.shape[1]
    table = np.concatenate([masks[a] ^ masks[b], masks[a] | masks[b]], axis=1).astype(np.int64)
    rows, order, labels, left, right = _join_plan(table, width)
    starts = np.searchsorted(labels, np.arange(len(rows)))
    sizes = _BYTE_BITS[rows[left, width:] | rows[right, width:]].sum(axis=1)
    return _frozen((a, b, order, starts, left, right, sizes))


def _gram_pair_means(mats: np.ndarray, p: float) -> np.ndarray:
    """E_eps ||sum_{j in S} eps_j x_j||_p^p averaged over the k-subsets S, at index
    k - 1 for k = 1..n, at p = 2q for q = 1 or 2, from index words.

    ||X||_p^p = tr((X* X)^q) expands into words of q Gram factors x_a* x_b, and the
    sign average keeps the words in which every index occurs an even number of
    times, so its union holds at most q indices.  At q = 1 a word is one factor
    x_a* x_a, of union {a}.  At q = 2 the join of ``_index_words`` merges the factors
    of one row (x_a* x_b and x_b* x_a) and pairs those of equal parity, L and R, into
    words tr(L R).  Each word adds its trace at the size of its union, which a
    k-subset holds with the odds of ``_subset_means``.
    """
    n, rows, cols = mats.shape
    if rows < cols:             # the transposes: same singular values, smaller Gram factors
        mats = np.swapaxes(mats, 1, 2)
    if int(p) // 2 == 1:
        a = np.arange(n)
        traces = np.einsum("pii->p", np.conj(np.swapaxes(mats[a], 1, 2)) @ mats[a]).real
        sizes = np.ones(n, dtype=np.intp)
    else:
        a, b, order, starts, left, right, sizes = _index_words(n)
        gram = np.add.reduceat((np.conj(np.swapaxes(mats[a], 1, 2)) @ mats[b])[order], starts)
        traces = np.einsum("pij,pji->p", gram[left], gram[right]).real
    return _subset_means(np.bincount(sizes, traces, minlength=n + 1))


def xp_linear_profile(xs: Sequence[np.ndarray], p: float, ks: Sequence[int],
                      seed: int | None = None) -> dict[int, tuple[float, float, bool]]:
    """(lhs, rhs, monte_carlo) of the balanced sign-average inequality for each k.

    lhs(k) averages E_eps ||sum_{j in S} eps_j x_j||_p^p over the k-subsets;
    rhs(k) is (k/n) sum_j ||x_j||_p^p + (k/n)^(p/2) E_eps ||sum_j eps_j x_j||_p^p.
    Where ``_xp_route`` takes index words (p = 2 or 4, n <= 14) every k and the full
    n-sign average come from ``_gram_pair_means``.  Otherwise each side is one
    ``_sign_mean``: exhaustive up to 14 signs and Monte Carlo beyond.  On both
    routes the full n-sign average is computed once, for every rhs and as the k = n
    lhs.  Draw order: the full average is the first draw from ``default_rng(seed)``;
    each other k above the cap restarts its per-subset draws from the state after
    it, so a row depends only on (xs, p, k, seed).  Before any work the tuple is
    refused unless it holds n >= 1 finite 2-D matrices of one shape, not all zero,
    and the route (``_check_xp_route``) is priced against LATTICE_MAX_BYTES and
    SIGN_ROWS_MAX; after it a p whose sides leave the float range is refused.
    """
    _check_p(p)
    if p < 2:
        warnings.warn("p < 2 is outside the theorem range; computing anyway")
    mats = _matrix_tuple(xs)
    n = mats.shape[0]
    _check_ks(ks, n)
    if not np.any(mats):
        raise ValueError("the matrix tuple must be nonzero")
    _check_xp_route(n, mats.shape[1], mats.shape[2], p, ks)
    # sides past the float range (inf, or NaN from inf - inf) are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sum = float(np.sum(schatten_powers(mats, p)))
        if _xp_route(n, p) == "pairs":
            means = _gram_pair_means(mats, p)
            lhs, full_avg = {k: float(means[k - 1]) for k in ks}, float(means[-1])
        else:
            rng = np.random.default_rng(seed)
            full_avg = _sign_mean(mats, p, n, rng)
            lhs = {k: full_avg if k == n else _sign_mean(mats, p, k, copy.deepcopy(rng))
                   for k in ks}
        profile = {k: (lhs[k], (k / n) * norm_sum + (k / n) ** (p / 2) * full_avg)
                   for k in ks}
    _check_float_range(p, [side for sides in profile.values() for side in sides])
    # a k-subset average is sampled only when the full n-sign one is (k <= n)
    return {k: (*sides, n > SIGN_ENUMERATION_CAP) for k, sides in profile.items()}


def _matrix_tuple(xs: Sequence[np.ndarray]) -> np.ndarray:
    """The tuple ``xs`` as one complex stack (n, rows, cols), refused unless it holds
    n >= 1 finite 2-D matrices of one shape."""
    arrays = [np.asarray(x, dtype=complex) for x in xs]
    if not arrays:
        raise ValueError("n must be >= 1, got 0")
    if arrays[0].ndim != 2 or any(x.shape != arrays[0].shape for x in arrays):
        raise ValueError(f"the x_j must be 2-D matrices of one shape, got the shapes "
                         f"{sorted({x.shape for x in arrays})}")
    mats = np.stack(arrays)
    if not np.isfinite(mats).all():
        raise ValueError("the matrix entries must be finite")
    return mats


def _xp_rows(mats: Sequence[np.ndarray], p: float, ks: Sequence[int],
             seed: int | None) -> list[Row]:
    """The rows of ``xp_linear_profile``, one per k, each naming the route."""
    extra = {"route": _xp_route(len(mats), p)}
    profile = xp_linear_profile(mats, p, ks, seed)
    return [Row(lhs / rhs, lhs, rhs, lhs / rhs, k=k, monte_carlo=mc, extra=extra)
            for k in ks for lhs, rhs, mc in [profile[k]]]


def xp_linear_ratio(xs: Sequence[np.ndarray], p: float, k: int,
                    seed: int | None = None) -> RatioReport:
    """The balanced sign-average inequality for matrix tuples at one k.

    See :func:`xp_linear_profile` for the two sides, the sign draws and the route,
    which the report names.  An unseeded Monte Carlo run draws its seed from fresh
    entropy and reports it.
    """
    start = time.perf_counter()
    mats = _matrix_tuple(xs)
    if seed is None and len(mats) > SIGN_ENUMERATION_CAP:
        # a concrete seed in the report lets its witness re-evaluate exactly
        seed = int(np.random.SeedSequence().generate_state(1)[0])
    (row,) = _xp_rows(mats, p, [k], seed)
    params = {"n": mats.shape[0], "d": mats.shape[1], "p": p, "k": k,
              "trace_convention": "unnormalized"}
    return _report("xp_linear", params, row, start, _xp_witness(mats, k, p), seed=seed)


def _xp_witness(mats: Sequence[np.ndarray], k: int, p: float) -> dict:
    return {"matrices": [{"re": np.asarray(x).real.tolist(), "im": np.asarray(x).imag.tolist()}
                         for x in mats], "k": k, "p": p}


def _matrix_from_json(data: dict) -> np.ndarray:
    return np.array(data["re"]) + 1j * np.array(data["im"])


def _rosenthal_route(n: int, p: float) -> str:
    """"pairs" or "signs": the route of a rosenthal profile, from (n, p) alone.

    Key pairs need an even p = 2q, at most SIGN_ENUMERATION_CAP tuple steps, and
    room in LATTICE_MAX_BYTES for the n unit keys' C(n + q - 1, q) multisets and
    their ``_unit_key_pairs`` joined pairs.
    """
    q = int(p) // 2 if p >= 2 and p % 2 == 0 else 0
    fits = 1 <= q <= SIGN_ENUMERATION_CAP and _pair_route_bytes(
        n, q, math.comb(n + q - 1, q), _unit_key_pairs(n, q)) <= LATTICE_MAX_BYTES
    return "pairs" if fits else "signs"


def _unit_key_pairs(n: int, q: int) -> int:
    """The pairs ``_join_plan`` joins for the n unit keys of Z_2^n at p = 2q.  A multiset
    whose t keys of odd multiplicity sum to a t-set has one distinct row for each j-set
    of further keys of even multiplicity, 2j <= q - t (j >= 1 when t = 0), and the rows
    of one sum pair with each other."""
    return sum(math.comb(n, t) * sum(math.comb(n - t, j)
                                     for j in range(t == 0, (q - t) // 2 + 1)) ** 2
               for t in range(q % 2, min(q, n) + 1, 2))


@functools.lru_cache(maxsize=1)
def _unit_key_plan(n: int, q: int) -> PairPlan:
    """The pair plan of the n unit keys of Z_2^n at p = 2q, read-only: shared by every
    rosenthal profile of that (n, q) through the cache (``_rosenthal_route`` has
    priced it)."""
    return _frozen(_pair_plan(np.eye(n, dtype=np.int64)[None], np.full(n, 2), q))


def _rosenthal_checked_route(n: int, p: float, ks: Sequence[int]) -> str:
    """The route of a rosenthal profile, once signs past k = 14 or SIGN_ROWS_MAX are refused."""
    route = _rosenthal_route(n, p)
    if route == "signs" and max(ks) > SIGN_ENUMERATION_CAP:
        raise ValueError("exhaustive enumeration is capped at k = 14")
    _check_sign_rows(n, ks if route == "signs" else [])
    return route


def _rosenthal_rows(a: Sequence[complex], p: float, ks: Sequence[int]) -> list[Row]:
    """The rows of the two-sided scalar model, one per k, scored by the larger of
    lhs/rhs and rhs/lhs.  On key pairs one ``_pair_sums`` call on the unit keys' plan
    gives every k."""
    _check_p(p)
    coeffs = np.array([complex(x) for x in a])
    n = len(coeffs)
    if not n:
        raise ValueError("n must be >= 1, got 0")
    if not np.isfinite(coeffs).all():
        raise ValueError("the coefficients must be finite")
    _check_ks(ks, n)
    route = _rosenthal_checked_route(n, p, ks)
    if not np.any(coeffs):
        raise ValueError("the coefficient vector must be nonzero")
    with np.errstate(over="ignore"):                # sides past the float range are refused
        if route == "pairs":    # naor's walsh lhs of sum_j a_j r_j on the hypercube
            q = int(p) // 2     # q = 1 joins nothing: its plan, built each call, evicts none
            plan = _unit_key_plan(n, q) if q > 1 else _pair_plan(np.eye(n, dtype=np.int64)[None],
                                                                 None, q)
            by_union = _pair_sums(plan, coeffs[None])[0]
            means = _subset_means(by_union[0]).tolist()
            mean = {k: means[k - 1] for k in ks}
        else:
            mean = {k: _sign_mean(coeffs[:, None, None], p, k, None) for k in ks}
        power_sum = np.sum(np.abs(coeffs) ** p)
    square_sum = float(np.sum(np.abs(coeffs) ** 2))
    rows = []
    for k in ks:
        lhs = mean[k] ** (1.0 / p)
        kn = k / n
        rhs = (kn * power_sum) ** (1.0 / p) + math.sqrt(kn * square_sum)
        _check_float_range(p, [lhs, rhs])
        lhs_over_rhs, rhs_over_lhs = float(lhs / rhs), float(rhs / lhs)
        spread = max(lhs_over_rhs, rhs_over_lhs)
        rows.append(Row(spread, float(lhs), float(rhs), lhs_over_rhs, k=k,
                        extra={"lhs_over_rhs": lhs_over_rhs, "rhs_over_lhs": rhs_over_lhs,
                               "two_sided_spread": spread, "route": route}))
    return rows


def _coeffs_witness(coeffs: Sequence[complex], k: int, p: float) -> dict:
    return {"coeffs": [{"re": z.real, "im": z.imag} for z in coeffs], "k": k, "p": p}


def rosenthal_linear_ratio(a: Sequence[complex], p: float, k: int) -> RatioReport:
    """Two-sided scalar model at one k.  The exact lhs comes from the unit keys'
    pairs at an even p (``_rosenthal_route``), with no cap on k, and otherwise by
    xp_linear's exhaustive (eps, S) enumeration ``_sign_mean`` on the 1 x 1 matrices
    a_j, for k <= 14.  The ratio is lhs/rhs; ``extra``
    holds it with rhs/lhs, the larger of the two and the route."""
    start = time.perf_counter()
    coeffs = [complex(x) for x in a]
    (row,) = _rosenthal_rows(coeffs, p, [k])
    return _report("rosenthal", {"n": len(coeffs), "p": p, "k": k}, row, start,
                   _coeffs_witness(coeffs, k, p))


def moment_checks(n: int, k: int, p: float) -> dict:
    """Exact moments of the sign-subset variables sigma_j(eps, S) = eps_j 1_{j in S}
    by enumeration of the uniform k-subsets S of [n] (|eps_j|^p = 1)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    subsets = list(itertools.combinations(range(1, n + 1), k))
    sigma_moments = [Fraction(sum(j in subset for subset in subsets), len(subsets))
                     for j in range(1, n + 1)]
    expected_sigma = Fraction(k, n)
    even = float(p).is_integer() and int(p) % 2 == 0
    total = 0 if even else 0.0
    for subset in subsets:
        total += len(subset) ** (int(p) // 2) if even else float(len(subset)) ** (p / 2)
    square_moment = Fraction(total, len(subsets)) if even else total / len(subsets)
    expected_square = k ** (int(p) // 2) if even else float(k) ** (p / 2)
    passed = all(m == expected_sigma for m in sigma_moments) and square_moment == expected_square
    return {"n": n, "k": k, "p": p,
            "sigma_moment": sigma_moments[0],
            "sigma_expected": expected_sigma,
            "square_moment": square_moment,
            "square_expected": expected_square,
            "passed": passed}


# -- Riesz transform norm equivalence ----------------------------------------


def _riesz_rows(f: GroupAlgebraElement, cocycle: LengthCocycle, p: float) -> list[Row]:
    """The one row of ``riesz_equivalence_ratio``, scored by the larger of the ratio
    and its inverse.

    f and every R_u f and R_u f* (the column and row square functions) come from
    one batched dual evaluation on the grid of ``_grid_shape``.  The symbol
    normalization sum_u |symbol(g)|^2 = 4 pi^2 makes the quotient 1 at p = 2.
    """
    grid = _plan(f.group, cocycle, len(f.coeffs), [_check_p(p)], "riesz").grid
    _require_mean_zero(f)
    values, stack, starts = _dual_stack(f, cocycle, "riesz", grid)
    squares = np.add.reduceat(_abs_power(stack, 2), starts)     # f and f* blocks alternate
    with np.errstate(over="ignore"):                            # refused below
        sides = [float(np.mean(sum(squares[side::2]) ** (p / 2))) ** (1 / p) for side in (0, 1)]
        lhs = float(np.mean(_abs_power(values, p))) ** (1 / p)
    rhs = max(sides) / (2 * math.pi)
    _check_float_range(p, [lhs, rhs])
    ratio, inverse = lhs / rhs, rhs / lhs
    spread = max(ratio, inverse)
    return [Row(spread, lhs, rhs, ratio,
                extra={"inverse_ratio": inverse, "two_sided_spread": spread})]


def riesz_equivalence_ratio(f: GroupAlgebraElement, p: float,
                            cocycle: LengthCocycle) -> RatioReport:
    """||f||_p against the Riesz square function, normalized by 2*pi.  ``extra``
    holds the inverse ratio and the larger of the two."""
    start = time.perf_counter()
    (row,) = _riesz_rows(f, cocycle, p)
    params = {"experiment_family": cocycle.family, "n": f.group.n_components, "p": p}
    return _report("riesz_equivalence", params, row, start, _element_witness(f, cocycle, p=p))


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
        for name in ("sparsity", "degree", "word_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_json(self) -> dict:
        return {item.name: getattr(self, item.name) for item in fields(self)}


def _complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)


@functools.lru_cache(maxsize=32)
def _mean_zero_keys(group: GroupDescriptor, family: str,
                    weights: tuple[float, ...] | None) -> tuple[np.ndarray, np.ndarray]:
    """Box positions (ascending) and psi lengths of the keys of nonzero length, refused
    before any psi call when the box's lengths, and then those kept with their
    positions, would not fit LATTICE_MAX_BYTES."""
    cocycle = LengthCocycle(family, group, weights)
    shape, low = key_box(group)
    _within_budget(24 * math.prod(shape), "key lengths")
    keys = itertools.product(*(range(low, low + m) for m in shape))
    lengths = np.fromiter((cocycle.psi(key) for key in keys), dtype=float,
                          count=math.prod(shape))
    flat = np.flatnonzero(lengths)
    lengths = lengths[flat]
    flat.flags.writeable = lengths.flags.writeable = False
    return flat, lengths


def _most_keys(group: GroupDescriptor, cocycle: LengthCocycle, spec: EnsembleSpec) -> int:
    """The most keys an abelian draw of ``spec`` can hold: for chaos_degree the keys
    of length at most the degree, refused when there are none; for linear_span each
    unit key and its inverse, one key where a component has modulus 2."""
    if spec.kind == "chaos_degree":
        lengths = _mean_zero_keys(group, cocycle.family, cocycle.weights)[1]
        if not (most := int(np.count_nonzero(lengths <= spec.degree))):
            raise ValueError(f"no key has a length of at most the degree {spec.degree}; "
                             f"the shortest nonzero length is {lengths.min():g}")
        return most
    shape = key_box(group)[0]
    if spec.kind == "linear_span":
        return sum(1 if m == 2 else 2 for m in shape)
    box = math.prod(shape) - 1
    return min(spec.sparsity, box) if spec.kind == "sparse" else box


def _draw_bytes(group: GroupDescriptor, spec: EnsembleSpec, keys: int) -> int:
    """At most the bytes ``sample_element`` holds while it builds an abelian draw of
    ``keys`` keys of ``spec``, at its peak, when the element copies its dict.  A key
    holds its box index, its n coordinates twice (its list and its tuple), the list's
    and the tuple's headers (7 and 5 words), its slot in the list of keys, its complex
    coefficient and that one's slot (5 words), and an entry of each of two dicts (at
    most 7.5 words each): 34 + 2n words.  A coordinate outside CPython's shared small
    ints [-5, 256] is an int object of its own (4 words).  A linear_span draw builds
    each unit key and its inverse as tuples before the element takes its own (2n
    words a key), a sparse draw of more than 1/50 of the box lists the whole box
    (numpy's ``Generator.choice``), and a chaos_degree draw masks each key of nonzero
    length (a byte each)."""
    shape, low = key_box(group)
    n, box = len(shape), math.prod(shape)
    own_ints = sum(low < -5 or low + m - 1 > 256 for m in shape)
    extra = {"linear_span": 16 * n * keys, "sparse": 8 * box if keys > box // 50 else 0,
             "chaos_degree": box}
    return 8 * keys * (34 + 2 * n + 4 * own_ints) + extra.get(spec.kind, 0)


def _check_draw_budget(group: GroupDescriptor, cocycle: LengthCocycle, spec: EnsembleSpec,
                       ps: Sequence[float], derivative: str) -> None:
    """Refuse a naor or riesz scan, before any draw, whose largest draw and the route
    planned for it would not fit LATTICE_MAX_BYTES together: the draw as it peaks
    (``_draw_bytes``), beside the route as ``_plan`` prices it before it runs (the
    grid's tensors, or the key tuples of the largest p).  A linear_span draw on a
    hypercube holds the n unit keys, so its joined pairs are counted exactly
    (``_unit_key_pairs``) and priced first."""
    keys = _most_keys(group, cocycle, spec)
    plan = _plan(group, cocycle, keys, ps, derivative)
    route = plan.nbytes
    if plan.route == "pairs":
        n, q = group.n_components, max(int(p) // 2 for p in ps)
        pairs = _unit_key_pairs(n, q) if spec.kind == "linear_span" and group.is_hypercube else 0
        route = _pair_route_bytes(n, q, math.comb(keys + q - 1, q), pairs)
        if pairs:
            _within_budget(route, "joined key pairs")
    _within_budget(_draw_bytes(group, spec, keys) + route,
                   f"{spec.kind} draw and {plan.route} route")


def sample_element(group: GroupDescriptor, cocycle: LengthCocycle,
                   spec: EnsembleSpec, rng: np.random.Generator) -> GroupAlgebraElement:
    """Draw one mean-zero random element according to the ensemble spec.

    Abelian gaussian and sparse draws take the key box's positions other than
    the identity's (the one key of length 0); chaos_degree draws read the keys'
    lengths, found once per (group, family, weights); free kinds draw gaussian alone.
    """
    if group.is_abelian:
        if spec.kind == "linear_span":      # each unit key, then its inverse if distinct
            n = group.n_components
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            keys = list(dict.fromkeys(key for unit in units
                                      for key in (unit, element_inverse(group, unit))))
            return GroupAlgebraElement(group, dict(zip(keys, _complex_normal(rng, len(keys)))))
        shape, low = key_box(group)
        if spec.kind == "chaos_degree":
            flat, lengths = _mean_zero_keys(group, cocycle.family, cocycle.weights)
            chosen = flat[lengths <= spec.degree]
        else:
            box = math.prod(shape) - 1
            if box >= np.iinfo(np.intp).max:
                raise ValueError(f"the key box has {box + 1} positions, past int64")
            chosen = (np.arange(box) if spec.kind == "gaussian" else
                      np.sort(rng.choice(box, size=min(spec.sparsity, box), replace=False)))
            chosen += chosen >= np.ravel_multi_index((-low,) * len(shape), shape)
        keys = (np.stack(np.unravel_index(chosen, shape), axis=-1) + low).tolist()
        values = _complex_normal(rng, len(keys)).tolist()
        return GroupAlgebraElement(group, {tuple(key): v for key, v in zip(keys, values)
                                           if abs(v) > PRUNE_TOL}, _canonical=True)
    # free kinds: random reduced walks (``_draw_fields`` refuses every kind but
    # gaussian); the pool may be smaller than the requested sparsity for tiny ranks, so
    # cap the draw attempts
    _draw_fields(group, spec.kind)
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


class Row(NamedTuple):
    """One candidate outcome of a trial; ``score`` ranks it within a scan.  A named
    tuple, the quickest record to build, as a scan builds one per (trial, p, k)."""

    score: float
    lhs: float
    rhs: float
    ratio: float
    p: float | None = None
    k: int | None = None
    monte_carlo: bool = False
    extra: Mapping = MappingProxyType({})       # read-only, as every row without extras shares it


@dataclass(frozen=True)
class Experiment:
    """One scan experiment.

    ``bind(params, ensemble, seed)`` resolves a scan call into ``sample(rng)``
    (one input), ``evaluate(draws)``, which yields each input of the iterator
    ``draws`` with its candidate rows (in a fixed order) and may evaluate several at
    once, and ``witness(x, row)``.  ``from_witness(report)`` recomputes a report's
    winning row from its witness, on the plan of the report's params.  Both reach the
    experiment's one rows function, which its single-run function calls too.
    """

    bind: Callable[[dict, EnsembleSpec, int], tuple[Callable, Callable, Callable]]
    from_witness: Callable[[dict], Row]


def _each(rows: Callable) -> Callable:
    """``evaluate`` of an experiment that takes its inputs one at a time."""
    return lambda draws: ((x, rows(x)) for x in draws)


def _reads(params: dict, *names: str) -> None:
    """Refuse the params of a scan that its experiment does not read."""
    if unread := sorted(set(params) - set(names)):
        raise ValueError(f"the experiment does not read the params {unread}; "
                         f"it reads {list(names)}")


def _p(params: dict, default: float) -> float:
    return _check_p(float(params.get("p", default)))


def _naor_ps(params: dict) -> list[float]:
    """The ps of a naor scan or report: its ``ps``, or its one ``p``."""
    return [float(p) for p in params.get("ps", [params.get("p", 4)])]


def _count(params: dict, name: str, default: int | None = None) -> int:
    """The integer param ``name`` (``default`` when left out), refused below 1."""
    if (value := int(params[name] if default is None else params.get(name, default))) < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _draw_fields(group: GroupDescriptor, kind: str) -> tuple[str, ...]:
    """The ensemble fields besides ``kind`` that a draw of that kind on ``group`` reads:
    an abelian sparse draw its sparsity, chaos_degree its degree, gaussian and
    linear_span none; a free draw, which is gaussian alone, its sparsity and
    word_length."""
    if group.is_abelian:
        return {"sparse": ("sparsity",), "chaos_degree": ("degree",)}.get(kind, ())
    if kind != "gaussian":
        raise ValueError(f"free draws take the kind 'gaussian' (sparsity reduced words of "
                         f"length at most word_length, with gaussian coefficients): they "
                         f"read sparsity and word_length, not the kind {kind!r}")
    return ("sparsity", "word_length")


def _reads_ensemble(experiment: str, ensemble: EnsembleSpec,
                    group: GroupDescriptor | None = None) -> None:
    """Refuse an ensemble field other than its default that the experiment's draw does
    not read: a draw of elements of ``group`` reads its kind and ``_draw_fields``, and
    a draw with no group (xp_linear's matrices, rosenthal's coefficients) none."""
    if group is None:
        reads, draw, what = (), experiment, "no ensemble field"
    else:
        reads = ("kind", *_draw_fields(group, ensemble.kind))
        draw = f"{ensemble.kind} {experiment}"
        what = f"{' and '.join(reads[1:]) or 'no field'} besides its kind"
    if unread := [f"{item.name}={getattr(ensemble, item.name)!r}" for item in fields(ensemble)
                  if item.name not in reads and getattr(ensemble, item.name) != item.default]:
        raise ValueError(f"the {draw} draw reads {what}; got {', '.join(unread)}")


def _ks(params: dict) -> list[int]:
    return _check_ks([int(k) for k in params.get("ks", [params.get("k", 1)])], int(params["n"]))


#: the params from which ``_naor_family`` builds the group and the cocycle
_FAMILY_PARAMS = ("family", "n", "modulus", "bound", "weights", "cocycle")

#: truncation family -> (cocycle family whose record builds the group, fixed modulus)
_TRUNCATION_FAMILIES = {"hypercube": ("cyclic_word", 2), "cyclic": ("cyclic_word", None),
                        "torus": ("torus_word", None), "weighted_cube": ("weighted_cube", None)}


def _naor_family(params: dict) -> tuple[GroupDescriptor, LengthCocycle, str]:
    family = params.get("family", "hypercube")
    if family not in _TRUNCATION_FAMILIES:
        raise ValueError(f"unknown truncation family {family!r}")
    name, modulus = _TRUNCATION_FAMILIES[family]
    record = COCYCLE_FAMILIES[name]
    bound = _count(params, "bound", 2) if family == "torus" else int(params.get("bound", 2))
    group = record.cli_group(_count(params, "n"), modulus or int(params.get("modulus", 4)), bound)
    weights = params.get("weights")
    if record.takes_weights and weights is None:
        weights = [1.0] * group.n_components
    cocycle = build_cocycle(params.get("cocycle", name) if family == "torus" else name, group,
                            weights)
    return group, cocycle, params.get("derivative", "absorbent")


def _load_element(witness: dict) -> tuple[GroupAlgebraElement, LengthCocycle]:
    f = GroupAlgebraElement.from_json(witness["f"])
    return f, build_cocycle(witness["family"], f.group, witness.get("weights"))


def _naor(params: dict, ensemble: EnsembleSpec, seed: int):
    _reads(params, *_FAMILY_PARAMS, "derivative", "p", "ps", "k", "ks")
    group, cocycle, derivative = _naor_family(params)
    _reads_ensemble("naor", ensemble, group)
    ps = _naor_inputs(group, _naor_ps(params), derivative)
    ks = _ks(params)
    _check_draw_budget(group, cocycle, ensemble, ps, derivative)

    def evaluate(draws):
        """Each draw with its rows: a batch is the run of at most SCAN_BATCH_DRAWS draws
        of one plan and key count whose planned bytes fit LATTICE_MAX_BYTES together."""
        batch, batch_plan = [], None
        for f in draws:
            plan = _plan(group, cocycle, len(f.coeffs), ps, derivative)
            _require_mean_zero(f)
            if batch and ((plan, len(f.coeffs)) != (batch_plan, len(batch[0].coeffs))
                          or (len(batch) + 1) * plan.nbytes > LATTICE_MAX_BYTES
                          or len(batch) == SCAN_BATCH_DRAWS):
                yield from _naor_rows(batch, batch_plan, cocycle, ps, ks, derivative)
                batch = []
            batch.append(f)
            batch_plan = plan
        if batch:
            yield from _naor_rows(batch, batch_plan, cocycle, ps, ks, derivative)

    return (lambda rng: sample_element(group, cocycle, ensemble, rng), evaluate,
            lambda f, row: _element_witness(f, cocycle, k=row.k, p=row.p,
                                            derivative=derivative))


def _trial_seed(seed: int, trial: int) -> int:
    """Monte Carlo sign seed of one scan trial, independent of the input draws."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def _xp_linear(params: dict, ensemble: EnsembleSpec, seed: int):
    _reads(params, "n", "d", "p", "k", "ks")
    _reads_ensemble("xp_linear", ensemble)
    n, d, p, ks = _count(params, "n"), _count(params, "d", 4), _p(params, 4), _ks(params)
    _within_budget(16 * n * d * d, "sample matrices")
    _check_xp_route(n, d, d, p, ks)
    trials = itertools.count()

    def sample(rng):
        return [_complex_normal(rng, (d, d)) for _ in range(n)], _trial_seed(seed, next(trials))

    return (sample, _each(lambda x: _xp_rows(x[0], p, ks, x[1])),
            lambda x, row: {**_xp_witness(x[0], row.k, p), "sign_seed": x[1]})


def _rosenthal(params: dict, ensemble: EnsembleSpec, seed: int):
    _reads(params, "n", "p", "k", "ks")
    _reads_ensemble("rosenthal", ensemble)
    n, p, ks = _count(params, "n"), _p(params, 4), _ks(params)
    _rosenthal_checked_route(n, p, ks)
    return (lambda rng: _complex_normal(rng, n), _each(lambda a: _rosenthal_rows(a, p, ks)),
            lambda a, row: _coeffs_witness(a, row.k, p))


def _riesz(params: dict, ensemble: EnsembleSpec, seed: int):
    _reads(params, *_FAMILY_PARAMS, "p")
    group, cocycle, _ = _naor_family(params)
    _reads_ensemble("riesz_equivalence", ensemble, group)
    p = _p(params, 2)
    _check_draw_budget(group, cocycle, ensemble, [p], "riesz")
    return (lambda rng: sample_element(group, cocycle, ensemble, rng),
            _each(lambda f: _riesz_rows(f, cocycle, p)),
            lambda f, row: _element_witness(f, cocycle, p=p))


def free_identity_deviation(f: GroupAlgebraElement) -> float:
    """Max deviation over the free-operator identity battery for one input."""
    n = f.group.n_components
    signs = tuple(1 if i % 2 == 0 else -1 for i in range(n))
    twice = operators.free_hilbert_transform(operators.free_hilbert_transform(f, signs), signs)
    total = sum((operators.absorbent_derivative(f, j) for j in range(2, n + 1)),
                operators.absorbent_derivative(f, 1))
    deviation = max(_distance(twice, f), _distance(total, f))
    for size in range(1, n + 1):
        subset = tuple(range(1, size + 1))
        direct = operators.truncate(f, subset)
        through = operators.truncate(operators.project_AS(f, subset), subset)
        deviation = max(deviation, _distance(direct, through))
    return deviation


def _free_rows(f: GroupAlgebraElement) -> list[Row]:
    """The one row of a free-identity trial: its deviation over a tolerance of 1e-12."""
    deviation = free_identity_deviation(f)
    return [Row(deviation, deviation, 1e-12, deviation / 1e-12)]


def _free_identities(params: dict, ensemble: EnsembleSpec, seed: int):
    _reads(params, "rank", "modulus")
    modulus = params.get("modulus")
    name = "free_product_word" if modulus else "free_word"
    group = COCYCLE_FAMILIES[name].cli_group(int(params.get("rank", 2)), int(modulus or 0), 0)
    cocycle = build_cocycle(name, group)
    _reads_ensemble("free_identities", ensemble, group)
    return (lambda rng: sample_element(group, cocycle, ensemble, rng), _each(_free_rows),
            lambda f, row: {"f": f.to_json()})


#: every scan experiment by name
EXPERIMENTS: dict[str, Experiment] = {
    "naor": Experiment(_naor, lambda r: _naor_one(
        *_load_element(w := r["witness"]), _naor_ps(r["params"]), [w["k"]], w["derivative"],
        w["p"])[0]),
    "xp_linear": Experiment(_xp_linear, lambda r: _xp_rows(
        [_matrix_from_json(x) for x in r["witness"]["matrices"]], r["witness"]["p"],
        [r["witness"]["k"]], r["witness"].get("sign_seed", r.get("seed")))[0]),
    "rosenthal": Experiment(_rosenthal, lambda r: _rosenthal_rows(
        [complex(z["re"], z["im"]) for z in r["witness"]["coeffs"]], r["witness"]["p"],
        [r["witness"]["k"]])[0]),
    "riesz_equivalence": Experiment(_riesz, lambda r: _riesz_rows(
        *_load_element(w := r["witness"]), w["p"])[0]),
    "free_identities": Experiment(_free_identities, lambda r: _free_rows(
        GroupAlgebraElement.from_json(r["witness"]["f"]))[0]),
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
    Rows are folded as they arrive (the largest ratio at each p of the rows that carry
    one, and whether any sampled signs), so memory does not grow with ``trials``.
    """
    record = _experiment(experiment)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ensemble = ensemble or EnsembleSpec()
    start = time.perf_counter()
    sample, evaluate, witness = record.bind(params, ensemble, seed)
    rng = np.random.default_rng(seed)
    best = winner = None
    peaks: dict[float, float] = {}
    monte_carlo = False
    for x, rows in evaluate(sample(rng) for _ in range(trials)):
        for row in rows:
            if best is None or row.score - best.score > SCORE_TIE_RTOL * abs(best.score):
                best, winner = row, x
            if row.p is not None:
                peaks[row.p] = max(peaks.get(row.p, 0.0), row.ratio)
            monte_carlo = monte_carlo or row.monte_carlo
    summary = {"max_ratio_by_p": {str(p): v for p, v in peaks.items()}} if peaks else {}
    return _report(experiment, {**params, "ensemble": ensemble.to_json()},
                   best._replace(monte_carlo=monte_carlo, extra={**best.extra, **summary}),
                   start, witness(winner, best), trials, seed)


def reevaluate_witness(report: RatioReport | dict) -> dict:
    """Recompute (lhs, rhs, ratio) from a report's stored witness, on the plan of the
    report's own params; refused when the report names another route (or torus grid)
    in ``extra`` than the replayed row takes."""
    data = report.to_json() if isinstance(report, RatioReport) else report
    if data["witness"] is None:
        raise ValueError("report has no witness")
    row = _experiment(data["experiment"]).from_witness(data)
    extra = data.get("extra") or {}
    for key in ("route", "grid"):
        if key in extra and extra[key] != row.extra.get(key):
            raise ValueError(f"the report names the {key} {extra[key]!r}; "
                             f"its witness replays {row.extra.get(key)!r}")
    return {"lhs": row.lhs, "rhs": row.rhs, "ratio": row.ratio}
