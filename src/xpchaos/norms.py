"""Lp norms on group algebras, Schatten norms, and square-function norms.

Finite abelian norms are normalized: the group carries its uniform
probability measure.  Torus polynomial norms come in two independent routes,
an exact even-p route, the trace of a coefficient-convolution power taken by
meet in the middle (``_trace_power``), and an oversampled-grid quadrature;
they are cross-checked in the test suite.  Square functions take the same routes.
Matrix (Schatten) norms use the unnormalized trace: the balanced-average
inequalities are p-homogeneous in a common trace scaling, so the choice only
rescales both sides identically.  Sign averages of matrix tuples take the
powers of every sign combination from one kernel on real planes with the sign
axis last (``sign_powers``).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groups import (FINITE_ABELIAN, TORUS, GroupAlgebraElement, _grid_values, adjoint,
                     coefficient_tensor, convolve, element_inverse, evaluate_on_dual, trace)

#: ``lp_norm_torus_refined`` doubles its grid until two successive norms agree
#: to this relative gap, on grids of at most GRID_REFINE_MAX_POINTS points
GRID_REFINE_TOL = 1e-8
GRID_REFINE_MAX_POINTS = 2 ** 22

#: most coefficient products of the exact even-p torus route (``_trace_power``)
TRACE_POWER_MAX_PRODUCTS = 2 ** 26

#: sign rows contracted per numpy batch in sign averages (and drawn per block by
#: the Monte Carlo ones); bounds their working set without changing their values.
#: Of 2^10..2^13, 2^11 timed near the best at d = 4 and at d = 16 (README)
SIGN_BLOCK_ROWS = 2 ** 11


class NumericalSanityError(RuntimeError):
    """A trace that must be real was not, beyond tolerance; signals a bug."""


def _check_p(p: float) -> float:
    """p, refused when below 1 or not finite (NaN fails every ``>=``)."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    return p


def _is_even(p: float) -> bool:
    return p >= 2 and p == int(p) and int(p) % 2 == 0


def _mean_power(values: np.ndarray, p: float):
    """mean |v|^p over ``values``; past the float range it reads inf or 0, which
    ``_root`` refuses, so numpy's overflow warning is not raised."""
    with np.errstate(over="ignore"):
        return np.mean(np.abs(values) ** p)


def _root(power, p: float) -> float:
    """power^(1/p), the norm of a nonzero input, refused when power is 0 or not finite."""
    if not 0 < power < math.inf:                   # NaN fails both
        raise ValueError(f"at p = {p} the norm leaves the float range "
                         f"(its p-th power reads {power})")
    return float(power ** (1.0 / p))


def lp_norm_abelian(f: GroupAlgebraElement, p: float) -> float:
    """((1/|G^|) sum_x |f(x)|^p)^(1/p) through the dual evaluation."""
    _check_p(p)
    if f.group.kind != FINITE_ABELIAN:
        raise ValueError("lp_norm_abelian needs a finite abelian group")
    if not f.coeffs:
        return 0.0
    return _root(_mean_power(evaluate_on_dual(f).values, p), p)


def _conv_power(h: GroupAlgebraElement, t: int) -> GroupAlgebraElement:
    out = h
    for _ in range(t - 1):
        out = convolve(out, h)
    return out


def _trace_power(xs: Sequence[GroupAlgebraElement], p: float) -> float:
    """tau(h^q) of h = sum_l x_l x_l* (torus polynomials of bound B) at an even p = 2q,
    by meet in the middle: h^(q//2) paired with h^(q - q//2), refused when not real.
    Before any convolution, p is refused above TRACE_POWER_MAX_PRODUCTS coefficient
    products: each step to h^t multiplies at most its key box, (4Bt + 1)^rank keys."""
    q, bound = int(p) // 2, max(x.group.bound for x in xs)
    top = q - q // 2
    steps = q - 2 if q % 2 else top - 1            # h^(q//2) too at an odd q
    if steps * ((4 * bound * top + 1) * (4 * bound + 1)) ** xs[0].group.rank \
            > TRACE_POWER_MAX_PRODUCTS:
        raise ValueError(f"at p = {p} the exact trace power takes more than "
                         f"{TRACE_POWER_MAX_PRODUCTS = } coefficient products")
    h = sum((convolve(x, adjoint(x)) for x in xs[1:]), convolve(xs[0], adjoint(xs[0])))
    if q == 1:
        value = trace(h)
    else:
        right = _conv_power(h, top)
        left = right if q % 2 == 0 else _conv_power(h, q // 2)
        value = sum(v * right.coeffs.get(element_inverse(h.group, k), 0)
                    for k, v in left.coeffs.items())
    value = complex(value)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise NumericalSanityError(f"even-p power has nonreal trace {value}")
    return max(value.real, 0.0)


def lp_norm_torus_even(f: GroupAlgebraElement, p: float) -> float:
    """Exact even-p norm: the p-th power is tau((f f*)^(p/2)).

    Odd and non-integer exponents fall outside the convolution method and are
    routed to the grid quadrature.  ``_trace_power`` and ``_root`` refuse a p out of reach.
    """
    if f.group.kind != TORUS:
        raise ValueError("lp_norm_torus_even needs a torus polynomial")
    _check_p(p)
    if not _is_even(p):
        return lp_norm_torus_grid(f, p)
    if not f.coeffs:
        return 0.0
    return _root(_trace_power([f], p), p)


def lp_norm_torus_grid(f: GroupAlgebraElement, p: float, oversample: int = 4) -> float:
    """Riemann-sum norm on an oversampled uniform grid.

    The grid has ``oversample * (2*bound + 1)`` points per axis, which makes
    the quadrature exact (up to rounding) for even ``p <= 6``.
    """
    _check_p(p)
    if oversample < 4:
        raise ValueError(f"oversample must be >= 4, got {oversample}")
    if f.group.kind != TORUS:
        raise ValueError("lp_norm_torus_grid needs a torus polynomial")
    if not f.coeffs:
        return 0.0
    grid = (oversample * (2 * f.group.bound + 1),) * f.group.rank
    return _root(_mean_power(_grid_values(coefficient_tensor(f, grid), grid), p), p)


def lp_norm_torus_refined(f: GroupAlgebraElement, p: float,
                          oversample: int = 4) -> tuple[float, float | None]:
    """Grid quadrature doubled from ``oversample`` while two successive norms
    differ by more than GRID_REFINE_TOL (relative) and the next grid has at
    most GRID_REFINE_MAX_POINTS points: (last norm, its relative gap to the
    one before, None when no finer grid fits)."""
    value, gap = lp_norm_torus_grid(f, p, oversample), None
    side = 2 * f.group.bound + 1
    while (gap is None or gap > GRID_REFINE_TOL) \
            and (2 * oversample * side) ** f.group.rank <= GRID_REFINE_MAX_POINTS:
        oversample *= 2
        previous, value = value, lp_norm_torus_grid(f, p, oversample)
        gap = abs(value - previous) / value if value else 0.0
    return value, gap


def lp_norm(f: GroupAlgebraElement, p: float) -> float:
    """Norm dispatcher: abelian dual sums, exact even-p torus, grid fallback."""
    if f.group.kind == FINITE_ABELIAN:
        return lp_norm_abelian(f, p)
    if f.group.kind == TORUS:
        return lp_norm_torus_even(f, p)
    raise ValueError("Lp norms are not defined for free kinds here; "
                     "use the combinatorial operator-identity suite instead")


def _squared_moduli(stack: np.ndarray) -> np.ndarray:
    """sum_ij |x_ij|^2 per matrix, read through the real and imaginary views."""
    return (np.einsum("...ij,...ij->...", stack.real, stack.real)
            + np.einsum("...ij,...ij->...", stack.imag, stack.imag))


def _gram_powers(gram: np.ndarray, q: int) -> np.ndarray:
    """tr(G^q) for each Hermitian matrix G of a stack, as the trace of
    G^(q//2) G^(q - q//2); at q = 2 that is the squared Frobenius norm of G."""
    half = np.linalg.matrix_power(gram, q // 2)
    if q % 2:
        return np.einsum("...ij,...ji->...", half, half @ gram).real
    return _squared_moduli(half)


def schatten_powers(stack: np.ndarray, p: float) -> np.ndarray:
    """||x||_p^p = sum_i s_i(x)^p for each matrix x of a stack (..., m, n).

    p = 2 is the sum of squared moduli.  At an even p = 2q the power is
    tr(G^q) for the smaller Gram matrix G of x (``_gram_powers``), so no SVD
    runs.  Other p use the batched SVD.
    """
    _check_p(p)
    stack = np.asarray(stack, dtype=complex)
    if p == 2:
        return _squared_moduli(stack)
    if _is_even(p):
        if stack.shape[-2] < stack.shape[-1]:
            stack = np.swapaxes(stack, -2, -1)     # same singular values
        return _gram_powers(np.conj(np.swapaxes(stack, -2, -1)) @ stack, int(p) // 2)
    singular_values = np.linalg.svd(stack, compute_uv=False)
    return np.sum(singular_values ** p, axis=-1)


def schatten_norm(x: np.ndarray, p: float) -> float:
    """(sum_i s_i^p)^(1/p) over the singular values of a dense matrix."""
    return float(schatten_powers(x, p) ** (1.0 / p))


def square_function_norm(components: Sequence[GroupAlgebraElement], p: float) -> float:
    """Norm of the square function (sum |x_l|^2)^(1/2) of a finite abelian or torus family.

    The pointwise Euclidean norm of the family's values is followed by the Lp
    norm: on the dual group, on ``lp_norm_torus_grid``'s grid, or at an even p
    on the torus by the exact trace power of sum x_l x_l*.  A family that is not
    zero is refused by ``_root`` at a p where its p-th power leaves the float range.
    """
    _check_p(p)
    components = list(components)
    if not components:
        raise ValueError("need at least one component")
    if not all(isinstance(c, GroupAlgebraElement) and c.group.kind in (FINITE_ABELIAN, TORUS)
               for c in components):
        raise ValueError("square functions need abelian or torus group algebra elements")
    if not any(c.coeffs for c in components):
        return 0.0
    group = components[0].group
    if group.kind == TORUS and _is_even(p):
        return _root(_trace_power(components, p), p)
    grid = (group.moduli if group.kind == FINITE_ABELIAN      # or lp_norm_torus_grid's grid
            else (4 * (2 * max(c.group.bound for c in components) + 1),) * group.rank)
    rows = _grid_values(np.stack([coefficient_tensor(c, grid) for c in components]), grid)
    return _root(_mean_power(np.sqrt(np.sum(np.abs(rows) ** 2, axis=0)), p), p)


def sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign vectors in lexicographic order, +1 before -1.

    Row r holds the bits of r, most significant first, with bit 1 as -1.
    The first 2^(n-1) rows are those with eps_1 = +1; since the norms are
    even (||-X|| = ||X||), a mean over them equals the mean over all rows.
    """
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def half_sign_patterns(n: int) -> np.ndarray:
    """The 2^(n-1) rows of :func:`sign_patterns` with eps_1 = +1 (n >= 1)."""
    return sign_patterns(n)[: 2 ** (n - 1)]


def sign_planes(signs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_j eps_j x_j for each row eps of ``signs``, over stacks (..., k, m, n),
    as real planes of shape (m, n, 2, ..., rows).

    Entry (i, j, 0) holds the real parts of the (i, j) entries of every sign
    combination and (i, j, 1) their imaginary parts, each a contiguous run over
    the stack and sign axes, which come last.  The signs are real, so the planes
    are one gemm: the flattened (re, im) view of the matrices, transposed, times
    ``signs.T``.
    """
    mats = np.ascontiguousarray(mats, dtype=complex)
    *batch, k, m, n = mats.shape
    flat = mats.reshape(*batch, k, m * n).view(np.float64)
    flat = flat.transpose(-1, *range(flat.ndim - 1))    # np.moveaxis, without its checks
    return (flat.reshape(-1, k) @ signs.T).reshape(m, n, 2, *batch, len(signs))


def _gram_entries(planes: np.ndarray):
    """The entries a <= b of the Gram matrix x* x of every l x s matrix x held in
    ``planes`` (l, s, 2, ...): (a, b, real part, imaginary part), each formed
    elementwise over the contiguous trailing axes; the imaginary part is None on
    the diagonal, where it vanishes."""
    re, im = planes[:, :, 0], planes[:, :, 1]
    for a in range(planes.shape[1]):
        yield a, a, np.einsum("lc...,lc...->...", planes[:, a], planes[:, a]), None
        for b in range(a + 1, planes.shape[1]):
            yield (a, b, np.einsum("lc...,lc...->...", planes[:, a], planes[:, b]),
                   np.einsum("l...,l...->...", re[:, a], im[:, b])
                   - np.einsum("l...,l...->...", im[:, a], re[:, b]))


def sign_powers(signs: np.ndarray, mats: np.ndarray, p: float) -> np.ndarray:
    """||sum_j eps_j x_j||_p^p for each row eps of ``signs``, over stacks
    (..., k, m, n), with shape (..., rows), taken from :func:`sign_planes` by the
    rules of :func:`schatten_powers`.

    p = 2 is the sum of the squared planes, and a rank-one stack (a row, a column
    or 1 x 1) takes that sum to the p/2: its one singular value is its Frobenius norm.
    At an even p = 2q the Hermitian Gram entries on the smaller side come from
    ``_gram_entries``: at q = 2 the power is the squared Frobenius norm of the Gram
    matrix, summed from its entries; from q = 3 on the entries fill a Gram stack for
    ``_gram_powers``.  Other p rebuild the matrices for the batched SVD.  The powers
    equal the SVD sums to about 1e-15 relative, the rounding of the Gram entries.
    """
    _check_p(p)
    planes = sign_planes(signs, mats)
    if p == 2 or min(planes.shape[:2]) == 1:
        flat = planes.reshape(-1, *planes.shape[3:])
        return np.einsum("e...,e...->...", flat, flat) ** (p / 2)    # exact at p = 2
    if not _is_even(p):
        return schatten_powers(np.moveaxis(planes[:, :, 0] + 1j * planes[:, :, 1],
                                           (0, 1), (-2, -1)), p)
    if planes.shape[0] < planes.shape[1]:
        planes = planes.swapaxes(0, 1)             # same singular values
    q = int(p) // 2
    if q == 2:
        total = np.zeros(planes.shape[3:])
        for _, _, re, im in _gram_entries(planes):
            total += re * re if im is None else 2 * (re * re + im * im)
        return total
    side = planes.shape[1]
    gram = np.empty((side, side, *planes.shape[3:]), dtype=complex)
    for a, b, re, im in _gram_entries(planes):
        gram[a, b] = re if im is None else re + 1j * im
        gram[b, a] = gram[a, b].conj()
    return _gram_powers(np.ascontiguousarray(np.moveaxis(gram, (0, 1), (-2, -1))), q)


def sign_block_bytes(rows: int, cols: int, p: float) -> int:
    """At most the bytes of one block of SIGN_BLOCK_ROWS sign rows of
    ``sign_powers`` on rows x cols matrices: its planes, the gathered matrices and
    gemm input (together no larger than the planes), sixteen floats a sign row,
    and away from p = 2 and 4 four stacks of the planes' size more (the Gram stack
    and its powers, or the matrices rebuilt for the SVD and their copies)."""
    return SIGN_BLOCK_ROWS * (16 * rows * cols * (2 if p in (2, 4) else 6) + 128)


def sign_row_blocks(signs: np.ndarray) -> Iterator[np.ndarray]:
    """``signs`` in blocks of SIGN_BLOCK_ROWS rows."""
    return (signs[lo:lo + SIGN_BLOCK_ROWS] for lo in range(0, len(signs), SIGN_BLOCK_ROWS))


def sign_block_powers(blocks: Iterable[np.ndarray], mats: np.ndarray, p: float) -> np.ndarray:
    """:func:`sign_powers` of each block of sign rows in ``blocks``, in order, joined
    along the rows axis (the last)."""
    return np.concatenate([sign_powers(block, mats, p) for block in blocks], axis=-1)
