"""Lp norms on group algebras, Schatten norms, and square-function norms.

Finite abelian norms are normalized: the group carries its uniform
probability measure.  Torus polynomial norms come in two independent routes,
an exact even-p route through repeated coefficient convolutions and an
oversampled-grid quadrature; they are cross-checked in the test suite.
Matrix (Schatten) norms use the unnormalized trace: the balanced-average
inequalities are p-homogeneous in a common trace scaling, so the choice only
rescales both sides identically.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .groups import (FINITE_ABELIAN, TORUS, GroupAlgebraElement, adjoint,
                     convolve, evaluate_on_dual, trace)

#: dense complex matrices stand in for the finite-dimensional operands
MatrixOperand = np.ndarray


class NumericalSanityError(RuntimeError):
    """A PSD structure was violated beyond tolerance; signals a bug."""


def lp_norm_abelian(f: GroupAlgebraElement, p: float) -> float:
    """((1/|G^|) sum_x |f(x)|^p)^(1/p) through the dual evaluation."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if f.group.kind != FINITE_ABELIAN:
        raise ValueError("lp_norm_abelian needs a finite abelian group")
    if not f.coeffs:
        return 0.0
    values = np.abs(evaluate_on_dual(f).values)
    return float(np.mean(values ** p) ** (1.0 / p))


def _conv_power(h: GroupAlgebraElement, t: int) -> GroupAlgebraElement | None:
    if t == 0:
        return None
    out = h
    for _ in range(t - 1):
        out = convolve(out, h)
    return out


def lp_norm_torus_even(f: GroupAlgebraElement, p: float, oversample: int = 4) -> float:
    """Exact even-p norm: the p-th power is the 0-coefficient of (f f*)^{*p/2}.

    Odd and non-integer exponents fall outside the convolution method and are
    routed to the grid quadrature.
    """
    if f.group.kind != TORUS:
        raise ValueError("lp_norm_torus_even needs a torus polynomial")
    if p < 2 or p != int(p) or int(p) % 2:
        return lp_norm_torus_grid(f, p, oversample)
    if not f.coeffs:
        return 0.0
    p = int(p)
    h = convolve(f, adjoint(f))
    half = p // 2
    left = _conv_power(h, half // 2)
    right = _conv_power(h, half - half // 2)
    if left is None:
        value = trace(right)
    else:
        value = sum(v * right.coeffs.get(tuple(-x for x in k), 0)
                    for k, v in left.coeffs.items())
    value = complex(value)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise NumericalSanityError(f"even-p power has nonreal trace {value}")
    return float(max(value.real, 0.0) ** (1.0 / p))


def _torus_grid_values(fs: Sequence[GroupAlgebraElement], oversample: int) -> np.ndarray:
    """Evaluate torus polynomials on a common uniform grid (rows = inputs)."""
    rank = fs[0].group.rank
    bound = max(f.group.bound for f in fs)
    side = oversample * (2 * bound + 1)
    grids = np.empty((len(fs), side ** rank), dtype=complex)
    for row, f in enumerate(fs):
        padded = np.zeros((side,) * rank, dtype=complex)
        for key, value in f.coeffs.items():
            padded[tuple(x % side for x in key)] += value
        grids[row] = (np.fft.ifftn(padded) * side ** rank).ravel()
    return grids


def lp_norm_torus_grid(f: GroupAlgebraElement, p: float, oversample: int = 4) -> float:
    """Riemann-sum norm on an oversampled uniform grid.

    The grid has ``oversample * (2*bound + 1)`` points per axis, which makes
    the quadrature exact (up to rounding) for even ``p <= 6``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if oversample < 4:
        raise ValueError(f"oversample must be >= 4, got {oversample}")
    if f.group.kind != TORUS:
        raise ValueError("lp_norm_torus_grid needs a torus polynomial")
    if not f.coeffs:
        return 0.0
    values = np.abs(_torus_grid_values([f], oversample)[0])
    return float(np.mean(values ** p) ** (1.0 / p))


def lp_norm(f: GroupAlgebraElement, p: float, oversample: int = 4) -> float:
    """Norm dispatcher: abelian dual sums, exact even-p torus, grid fallback."""
    if f.group.kind == FINITE_ABELIAN:
        return lp_norm_abelian(f, p)
    if f.group.kind == TORUS:
        return lp_norm_torus_even(f, p, oversample)
    raise ValueError("Lp norms are not defined for free kinds here; "
                     "use the combinatorial operator-identity suite instead")


def schatten_norm(x: MatrixOperand, p: float) -> float:
    """(sum_i s_i^p)^(1/p) over the singular values of a dense matrix."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = np.asarray(x, dtype=complex)
    if p == 2:
        return float(np.linalg.norm(x))
    singular_values = np.linalg.svd(x, compute_uv=False)
    return float(np.sum(singular_values ** p) ** (1.0 / p))


def psd_eigenvalues(gram: MatrixOperand) -> np.ndarray:
    """Eigenvalues of a PSD matrix, clamping roundoff negatives above -1e-12."""
    eigs = np.linalg.eigvalsh(gram)
    floor = -1e-12 * max(1.0, float(np.max(np.abs(eigs), initial=0.0)))
    if eigs.min(initial=0.0) < floor:
        raise NumericalSanityError(f"matrix is not PSD: min eigenvalue {eigs.min()}")
    return np.clip(eigs, 0.0, None)


def square_function_norm(components: Sequence, p: float, side: str = "column",
                         oversample: int = 4) -> float:
    """Norm of the square function (sum |x_l|^2)^(1/2) of a finite family.

    Abelian components reduce to the pointwise Euclidean norm followed by the
    Lp norm (row and column coincide).  Matrix components form sum x*x
    (column) or sum xx* (row) and take the Schatten norm of the PSD square
    root.
    """
    if side not in ("column", "row"):
        raise ValueError(f"side must be 'column' or 'row', got {side!r}")
    components = list(components)
    if not components:
        raise ValueError("need at least one component")
    if isinstance(components[0], GroupAlgebraElement):
        if any(not isinstance(c, GroupAlgebraElement) for c in components):
            raise ValueError("mixed operand kinds")
        group = components[0].group
        if group.kind == FINITE_ABELIAN:
            rows = np.stack([evaluate_on_dual(c).values for c in components])
            pointwise = np.sqrt(np.sum(np.abs(rows) ** 2, axis=0))
            return float(np.mean(pointwise ** p) ** (1.0 / p))
        if group.kind == TORUS:
            if p >= 2 and p == int(p) and int(p) % 2 == 0:
                square = None
                for c in components:
                    term = convolve(c, adjoint(c))
                    square = term if square is None else square + term
                half = int(p) // 2
                power = _conv_power(square, half)
                value = complex(trace(power))
                return float(max(value.real, 0.0) ** (1.0 / p))
            rows = _torus_grid_values(components, oversample)
            pointwise = np.sqrt(np.sum(np.abs(rows) ** 2, axis=0))
            return float(np.mean(pointwise ** p) ** (1.0 / p))
        raise ValueError("square functions need abelian or matrix operands")
    mats = [np.asarray(c, dtype=complex) for c in components]
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("matrix components must share a common shape")
    if side == "column":
        gram = sum(m.conj().T @ m for m in mats)
    else:
        gram = sum(m @ m.conj().T for m in mats)
    eigs = psd_eigenvalues(gram)
    return float(np.sum(eigs ** (p / 2.0)) ** (1.0 / p))


def sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign vectors in deterministic (lexicographic) order."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


def sign_average_power(mats: np.ndarray, p: float, signs: np.ndarray) -> float:
    """Mean of ||sum_j eps_j x_j||_p^p over the rows eps of ``signs``, in one batch."""
    combos = np.tensordot(signs, mats, axes=1)
    if p == 2:
        powers = np.sum(np.abs(combos) ** 2, axis=(1, 2))
    else:
        singular = np.linalg.svd(combos, compute_uv=False)
        powers = np.sum(singular ** p, axis=1)
    return float(np.mean(powers))


def khintchine_ratio(xs: Sequence[MatrixOperand], p: float) -> float:
    """E_eps ||sum eps_j x_j||_p^p over max(column, row square function)^p.

    Exhaustive over the 2^n sign vectors; n is capped at 16.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    mats = [np.asarray(x, dtype=complex) for x in xs]
    if len({m.shape for m in mats}) != 1:
        raise ValueError("dimension mismatch between operands")
    n = len(mats)
    if n > 16:
        raise ValueError("sign enumeration is capped at n = 16")
    average = sign_average_power(np.stack(mats), p, sign_patterns(n))
    denom = max(square_function_norm(mats, p, "column"),
                square_function_norm(mats, p, "row"))
    return float(average / denom ** p)
