"""Reference computations made apart from xpchaos.

Nothing here imports xpchaos: every value is computed from the serialized
inputs and outputs with numpy, ``math`` and ``fractions`` only, by a route
the library does not take (explicit characters instead of FFTs, grid
quadrature instead of coefficient convolution, closed forms, exhaustive
sign tables, integer Gromov forms from the definition of the length).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# -- serialized group-algebra elements -------------------------------------


def parse_element(data: dict) -> tuple[dict, np.ndarray, np.ndarray]:
    """(group, keys as an int array of shape (G, n), complex coefficients)."""
    group = data["group"]
    keys = np.array([entry["g"] for entry in data["coeffs"]], dtype=np.int64)
    coeffs = np.array([complex(entry["re"], entry.get("im", 0.0))
                       for entry in data["coeffs"]])
    return group, keys, coeffs


def _abelian_points(moduli) -> np.ndarray:
    return np.array(list(itertools.product(*(range(m) for m in moduli))), dtype=float)


def characters(group: dict, keys: np.ndarray, grid: int | None = None) -> np.ndarray:
    """Explicit character table chi_g(x), rows = points, columns = keys.

    Finite abelian groups use every dual point; the torus uses a uniform grid
    of ``grid`` points per axis.
    """
    if group["kind"] == "finite_abelian":
        moduli = np.array(group["moduli"], dtype=float)
        points = _abelian_points(group["moduli"]) / moduli
    elif group["kind"] == "torus":
        points = _abelian_points([grid] * int(group["rank"])) / grid
    else:
        raise ValueError(f"no character table for {group['kind']}")
    return np.exp(2j * math.pi * (points @ keys.T.astype(float)))


def exact_torus_grid(group: dict, p: float) -> int:
    """Points per axis that make the mean of |f|^p exact for even p.

    |f|^p has frequencies in [-p*B, p*B] per axis, so any grid with more
    than p*B points integrates it exactly; twice that is used.
    """
    if p != int(p) or int(p) % 2:
        raise ValueError("exact grid quadrature needs an even p")
    return 2 * int(p) * int(group["bound"]) + 1


def _mean_power(values: np.ndarray, p: float) -> np.ndarray:
    return np.mean(np.abs(values) ** p, axis=0)


def naor_sides(element: dict, p: float, k: int, derivative: str) -> tuple[float, float]:
    """(lhs, rhs) of the truncation-average inequality at one (p, k).

    lhs = mean over k-subsets S of ||E_S f||_p^p and
    rhs = (k/n) * sum_j (derivative term)_j + (k/n)^(p/2) * ||f||_p^p,
    with every norm a mean of |values|^p over explicit character sums.
    """
    group, keys, coeffs = parse_element(element)
    n = keys.shape[1]
    grid = exact_torus_grid(group, p) if group["kind"] == "torus" else None
    chi = characters(group, keys, grid)
    touches = keys != 0                                   # (G, n)
    subsets = list(itertools.combinations(range(n), k))
    inside = np.array([[not np.any(np.delete(row, list(s))) for s in subsets]
                       for row in touches])               # supp(g) within S
    truncated = chi @ (coeffs[:, None] * inside)
    lhs = float(np.mean(_mean_power(truncated, p)))
    if derivative == "walsh":
        deriv = float(np.sum(_mean_power(chi @ (2.0 * coeffs[:, None] * touches), p)))
    elif derivative == "absorbent":
        # f* has the conjugate coefficient at the inverse key
        moduli = np.array(group["moduli"])
        chi_star = characters(group, (-keys) % moduli)
        deriv = float(np.sum(_mean_power(chi @ (coeffs[:, None] * touches), p))
                      + np.sum(_mean_power(chi_star @ (coeffs.conj()[:, None] * touches), p)))
    elif derivative == "euclidean":
        symbols = 2j * math.pi * keys                     # (G, n)
        deriv = float(np.sum(_mean_power(chi @ (coeffs[:, None] * symbols), p)))
    else:
        raise ValueError(f"no reference for derivative {derivative!r}")
    full = float(_mean_power(chi @ coeffs, p))
    rhs = (k / n) * deriv + (k / n) ** (p / 2) * full
    return lhs, rhs


def hypergeometric_p2(element: dict, k: int) -> float:
    """Closed p = 2 lhs: sum |c_g|^2 C(n - |g|, k - |g|) / C(n, k)."""
    _, keys, coeffs = parse_element(element)
    n = keys.shape[1]
    total = 0.0
    for row, c in zip(keys, coeffs):
        size = int(np.count_nonzero(row))
        if size <= k:
            total += abs(c) ** 2 * math.comb(n - size, k - size)
    return total / math.comb(n, k)


def lp_norm(element: dict, p: float, grid: int | None = None) -> float:
    """||f||_p by explicit characters; torus grid exact for even p."""
    group, keys, coeffs = parse_element(element)
    if group["kind"] == "torus" and grid is None:
        grid = exact_torus_grid(group, p)
    values = characters(group, keys, grid) @ coeffs
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


# -- matrix and scalar sign averages -------------------------------------------


def sign_table(n: int) -> np.ndarray:
    """All 2^n sign vectors, row r holding the bits of r."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits


def _schatten_powers(combos: np.ndarray, p: float) -> np.ndarray:
    if p == 2:
        return np.sum(np.abs(combos) ** 2, axis=(1, 2))
    return np.sum(np.linalg.svd(combos, compute_uv=False) ** p, axis=1)


def sign_norm_powers(mats: np.ndarray, p: float) -> np.ndarray:
    """||sum_j eps_j x_j||_p^p for every one of the 2^n sign vectors."""
    signs = sign_table(mats.shape[0])
    d = mats.shape[1:]
    out = np.empty(len(signs))
    step = 8192
    for lo in range(0, len(signs), step):
        block = signs[lo:lo + step] @ mats.reshape(mats.shape[0], -1)
        out[lo:lo + step] = _schatten_powers(block.reshape(-1, *d), p)
    return out


def subset_sign_average(mats: np.ndarray, p: float, k: int) -> float:
    """Mean over k-subsets S of E_eps ||sum_{j in S} eps_j x_j||_p^p (exhaustive)."""
    n = mats.shape[0]
    total = 0.0
    for subset in itertools.combinations(range(n), k):
        total += float(np.mean(sign_norm_powers(mats[list(subset)], p)))
    return total / math.comb(n, k)


def schatten_sum(mats: np.ndarray, p: float) -> float:
    """sum_j ||x_j||_p^p."""
    return float(np.sum(_schatten_powers(mats, p)))


def rosenthal_sides(coeffs: np.ndarray, p: float, k: int) -> tuple[float, float]:
    """Exact scalar model: lhs by exhaustive (eps, S), rhs by its formula."""
    n = len(coeffs)
    idx = np.array(list(itertools.combinations(range(n), k)))
    sums = coeffs[idx] @ sign_table(k).T                  # (C(n,k), 2^k)
    lhs = float(np.mean(np.abs(sums) ** p)) ** (1.0 / p)
    kn = k / n
    rhs = (kn * float(np.sum(np.abs(coeffs) ** p))) ** (1.0 / p) \
        + math.sqrt(kn * float(np.sum(np.abs(coeffs) ** 2)))
    return lhs, rhs


# -- length functions and Gromov forms ------------------------------------------


def _reduce(blocks, modulus):
    """Free reduction of a block list; exponents taken mod ``modulus`` if set.

    A stack pass suffices: after a merge or a cancellation the next block is
    compared with the new top.
    """
    out: list[list[int]] = []
    for gen, exp in blocks:
        if modulus:
            exp %= modulus
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
            if modulus:
                exp %= modulus
        if exp:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


class Lengths:
    """psi and the group law of one family, written from their definitions."""

    def __init__(self, family: str, modulus: int = 0):
        self.family = family
        self.modulus = modulus

    def psi(self, g) -> int:
        if self.family == "torus_word":
            return sum(abs(x) for x in g)
        if self.family == "euclidean":
            return sum(x * x for x in g)
        if self.family == "cyclic_word":
            q = self.modulus
            return sum(min(x % q, q - x % q) for x in g)
        if self.family == "free_word":
            return sum(abs(e) for _, e in _reduce(g, 0))
        if self.family == "free_product_word":
            q = self.modulus
            return sum(min(e, q - e) for _, e in _reduce(g, q))
        raise ValueError(f"no reference length for {self.family!r}")

    def inverse(self, g):
        if self.family in ("torus_word", "euclidean", "cyclic_word"):
            return tuple(-x for x in g)
        return tuple((gen, -exp) for gen, exp in reversed(g))

    def product(self, a, b):
        if self.family in ("torus_word", "euclidean", "cyclic_word"):
            return tuple(x + y for x, y in zip(a, b))
        return tuple(a) + tuple(b)

    def gromov(self, g, h) -> Fraction:
        """(psi(g) + psi(h) - psi(g^-1 h)) / 2 in exact arithmetic."""
        step = self.product(self.inverse(g), h)
        return Fraction(self.psi(g) + self.psi(h) - self.psi(step), 2)
