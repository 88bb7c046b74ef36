"""Fourier multipliers: derivatives, Laplacians, Riesz transforms, truncations.

Every operator here acts coefficient-wise, so any two of them commute up to
the indicator filters spelled out in their docstrings.  Derivatives carry the
literal ``2*pi*i`` factor; the absorbent derivatives are dimensionless 0/1
projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cocycles import BasisVector, LengthCocycle
from .groups import GroupAlgebraElement, GroupDescriptor, _multiply, adjoint, is_mean_zero

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class GradientVector:
    """The nonzero components of a j-th gradient, one per basis direction."""

    j: int
    components: tuple[tuple[BasisVector, GroupAlgebraElement], ...]

    @property
    def elements(self) -> list[GroupAlgebraElement]:
        return [f for _, f in self.components]


def _require_mean_zero(f: GroupAlgebraElement, what: str) -> None:
    if not is_mean_zero(f):
        raise ValueError(f"{what} needs a mean-zero input (nonzero trace found)")


def _require_free(f: GroupAlgebraElement, what: str) -> None:
    if not f.group.is_free_kind:
        raise ValueError(f"{what} is only defined on free kinds, got {f.group.kind}")


def _component_range(group: GroupDescriptor, j: int) -> None:
    if not 1 <= j <= group.n_components:
        raise ValueError(f"component {j} out of range [1, {group.n_components}]")


def directional_derivative(f: GroupAlgebraElement, u: BasisVector,
                           cocycle: LengthCocycle) -> GroupAlgebraElement:
    """The cocycle derivative: multiply the g-coefficient by 2*pi*i*<beta(g),u>."""
    cocycle.require_basis_vector(u)
    return _multiply(f, lambda key: TWO_PI_I * cocycle.pairing(key, u))


def gradient(f: GroupAlgebraElement, j: int, cocycle: LengthCocycle) -> GradientVector:
    """All nonzero directional derivatives of ``f`` in the j-th basis slice."""
    _component_range(f.group, j)
    components = []
    for u in cocycle.basis_slice(j, f.coeffs.keys()):
        df = directional_derivative(f, u, cocycle)
        if df.coeffs:
            components.append((u, df))
    return GradientVector(j=j, components=tuple(components))


def absorbent_derivative(f: GroupAlgebraElement, j: int) -> GroupAlgebraElement:
    """The idempotent derivative with symbol delta_{g_j != 0} (abelian kinds)
    or delta_{first letter on generator j} (free kinds)."""
    _component_range(f.group, j)
    if f.group.is_abelian:
        return _multiply(f, lambda key: 1.0 if key[j - 1] != 0 else 0.0)
    return _multiply(f, lambda word: 1.0 if (not word.is_identity
                                             and word.first_generator == j) else 0.0)


def walsh_derivative(f: GroupAlgebraElement, j: int) -> GroupAlgebraElement:
    """The hypercube flip derivative, multiplier 2 on characters involving j."""
    group = f.group
    if not group.is_hypercube:
        raise ValueError("walsh_derivative needs a hypercube group")
    _component_range(group, j)
    return _multiply(f, lambda key: 2.0 if key[j - 1] else 0.0)


def laplacian_power(f: GroupAlgebraElement, gamma: float,
                    cocycle: LengthCocycle) -> GroupAlgebraElement:
    """The multiplier psi(g)**gamma, with 0**gamma := 0 for gamma > 0.

    Negative powers refuse non-mean-zero input rather than silently
    projecting.  A gamma that is not finite, or at which some psi(g)**gamma
    overflows a float, is refused.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"the Laplacian power needs a finite gamma, got {gamma}")
    if gamma < 0 and not all(cocycle.psi(key) != 0 for key in f.coeffs):
        raise ValueError("negative Laplacian powers need a mean-zero input")
    if gamma == 0:
        return f

    def symbol(key):
        psi = cocycle.psi(key)
        if psi == 0:
            return 0.0
        try:
            return float(psi) ** gamma
        except OverflowError:
            raise ValueError(f"psi({key}) ** gamma overflows a float at gamma = {gamma}") from None

    return _multiply(f, symbol)


def heat_semigroup(f: GroupAlgebraElement, t: float,
                   cocycle: LengthCocycle) -> GroupAlgebraElement:
    """The Markov semigroup multiplier exp(-t psi(g))."""
    if not 0 <= t < math.inf:
        raise ValueError(f"the heat semigroup needs a finite t >= 0, got {t}")
    return _multiply(f, lambda key: math.exp(-t * float(cocycle.psi(key))))


def riesz_transform(f: GroupAlgebraElement, u: BasisVector,
                    cocycle: LengthCocycle) -> GroupAlgebraElement:
    """The Riesz transform with symbol 2*pi*i*<beta(g),u>/sqrt(psi(g))."""
    if not all(cocycle.psi(key) != 0 for key in f.coeffs):
        raise ValueError("riesz_transform needs a mean-zero input")
    cocycle.require_basis_vector(u)
    return _multiply(f, lambda key: TWO_PI_I * cocycle.pairing(key, u)
                     / math.sqrt(float(cocycle.psi(key))))


def _validate_subset(group: GroupDescriptor, subset: Iterable[int]) -> frozenset[int]:
    subset = frozenset(int(j) for j in subset)
    for j in subset:
        _component_range(group, j)
    return subset


def in_truncation_range(group: GroupDescriptor, key, subset: frozenset[int]) -> bool:
    """Whether ``key`` belongs to the subgroup B_S kept by the S-truncation."""
    if group.is_abelian:
        return all(key[j - 1] == 0 for j in range(1, group.n_components + 1)
                   if j not in subset)
    return all(i in subset for i, _ in key.blocks)


def truncate(f: GroupAlgebraElement, subset: Iterable[int]) -> GroupAlgebraElement:
    """Keep exactly the coefficients supported in B_S.

    B_S is the subgroup with vanishing entries outside S (abelian kinds) or
    the free factor generated by S (free kinds); the truncation is the
    conditional expectation onto it.
    """
    subset = _validate_subset(f.group, subset)
    return _multiply(f, lambda key: in_truncation_range(f.group, key, subset))


def adjoint_truncation(f: GroupAlgebraElement, subset: Iterable[int]) -> GroupAlgebraElement:
    """The companion truncation f -> (E_S(f*))*, supported on B_S^{-1}."""
    return adjoint(truncate(adjoint(f), subset))


def project_AS(f: GroupAlgebraElement, subset: Iterable[int]) -> GroupAlgebraElement:
    """Projection onto words whose first letter uses a generator in S.

    Equals the sum of the absorbent derivatives over S; contains the
    S-truncation range, so E_S = E_S o P_{A_S}.
    """
    _require_free(f, "project_AS")
    _require_mean_zero(f, "project_AS")
    subset = _validate_subset(f.group, subset)
    return _multiply(f, lambda word: word.first_generator in subset)


def free_hilbert_transform(f: GroupAlgebraElement, signs: Sequence[int]) -> GroupAlgebraElement:
    """Flip coefficient signs by first letter: H_eps = sum_j eps_j d_j."""
    _require_free(f, "free_hilbert_transform")
    _require_mean_zero(f, "free_hilbert_transform")
    n = f.group.n_components
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError(f"signs must be a vector of +-1 of length {n}")
    return _multiply(f, lambda word: signs[word.first_generator - 1])

