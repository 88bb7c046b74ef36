"""Group algebras with finitely supported Fourier coefficients.

Four group kinds are supported: finite abelian products ``Z_{m_1} x ... x
Z_{m_n}`` (the hypercube is the all-2 case), trigonometric polynomials on the
n-torus (frequencies in a box of ``Z^n``), free groups, and free products of
copies of ``Z_{2m}``.  Elements are canonical coefficient maps: keys are
integer tuples or :class:`~xpchaos.words.ReducedWord`, values are complex,
and zero coefficients are never stored.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import words
from .words import EMPTY_WORD, ReducedWord

#: coefficients below this modulus are pruned to keep canonical form
PRUNE_TOL = 1e-14

FINITE_ABELIAN = "finite_abelian"
TORUS = "torus"
FREE_GROUP = "free_group"
FREE_PRODUCT = "free_product"


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifies the group an element lives on.

    ``moduli`` is used by finite abelian products; ``rank`` by the torus and
    free kinds; ``bound`` is the torus frequency box half-width; ``modulus``
    is the cyclic order 2m of each free factor.
    """

    kind: str
    moduli: tuple[int, ...] = ()
    rank: int = 0
    bound: int = 0
    modulus: int = 0

    def __post_init__(self) -> None:
        if self.kind == FINITE_ABELIAN:
            if not self.moduli or any(m < 2 for m in self.moduli):
                raise ValueError("finite abelian moduli must all be >= 2")
        elif self.kind == TORUS:
            if self.rank < 1 or self.bound < 0:
                raise ValueError("torus needs rank >= 1 and bound >= 0")
        elif self.kind == FREE_GROUP:
            if self.rank < 1:
                raise ValueError("free group rank must be >= 1")
        elif self.kind == FREE_PRODUCT:
            if self.rank < 1:
                raise ValueError("free product rank must be >= 1")
            if self.modulus < 2 or self.modulus % 2:
                raise ValueError("free product modulus must be even and >= 2")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @classmethod
    def finite_abelian(cls, moduli: Iterable[int]) -> "GroupDescriptor":
        return cls(FINITE_ABELIAN, moduli=tuple(int(m) for m in moduli))

    @classmethod
    def hypercube(cls, n: int) -> "GroupDescriptor":
        return cls.finite_abelian([2] * n)

    @classmethod
    def torus(cls, rank: int, bound: int) -> "GroupDescriptor":
        return cls(TORUS, rank=rank, bound=bound)

    @classmethod
    def free_group(cls, rank: int) -> "GroupDescriptor":
        return cls(FREE_GROUP, rank=rank)

    @classmethod
    def free_product(cls, rank: int, modulus: int) -> "GroupDescriptor":
        return cls(FREE_PRODUCT, rank=rank, modulus=modulus)

    @property
    def n_components(self) -> int:
        """Number of coordinate directions [n] seen by truncations."""
        return len(self.moduli) if self.kind == FINITE_ABELIAN else self.rank

    @property
    def is_abelian(self) -> bool:
        return self.kind in (FINITE_ABELIAN, TORUS)

    @property
    def is_free_kind(self) -> bool:
        return self.kind in (FREE_GROUP, FREE_PRODUCT)

    @property
    def word_modulus(self) -> int | None:
        """Exponent modulus for word arithmetic (None for the free group)."""
        return self.modulus if self.kind == FREE_PRODUCT else None

    @property
    def dual_size(self) -> int:
        if self.kind != FINITE_ABELIAN:
            raise ValueError("dual size is only defined for finite abelian groups")
        return math.prod(self.moduli)

    def identity(self):
        if self.kind == FINITE_ABELIAN:
            return (0,) * len(self.moduli)
        if self.kind == TORUS:
            return (0,) * self.rank
        return EMPTY_WORD

    def compatible(self, other: "GroupDescriptor") -> bool:
        """Whether elements of the two descriptors may be combined.

        Torus descriptors compare by rank only: the frequency bound is storage
        metadata that grows under convolution.
        """
        if self.kind != other.kind:
            return False
        if self.kind == FINITE_ABELIAN:
            return self.moduli == other.moduli
        if self.kind == TORUS:
            return self.rank == other.rank
        if self.kind == FREE_PRODUCT:
            return self.rank == other.rank and self.modulus == other.modulus
        return self.rank == other.rank

    def to_json(self) -> dict:
        if self.kind == FINITE_ABELIAN:
            return {"kind": self.kind, "moduli": list(self.moduli)}
        if self.kind == TORUS:
            return {"kind": self.kind, "rank": self.rank, "bound": self.bound}
        if self.kind == FREE_GROUP:
            return {"kind": self.kind, "rank": self.rank}
        return {"kind": self.kind, "rank": self.rank, "modulus": self.modulus}

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupDescriptor":
        kind = data["kind"]
        if kind == FINITE_ABELIAN:
            return cls.finite_abelian(data["moduli"])
        if kind == TORUS:
            return cls.torus(int(data["rank"]), int(data["bound"]))
        if kind == FREE_GROUP:
            return cls.free_group(int(data["rank"]))
        if kind == FREE_PRODUCT:
            return cls.free_product(int(data["rank"]), int(data["modulus"]))
        raise ValueError(f"unknown group kind {kind!r}")


def canonical_key(group: GroupDescriptor, key):
    """Reduce a raw key to the canonical representative for ``group``."""
    if group.kind == FINITE_ABELIAN:
        key = tuple(int(x) % m for x, m in zip(key, group.moduli, strict=True))
        return key
    if group.kind == TORUS:
        key = tuple(int(x) for x in key)
        if len(key) != group.rank:
            raise ValueError(f"frequency {key} has wrong rank")
        if any(abs(x) > group.bound for x in key):
            raise ValueError(f"frequency {key} outside the box [-{group.bound}, {group.bound}]^n")
        return key
    if not isinstance(key, ReducedWord):
        key = ReducedWord(tuple((int(i), int(l)) for i, l in key))
    return words.reduce(key.blocks, group.rank, group.word_modulus)


def element_inverse(group: GroupDescriptor, key):
    if group.kind == FINITE_ABELIAN:
        return tuple((-x) % m for x, m in zip(key, group.moduli))
    if group.kind == TORUS:
        return tuple(-x for x in key)
    return words.inverse(key, group.word_modulus)


def element_product(group: GroupDescriptor, a, b):
    if group.kind == FINITE_ABELIAN:
        return tuple((x + y) % m for x, y, m in zip(a, b, group.moduli))
    if group.kind == TORUS:
        return tuple(x + y for x, y in zip(a, b))
    return words.concat(a, b, group.word_modulus)


class GroupAlgebraElement:
    """A finitely supported Fourier series ``sum_g fhat(g) lambda(g)``."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupDescriptor, coeffs: Mapping, *, _canonical: bool = False):
        if _canonical:
            object.__setattr__(self, "group", group)
            object.__setattr__(self, "coeffs", dict(coeffs))
            return
        acc: dict = {}
        for key, value in coeffs.items():
            key = canonical_key(group, key)
            acc[key] = acc.get(key, 0) + complex(value)
        acc = {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL}
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", acc)

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebraElement is immutable")

    @classmethod
    def zero(cls, group: GroupDescriptor) -> "GroupAlgebraElement":
        return cls(group, {}, _canonical=True)

    @classmethod
    def lam(cls, group: GroupDescriptor, key, coeff: complex = 1.0) -> "GroupAlgebraElement":
        """The scaled unitary ``coeff * lambda(key)``."""
        return cls(group, {key: coeff})

    @property
    def support_size(self) -> int:
        return len(self.coeffs)

    def items(self):
        return self.coeffs.items()

    def coefficient(self, key) -> complex:
        return self.coeffs.get(canonical_key(self.group, key), 0j)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        group = _join_group(self.group, other.group)
        acc = dict(self.coeffs)
        for key, value in other.coeffs.items():
            acc[key] = acc.get(key, 0) + value
        return GroupAlgebraElement(group, {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL},
                                   _canonical=True)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-1.0) * other

    def __neg__(self) -> "GroupAlgebraElement":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return convolve(self, other)
        return self.__rmul__(other)

    def __rmul__(self, scalar) -> "GroupAlgebraElement":
        scalar = complex(scalar)
        if scalar == 0:
            return GroupAlgebraElement.zero(self.group)
        coeffs = {k: scalar * v for k, v in self.coeffs.items()}
        return GroupAlgebraElement(self.group, {k: v for k, v in coeffs.items() if abs(v) > PRUNE_TOL},
                                   _canonical=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElement)
                and self.group.compatible(other.group)
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {v:.4g}" for k, v in list(self.coeffs.items())[:6])
        more = " ..." if len(self.coeffs) > 6 else ""
        return f"<GroupAlgebraElement {self.group.kind} {{{terms}{more}}}>"

    def allclose(self, other: "GroupAlgebraElement", tol: float = 1e-10) -> bool:
        if not self.group.compatible(other.group):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeffs.get(k, 0) - other.coeffs.get(k, 0)) <= tol for k in keys)

    def to_json(self) -> dict:
        entries = []
        for key in sorted(self.coeffs, key=_sort_key):
            value = self.coeffs[key]
            entry = {"re": value.real, "im": value.imag}
            if isinstance(key, ReducedWord):
                entry["word"] = key.to_json()
            else:
                entry["g"] = list(key)
            entries.append(entry)
        return {"group": self.group.to_json(), "coeffs": entries}

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupAlgebraElement":
        group = GroupDescriptor.from_json(data["group"])
        coeffs = {}
        for entry in data["coeffs"]:
            if "word" in entry:
                key = ReducedWord.from_json(entry["word"])
            else:
                key = tuple(int(x) for x in entry["g"])
            coeffs[key] = complex(entry["re"], entry.get("im", 0.0))
        return cls(group, coeffs)


def _sort_key(key):
    if isinstance(key, ReducedWord):
        return (len(key.blocks), key.blocks)
    return key


def _join_group(a: GroupDescriptor, b: GroupDescriptor) -> GroupDescriptor:
    if not a.compatible(b):
        raise ValueError(f"group mismatch: {a} vs {b}")
    if a.kind == TORUS and a.bound != b.bound:
        return GroupDescriptor.torus(a.rank, max(a.bound, b.bound))
    return a


@dataclass(frozen=True)
class DualEvaluation:
    """Values of a finite abelian element on its dual group.

    ``values`` is indexed lexicographically over ``(x_1, ..., x_n)`` with
    ``x_j`` in ``{0, ..., m_j - 1}`` (C order of the coefficient tensor), so
    reports are reproducible bit for bit.
    """

    group: GroupDescriptor
    values: np.ndarray = field(repr=False)

    def tensor(self) -> np.ndarray:
        return self.values.reshape(self.group.moduli)


def evaluate_on_dual(f: GroupAlgebraElement) -> DualEvaluation:
    """Evaluate ``f`` at every dual point: values[x] = sum_g fhat(g) chi_g(x).

    The characters are ``chi_g(x) = prod_j exp(2 pi i g_j x_j / m_j)``.
    Implemented with a multidimensional FFT; inverse of
    :func:`fourier_coefficients`.
    """
    group = f.group
    if group.kind != FINITE_ABELIAN:
        raise ValueError(f"dual evaluation needs a finite abelian group, got {group.kind}")
    values = np.fft.ifftn(coefficient_tensor(f)) * group.dual_size
    return DualEvaluation(group, values.ravel())


def coefficient_tensor(f: GroupAlgebraElement) -> np.ndarray:
    """The coefficients of a finite abelian element as a dense tensor over its moduli."""
    tensor = np.zeros(f.group.moduli, dtype=complex)
    for key, value in f.coeffs.items():
        tensor[key] += value
    return tensor


def fourier_coefficients(v: DualEvaluation) -> GroupAlgebraElement:
    """Invert :func:`evaluate_on_dual` by normalized character sums."""
    group = v.group
    tensor = np.asarray(v.values, dtype=complex).reshape(group.moduli)
    coeff_tensor = np.fft.fftn(tensor) / group.dual_size
    coeffs = {}
    for key in np.ndindex(*group.moduli):
        value = complex(coeff_tensor[key])
        if abs(value) > PRUNE_TOL:
            coeffs[key] = value
    return GroupAlgebraElement(group, coeffs, _canonical=True)


def key_box(group: GroupDescriptor) -> tuple[tuple[int, ...], int]:
    """Shape and lowest coordinate of the box of keys of an abelian group."""
    if group.kind == FINITE_ABELIAN:
        return group.moduli, 0
    return (2 * group.bound + 1,) * group.rank, -group.bound


def _convolve_dense(f: GroupAlgebraElement, h: GroupAlgebraElement,
                    group: GroupDescriptor) -> GroupAlgebraElement:
    """Accumulate all pairwise key sums in the dense key box of ``group``.

    Sums wrap around the moduli of a finite abelian box; a torus box is as wide
    as the two bounds together, so its sums never wrap.
    """
    shape, low = key_box(group)
    ka = np.array(list(f.coeffs.keys()), dtype=np.int64).reshape(-1, len(shape))
    kb = np.array(list(h.coeffs.keys()), dtype=np.int64).reshape(-1, len(shape))
    ca = np.array(list(f.coeffs.values()), dtype=complex)
    cb = np.array(list(h.coeffs.values()), dtype=complex)
    sums = (ka[:, None, :] + kb[None, :, :] - low).reshape(-1, len(shape))
    prods = np.multiply.outer(ca, cb)
    dense = np.zeros(shape, dtype=complex)
    np.add.at(dense.reshape(-1), np.ravel_multi_index(tuple(sums.T), shape, mode="wrap"),
              prods.ravel())
    coeffs = {}
    for key in zip(*np.nonzero(np.abs(dense) > PRUNE_TOL)):
        coeffs[tuple(int(x) + low for x in key)] = complex(dense[key])
    return GroupAlgebraElement(group, coeffs, _canonical=True)


def convolve(f: GroupAlgebraElement, h: GroupAlgebraElement) -> GroupAlgebraElement:
    """Operator product: coefficient at ``g`` is ``sum_{ab=g} fhat(a) hhat(b)``.

    On finite abelian groups this matches the pointwise product of dual
    evaluations.  Free-kind products reduce words before accumulating.
    """
    group = _join_group(f.group, h.group)
    if not f.coeffs or not h.coeffs:
        return GroupAlgebraElement.zero(group)
    if group.kind == TORUS:
        group = GroupDescriptor.torus(group.rank, f.group.bound + h.group.bound)
    if group.is_abelian:
        return _convolve_dense(f, h, group)
    acc: dict = {}
    for a, va in f.coeffs.items():
        for b, vb in h.coeffs.items():
            key = words.concat(a, b, group.word_modulus)
            acc[key] = acc.get(key, 0) + va * vb
    return GroupAlgebraElement(group, {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL},
                               _canonical=True)


def adjoint(f: GroupAlgebraElement) -> GroupAlgebraElement:
    """The involution ``f*``: coefficient at g^{-1} is the conjugate of f(g)."""
    coeffs = {element_inverse(f.group, key): value.conjugate() for key, value in f.coeffs.items()}
    return GroupAlgebraElement(f.group, coeffs, _canonical=True)


def trace(f: GroupAlgebraElement) -> complex:
    """The canonical trace: the coefficient at the identity."""
    return f.coeffs.get(f.group.identity(), 0j)


def project_mean_zero(f: GroupAlgebraElement, cocycle) -> GroupAlgebraElement:
    """Drop every coefficient at a group element with vanishing length."""
    coeffs = {k: v for k, v in f.coeffs.items() if cocycle.psi(k) != 0}
    return GroupAlgebraElement(f.group, coeffs, _canonical=True)


def is_mean_zero(f: GroupAlgebraElement) -> bool:
    """Whether the identity coefficient is absent (canonical form)."""
    return f.group.identity() not in f.coeffs


def random_group_elements(group: GroupDescriptor, size: int, rng: np.random.Generator,
                          max_length: int = 4):
    """Draw ``size`` distinct-ish group elements for sampling-based checks.

    Free-kind elements are random reduced walks of at most ``max_length``
    letters; abelian elements are uniform in the box/product.
    """
    out = []
    for _ in range(size):
        if group.kind == FINITE_ABELIAN:
            out.append(tuple(int(rng.integers(0, m)) for m in group.moduli))
        elif group.kind == TORUS:
            out.append(tuple(int(rng.integers(-group.bound, group.bound + 1))
                             for _ in range(group.rank)))
        else:
            length = int(rng.integers(0, max_length + 1))
            blocks = []
            for _ in range(length):
                gen = int(rng.integers(1, group.rank + 1))
                if group.kind == FREE_GROUP:
                    exp = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
                else:
                    exp = int(rng.integers(1, group.modulus))
                blocks.append((gen, exp))
            out.append(words.reduce(blocks, group.rank, group.word_modulus))
    return out
