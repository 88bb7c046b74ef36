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
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import words
from .words import EMPTY_WORD, ReducedWord, json_int

#: coefficients below this modulus are pruned to keep canonical form
PRUNE_TOL = 1e-14

FINITE_ABELIAN = "finite_abelian"
TORUS = "torus"
FREE_GROUP = "free_group"
FREE_PRODUCT = "free_product"

#: the fields each group kind carries besides its kind, in the order ``to_json`` stores them
KIND_FIELDS = {FINITE_ABELIAN: ("moduli",), TORUS: ("rank", "bound"), FREE_GROUP: ("rank",),
               FREE_PRODUCT: ("rank", "modulus")}

#: what ``compatible`` compares, as one tuple: the kind and its fields but the torus bound
_COMPARED = {kind: operator.attrgetter("kind", *(name for name in names if name != "bound"))
             for kind, names in KIND_FIELDS.items()}


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
    def is_hypercube(self) -> bool:
        return self.kind == FINITE_ABELIAN and set(self.moduli) == {2}

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
        return (0,) * self.n_components if self.is_abelian else EMPTY_WORD

    def compatible(self, other: "GroupDescriptor") -> bool:
        """Whether elements of the two descriptors may be combined.

        Torus descriptors compare by rank only: the frequency bound is storage
        metadata that grows under convolution.
        """
        compared = _COMPARED[self.kind]
        return compared(self) == compared(other)

    def to_json(self) -> dict:
        data = {"kind": self.kind}
        for name in KIND_FIELDS[self.kind]:
            value = getattr(self, name)
            data[name] = list(value) if name == "moduli" else value
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupDescriptor":
        kind = data["kind"]
        if not isinstance(kind, str) or kind not in KIND_FIELDS:
            raise ValueError(f"unknown group kind {kind!r}")
        values = {}
        for name in KIND_FIELDS[kind]:
            if name != "moduli":
                values[name] = json_int(data[name], f"the {name}")
            elif isinstance(data["moduli"], list):
                values[name] = tuple(json_int(m, "a modulus") for m in data["moduli"])
            else:
                raise ValueError(f"moduli must be a list, got {data['moduli']!r}")
        return cls(kind, **values)


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
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", _summed(
            (canonical_key(group, key), complex(value)) for key, value in coeffs.items()))

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebraElement is immutable")

    @classmethod
    def zero(cls, group: GroupDescriptor) -> "GroupAlgebraElement":
        return cls(group, {}, _canonical=True)

    @classmethod
    def lam(cls, group: GroupDescriptor, key, coeff: complex = 1.0) -> "GroupAlgebraElement":
        """The scaled unitary ``coeff * lambda(key)``."""
        return cls(group, {key: coeff})

    def coefficient(self, key) -> complex:
        return self.coeffs.get(canonical_key(self.group, key), 0j)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return GroupAlgebraElement(_join_group(self.group, other.group),
                                   _summed(other.coeffs.items(), self.coeffs), _canonical=True)

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
        return _multiply(self, lambda key: scalar)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElement)
                and self.group.compatible(other.group)
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {v:.4g}" for k, v in list(self.coeffs.items())[:6])
        more = " ..." if len(self.coeffs) > 6 else ""
        return f"<GroupAlgebraElement {self.group.kind} {{{terms}{more}}}>"

    def allclose(self, other: "GroupAlgebraElement", tol: float = 1e-10) -> bool:
        return self.group.compatible(other.group) and _distance(self, other) <= tol

    def to_json(self) -> dict:
        """The group and one entry per key, in sorted key order: abelian keys as
        tuples, words by length and then blocks."""
        coeffs = self.coeffs
        if self.group.is_free_kind:
            entries = [{"re": coeffs[key].real, "im": coeffs[key].imag, "word": key.to_json()}
                       for key in sorted(coeffs, key=_sort_key)]
        else:                           # no two keys are equal, so no values are compared
            entries = [{"re": value.real, "im": value.imag, "g": list(key)}
                       for key, value in sorted(coeffs.items())]
        return {"group": self.group.to_json(), "coeffs": entries}

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupAlgebraElement":
        """Load :meth:`to_json` output.  Entries whose keys name one group element
        add up, as in the constructor; abelian keys are decoded as one array.  A
        document of another shape is refused, naming the field at fault."""
        if not isinstance(data, dict):
            raise ValueError(f"an element must be a JSON object, got {type(data).__name__}")
        group, entries = data.get("group"), data.get("coeffs")
        if not isinstance(group, dict):
            raise ValueError(f"the element's group must be a JSON object, got {group!r}")
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError(f"the element's coeffs must be a list of JSON objects, "
                             f"got {entries!r}")
        group = GroupDescriptor.from_json(group)
        if group.is_free_kind:
            keys = [canonical_key(group, ReducedWord.from_json(entry["word"]))
                    for entry in entries]
        else:
            keys = _abelian_keys(group, [entry["g"] for entry in entries])
        return cls(group, _summed(zip(keys, _json_values(entries))), _canonical=True)


def _summed(terms: Iterable[tuple], start: Mapping = ()) -> dict:
    """The coefficient map of ``start`` with the (key, value) ``terms`` added key by key,
    in order (a new key's value is added to 0, so a -0.0 part reads +0.0), less every
    sum of modulus at most PRUNE_TOL."""
    acc = dict(start)
    for key, value in terms:
        acc[key] = acc.get(key, 0) + value
    return {key: value for key, value in acc.items() if abs(value) > PRUNE_TOL}


def _multiply(f: GroupAlgebraElement,
              symbol: Callable[[object], complex | bool]) -> GroupAlgebraElement:
    """The multiplier ``lambda(g) -> symbol(g) lambda(g)``, dropping products of modulus
    at most PRUNE_TOL.  A bool symbol is a 0/1 filter: it keeps or drops each coefficient
    unchanged, where a product with 1.0 would round a signed zero part to +0.0."""
    coeffs = {}
    for key, value in f.coeffs.items():
        scale = symbol(key)
        if scale is True:
            coeffs[key] = value
        elif abs(scaled := value * scale) > PRUNE_TOL:
            coeffs[key] = scaled
    return GroupAlgebraElement(f.group, coeffs, _canonical=True)


def _distance(a: GroupAlgebraElement, b: GroupAlgebraElement) -> float:
    """max_g |a(g) - b(g)| over the keys of either element, 0 when both are zero."""
    x, y = a.coeffs, b.coeffs
    return max([abs(x.get(key, 0) - y.get(key, 0)) for key in x | y], default=0.0)


def _json_values(entries: list) -> list[complex]:
    """complex(re, im) of each entry (im defaults to 0), refused unless both parts
    are finite JSON numbers: a string, null, NaN or an integer past the float range
    is not."""
    refusal = "each coefficient's re and im must be finite numbers"
    try:
        values = [complex(entry["re"], entry.get("im", 0.0)) for entry in entries]
    except (TypeError, OverflowError):
        raise ValueError(refusal) from None
    if not np.isfinite(values).all():
        raise ValueError(refusal)
    return values


def _abelian_keys(group: GroupDescriptor, raw: list) -> list[tuple[int, ...]]:
    """Canonical keys of raw abelian key lists, as :func:`canonical_key` gives them.

    Coordinates must be JSON integers that fit int64: anything else (1.5, 1e30,
    2**70, a string) is refused rather than truncated.  Finite abelian keys are
    reduced mod the moduli; torus keys must lie in the frequency box.
    """
    width = group.n_components
    if not raw:
        return []
    try:
        keys = np.array(raw)
    except ValueError:  # key lists of unequal lengths
        keys = np.array(())
    if keys.dtype.kind != "i" or keys.shape != (len(raw), width):
        raise ValueError(f"each key must be a list of {width} integers that fit int64")
    if group.kind == FINITE_ABELIAN:
        keys = keys % np.array(group.moduli)
    else:
        outside = np.any((keys < -group.bound) | (keys > group.bound), axis=1)
        if outside.any():
            raise ValueError(f"frequency {tuple(keys[outside][0].tolist())} outside the box "
                             f"[-{group.bound}, {group.bound}]^n")
    return list(map(tuple, keys.tolist()))


def _sort_key(word: ReducedWord):
    return (len(word.blocks), word.blocks)


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


def evaluate_on_dual(f: GroupAlgebraElement) -> DualEvaluation:
    """Evaluate ``f`` at every dual point: values[x] = sum_g fhat(g) chi_g(x).

    The characters are ``chi_g(x) = prod_j exp(2 pi i g_j x_j / m_j)``.
    Implemented with a multidimensional FFT; inverse of
    :func:`fourier_coefficients`.
    """
    group = f.group
    if group.kind != FINITE_ABELIAN:
        raise ValueError(f"dual evaluation needs a finite abelian group, got {group.kind}")
    return DualEvaluation(group, _grid_values(coefficient_tensor(f, group.moduli),
                                              group.moduli).ravel())


def _grid_values(tensors: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """The values at the points x / grid of a stack of coefficient tensors on ``grid``
    (the trailing axes): sum_g c_g exp(2 pi i <g, x / grid>), by one batched ifftn."""
    return np.fft.ifftn(tensors, axes=range(-len(grid), 0)) * math.prod(grid)


def coefficient_tensor(f: GroupAlgebraElement, grid: tuple[int, ...]) -> np.ndarray:
    """The coefficients of an abelian element on a grid; key g sits at index g mod
    grid, so a torus polynomial of bound B needs over 2B points per axis."""
    tensor = np.zeros(grid, dtype=complex)
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
    return GroupAlgebraElement(group, _summed((words.concat(a, b, group.word_modulus), va * vb)
                                              for a, va in f.coeffs.items()
                                              for b, vb in h.coeffs.items()), _canonical=True)


def adjoint(f: GroupAlgebraElement) -> GroupAlgebraElement:
    """The involution ``f*``: coefficient at g^{-1} is the conjugate of f(g)."""
    coeffs = {element_inverse(f.group, key): value.conjugate() for key, value in f.coeffs.items()}
    return GroupAlgebraElement(f.group, coeffs, _canonical=True)


def trace(f: GroupAlgebraElement) -> complex:
    """The canonical trace: the coefficient at the identity."""
    return f.coeffs.get(f.group.identity(), 0j)


def project_mean_zero(f: GroupAlgebraElement, cocycle) -> GroupAlgebraElement:
    """Drop every coefficient at a group element with vanishing length."""
    return _multiply(f, lambda key: cocycle.psi(key) != 0)


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
        if group.is_abelian:
            shape, low = key_box(group)
            out.append(tuple(int(rng.integers(low, low + m)) for m in shape))
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
