"""Length functions, Gromov forms, and explicit cocycle orthonormal bases.

Each built-in family packages a conditionally negative length ``psi`` together
with an orthonormal basis of the associated cocycle Hilbert space, split into
coordinate components ``H = H_1 + ... + H_n``.  Pairings ``<beta(g), u>`` are
exact integers for the integer families; the Gromov form is available both
from its defining formula ``(psi(g) + psi(h) - psi(g^{-1}h)) / 2`` and from a
per-family closed form, so the two can be cross-checked exactly.

A family is one :class:`CocycleFamily` record in :data:`COCYCLE_FAMILIES`:
the group it lives on, how the CLI builds that group, its length and closed
Gromov form and, where it has a basis, the tag of its basis vectors with
their pairing, slices and delta expansions.  :class:`LengthCocycle` reads
its record; no method branches on the family name.

Families
--------
``euclidean``          squared Euclidean length on Z^n (torus polynomials)
``torus_word``         word length |g_1| + ... + |g_n| on Z^n
``cyclic_word``        word length on Z_{2m}^n (hypercube when 2m = 2)
``odd_cyclic_word``    word length on Z_{2m+1}^n (Gromov form only, no basis)
``free_word``          word length on the free group F_n
``free_product_word``  word length on Z_{2m} * ... * Z_{2m}
``weighted_cube``      weighted two-point masses on the hypercube dual
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import words
from .groups import (FINITE_ABELIAN, FREE_GROUP, FREE_PRODUCT, TORUS,
                     GroupDescriptor, canonical_key, element_inverse, element_product)
from .words import ReducedWord

#: kernel eigenvalues are accepted down to this floor (symmetric eigensolvers
#: on the small matrices used here are accurate to ~1e-13)
PSD_EIG_TOL = -1e-10

#: basis-vector tag -> (id prefix, the fields its id carries)
_BASIS_TAGS = {
    "euclidean": ("Euclidean", ("j",)),
    "zword": ("ZWord", ("j", "ell")),
    "z2m": ("Z2mWord", ("j", "ell")),
    "free": ("FreeWord", ("word",)),
    "free_prod": ("FreeProdWord", ("word",)),
    "wcube": ("WeightedCube", ("j",)),
}
_TAG_OF_PREFIX = {prefix.lower(): tag for tag, (prefix, _) in _BASIS_TAGS.items()}


@dataclass(frozen=True)
class BasisVector:
    """Identifier of one cocycle ONB vector.

    ``family`` is one of ``euclidean`` (coordinate direction), ``zword``
    (edge vector u_j(l), l a nonzero integer), ``z2m`` (edge vector u_j(l),
    l in [1, m]), ``free`` / ``free_prod`` (word-indexed u_w), or ``wcube``
    (weighted hypercube direction).
    """

    family: str
    j: int = 0
    ell: int = 0
    word: ReducedWord | None = None

    def __post_init__(self) -> None:
        if self.family not in _BASIS_TAGS:
            raise ValueError(f"unknown basis vector tag {self.family!r}; "
                             f"valid: {tuple(_BASIS_TAGS)}")
        fields = _BASIS_TAGS[self.family][1]
        given = {"j": self.j != 0, "ell": self.ell != 0, "word": self.word is not None}
        well_typed = all(isinstance(self.word, ReducedWord) if name == "word"
                         else isinstance(getattr(self, name), (int, np.integer))
                         for name in fields)
        if not well_typed or any(given[name] for name in given if name not in fields):
            raise ValueError(f"a {self.family} basis vector takes exactly the fields {fields}; "
                             f"got j={self.j!r}, ell={self.ell!r}, word={self.word!r}")

    @property
    def component(self) -> int:
        """The coordinate slice in [1, n] this vector belongs to."""
        if self.word is not None:
            return self.word.first_generator
        return self.j

    def to_id(self) -> str:
        prefix, fields = _BASIS_TAGS[self.family]
        if fields == ("word",):
            return f"{prefix}:" + ";".join(f"{i},{l}" for i, l in self.word.blocks)
        return ":".join([prefix, *(str(getattr(self, name)) for name in fields)])

    @classmethod
    def from_id(cls, text: str) -> "BasisVector":
        prefix, _, body = text.partition(":")
        tag = _TAG_OF_PREFIX.get(prefix.lower())
        fields = _BASIS_TAGS[tag][1] if tag else ()
        try:
            if fields == ("word",):
                pairs = [[int(x) for x in pair.split(",")] for pair in body.split(";")]
                values = [ReducedWord(tuple((i, l) for i, l in pairs))]
            else:
                values = [int(x) for x in body.split(":")]
        except ValueError:
            values = []
        if not fields or len(values) != len(fields):
            raise ValueError(f"cannot parse basis vector id {text!r}")
        return cls(tag, **dict(zip(fields, values)))


@dataclass(frozen=True)
class CocycleFamily:
    """One built-in family; its functions take the cocycle first.

    ``misfit`` is the error for a group ``fits`` refuses; ``cli_group(n,
    modulus, bound)`` builds the CLI's group, and ``cli_default`` lets the CLI
    pick the family for a group it fits.  Families with a basis name the
    ``tag`` of its vectors; ``in_basis`` is the family's own condition on one.
    """

    fits: Callable[[GroupDescriptor], bool]
    misfit: str
    cli_group: Callable[[int, int, int], GroupDescriptor]
    psi: Callable
    gromov: Callable
    tag: str | None = None
    pairing: Callable | None = None
    basis_slice: Callable | None = None
    delta_expansion: Callable | None = None
    in_basis: Callable = lambda c, u: True
    half_modulus: Callable[[GroupDescriptor], int] | None = None
    takes_weights: bool = False
    gap: Callable = lambda c: 1
    cli_default: bool = True


def cocycle_family(name: str) -> CocycleFamily:
    """The record of a built-in family."""
    if name not in COCYCLE_FAMILIES:
        raise ValueError(f"unknown cocycle family {name!r}; valid: {FAMILIES}")
    return COCYCLE_FAMILIES[name]


class LengthCocycle:
    """A length function with its Gromov form and component-split ONB.

    Immutable; all methods are pure.  ``weights`` is only set for the
    weighted hypercube family.
    """

    def __init__(self, family: str, group: GroupDescriptor,
                 weights: tuple[float, ...] | None = None):
        self._spec = cocycle_family(family)
        self.family = family
        self.group = group
        self.weights = weights
        self._validate()

    def _validate(self) -> None:
        if not self._spec.fits(self.group):
            raise ValueError(self._spec.misfit)
        if not self._spec.takes_weights:
            if self.weights is not None:
                raise ValueError(f"{self.family} takes no weights")
        elif self.weights is None or len(self.weights) != len(self.group.moduli):
            raise ValueError(f"{self.family} needs one weight per coordinate")
        elif not all(0 < a < math.inf for a in self.weights):     # NaN fails both
            raise ValueError(f"weights must be positive and finite, got {self.weights}")

    # -- length -----------------------------------------------------------

    @property
    def half_modulus(self) -> int:
        """m for the Z_{2m} families."""
        if self._spec.half_modulus is None:
            raise ValueError(f"{self.family} has no half modulus")
        return self._spec.half_modulus(self.group)

    def psi(self, g):
        """The length of a group element (exact integer where integral)."""
        return self._spec.psi(self, g)

    @property
    def gap(self):
        """Exact group-wide spectral gap min{psi(g) : psi(g) != 0}."""
        return self._spec.gap(self)

    # -- basis ------------------------------------------------------------

    @property
    def has_basis(self) -> bool:
        return self._spec.tag is not None

    def _require_basis(self) -> None:
        if not self.has_basis:
            raise ValueError(f"{self.family} exposes no orthonormal basis")

    def _match(self, u: BasisVector) -> None:
        if u.family != self._spec.tag:
            self._require_basis()
            raise ValueError(f"basis family mismatch: {u.family} vector, {self.family} cocycle")

    def require_basis_vector(self, u: BasisVector) -> None:
        """Refuse a vector outside this cocycle's basis: another family's tag,
        a component outside [1, n], or a coordinate the family's basis lacks."""
        self._match(u)
        if not (self._spec.in_basis(self, u) and 1 <= u.component <= self.group.n_components):
            raise ValueError(f"{u.to_id()} is not in the basis of the {self.family} "
                             f"cocycle on {self.group.to_json()}")

    def pairing(self, g, u: BasisVector):
        """The inner product <beta(g), u> (the derivative symbol over 2*pi*i)."""
        self._match(u)
        return self._spec.pairing(self, g, u)

    def basis_slice(self, j: int, support: Iterable) -> list[BasisVector]:
        """Basis vectors of the j-th component with a nonzero pairing against
        some element of ``support`` (finite by the indicator structure)."""
        self._require_basis()
        return self._spec.basis_slice(self, j, list(support))

    def basis_for_support(self, support: Iterable) -> list[BasisVector]:
        support = list(support)
        out = []
        for j in range(1, self.group.n_components + 1):
            out.extend(self.basis_slice(j, support))
        return out

    def delta_expansion(self, u: BasisVector) -> list[tuple[object, float]]:
        """Write ``u`` as a combination of deltas in the group algebra.

        Enables Gram computations directly from the Gromov form.
        """
        self.require_basis_vector(u)
        return self._spec.delta_expansion(self, u)


def build_cocycle(family: str, group: GroupDescriptor,
                  weights: Sequence[float] | None = None) -> LengthCocycle:
    """Assemble a built-in cocycle; see the module docstring for families."""
    w = tuple(float(a) for a in weights) if weights is not None else None
    return LengthCocycle(family, group, weights=w)


def weighted_hypercube(alpha: Sequence[float]) -> LengthCocycle:
    """The weighted hypercube cocycle with psi(A) = 4 * sum_{j in A} alpha_j."""
    alpha = list(alpha)
    if not alpha:
        raise ValueError("need at least one weight")
    return build_cocycle("weighted_cube", GroupDescriptor.hypercube(len(alpha)), alpha)


# -- Gromov forms ----------------------------------------------------------


def _halve(value):
    """Exact halving: ints stay ints when even, otherwise Fractions."""
    if isinstance(value, int):
        return value // 2 if value % 2 == 0 else Fraction(value, 2)
    return value / 2


def _defining_table(cocycle: LengthCocycle, row_keys: Sequence, col_keys: Sequence) -> list[list]:
    """The defining form (psi(g) + psi(h) - psi(g^{-1} h)) / 2 at every ordered
    pair (g, h) of ``row_keys`` x ``col_keys``, exactly.

    Each key is canonicalised once, and each distinct canonical key's length
    and (for rows) inverse computed once; only psi(g^{-1} h) is per pair.
    No symmetry psi(g^{-1}) = psi(g) is assumed.
    """
    group = cocycle.group
    rows = [canonical_key(group, g) for g in row_keys]
    cols = [canonical_key(group, h) for h in col_keys]
    psi = {key: cocycle.psi(key) for key in dict.fromkeys(rows + cols)}
    inverses = {g: element_inverse(group, g) for g in dict.fromkeys(rows)}
    return [[_halve(psi[g] + psi[h] - cocycle.psi(element_product(group, inverses[g], h)))
             for h in cols] for g in rows]


def gromov_form_defining(cocycle: LengthCocycle, g, h):
    """(psi(g) + psi(h) - psi(g^{-1} h)) / 2, computed exactly."""
    return _defining_table(cocycle, [g], [h])[0][0]


def _cyclic_closed(a: int, b: int, q: int):
    """Closed-form Gromov value of two nonzero residues of Z_q.

    For even q = 2m this is min{l, 2m - l', max{0, m - l' + l}} with
    l <= l'; for odd q = 2m + 1 the inner max shifts by one half.
    """
    if a == 0 or b == 0:
        return 0
    lo, hi = min(a, b), max(a, b)
    if q % 2 == 0:
        m = q // 2
        return min(lo, q - hi, max(0, m - hi + lo))
    m = (q - 1) // 2
    return min(lo, q - hi, max(0, Fraction(2 * (m - hi + lo) + 1, 2)))


def gromov_form(cocycle: LengthCocycle, g, h):
    """The Gromov form <delta_g, delta_h> of a built-in length function, by the
    per-family closed form; it agrees exactly with :func:`gromov_form_defining`."""
    group = cocycle.group
    return cocycle._spec.gromov(cocycle, canonical_key(group, g), canonical_key(group, h))


def _bilinear_sum(terms_a, terms_b, table):
    """sum of coeff_a * coeff_b * table[i][j] over (i, coeff_a) in ``terms_a`` and
    (j, coeff_b) in ``terms_b``, in that order."""
    return sum(coeff_a * coeff_b * table[i][j] for i, coeff_a in terms_a for j, coeff_b in terms_b)


def gromov_bilinear(cocycle: LengthCocycle, expansion_a, expansion_b):
    """Bilinear extension of the defining Gromov form to delta combinations.

    ``expansion_a`` and ``expansion_b`` are lists of (key, coefficient).  The
    defining form is tabulated once over their |a| x |b| key pairs, and the
    terms are summed a-major, each as coeff_a * coeff_b * form.
    """
    expansion_a, expansion_b = list(expansion_a), list(expansion_b)
    table = _defining_table(cocycle, [key for key, _ in expansion_a],
                            [key for key, _ in expansion_b])
    return _bilinear_sum([(i, coeff) for i, (_, coeff) in enumerate(expansion_a)],
                         [(j, coeff) for j, (_, coeff) in enumerate(expansion_b)], table)


def gram_matrix(cocycle: LengthCocycle, basis: Sequence[BasisVector]):
    """Gram matrix of basis vectors via their delta expansions (exact).

    The defining form is tabulated once over the K distinct keys of all the
    expansions (K^2 group products; K is about the basis size, since each
    vector's expansion shares keys with its neighbours').  Each entry then
    sums its terms in :func:`gromov_bilinear`'s order, so every entry is
    ``gromov_bilinear`` of the two expansions, value and type alike.
    """
    expansions = [cocycle.delta_expansion(u) for u in basis]
    index: dict = {}
    for expansion in expansions:
        for key, _ in expansion:
            index.setdefault(key, len(index))
    table = _defining_table(cocycle, list(index), list(index))
    terms = [[(index[key], coeff) for key, coeff in expansion] for expansion in expansions]
    return [[_bilinear_sum(terms_a, terms_b, table) for terms_b in terms] for terms_a in terms]


def completeness_defect(cocycle: LengthCocycle, g):
    """sum_u <beta(g), u>^2 - psi(g); zero when the ONB is complete at g."""
    basis = cocycle.basis_for_support([g])
    total = sum(cocycle.pairing(g, u) ** 2 for u in basis)
    return total - cocycle.psi(g)


# -- the families ----------------------------------------------------------


def _equal_moduli(parity: int) -> Callable[[GroupDescriptor], bool]:
    """Whether a group is Z_q^n with q of the given parity."""
    return lambda group: (group.kind == FINITE_ABELIAN and len(set(group.moduli)) == 1
                          and group.moduli[0] % 2 == parity)


def _axis_deltas(c: LengthCocycle, u: BasisVector, *terms) -> list[tuple[object, float]]:
    """(key, coefficient) for each (x, coefficient), the key holding x at coordinate u.j."""
    n = c.group.n_components
    return [(tuple(x if i == u.j - 1 else 0 for i in range(n)), coeff) for x, coeff in terms]


def _cyclic_psi(c: LengthCocycle, g) -> int:
    q = c.group.moduli[0]
    return sum(min(x % q, q - x % q) for x in g)


def _weighted_psi(c: LengthCocycle, g) -> float:
    # the defining L2(Gamma, mu) expression over the point masses mu = sum_i
    # alpha_i delta_{w_i}, with w_i the sign vector flipped at coordinate i
    total = 0.0
    for i, alpha in enumerate(c.weights):
        character_value = -1 if g[i] else 1
        total += alpha * (1 - character_value) ** 2
    return total


def _cyclic_gromov(c: LengthCocycle, g, h):
    total = sum(_cyclic_closed(x, y, c.group.moduli[0]) for x, y in zip(g, h))
    return int(total) if total == int(total) else total


def _free_product_gromov(c: LengthCocycle, g: ReducedWord, h: ReducedWord) -> int:
    q = c.group.modulus
    acc = 0
    for (gen1, exp1), (gen2, exp2) in zip(g.blocks, h.blocks):
        if (gen1, exp1) == (gen2, exp2):
            acc += min(exp1, q - exp1)
            continue
        if gen1 == gen2:
            acc += _cyclic_closed(exp1, exp2, q)
        break
    return acc


def _zword_slice(c: LengthCocycle, j: int, support: list) -> list[BasisVector]:
    pos = max((g[j - 1] for g in support if g[j - 1] > 0), default=0)
    neg = min((g[j - 1] for g in support if g[j - 1] < 0), default=0)
    ells = list(range(1, pos + 1)) + list(range(neg, 0))
    return [BasisVector("zword", j=j, ell=ell) for ell in ells]


def _free_slice(c: LengthCocycle, j: int, support: list) -> list[BasisVector]:
    seen: dict[ReducedWord, None] = {}
    for g in support:
        for w in words.chain(g):
            if w.first_generator == j:
                seen.setdefault(w)
    return [BasisVector("free", word=w) for w in seen]


def _free_product_slice(c: LengthCocycle, j: int, support: list) -> list[BasisVector]:
    m = c.half_modulus
    seen = {}
    for g in support:
        if g.is_identity or g.first_generator != j:
            continue
        for r in range(1, g.num_blocks + 1):
            gen_r, exp_r = g.blocks[r - 1]
            lo, hi = max(1, exp_r - m + 1), min(m, exp_r)
            for ell in range(lo, hi + 1):
                w = ReducedWord(g.blocks[: r - 1] + ((gen_r, ell),))
                seen.setdefault(w)
    return [BasisVector("free_prod", word=w) for w in seen]


def _z2m_pairing(c: LengthCocycle, g, u: BasisVector) -> int:
    q = c.group.moduli[0]
    return 1 if u.ell <= g[u.j - 1] % q < u.ell + q // 2 else 0


def _basis_word(c: LengthCocycle, u: BasisVector) -> bool:
    """A non-identity reduced word on the generators 1..n."""
    w = u.word
    return (not w.is_identity and all(1 <= i <= c.group.rank for i, _ in w.blocks)
            and canonical_key(c.group, w) == w)


#: entries shared by the families of one group kind
_TORUS = dict(fits=lambda group: group.kind == TORUS,
              cli_group=lambda n, modulus, bound: GroupDescriptor.torus(n, bound))
_CYCLIC = dict(psi=_cyclic_psi, gromov=_cyclic_gromov,
               cli_group=lambda n, modulus, bound: GroupDescriptor.finite_abelian([modulus] * n))
_WORDS = dict(psi=lambda c, g: words.word_length(g, c.group.word_modulus),
              delta_expansion=lambda c, u: [(u.word, 1),
                                            (words.predecessor(u.word, c.group.word_modulus), -1)])

#: every built-in family by name; entries reach public functions such as
#: ``words.word_length`` through their module at call time, so module
#: wrappers see those calls
COCYCLE_FAMILIES: dict[str, CocycleFamily] = {
    "euclidean": CocycleFamily(
        **_TORUS, misfit="euclidean cocycle needs a torus group", cli_default=False,
        psi=lambda c, g: sum(x * x for x in g),
        gromov=lambda c, g, h: sum(x * y for x, y in zip(g, h)),
        tag="euclidean", pairing=lambda c, g, u: g[u.j - 1],
        basis_slice=lambda c, j, support: [BasisVector("euclidean", j=j)],
        delta_expansion=lambda c, u: _axis_deltas(c, u, (1, 1))),
    "torus_word": CocycleFamily(
        **_TORUS, misfit="torus_word cocycle needs a torus group",
        psi=lambda c, g: sum(abs(x) for x in g),
        gromov=lambda c, g, h: sum(min(abs(x), abs(y)) for x, y in zip(g, h) if x * y > 0),
        tag="zword", basis_slice=_zword_slice, in_basis=lambda c, u: u.ell != 0,
        pairing=lambda c, g, u: (1 if g[u.j - 1] * u.ell > 0 and abs(g[u.j - 1]) >= abs(u.ell)
                                 else 0),
        delta_expansion=lambda c, u: _axis_deltas(
            c, u, (u.ell, 1), (u.ell - (1 if u.ell > 0 else -1), -1))),
    "cyclic_word": CocycleFamily(
        **_CYCLIC, fits=_equal_moduli(0), misfit="cyclic_word needs equal even moduli",
        half_modulus=lambda group: group.moduli[0] // 2,
        tag="z2m", pairing=_z2m_pairing, in_basis=lambda c, u: 1 <= u.ell <= c.half_modulus,
        basis_slice=lambda c, j, support: [BasisVector("z2m", j=j, ell=ell)
                                           for ell in range(1, c.half_modulus + 1)],
        delta_expansion=lambda c, u: _axis_deltas(
            c, u, (u.ell % c.group.moduli[0], 1), ((u.ell - 1) % c.group.moduli[0], -1))),
    "odd_cyclic_word": CocycleFamily(
        **_CYCLIC, fits=_equal_moduli(1), misfit="odd_cyclic_word needs equal odd moduli >= 3"),
    "free_word": CocycleFamily(
        **_WORDS, fits=lambda group: group.kind == FREE_GROUP,
        misfit="free_word needs a free group",
        cli_group=lambda n, modulus, bound: GroupDescriptor.free_group(n),
        gromov=lambda c, g, h: words.word_length(words.meet(g, h)),
        tag="free", basis_slice=_free_slice, in_basis=_basis_word,
        pairing=lambda c, g, u: 1 if words.leq_free(u.word, g) else 0),
    "free_product_word": CocycleFamily(
        **_WORDS, fits=lambda group: group.kind == FREE_PRODUCT,
        misfit="free_product_word needs a free product group",
        cli_group=lambda n, modulus, bound: GroupDescriptor.free_product(n, modulus),
        half_modulus=lambda group: group.modulus // 2, gromov=_free_product_gromov,
        tag="free_prod", basis_slice=_free_product_slice,
        in_basis=lambda c, u: _basis_word(c, u) and u.word.blocks[-1][1] <= c.half_modulus,
        pairing=lambda c, g, u: 1 if words.derivative_set_member(u.word, g,
                                                                   c.half_modulus) else 0),
    "weighted_cube": CocycleFamily(
        fits=lambda group: group.is_hypercube,
        misfit="weighted_cube needs a hypercube group", takes_weights=True, cli_default=False,
        gap=lambda c: 4 * min(c.weights),
        cli_group=lambda n, modulus, bound: GroupDescriptor.hypercube(n), psi=_weighted_psi,
        gromov=lambda c, g, h: 4 * sum(a for bit_g, bit_h, a in zip(g, h, c.weights)
                                       if bit_g and bit_h),
        tag="wcube", basis_slice=lambda c, j, support: [BasisVector("wcube", j=j)],
        pairing=lambda c, g, u: 2 * math.sqrt(c.weights[u.j - 1]) if g[u.j - 1] else 0.0,
        delta_expansion=lambda c, u: _axis_deltas(
            c, u, (1, 1 / (2 * math.sqrt(c.weights[u.j - 1]))))),
}

FAMILIES = tuple(COCYCLE_FAMILIES)


# -- conditional negativity -------------------------------------------------


def conditional_negativity_check(psi, sample: Sequence, t_grid: Sequence[float],
                                 group: GroupDescriptor | None = None,
                                 seed: int = 0) -> dict:
    """Certify conditional negativity of a length function on a sample.

    For each ``t`` the kernel ``K[a, b] = exp(-t psi(a^{-1} b))`` must be
    positive semidefinite (Schoenberg); we report its minimum eigenvalue and
    PASS iff all stay above ``-1e-10``.  The matrix ``psi(a^{-1} b)`` takes
    one inverse per row ``a``.  The defining inequality is also checked
    directly, as ``v @ psi_matrix @ v`` one row at a time, on the rows of one
    seeded ``(200, size)`` standard normal draw, each centred to mean zero.

    ``psi`` may be a :class:`LengthCocycle` or a callable (then ``group`` is
    required).
    """
    if isinstance(psi, LengthCocycle):
        group = psi.group
        psi_fn: Callable = psi.psi
    else:
        if group is None:
            raise ValueError("a raw psi callable needs an explicit group")
        psi_fn = psi
    sample = list(sample)
    if not sample:
        raise ValueError("sample must be nonempty")
    identity = group.identity()
    if identity not in sample:
        sample = [identity] + sample
    size = len(sample)
    inverses = [element_inverse(group, g) for g in sample]
    psi_matrix = np.array([[float(psi_fn(element_product(group, g_inv, h))) for h in sample]
                           for g_inv in inverses])
    min_eigs = {}
    for t in t_grid:
        if not 0 < t < math.inf:                       # NaN fails both
            raise ValueError(f"t grid must be positive and finite, got t = {t}")
        kernel = np.exp(-t * psi_matrix)
        min_eigs[float(t)] = float(np.linalg.eigvalsh(kernel).min())
    vectors = np.random.default_rng(seed).standard_normal((200, size))
    vectors -= vectors.mean(axis=1, keepdims=True)
    direct_max = -math.inf
    for vec in vectors:
        direct_max = max(direct_max, float(vec @ psi_matrix @ vec))
    passed = all(v >= PSD_EIG_TOL for v in min_eigs.values()) and direct_max <= 1e-10
    return {"kernel_min_eigenvalues": min_eigs, "direct_form_max": direct_max,
            "sample_size": size, "passed": passed}

