"""Reduced-word combinatorics for free groups and free products of cyclic groups.

Words are alternating block sequences ``g_{i_1}^{l_1} ... g_{i_s}^{l_s}`` with
adjacent blocks on distinct generators.  Two conventions coexist:

* free group (``modulus=None``): exponents are nonzero integers;
* free product of copies of ``Z_{2m}`` (``modulus=2m``): exponents live in
  ``{1, ..., 2m-1}``.

Generator indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class ReducedWord:
    """An alternating-block word; ``blocks`` is a tuple of (generator, exponent)."""

    blocks: tuple[tuple[int, int], ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.blocks

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def first_generator(self) -> int:
        if not self.blocks:
            raise ValueError("the empty word has no first generator")
        return self.blocks[0][0]

    def to_json(self) -> list[list[int]]:
        return [[i, l] for i, l in self.blocks]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "ReducedWord":
        """Load :meth:`to_json` output: a list of [generator, exponent] pairs of JSON
        integers.  Anything else (a fraction, a string, a bare number) is refused."""
        if not isinstance(data, list) or not all(
                isinstance(block, list) and len(block) == 2 for block in data):
            raise ValueError(f"a word must be a list of [generator, exponent] pairs, got {data!r}")
        return cls(tuple((json_int(i, "a generator"), json_int(l, "an exponent"))
                         for i, l in data))

    def __str__(self) -> str:
        if not self.blocks:
            return "e"
        return ".".join(f"g{i}^{l}" if l != 1 else f"g{i}" for i, l in self.blocks)


EMPTY_WORD = ReducedWord()


def json_int(value, what: str) -> int:
    """A JSON integer, refused rather than truncated when it is anything else
    (1.5, "2", true, null)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _normalize_exponent(exponent: int, modulus: int | None) -> int:
    if modulus is None:
        return exponent
    return exponent % modulus


def _merge(blocks: Sequence[tuple[int, int]], modulus: int | None) -> tuple[tuple[int, int], ...]:
    """Stack-merge adjacent equal-generator blocks until a fixed point."""
    stack: list[tuple[int, int]] = []
    for gen, exp in blocks:
        exp = _normalize_exponent(exp, modulus)
        while exp != 0 and stack and stack[-1][0] == gen:
            exp = _normalize_exponent(stack.pop()[1] + exp, modulus)
        if exp != 0:
            stack.append((gen, exp))
    return tuple(stack)


def reduce(blocks: Sequence[tuple[int, int]], n: int, modulus: int | None = None) -> ReducedWord:
    """Reduce a raw block list to canonical form.

    Merges adjacent blocks on the same generator, drops zero exponents (taken
    mod ``modulus`` in the free-product case) and iterates to a fixed point.
    Generator indices must lie in ``[1, n]``.
    """
    for gen, _ in blocks:
        if not 1 <= gen <= n:
            raise ValueError(f"generator index {gen} out of range [1, {n}]")
    if modulus is not None and (modulus < 2 or modulus % 2):
        raise ValueError(f"modulus must be even and >= 2, got {modulus}")
    return ReducedWord(_merge(blocks, modulus))


def word_length(w: ReducedWord, modulus: int | None = None) -> int:
    """Geodesic word length: sum of |l_k| (free group) or min(l_k, 2m-l_k)."""
    if modulus is None:
        return sum(abs(l) for _, l in w.blocks)
    return sum(min(l, modulus - l) for _, l in w.blocks)


def inverse(w: ReducedWord, modulus: int | None = None) -> ReducedWord:
    """Reverse the blocks and negate exponents (mod 2m for free products)."""
    if modulus is None:
        return ReducedWord(tuple((i, -l) for i, l in reversed(w.blocks)))
    return ReducedWord(tuple((i, modulus - l) for i, l in reversed(w.blocks)))


def concat(w1: ReducedWord, w2: ReducedWord, modulus: int | None = None) -> ReducedWord:
    """Product of two already-reduced words, re-reduced."""
    return ReducedWord(_merge(w1.blocks + w2.blocks, modulus))


def leq_free(w1: ReducedWord, w2: ReducedWord) -> bool:
    """Initial-subchain partial order on free-group words.

    ``w1 <= w2`` iff the blocks of ``w1`` agree with those of ``w2`` except
    possibly in the last block, which must share the generator and exponent
    sign with its counterpart and have no larger magnitude.  The empty word
    precedes everything.
    """
    if w1.is_identity:
        return True
    r, s = w1.num_blocks, w2.num_blocks
    if r > s:
        return False
    if w1.blocks[: r - 1] != w2.blocks[: r - 1]:
        return False
    gen1, exp1 = w1.blocks[r - 1]
    gen2, exp2 = w2.blocks[r - 1]
    return gen1 == gen2 and exp1 * exp2 > 0 and abs(exp1) <= abs(exp2)


def predecessor(w: ReducedWord, modulus: int | None = None) -> ReducedWord:
    """Step the last block one unit toward the identity.

    Free group: the last exponent moves toward 0 by its sign.  Free product:
    the last exponent decreases by 1.  The block is dropped when it hits 0.
    """
    if w.is_identity:
        raise ValueError("the empty word has no predecessor")
    gen, exp = w.blocks[-1]
    if modulus is None:
        exp = exp - (1 if exp > 0 else -1)
    else:
        exp = exp - 1
    if exp == 0:
        return ReducedWord(w.blocks[:-1])
    return ReducedWord(w.blocks[:-1] + ((gen, exp),))


def chain(w: ReducedWord, modulus: int | None = None) -> list[ReducedWord]:
    """All nonempty predecessors of ``w`` including ``w`` itself."""
    out = []
    cur = w
    while not cur.is_identity:
        out.append(cur)
        cur = predecessor(cur, modulus)
    return out


def meet(w1: ReducedWord, w2: ReducedWord) -> ReducedWord:
    """Longest common initial subchain of two free-group words."""
    common: list[tuple[int, int]] = []
    for (gen1, exp1), (gen2, exp2) in zip(w1.blocks, w2.blocks):
        if gen1 == gen2 and exp1 == exp2:
            common.append((gen1, exp1))
            continue
        if gen1 == gen2 and exp1 * exp2 > 0:
            sign = 1 if exp1 > 0 else -1
            common.append((gen1, sign * min(abs(exp1), abs(exp2))))
        break
    return ReducedWord(tuple(common))


def derivative_set_member(w: ReducedWord, w_prime: ReducedWord, m: int) -> bool:
    """Membership test for the index set W(w) in a free product of Z_{2m}.

    ``w`` must be nonempty with last exponent in ``[1, m]``.  ``w_prime``
    belongs to W(w) iff its first ``r`` generators match those of ``w``, its
    first ``r-1`` exponents match, and its ``r``-th exponent lies in
    ``[l_r, l_r + m - 1]``.
    """
    if w.is_identity:
        raise ValueError("w must be a nonempty word")
    last_exp = w.blocks[-1][1]
    if not 1 <= last_exp <= m:
        raise ValueError(f"last exponent of w must lie in [1, {m}], got {last_exp}")
    r, s = w.num_blocks, w_prime.num_blocks
    if r > s:
        return False
    for k in range(r - 1):
        if w.blocks[k] != w_prime.blocks[k]:
            return False
    gen_r, exp_r = w.blocks[r - 1]
    gen_r2, exp_r2 = w_prime.blocks[r - 1]
    return gen_r == gen_r2 and exp_r <= exp_r2 <= exp_r + m - 1


def enumerate_words(
    n: int, max_length: int, modulus: int | None = None
) -> Iterator[ReducedWord]:
    """Yield every reduced word of geodesic length at most ``max_length``.

    Includes the empty word.  Intended for exhaustive small-scale testing.
    """
    if modulus is None:
        exps = [l for l in range(-max_length, max_length + 1) if l != 0]
    else:
        exps = list(range(1, modulus))

    def rec(blocks: tuple[tuple[int, int], ...], length: int) -> Iterator[ReducedWord]:
        yield ReducedWord(blocks)
        last_gen = blocks[-1][0] if blocks else 0
        for gen in range(1, n + 1):
            if gen == last_gen:
                continue
            for exp in exps:
                step = abs(exp) if modulus is None else min(exp, modulus - exp)
                if length + step > max_length:
                    continue
                yield from rec(blocks + ((gen, exp),), length + step)

    yield from rec((), 0)
