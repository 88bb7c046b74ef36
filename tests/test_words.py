"""Reduced-word combinatorics: reduction, orders, predecessors, meets."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpchaos import words
from xpchaos.words import ReducedWord


def w(*blocks):
    return ReducedWord(tuple(blocks))


class TestReduce:
    def test_full_cancellation(self):
        assert words.reduce([(1, 2), (1, -2)], 2).is_identity

    def test_zero_block_dropped_then_merged(self):
        assert words.reduce([(1, 1), (2, 0), (1, 1)], 2) == w((1, 2))

    def test_modular_merge(self):
        assert words.reduce([(1, 3), (1, 3)], 2, modulus=4) == w((1, 2))

    def test_cascading_cancellation(self):
        raw = [(2, 1), (1, 1), (1, 3), (2, 1)]
        assert words.reduce(raw, 2, modulus=4) == w((2, 2))

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError):
            words.reduce([(3, 1)], 2)

    def test_idempotent(self):
        for word in words.enumerate_words(2, 3):
            assert words.reduce(word.blocks, 2) == word
        for word in words.enumerate_words(2, 3, modulus=4):
            assert words.reduce(word.blocks, 2, modulus=4) == word


@settings(max_examples=100, deadline=None)
@given(modulus=st.sampled_from([None, 2, 4, 6]),
       raw=st.lists(st.tuples(st.integers(1, 3), st.integers(-7, 7)), max_size=12))
def test_reduce_is_idempotent(modulus, raw):
    """A reduced word's blocks reduce to the same word, in the free group and in
    the free product of Z_modulus."""
    word = words.reduce(raw, 3, modulus)
    assert words.reduce(word.blocks, 3, modulus) == word


class TestWordLength:
    def test_identity(self):
        assert words.word_length(ReducedWord()) == 0

    def test_free_group(self):
        assert words.word_length(w((1, 2), (2, -1))) == 3

    def test_free_product_wraps(self):
        assert words.word_length(w((1, 3)), modulus=4) == 1

    def test_symmetric_under_inverse(self):
        for word in words.enumerate_words(2, 4):
            assert words.word_length(words.inverse(word)) == words.word_length(word)
        for word in words.enumerate_words(2, 3, modulus=4):
            inv = words.inverse(word, 4)
            assert words.word_length(inv, 4) == words.word_length(word, 4)

    def test_zero_only_at_identity(self):
        for word in words.enumerate_words(2, 3):
            assert (words.word_length(word) == 0) == word.is_identity


class TestInitialChainOrder:
    def test_same_generator_growing_exponent(self):
        assert words.leq_free(w((1, 2)), w((1, 3)))

    def test_different_first_blocks(self):
        assert not words.leq_free(w((1, 1)), w((2, 1), (1, 1)))

    def test_opposite_signs(self):
        assert not words.leq_free(w((1, -1)), w((1, 1)))

    def test_empty_word_precedes_everything(self):
        for word in words.enumerate_words(2, 3):
            assert words.leq_free(ReducedWord(), word)

    def test_partial_order_exhaustive(self):
        """Reflexive, antisymmetric, transitive, and monotone in length."""
        all_words = list(words.enumerate_words(3, 4))
        predecessors = {word: [v for v in all_words if words.leq_free(v, word)]
                        for word in all_words}
        for word, below in predecessors.items():
            assert word in below  # reflexive
            length = words.word_length(word)
            for v in below:
                assert words.word_length(v) <= length
                if words.leq_free(word, v):
                    assert v == word  # antisymmetric
                for u in predecessors[v]:
                    assert u in below or words.leq_free(u, word)  # transitive


class TestPredecessor:
    def test_single_letter(self):
        assert words.predecessor(w((1, 1))).is_identity

    def test_signed_decrement(self):
        assert words.predecessor(w((1, 2), (2, -3))) == w((1, 2), (2, -2))

    def test_free_product_block_drop(self):
        assert words.predecessor(w((2, 1), (1, 1)), modulus=4) == w((2, 1))

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            words.predecessor(ReducedWord())

    def test_chain_reaches_identity_in_length_steps(self):
        for word in words.enumerate_words(3, 4):
            steps = 0
            current = word
            while not current.is_identity:
                current = words.predecessor(current)
                steps += 1
            assert steps == words.word_length(word)


class TestMeet:
    def test_partial_block_overlap(self):
        assert words.meet(w((1, 2), (2, 1)), w((1, 3))) == w((1, 2))

    def test_different_first_letters(self):
        assert words.meet(w((1, 1)), w((2, 1))).is_identity

    def test_opposite_second_blocks(self):
        assert words.meet(w((1, 1), (2, 1)), w((1, 1), (2, -1))) == w((1, 1))

    def test_meet_with_self_and_identity(self):
        for word in words.enumerate_words(2, 3):
            assert words.meet(word, word) == word
            assert words.meet(word, ReducedWord()).is_identity

    def test_meet_is_max_lower_bound(self):
        all_words = list(words.enumerate_words(2, 3))
        for w1, w2 in itertools.product(all_words, repeat=2):
            m = words.meet(w1, w2)
            assert words.leq_free(m, w1) and words.leq_free(m, w2)

    @pytest.mark.parametrize("n,max_len", [(2, 4), (3, 4)])
    def test_meet_length_identity_exhaustive(self, n, max_len):
        """|meet| = (|w1| + |w2| - |w1^{-1} w2|) / 2 on every pair."""
        all_words = list(words.enumerate_words(n, max_len))
        for w1 in all_words:
            inv1 = words.inverse(w1)
            len1 = words.word_length(w1)
            for w2 in all_words:
                product_len = words.word_length(words.concat(inv1, w2))
                expected = (len1 + words.word_length(w2) - product_len) // 2
                assert words.word_length(words.meet(w1, w2)) == expected


#: raw block lists on three generators
_BLOCKS = st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 4)), max_size=8)


@settings(max_examples=100, deadline=None)
@given(prefix=_BLOCKS, tails=st.tuples(_BLOCKS, _BLOCKS))
def test_meet_length_identity_on_long_words(prefix, tails):
    """|meet(a, b)| = (|a| + |b| - |a^-1 b|) / 2 on free-group words that share a
    prefix, longer than the exhaustive test reaches."""
    a, b = (words.reduce(prefix + tail, 3) for tail in tails)
    product = words.concat(words.inverse(a), b)
    expected = words.word_length(a) + words.word_length(b) - words.word_length(product)
    assert 2 * words.word_length(words.meet(a, b)) == expected


class TestDerivativeSetMembership:
    def test_exponent_window(self):
        assert words.derivative_set_member(w((1, 1)), w((1, 2)), 2)
        assert not words.derivative_set_member(w((1, 1)), w((1, 3)), 2)

    def test_generator_mismatch(self):
        assert not words.derivative_set_member(w((1, 1)), w((2, 1), (1, 1)), 2)

    def test_invalid_last_exponent(self):
        with pytest.raises(ValueError):
            words.derivative_set_member(w((1, 3)), w((1, 3)), 2)
        with pytest.raises(ValueError):
            words.derivative_set_member(ReducedWord(), w((1, 1)), 2)

    def test_membership_conditions_exhaustive(self):
        m = 2
        candidates = list(words.enumerate_words(2, 3, modulus=2 * m))
        bases = [word for word in candidates
                 if not word.is_identity and 1 <= word.blocks[-1][1] <= m]
        for base in bases:
            r = base.num_blocks
            for other in candidates:
                member = words.derivative_set_member(base, other, m)
                expected = (
                    r <= other.num_blocks
                    and all(base.blocks[i][0] == other.blocks[i][0] for i in range(r))
                    and base.blocks[: r - 1] == other.blocks[: r - 1]
                    and base.blocks[-1][1] <= other.blocks[r - 1][1] <= base.blocks[-1][1] + m - 1
                )
                assert member == expected


class TestSerialization:
    def test_json_round_trip(self):
        word = w((1, 2), (2, -1))
        assert ReducedWord.from_json(word.to_json()) == word
        assert word.to_json() == [[1, 2], [2, -1]]

    @pytest.mark.parametrize("data", [[[1, 1.5]], [[1.0, 1]], [["1", 1]], [[1, True]],
                                      [[1, None]], [1, 2], [[1, 2, 3]], {"1": 2}],
                             ids=["fraction", "float-generator", "string", "bool", "null",
                                  "bare-numbers", "triple", "dict"])
    def test_non_integral_entries_refused(self, data):
        with pytest.raises(ValueError):
            ReducedWord.from_json(data)
