"""Word-combinatorics lemmas, exhaustively and property-based."""

from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from subshift_algebra import words
from subshift_algebra.errors import InternalNonzeroViolation, NotCommuting
from subshift_algebra.words import (OMEGA, EpPoint, commuting_root, ep_normalize,
                                    ep_shift, is_minimal_cycle_word, primitive_root)

from conftest import W


def brute_common_root(alpha, beta):
    """Divisor-scan oracle for the common root of commuting words."""
    g = gcd(len(alpha), len(beta))
    c = alpha[:g]
    if c * (len(alpha) // g) == alpha and c * (len(beta) // g) == beta:
        return c, len(alpha) // g, len(beta) // g
    return None


words2 = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple)
words3 = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple)


class TestCommutingRoot:
    def test_examples(self):
        assert commuting_root(W("abab"), W("ab")) == (W("ab"), 2, 1)
        assert commuting_root(W("a"), W("a")) == (W("a"), 1, 1)
        assert commuting_root(W("aa"), W("aaa")) == (W("a"), 2, 3)

    def test_not_commuting(self):
        with pytest.raises(NotCommuting):
            commuting_root(W("ab"), W("ba"))
        with pytest.raises(NotCommuting):
            commuting_root(W("a"), OMEGA)

    def test_exhaustive_two_letters(self):
        """Every commuting pair with lengths <= 6 matches the divisor oracle."""
        pool = [w for n in range(1, 7) for w in product((0, 1), repeat=n)]
        seen = 0
        for alpha in pool:
            for beta in pool:
                if alpha + beta != beta + alpha:
                    continue
                seen += 1
                c, n, m = commuting_root(alpha, beta)
                assert c * n == alpha and c * m == beta
                assert len(c) == gcd(len(alpha), len(beta))
                assert brute_common_root(alpha, beta) == (c, n, m)
        assert seen > 100

    @given(c=words3, n=st.integers(1, 4), m=st.integers(1, 4))
    def test_constructed_pairs_commute(self, c, n, m):
        alpha, beta = c * n, c * m
        root, i, j = commuting_root(alpha, beta)
        assert root * i == alpha and root * j == beta


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(W("ababab")) == (W("ab"), 3)
        assert primitive_root(W("a")) == (W("a"), 1)
        assert primitive_root(W("aba")) == (W("aba"), 1)

    def test_root_is_shortest(self):
        for n in range(1, 9):
            for alpha in product((0, 1), repeat=n):
                c, k = primitive_root(alpha)
                assert c * k == alpha
                for d in range(1, len(alpha)):
                    if len(alpha) % d == 0 and d < len(c):
                        assert alpha[:d] * (len(alpha) // d) != alpha


class TestMinimalCycleWord:
    def test_examples(self):
        assert not is_minimal_cycle_word(W("abab"))
        assert is_minimal_cycle_word(W("ab"))
        assert is_minimal_cycle_word(W("a"))

    def test_agrees_with_primitivity_to_length_8(self):
        for n in range(1, 9):
            for alpha in product((0, 1), repeat=n):
                assert is_minimal_cycle_word(alpha) == (primitive_root(alpha)[1] == 1)


def ep_prefix_oracle(pre, per, n):
    reps = n // len(per) + 2
    return (tuple(pre) + tuple(per) * reps)[:n]


class TestEpPoints:
    def test_normalize_examples(self):
        assert ep_normalize(OMEGA, W("abab")) == EpPoint(OMEGA, W("ab"))
        assert ep_normalize(W("a"), W("a")) == EpPoint(OMEGA, W("a"))
        # (ab, ba) denotes abbabab...; rolling does not apply.
        x = ep_normalize(W("ab"), W("ba"))
        depth = 2 + 4 * 2
        assert x.prefix(depth) == ep_prefix_oracle(W("ab"), W("ba"), depth)

    @given(pre=st.lists(st.integers(0, 1), max_size=4).map(tuple), per=words2)
    def test_normalize_preserves_sequence_and_is_idempotent(self, pre, per):
        x = ep_normalize(pre, per)
        depth = len(pre) + 4 * len(per) + 4
        assert x.prefix(depth) == ep_prefix_oracle(pre, per, depth)
        assert ep_normalize(x.preperiod, x.period) == x

    @given(pre=st.lists(st.integers(0, 1), max_size=3).map(tuple), per=words2)
    def test_canonical_forms_separate_sequences(self, pre, per):
        x = ep_normalize(pre, per)
        y = ep_normalize(pre + per, per[-1:] + per[:-1])
        depth = len(pre) + 6 * len(per) + 6
        same = x.prefix(depth) == y.prefix(depth)
        assert (x == y) == same

    def test_shift_examples(self):
        assert ep_shift(ep_normalize(OMEGA, W("ab"))) == EpPoint(OMEGA, W("ba"))
        assert ep_shift(ep_normalize(W("a"), W("b"))) == EpPoint(OMEGA, W("b"))
        assert ep_shift(ep_normalize(OMEGA, W("a"))) == EpPoint(OMEGA, W("a"))

    @given(pre=st.lists(st.integers(0, 1), max_size=4).map(tuple), per=words2)
    def test_shift_drops_first_letter(self, pre, per):
        x = ep_normalize(pre, per)
        y = ep_shift(x)
        depth = len(pre) + 4 * len(per) + 4
        assert y.prefix(depth) == x.prefix(depth + 1)[1:]

    @given(pre=st.lists(st.integers(0, 1), max_size=4).map(tuple), per=words2)
    def test_shift_eventually_removes_preperiod(self, pre, per):
        x = ep_normalize(pre, per)
        for _ in range(len(x.preperiod) + len(x.period)):
            x = ep_shift(x)
        assert x.preperiod == OMEGA


# -- cross-checks are explicit raises, kept under python -O --------------------------


def test_commuting_root_rechecks_the_root_length(monkeypatch):
    monkeypatch.setattr(words, "gcd", lambda a, b: 1)
    with pytest.raises(InternalNonzeroViolation):
        commuting_root(W("abab"), W("ab"))


def test_minimality_rechecks_primitivity(monkeypatch):
    monkeypatch.setattr(words, "primitive_root", lambda alpha: (alpha, 2))
    with pytest.raises(InternalNonzeroViolation):
        is_minimal_cycle_word(W("ab"))
