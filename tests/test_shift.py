"""Follower-graph construction, legality and enumeration."""

import random
import time
from itertools import product

import pytest

from subshift_algebra.algebra import SubshiftAlgebra
from subshift_algebra.errors import ContractViolation, EmptyShift, ShiftTooLarge, UnknownLetter
from subshift_algebra.parsing import evaluate
from subshift_algebra.reduction import reduce, verify
from subshift_algebra.rings import ZZ
from subshift_algebra.shift import MAX_STATES, MAX_TABLE_CELLS, SftSpec, build_follower_graph
from subshift_algebra.words import OMEGA, EpPoint

from conftest import (DIFFERENTIAL_SHIFTS, W, brute_follower_graph, brute_forbidden_free,
                      brute_forced_point, brute_is_legal, brute_legal_words, l_spec,
                      random_specs)


def _walk(g, w, state=0):
    """The id ``w`` reaches from id ``state``: a plain loop over the table,
    sharing no memo with the graph."""
    for a in w:
        if state < 0:
            return -1
        state = g._delta[state][a]
    return state


def _edges(g):
    """The edges of the graph, read off its states (the m-blocks) and the
    letters that may follow each: ``(state, letter) -> last m letters``."""
    return {(s, a): (s + (a,))[1:] for s in g.legal_words(g.m) for a in g.out_letters[g.reach(s)]}


def test_golden_mean_graph(g_gold):
    assert g_gold.legal_words(g_gold.m) == (W("a"), W("b"))
    assert _edges(g_gold) == {
        (W("a"), 0): W("a"), (W("a"), 1): W("b"), (W("b"), 0): W("a")}


def test_full_shift_graph(g_full):
    assert g_full.legal_words(g_full.m) == (W("a"), W("b"))
    assert len(_edges(g_full)) == 4


def test_y_graph(g_y):
    assert _edges(g_y) == {
        (W("a"), 0): W("a"), (W("a"), 1): W("b"), (W("b"), 1): W("b")}


def test_empty_shift_rejected():
    with pytest.raises(EmptyShift):
        build_follower_graph(SftSpec.make("a", ["a"]))
    with pytest.raises(EmptyShift):
        # Both letters eventually die: nothing may follow a or b.
        build_follower_graph(SftSpec.make("ab", ["aa", "ab", "ba", "bb"]))


def test_forbidden_normalization():
    spec = SftSpec.make("ab", ["bb", "abb", "bb"])
    assert spec.forbidden == frozenset({W("bb")})
    assert spec.memory == 1
    # A letter outside the alphabet is named with its word, as str_to_word does.
    with pytest.raises(UnknownLetter, match="^unknown letter 'c' in word 'ac'$"):
        SftSpec.make("ab", ["bb", "ac"])


def test_memory_floor_is_one():
    assert SftSpec.make("ab", []).memory == 1
    assert SftSpec.make("ab", ["b"]).memory == 1
    assert SftSpec.make("ab", ["bab"]).memory == 2


def test_prefix_legal_examples(g_gold, g_full):
    assert g_gold.is_prefix_legal(W("ab"))
    assert not g_gold.is_prefix_legal(W("bb"))
    assert not g_gold.is_prefix_legal(W("abba"))
    assert g_gold.is_prefix_legal(OMEGA)
    assert g_full.is_prefix_legal(OMEGA)


def test_enumerate_examples(g_gold, g_full, g_y):
    assert g_gold.legal_words(2) == (W("aa"), W("ab"), W("ba"))
    assert g_full.legal_words(1) == (W("a"), W("b"))
    assert g_y.legal_words(2) == (W("aa"), W("ab"), W("bb"))
    assert g_full.legal_words(0) == (OMEGA,)


def test_enumeration_matches_brute_force(all_graphs):
    for name, g in all_graphs.items():
        for n in range(7):
            assert list(g.legal_words(n)) == brute_legal_words(g.spec, n), \
                (name, n)


def test_enumeration_matches_one_step_oracle_on_fixtures(all_graphs):
    # On the fixtures no state is pruned, so a single-block lookahead decides.
    for g in all_graphs.values():
        for n in range(1, 7):
            assert list(g.legal_words(n)) == \
                brute_legal_words(g.spec, n, lookahead=g.m)


def test_deep_pruning_cascade():
    # c is followed only by a, and a is followed by nothing: c dies in the
    # second pruning round, so one-block lookahead would over-approximate.
    g = build_follower_graph(SftSpec.make(
        "abc", ["aa", "ab", "ac", "cb", "cc"]))
    assert g.legal_words(g.m) == ((1,),)
    assert g.is_prefix_legal((1,))          # b survives
    assert not g.is_prefix_legal((2,))      # c is pruned transitively
    assert not g.is_prefix_legal((0,))      # a dies in round one
    assert list(g.legal_words(2)) == brute_legal_words(g.spec, 2)


@pytest.mark.parametrize("name", list(DIFFERENTIAL_SHIFTS))
def test_legality_and_extensions_match_brute_force(name):
    alphabet, forbidden = DIFFERENTIAL_SHIFTS[name]
    g = build_follower_graph(SftSpec.make(alphabet, forbidden))
    top = g.m + 3
    language = {n: brute_legal_words(g.spec, n) for n in range(top + 1)}
    for n in range(top + 1):
        legal = set(language[n])
        for w in product(range(len(alphabet)), repeat=n):
            assert g.is_prefix_legal(w) == (w in legal), (name, w)
            for n2 in range(n, top + 1):
                assert g.extensions(w, n2) == \
                    [e for e in language[n2] if e[:n] == w], (name, w, n2)


def test_graph_matches_its_definition_on_random_shifts():
    rng = random.Random(11)
    for spec in random_specs(300, seed=7):
        states, edges = brute_follower_graph(spec)
        try:
            g = build_follower_graph(spec)
        except EmptyShift:
            assert not states, spec
            continue
        assert (set(g.legal_words(g.m)), _edges(g)) == (states, edges), spec
        top = g.m + 2
        language = {n: brute_legal_words(spec, n) for n in range(top + 1)}
        assert [list(g.legal_words(n)) for n in language] == list(language.values()), spec
        for n in range(g.m + 2):
            for w in product(range(len(spec.alphabet)), repeat=n):
                assert g.is_prefix_legal(w) == (w in language[n]), (spec, w)
                for n2 in range(n, top + 1):
                    exts = [e for e in language[n2] if e[:n] == w]
                    assert g.extensions(w, n2) == exts, (spec, w, n2)
                    assert g.least_extension(w, n2) == (exts[0] if exts else None), \
                        (spec, w, n2)
                if w in language[n]:
                    assert g.unique_extension(w) == brute_forced_point(spec, w), (spec, w)
                else:
                    with pytest.raises(ValueError):
                        g.unique_extension(w)
        _check_tail_memo(g, spec, rng)
        _check_word_and_pair_memos(g, language, rng)


def test_word_and_pair_memos_match_a_plain_walk_on_fixtures(all_graphs):
    rng = random.Random(5)
    for g in all_graphs.values():
        top = g.m + 2
        language = {n: brute_legal_words(g.spec, n) for n in range(top + 1)}
        _check_word_and_pair_memos(g, language, rng)


def _check_word_and_pair_memos(g, language, rng):
    """Every word of at most m+2 letters, legal or not, asked twice, the
    second time as an equal tuple that is another object: ``reach`` from the
    start state agrees with a plain walk and with the brute-force language
    (``language[n]``, the legal words of length n), ``reach`` from every
    other id with a plain walk, ``ids`` and ``out_letters`` with plain walks
    of its prefixes and one-letter extensions, and ``tails(u, v)`` is the
    tail memo of the ids that plain walks of ``u`` and ``v`` reach."""
    words = [w for n in language for w in product(range(g.n_letters), repeat=n)]
    for w in words:
        again = tuple(list(w))
        assert again == w and (again is not w or not w)
        expected = _walk(g, w)
        assert (expected >= 0) == (w in language[len(w)]), (g.spec, w)
        assert g.reach(w) == expected == g.reach(again), (g.spec, w)
        assert g.ids(w) == [_walk(g, w[:n]) for n in range(len(w) + 1)], (g.spec, w)
        assert g.out_letters[expected] == tuple(
            a for a in range(g.n_letters) if _walk(g, w + (a,)) >= 0), (g.spec, w)
        assert g.out_degree[expected] == len(g.out_letters[expected]), (g.spec, w)
        for state in range(-1, g.n_states):
            assert g.reach(w, state) == _walk(g, w, state), (g.spec, w, state)
    for u in words:
        for v in rng.sample(words, min(4, len(words))):
            memo = g._tails[_walk(g, u), _walk(g, v)]
            assert g.tails(u, v) is memo, (g.spec, u, v)
            assert g.tails(tuple(list(u)), tuple(list(v))) is memo, (g.spec, u, v)


def _check_tail_memo(g, spec, rng):
    """For random pairs of prefixes ``a`` and ``b``, legal or not, and
    tails ``q`` of 1..m+2 letters (every one of at most m, and random longer
    ones), ``memo[q]`` is ``False`` iff ``F(a.q) <= F(b.q)`` fails by
    brute force, and otherwise the code of the ids that ``a.q`` and ``b.q``
    reach, empty iff ``a.q`` is not legal: asked cold, then warm.  No memo
    key has more than m letters."""
    letters = range(len(spec.alphabet))
    prefixes = [OMEGA] + [tuple(rng.choice(letters) for _ in range(rng.randint(1, g.m + 2)))
                          for _ in range(5)]
    pairs = [(a, rng.choice(prefixes)) for a in prefixes]
    tails = [q for n in range(1, g.m + 1) for q in product(letters, repeat=n)]
    for n in (g.m + 1, g.m + 2):
        tails += rng.sample(list(product(letters, repeat=n)), min(8, len(letters) ** n))
    blocks, legal, ext = set(brute_legal_words(spec, g.m)), {}, {}

    def is_legal(w):  # a forbidden-free word whose last m letters are legal is legal
        if w not in legal:
            legal[w] = brute_forbidden_free(w, spec.forbidden) and w[-g.m:] in blocks \
                if len(w) >= g.m else brute_is_legal(spec, w)
        return legal[w]

    def extensions(w):  # as _extensions_by_brute_force, sharing the words' oracle calls
        if w not in ext:
            ext[w] = frozenset(r for r in product(letters, repeat=g.m) if is_legal(w + r)) \
                if is_legal(w) else frozenset()
        return ext[w]

    for _ in ("cold", "warm"):
        for a, b in pairs:
            memo = g.tails(a, b)
            assert (memo.i, memo.j) == (_walk(g, a), _walk(g, b)), (spec, a, b)
            for q in tails:
                code = memo[q]
                if extensions(a + q) <= extensions(b + q):
                    assert code == g.follower_code(_walk(g, a + q), _walk(g, b + q)), \
                        (spec, a, b, q)
                    assert bool(code) == bool(extensions(a + q)), (spec, a, b, q)
                else:
                    assert code is False, (spec, a, b, q)
    assert all(len(q) <= g.m for memo in g._tails.values() for q in memo), spec


def test_extensions(g_gold):
    assert g_gold.extensions(W("ba"), 3) == [W("baa"), W("bab")]
    assert g_gold.extensions(W("bb"), 4) == []
    assert g_gold.extensions(OMEGA, 1) == [W("a"), W("b")]


def test_unique_extension(g_y, g_gold, g_full):
    assert g_y.unique_extension(W("b")) == EpPoint(OMEGA, W("b"))
    assert g_gold.unique_extension(W("a")) is None
    assert g_full.unique_extension(W("a")) is None
    assert g_full.unique_extension(W("b")) is None


def test_unique_extension_with_preperiod():
    # After the forced tail b -> a -> a -> ... the point is b a^inf.
    g = build_follower_graph(SftSpec.make("ab", ["ab", "bb"]))
    assert g.unique_extension(W("b")) == EpPoint(W("b"), W("a"))
    assert g.unique_extension(W("a")) == EpPoint(OMEGA, W("a"))


def test_too_many_blocks_fail_fast():
    # Every 11-letter word that starts with b: 1,024 proper prefixes, more
    # than MAX_STATES, refused before any row is built, although its memory
    # is only 10 (2^10 m-blocks).  One letter fewer per word gives 512
    # prefixes with the empty one: at the bound, and built.
    def b_words(n):
        return ["b" + "".join(w) for w in product("ab", repeat=n)]
    with pytest.raises(ShiftTooLarge):
        build_follower_graph(SftSpec.make("ab", b_words(10)))
    assert build_follower_graph(SftSpec.make("ab", b_words(9))).n_states == MAX_STATES
    assert not issubclass(ShiftTooLarge, ContractViolation)


def test_table_cells_bound_fails_fast():
    # a^512 over 512 letters has MAX_STATES states and MAX_TABLE_CELLS cells:
    # at both bounds, and built.  One letter more, or 500 states over 5,000
    # letters, is refused after the trie and before any row is built.
    letters = [chr(0x4E00 + i) for i in range(5000)]
    g = build_follower_graph(SftSpec.make(letters[:512], [letters[0] * 512]))
    assert g.n_states * g.n_letters == MAX_STATES * 512 == MAX_TABLE_CELLS
    wide = [(letters[:513], [letters[0] * 512]),
            (letters, [a + b for a in letters[:499] for b in letters[:2]])]
    for alphabet, forbidden in wide:
        states = len({w[:n] for w in forbidden for n in range(len(w))})
        message = (f"a table of {states} states by {len(alphabet)} letters, "
                   f"more than {MAX_TABLE_CELLS} cells")
        with pytest.raises(ShiftTooLarge, match=message):
            build_follower_graph(SftSpec.make(alphabet, forbidden))


def _pruned_by_any_other(forbidden):
    """The forbidden words with no other forbidden word as a factor."""
    def factors(f):
        return {f[i:j] for i in range(len(f)) for j in range(i + 1, len(f) + 1)}
    return frozenset(f for f in forbidden if not any(g in factors(f) for g in forbidden - {f}))


def test_forbidden_pruning_matches_pairwise_rule():
    # A word is pruned iff another forbidden word is one of its factors:
    # checked on seeded random sets with words of one to five letters.
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(1, 3)
        forbidden = frozenset(tuple(rng.randrange(k) for _ in range(rng.randint(1, 5)))
                              for _ in range(rng.randint(0, 12)))
        assert SftSpec(tuple("abc"[:k]), forbidden).forbidden == _pruned_by_any_other(forbidden)


def test_forbidden_pruning_is_not_quadratic():
    # 10,000 two-letter words over 101 letters, none a factor of another,
    # with a few single letters that prune the words they occur in.
    rng = random.Random(3)
    words = rng.sample([(a, b) for a in range(101) for b in range(101)], 10_000)
    forbidden = frozenset(words + [(7,), (40,)])
    start = time.perf_counter()
    spec = SftSpec(tuple(chr(0x4E00 + i) for i in range(101)), forbidden)
    assert time.perf_counter() - start < 1.0
    assert spec.forbidden == {w for w in forbidden if len(w) == 1 or not {7, 40} & set(w)}


@pytest.mark.parametrize("m", [17, 24, 32])
def test_long_memory_builds_from_the_prefixes(m):
    # L_m has 2^m m-blocks but one state per proper prefix of a^(m+1) and
    # b^m a: 2m + 1.  A word is legal iff it is forbidden-free, since b^inf
    # may follow any such word.
    spec = l_spec(m)
    g = build_follower_graph(spec)
    assert g.n_states == len(g._delta) == 2 * m + 1
    rng = random.Random(m)
    for _ in range(300):
        w = ()
        while len(w) < 3 * m:
            w += (rng.randrange(2),) * rng.randint(1, m + 2)
        for n in range(0, len(w) + 1, 5):
            free = brute_forbidden_free(w[:n], spec.forbidden)
            assert g.is_prefix_legal(w[:n]) == free, (m, w[:n])
            if free:
                assert brute_forbidden_free(w[:n] + (1,) * (m + 1), spec.forbidden)
                assert g.is_prefix_legal(w[:n] + (1,) * (2 * m))
    x = evaluate("s(a)+2.s(bab)+st(b)", SubshiftAlgebra(g, ZZ))
    assert verify(reduce(x), x)


def test_deepest_accepted_walks_do_not_recurse():
    # The largest accepted shapes walk hundreds of letters deep: a^512 has
    # MAX_STATES states, one per power of a, and in L_255 (511 states) the
    # code of F(a) & F(b) goes 255 letters down a^k b.  Nothing recurses
    # per letter, so both stay far inside the interpreter's recursion limit.
    g = build_follower_graph(SftSpec.make("ab", ["a" * 512]))
    assert g.n_states == MAX_STATES
    x = evaluate("s(" + "b" * 500 + ")", SubshiftAlgebra(g, ZZ))
    assert not x.is_zero() and verify(reduce(x), x)
    g = build_follower_graph(l_spec(255))
    assert g.follower_code(g.reach(W("a")), g.reach(W("b"))) == tuple(
        W("a" * k + "b") for k in range(254, -1, -1))
    x = evaluate("p(C(a,b))", SubshiftAlgebra(g, ZZ))
    assert not x.is_zero() and verify(reduce(x), x)


def _extensions_by_brute_force(spec, w):
    """The m-letter words ``r`` with ``w.r`` legal: ``F(w) <= F(w')`` iff
    this set of ``w`` is inside that of ``w'`` (memory m)."""
    return frozenset(r for r in product(range(len(spec.alphabet)), repeat=spec.memory)
                     if brute_is_legal(spec, w + r))


def test_follower_subset_and_code_match_brute_force():
    # Every id is reached by a legal word of at most m letters; an illegal
    # word gives -1, the empty follower set.  A code must be a prefix code
    # in ascending order whose words t have F(b.t) <= F(a.t), none of whose
    # proper prefixes has that, and which covers the common extensions.
    rng = random.Random(29)
    pairs = 0
    for spec in random_specs(60, seed=21):
        try:
            g = build_follower_graph(spec)
        except EmptyShift:
            continue
        m, k = g.m, len(spec.alphabet)
        words = [w for n in range(m + 1) for w in brute_legal_words(spec, n)]
        words.append(next(w for w in product(range(k), repeat=m + 1)
                          if not brute_is_legal(spec, w)))
        ext, legal = {}, {}

        def extensions(w):
            if w not in ext:
                ext[w] = _extensions_by_brute_force(spec, w)
            return ext[w]

        def is_legal(w):
            if w not in legal:
                legal[w] = brute_is_legal(spec, w)
            return legal[w]

        for a in words:
            for b in rng.sample(words, min(len(words), 4)):
                i, j = g.reach(a), g.reach(b)
                assert g.follower_subset(i, j) == (extensions(a) <= extensions(b)), (spec, a, b)
                code = g.follower_code(i, j)
                assert list(code) == sorted(set(code)), (spec, a, b, code)
                assert not any(s != t and t[:len(s)] == s for s in code for t in code)
                for t in code:
                    assert extensions(b + t) and extensions(b + t) <= extensions(a + t)
                    assert not any(extensions(b + t[:n]) <= extensions(a + t[:n])
                                   for n in range(len(t))), (spec, a, b, t)
                depth = max(map(len, code), default=0) + m
                if k ** depth <= 81:
                    tails = list(product(range(k), repeat=depth))
                    common = {r for r in tails if is_legal(a + r) and is_legal(b + r)}
                    covered = {r for r in tails
                               if any(r[:len(t)] == t for t in code) and is_legal(b + r)}
                    assert covered == common, (spec, a, b, code)
                pairs += 1
    assert pairs > 800


def test_pair_memos_hold_only_asked_pairs():
    # The memos start empty; after some questions the word memo holds the
    # words asked, the pair memo the pair of words asked, the tail memos
    # the pair of ids they reach and the tail asked, and every key of the
    # code memo is an asked pair or one that a letter walked from both ids
    # leads to; every asked pair of distinct legal ids is kept.
    g = build_follower_graph(SftSpec.make("ab", ["aaa", "bba"]))
    assert g._codes == {} and g._tails == {} and g._ids == {} and g._pairs == {}
    words = [(W("a"), W("b")), (W("ab"), W("b")), (OMEGA, W("bb")), (W("b"), W("aa"))]
    asked = [(g.reach(a), g.reach(b)) for a, b in words]
    assert g._ids == {w: _walk(g, w) for pair in words for w in pair}
    for i, j in asked:
        g.follower_code(i, j)
    memo = g.tails(W("a"), W("b"))
    assert (memo.i, memo.j) == asked[0]
    memo[W("a")]
    assert set(memo) == {W("a")} and set(g._tails) == {asked[0]}
    assert g._pairs == {(W("a"), W("b")): memo}
    assert g.ids(W("abbab")) == [_walk(g, W("abbab")[:n]) for n in range(6)]
    memo[W("abab")]  # a tail longer than m is walked without being kept
    assert set(g._ids) == {w for pair in words for w in pair}
    reachable, frontier = set(), set(asked)
    while frontier:
        reachable |= frontier
        frontier = {(g._delta[i][a], g._delta[j][a]) for i, j in frontier
                    for a in range(g.n_letters)
                    if i >= 0 and j >= 0 and g._delta[i][a] >= 0} - reachable
    for key in g._codes:
        assert key in reachable or key[::-1] in reachable, key
    assert {p for p in asked if p[0] != p[1]} <= set(g._codes)
