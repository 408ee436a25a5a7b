"""Clopen-set algebra: constructors, Boolean laws, relative ranges, cycles."""

import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from subshift_algebra import clopen
from subshift_algebra.clopen import (ClopenSet, CycleKind, as_singleton,
                                     c_set, classify_cycle, cylinder,
                                     empty_set, full_set, relative_range)
from subshift_algebra.errors import BadArgument, EmptyShift, InternalNonzeroViolation
from subshift_algebra.shift import SftSpec, build_follower_graph
from subshift_algebra.words import OMEGA, EpPoint, ep_normalize

from conftest import W, brute_legal_words, in_shift, l_spec, random_specs, words_up_to


def member(point: EpPoint, a: ClopenSet) -> bool:
    """Membership oracle: compare the point's prefix at resolution length."""
    return point.prefix(a.resolution) in a.words


# -- constructors ---------------------------------------------------------------


def test_cylinder_examples(g_gold):
    assert cylinder(g_gold, W("b")).words == {W("b")}
    assert cylinder(g_gold, W("b")).resolution == 1
    assert cylinder(g_gold, OMEGA) == full_set(g_gold)
    assert cylinder(g_gold, W("bb")).is_empty()


def test_follower_examples(g_gold, g_y):
    assert c_set(g_gold, W("b"), OMEGA) == cylinder(g_gold, W("a"))
    assert c_set(g_gold, OMEGA, OMEGA) == full_set(g_gold)
    assert c_set(g_y, W("b"), OMEGA).words == {W("b")}
    assert c_set(g_gold, W("bb"), OMEGA).is_empty()


def test_c_set_examples(g_gold, g_full):
    assert c_set(g_gold, W("b"), W("a")) == cylinder(g_gold, W("aa"))
    assert c_set(g_full, OMEGA, OMEGA) == full_set(g_full)
    assert c_set(g_gold, W("bb"), OMEGA).is_empty()


def test_constructor_rejects_bad_supports(g_gold):
    with pytest.raises(ValueError, match="shift memory"):
        ClopenSet(g_gold, 0, ())
    with pytest.raises(ValueError, match="resolution length"):
        ClopenSet(g_gold, 2, [W("aa"), W("a")])
    with pytest.raises(ValueError, match="not prefix-legal"):
        ClopenSet(g_gold, 2, [W("aa"), W("bb")])


def test_illegal_stored_word_raises_cold_and_warm():
    # a is followed by nothing and c only by a, so b is the one legal letter.
    g = build_follower_graph(SftSpec.make("abc", ["aa", "ab", "ac", "cb", "cc"]))
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match=re.escape("not prefix-legal: (0,)")):
            ClopenSet(g, 1, [(1,), (0,)])
        with pytest.raises(ValueError, match=re.escape("not prefix-legal: (1, 2)")):
            ClopenSet(g, 2, [(1, 1), (1, 2)])
    assert g.junctions(OMEGA)[1] == {(1,)}


def test_refine_examples(g_gold, g_full):
    z = cylinder(g_gold, W("b"))
    assert z.refine(3).words == {W("baa"), W("bab")}
    assert empty_set(g_gold).refine(4).is_empty()
    assert cylinder(g_full, W("a")).compact().refine(2).words == {W("aa"), W("ab")}


def test_equality_is_canonical(g_gold):
    a = cylinder(g_gold, W("b"))
    assert a == a.refine(5)
    assert a.compact() == a
    assert not a == full_set(g_gold)


# -- Boolean structure -------------------------------------------------------------


def test_boolean_examples(g_full, g_gold):
    assert cylinder(g_full, W("a")).complement() == cylinder(g_full, W("b"))
    assert cylinder(g_gold, W("ab")).intersect(cylinder(g_gold, W("aa"))).is_empty()
    u = cylinder(g_gold, W("aa")) | cylinder(g_gold, W("ab")) | cylinder(g_gold, W("ba"))
    assert u == full_set(g_gold)


@st.composite
def clopen_sets(draw, graph, n=None):
    if n is None:
        n = draw(st.integers(graph.m, 5))
    pool = graph.legal_words(n)
    words = draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    return ClopenSet(graph, n, frozenset(words))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_boolean_laws(g_gold, data):
    a = data.draw(clopen_sets(g_gold))
    b = data.draw(clopen_sets(g_gold))
    c = data.draw(clopen_sets(g_gold))
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)
    assert a & (b | c) == (a & b) | (a & c)
    assert a | (b & c) == (a | b) & (a | c)
    assert (a | b).complement() == a.complement() & b.complement()
    assert (a & b).complement() == a.complement() | b.complement()
    assert a.complement().complement() == a
    assert a - b == a & b.complement()
    assert a.is_subset(a | b) and (a & b).is_subset(a)


MEMBERSHIP_SHIFTS = {"golden_mean": SftSpec.make("ab", ["bb"]),
                     "y": SftSpec.make("ab", ["ba"]), "L_3": l_spec(3)}
MAX_EXTRA = 3  # operands are drawn at resolutions m .. m + MAX_EXTRA


def covering_points(graph, n: int) -> list[EpPoint]:
    """One eventually periodic point of X in every cylinder of length
    ``n``, found by a forbidden-factor scan, so that sets of resolution at
    most ``n`` are equal exactly when the points cannot tell them apart."""
    forbidden = graph.spec.forbidden
    tails = [w for k in range(4) for w in product(range(2), repeat=k)]
    return [next(p for t in tails for per in tails[1:]
                 if in_shift(p := ep_normalize(w + t, per), forbidden))
            for w in brute_legal_words(graph.spec, n)]


@pytest.fixture(scope="module")
def membership_setups():
    graphs = {name: build_follower_graph(spec) for name, spec in MEMBERSHIP_SHIFTS.items()}
    return {name: (g, covering_points(g, g.m + MAX_EXTRA)) for name, g in graphs.items()}


@pytest.mark.parametrize("left", ["finer", "coarser"])
@pytest.mark.parametrize("name", MEMBERSHIP_SHIFTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_operations_match_point_membership(membership_setups, name, left, data):
    """Each operation against the membership rule, with the left operand
    finer than the right one or coarser, so both sides of the prefix join
    and of the refinement are exercised."""
    g, points = membership_setups[name]
    fine, coarse = sorted(data.draw(st.lists(st.integers(0, MAX_EXTRA), min_size=2,
                                             max_size=2, unique=True)), reverse=True)
    ra, rb = (fine, coarse) if left == "finer" else (coarse, fine)
    a = data.draw(clopen_sets(g, g.m + ra))
    b = data.draw(clopen_sets(g, g.m + rb))
    in_a = [member(p, a) for p in points]
    in_b = [member(p, b) for p in points]
    assert [member(p, a | b) for p in points] == [x or y for x, y in zip(in_a, in_b)]
    assert [member(p, a & b) for p in points] == [x and y for x, y in zip(in_a, in_b)]
    assert [member(p, a - b) for p in points] == [x and not y for x, y in zip(in_a, in_b)]
    assert [member(p, a.complement()) for p in points] == [not x for x in in_a]
    assert a.is_subset(b) == all(y for x, y in zip(in_a, in_b) if x)
    assert (a == b) == (in_a == in_b)
    assert (a == a.refine(g.m + MAX_EXTRA)) and (a - a).is_empty()


def test_cross_graph_operands_rejected(g_gold, g_y):
    with pytest.raises(ValueError):
        full_set(g_gold).union(full_set(g_y))
    with pytest.raises(ValueError):
        full_set(g_gold).is_subset(full_set(g_y).refine(3))


def test_coarse_subset_refines_nothing(g_gold, monkeypatch):
    # A coarser left operand is decided by counting each word's extensions
    # in the finer set, not by refining it.
    za = cylinder(g_gold, W("a"))
    fines = [za.refine(n) for n in range(2, 8)]
    monkeypatch.setattr(clopen.CoeffFn, "refine", None)
    for fine in fines:
        short = ClopenSet(g_gold, fine.resolution, list(fine.words)[1:])
        assert za.is_subset(fine) and not za.is_subset(short)
        assert not full_set(g_gold).is_subset(fine)


# -- relative range -------------------------------------------------------------------


def test_relative_range_examples(g_gold):
    assert relative_range(full_set(g_gold), W("a")) == c_set(g_gold, W("a"), OMEGA)
    assert relative_range(cylinder(g_gold, W("a")), W("b")).is_empty()


def _refining_range(a_set, alpha):
    """``r(A, alpha)`` by its refining definition: at resolution at least
    ``len(alpha) + m``, a stored word ``alpha.p`` contributes its tail ``p``
    and any other word nothing."""
    k, g = len(alpha), a_set.graph
    ref = a_set.refine(max(a_set.resolution, k + g.m))
    return ClopenSet(g, ref.resolution - k, (w[k:] for w in ref.coeffs if w[:k] == alpha))


def test_relative_range_matches_its_refining_definition():
    # Random sets at resolutions m..m+2 and words alpha that are mostly
    # prefixes of legal words, sometimes extended past the resolution or
    # out of the shift: same resolution, same words in the same order.
    rng = random.Random(23)
    pairs = 0
    for spec in random_specs(300, seed=7):
        try:
            g = build_follower_graph(spec)
        except EmptyShift:
            continue
        letters = range(len(spec.alphabet))
        for _ in range(12):
            n = rng.randint(g.m, g.m + 2)
            words = g.legal_words(n)
            a_set = ClopenSet(g, n, rng.sample(words, rng.randint(0, len(words))))
            alpha = rng.choice(words)[:rng.randint(0, n)] + tuple(
                rng.choice(letters) for _ in range(rng.randint(0, 2)))
            got, want = relative_range(a_set, alpha), _refining_range(a_set, alpha)
            assert (got.resolution, list(got.coeffs)) == \
                (want.resolution, list(want.coeffs)), (spec, a_set, alpha)
            pairs += 1
    assert pairs > 2_000


def test_follower_composition(all_graphs):
    """r(F_alpha, beta) = F_{alpha.beta} for all short legal compositions."""
    for g in all_graphs.values():
        for alpha in words_up_to(g, 3):
            for beta in words_up_to(g, 3):
                lhs = relative_range(c_set(g, alpha, OMEGA), beta)
                assert lhs == c_set(g, alpha + beta, OMEGA)


def test_single_letter_composition(all_graphs):
    """r(r(A, beta), a) = r(A, beta.a) on cylinders, one letter at a time."""
    for g in all_graphs.values():
        for w in words_up_to(g, 2, include_empty=False):
            a_set = cylinder(g, w)
            for beta in words_up_to(g, 2):
                for a in range(g.n_letters):
                    lhs = relative_range(relative_range(a_set, beta), (a,))
                    assert lhs == relative_range(a_set, beta + (a,))


def test_cycle_condition_iterates(all_graphs):
    """A inside r(A, alpha) propagates to every power alpha^n, n <= 5."""
    found = 0
    for g in all_graphs.values():
        for w in words_up_to(g, 2, include_empty=False):
            a_set = cylinder(g, w)
            for alpha in words_up_to(g, 2, include_empty=False):
                if a_set.is_empty() or not a_set.is_subset(relative_range(a_set, alpha)):
                    continue
                found += 1
                for n in range(1, 6):
                    assert g.is_prefix_legal(alpha * n)
                    assert a_set.is_subset(relative_range(a_set, alpha * n))
    assert found > 0


def test_membership_oracle(g_gold, g_y):
    a_inf = ep_normalize(OMEGA, W("a"))
    abab = ep_normalize(OMEGA, W("ab"))
    assert member(a_inf, full_set(g_gold))
    assert member(a_inf, cylinder(g_gold, W("aa")))
    assert not member(abab, cylinder(g_gold, W("aa")))
    assert member(abab, cylinder(g_gold, W("ab")))
    b_inf = ep_normalize(OMEGA, W("b"))
    assert member(b_inf, cylinder(g_y, W("bb")))
    assert not member(b_inf, cylinder(g_y, W("ab")))


# -- singletons and cycles ---------------------------------------------------------------


def test_as_singleton(g_y, g_gold):
    assert as_singleton(cylinder(g_y, W("b"))) == EpPoint(OMEGA, W("b"))
    assert as_singleton(cylinder(g_gold, W("b"))) is None
    assert as_singleton(empty_set(g_y)) is None


def test_classify_examples(g_y, g_gold, g_full):
    got = classify_cycle(cylinder(g_y, W("b")), W("b"))
    assert got.kind is CycleKind.CYCLE_WITHOUT_EXIT and got.minimal is True
    got = classify_cycle(cylinder(g_gold, W("a")), W("a"))
    assert got.kind is CycleKind.CYCLE_WITH_EXIT
    got = classify_cycle(cylinder(g_gold, W("b")), W("a"))
    assert got.kind is CycleKind.NOT_A_CYCLE
    got = classify_cycle(cylinder(g_full, W("a")), W("aa"))
    assert got.kind is CycleKind.CYCLE_WITH_EXIT


def test_classify_nonminimal_cycle():
    g = build_follower_graph(SftSpec.make("ab", ["ba"]))
    got = classify_cycle(cylinder(g, W("bb")), W("bb"))
    assert got.kind is CycleKind.CYCLE_WITHOUT_EXIT and got.minimal is False


def test_classify_rejects_empty_word(g_y):
    with pytest.raises(BadArgument):
        classify_cycle(cylinder(g_y, W("b")), OMEGA)


def test_classify_rejects_singleton_off_its_periodic_point(g_y, monkeypatch):
    # ({b}, b) is a cycle without exit; a singleton point other than b^inf
    # breaks the invariant the classification relies on.
    monkeypatch.setattr(clopen, "as_singleton", lambda a: EpPoint(OMEGA, W("a")))
    with pytest.raises(InternalNonzeroViolation):
        classify_cycle(cylinder(g_y, W("b")), W("b"))
