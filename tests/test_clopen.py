"""Clopen-set algebra: constructors, Boolean laws, relative ranges, cycles."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from subshift_algebra import clopen
from subshift_algebra.clopen import (ClopenSet, CoeffFn, CycleKind, as_singleton,
                                     c_set, classify_cycle, cylinder,
                                     empty_set, full_set, relative_range)
from subshift_algebra.errors import BadArgument, EmptyShift, InternalNonzeroViolation
from subshift_algebra.shift import FollowerGraph, SftSpec, build_follower_graph
from subshift_algebra.words import OMEGA, EpPoint, ep_normalize

from subshift_algebra.algebra import SubshiftAlgebra
from subshift_algebra.rings import QQ, ZZ, Zmod

from conftest import (W, covering_points, in_shift, is_canonical, l_spec, random_code,
                      random_monomial_sum, random_specs, stores_canonically, value_at,
                      words_up_to)


def member(point: EpPoint, a: ClopenSet) -> bool:
    """Membership oracle: the point has a stored word as a prefix."""
    return value_at(a.coeffs, point) is not None


# -- constructors ---------------------------------------------------------------


def test_cylinder_examples(g_gold):
    assert cylinder(g_gold, W("b")).words == {W("b")}
    assert cylinder(g_gold, W("b")).format() == "{b}@1"
    # a is forced after b, so Z(ba) is Z(b) and stored as its shorter word.
    assert cylinder(g_gold, W("ba")).words == {W("b")}
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
    with pytest.raises(ValueError, match=re.escape(
            "support words are not a prefix code: (0, 0)")):
        ClopenSet(g_gold, [W("aa"), W("a")])
    with pytest.raises(ValueError, match=re.escape("support words are not a prefix code: (1,)")):
        ClopenSet(g_gold, [OMEGA, W("b")])
    with pytest.raises(ValueError, match=re.escape(
            "support word (1, 1) violates the W-constraint of ((), ())")):
        ClopenSet(g_gold, [W("aa"), W("bb")])


def test_illegal_stored_word_raises_cold_and_warm():
    # a is followed by nothing and c only by a, so b is the one legal letter.
    g = build_follower_graph(SftSpec.make("abc", ["aa", "ab", "ac", "cb", "cc"]))
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match=re.escape(
                "support word (0,) violates the W-constraint of ((), ())")):
            ClopenSet(g, [(1,), (0,)])
        with pytest.raises(ValueError, match=re.escape(
                "support word (1, 2) violates the W-constraint of ((), ())")):
            ClopenSet(g, [(1, 1), (1, 2)])
    # A set's words are checked through the one memo of the empty word with
    # itself, which keeps tails of at most m letters: c after b is answered
    # from b and a walk of c.
    assert set(g._tails) == {(0, 0)}
    assert g.tails(OMEGA, OMEGA) == {(1,): (OMEGA,), (0,): ()}


def test_refine_examples(g_gold, g_full):
    # The printed form refines the code to one length.
    z = cylinder(g_gold, W("b"))
    assert set(z.at_length(3)) == {W("baa"), W("bab")}
    assert empty_set(g_gold).at_length(4) == {}
    assert set(cylinder(g_full, W("a")).at_length(2)) == {W("aa"), W("ab")}


def test_equality_is_canonical(g_gold):
    a = cylinder(g_gold, W("b"))
    assert a == ClopenSet(g_gold, a.at_length(5))
    assert ClopenSet(g_gold, a.at_length(5)).coeffs == a.coeffs == {W("b"): True}
    assert ClopenSet(g_gold, [W("aa"), W("ab"), W("b")]).words == {OMEGA}
    assert not a == full_set(g_gold)


# -- Boolean structure -------------------------------------------------------------


def test_boolean_examples(g_full, g_gold):
    assert cylinder(g_full, W("a")).complement() == cylinder(g_full, W("b"))
    assert cylinder(g_gold, W("ab")).intersect(cylinder(g_gold, W("aa"))).is_empty()
    u = cylinder(g_gold, W("aa")) | cylinder(g_gold, W("ab")) | cylinder(g_gold, W("ba"))
    assert u == full_set(g_gold)


@st.composite
def clopen_sets(draw, graph, max_len=None):
    """A set built from a random prefix code of mixed lengths, canonical or
    not, of at most ``max_len`` letters (default 1 to 5)."""
    if max_len is None:
        max_len = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return ClopenSet(graph, random_code(graph, rng, max_len))


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
MAX_EXTRA = 3  # operands are drawn in words of at most m + MAX_EXTRA letters


@pytest.fixture(scope="module")
def membership_setups():
    graphs = {name: build_follower_graph(spec) for name, spec in MEMBERSHIP_SHIFTS.items()}
    return {name: (g, covering_points(g.spec, g.m + MAX_EXTRA)) for name, g in graphs.items()}


@pytest.mark.parametrize("left", ["finer", "coarser"])
@pytest.mark.parametrize("name", MEMBERSHIP_SHIFTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_operations_match_point_membership(membership_setups, name, left, data):
    """Each operation against the membership rule, with the left operand
    drawn finer than the right one or coarser, so both sides of the common
    refinement and of its carving are exercised."""
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
    assert (a == ClopenSet(g, a.at_length(g.m + MAX_EXTRA))) and (a - a).is_empty()


def test_cross_graph_operands_rejected(g_gold, g_y):
    with pytest.raises(ValueError):
        full_set(g_gold).union(full_set(g_y))
    with pytest.raises(ValueError):
        full_set(g_gold).is_subset(cylinder(g_y, W("b")))
    with pytest.raises(ValueError):
        full_set(g_gold) == full_set(g_y)


def test_coarse_subset_refines_nothing(g_gold, monkeypatch):
    # A coarser left operand is decided on the common refinement of the two
    # codes, carved around the finer words: nothing enumerates extensions.
    za = cylinder(g_gold, W("a"))
    fines = [ClopenSet(g_gold, za.at_length(n)) for n in range(2, 8)]
    shorts = [ClopenSet(g_gold, list(za.at_length(n))[1:]) for n in range(2, 8)]
    monkeypatch.setattr(FollowerGraph, "extensions", None)
    monkeypatch.setattr(FollowerGraph, "legal_words", None)
    for fine, short in zip(fines, shorts):
        assert za.is_subset(fine) and not za.is_subset(short)
        assert short.is_subset(za) and not full_set(g_gold).is_subset(fine)


# -- relative range -------------------------------------------------------------------


def test_relative_range_examples(g_gold):
    assert relative_range(full_set(g_gold), W("a")) == c_set(g_gold, W("a"), OMEGA)
    assert relative_range(cylinder(g_gold, W("a")), W("b")).is_empty()


def _refining_range(a_set, alpha):
    """``r(A, alpha)`` by its refining definition: with ``A`` refined to
    words of one length, at least ``len(alpha) + m``, a stored word
    ``alpha.p`` contributes its tail ``p`` and any other word nothing."""
    k, g = len(alpha), a_set.graph
    words = a_set.at_length(max(a_set.longest(), k + g.m))
    return ClopenSet(g, (w[k:] for w in words if w[:k] == alpha))


def test_relative_range_matches_its_refining_definition():
    # Random codes of at most m + 2 letters and words alpha that are mostly
    # prefixes of legal words, sometimes extended past the stored words or
    # out of the shift: the same canonical code.
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
            a_set = ClopenSet(g, random_code(g, rng, n))
            alpha = rng.choice(g.legal_words(n))[:rng.randint(0, n)] + tuple(
                rng.choice(letters) for _ in range(rng.randint(0, 2)))
            got, want = relative_range(a_set, alpha), _refining_range(a_set, alpha)
            assert got.coeffs == want.coeffs, (spec, a_set, alpha)
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


# -- every operation against brute-force point membership ---------------------------


def _drop(point, k: int):
    """The point with its first ``k`` letters removed."""
    pre, per = point.preperiod, point.period
    if k <= len(pre):
        return ep_normalize(pre[k:], per)
    r = (k - len(pre)) % len(per)
    return ep_normalize(OMEGA, per[r:] + per[:r])


def _follows(spec, prefix, point) -> bool:
    """``prefix.point`` is a point of X (forbidden-factor scan)."""
    return in_shift(ep_normalize(prefix + point.preperiod, point.period), spec.forbidden)


def _values(coeffs, points):
    return [value_at(coeffs, x) for x in points]


def test_operations_match_brute_force_on_random_shifts():
    # Random shifts, random mixed-length codes of at most m + 1 letters
    # (canonical or not) and words of at most 2 letters; every result is read
    # at one point of each cylinder of length m + 2, the longest word any of
    # them can store (a follower code ends within m letters of the start of
    # its walk), and every set must come out canonical.
    rng = random.Random(5)
    checked = 0
    for spec in random_specs(150, seed=3):
        try:
            g = build_follower_graph(spec)
        except EmptyShift:
            continue
        k, depth = len(spec.alphabet), g.m + 2
        if k ** depth > 250:
            continue
        points = covering_points(spec, depth)
        short = [w for n in range(3) for w in product(range(k), repeat=n)]
        for _ in range(4):
            ra, rb = (dict.fromkeys(random_code(g, rng, g.m + 1), True) for _ in range(2))
            a, b = ClopenSet(g, ra), ClopenSet(g, rb)
            in_a, in_b = _values(ra, points), _values(rb, points)
            results = {
                "union": (a | b, [x or y for x, y in zip(in_a, in_b)]),
                "intersect": (a & b, [x and y for x, y in zip(in_a, in_b)]),
                "difference": (a - b, [x and not y for x, y in zip(in_a, in_b)]),
                "complement": (a.complement(), [not x for x in in_a]),
            }
            for alpha in rng.sample(short, 3):
                results[f"r({alpha})"] = (relative_range(a, alpha), [
                    _follows(spec, alpha, x) and value_at(ra, ep_normalize(
                        alpha + x.preperiod, x.period)) is not None for x in points])
                beta = rng.choice(short)
                results[f"C({alpha},{beta})"] = (c_set(g, alpha, beta), [
                    x.prefix(len(beta)) == beta and _follows(spec, alpha, _drop(x, len(beta)))
                    for x in points])
                results[f"Z({alpha})"] = (cylinder(g, alpha),
                                          [x.prefix(len(alpha)) == alpha for x in points])
            for name, (got, want) in results.items():
                assert got.longest() <= depth, (spec, ra, name, got)
                assert [v is not None for v in _values(got.coeffs, points)] == \
                    [bool(v) for v in want], (spec, ra, rb, name)
                assert is_canonical(spec, got.coeffs, 0), (spec, ra, rb, name, got)
            assert a.is_subset(b) == all(y for x, y in zip(in_a, in_b) if x), (spec, ra, rb)
            assert (a == b) == ([x is not None for x in in_a] == [y is not None for y in in_b])

            # Coefficient functions over Z: sums, products, tail sets, translations.
            f = CoeffFn(g, {w: rng.choice([-1, 1, 2]) for w in ra})
            h = CoeffFn(g, {w: rng.choice([-1, 1, 2]) for w in rb})
            fx, hx = _values(f.coeffs, points), _values(h.coeffs, points)
            total = [(x or 0) + (y or 0) for x, y in zip(fx, hx)]
            assert [v or 0 for v in _values(f.add(h, ZZ).coeffs, points)] == total
            prod = [(x or 0) * (y or 0) for x, y in zip(fx, hx)]
            assert [v or 0 for v in _values(f.times(h, ZZ).coeffs, points)] == prod
            u = rng.choice([w for w in short if g.is_prefix_legal(w)])
            below = CoeffFn(g, dict.fromkeys(random_code(g, rng, len(u) + g.m, root=u), 1))
            assert [v is not None for v in _values(relative_range(below, u).coeffs, points)] == \
                [_follows(spec, u, x) and value_at(below.coeffs, ep_normalize(
                    u + x.preperiod, x.period)) is not None for x in points], (spec, u, below)
            new = rng.choice([w for w in short if g.is_prefix_legal(w)])
            domain = CoeffFn(g, dict.fromkeys(c_set(g, new, u).coeffs, 1))
            moved_from = below.times(domain, ZZ)
            moved = moved_from.translate(u, new)
            assert moved.longest() <= depth, (spec, u, new, moved)
            want = [value_at(moved_from.coeffs, ep_normalize(u + _drop(y, len(new)).preperiod,
                                                             _drop(y, len(new)).period))
                    if y.prefix(len(new)) == new and _follows(spec, u, _drop(y, len(new)))
                    else None for y in points]
            assert _values(moved.coeffs, points) == want, (spec, u, new, moved_from.coeffs)

            # Elements over Z/6 (zero divisors: a scaled family may merge or
            # vanish): what +, *, star and scale build is stored canonically.
            algebra = SubshiftAlgebra(g, Zmod(6))
            x, y = (random_monomial_sum(algebra, rng, max_word=2, max_terms=2) for _ in "xy")
            for name, e in {"x + y": x + y, "x * y": x * y, "star": (x * y).star(),
                            "scale": (x + y).scale(3), "star * y": x.star() * y}.items():
                assert stores_canonically(e), (spec, name, e.format())
            checked += 1
    assert checked > 150


def test_canonical_form_is_unique():
    # A random code with values in {1, 2} and a random refinement of it (a
    # word split into its legal one-letter extensions, with its value) are
    # stored alike, in the canonical form, above a floor of 0 or of a root.
    rng = random.Random(17)
    merged = 0
    for spec in random_specs(200, seed=11):
        try:
            g = build_follower_graph(spec)
        except EmptyShift:
            continue
        for _ in range(6):
            root = rng.choice(words_up_to(g, 2))
            code = {w: rng.choice([1, 2]) for w in random_code(g, rng, len(root) + g.m, root=root)}
            fine = dict(code)
            for _ in range(rng.randint(1, 6)):
                if fine:
                    w = rng.choice(list(fine))
                    c = fine.pop(w)
                    fine.update((w + (a,), c) for a in g.letters(w))
            for floor in {0, len(root)}:
                canon = clopen.merge_siblings(g, code, floor)
                assert clopen.merge_siblings(g, fine, floor) == canon, (spec, code, fine)
                assert is_canonical(spec, canon, floor) and min(map(len, canon), default=floor) >= floor
                merged += len(canon) < len(fine)
    assert merged > 100


# -- the support invariant: checked where it enters, kept by every operation ---------


def _operation_results(algebra, rng):
    """Every element and set that an operation builds without the public
    check (only merged), on seeded operands, by name."""
    g, ring = algebra.graph, algebra.ring
    x, y = (random_monomial_sum(algebra, rng, max_word=2, max_terms=3) for _ in "xy")
    if ring is QQ:
        y = y.scale(Fraction(1, 2))
    a, b = (ClopenSet(g, random_code(g, rng, g.m + 1)) for _ in "ab")
    word = rng.choice(words_up_to(g, 2))
    elements = {
        "x * y": x * y, "x + y": x + y, "x - y": x - y, "star": x.star(),
        "scale": (x + y).scale(ring.parse_scalar("3")), "negate": -x,
        "grade": (x * y).z_grade_component(rng.randint(-2, 2)),
        "s": algebra.elem_s(word), "st": algebra.elem_s_star(word), "p": algebra.gen_p(a),
    }
    sets = {"union": a | b, "intersect": a & b, "difference": a - b,
            "complement": a.complement(), "range": relative_range(a, word)}
    for t in x.components:
        sets[f"support {t}"] = x.support_set(t)
        if t[1] == OMEGA:
            sets[f"tails {t}"] = x.tail_set(t)
    return elements, sets


def test_operation_results_pass_the_public_check():
    # Operation results are merged but not checked again, because the
    # operations keep the invariant that the public constructors check.
    # This is the guard for that: every result passes the check again
    # unchanged (the same dict back, so nothing was left to merge), at
    # reduced pairs with nonzero values.
    graphs = [build_follower_graph(SftSpec.make(*spec)) for spec in
              [("ab", []), ("ab", ["bb"]), ("ab", ["ba"])]]
    for spec in random_specs(40, seed=26):
        if len(graphs) == 23:
            break
        try:
            graphs.append(build_follower_graph(spec))
        except EmptyShift:
            continue
    assert len(graphs) == 23
    seen = 0
    for g in graphs:
        for ring in (ZZ, QQ, Zmod(6)):
            algebra, rng = SubshiftAlgebra(g, ring), random.Random(f"{g.spec}/{ring.name}")
            for _ in range(6):
                elements, sets = _operation_results(algebra, rng)
                for name, e in elements.items():
                    for (u, v), fn in e.components.items():
                        assert not (u and v and u[-1] == v[-1]), (g.spec, name, (u, v))
                        assert fn.coeffs and not any(map(ring.is_zero, fn.coeffs.values()))
                        assert clopen.canonical(g, fn.coeffs, u, v) is fn.coeffs, \
                            (g.spec, ring.name, name, (u, v), fn.coeffs)
                        seen += 1
                for name, a in sets.items():
                    assert clopen.canonical(g, a.coeffs) is a.coeffs, (g.spec, name, a.coeffs)
    assert seen > 5000
