"""Cycle search, corner-to-Laurent maps, semiprimeness spot checks."""

import random

import pytest

from subshift_algebra import structure
from subshift_algebra.algebra import SubshiftAlgebra
from subshift_algebra.clopen import (CycleClass, CycleKind, classify_cycle,
                                     cylinder, full_set)
from subshift_algebra.errors import (BadArgument, EmptyShift, InternalNonzeroViolation,
                                     NotADomain, NotInCorner, NotMinimalCycle)
from subshift_algebra.reduction import reduce
from subshift_algebra.rings import QQ, ZZ, Zmod
from subshift_algebra.shift import FollowerGraph, SftSpec, build_follower_graph
from subshift_algebra.structure import (LaurentPoly, corner_project,
                                        corner_to_laurent,
                                        find_cycles_without_exit,
                                        laurent_to_corner, relations_selftest,
                                        square_nonzero_check)
from subshift_algebra.words import OMEGA, ep_normalize

from conftest import DIFFERENTIAL_SHIFTS, W, l_spec, random_nonzero_element, random_specs


# -- cycle enumeration -------------------------------------------------------------


def test_cycles_y(g_y):
    pairs = find_cycles_without_exit(g_y)
    assert len(pairs) == 1
    a_set, alpha = pairs[0]
    assert alpha == W("b")
    assert a_set == cylinder(g_y, W("b"))


def test_cycles_golden_and_full(g_gold, g_full):
    assert find_cycles_without_exit(g_gold) == []
    assert find_cycles_without_exit(g_full) == []


def test_cycles_two_forced_loops():
    # Forbidding ab and ba splits the shift into the two fixed points.
    g = build_follower_graph(SftSpec.make("ab", ["ab", "ba"]))
    pairs = find_cycles_without_exit(g)
    assert [alpha for _, alpha in pairs] == [W("a"), W("b")]


def test_cycles_period_two():
    # Only abab... and baba... survive; one cycle of length 2.
    g = build_follower_graph(SftSpec.make("ab", ["aa", "bb"]))
    pairs = find_cycles_without_exit(g)
    assert len(pairs) == 1
    a_set, alpha = pairs[0]
    assert alpha == W("ab")
    got = classify_cycle(a_set, alpha)
    assert got.kind is CycleKind.CYCLE_WITHOUT_EXIT and got.minimal


def test_cycles_are_ordered_by_least_state():
    # The forced state ac (below bb) leads into the loop at cc; the cycles
    # still come in the order of their least states, bb before cc.
    g = build_follower_graph(SftSpec.make("abc", ["bba", "bc", "ca", "cb"]))
    pairs = find_cycles_without_exit(g)
    assert [alpha for _, alpha in pairs] == [(1,), (2,)]
    assert pairs[0][0] == cylinder(g, (1, 1))
    assert pairs[1][0] == cylinder(g, (2, 2))


def test_forced_cycle_is_rechecked_by_classify(g_y, monkeypatch):
    monkeypatch.setattr(structure, "classify_cycle",
                        lambda a, alpha: CycleClass(CycleKind.CYCLE_WITH_EXIT))
    with pytest.raises(InternalNonzeroViolation):
        find_cycles_without_exit(g_y)


def test_cycle_scan_cross_check(all_graphs):
    """Empty enumeration iff no short word has a purely periodic forced
    extension."""
    for g in all_graphs.values():
        pairs = find_cycles_without_exit(g)
        periodic_found = False
        for n in range(g.m, g.m + len(g.legal_words(g.m)) + 1):
            for w in g.legal_words(n):
                point = g.unique_extension(w)
                if point is not None and point.preperiod == OMEGA:
                    periodic_found = True
        assert bool(pairs) == periodic_found


def _cycles_over_m_blocks(g):
    """The reference scan over every legal m-block: those whose forced point
    is purely periodic and which are the least m-block of that orbit, in
    lexicographic order."""
    results = []
    for s in g.legal_words(g.m):
        point = g.unique_extension(s)
        if point is None or point.preperiod:
            continue
        alpha = point.period
        stream = point.prefix(len(alpha) + g.m)
        if s != min(stream[i:i + g.m] for i in range(len(alpha))):
            continue
        results.append((cylinder(g, s), alpha))
    return results


def test_cycles_match_the_m_block_scan():
    specs = [SftSpec.make(*spec) for spec in DIFFERENTIAL_SHIFTS.values()]
    found = 0
    for spec in [*specs, *random_specs(300, seed=7)]:
        try:
            g = build_follower_graph(spec)
        except EmptyShift:
            continue
        pairs = find_cycles_without_exit(g)
        assert pairs == _cycles_over_m_blocks(g), spec
        found += len(pairs)
    assert found > 50


def test_cycles_on_long_memory_enumerate_no_blocks(monkeypatch):
    # L_32 has 2^32 m-blocks; its one cycle without exit is b at b^32.
    g = build_follower_graph(l_spec(32))
    monkeypatch.setattr(FollowerGraph, "legal_words", None)
    b32 = (1,) * 32
    assert find_cycles_without_exit(g) == [(cylinder(g, b32), (1,))]


# -- corner and Laurent -----------------------------------------------------------


@pytest.fixture
def y_corner(g_y):
    algebra = SubshiftAlgebra(g_y, ZZ)
    return algebra, cylinder(g_y, W("b")), W("b")


def test_corner_examples(y_corner):
    algebra, a_set, c = y_corner
    proj = algebra.gen_p(a_set)
    assert corner_to_laurent(proj, a_set, c) == LaurentPoly(ZZ, {0: 1})
    x1 = algebra.elem_s((1,)) * proj
    assert corner_to_laurent(x1, a_set, c) == LaurentPoly(ZZ, {1: 1})
    x2 = (algebra.elem_s((1,)) * proj).scale(2) - (algebra.elem_s_star((1,)) * proj).scale(3)
    assert corner_to_laurent(x2, a_set, c) == LaurentPoly(ZZ, {1: 2, -1: -3})


def test_corner_requires_minimal_cycle(alg_gold, g_gold):
    with pytest.raises(NotMinimalCycle):
        corner_to_laurent(alg_gold.one(), cylinder(g_gold, W("a")), W("a"))
    with pytest.raises(NotMinimalCycle):
        laurent_to_corner(LaurentPoly(ZZ, {0: 1}), alg_gold,
                          cylinder(g_gold, W("a")), W("a"))


def test_corner_rejects_outside_elements(y_corner):
    # s_b itself is inside this corner (its support is the singleton), but
    # s_a and the unit differ from their corner projections.
    algebra, a_set, c = y_corner
    with pytest.raises(NotInCorner):
        corner_to_laurent(algebra.elem_s((0,)), a_set, c)
    with pytest.raises(NotInCorner):
        corner_to_laurent(algebra.one(), a_set, c)


def test_laurent_round_trip_examples(y_corner):
    algebra, a_set, c = y_corner
    one = LaurentPoly(ZZ, {0: 1})
    assert laurent_to_corner(one, algebra, a_set, c) == algebra.gen_p(a_set)
    mixed = LaurentPoly(ZZ, {1: 1, -1: 1})
    el = laurent_to_corner(mixed, algebra, a_set, c)
    assert corner_to_laurent(el, a_set, c) == mixed
    # x * x^{-1} = 1 transports to s_c p_A s_c^* p_A = p_A.
    xa = laurent_to_corner(LaurentPoly(ZZ, {1: 1}), algebra, a_set, c)
    xb = laurent_to_corner(LaurentPoly(ZZ, {-1: 1}), algebra, a_set, c)
    assert xa * xb == algebra.gen_p(a_set)


def random_laurent(rng, ring, span=5, lo=-2, hi=2):
    coeffs = {}
    for n in range(-span, span + 1):
        if rng.random() < 0.4:
            c = 0
            while c == 0:
                c = rng.randint(lo, hi)
            coeffs[n] = ring.parse_scalar(str(c))
    return LaurentPoly(ring, coeffs)


def test_laurent_round_trip_random(y_corner):
    algebra, a_set, c = y_corner
    rng = random.Random(13)
    for _ in range(100):
        poly = random_laurent(rng, ZZ)
        el = laurent_to_corner(poly, algebra, a_set, c)
        assert corner_to_laurent(el, a_set, c) == poly
        back = laurent_to_corner(corner_to_laurent(el, a_set, c),
                                 algebra, a_set, c)
        assert back == el


def test_laurent_multiplicative(y_corner):
    algebra, a_set, c = y_corner
    rng = random.Random(17)
    for _ in range(100):
        pa = random_laurent(rng, ZZ, span=3)
        pb = random_laurent(rng, ZZ, span=3)
        ea = laurent_to_corner(pa, algebra, a_set, c)
        eb = laurent_to_corner(pb, algebra, a_set, c)
        assert ea * eb == laurent_to_corner(pa.mul(pb), algebra, a_set, c)
        assert ea + eb == laurent_to_corner(pa.add(pb), algebra, a_set, c)


def test_corner_project(y_corner, g_y):
    algebra, a_set, c = y_corner
    assert corner_project(algebra.one(), a_set) == algebra.gen_p(a_set)
    full = full_set(g_y)
    x = algebra.elem_s((0,)) + algebra.elem_s((1,))
    assert corner_project(x, full) == x
    assert corner_project(algebra.elem_s((0,)), a_set).is_zero()


def test_corner_project_lands_in_family(y_corner):
    algebra, a_set, c = y_corner
    rng = random.Random(19)
    for _ in range(50):
        x = random_nonzero_element(algebra, rng, max_word=3, max_terms=3)
        projected = corner_project(x, a_set)
        if projected.is_zero():
            continue
        poly = corner_to_laurent(projected, a_set, c)  # must not raise
        assert not poly.is_zero()


# -- semiprimeness evidence ----------------------------------------------------------


def test_square_nonzero_basic(alg_y, g_y):
    assert square_nonzero_check(reduce(alg_y.one()))
    zb = cylinder(g_y, W("b"))
    x = alg_y.gen_p(zb) + alg_y.elem_s((1,)) * alg_y.gen_p(zb)
    assert square_nonzero_check(reduce(x))


def test_square_nonzero_requires_domain(g_full):
    algebra = SubshiftAlgebra(g_full, Zmod(6))
    with pytest.raises(NotADomain):
        square_nonzero_check(reduce(algebra.one()))
    algebra7 = SubshiftAlgebra(g_full, Zmod(7))
    assert square_nonzero_check(reduce(algebra7.one()))


def test_square_nonzero_random(all_graphs):
    for ring in (ZZ, QQ):
        for g in all_graphs.values():
            algebra = SubshiftAlgebra(g, ring)
            rng = random.Random(29)
            for _ in range(25):
                x = random_nonzero_element(algebra, rng, max_word=2, max_terms=2)
                assert square_nonzero_check(reduce(x))


# -- relation suite --------------------------------------------------------------------


def test_relations_selftest_bound(g_full, g_y):
    # Refused before any word is listed: a negative bound, and a bound with
    # more than MAX_SELFTEST_WORDS legal words up to it (2^6 - 1 on full2).
    assert structure.MAX_SELFTEST_WORDS == 32
    for g, max_len in ((g_full, -1), (g_full, 5), (g_y, 10 ** 9)):
        with pytest.raises(BadArgument):
            relations_selftest(g, max_len)
    assert relations_selftest(g_y, 0).format() == "25 checks, 0 failures"


def test_relations_selftest_clean(all_graphs):
    for g in all_graphs.values():
        report = relations_selftest(g, 2)
        assert report.passed
        assert report.checks > 100
        assert report.format().startswith(f"{report.checks} checks, 0 failures")
