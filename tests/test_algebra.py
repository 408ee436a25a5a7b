"""Skew-ring arithmetic: generators, defining relations, grading, products."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from subshift_algebra.algebra import AlgebraElement, SubshiftAlgebra
from subshift_algebra.clopen import (CoeffFn, c_set, cylinder, empty_set, full_set,
                                     relative_range)
from subshift_algebra.errors import (BadArgument, InternalNonzeroViolation,
                                     RingMismatch)
from subshift_algebra.parsing import evaluate
from subshift_algebra.rings import QQ, ZZ, Zmod
from subshift_algebra.shift import SftSpec, build_follower_graph
from subshift_algebra.structure import accumulate
from subshift_algebra.words import OMEGA

from conftest import DIFFERENTIAL_SHIFTS, W, l_spec, random_monomial_sum, words_up_to


def test_generator_examples(alg_gold, g_gold):
    assert alg_gold.gen_p(full_set(g_gold)) == alg_gold.one()
    assert alg_gold.gen_p(empty_set(g_gold)).is_zero()
    sb = alg_gold.elem_s((1,))
    assert set(sb.components) == {(W("b"), OMEGA)}
    assert sb.support_set((W("b"), OMEGA)) == cylinder(g_gold, W("b"))


def test_elem_s_matches_letter_products(all_graphs):
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        for w in words_up_to(g, 3, include_empty=False):
            prod = algebra.one()
            for a in w:
                prod = prod * algebra.elem_s((a,))
            assert prod == algebra.elem_s(w)
            starred = algebra.one()
            for a in reversed(w):
                starred = starred * algebra.elem_s_star((a,))
            assert starred == algebra.elem_s_star(w)


def test_illegal_word_gives_zero(alg_gold):
    assert alg_gold.elem_s(W("bb")).is_zero()
    assert alg_gold.elem_s_star(W("abb")).is_zero()


def test_mono_examples(alg_gold, g_gold):
    assert alg_gold.mono(OMEGA, full_set(g_gold), OMEGA) == alg_gold.one()
    assert alg_gold.mono(W("b"), full_set(g_gold), OMEGA) == alg_gold.elem_s((1,))
    assert alg_gold.mono(W("a"), cylinder(g_gold, W("bb")), OMEGA).is_zero()


def test_mono_vanishing_oracle(all_graphs):
    """mono(alpha, A, beta) = 0 iff A, F_alpha, F_beta do not meet."""
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        sets = [full_set(g)] + [cylinder(g, w) for w in words_up_to(g, 2, False)]
        for alpha in words_up_to(g, 2):
            for beta in words_up_to(g, 2):
                fa, fb = c_set(g, alpha, OMEGA), c_set(g, beta, OMEGA)
                for a_set in sets:
                    empty = a_set.intersect(fa).intersect(fb).is_empty()
                    assert algebra.mono(alpha, a_set, beta).is_zero() == empty


def test_add_scale(alg_full, g_full):
    x = alg_full.elem_s((0,)) + alg_full.gen_p(cylinder(g_full, W("ab")))
    assert (x - x).is_zero()
    assert x.scale(0).is_zero()
    za, zb = cylinder(g_full, W("a")), cylinder(g_full, W("b"))
    assert alg_full.gen_p(za) + alg_full.gen_p(zb) == alg_full.one()


def test_ring_mismatch(g_full):
    a1 = SubshiftAlgebra(g_full, ZZ)
    a2 = SubshiftAlgebra(g_full, QQ)
    with pytest.raises(RingMismatch):
        a1.one() + a2.one()


def test_defining_relations_words_up_to_3(all_graphs):
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        for a in range(g.n_letters):
            sa, sas = algebra.elem_s((a,)), algebra.elem_s_star((a,))
            assert sa * sas * sa == sa
            assert sas * sa * sas == sas
            assert sas * sa == algebra.gen_p(c_set(g, (a,), OMEGA))
            assert sa * sas == algebra.gen_p(cylinder(g, (a,)))
        for alpha in words_up_to(g, 3):
            for beta in words_up_to(g, 3):
                lhs = algebra.elem_s(beta) * algebra.elem_s_star(alpha) \
                    * algebra.elem_s(alpha) * algebra.elem_s_star(beta)
                assert lhs == algebra.gen_p(c_set(g, alpha, beta)), (alpha, beta)


def test_projection_commutation(all_graphs):
    """p_A s_alpha = s_alpha p_{r(A,alpha)} and the starred variant."""
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        sets = [full_set(g)] + [cylinder(g, w) for w in words_up_to(g, 3, False)]
        for alpha in words_up_to(g, 3):
            s_alpha = algebra.elem_s(alpha)
            s_star = algebra.elem_s_star(alpha)
            for a_set in sets:
                p_a = algebra.gen_p(a_set)
                p_r = algebra.gen_p(relative_range(a_set, alpha))
                assert p_a * s_alpha == s_alpha * p_r
                assert s_star * p_a == p_r * s_star


def test_star_properties(alg_gold, g_gold):
    a = alg_gold
    assert a.elem_s((0,)).star() == a.elem_s_star((0,))
    p = a.gen_p(cylinder(g_gold, W("ab")))
    assert p.star() == p
    m = a.mono(W("a"), cylinder(g_gold, W("a")), W("b"))
    assert m.star() == a.mono(W("b"), cylinder(g_gold, W("a")), W("a"))
    rng = random.Random(7)
    for _ in range(25):
        x = random_monomial_sum(a, rng, max_word=2, max_terms=2)
        y = random_monomial_sum(a, rng, max_word=2, max_terms=2)
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


def test_associativity_distributivity_random(all_graphs):
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(11)
        for _ in range(200):
            x = random_monomial_sum(algebra, rng, max_word=2, max_terms=2)
            y = random_monomial_sum(algebra, rng, max_word=2, max_terms=2)
            z = random_monomial_sum(algebra, rng, max_word=2, max_terms=2)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


def test_zero_divisor_ring_products():
    from subshift_algebra.shift import SftSpec, build_follower_graph

    g = build_follower_graph(SftSpec.make("ab", []))
    algebra = SubshiftAlgebra(g, Zmod(6))
    x = algebra.one().scale(2)
    y = algebra.one().scale(3)
    assert (x * y).is_zero()
    assert not x.is_zero() and not y.is_zero()


def test_rational_coefficients(g_full):
    algebra = SubshiftAlgebra(g_full, QQ)
    x = algebra.elem_s((0,)).scale(Fraction(1, 2))
    y = x + x
    assert y == algebra.elem_s((0,))


def test_z_grading(alg_full):
    x = alg_full.elem_s((0,)) + alg_full.one()
    assert x.z_grade_component(0) == alg_full.one()
    assert x.z_grade_component(1) == alg_full.elem_s((0,))
    assert x.z_grade_component(2).is_zero()
    assert alg_full.elem_s((0,)).z_grade_component(0).is_zero()


def test_z_grading_respects_products(all_graphs):
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(23)
        for _ in range(40):
            x = random_monomial_sum(algebra, rng, max_word=2, max_terms=2)
            y = random_monomial_sum(algebra, rng, max_word=2, max_terms=2)
            degrees = [len(u) - len(v) for (u, v) in
                       list(x.f_grade_support()) + list(y.f_grade_support())]
            if not degrees:
                continue
            lo, hi = 2 * min(degrees + [0]), 2 * max(degrees + [0])
            for n in range(lo, hi + 1):
                conv = algebra.zero()
                for p in range(lo, hi + 1):
                    conv = conv + x.z_grade_component(p) * y.z_grade_component(n - p)
                assert (x * y).z_grade_component(n) == conv


def test_f_grading_examples(alg_full, g_full):
    assert alg_full.one().f_grade_support() == {(OMEGA, OMEGA)}
    assert alg_full.mono(W("a"), full_set(g_full), W("b")).f_grade_support() \
        == {(W("a"), W("b"))}
    assert alg_full.zero().f_grade_support() == set()


def _reduced_product(s, t):
    (u, v), (u2, v2) = s, t
    k = 0
    while k < len(v) and k < len(u2) and v[k] == u2[k]:
        k += 1
    v1, u21 = v[k:], u2[k:]
    if v1 and u21:
        return None
    if not v1:
        big_u, big_v = u + u21, v2
    else:
        big_u, big_v = u, v2 + v1
    j = 0
    while j < len(big_u) and j < len(big_v) and big_u[-1 - j] == big_v[-1 - j]:
        j += 1
    return (big_u[:len(big_u) - j], big_v[:len(big_v) - j])


def test_f_grading_multiplicative(all_graphs):
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(31)
        for _ in range(60):
            x = random_monomial_sum(algebra, rng, max_word=2, max_terms=2)
            y = random_monomial_sum(algebra, rng, max_word=2, max_terms=2)
            allowed = {
                _reduced_product(s, t)
                for s in x.f_grade_support() for t in y.f_grade_support()}
            allowed.discard(None)
            assert (x * y).f_grade_support() <= allowed


def test_letter_extension_search(all_graphs):
    """Every nonzero single-component element extends by some letter."""
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(41)
        for _ in range(50):
            x = random_monomial_sum(algebra, rng, max_word=2, max_terms=3)
            for t in x.f_grade_support():
                comp = AlgebraElement(x.algebra, {t: x.components[t]})
                assert any(
                    not (comp * algebra.elem_s((a,))).is_zero()
                    for a in range(g.n_letters)), (t, comp)


def test_translate_rejects_word_without_the_prefix(g_gold):
    with pytest.raises(InternalNonzeroViolation):
        CoeffFn(g_gold, {W("ab"): 1}).translate(W("b"), W("a"))


def test_translate_rejects_illegal_result(g_gold):
    # ab -> bb leaves the golden mean shift.
    with pytest.raises(InternalNonzeroViolation):
        CoeffFn(g_gold, {W("ab"): 1}).translate(W("a"), W("b"))
    # A stored illegal word is not dropped silently, by either operation.
    illegal = CoeffFn(g_gold, {W("bb"): 1})
    message = re.escape("support word (1, 1) is not legal")
    with pytest.raises(InternalNonzeroViolation, match=message):
        illegal.translate(W("b"), W("a"))
    with pytest.raises(InternalNonzeroViolation, match=message):
        relative_range(illegal, W("b"))


def test_w_constraint_violations_raise():
    # A component at (a, b) of the golden mean shift may hold a.p only where
    # b.p is legal, and at (b, a) only where b.p is.  Each bad word follows a
    # good one, and each is rejected with the pair's tail memo cold and again
    # once legal tails warm it.
    g = build_follower_graph(SftSpec.make("ab", ["bb"]))
    algebra = SubshiftAlgebra(g, ZZ)
    pair = (W("a"), W("b"))
    bad = [
        (pair, "aa", "ba"),   # not below the prefix a
        (pair, "aa", "ab"),   # the m-letter tail b: b.b is illegal
        (pair, "aaa", "aba"),  # the longer tail ba: b.ba is illegal
        ((W("b"), W("a")), None, "bb"),  # the tail b: b.b itself is illegal
    ]
    for _ in ("cold", "warm"):
        for at, good, word in bad:
            fn = CoeffFn(g, {W(word): 1, **({W(good): 1} if good else {})})
            message = f"support word {W(word)} violates the W-constraint of {at}"
            with pytest.raises(ValueError, match=re.escape(message)):
                AlgebraElement(algebra, {at: fn})
        # Legal words, but ab lies inside the cylinder of a: not a prefix code.
        fn = CoeffFn(g, {W("a"): 1, W("ab"): 2})
        with pytest.raises(ValueError, match=re.escape(
                "support words are not a prefix code: (0, 1)")):
            AlgebraElement(algebra, {(OMEGA, OMEGA): fn})
        warm = AlgebraElement(algebra, {pair: CoeffFn(g, {W("aaa"): 1, W("aab"): 2})})
        assert set(warm.components[pair].coeffs) == {W("aaa"), W("aab")}
    # Only tails of at most m letters are kept: the longer tails aa, ab and
    # ba were answered from their first letter.
    assert g.tails(*pair) == {W("a"): (OMEGA,), W("b"): False}


def test_w_constraint_on_short_tails():
    # Memory 2 (bba forbidden): a tail q shorter than m is allowed at (u, v)
    # iff F(u.q) <= F(v.q), and u.q must be legal.  F(a) holds "ba..." and
    # F(b) does not; F(ab) holds "a..." and F(bb) does not; F(aa) = F(ba).
    g = build_follower_graph(SftSpec.make("ab", ["bba"]))
    algebra = SubshiftAlgebra(g, ZZ)
    for _ in ("cold", "warm"):
        for pair, word in [((W("a"), W("b")), "a"), ((W("a"), W("b")), "ab"),
                           ((W("bb"), W("a")), "bba")]:
            message = f"support word {W(word)} violates the W-constraint of {pair}"
            with pytest.raises(ValueError, match=re.escape(message)):
                AlgebraElement(algebra, {pair: CoeffFn(g, {W(word): 1})})
        ok = AlgebraElement(algebra, {(W("a"), W("b")): CoeffFn(g, {W("aa"): 3})})
        assert ok.components[(W("a"), W("b"))].coeffs == {W("aa"): 3}


def test_tail_set_rejects_non_positive_component(alg_gold):
    x = alg_gold.elem_s_star(W("a"))
    (t,) = x.f_grade_support()
    assert t == (OMEGA, W("a"))
    with pytest.raises(BadArgument):
        x.tail_set(t)


def test_zmod6_results_are_stored_canonically(g_full):
    # Sums and products over Z/6 can make sibling values equal or zero; the
    # element is stored, compared and printed as its canonical code.
    algebra = SubshiftAlgebra(g_full, Zmod(6))
    x = evaluate("2.p(Z(aa)) + 8.p(Z(ab))", algebra)
    y = evaluate("2.p(Z(a))", algebra)
    assert x == y and x.components == y.components
    assert x.components[(OMEGA, OMEGA)].coeffs == {W("a"): 2}
    assert x.format() == y.format()
    assert evaluate("3.(2.p(Z(aa)) + 4.p(Z(ab)))", algebra).is_zero()
    assert evaluate("(p(Z(aa)) + 4.p(Z(ab))) * 2.p(X)", algebra).components == y.components
    assert (-x).components == evaluate("4.p(Z(a))", algebra).components


def test_unit_and_scaling_element_stay_small():
    # The unit is the single entry of the empty word at every memory, and
    # s(a) + 2.s(bab) + st(b) is stored in {a}, {bab} and the follower code
    # of b: m + 2 words on L_m.
    for m in range(2, 13):
        algebra = SubshiftAlgebra(build_follower_graph(l_spec(m)), ZZ)
        assert algebra.one().components == {(OMEGA, OMEGA): CoeffFn(algebra.graph, {OMEGA: 1})}
        if m in (8, 12):
            x = evaluate("s(a) + 2.s(bab) + st(b)", algebra)
            assert sum(len(fn.coeffs) for fn in x.components.values()) <= m + 2


# -- the one-pass product against the composition of coefficient operations --


def _reference_mul(x, y):
    """``x * y`` as the composition of coefficient-function operations:
    translate, pointwise product, translate back, accumulate the pairs,
    then the constructor.  Also the pairs that two or more component pairs
    reached and whose contributions cancelled."""
    ring = x.algebra.ring
    items = []
    for (u, v), f in x.components.items():
        for t, h in y.components.items():
            pair = _reduced_product((u, v), t)
            if pair is None:
                continue
            prod = f.translate(u, v).times(h, ring)
            if not prod.is_zero():
                items.append((pair, prod.translate(v, u)))
    out = accumulate({}, items, lambda f, h: f.add(h, ring), CoeffFn.is_zero)
    return AlgebraElement(x.algebra, out), {t for t, _ in items} - out.keys()


def _same(a, b):
    """The same component keys in the same order, with equal coefficient dicts."""
    return list(a.components) == list(b.components) and all(
        fn.coeffs == b.components[t].coeffs for t, fn in a.components.items())


_PARITY_RINGS = {"z": ZZ, "q": QQ, "zmod:6": Zmod(6)}


def _parity_algebras():
    for name, (alphabet, forbidden) in DIFFERENTIAL_SHIFTS.items():
        g = build_follower_graph(SftSpec.make(alphabet, forbidden))
        for ring_name, ring in _PARITY_RINGS.items():
            yield f"{name}/{ring_name}", SubshiftAlgebra(g, ring)


def _small_element(algebra, rng):
    """A seeded element of one to four components; over q some values are
    halves."""
    while True:
        x = random_monomial_sum(algebra, rng, max_word=2, max_terms=4)
        if algebra.ring is QQ and rng.random() < 0.5:
            x = x.scale(Fraction(1, 2))
        if 1 <= len(x.components) <= 4:
            return x


def test_mul_matches_the_composition_of_coefficient_operations():
    cancelled = {}
    for label, algebra in _parity_algebras():
        rng = random.Random(label)
        for _ in range(60):
            x, y = _small_element(algebra, rng), _small_element(algebra, rng)
            expected, gone = _reference_mul(x, y)
            assert _same(x * y, expected), (label, x, y)
            ring = label.split("/")[1]
            cancelled[ring] = cancelled.get(ring, 0) + len(gone)
    # Contributions of two component pairs to one pair cancel over every ring.
    assert all(cancelled.get(ring) for ring in _PARITY_RINGS), cancelled
    # By design, on the full shift: s(a) s(b) and s(ab) s(a)^* s(a) land on
    # (ab, omega) and cancel, and s(ab) s(a)^* s(b) is zero.
    algebra = SubshiftAlgebra(build_follower_graph(SftSpec.make("ab", [])), ZZ)
    x, y = evaluate("s(a) - s(ab)*st(a)", algebra), evaluate("s(a) + s(b)", algebra)
    expected, gone = _reference_mul(x, y)
    assert gone == {(W("ab"), OMEGA)}
    assert _same(x * y, expected) and x * y == algebra.elem_s(W("aa"))


def test_elem_s_star_is_the_star_of_elem_s():
    for alphabet, forbidden in DIFFERENTIAL_SHIFTS.values():
        algebra = SubshiftAlgebra(build_follower_graph(SftSpec.make(alphabet, forbidden)), ZZ)
        for n in range(5):
            for w in product(range(len(alphabet)), repeat=n):  # illegal words too
                assert _same(algebra.elem_s_star(w), algebra.elem_s(w).star()), w


def test_difference_is_the_sum_with_the_negation():
    for label, algebra in _parity_algebras():
        rng = random.Random(label)
        seven = algebra.ring.from_int(7)
        for _ in range(30):
            x, y = _small_element(algebra, rng), _small_element(algebra, rng)
            for a, b in [(x, y), (y, x), (x, x), (x, x.scale(seven))]:
                assert _same(a - b, a + (-b)), (label, a, b)
        if algebra.ring.name == "zmod:6":  # 7 = 1, so x - 7.x is zero
            assert (x - x.scale(seven)).is_zero() and not x.is_zero()
