"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line with its runtime (visible under
``pytest -s``); a hard per-criterion time budget is asserted as well.
All criteria run over the three fixture shifts: the full 2-shift, the
golden-mean shift (forbidden bb) and the shift Y (forbidden ba).
"""

import random
import time
from itertools import product
from math import gcd

import pytest

from subshift_algebra.algebra import SubshiftAlgebra
from subshift_algebra.clopen import (CycleKind, c_set, classify_cycle,
                                     cylinder, full_set)
from subshift_algebra.reduction import CycleForm, ProjectionMultiple, reduce, verify
from subshift_algebra.rings import QQ, ZZ
from subshift_algebra.structure import (LaurentPoly, corner_to_laurent,
                                        find_cycles_without_exit,
                                        laurent_to_corner)
from subshift_algebra.words import (OMEGA, commuting_root,
                                    is_minimal_cycle_word, primitive_root)

from conftest import W, random_nonzero_element, words_up_to
from test_cli import GOLDEN_COMMANDS, run_cli


def _report(name: str, start: float, budget: float):
    elapsed = time.time() - start
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_relation_suite(all_graphs):
    start = time.time()
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        words = words_up_to(g, 3)
        for a in range(g.n_letters):
            sa, sas = algebra.elem_s((a,)), algebra.elem_s_star((a,))
            assert (sa * sas * sa - sa).is_zero()
            assert (sas * sa * sas - sas).is_zero()
        for alpha in words:
            for beta in words:
                lhs = algebra.elem_s(beta) * algebra.elem_s_star(alpha) \
                    * algebra.elem_s(alpha) * algebra.elem_s_star(beta)
                assert (lhs - algebra.gen_p(c_set(g, alpha, beta))).is_zero()
        sets = [full_set(g)] + [cylinder(g, w) for w in words_up_to(g, 2, False)]
        for sa_ in sets:
            for sb_ in sets:
                pa, pb = algebra.gen_p(sa_), algebra.gen_p(sb_)
                inter = algebra.gen_p(sa_.intersect(sb_))
                assert (pa * pb - inter).is_zero()
                assert (pa + pb - inter - algebra.gen_p(sa_.union(sb_))).is_zero()
    _report("criterion 1 (relation suite)", start, 10.0)


def test_criterion_2_monomial_vanishing(all_graphs):
    start = time.time()
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        words = words_up_to(g, 2)
        cyl_words = [OMEGA]
        for n in (1, 2):
            cyl_words.extend(product(range(g.n_letters), repeat=n))
        for alpha in words:
            fa = c_set(g, alpha, OMEGA)
            for beta in words:
                fb = c_set(g, beta, OMEGA)
                for w in cyl_words:
                    a_set = cylinder(g, w)
                    expect_zero = a_set.intersect(fa).intersect(fb).is_empty()
                    assert algebra.mono(alpha, a_set, beta).is_zero() == expect_zero
    _report("criterion 2 (monomial vanishing oracle)", start, 5.0)


def test_criterion_3_word_lemmas():
    start = time.time()
    pool = [w for n in range(1, 7) for w in product((0, 1), repeat=n)]
    commuting = 0
    for alpha in pool:
        for beta in pool:
            if alpha + beta != beta + alpha:
                continue
            commuting += 1
            c, n, m = commuting_root(alpha, beta)
            assert c * n == alpha and c * m == beta
            assert len(c) == gcd(len(alpha), len(beta))
    assert commuting > 100
    for n in range(1, 9):
        for alpha in product((0, 1), repeat=n):
            assert is_minimal_cycle_word(alpha) == (primitive_root(alpha)[1] == 1)
    _report("criterion 3 (word-lemma exhaustion)", start, 5.0)


def test_criterion_4_reduction_totality(all_graphs):
    start = time.time()
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(20240)
        for _ in range(500):
            x = random_nonzero_element(algebra, rng, max_word=3, max_terms=3,
                                       coeff_lo=-3, coeff_hi=3)
            w = reduce(x)
            assert verify(w, x)
            if isinstance(w.form, CycleForm):
                cc = classify_cycle(w.form.cycle_set, w.form.beta)
                assert cc.kind is CycleKind.CYCLE_WITHOUT_EXIT and cc.minimal
            else:
                assert not w.form.proj_set.is_empty()
                assert w.form.gamma != 0
    _report("criterion 4 (reduction totality and soundness)", start, 60.0)


def test_criterion_5_exit_dichotomy(all_graphs, g_y):
    start = time.time()
    for name in ("full", "gold"):
        g = all_graphs[name]
        assert find_cycles_without_exit(g) == []
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(20245)
        for _ in range(200):
            x = random_nonzero_element(algebra, rng, max_word=3, max_terms=3)
            w = reduce(x)
            assert isinstance(w.form, ProjectionMultiple), name
    algebra = SubshiftAlgebra(g_y, ZZ)
    zb = cylinder(g_y, W("b"))
    demo = algebra.gen_p(zb) + algebra.elem_s((1,)) * algebra.gen_p(zb)
    w = reduce(demo)
    assert isinstance(w.form, CycleForm)
    assert w.form.beta == W("b")
    assert w.form.gammas == (1, 1)
    assert w.form.exps == (1,)
    _report("criterion 5 (exit dichotomy)", start, 30.0)


def test_criterion_6_corner_laurent(g_y):
    start = time.time()
    algebra = SubshiftAlgebra(g_y, ZZ)
    a_set = cylinder(g_y, W("b"))
    c = W("b")
    rng = random.Random(20246)

    def rand_poly(span):
        coeffs = {}
        for n in range(-span, span + 1):
            if rng.random() < 0.5:
                v = 0
                while v == 0:
                    v = rng.randint(-2, 2)
                coeffs[n] = v
        return LaurentPoly(ZZ, coeffs)

    for _ in range(100):
        poly = rand_poly(5)
        el = laurent_to_corner(poly, algebra, a_set, c)
        assert corner_to_laurent(el, a_set, c) == poly
        assert laurent_to_corner(corner_to_laurent(el, a_set, c),
                                 algebra, a_set, c) == el
    for _ in range(100):
        pa, pb = rand_poly(3), rand_poly(3)
        ea = laurent_to_corner(pa, algebra, a_set, c)
        eb = laurent_to_corner(pb, algebra, a_set, c)
        assert ea * eb == laurent_to_corner(pa.mul(pb), algebra, a_set, c)
    _report("criterion 6 (corner/Laurent isomorphism)", start, 10.0)


def test_criterion_7_semiprimeness(all_graphs):
    start = time.time()
    for ring in (ZZ, QQ):
        for g in all_graphs.values():
            algebra = SubshiftAlgebra(g, ring)
            rng = random.Random(20247)
            for _ in range(200):
                x = random_nonzero_element(algebra, rng, max_word=3, max_terms=2)
                w = reduce(x)
                y = w.mu * x * w.nu
                assert not (y * y).is_zero()
    _report("criterion 7 (semiprimeness evidence)", start, 60.0)


def test_criterion_8_grading_coherence(all_graphs):
    start = time.time()

    def reduced_product(s, t):
        (u, v), (u2, v2) = s, t
        k = 0
        while k < len(v) and k < len(u2) and v[k] == u2[k]:
            k += 1
        v1, u21 = v[k:], u2[k:]
        if v1 and u21:
            return None
        big_u, big_v = (u + u21, v2) if not v1 else (u, v2 + v1)
        j = 0
        while j < len(big_u) and j < len(big_v) and big_u[-1 - j] == big_v[-1 - j]:
            j += 1
        return (big_u[:len(big_u) - j], big_v[:len(big_v) - j])

    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(20248)
        for _ in range(100):
            x = random_nonzero_element(algebra, rng, max_word=2, max_terms=2)
            y = random_nonzero_element(algebra, rng, max_word=2, max_terms=2)
            degrees = [len(u) - len(v) for (u, v) in
                       list(x.f_grade_support()) + list(y.f_grade_support())]
            lo, hi = 2 * min(degrees + [0]), 2 * max(degrees + [0])
            product_xy = x * y
            for n in range(lo, hi + 1):
                conv = algebra.zero()
                for p in range(lo, hi + 1):
                    conv = conv + x.z_grade_component(p) * y.z_grade_component(n - p)
                assert product_xy.z_grade_component(n) == conv
            allowed = {reduced_product(s, t)
                       for s in x.f_grade_support() for t in y.f_grade_support()}
            allowed.discard(None)
            assert product_xy.f_grade_support() <= allowed
    _report("criterion 8 (grading coherence)", start, 20.0)


def test_criterion_9_cli_determinism():
    start = time.time()
    from pathlib import Path

    golden_dir = Path(__file__).resolve().parent / "golden"
    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, name
        got = f"exit={first[0]}\n{first[1]}"
        assert got == (golden_dir / f"{name}.txt").read_text(encoding="utf-8"), name
    _report("criterion 9 (CLI determinism)", start, 10.0)
