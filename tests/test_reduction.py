"""Reduction pipeline: individual phases and end-to-end witnesses."""

import random

import pytest

from subshift_algebra import reduction
from subshift_algebra.algebra import AlgebraElement, SubshiftAlgebra
from subshift_algebra.clopen import (CoeffFn, CycleKind, c_set, classify_cycle,
                                     cylinder, full_set, relative_range)
from subshift_algebra.errors import EmptyShift, InternalNonzeroViolation, ZeroInput
from subshift_algebra.parsing import evaluate
from subshift_algebra.reduction import (CycleForm, ProjectionMultiple,
                                        _extract_root, _phase_common_projection,
                                        _phase_exit_kill, _phase_positive,
                                        _phase_power_align, _phase_prefix_nest,
                                        _phase_pump, _phase_strip_z, _Pipeline,
                                        _scalar_of, _settle, _sorted_keys,
                                        embed_form, reduce, verify)
from subshift_algebra.rings import QQ, ZZ, Zmod
from subshift_algebra.shift import FollowerGraph, SftSpec, build_follower_graph
from subshift_algebra.words import OMEGA

from conftest import W, l_spec, random_nonzero_element, random_specs


def test_scalar_of_rejects_non_constant_component(alg_full, g_full):
    # Coefficients 1 on Z_aa and 2 on Z_ab: not a multiple of an indicator.
    x = alg_full.gen_p(cylinder(g_full, W("aa"))) \
        + alg_full.gen_p(cylinder(g_full, W("ab"))).scale(2)
    with pytest.raises(InternalNonzeroViolation):
        _scalar_of(x, (OMEGA, OMEGA))


# -- _Pipeline ---------------------------------------------------------------------


def test_fresh_pipeline_reads_the_unit(alg_full):
    p = _Pipeline(alg_full.elem_s((0,)))
    assert p.mu == alg_full.one() and p.nu == alg_full.one()


def test_reduce_without_a_left_factor_has_the_unit_as_mu(alg_full, g_full):
    x = alg_full.gen_p(cylinder(g_full, W("a")))
    w = reduce(x, record_trace=True)
    assert w.trace == ("R p(common)",)
    assert w.mu == alg_full.one()
    assert w.mu.format() == "_ _^-1 | 1 a ; 1 b"
    assert w.nu.format() == "_ _^-1 | 1 a"


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)])
def test_skipped_products_change_nothing(monkeypatch, all_graphs, ring):
    # The pipeline skips x * p(A) for a lone scalar component whose own tail
    # set is A, and p(Z(beta)) * x for a lone component (beta, omega) in the
    # nest; mul skips both translations at (omega, omega): each product is
    # computed here anyway and must be x, each translation f.
    skips, identities = [], []

    class CheckingPipeline(_Pipeline):
        def left(self, factor, label, idle=False):
            if idle:
                skips.append(label)
                assert factor * self.x == self.x
            super().left(factor, label, idle)

        def right(self, factor, *labels, idle=False):
            if idle:
                skips.extend(labels)
                assert self.x * factor == self.x
            super().right(factor, *labels, idle=idle)

    mul = AlgebraElement.mul

    def checking_mul(self, other):
        f = self.components.get((OMEGA, OMEGA))
        if f is not None:
            identities.append(f)
            assert f.translate(OMEGA, OMEGA) == f
        return mul(self, other)

    monkeypatch.setattr(reduction, "_Pipeline", CheckingPipeline)
    monkeypatch.setattr(AlgebraElement, "mul", checking_mul)
    monkeypatch.setattr(AlgebraElement, "__mul__", checking_mul)
    graphs = list(all_graphs.values())
    for spec in random_specs(12, seed=29):
        try:
            graphs.append(build_follower_graph(spec))
        except EmptyShift:
            pass
    rng = random.Random(31)
    for g in graphs:
        algebra = SubshiftAlgebra(g, ring)
        for _ in range(80):
            reduce(random_nonzero_element(algebra, rng, max_word=3, max_terms=3))
    nest = [label for label in skips if label != "p(common)"]
    assert len(skips) - len(nest) >= 500 and len(nest) >= 500
    assert all(label.startswith("p(Z(") for label in nest)
    assert len(identities) >= 500


# -- _phase_positive -------------------------------------------------------------


def test_positive_noop(alg_full):
    x = alg_full.elem_s((0,)) + alg_full.one()
    p = _Pipeline(x)
    _phase_positive(p)
    assert p.x == x and p.nu == alg_full.one()


def test_positive_full_shift_star(alg_full, g_full):
    p = _Pipeline(alg_full.elem_s_star((0,)))
    _phase_positive(p)
    assert p.x == alg_full.one()             # p_{F_a} = p_X
    assert p.nu == alg_full.elem_s((0,))


def test_positive_golden_star_b(alg_gold, g_gold):
    p = _Pipeline(alg_gold.elem_s_star((1,)))
    _phase_positive(p)
    assert p.nu == alg_gold.elem_s((1,))
    assert p.x == alg_gold.gen_p(c_set(g_gold, W("b"), OMEGA))


def test_positive_makes_all_components_positive(all_graphs):
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(3)
        for _ in range(40):
            x = random_nonzero_element(algebra, rng, max_word=2, max_terms=3)
            p = _Pipeline(x)
            _phase_positive(p)
            assert not p.x.is_zero()
            assert all(v == OMEGA for (_, v) in p.x.f_grade_support())
            assert x * p.nu == p.x


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)])
def test_positive_letter_is_first_letter_of_negative_word(all_graphs, ring):
    # Reference for the positive phase's letter choice: by trial
    # multiplication, a negative component (u, v) times s_a is nonzero
    # exactly for a = v[0].
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ring)
        rng = random.Random(11)
        for _ in range(40):
            x = random_nonzero_element(algebra, rng, max_word=3, max_terms=3)
            for t in x.f_grade_support():
                if t[1] == OMEGA:
                    continue
                comp = AlgebraElement(x.algebra, {t: x.components[t]})
                for a in range(g.n_letters):
                    assert (not (comp * algebra.elem_s((a,))).is_zero()) == (a == t[1][0])


def _positive_by_letters(p):
    """The positive phase one letter at a time: the letter ``v[0]`` of the
    component with the longest negative part ``(u, v)``, least first, until
    every component is positive.  The reference for the one product by
    ``s_v``."""
    while negs := [t for t in p.x.components if t[1] != OMEGA]:
        before = sum(len(v) for (_, v) in p.x.components)
        letter = min(negs, key=lambda t: (-len(t[1]), t[1], t[0]))[1][0]
        p.right(p.alg.elem_s((letter,)), f"s({p.alg.graph.spec.alphabet[letter]})")
        assert sum(len(v) for (_, v) in p.x.components) < before


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)])
def test_positive_phase_is_the_letter_loop(all_graphs, ring):
    # One product by s_v gives the element, nu and trace that multiplying
    # by the target's first letter until every component is positive gives.
    graphs = list(all_graphs.values())
    for spec in random_specs(40, seed=37):
        try:
            graphs.append(build_follower_graph(spec))
        except EmptyShift:
            pass
    rng = random.Random(41)
    long_phases = 0
    for g in graphs:
        algebra = SubshiftAlgebra(g, ring)
        for _ in range(60):
            x = random_nonzero_element(algebra, rng, max_word=3, max_terms=3)
            got, want = _Pipeline(x, record_trace=True), _Pipeline(x, record_trace=True)
            _phase_positive(got)
            _positive_by_letters(want)
            assert (got.x, got.nu, got.trace) == (want.x, want.nu, want.trace), (g.spec, x)
            long_phases += len(want.trace) >= 2
    assert long_phases >= 1000


# -- _phase_prefix_nest ----------------------------------------------------------------


def test_nest_full_shift(alg_full):
    x = alg_full.elem_s((0,)) + alg_full.elem_s((1,))
    p = _Pipeline(x)
    _phase_prefix_nest(p)
    assert p.x == alg_full.elem_s((0,))
    assert p.mu == alg_full.elem_s((0,)) * alg_full.elem_s_star((0,))


def test_nest_single_term(alg_full, g_full):
    x = alg_full.mono(W("ab"), full_set(g_full), OMEGA)
    p = _Pipeline(x)
    _phase_prefix_nest(p)
    assert p.x == x


def test_nest_chain_survives(alg_gold):
    x = alg_gold.elem_s((0,)) + alg_gold.elem_s(W("ab"))
    p = _Pipeline(x)
    _phase_prefix_nest(p)
    words = sorted(u for (u, _) in p.x.f_grade_support())
    assert words == [W("a"), W("ab")]
    assert p.mu * x == p.x
    # both survive: a is an initial segment of ab
    assert not p.x.is_zero()


# -- _phase_common_projection ------------------------------------------------------------


def common_projection(x):
    """Run the phase on ``x``; returns ``(x', A, J)`` where ``J`` lists the
    surviving component indices relative to the input's chain order."""
    p = _Pipeline(x)
    a_set = _phase_common_projection(p)
    after = p.x.f_grade_support()
    return p.x, a_set, tuple(i for i, k in enumerate(_sorted_keys(x)) if k in after)


def test_common_projection_single_term(alg_gold, g_gold):
    x = alg_gold.mono(W("a"), c_set(g_gold, W("a"), OMEGA), OMEGA).scale(3)
    x2, a_set, j = common_projection(x)
    assert x2 == x
    assert j == (0,)
    assert a_set == c_set(g_gold, W("a"), OMEGA)


def test_common_projection_two_terms(alg_full, g_full):
    za, zb = cylinder(g_full, W("a")), cylinder(g_full, W("b"))
    x = alg_full.gen_p(za) + alg_full.elem_s((0,)) * alg_full.gen_p(zb)
    x2, a_set, j = common_projection(x)
    assert not x2.is_zero()
    assert len(j) >= 1
    for t in x2.f_grade_support():
        assert x2.tail_set(t) == a_set


def test_common_projection_disjoint_sets_drop_a_term(alg_full, g_full):
    zaa = cylinder(g_full, W("aa"))
    zbb = cylinder(g_full, W("bb"))
    x = alg_full.gen_p(zaa) + alg_full.elem_s((0,)) * alg_full.gen_p(zbb)
    x2, a_set, j = common_projection(x)
    assert len(j) == 1
    assert not x2.is_zero()


# -- _phase_strip_z ------------------------------------------------------------------


def test_strip_plain_projection(alg_gold, g_gold):
    x = alg_gold.gen_p(cylinder(g_gold, W("ab"))).scale(5)
    p = _Pipeline(x)
    _phase_strip_z(p)
    assert p.x == x


def test_strip_single_positive(alg_full, g_full):
    x = alg_full.elem_s((0,))
    p = _Pipeline(x)
    _phase_strip_z(p)
    assert p.x == alg_full.one()
    assert p.mu * x * p.nu == p.x


def test_strip_y_shape(alg_y, g_y):
    zb = cylinder(g_y, W("b"))
    x = alg_y.elem_s((1,)) * alg_y.gen_p(zb) + alg_y.elem_s(W("bb")) * alg_y.gen_p(zb)
    p = _Pipeline(x)
    _phase_strip_z(p)
    words = sorted(u for (u, _) in p.x.f_grade_support())
    assert words == [OMEGA, W("b")]
    assert p.mu * x * p.nu == p.x


def test_strip_guards_the_nest_invariant(alg_full, g_full):
    # The set A = Z_aa misses Z_aba, so the words _, a, aba do not nest
    # with their supports: the strip phase refuses the element instead of
    # cutting it.  reduce nests first, and then one strip suffices.
    zaa = cylinder(g_full, W("aa"))
    x = alg_full.gen_p(zaa) \
        + alg_full.elem_s((0,)) * alg_full.gen_p(zaa) \
        + alg_full.elem_s(W("aba")) * alg_full.gen_p(zaa)
    with pytest.raises(InternalNonzeroViolation, match="longest cylinder"):
        _phase_strip_z(_Pipeline(x))
    w = reduce(x, record_trace=True)
    assert w.trace == ("L p(Z(aba))", "R p(common)", "L st(aba)")
    assert w.form == ProjectionMultiple(1, cylinder(g_full, W("aa")))


# -- _phase_pump --------------------------------------------------------------------


def settle(x):
    """Run ``_settle`` on ``x``.  Returns ``(x', B)``, or ``(x', None)`` when
    the element collapsed to a projection multiple."""
    p = _Pipeline(x)
    res = _settle(p)
    return p.x, (None if isinstance(res, ProjectionMultiple) else res)


def test_pump_not_needed(alg_y, g_y):
    zb = cylinder(g_y, W("b"))
    x = alg_y.gen_p(zb) + alg_y.elem_s((1,)) * alg_y.gen_p(zb)
    x2, c_set_out = settle(x)
    assert c_set_out is not None
    assert c_set_out == zb
    assert x2 == x


def test_pump_runs_and_collapses(alg_full, g_full):
    # B = Z_ab sits inside Z_a and F_a but not inside r(Z_ab, a) = Z_b, so one
    # pump pass runs and the two-term element collapses to a projection.
    zab = cylinder(g_full, W("ab"))
    x = alg_full.gen_p(zab) + alg_full.elem_s((0,)) * alg_full.gen_p(zab)
    ran = relative_range(zab, W("a"))
    assert not zab.is_subset(ran)
    p = _Pipeline(x, record_trace=True)
    assert _phase_pump(p, zab)
    assert p.trace == ["L p(D) st(a)"]
    x2, c_set_out = settle(x)
    assert not x2.is_zero()
    if c_set_out is None:
        words = [u for (u, _) in x2.f_grade_support()]
        assert words == [OMEGA]
    else:
        b2 = min((u for (u, _) in x2.f_grade_support() if u != OMEGA), key=len)
        assert c_set_out.is_subset(relative_range(c_set_out, b2))


def test_pump_requires_progress(alg_full, g_full):
    # B = Z_ab is not the tail set Z_a of the element, so the factor
    # p(Z_ab) st(a) keeps both terms: the progress check, which bounds
    # _settle, refuses the pass.
    za = cylinder(g_full, W("a"))
    x = alg_full.gen_p(za) + alg_full.elem_s((0,)) * alg_full.gen_p(za)
    with pytest.raises(InternalNonzeroViolation, match="^pump pass made no progress$"):
        _phase_pump(_Pipeline(x), cylinder(g_full, W("ab")))


# -- _phase_power_align ---------------------------------------------------------------------


def power_align(x):
    p = _Pipeline(x)
    _phase_power_align(p, p.x.tail_set((OMEGA, OMEGA)))
    return p.x


def test_align_keeps_power_terms(alg_y, g_y):
    zb = cylinder(g_y, W("b"))
    x = alg_y.gen_p(zb) \
        + alg_y.elem_s((1,)) * alg_y.gen_p(zb) \
        + alg_y.elem_s(W("bbb")) * alg_y.gen_p(zb)
    x2 = power_align(x)
    words = sorted(u for (u, _) in x2.f_grade_support())
    assert words == [OMEGA, W("b"), W("bbb")]
    assert not x2.is_zero()


def test_align_kills_misaligned_term(alg_full, g_full):
    # Words a, ab: ab is not a power-prefix continuation of a padded to a^n,
    # so the sandwich kills it.
    x_set = full_set(g_full)
    x = alg_full.gen_p(cylinder(g_full, W("aa"))) \
        + alg_full.elem_s((0,)) * alg_full.gen_p(cylinder(g_full, W("aa"))) \
        + alg_full.elem_s(W("ab")) * alg_full.gen_p(cylinder(g_full, W("aa")))
    x2 = power_align(x)
    words = sorted(u for (u, _) in x2.f_grade_support())
    assert W("ab") not in words
    assert not x2.is_zero()


def test_reduce_runs_power_alignment():
    # p(Z(w)) + s(rho) p(Z(w)) + 2 s(u) p(Z(w)), with u and w prefixes of
    # rho^inf one root apart: the words _, rho, u nest, and u need not be a
    # power of rho, so a share of these reach reduce's power alignment.
    # The shifts are the census script's five.
    runs = aligned = 0
    for alphabet, forbidden in (("ab", []), ("ab", ["bb"]), ("ab", ["ba"]),
                                ("ab", ["aa", "bb"]), ("abc", ["cc", "ab"])):
        g = build_follower_graph(SftSpec.make(alphabet, forbidden))
        for ring in (ZZ, Zmod(6)):
            algebra = SubshiftAlgebra(g, ring)
            for n in (1, 2, 3):
                for rho in g.legal_words(n):
                    for j in range(n + 1, 3 * n + 1):
                        u, w = (rho * 8)[:j], (rho * 8)[:j + n]
                        if not g.is_prefix_legal(w):
                            continue
                        pz = algebra.gen_p(cylinder(g, w))
                        x = pz + algebra.elem_s(rho) * pz \
                            + (algebra.elem_s(u) * pz).scale(2)
                        if x.is_zero():
                            continue
                        trace = reduce(x, record_trace=True).trace
                        runs += 1
                        aligned += any(t.endswith(" p(B)") for t in trace)
    assert runs == 464
    assert aligned >= 100


def test_reduce_guards_the_alignment(monkeypatch, alg_full):
    # An alignment that kills nothing leaves the word ab, which is not a power
    # of the root of aba: the guard after the one alignment names the premise.
    monkeypatch.setattr(reduction, "_phase_power_align",
                        lambda p, b_set: _phase_common_projection(p))
    x = evaluate("p(Z(aba)) + s(ab)*p(Z(aba)) + s(aba)*p(Z(aba))", alg_full)
    with pytest.raises(InternalNonzeroViolation,
                       match="^power alignment left a word that is not a power of the root$"):
        reduce(x)


# -- _extract_root ------------------------------------------------------------------------


def test_gcd_single_letter_powers(alg_y, g_y):
    zb = cylinder(g_y, W("b"))
    x = alg_y.gen_p(zb) + alg_y.elem_s((1,)) * alg_y.gen_p(zb) \
        + alg_y.elem_s(W("bb")) * alg_y.gen_p(zb) \
        + alg_y.elem_s(W("bbbb")) * alg_y.gen_p(zb)
    before = x.format()
    c, exps = _extract_root(x)
    assert x.format() == before
    assert c == W("b")
    assert exps == [1, 2, 4]


def test_gcd_rejects_mixed_words(alg_full, g_full):
    xf = full_set(g_full)
    x = alg_full.gen_p(xf) + alg_full.elem_s((0,)) * alg_full.gen_p(xf) \
        + alg_full.elem_s(W("ab")) * alg_full.gen_p(xf)
    assert _extract_root(x) is None


# -- _phase_exit_kill ------------------------------------------------------------------------


def exit_kill(x):
    assert _sorted_keys(x)[0] == (OMEGA, OMEGA)
    p = _Pipeline(x)
    return _phase_exit_kill(p, p.x.tail_set((OMEGA, OMEGA)), *_extract_root(x))


@pytest.mark.parametrize("shift, text, j, witness", [
    ("full", "1 + s(a)", 0, "b"),
    ("full", "1 + s(ba)", 0, "aa"),  # the difference's least word, a, is extended
    ("gold", "p(Z(a)) + s(a)*p(Z(a))", 1, "ab"),
    ("full", "p(Z(ab)) + s(ab)*p(Z(ab))", 1, "abaa"),  # extended from aba
])
def test_exit_kill_witness_word(all_graphs, shift, text, j, witness):
    # The cut is the cylinder of the least legal word of length (j+1)|c|
    # that meets the set and is not c^(j+1), for the least such j.
    x = evaluate(text, SubshiftAlgebra(all_graphs[shift], ZZ))
    c, exps = _extract_root(x)
    p = _Pipeline(x, record_trace=True)
    _phase_exit_kill(p, p.x.tail_set((OMEGA, OMEGA)), c, exps)
    assert p.trace[-1] == f"L p(Z({witness}))"
    assert len(witness) == (j + 1) * len(c)


def test_exit_kill_cycle_form(alg_y, g_y):
    zb = cylinder(g_y, W("b"))
    x = alg_y.gen_p(zb) + alg_y.elem_s((1,)) * alg_y.gen_p(zb)
    form = exit_kill(x)
    assert isinstance(form, CycleForm)
    assert form.beta == W("b")
    assert form.gammas == (1, 1) and form.exps == (1,)


def test_exit_kill_projection(alg_full, g_full):
    x = alg_full.one() + alg_full.elem_s((0,))
    form = exit_kill(x)
    assert isinstance(form, ProjectionMultiple)
    assert form.gamma == 1 and not form.proj_set.is_empty()


def test_exit_kill_nonprimitive_root(alg_y, g_y):
    # Words are powers of bb; the primitive root b is extracted and the
    # exponents double.
    zbb = cylinder(g_y, W("bb"))
    x = alg_y.gen_p(zbb) + alg_y.elem_s(W("bb")) * alg_y.gen_p(zbb)
    form = exit_kill(x)
    assert isinstance(form, CycleForm)
    assert form.beta == W("b")
    assert form.exps == (2,)


# -- reduce + verify -----------------------------------------------------------------------


def test_reduce_rejects_zero(alg_full):
    with pytest.raises(ZeroInput):
        reduce(alg_full.zero())


def test_reduce_one(alg_full, g_full):
    w = reduce(alg_full.one())
    assert isinstance(w.form, ProjectionMultiple)
    assert w.form.gamma == 1
    assert w.form.proj_set == full_set(g_full)
    assert verify(w, alg_full.one())


def test_reduce_sum_of_generators(alg_full):
    x = alg_full.elem_s((0,)) + alg_full.elem_s((1,))
    w = reduce(x)
    assert isinstance(w.form, ProjectionMultiple)
    assert w.form.gamma == 1
    assert verify(w, x)


def test_reduce_y_cycle_element(alg_y, g_y):
    zb = cylinder(g_y, W("b"))
    x = alg_y.gen_p(zb) + alg_y.elem_s((1,)) * alg_y.gen_p(zb)
    w = reduce(x, record_trace=True)
    assert isinstance(w.form, CycleForm)
    assert w.form.beta == W("b")
    assert w.form.gammas == (1, 1)
    assert w.form.exps == (1,)
    assert w.trace is not None and len(w.trace) >= 1
    assert verify(w, x)


def test_verify_rejects_tampering(alg_y, g_y):
    zb = cylinder(g_y, W("b"))
    x = alg_y.gen_p(zb) + alg_y.elem_s((1,)) * alg_y.gen_p(zb)
    w = reduce(x)
    bad_gamma = CycleForm(w.form.cycle_set, w.form.beta, (1, 2), w.form.exps)
    bad_exps = CycleForm(w.form.cycle_set, w.form.beta, w.form.gammas, (2,))
    from subshift_algebra.reduction import ReductionWitness

    assert not verify(ReductionWitness(w.mu, w.nu, bad_gamma), x)
    assert not verify(ReductionWitness(w.mu, w.nu, bad_exps), x)


def test_verify_products_refine_no_coarse_factor(alg_gold, monkeypatch):
    # The verification product mu * x * nu multiplies coefficient functions
    # whose words differ in length by up to 35.  Refining the coarser one to
    # the length of the finer enumerates Fibonacci-many words that the
    # product then discards: reducing s(abababab) + st(aabababab) took minutes.
    extensions = FollowerGraph.extensions
    produced = 0

    def counted(self, w, n):
        nonlocal produced
        out = extensions(self, w, n)
        produced += len(out)
        if produced > 100_000:
            raise RuntimeError(f"{produced} extension words")
        return out

    monkeypatch.setattr(FollowerGraph, "extensions", counted)
    x = alg_gold.elem_s(W("abababab")) + alg_gold.elem_s_star(W("aabababab"))
    w = reduce(x)
    assert verify(w, x)


def _count_extension_words(monkeypatch):
    """A one-item list holding the number of words ``FollowerGraph.extensions``
    returns from now on."""
    extensions = FollowerGraph.extensions
    produced = [0]

    def counted(self, w, n):
        out = extensions(self, w, n)
        produced[0] += len(out)
        return out

    monkeypatch.setattr(FollowerGraph, "extensions", counted)
    return produced


def test_exit_search_refines_no_set(alg_gold, monkeypatch):
    # The exit search of this input once refined its set to the diverging
    # block, and its containment tests refined the coarser set: 121,393 and
    # then 196,418 words, over seconds.
    produced = _count_extension_words(monkeypatch)
    x = alg_gold.elem_s(W("ab" * 6)) + alg_gold.elem_s_star(W("a" + "ab" * 6))
    w = reduce(x)
    assert verify(w, x)
    assert produced[0] < 5_000


def test_scaling_reduction_stays_small(monkeypatch):
    # On L_10 (1,024 states) supports stored at m + |beta| made nu 65,040
    # words; this reduction and its verification return about 2,300.
    algebra = SubshiftAlgebra(build_follower_graph(l_spec(10)), ZZ)
    x = algebra.elem_s(W("a")) + algebra.elem_s(W("bab")).scale(2) \
        + algebra.elem_s_star(W("b"))
    produced = _count_extension_words(monkeypatch)
    w = reduce(x)
    assert verify(w, x)
    assert produced[0] < 4_600


def test_tail_memo_stays_bounded():
    # The tail memo keeps tails of at most m letters only, per pair of ids
    # of the table (-1 included).
    g = build_follower_graph(l_spec(8))
    algebra = SubshiftAlgebra(g, ZZ)
    x = algebra.elem_s(W("a")) + algebra.elem_s(W("bab")).scale(2) \
        + algebra.elem_s_star(W("b"))
    assert verify(reduce(x), x)
    ids = range(-1, len(g._delta))
    assert all(i in ids and j in ids for i, j in g._tails)
    assert all(len(q) <= g.m for memo in g._tails.values() for q in memo)
    tails = sum(g.n_letters ** n for n in range(1, g.m + 1))
    assert 0 < sum(map(len, g._tails.values())) <= len(g._tails) * tails


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6)])
def test_witness_does_not_depend_on_storage(all_graphs, ring):
    # An element given in words finer than its canonical code is stored as
    # that code, so it reduces to the same witness.
    rng = random.Random(41)
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ring)
        for _ in range(40):
            x = random_nonzero_element(algebra, rng, max_word=2, max_terms=4)
            y = AlgebraElement(algebra, {
                t: CoeffFn(g, fn.at_length(fn.longest() + rng.randint(1, 3)))
                for t, fn in x.components.items()})
            assert y.components == x.components
            wx, wy = reduce(x, record_trace=True), reduce(y, record_trace=True)
            assert (wx.mu, wx.nu, wx.form, wx.trace) == (wy.mu, wy.nu, wy.form, wy.trace)


def test_reduce_mixed_grades(alg_gold, g_gold):
    x = alg_gold.elem_s((0,)) * alg_gold.elem_s_star((1,)) \
        + alg_gold.gen_p(cylinder(g_gold, W("ab"))).scale(-2)
    w = reduce(x)
    assert verify(w, x)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6)])
def test_reduce_random_totality(all_graphs, ring):
    for g in all_graphs.values():
        algebra = SubshiftAlgebra(g, ring)
        rng = random.Random(97)
        for _ in range(30):
            x = random_nonzero_element(algebra, rng, max_word=3, max_terms=3)
            w = reduce(x)
            assert verify(w, x)
            if isinstance(w.form, CycleForm):
                cc = classify_cycle(w.form.cycle_set, w.form.beta)
                assert cc.kind is CycleKind.CYCLE_WITHOUT_EXIT and cc.minimal


def test_reduce_embed_matches_product(alg_y, g_y):
    rng = random.Random(5)
    for _ in range(20):
        x = random_nonzero_element(alg_y, rng, max_word=2, max_terms=2)
        w = reduce(x)
        assert (w.mu * x * w.nu) == embed_form(alg_y, w.form)
