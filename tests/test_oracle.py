"""Differential oracle: the algebra acting on point masses of the shift.

A normal-form component ``(u, v)`` with coefficient function ``f`` sends the
point mass at ``v.x`` to ``f(u.x)`` times the point mass at ``u.x`` when
``u.x`` is a point of X, where ``f(u.x)`` is the value of the one stored word
that is a prefix of ``u.x`` (zero if there is none), and kills the point
masses at points that do not start with ``v``.  Read off the stored
components, this is a representation of the algebra on finitely supported
functions of the eventually periodic points.  It is computed here with a
forbidden-factor scan for point legality and :func:`ep_normalize` for
canonical points, and shares no code with ``FollowerGraph``, the clopen
operations, the coefficient-function methods or ``mul``: products, sums and
reduction witnesses must agree with composition and sum of operators.
"""

import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from subshift_algebra.algebra import AlgebraElement, SubshiftAlgebra
from subshift_algebra.clopen import CoeffFn, c_set, cylinder, full_set
from subshift_algebra.errors import EmptyShift
from subshift_algebra.reduction import CycleForm, embed_form, reduce
from subshift_algebra.rings import ZZ, Zmod
from subshift_algebra.shift import SftSpec, build_follower_graph
from subshift_algebra.structure import find_cycles_without_exit
from subshift_algebra.words import OMEGA, ep_normalize

from conftest import in_shift, l_spec, random_specs, words_up_to

SHIFTS = {
    "full2": SftSpec.make("ab", []),
    "golden_mean": SftSpec.make("ab", ["bb"]),
    "y": SftSpec.make("ab", ["ba"]),
    "period2": SftSpec.make("ab", ["aa", "bb"]),
    **{f"L_{m}": l_spec(m) for m in (3, 4, 5)},
}
RINGS = (ZZ, Zmod(6))
SHORT_WORDS = [w for n in range(3) for w in product(range(2), repeat=n)]


def drop(point, k: int):
    """The point with its first ``k`` letters removed."""
    pre, per = point.preperiod, point.period
    if k <= len(pre):
        return ep_normalize(pre[k:], per)
    r = (k - len(pre)) % len(per)
    return ep_normalize(OMEGA, per[r:] + per[:r])


def sample_points(spec):
    """The points of X with preperiod and period of length at most 2."""
    points = {ep_normalize(pre, per) for pre in SHORT_WORDS for per in SHORT_WORDS if per}
    return sorted((p for p in points if in_shift(p, spec.forbidden)),
                  key=lambda p: (p.preperiod, p.period))


def act(x, vec: dict) -> dict:
    """The operator of ``x`` applied to a finitely supported function on
    points, given as a map from points to nonzero values."""
    ring = x.algebra.ring
    forbidden = x.algebra.graph.spec.forbidden
    out: dict = {}
    for point, c in vec.items():
        for (u, v), fn in x.components.items():
            if point.prefix(len(v)) != v:
                continue
            tail = drop(point, len(v))
            image = ep_normalize(u + tail.preperiod, tail.period)
            if not in_shift(image, forbidden):
                continue
            f = next((fn.coeffs[image.prefix(n)] for n in sorted({len(w) for w in fn.coeffs})
                      if image.prefix(n) in fn.coeffs), None)
            if f is not None:
                out[image] = ring.add(out.get(image, ring.zero()), ring.mul(f, c))
    return {p: c for p, c in out.items() if not ring.is_zero(c)}


def rep(x, points) -> list[dict]:
    """The operator of ``x`` on the point mass at each sample point."""
    one = x.algebra.ring.one()
    return [act(x, {p: one}) for p in points]


def add_vectors(ring, a: dict, b: dict) -> dict:
    out = dict(a)
    for p, c in b.items():
        out[p] = ring.add(out.get(p, ring.zero()), c)
    return {p: c for p, c in out.items() if not ring.is_zero(c)}


@pytest.fixture(scope="module")
def setups():
    out = {}
    for name, spec in SHIFTS.items():
        g = build_follower_graph(spec)
        sets = [full_set(g)] + [cylinder(g, w) for w in SHORT_WORDS if w]
        out[name] = (g, sets, sample_points(spec))
    return out


terms = st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                           st.sampled_from(SHORT_WORDS),
                           st.integers(0, 6),
                           st.sampled_from(SHORT_WORDS)),
                 min_size=1, max_size=3)
oracle_settings = settings(max_examples=25, deadline=None)


def build(algebra, sets, draw_terms):
    """The sum of ``k.s(alpha) p(A) st(beta)`` over the drawn terms."""
    x = algebra.zero()
    for k, alpha, i, beta in draw_terms:
        x = x + algebra.mono(alpha, sets[i], beta, k)
    return x


def test_monomial_acts_by_its_definition(setups):
    # ``build`` takes its terms from ``mono``, so ``mono`` is checked here
    # against the definition of ``k s_alpha p_A s_beta^*``: it sends the
    # point mass at ``beta.y`` to ``k`` times the one at ``alpha.y`` when
    # ``y`` is in A and both are points of X, and kills the others.  A is
    # the cylinder of ``SHORT_WORDS[i]``, the word of ``sets[i]``.
    for name, (g, sets, points) in setups.items():
        forbidden = g.spec.forbidden
        for alpha, (i, a_word), beta in product(SHORT_WORDS, enumerate(SHORT_WORDS), SHORT_WORDS):
            expected = []
            for point in points:
                image = None
                if point.prefix(len(beta)) == beta:
                    y = drop(point, len(beta))
                    image = ep_normalize(alpha + y.preperiod, y.period)
                    if y.prefix(len(a_word)) != a_word or not in_shift(image, forbidden):
                        image = None
                expected.append(image)
            for ring, k in [(ZZ, 1), (ZZ, -2), (Zmod(6), 2), (Zmod(6), 3), (Zmod(6), -1),
                            (Zmod(6), 6)]:
                value = ring.parse_scalar(str(k))
                want = [{} if image is None or ring.is_zero(value) else {image: value}
                        for image in expected]
                x = SubshiftAlgebra(g, ring).mono(alpha, sets[i], beta, k)
                assert rep(x, points) == want, (name, ring, k, alpha, a_word, beta)


def _s(algebra, alpha):
    """``s_alpha`` by the checked constructor, not by ``mono``: one entry
    ``alpha`` at ``(alpha, omega)``, and zero for an illegal ``alpha``."""
    g = algebra.graph
    if not g.is_prefix_legal(alpha):
        return algebra.zero()
    return AlgebraElement(algebra, {(alpha, OMEGA): CoeffFn(g, {alpha: algebra.ring.one()})})


def test_monomial_is_the_product_of_its_factors():
    # ``mono`` builds one component; the product of the generators, built
    # by the checked constructor (``s_beta^*`` as the star of ``s_beta``)
    # and ``gen_p``, is the same element.  The shifts are the five census
    # shifts and L_2..L_4; the ring and the scalar cycle through every pair.
    ks = [None, 2, -1, 3, 6]
    census = [SHIFTS[name] for name in ("full2", "golden_mean", "y", "period2")]
    n = 0
    for spec in [*census, SftSpec.make("abc", ["cc", "ab"]), *(l_spec(m) for m in (2, 3, 4))]:
        g = build_follower_graph(spec)
        words = [w for size in range(3) for w in product(range(len(spec.alphabet)), repeat=size)]
        sets = [None, full_set(g)] + [f(w) for w in words if w for f in (
            partial(cylinder, g), lambda w: c_set(g, w, OMEGA),
            lambda w: cylinder(g, w).complement())]
        algebras = [SubshiftAlgebra(g, ZZ), SubshiftAlgebra(g, Zmod(6))]
        for alpha, a_set, beta in product(words, sets, words):
            n += 1
            algebra, k = algebras[n % 2], ks[n % len(ks)]
            ring = algebra.ring
            scalar = ring.one() if k is None else ring.parse_scalar(str(k))
            factors = (_s(algebra, alpha).scale(scalar)
                       * algebra.gen_p(full_set(g) if a_set is None else a_set)
                       * _s(algebra, beta).star())
            assert algebra.mono(alpha, a_set, beta, k).components == factors.components, \
                (spec, ring, k, alpha, a_set, beta)


@pytest.mark.parametrize("name", SHIFTS)
@oracle_settings
@given(ring=st.sampled_from(RINGS), xs=terms, ys=terms)
def test_product_is_composition(setups, name, ring, xs, ys):
    g, sets, points = setups[name]
    algebra = SubshiftAlgebra(g, ring)
    x, y = build(algebra, sets, xs), build(algebra, sets, ys)
    composed = [act(x, vec) for vec in rep(y, points)]
    assert rep(x * y, points) == composed


@pytest.mark.parametrize("name", SHIFTS)
@oracle_settings
@given(ring=st.sampled_from(RINGS), xs=terms, ys=terms)
def test_sum_is_sum_of_operators(setups, name, ring, xs, ys):
    g, sets, points = setups[name]
    algebra = SubshiftAlgebra(g, ring)
    x, y = build(algebra, sets, xs), build(algebra, sets, ys)
    summed = [add_vectors(ring, a, b) for a, b in zip(rep(x, points), rep(y, points))]
    assert rep(x + y, points) == summed


@pytest.mark.parametrize("name", SHIFTS)
@oracle_settings
@given(ring=st.sampled_from(RINGS), xs=terms)
def test_reduction_witness_acts_as_its_form(setups, name, ring, xs):
    g, sets, points = setups[name]
    algebra = SubshiftAlgebra(g, ring)
    x = build(algebra, sets, xs)
    if x.is_zero():
        return
    w = reduce(x)
    assert rep(w.mu * x * w.nu, points) == rep(embed_form(algebra, w.form), points)


# -- reductions around cycles without exit ---------------------------------------------


def cycle_shifts(count: int, seed: int) -> list:
    """The first ``count`` seeded random shifts that have a minimal cycle
    without exit, each with its graph and its ``(A, c)`` pairs."""
    out = []
    for spec in random_specs(10 * count, seed):
        try:
            g = build_follower_graph(spec)
        except EmptyShift:
            continue
        cycles = find_cycles_without_exit(g)
        if cycles:
            out.append((g, cycles))
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} shifts with a cycle without exit")


def cycle_points(spec, c) -> list:
    """``c^inf``, and ``w.c^inf`` and ``w.a^inf`` for the words ``w`` of at
    most two letters, where they are points of X; ``a`` is the first
    letter."""
    words = [w for size in range(3) for w in product(range(len(spec.alphabet)), repeat=size)]
    points = {ep_normalize(w, period) for w in words for period in (c, (0,))}
    return sorted((p for p in points if in_shift(p, spec.forbidden)),
                  key=lambda p: (p.preperiod, p.period))


def test_reductions_around_cycles_act_as_their_forms():
    """Elements ``g0 p_A + sum_i g_i s_{c^q} p_A`` at a cycle ``(A, c)``
    without exit, in half of the draws plus a noise monomial
    ``s_alpha st_beta``, reduce to witnesses whose operator
    ``mu o x o nu`` is the operator of the form, composed point by point
    without ``mul``."""
    rng = random.Random(5)
    reductions = cycle_forms = 0
    for g, cycles in cycle_shifts(40, seed=5):
        noise = words_up_to(g, 2)
        for a_set, c in cycles:
            points = cycle_points(g.spec, c)
            assert ep_normalize(OMEGA, c) in points
            for ring in RINGS:
                algebra = SubshiftAlgebra(g, ring)
                one, p_a = ring.one(), algebra.gen_p(a_set)

                def draw_coefficient():
                    return ring.parse_scalar(str(rng.choice([-3, -2, -1, 1, 2, 3, 4])))

                for _ in range(3):
                    x = p_a.scale(draw_coefficient())
                    for q in sorted(rng.sample(range(1, 4), rng.randint(0, 2))):
                        x = x + (algebra.elem_s(c * q) * p_a).scale(draw_coefficient())
                    if rng.random() < 0.5:
                        x = x + algebra.mono(rng.choice(noise), full_set(g),
                                             rng.choice(noise)).scale(draw_coefficient())
                    if x.is_zero():
                        continue
                    w = reduce(x)
                    reductions += 1
                    cycle_forms += isinstance(w.form, CycleForm)
                    form = embed_form(algebra, w.form)
                    for point in points:
                        composed = act(w.mu, act(x, act(w.nu, {point: one})))
                        assert composed == act(form, {point: one}), (g.spec, c, point)
    assert reductions >= 200 and cycle_forms >= 150, (reductions, cycle_forms)
