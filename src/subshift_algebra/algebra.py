"""Faithful arithmetic for the unital algebra of a shift of finite type.

Elements are stored in the skew-ring normal form: a finitely supported map
from reduced free-group word pairs ``(u, v)`` (meaning the group element
``u v^{-1}``) to coefficient functions supported on clopen sets.  The
component at ``(u, v)`` must be supported inside ``C(v, u)``: it is stored
as the canonical prefix code of legal words ``u.q`` (none shorter than
``u``), and each satisfies ``F(u.q) <= F(v.q)``, which for ``|q| >= m``
says that ``v.q`` is legal.  A support is checked once, where it enters:
the constructor checks the pair, drops zero values and runs
``clopen.canonical``, the check that sets share.  The operations keep the
invariant, so their results take the merge-only path
(:meth:`AlgebraElement._merged`): a sum or product can complete a family of
siblings, which is merged, but nothing is checked again.

Multiplication follows the partial-action formula: to multiply a component
``f`` at ``s = (u, v)`` with ``g`` at ``t = (u', v')``, translate the support
of ``f`` by ``u.p -> v.p``, multiply pointwise with ``g`` on the common
refinement of the two codes, translate back by ``v.q -> u.q``, and place the
result at the reduced product ``s t``.  If the reduced product is not of the
shape (positive word)(negative word)^{-1} the contribution is zero.  It is
one pass over the component pairs: each left component is translated once,
and the tail memo of ``(v, u)`` is fetched once for it, so each product's
words go back to ``u.q`` straight into the dict of the pair they land at.

Zero is the empty component map; because zero coefficients are purged
eagerly and every component is stored canonically, ``is_zero`` and
``equals`` are exact for every coefficient ring, including ones with zero
divisors.

This module keeps the arithmetic of the index pairs; the coefficient
functions (``clopen.CoeffFn``) and their operations live in ``clopen``.
"""

from __future__ import annotations

from functools import partial

from .clopen import (MAX_PRINTED_LETTERS, MAX_PRINTED_WORDS, ClopenSet, CoeffFn, canonical,
                     full_set, merge_siblings, relative_range, translate_into)
from .errors import BadArgument, ElementTooLarge, RingMismatch
from .rings import Ring
from .shift import FollowerGraph
from .words import OMEGA, Word

Pair = tuple[Word, Word]

# The most component pairs (the product of the factors' component counts) that
# one product multiplies; a larger product is refused before any pair is.
MAX_PRODUCT_PAIRS = 2 ** 14


def _common_prefix_len(a: Word, b: Word) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def _strip_common_suffix(u: Word, v: Word) -> Pair:
    k = 0
    while k < len(u) and k < len(v) and u[-1 - k] == v[-1 - k]:
        k += 1
    return (u[:len(u) - k], v[:len(v) - k]) if k else (u, v)


def _add_into(out: dict[Pair, CoeffFn], t: Pair, fn: CoeffFn, ring: Ring) -> None:
    """Add ``fn`` at the pair ``t`` of ``out``; a pair whose sum is zero is
    dropped."""
    if t in out:
        fn = out[t].add(fn, ring)
        if fn.is_zero():
            del out[t]
            return
    out[t] = fn


class SubshiftAlgebra:
    """Context object: a shift's follower graph plus a coefficient ring."""

    def __init__(self, graph: FollowerGraph, ring: Ring):
        self.graph = graph
        self.ring = ring

    # -- constructors ---------------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.gen_p(full_set(self.graph))

    def gen_p(self, a: ClopenSet) -> "AlgebraElement":
        """``p_A``; the set was checked when it was built."""
        if a.graph is not self.graph:
            raise RingMismatch("clopen set belongs to a different shift")
        fn = CoeffFn(a.graph, dict.fromkeys(a.coeffs, self.ring.one()))
        return AlgebraElement._merged(self, {(OMEGA, OMEGA): fn})

    def elem_s(self, alpha: Word) -> "AlgebraElement":
        """The monomial ``s_alpha``, one entry ``alpha`` (``s_omega`` is the
        unit); zero if ``alpha`` is not legal."""
        if not self.graph.is_prefix_legal(alpha):
            return self.zero()
        fn = CoeffFn(self.graph, {alpha: self.ring.one()})
        return AlgebraElement._merged(self, {(alpha, OMEGA): fn})

    def elem_s_star(self, beta: Word) -> "AlgebraElement":
        """``s_beta^*``, the star of :meth:`elem_s`: one entry ``beta`` at
        ``(beta, omega)`` translated to ``(omega, beta)``."""
        if not self.graph.is_prefix_legal(beta):
            return self.zero()
        fn = CoeffFn(self.graph, {beta: self.ring.one()}).translate(beta, OMEGA)
        return AlgebraElement._merged(self, {(OMEGA, beta): fn})

    def mono(self, alpha: Word, a: ClopenSet | None, beta: Word, k=None) -> "AlgebraElement":
        """``k s_alpha p_A s_beta^*`` (``k`` one by default, and ``a=None``
        the whole space), built as its one component: the value ``k`` on the
        words ``alpha.q``, for ``q`` in the common refinement of ``A`` with
        the code of ``F(alpha) & F(beta)`` below ``alpha``
        (:meth:`~.shift.FollowerGraph.follower_code`), that are legal.  They
        keep the W-constraint: at each word ``t`` of that code
        ``F(alpha.t) <= F(beta.t)``, and an inclusion of follower sets passes
        to every extension.  The component sits at the reduced pair of
        ``(alpha, beta)``.  Zero exactly when ``k`` is zero or ``A``,
        ``F_alpha`` and ``F_beta`` have empty intersection."""
        g, ring = self.graph, self.ring
        if a is not None and a.graph is not g:
            raise RingMismatch("clopen set belongs to a different shift")
        k = ring.one() if k is None else ring.mul(ring.one(), k)  # an int becomes a ring value
        if ring.is_zero(k):
            return self.zero()
        words = g.follower_code(g.reach(beta), g.reach(alpha))
        if a is not None:
            words =[q for q, _x, _y in CoeffFn(g, dict.fromkeys(words, k))._overlay(a)]
        memo = g.tails(alpha, beta)
        fn = CoeffFn(g, {alpha + q: k for q in words if memo[q]})
        return AlgebraElement._merged(self, {_strip_common_suffix(alpha, beta): fn})

    def __eq__(self, other):
        return isinstance(other, SubshiftAlgebra) and \
            other.graph is self.graph and other.ring == self.ring

    __hash__ = None


class AlgebraElement:
    """An element in canonical skew-ring form: each component is stored as
    its canonical prefix code, with ``u`` as the floor of the component at
    ``(u, v)``.  Immutable by convention."""

    def __init__(self, algebra: SubshiftAlgebra, components: dict[Pair, CoeffFn]):
        """The checked entry point: raises ``ValueError`` for a pair that is
        not reduced or a support that :func:`~.clopen.canonical` rejects,
        and drops zero values; ``canonical`` then takes the merge-only path."""
        self.algebra = algebra
        g, ring = algebra.graph, algebra.ring
        clean: dict[Pair, CoeffFn] = {}
        for (u, v), fn in components.items():
            if u and v and u[-1] == v[-1]:
                raise ValueError(f"component pair not reduced: {(u, v)}")
            coeffs = fn.coeffs
            if any(map(ring.is_zero, coeffs.values())):
                coeffs = {w: c for w, c in coeffs.items() if not ring.is_zero(c)}
            if coeffs:
                clean[(u, v)] = CoeffFn(g, canonical(g, coeffs, u, v))
        self.components = clean

    @classmethod
    def _merged(cls, algebra: SubshiftAlgebra,
                components: dict[Pair, CoeffFn]) -> "AlgebraElement":
        """The element of an operation's result: components at reduced pairs,
        built from checked ones, with nonzero values on prefix codes that
        keep the W-constraint.  Each is only merged (:func:`merge_siblings`
        above ``|u|``), not checked again; an empty one is dropped."""
        g = algebra.graph
        clean: dict[Pair, CoeffFn] = {}
        for t, fn in components.items():
            if fn.coeffs:
                coeffs = merge_siblings(g, fn.coeffs, len(t[0]))
                clean[t] = fn if coeffs is fn.coeffs else CoeffFn(g, coeffs)
        x = cls.__new__(cls)
        x.algebra, x.components = algebra, clean
        return x

    # -- basic structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def f_grade_support(self) -> set[Pair]:
        return set(self.components)

    def z_grade_component(self, n: int) -> "AlgebraElement":
        comps = {t: fn for t, fn in self.components.items()
                 if len(t[0]) - len(t[1]) == n}
        return AlgebraElement._merged(self.algebra, comps)

    def support_set(self, t: Pair) -> ClopenSet:
        words = self.components[t].coeffs
        return ClopenSet._merged(self.algebra.graph, dict.fromkeys(words, True))

    def tail_set(self, t: Pair) -> ClopenSet:
        """For a positive component ``(u, omega)``: the set of tails, i.e.
        ``r(support, u)``."""
        u, v = t
        if v != OMEGA:
            raise BadArgument(f"tail sets are defined for positive components, not {t}")
        return relative_range(self.components[t], u)

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if other.algebra.graph is not self.algebra.graph \
                or other.algebra.ring != self.algebra.ring:
            raise RingMismatch("elements live in different algebras")

    def _sum(self, other: "AlgebraElement", neg=None) -> "AlgebraElement":
        """``self + other``, or ``self - other`` with ``neg``, the ring's
        negation, applied to the values of ``other``."""
        self._check(other)
        g, ring = self.algebra.graph, self.algebra.ring
        out = dict(self.components)
        for t, fn in other.components.items():
            if neg is not None:
                fn = CoeffFn(g, {w: neg(c) for w, c in fn.coeffs.items()})
            _add_into(out, t, fn, ring)
        return AlgebraElement._merged(self.algebra, out)

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._sum(other)

    def _map_values(self, f) -> "AlgebraElement":
        """``f`` applied to every coefficient value; zero values are dropped
        (a ring with zero divisors can send a nonzero value to zero)."""
        g, is_zero = self.algebra.graph, self.algebra.ring.is_zero
        return AlgebraElement._merged(self.algebra, {
            t: CoeffFn(g, {w: y for w, c in fn.coeffs.items() if not is_zero(y := f(c))})
            for t, fn in self.components.items()})

    def negate(self) -> "AlgebraElement":
        return self._map_values(self.algebra.ring.neg)

    def scale(self, r) -> "AlgebraElement":
        return self._map_values(partial(self.algebra.ring.mul, r))

    def mul(self, other: "AlgebraElement") -> "AlgebraElement":
        """One pass over the component pairs, in order; a pair that two of
        them reach holds the sum of their contributions."""
        self._check(other)
        pairs = len(self.components) * len(other.components)
        if pairs > MAX_PRODUCT_PAIRS:
            raise ElementTooLarge(
                f"a product of {pairs} component pairs, more than {MAX_PRODUCT_PAIRS}")
        g, ring = self.algebra.graph, self.algebra.ring
        times, is_zero = ring.mul, ring.is_zero
        out: dict[Pair, CoeffFn] = {}
        for (u, v), f in self.components.items():
            moved = None  # f translated by u.p -> v.p, and the memo back: made once
            for (u2, v2), h in other.components.items():
                k = _common_prefix_len(v, u2)
                v1, u21 = v[k:], u2[k:]
                if v1 and u21:
                    continue  # product index leaves the (pos)(neg)^-1 family
                if moved is None:
                    moved, back = f.translate(u, v), g.tails(v, u)
                coeffs = {}
                for w, x, y in moved._overlay(h):
                    p = times(x, y)
                    if not is_zero(p):
                        translate_into(coeffs, ((w, p),), v, u, back)
                if not coeffs:
                    continue
                if not v1:
                    pair = _strip_common_suffix(u + u21, v2)
                else:
                    pair = (u, v2 + v1)
                _add_into(out, pair, CoeffFn(g, coeffs), ring)
        return AlgebraElement._merged(self.algebra, out)

    def star(self) -> "AlgebraElement":
        out = {(v, u): fn.translate(u, v) for (u, v), fn in self.components.items()}
        return AlgebraElement._merged(self.algebra, out)

    def equals(self, other: "AlgebraElement") -> bool:
        self._check(other)
        return self.components == other.components

    # -- operators ---------------------------------------------------------------

    __add__ = add
    __mul__ = mul
    __neg__ = negate

    def __sub__(self, other):
        return self._sum(other, self.algebra.ring.neg)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    # -- presentation --------------------------------------------------------------

    def format(self) -> str:
        if self.is_zero():
            return "0"
        g, ring = self.algebra.graph, self.algebra.ring
        spec = g.spec
        lines = []
        words, letters = MAX_PRINTED_WORDS, MAX_PRINTED_LETTERS  # one bound for all the lines
        for (u, v) in sorted(self.components):
            fn = self.components[(u, v)]
            n = max(len(u) + g.m, fn.longest())
            coeffs = fn.at_length(n, words, letters)
            words -= len(coeffs)
            letters -= len(coeffs) * n
            body = " ; ".join(
                f"{ring.format(coeffs[w])} {spec.word_to_str(w)}"
                for w in sorted(coeffs))
            lines.append(f"{spec.word_to_str(u)} {spec.word_to_str(v)}^-1 | {body}")
        return "\n".join(lines)

    def __repr__(self):
        return f"AlgebraElement(\n{self.format()}\n)"
