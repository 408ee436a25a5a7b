"""Structural consequences of the reduction machinery.

Three groups of tools: enumeration of the minimal cycles without exit in a
shift (the hypothesis of the uniqueness theorem is that there are none), the
isomorphism between a corner at such a cycle and Laurent polynomials, and
spot checks backing semiprimeness over coefficient domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraElement, SubshiftAlgebra
from .clopen import (ClopenSet, CycleKind, c_set, classify_cycle, cylinder, empty_set,
                     full_set)
from .errors import (BadArgument, InternalNonzeroViolation, NotADomain,
                     NotInCorner, NotMinimalCycle)
from .reduction import ReductionWitness, embed_form
from .rings import ZZ
from .shift import FollowerGraph
from .words import OMEGA, Word


def find_cycles_without_exit(g: FollowerGraph) -> list[tuple[ClopenSet, Word]]:
    """All minimal cycles without exit, as (singleton set, primitive word)
    pairs, ordered by the cycle's least state.

    A cycle without exit is a singleton clopen set, which forces its word's
    forced path to close inside the out-degree-1 part of the follower graph;
    conversely every such graph cycle yields one.  A state (a proper prefix
    of a forbidden word) lies on one iff the forced point from it is purely
    periodic, with the cycle word as its period; each cycle is reported at
    the cylinder of the least m-letter window of its forced orbit, read from
    the states, so no word of length m is enumerated.
    """
    cycles, m = {}, g.m  # the least m-letter window of each forced orbit -> the period read from it
    for i in range(g.n_states):
        point = g.unique_extension(OMEGA, i)
        if point is not None and not point.preperiod:
            n = len(point.period)
            stream = point.prefix(2 * n + m)
            r = min(range(n), key=lambda k: stream[k:k + m])
            cycles[stream[r:r + m]] = stream[r:r + n]
    results = []
    for s, alpha in sorted(cycles.items()):
        a_set = cylinder(g, s)
        cc = classify_cycle(a_set, alpha)
        if cc.kind is not CycleKind.CYCLE_WITHOUT_EXIT or not cc.minimal:
            raise InternalNonzeroViolation(
                "a forced graph cycle is not a minimal cycle without exit")
        results.append((a_set, alpha))
    return results


def accumulate(out: dict, items, add, is_zero) -> dict:
    """Add the ``(key, value)`` pairs into ``out`` with ``add``, dropping a
    key whose sum ``is_zero``; returns ``out``."""
    for key, value in items:
        if key in out:
            value = add(out[key], value)
            if is_zero(value):
                del out[key]
                continue
        out[key] = value
    return out


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial as a finitely supported exponent-to-value map."""

    ring: object
    coeffs: dict[int, object] = field(default_factory=dict)

    def __post_init__(self):
        clean = {n: c for n, c in self.coeffs.items() if not self.ring.is_zero(c)}
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "LaurentPoly") -> "LaurentPoly":
        ring = self.ring
        out = accumulate(dict(self.coeffs), other.coeffs.items(), ring.add, ring.is_zero)
        return LaurentPoly(ring, out)

    def mul(self, other: "LaurentPoly") -> "LaurentPoly":
        ring = self.ring
        terms = ((n + m, ring.mul(c, d))
                 for n, c in self.coeffs.items() for m, d in other.coeffs.items())
        return LaurentPoly(ring, accumulate({}, terms, ring.add, ring.is_zero))

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.ring == other.ring \
            and self.coeffs == other.coeffs

    __hash__ = None

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs):
            c = self.ring.format(self.coeffs[n])
            if n == 0:
                parts.append(c)
            elif n == 1:
                parts.append(f"{c} x")
            else:
                parts.append(f"{c} x^{n}")
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += " - " + part[1:]
            else:
                text += " + " + part
        return text

    def __repr__(self):
        return f"LaurentPoly({self.format()})"


def _require_minimal_cycle(a: ClopenSet, c: Word):
    cc = classify_cycle(a, c)
    if cc.kind is not CycleKind.CYCLE_WITHOUT_EXIT or not cc.minimal:
        word = a.graph.spec.word_to_str(c)
        raise NotMinimalCycle(f"({a.format()}, {word}) is not a minimal cycle without exit")


def corner_project(x: AlgebraElement, a: ClopenSet) -> AlgebraElement:
    """``p_A x p_A``."""
    proj = x.algebra.gen_p(a)
    return proj * x * proj


def corner_to_laurent(x: AlgebraElement, a: ClopenSet, c: Word) -> LaurentPoly:
    """Read a corner element as a Laurent polynomial: the coefficient of
    ``x^n`` sits at the graded component ``(c^n, omega)`` for positive n, at
    ``(omega, c^{|n|})`` for negative n, and at ``(omega, omega)`` for n=0."""
    _require_minimal_cycle(a, c)
    algebra = x.algebra
    if not corner_project(x, a).equals(x):
        raise NotInCorner("element does not equal p_A x p_A")
    coeffs: dict[int, object] = {}
    for (u, v), fn in x.components.items():
        if v == OMEGA and u == OMEGA:
            n = 0
        elif v == OMEGA and len(u) % len(c) == 0 and c * (len(u) // len(c)) == u:
            n = len(u) // len(c)
        elif u == OMEGA and len(v) % len(c) == 0 and c * (len(v) // len(c)) == v:
            n = -(len(v) // len(c))
        else:
            raise NotInCorner(f"component {(u, v)} lies outside the c-power family")
        gamma = fn.scalar()
        if gamma is None:
            raise NotInCorner(f"component {(u, v)} is not a scalar multiple")
        coeffs[n] = gamma
    return LaurentPoly(algebra.ring, coeffs)


def laurent_to_corner(poly: LaurentPoly, algebra: SubshiftAlgebra,
                      a: ClopenSet, c: Word) -> AlgebraElement:
    """Inverse map: ``x^n`` goes to ``s_c^n p_A``, built as one monomial
    (negative powers use the starred generator and a product)."""
    _require_minimal_cycle(a, c)
    proj = algebra.gen_p(a)
    acc = algebra.zero()
    for n, coeff in poly.coeffs.items():
        if n >= 0:
            term = algebra.mono(c * n, a, OMEGA, coeff)
        else:
            term = (algebra.elem_s_star(c * (-n)) * proj).scale(coeff)
        acc = acc + term
    return acc


def square_nonzero_check(witness: ReductionWitness) -> bool:
    """Test that the reduced element of a witness from ``reduce``, which is
    its embedded form, squares to nonzero.  Over a domain this always holds,
    which is the computational content of semiprimeness."""
    algebra = witness.mu.algebra
    if not algebra.ring.is_domain:
        raise NotADomain("square check requires a coefficient domain")
    y = embed_form(algebra, witness.form)
    return not (y * y).is_zero()


@dataclass
class RelationReport:
    checks: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [f"{self.checks} checks, {len(self.failures)} failures"]
        lines.extend(self.failures)
        return "\n".join(lines)


# The most legal words, the empty one included, that relations_selftest
# checks; its checks grow with the square of their number, so a length bound
# with more words is refused before they are checked.
MAX_SELFTEST_WORDS = 32


def relations_selftest(g: FollowerGraph, max_len: int) -> RelationReport:
    """Exhaustively check the defining relations over the integers up to the
    given word length.

    Family (i): projection identities over cylinders, followers and their
    complements; family (ii): the partial-isometry identities per letter;
    family (iii): ``s_beta s_alpha^* s_alpha s_beta^* = p_{C(alpha,beta)}``
    over all legal word pairs.  Raises :class:`BadArgument` for a negative
    ``max_len`` and for one with more than :data:`MAX_SELFTEST_WORDS` legal
    words up to it.
    """
    if max_len < 0:
        raise BadArgument(f"the word length bound must be >= 0, got {max_len}")
    words: list[Word] = [OMEGA]
    for n in range(1, max_len + 1):  # stops at the first length past the bound
        words.extend(g.legal_words(n))
        if len(words) > MAX_SELFTEST_WORDS:
            raise BadArgument(f"more than {MAX_SELFTEST_WORDS} legal words "
                              f"have length at most {max_len}")
    algebra = SubshiftAlgebra(g, ZZ)
    checks = 0
    failures: list[str] = []
    spec = g.spec

    def note(ok: bool, label: str):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(f"residual: {label}")

    one = algebra.one()
    note(algebra.gen_p(full_set(g)) == one, "p(X) = 1")
    note(algebra.gen_p(empty_set(g)).is_zero(), "p(0) = 0")

    family = []
    for w in words:
        family.append(("Z(%s)" % spec.word_to_str(w), cylinder(g, w)))
        family.append(("F(%s)" % spec.word_to_str(w), c_set(g, w, OMEGA)))
        family.append(("!Z(%s)" % spec.word_to_str(w), cylinder(g, w).complement()))
    for la, sa in family:
        for lb, sb in family:
            pa, pb = algebra.gen_p(sa), algebra.gen_p(sb)
            note(pa * pb == algebra.gen_p(sa.intersect(sb)),
                 f"p({la} & {lb}) = p({la}) p({lb})")
            note(pa + pb - algebra.gen_p(sa.intersect(sb))
                 == algebra.gen_p(sa.union(sb)),
                 f"p({la} | {lb}) = p + p - p(&)")

    for a in range(g.n_letters):
        sa, sas = algebra.elem_s((a,)), algebra.elem_s_star((a,))
        sym = spec.alphabet[a]
        note(sa * sas * sa == sa, f"s({sym}) st({sym}) s({sym}) = s({sym})")
        note(sas * sa * sas == sas, f"st({sym}) s({sym}) st({sym}) = st({sym})")

    for alpha in words:
        for beta in words:
            lhs = algebra.elem_s(beta) * algebra.elem_s_star(alpha) \
                * algebra.elem_s(alpha) * algebra.elem_s_star(beta)
            rhs = algebra.gen_p(c_set(g, alpha, beta))
            note(lhs == rhs,
                 f"s({spec.word_to_str(beta)}) st({spec.word_to_str(alpha)}) "
                 f"s({spec.word_to_str(alpha)}) st({spec.word_to_str(beta)}) "
                 f"= p(C)")
    return RelationReport(checks, failures)
