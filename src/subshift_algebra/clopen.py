"""Coefficient functions and clopen sets of a shift of finite type: the one
home of the support representation.

A support is a :class:`CoeffFn`: a prefix code of legal words, each standing
for its cylinder, mapped to nonzero values.  It is kept canonical: the
shortest words on whose cylinders the function is constant, so that no full
family of legal siblings shares one value above a floor (the word ``u`` of a
component at ``(u, v)``; a set has none), and equal functions have equal
dicts.

A support is checked once, where it enters: :func:`canonical`, the check of
the public constructors of sets and elements, tests that the words are
legal, form a prefix code and satisfy ``F(u.q) <= F(v.q)``, then merges.
Operations keep that invariant (a translation raises on a word outside
``C(new, old)``, and the common refinement emits only legal extensions of
checked words), so their results are only merged (:func:`merge_siblings`):
a sum or product can complete a family of siblings.

A clopen set is the Boolean-valued coefficient function (:class:`ClopenSet`,
its one value ``True``): union is the sum, intersection the product, and
difference the part of the common refinement that the other set misses.  So the common
refinement of two codes (:meth:`CoeffFn._overlay`) exists once, in
``CoeffFn``, and refines no operand past the finer of its words.

Follower sets decide how coarse a word may be (Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, section 3.2).  A word
``alpha.t`` with ``|t| >= m`` has the follower set of its last m letters, so
``{x : alpha.x in Z_{alpha.t}}`` is the cylinder ``Z_t``; a shorter ``t``
gives only ``t.F(alpha.t)``, the words ``t.s`` for ``s`` in the code of
``F(alpha.t) & F(t)`` (:meth:`FollowerGraph.follower_code`).  In the same
way ``C(alpha, beta) = {beta.x in X : alpha.x in X}`` is ``beta`` followed
by the code of ``F(alpha) & F(beta)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

from .errors import BadArgument, ElementTooLarge, InternalNonzeroViolation
from .shift import FollowerGraph
from .words import OMEGA, EpPoint, Word, ep_normalize, is_minimal_cycle_word

# The most words, and the most letters in them, that a printed form lists
# (CoeffFn.at_length); a larger one is refused before more are held.
MAX_PRINTED_WORDS = 2 ** 18
MAX_PRINTED_LETTERS = 2 ** 22


@dataclass(slots=True)
class CoeffFn:
    """A locally constant function: a prefix code of legal words mapped to
    nonzero values, constant on each word's cylinder and zero off the
    stored words.  Sets and the components of algebra elements hold it in
    canonical form; the operations below return plain functions on prefix
    codes of legal words, which those holders merge
    (:func:`merge_siblings`) without checking them again.  Immutable by
    convention: a frozen dataclass is built several times slower, on
    ``mul``'s hot path."""

    graph: FollowerGraph
    coeffs: dict[Word, object]

    def is_zero(self) -> bool:
        return not self.coeffs

    def scalar(self):
        """The one value taken on the support, or ``None`` if there are several."""
        vals = set(self.coeffs.values())
        return vals.pop() if len(vals) == 1 else None

    def longest(self) -> int:
        """The length of the longest stored word (0 for none)."""
        return max(map(len, self.coeffs), default=0)

    def at_length(self, n: int, words: int = MAX_PRINTED_WORDS,
                  letters: int = MAX_PRINTED_LETTERS) -> dict[Word, object]:
        """The function on the legal words of length ``n``, at least the
        longest stored word: the printed form.  Raises
        :class:`ElementTooLarge` past ``words`` words or ``letters``
        letters, the room left of :data:`MAX_PRINTED_WORDS` and
        :data:`MAX_PRINTED_LETTERS`, before more are held."""
        g, out = self.graph, {}
        limit = min(words, letters // max(n, 1))  # no word held is longer than n
        for w, c in self.coeffs.items():
            found = g.extensions(w, n, limit - len(out))
            if found is None:
                raise ElementTooLarge(f"the printed form has more than {MAX_PRINTED_WORDS} "
                                      f"words or {MAX_PRINTED_LETTERS} letters")
            out.update(dict.fromkeys(found, c))
        return out

    def _overlay(self, other: "CoeffFn", left: bool = False, right: bool = False):
        """The common refinement of two codes as a list of ``(word, value,
        other value)``.  Where two words are comparable the finer one is
        listed, with both values.  With ``left`` (``right``) the words
        covering what only ``self`` (``other``) covers follow, with ``None``
        for the missing value: a word with none of the other's words below
        it as it is, and one with finer words below it carved around them
        (:func:`_carve`).  Nothing is refined further."""
        g, a, b = self.graph, self.coeffs, other.coeffs
        if other.graph is not g:
            raise ValueError("operands live over different shifts")
        if len(a) == 1 and len(b) == 1 and not (left or right):  # the common case
            (wa, x), = a.items()
            (wb, y), = b.items()
            if wb[:len(wa)] == wa:
                return [(wb, x, y)]
            return [(wa, x, y)] if wa[:len(wb)] == wb else []
        # The word of the other code that is a prefix of w, or w itself, is
        # w[:k] for one of its lengths k (w[:k] is w for k >= len(w)).
        a_lengths = sorted(set(map(len, a)))
        b_lengths = sorted(set(map(len, b)))
        below_a: dict[Word, list[Word]] = {}  # an a-word -> the b-words below it
        below_b: dict[Word, list[Word]] = {}
        out, b_only = [], []
        for w, y in b.items():
            for k in a_lengths:
                c = w[:k]
                if c in a:
                    break
            else:
                b_only.append(w)
                continue
            out.append((w, a[c], y))
            if c != w:
                below_a.setdefault(c, []).append(w)
        for w, x in a.items():
            for k in b_lengths:
                c = w[:k]
                if c in b:
                    break
            else:
                c = None
            if c is None:
                if left:
                    if w in below_a:
                        out.extend((r, x, None) for r in _carve(g, w, below_a[w]))
                    else:
                        out.append((w, x, None))
            elif c != w:
                out.append((w, x, b[c]))
                below_b.setdefault(c, []).append(w)
        if right:
            for w in b_only:
                y = b[w]
                if w in below_b:
                    out.extend((r, None, y) for r in _carve(g, w, below_b[w]))
                else:
                    out.append((w, None, y))
        return out

    def add(self, other: "CoeffFn", ring) -> "CoeffFn":
        """The sum, without its zero values."""
        out = {}
        for w, x, y in self._overlay(other, left=True, right=True):
            s = y if x is None else x if y is None else ring.add(x, y)
            if not ring.is_zero(s):
                out[w] = s
        return CoeffFn(self.graph, out)

    def times(self, other: "CoeffFn", ring) -> "CoeffFn":
        """The pointwise product, without its zero values."""
        prod = {}
        for w, x, y in self._overlay(other):
            p = ring.mul(x, y)
            if not ring.is_zero(p):
                prod[w] = p
        return CoeffFn(self.graph, prod)

    def translate(self, old: Word, new: Word) -> "CoeffFn":
        """Support translation ``old.p -> new.p`` (the partial action on
        words) of a function supported in ``C(new, old)``.  A word
        ``old.q`` goes to ``new.q`` followed by the code of
        ``F(old.q) & F(new.q)``, which is all of ``F(old.q)`` (``new.q``
        itself when ``|q| >= m``).  A word outside ``C(new, old)``, or
        not legal, raises :class:`InternalNonzeroViolation`."""
        g, out = self.graph, {}
        translate_into(out, self.coeffs.items(), old, new, g.tails(old, new))
        return CoeffFn(g, out)


def translate_into(out: dict[Word, object], items, old: Word, new: Word, memo) -> None:
    """Write the translation ``old.p -> new.p`` of the ``(word, value)``
    items into ``out``, with ``memo = g.tails(old, new)``: the one loop of
    :meth:`CoeffFn.translate`, which ``mul`` also runs on each product word."""
    k = len(old)
    for w, c in items:
        if w[:k] != old:
            raise InternalNonzeroViolation(
                f"translation prefix {old} missing from support word {w}")
        q = w[k:]
        code = memo[q]
        if not code:  # False, or the empty code of an illegal word
            raise InternalNonzeroViolation(
                f"translated word {new + q} does not follow all that {w} does"
                if code is False else f"support word {w} is not legal")
        for t in code:
            out[new + q + t] = c


def _carve(g: FollowerGraph, w: Word, below: list[Word]) -> list[Word]:
    """The words covering ``Z_w`` minus the cylinders of ``below``, proper
    extensions of ``w`` that form a prefix code: at each word on the way from
    ``w`` to them, the legal letters off their paths.  Each word below is
    walked once, and the ids met on the way give those letters."""
    path = {}  # a word on the way -> its id
    for s in below:
        ids = g.ids(s)
        for n in range(len(w), len(s)):
            path[s[:n]] = ids[n]
    inside, letters = path.keys() | below, g.out_letters
    return [p + (a,) for p, i in path.items() for a in letters[i] if p + (a,) not in inside]


# An indicator's values: "or" adds, "and" multiplies, only True is stored.
_BOOLEANS = SimpleNamespace(add=operator.or_, mul=operator.and_, is_zero=operator.not_)


class ClopenSet(CoeffFn):
    """A clopen set: its indicator, ``True`` on the stored words, built from
    any prefix code of legal words, which the constructor checks, and stored
    canonically (:func:`canonical` at ``(omega, omega)``).  Equality is
    semantic, so sets are not hashable.  The complement is computed at most
    once per set: it is kept, and its own complement is the set."""

    __slots__ = ("_complement",)

    def __init__(self, graph: FollowerGraph, words):
        super().__init__(graph, canonical(graph, dict.fromkeys(words, True)))
        self._complement = None

    @classmethod
    def _merged(cls, graph: FollowerGraph, coeffs: dict[Word, bool]) -> "ClopenSet":
        """The set of an operation's result: a prefix code of legal words,
        each mapped to ``True``, that the operation built from checked sets.
        It is only merged, not checked again."""
        s = cls.__new__(cls)
        CoeffFn.__init__(s, graph, merge_siblings(graph, coeffs, 0))
        s._complement = None
        return s

    @property
    def words(self):  # a read-only set view
        return self.coeffs.keys()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        if other.graph is not self.graph:
            raise ValueError("operands live over different shifts")
        return self.coeffs == other.coeffs

    __hash__ = None  # semantic equality; not hashable

    # -- Boolean operations: the coefficient-function operations -------------

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet._merged(self.graph, self.add(other, _BOOLEANS).coeffs)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet._merged(self.graph, self.times(other, _BOOLEANS).coeffs)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet._merged(self.graph, {w: True for w, _x, y in
                                              self._overlay(other, left=True) if y is None})

    def complement(self) -> "ClopenSet":
        c = self._complement
        if c is None:
            g = self.graph
            words = _carve(g, OMEGA, list(self.coeffs)) if self.coeffs else [OMEGA]
            c = self._complement = ClopenSet._merged(g, dict.fromkeys(words, True))
            c._complement = self
        return c

    def is_subset(self, other: "ClopenSet") -> bool:
        """Whether the difference is empty, decided without building it."""
        return all(y is not None for _w, _x, y in self._overlay(other, left=True))

    is_empty = CoeffFn.is_zero
    __or__ = union
    __and__ = intersect
    __sub__ = difference

    # -- presentation ---------------------------------------------------------

    def format(self) -> str:
        """The words at one length, the memory or the longest stored word,
        and that length."""
        spec = self.graph.spec
        n = max(self.graph.m, self.longest())
        body = " ".join(spec.word_to_str(w) for w in sorted(self.at_length(n)))
        return "{%s}@%d" % (body, n)

    def __repr__(self):
        return f"ClopenSet({self.format()})"


def canonical(g: FollowerGraph, coeffs: dict[Word, object],
              u: Word = OMEGA, v: Word = OMEGA) -> dict[Word, object]:
    """The canonical form of the support ``coeffs`` (words to nonzero
    values) of a component at ``(u, v)``; a set is one at ``(omega,
    omega)``.  The check of the public constructors: raises ``ValueError``
    unless every word is ``u.q`` with ``u.q`` legal and ``F(u.q) <= F(v.q)``
    (the W-constraint; for a set, legality) and the words form a prefix
    code.  Then merges with :func:`merge_siblings` above ``|u|``, the
    merge-only path that operation results take without this check.
    Returns ``coeffs`` itself when nothing merges."""
    k, memo = len(u), g.tails(u, v)
    for w in coeffs:
        if w[:k] != u or not memo[w[k:]]:
            raise ValueError(f"support word {w} violates the W-constraint of {(u, v)}")
    if len(set(map(len, coeffs))) > 1:
        # In sorted order a word's extensions follow it directly.
        words = sorted(coeffs)
        for a, b in zip(words, words[1:]):
            if b[:len(a)] == a:
                raise ValueError(f"support words are not a prefix code: {b}")
    return merge_siblings(g, coeffs, k)


def merge_siblings(g: FollowerGraph, values: dict[Word, object],
                   floor: int) -> dict[Word, object]:
    """The canonical form of a function given on a prefix code of legal
    words: every full family of legal siblings (a word's legal one-letter
    extensions, all stored) with one common value is replaced by the word,
    at any depth and again for the families that this completes, but never
    by a word shorter than ``floor``.  A set is the constant map.  Nothing
    is checked: it is the whole of the path that operation results take.
    Returns ``values`` itself when nothing merges."""
    if len(values) == 1:  # the common case: a word merges while it is an only child
        (w, c), = values.items()
        n = len(w)
        while n > floor and g.out_degree[g.reach(w[:n - 1][-g.m:])] == 1:
            n -= 1
        return values if n == len(w) else {w[:n]: c}
    degree, m, reach = g.out_degree, g.m, g.reach
    family: dict[Word, int] = {}  # a word -> the number of its stored children
    for w in values:
        if len(w) > floor:
            p = w[:-1]
            family[p] = family.get(p, 0) + 1
    full = [p for p, n in family.items() if n == degree[reach(p[-m:])]]
    if not full:
        return values
    out = values  # copied at the first merge
    while full:
        p = full.pop()
        kids = [p + (a,) for a in range(g.n_letters) if p + (a,) in out]
        c = out[kids[0]]
        if any(out[w] != c for w in kids):
            continue
        if out is values:
            out = dict(values)
        for w in kids:
            del out[w]
        out[p] = c
        if len(p) > floor:
            q = p[:-1]
            family[q] = family.get(q, 0) + 1
            if family[q] == degree[reach(q[-m:])]:
                full.append(q)
    return out


# -- constructors -------------------------------------------------------------


def full_set(g: FollowerGraph) -> ClopenSet:
    return ClopenSet(g, [OMEGA])


def empty_set(g: FollowerGraph) -> ClopenSet:
    return ClopenSet(g, ())


def cylinder(g: FollowerGraph, beta: Word) -> ClopenSet:
    """The cylinder ``Z_beta``; empty if ``beta`` is not prefix-legal."""
    return ClopenSet(g, [beta] if g.is_prefix_legal(beta) else ())


def c_set(g: FollowerGraph, alpha: Word, beta: Word) -> ClopenSet:
    """The generator ``C(alpha, beta) = {beta.x in X : alpha.x in X}``."""
    return ClopenSet(g, [beta + t for t in g.follower_code(g.reach(alpha), g.reach(beta))])


def relative_range(a: CoeffFn, alpha: Word) -> ClopenSet:
    """``r(A, alpha) = {x in X : alpha.x in A}`` for the support ``A`` of
    ``a``, without refining it; for a component at ``(u, omega)`` and
    ``alpha = u`` this is its tail set.  It is the translation
    ``alpha.p -> p`` (:func:`translate_into`) of the stored words under
    ``alpha``, which sends ``alpha.t`` to ``t`` followed by the code of
    ``F(alpha.t) & F(t)`` (``t`` itself when ``|t| >= m``), plus the code of
    ``F(alpha)`` when a proper prefix of ``alpha`` is stored.  Any other word
    contributes nothing, and a stored ``alpha.t`` that is not legal raises
    :class:`InternalNonzeroViolation`."""
    g, k = a.graph, len(alpha)
    memo = g.tails(alpha, OMEGA)
    out = {}
    if any(alpha[:len(w)] == w for w in a.coeffs if len(w) < k):
        out = dict.fromkeys(memo[OMEGA], True)
    translate_into(out, ((w, True) for w in a.coeffs if w[:k] == alpha), alpha, OMEGA, memo)
    return ClopenSet._merged(g, out)


def as_singleton(a: ClopenSet) -> EpPoint | None:
    """The unique point of ``a`` if it is a singleton set, else ``None``."""
    return a.graph.unique_extension(*a.words) if len(a.words) == 1 else None


class CycleKind(Enum):
    NOT_A_CYCLE = "not-a-cycle"
    CYCLE_WITH_EXIT = "cycle-with-exit"
    CYCLE_WITHOUT_EXIT = "cycle-without-exit"


@dataclass(frozen=True)
class CycleClass:
    kind: CycleKind
    minimal: bool | None = None


def classify_cycle(a: ClopenSet, alpha: Word) -> CycleClass:
    """Classify the pair ``(a, alpha)``: a cycle means ``a`` is non-empty
    and contained in ``r(a, alpha)``; it has no exit exactly when ``a`` is
    the singleton ``{alpha^inf}``, and it is minimal when ``alpha`` is not
    a proper power."""
    if not alpha:
        raise BadArgument("cycle word must be non-empty")
    if a.is_empty() or not a.is_subset(relative_range(a, alpha)):
        return CycleClass(CycleKind.NOT_A_CYCLE)
    point = as_singleton(a)
    if point is not None:
        if point != ep_normalize(OMEGA, alpha):
            raise InternalNonzeroViolation(
                "a singleton cycle set must be the periodic point of its word")
        return CycleClass(CycleKind.CYCLE_WITHOUT_EXIT, is_minimal_cycle_word(alpha))
    return CycleClass(CycleKind.CYCLE_WITH_EXIT)
