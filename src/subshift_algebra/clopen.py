"""Coefficient functions and clopen sets of a shift of finite type: the one
home of the support representation.

A support is a :class:`CoeffFn`: prefix-legal words of one length, the
resolution, each standing for its cylinder, mapped to values.  A clopen set
is the Boolean-valued coefficient function (:class:`ClopenSet`, its one
value ``True``): union is the sum, intersection the product, and difference
the product's prefix-lookup join keeping what the other set misses.  So
refinement, the common resolution and the join exist once, in ``CoeffFn``.

The cornerstone identity making this complete for memory-m shifts: with
``|p| = m``, the set ``C(alpha, beta) = {beta.x in X : alpha.x in X}`` equals
the union of the cylinders ``Z_{beta.p}`` over all junctions ``p`` such that
``alpha.p`` and ``beta.p`` are prefix-legal.  (Windows of length m+1 in
``alpha.x`` either sit inside ``alpha.p`` or inside ``x``, so legality of the
junction word plus membership of the tail decides everything.)
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

from .errors import BadArgument, InternalNonzeroViolation
from .shift import FollowerGraph
from .words import OMEGA, EpPoint, Word, ep_normalize, is_minimal_cycle_word


@dataclass(slots=True)
class CoeffFn:
    """A locally constant function: resolution-N prefix-legal words mapped
    to nonzero values, constant on each word's cylinder and zero off the
    stored words.  Immutable by convention: a frozen dataclass is built
    several times slower, on ``mul``'s hot path.  Results are built by
    ``type(self)``, so a set's are sets (a map iterates as its words)."""

    graph: FollowerGraph
    resolution: int
    coeffs: dict[Word, object]

    def is_zero(self) -> bool:
        return not self.coeffs

    def scalar(self):
        """The one value taken on the support, or ``None`` if there are several."""
        vals = set(self.coeffs.values())
        return vals.pop() if len(vals) == 1 else None

    def support(self) -> "ClopenSet":
        return ClopenSet(self.graph, self.resolution, self.coeffs)

    def tail_set(self, k: int) -> "ClopenSet":
        """The tails ``p`` of the support words ``u.p`` whose common prefix
        ``u`` has length ``k``, i.e. ``r(support, u)``."""
        return ClopenSet(self.graph, self.resolution - k, (w[k:] for w in self.coeffs))

    def refine(self, n: int) -> "CoeffFn":
        """The same function stored at resolution ``n``, never a lower one."""
        if n == self.resolution:
            return self
        if n < self.resolution:
            raise ValueError("refinement cannot lower the resolution")
        g = self.graph
        return type(self)(g, n, {e: c for w, c in self.coeffs.items()
                                 for e in g.extensions(w, n)})

    def common(self, other: "CoeffFn") -> tuple["CoeffFn", "CoeffFn"]:
        """Both functions at the larger of their resolutions."""
        if other.graph is not self.graph:
            raise ValueError("operands live over different shifts")
        n = max(self.resolution, other.resolution)
        return self.refine(n), other.refine(n)

    def equals(self, other: "CoeffFn") -> bool:
        a, b = self.common(other)
        return a.coeffs == b.coeffs

    def _join(self, other: "CoeffFn"):
        """``self``, refined only where ``other`` is finer, and the values of
        ``other`` on its words' cylinders in order (``None`` off the support),
        each looked up by the word's prefix, so ``other`` is never refined."""
        if other.graph is not self.graph:
            raise ValueError("operands live over different shifts")
        k = other.resolution
        fine = self.refine(max(self.resolution, k))
        return fine, map(other.coeffs.get, map(operator.itemgetter(slice(k)), fine.coeffs))

    def add(self, other: "CoeffFn", ring) -> "CoeffFn":
        """The sum, without its zero values."""
        a, b = self.common(other)
        return type(self)(self.graph, a.resolution, accumulate(
            dict(a.coeffs), b.coeffs.items(), ring.add, ring.is_zero))

    def times(self, other: "CoeffFn", ring) -> "CoeffFn":
        """The pointwise product, without its zero values: the finer operand
        joined with the coarser one, which is never refined."""
        fine, coarse = (self, other) if self.resolution >= other.resolution else (other, self)
        fine, values = fine._join(coarse)
        prod = {}
        for (w, c), d in zip(fine.coeffs.items(), values):
            if d is not None:
                p = ring.mul(c, d)
                if not ring.is_zero(p):
                    prod[w] = p
        return type(self)(self.graph, fine.resolution, prod)

    def translate(self, old: Word, new: Word) -> "CoeffFn":
        """Support translation ``old.p -> new.p`` (the partial action on words)."""
        g = self.graph
        k = len(old)
        i, memo = g.junctions(new)
        out = {}
        for w, c in self.coeffs.items():
            if w[:k] != old:
                raise InternalNonzeroViolation(
                    f"translation prefix {old} missing from support word {w}")
            q = w[k:]
            if not (q in memo or g.walk_junction(memo, i, q)):
                raise InternalNonzeroViolation(f"translated word {new + q} is not legal")
            out[new + q] = c
        return type(self)(g, self.resolution - k + len(new), out)


# An indicator's values: "or" adds, "and" multiplies, only True is stored.
_BOOLEANS = SimpleNamespace(add=operator.or_, mul=operator.and_, is_zero=operator.not_)


class ClopenSet(CoeffFn):
    """A clopen set: its indicator, ``True`` on the stored words.  Equality
    is semantic, so sets are not hashable."""

    def __init__(self, graph: FollowerGraph, resolution: int, words):
        if resolution < graph.m:
            raise ValueError("resolution must be at least the shift memory")
        coeffs = dict.fromkeys(words, True)
        i, memo = graph.junctions(OMEGA)
        for w in coeffs:
            if len(w) != resolution:
                raise ValueError("all stored words must have the resolution length")
            if not (w in memo or graph.walk_junction(memo, i, w)):
                raise ValueError(f"stored word is not prefix-legal: {w}")
        super().__init__(graph, resolution, coeffs)

    @property
    def words(self):  # a read-only set view
        return self.coeffs.keys()

    def refine(self, n: int) -> "ClopenSet":
        # Its own entry: perfbench's tracer counts set refinements by name.
        return super().refine(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        return self.equals(other)

    __hash__ = None  # semantic equality; not hashable

    # -- Boolean operations: the coefficient-function operations -------------

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return self.add(other, _BOOLEANS)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        return self.times(other, _BOOLEANS)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        fine, values = self._join(other)
        return ClopenSet(self.graph, fine.resolution,
                         [w for w, d in zip(fine.coeffs, values) if d is None])

    def complement(self) -> "ClopenSet":
        g, n = self.graph, self.resolution
        return ClopenSet(g, n, (w for w in g.legal_words(n) if w not in self.coeffs))

    def is_subset(self, other: "ClopenSet") -> bool:
        """Whether the difference is empty, decided without building it and
        without refining either set.  At least as fine as ``other``, each
        word looks up its prefix in ``other``; coarser, each word ``w`` needs
        all of its legal extensions to ``other``'s resolution in ``other``,
        which holds when it has as many words below ``w`` as ``w`` has
        extensions."""
        if self.resolution >= other.resolution:
            return None not in self._join(other)[1]
        if other.graph is not self.graph:
            raise ValueError("operands live over different shifts")
        g, k, n = self.graph, self.resolution, other.resolution
        below = Counter(w[:k] for w in other.coeffs)
        return all(below[w] == g.count_extensions(w, n) for w in self.coeffs)

    is_empty = CoeffFn.is_zero
    __or__ = union
    __and__ = intersect
    __sub__ = difference

    # -- presentation ---------------------------------------------------------

    def compact(self, floor: int | None = None) -> "ClopenSet":
        """The same set with full sibling families merged while every word's
        family is full, at one resolution of at least ``floor`` (default m)."""
        g = self.graph
        floor = g.m if floor is None else max(floor, g.m)
        res, words = merge_siblings(g, self.resolution, self.coeffs, floor)
        return ClopenSet(g, res if words else floor, words)

    def format(self) -> str:
        c = self.compact()
        spec = self.graph.spec
        body = " ".join(spec.word_to_str(w) for w in sorted(c.words))
        return "{%s}@%d" % (body, c.resolution)

    def __repr__(self):
        return f"ClopenSet({self.format()})"


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


def merge_siblings(g: FollowerGraph, res: int, values: dict[Word, object],
                   floor: int) -> tuple[int, dict[Word, object]]:
    """Coarsen a function given on the resolution-``res`` words one level at
    a time, as long as every word's sibling family (its parent's legal
    one-letter extensions) is fully present with one common value; never
    below ``floor``.  A set is the constant map.  Returns the new resolution
    and the map at it."""
    while res > floor and values:
        parents: dict[Word, list[Word]] = {}
        for w in values:
            parents.setdefault(w[:-1], []).append(w)
        for p, kids in parents.items():
            children = set(g.extensions(p, len(p) + 1))
            if set(kids) != children or len({values[k] for k in kids}) != 1:
                return res, values
        res -= 1
        values = {p: values[kids[0]] for p, kids in parents.items()}
    return res, values


# -- constructors -------------------------------------------------------------


def full_set(g: FollowerGraph) -> ClopenSet:
    return ClopenSet(g, g.m, g.legal_words(g.m))


def empty_set(g: FollowerGraph) -> ClopenSet:
    return ClopenSet(g, g.m, ())


def cylinder(g: FollowerGraph, beta: Word) -> ClopenSet:
    """The cylinder ``Z_beta``: the extensions of ``beta`` to length
    ``max(m, |beta|)``, whose union it is exactly; empty if ``beta`` is not
    prefix-legal."""
    n = max(g.m, len(beta))
    return ClopenSet(g, n, g.extensions(beta, n))


def c_set(g: FollowerGraph, alpha: Word, beta: Word) -> ClopenSet:
    """The generator ``C(alpha, beta) = {beta.x in X : alpha.x in X}``."""
    (ia, ma), (ib, mb) = g.junctions(alpha), g.junctions(beta)
    return ClopenSet(g, len(beta) + g.m, (
        beta + p for p in g.legal_words(g.m)
        if (p in ma or g.walk_junction(ma, ia, p))
        and (p in mb or g.walk_junction(mb, ib, p))))


def relative_range(a: ClopenSet, alpha: Word) -> ClopenSet:
    """``r(A, alpha) = {x in X : alpha.x in A}``, at resolution
    ``max(m, n - len(alpha))`` for ``a`` at resolution ``n``, without
    refining ``a``.  A stored word ``alpha.t`` contributes its tail ``t``
    and a stored prefix of ``alpha`` the empty tail; a tail shorter than m
    contributes its m-letter extensions ``q`` with ``alpha.q`` legal.  Any
    other word contributes nothing."""
    k, g, n = len(alpha), a.graph, a.resolution
    if n < k:
        tails = [OMEGA] if alpha[:n] in a.coeffs else []
    else:
        tails = [w[k:] for w in a.coeffs if w[:k] == alpha]
    if n - k >= g.m:
        return ClopenSet(g, n - k, tails)
    i, memo = g.junctions(alpha)
    return ClopenSet(g, g.m, (q for t in tails for q in g.extensions(t, g.m)
                              if q in memo or g.walk_junction(memo, i, q)))


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
