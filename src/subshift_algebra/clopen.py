"""Clopen sets of a shift of finite type and the coefficient functions on
them: the one home of the support representation.

A support is a set (:class:`ClopenSet`) or a map to ring values
(:class:`CoeffFn`) of prefix-legal words of one common length, the
resolution, each word standing for its cylinder.  Supports are refined with
:meth:`FollowerGraph.extensions` and coarsened with :func:`merge_siblings`;
every operation on them is decided exactly at a common resolution.

The cornerstone identity making this complete for memory-m shifts: with
``|p| = m``, the set ``C(alpha, beta) = {beta.x in X : alpha.x in X}`` equals
the union of the cylinders ``Z_{beta.p}`` over all junctions ``p`` such that
``alpha.p`` and ``beta.p`` are prefix-legal.  (Windows of length m+1 in
``alpha.x`` either sit inside ``alpha.p`` or inside ``x``, so legality of the
junction word plus membership of the tail decides everything.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BadArgument, InternalNonzeroViolation
from .shift import FollowerGraph
from .words import OMEGA, EpPoint, Word, ep_normalize, is_minimal_cycle_word


@dataclass(frozen=True, eq=False)
class ClopenSet:
    graph: FollowerGraph
    resolution: int
    words: frozenset[Word]

    def __post_init__(self):
        if self.resolution < self.graph.m:
            raise ValueError("resolution must be at least the shift memory")
        for w in self.words:
            if len(w) != self.resolution:
                raise ValueError("all stored words must have the resolution length")
            if not self.graph.is_prefix_legal(w):
                raise ValueError(f"stored word is not prefix-legal: {w}")

    # -- canonical equality -------------------------------------------------

    def refine(self, n: int) -> "ClopenSet":
        if n < self.resolution:
            raise ValueError("refinement cannot lower the resolution")
        if n == self.resolution:
            return self
        g = self.graph
        new = frozenset(e for w in self.words for e in g.extensions(w, n))
        return ClopenSet(g, n, new)

    def _common(self, other: "ClopenSet") -> tuple["ClopenSet", "ClopenSet"]:
        if other.graph is not self.graph:
            raise ValueError("operands live over different shifts")
        n = max(self.resolution, other.resolution)
        return self.refine(n), other.refine(n)

    def equals(self, other: "ClopenSet") -> bool:
        a, b = self._common(other)
        return a.words == b.words

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        return self.equals(other)

    __hash__ = None  # semantic equality; not hashable

    # -- Boolean operations --------------------------------------------------

    def union(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.graph, a.resolution, a.words | b.words)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.graph, a.resolution, a.words & b.words)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.graph, a.resolution, a.words - b.words)

    def complement(self) -> "ClopenSet":
        full = frozenset(self.graph.legal_words(self.resolution))
        return ClopenSet(self.graph, self.resolution, full - self.words)

    def is_subset(self, other: "ClopenSet") -> bool:
        a, b = self._common(other)
        return a.words <= b.words

    def is_empty(self) -> bool:
        return not self.words

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    # -- presentation ---------------------------------------------------------

    def compact(self, floor: int | None = None) -> "ClopenSet":
        """Merge full sibling families while every word's family is full.

        Keeps the uniform-resolution representation; never drops below
        ``floor`` (default: the shift memory).  Semantics are unchanged.
        """
        g = self.graph
        floor = g.m if floor is None else max(floor, g.m)
        res, words = merge_siblings(g, self.resolution, dict.fromkeys(self.words, True), floor)
        return ClopenSet(g, res if words else floor, frozenset(words))

    def format(self) -> str:
        c = self.compact()
        spec = self.graph.spec
        body = " ".join(spec.word_to_str(w) for w in sorted(c.words))
        return "{%s}@%d" % (body, c.resolution)

    def __repr__(self):
        return f"ClopenSet({self.format()})"


@dataclass(frozen=True)
class CoeffFn:
    """The coefficient of one component of an algebra element: resolution-N
    prefix-legal words mapped to nonzero ring values, constant on each
    word's cylinder and zero off the stored words."""

    resolution: int
    coeffs: dict[Word, object]

    def is_zero(self) -> bool:
        return not self.coeffs

    def scalar(self):
        """The one value taken on the support, or ``None`` if there are
        several."""
        vals = set(self.coeffs.values())
        return vals.pop() if len(vals) == 1 else None

    def support(self, g: FollowerGraph) -> ClopenSet:
        return ClopenSet(g, self.resolution, frozenset(self.coeffs))

    def tail_set(self, k: int, g: FollowerGraph) -> ClopenSet:
        """The tails ``p`` of the support words ``u.p`` whose common prefix
        ``u`` has length ``k``, i.e. ``r(support, u)``."""
        return ClopenSet(g, self.resolution - k, frozenset(w[k:] for w in self.coeffs))

    def refine(self, n: int, g: FollowerGraph) -> "CoeffFn":
        if n == self.resolution:
            return self
        if n < self.resolution:
            raise ValueError("cannot lower a coefficient function's resolution")
        return CoeffFn(n, {e: c for w, c in self.coeffs.items() for e in g.extensions(w, n)})

    def common(self, other: "CoeffFn", g: FollowerGraph) -> tuple["CoeffFn", "CoeffFn"]:
        """Both functions at the larger of their resolutions."""
        n = max(self.resolution, other.resolution)
        return self.refine(n, g), other.refine(n, g)

    def add(self, other: "CoeffFn", ring, g: FollowerGraph) -> "CoeffFn":
        """The sum, without its zero values."""
        a, b = self.common(other, g)
        return CoeffFn(a.resolution, accumulate(dict(a.coeffs), b.coeffs.items(),
                                                ring.add, ring.is_zero))

    def times(self, other: "CoeffFn", ring) -> "CoeffFn":
        """The pointwise product, without its zero values, at the larger
        resolution.  Each word of the finer operand finds its value in the
        coarser one by its prefix, so the coarser one is never refined."""
        fine, coarse = (self, other) if self.resolution >= other.resolution else (other, self)
        k = coarse.resolution
        prod = {}
        for w, c in fine.coeffs.items():
            d = coarse.coeffs.get(w[:k])
            if d is not None:
                p = ring.mul(c, d)
                if not ring.is_zero(p):
                    prod[w] = p
        return CoeffFn(fine.resolution, prod)

    def translate(self, old: Word, new: Word, g: FollowerGraph) -> "CoeffFn":
        """Support translation ``old.p -> new.p`` (the partial action on words)."""
        k = len(old)
        out = {}
        for w, c in self.coeffs.items():
            if w[:k] != old:
                raise InternalNonzeroViolation(
                    f"translation prefix {old} missing from support word {w}")
            nw = new + w[k:]
            if not g.is_prefix_legal(nw):
                raise InternalNonzeroViolation(f"translated word {nw} is not legal")
            out[nw] = c
        return CoeffFn(self.resolution - k + len(new), out)


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
            children = {p + (a,) for a, _ in g.out_edges(p[-g.m:])}
            if set(kids) != children or len({values[k] for k in kids}) != 1:
                return res, values
        res -= 1
        values = {p: values[kids[0]] for p, kids in parents.items()}
    return res, values


# -- constructors -------------------------------------------------------------


def full_set(g: FollowerGraph) -> ClopenSet:
    return ClopenSet(g, g.m, frozenset(g.legal_words(g.m)))


def empty_set(g: FollowerGraph) -> ClopenSet:
    return ClopenSet(g, g.m, frozenset())


def cylinder(g: FollowerGraph, beta: Word) -> ClopenSet:
    """Canonical form of the cylinder ``Z_beta``; empty if ``beta`` is not
    prefix-legal."""
    n = max(g.m, len(beta)) + g.m
    return ClopenSet(g, n, frozenset(g.extensions(beta, n)))


def c_set(g: FollowerGraph, alpha: Word, beta: Word) -> ClopenSet:
    """The generator ``C(alpha, beta) = {beta.x in X : alpha.x in X}``."""
    words = set()
    for p in g.legal_words(g.m):
        if g.is_prefix_legal(alpha + p) and g.is_prefix_legal(beta + p):
            words.add(beta + p)
    return ClopenSet(g, len(beta) + g.m, frozenset(words))


def relative_range(a: ClopenSet, alpha: Word) -> ClopenSet:
    """``r(A, alpha) = {x in X : alpha.x in A}``.

    At resolution >= len(alpha) + m the rule is word-wise: a stored word
    ``alpha.p`` contributes its tail ``p`` (then ``Z_p`` lies inside
    ``F_alpha`` automatically), any other word contributes nothing.
    """
    g = a.graph
    n = max(a.resolution, len(alpha) + g.m)
    ref = a.refine(n)
    k = len(alpha)
    tails = frozenset(w[k:] for w in ref.words if w[:k] == alpha)
    return ClopenSet(g, n - k, tails)


def as_singleton(a: ClopenSet) -> EpPoint | None:
    """The unique point of ``a`` if it is a singleton set, else ``None``."""
    if len(a.words) != 1:
        return None
    (w,) = a.words
    return a.graph.unique_extension(w)


class CycleKind(Enum):
    NOT_A_CYCLE = "not-a-cycle"
    CYCLE_WITH_EXIT = "cycle-with-exit"
    CYCLE_WITHOUT_EXIT = "cycle-without-exit"


@dataclass(frozen=True)
class CycleClass:
    kind: CycleKind
    minimal: bool | None = None


def classify_cycle(a: ClopenSet, alpha: Word) -> CycleClass:
    """Classify the pair ``(a, alpha)``.

    A cycle means ``a`` is non-empty and ``a`` is contained in
    ``r(a, alpha)``; it has no exit exactly when ``a`` is the singleton
    ``{alpha^inf}``, and it is minimal when ``alpha`` is not a proper power.
    """
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
