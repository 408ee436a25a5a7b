"""Word combinatorics over finite alphabets.

Words are tuples of letter indices.  The empty word is ``()``.  Everything in
this module is independent of any particular shift space; periodicity facts
(common roots of commuting words, primitivity, minimal cycle words) live here
together with a canonical form for eventually periodic one-sided sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InternalNonzeroViolation, NotCommuting

Word = tuple[int, ...]

OMEGA: Word = ()


def commuting_root(alpha: Word, beta: Word) -> tuple[Word, int, int]:
    """Common root of two commuting non-empty words.

    Returns ``(c, n, m)`` with ``alpha == c*n``, ``beta == c*m`` and
    ``len(c) == gcd(len(alpha), len(beta))``.  Uses the subtractive Euclid
    descent: when ``alpha*beta == beta*alpha`` and ``len(alpha) >= len(beta)``,
    ``beta`` is a prefix of ``alpha`` and the pair ``(alpha[len(beta):], beta)``
    still commutes.
    """
    if not alpha or not beta:
        raise NotCommuting("commuting_root requires non-empty words")
    if alpha + beta != beta + alpha:
        raise NotCommuting(f"words do not commute: {alpha!r}, {beta!r}")
    a, b = alpha, beta
    while a and b:
        if len(a) < len(b):
            a, b = b, a
        a = a[len(b):]
    c = a or b
    n, m = len(alpha) // len(c), len(beta) // len(c)
    if c * n != alpha or c * m != beta or len(c) != gcd(len(alpha), len(beta)):
        raise InternalNonzeroViolation("Euclid descent did not end at the common root")
    return c, n, m


def primitive_root(alpha: Word) -> tuple[Word, int]:
    """Shortest word ``c`` with ``alpha == c^k``; ``c`` is primitive."""
    if not alpha:
        raise ValueError("primitive_root requires a non-empty word")
    n = len(alpha)
    for d in range(1, n + 1):
        if n % d == 0 and alpha[:d] * (n // d) == alpha:
            return alpha[:d], n // d
    raise AssertionError("unreachable: d == n always works")


def is_minimal_cycle_word(alpha: Word) -> bool:
    """True iff no strictly shorter non-empty ``beta`` satisfies
    ``beta + alpha^inf == alpha^inf``.

    Checks the infinite-word condition directly on prefixes (a prefix of
    length ``len(beta) + 2*len(alpha)`` decides it), then cross-checks against
    primitivity.
    """
    if not alpha:
        raise ValueError("is_minimal_cycle_word requires a non-empty word")
    n = len(alpha)
    minimal = True
    for lb in range(1, n):
        depth = lb + 2 * n
        reps = depth // n + 2
        stream = alpha * reps
        beta = stream[:lb]
        if (beta + stream)[:depth] == stream[:depth]:
            minimal = False
            break
    if minimal != (primitive_root(alpha)[1] == 1):
        raise InternalNonzeroViolation("minimality disagrees with primitivity")
    return minimal


@dataclass(frozen=True)
class EpPoint:
    """Canonical form of the eventually periodic sequence pre + per^inf.

    Canonical means: the period is primitive, and the preperiod cannot be
    rolled into the period (its last letter differs from the period's last
    letter).  Two inputs denote the same sequence iff their canonical forms
    are equal.
    """

    preperiod: Word
    period: Word

    def prefix(self, n: int) -> Word:
        reps = max(0, (n - len(self.preperiod))) // len(self.period) + 2
        return (self.preperiod + self.period * reps)[:n]


def ep_normalize(pre: Word, per: Word) -> EpPoint:
    """Canonical :class:`EpPoint` for the sequence ``pre + per^inf``.

    Both arguments are words, tuples of letter indices, so both fields of
    the result are tuples, taken from them by slicing."""
    if not per:
        raise ValueError("period must be non-empty")
    per, _ = primitive_root(per)
    # Roll the junction: pre.x + (q.x)^inf == pre + (x.q)^inf.
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return EpPoint(pre, per)


def ep_shift(x: EpPoint) -> EpPoint:
    """Canonical form of the shifted sequence (first letter dropped)."""
    if x.preperiod:
        return ep_normalize(x.preperiod[1:], x.period)
    return ep_normalize(OMEGA, x.period[1:] + x.period[:1])
