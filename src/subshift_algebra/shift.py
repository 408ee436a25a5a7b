"""Shifts of finite type over finite alphabets and their follower graphs.

A shift is presented by an alphabet and a finite set of forbidden words.  The
follower graph is the standard memory-m automaton (states = legal m-blocks,
pruned to the states of out-degree >= 1) whose infinite paths are exactly the
points of the shift.  It decides prefix legality, i.e. non-emptiness of
cylinders, which is what every other module builds on.  The graph is one
transition table with a start state, the empty word, and a word is legal iff
its walk from the start state never leaves the table (Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, section 3.2).  The forbidden
words themselves are scanned only while the graph is built.

Every query takes its id from one walk, :meth:`FollowerGraph.reach`.
A support check on words ``u.q`` against a word ``v`` walks ``u`` and ``v``
once (:meth:`FollowerGraph.tails`) and then only the tails ``q``, from both
ids at once: the memo of the pair answers ``memo[q]`` and fills itself, with
one key per tail of at most m letters, and a longer tail takes its first m
letters from it.

An id ``i`` also names a follower set ``F(i)``, the sequences ``x`` whose
walk from ``i`` never leaves the table: ``F(v) = {x : v.x in X}`` for the id
``v`` reaches.  :meth:`FollowerGraph.follower_subset` decides
``F(i) <= F(j)`` and :meth:`FollowerGraph.follower_code` gives the shortest
words covering ``F(i) & F(j)``; both walk the pair of ids letter by letter,
end within m letters (both ids then name the same m-block) and are memoised
per pair as they are asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyShift, ShiftTooLarge, UnknownLetter
from .words import OMEGA, EpPoint, Word, ep_normalize


def _has_forbidden_factor(w: Word, forbidden: frozenset[Word]) -> bool:
    if not forbidden:
        return False
    lengths = {len(f) for f in forbidden}
    for i in range(len(w)):
        for L in lengths:
            if i + L <= len(w) and w[i:i + L] in forbidden:
                return True
    return False


@dataclass(frozen=True)
class SftSpec:
    """Presentation of a shift of finite type.

    ``alphabet`` is an ordered list of distinct printable one-character
    symbols; internally letters are indices into it.  ``forbidden`` is
    normalized: duplicates removed and any word containing another forbidden
    word as a factor is pruned.
    """

    alphabet: tuple[str, ...]
    forbidden: frozenset[Word]

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if any(not f for f in self.forbidden):
            raise ValueError("forbidden words must be non-empty")
        for f in self.forbidden:
            if any(a < 0 or a >= len(self.alphabet) for a in f):
                raise ValueError(f"forbidden word uses an out-of-range letter: {f}")
        pruned = frozenset(
            f for f in self.forbidden
            if not _has_forbidden_factor(f, self.forbidden - {f})
        )
        object.__setattr__(self, "forbidden", pruned)

    @staticmethod
    def make(alphabet: str | list[str], forbidden_words: list[str] = ()) -> "SftSpec":
        symbols = tuple(alphabet)
        index = {s: i for i, s in enumerate(symbols)}
        forb = frozenset(tuple(index[ch] for ch in w) for w in forbidden_words)
        return SftSpec(symbols, forb)

    @property
    def memory(self) -> int:
        longest = max((len(f) for f in self.forbidden), default=0)
        return max(1, longest - 1)

    def word_to_str(self, w: Word) -> str:
        return "".join(self.alphabet[a] for a in w) if w else "_"

    def str_to_word(self, text: str) -> Word:
        if text == "_":
            return OMEGA
        index = {s: i for i, s in enumerate(self.alphabet)}
        try:
            return tuple(index[ch] for ch in text)
        except KeyError as exc:
            raise UnknownLetter(f"unknown letter {exc.args[0]!r} in word {text!r}") from None


class FollowerGraph:
    """Pruned memory-m transition automaton of an SFT.

    States are the legal m-blocks that admit an infinite continuation
    (``legal_words(m)``); letter ``a`` leads from state ``s`` to the last m
    letters of ``s.a`` when that word is legal (``letters(s)``).  Every query
    walks one table from its start state: ``_ids`` numbers the empty word (id
    0), the proper prefixes of the states and the states, and ``_delta[i][a]``
    is the id that letter ``a`` leads to from id ``i``, or -1.  A word
    reaches the id of its last (at most m) letters.  Built by
    :func:`build_follower_graph`.

    ``_subsets`` and ``_codes`` hold the answers of :meth:`follower_subset`
    and :meth:`follower_code` per pair of ids, and ``_tails`` the tail memo
    of each pair (:meth:`tails`), whose keys have at most m letters.  They
    are filled as they are asked and never emptied.
    """

    def __init__(self, spec: SftSpec, states: frozenset[Word],
                 edges: dict[tuple[Word, int], Word]):
        self.spec = spec
        self.m = spec.memory
        self.n_letters = len(spec.alphabet)
        self._ids = {OMEGA: 0}
        self._delta = [[-1] * self.n_letters]
        for n in range(1, self.m + 1):
            for w in sorted({s[:n] for s in states}):
                self._delta[self._ids[w[:-1]]][w[-1]] = len(self._ids)
                self._ids[w] = len(self._ids)
                self._delta.append([-1] * self.n_letters)
        for (u, a), v in edges.items():
            self._delta[self._ids[u]][a] = self._ids[v]
        self._subsets: dict[tuple[int, int], bool] = {}
        self._codes: dict[tuple[int, int], tuple[Word, ...]] = {}
        self._tails: dict[tuple[int, int], _TailMemo] = {}

    def reach(self, w: Word, state: int = 0) -> int:
        """The id that ``w`` reaches from id ``state``, or -1 if its walk
        leaves the table.  From the start state the first m letters are one
        lookup; each further letter is one table step."""
        if not state:
            m = self.m
            if len(w) <= m:
                return self._ids.get(w, -1)
            state = self._ids.get(w[:m], -1)
            w = w[m:]
        delta = self._delta
        for a in w:
            if state < 0:
                return -1
            state = delta[state][a]
        return state

    def is_prefix_legal(self, w: Word) -> bool:
        """True iff the cylinder of ``w`` is non-empty."""
        return self.reach(w) >= 0

    @cached_property
    def out_degree(self) -> dict[Word, int]:
        """The number of letters ``a`` with ``w.a`` legal, for each legal
        word ``w`` of at most m letters; a longer legal word has the count of
        its last m letters.  Made on first use."""
        return {w: self.n_letters - self._delta[i].count(-1) for w, i in self._ids.items()}

    def letters(self, w: Word) -> list[int]:
        """The letters ``a`` with ``w.a`` legal, in ascending order."""
        i = self.reach(w)
        return [a for a, t in enumerate(self._delta[i]) if t >= 0] if i >= 0 else []

    def follower_subset(self, i: int, j: int) -> bool:
        """Whether ``F(i) <= F(j)`` for ids ``i`` and ``j`` (-1 names the
        empty set): every letter walkable from ``i`` is walkable from ``j``
        and the successors are again in that relation.  Asked pairs are
        memoised; equal ids and -1 are answered without the memo."""
        if i == j or i < 0:
            return True
        if j < 0:
            return False
        key = (i, j)
        known = self._subsets.get(key)
        if known is None:
            row, known = self._delta[j], True
            for a, t in enumerate(self._delta[i]):
                if t >= 0 and t != row[a] and (row[a] < 0 or not self.follower_subset(t, row[a])):
                    known = False
                    break
            self._subsets[key] = known
        return known

    def tails(self, u: Word, v: Word) -> _TailMemo:
        """The tail memo of the pair of ids that ``u`` and ``v`` reach,
        walking each word once: ``memo[q]`` answers a tail ``q``
        (:class:`_TailMemo`)."""
        ids, m = self._ids, self.m  # reach's one lookup for a short word, inlined
        key = (ids.get(u, -1) if len(u) <= m else self.reach(u),
               ids.get(v, -1) if len(v) <= m else self.reach(v))
        memo = self._tails.get(key)
        if memo is None:
            memo = self._tails[key] = _TailMemo(self, *key)
        return memo

    def follower_code(self, i: int, j: int) -> tuple[Word, ...]:
        """The shortest words ``t`` whose sets ``t.F(j.t)`` partition
        ``F(i) & F(j)``, in ascending order, where ``j.t`` is the id ``t``
        reaches from ``j``: the empty word alone when ``F(j) <= F(i)``, and
        otherwise each letter walkable from both ids followed by the code of
        the pair it leads to.  At every word ``t`` of the code
        ``F(j.t) <= F(i.t)``.  Memoised per asked pair."""
        if i < 0 or j < 0:
            return ()
        key = (i, j)
        code = self._codes.get(key)
        if code is None:
            if self.follower_subset(j, i):
                code = (OMEGA,)
            else:
                row = self._delta[j]
                code = tuple((a,) + t for a, s in enumerate(self._delta[i])
                             if s >= 0 and row[a] >= 0
                             for t in self.follower_code(s, row[a]))
            self._codes[key] = code
        return code

    def legal_words(self, n: int) -> tuple[Word, ...]:
        """All prefix-legal words of length ``n``, lexicographically sorted:
        the extensions of the empty word."""
        if n < 0:
            raise ValueError("length must be >= 0")
        return tuple(self._grow(OMEGA, 0, n))

    def _grow(self, w: Word, state: int, steps: int) -> list[Word]:
        """Extend ``w``, which reaches id ``state``, by ``steps`` letters
        along the table.  Letters are tried in ascending order, so the
        result is in lexicographic order."""
        delta = self._delta
        frontier = [(w, state)]
        for _ in range(steps):
            frontier = [(u + (a,), t)
                        for u, s in frontier
                        for a, t in enumerate(delta[s]) if t >= 0]
        return [u for u, _ in frontier]

    def extensions(self, w: Word, n: int) -> list[Word]:
        """Prefix-legal extensions of ``w`` to length ``n`` (``n >= len(w)``),
        lexicographically sorted."""
        if n < len(w):
            raise ValueError("cannot extend to a shorter length")
        state = self.reach(w)
        return self._grow(w, state, n - len(w)) if state >= 0 else []

    def least_extension(self, w: Word, n: int, avoid: Word | None = None) -> Word | None:
        """The lexicographically least prefix-legal extension of ``w`` to
        length ``n`` other than ``avoid``, or ``None`` if there is none.

        Every id has a successor, so the least word takes the least letter at
        every step.  If that word is ``avoid``, the next one leaves it at its
        last step that offers a larger letter, and takes least letters after."""
        if n < len(w):
            raise ValueError("cannot extend to a shorter length")
        state = self.reach(w)
        if state < 0:
            return None
        delta = self._delta
        word = list(w)
        fork = None  # (length, letter, id) of the last step with a larger letter
        while True:
            while len(word) < n:
                row = delta[state]
                a, *larger = (b for b, t in enumerate(row) if t >= 0)
                if larger:
                    fork = (len(word), larger[0], row[larger[0]])
                word.append(a)
                state = row[a]
            if tuple(word) != avoid:
                return tuple(word)
            if fork is None:
                return None
            k, a, state = fork
            word[k:] = [a]  # now above ``avoid``: the next pass returns

    def unique_extension(self, w: Word) -> EpPoint | None:
        """The single point of ``Z_w`` when the continuation is forced.

        Present iff every id on the walk from the id ``w`` reaches has
        out-degree exactly 1; the forced walk reaches the states within m
        steps and closes into a cycle within one step per state more.
        """
        state = self.reach(w)
        if state < 0:
            raise ValueError("unique_extension needs a prefix-legal word")
        letters: list[int] = []
        pos: dict[int, int] = {}
        while state not in pos:
            out = [(a, t) for a, t in enumerate(self._delta[state]) if t >= 0]
            if len(out) != 1:
                return None
            pos[state] = len(letters)
            a, state = out[0]
            letters.append(a)
        j = pos[state]
        return ep_normalize(w + tuple(letters[:j]), tuple(letters[j:]))


class _TailMemo(dict):
    """The tail memo of a pair of ids ``i`` and ``j``, reached by words
    ``a`` and ``b``: ``memo[q]`` is ``False`` unless ``F(a.q) <= F(b.q)``,
    and otherwise the code of ``F(a.q) & F(b.q)`` below ``b.q``, which
    covers all of ``F(a.q)`` (empty when ``a.q`` is not legal).  A missing
    tail of at most m letters is walked from both ids at once and its answer
    kept.  A longer one walks only the rest from the m-block its first m
    letters name: the answer is theirs while ``a.q`` stays legal, and empty
    otherwise.  So no key has more than m letters."""

    __slots__ = ("graph", "i", "j")

    def __init__(self, graph: FollowerGraph, i: int, j: int):
        self.graph, self.i, self.j = graph, i, j

    def __missing__(self, q: Word) -> tuple[Word, ...] | bool:
        g = self.graph
        m = g.m
        if len(q) > m:
            head = q[:m]
            code = self[head]
            if code == () or g.reach(q[m:], g._ids[head]) >= 0:
                return code
            return ()
        delta, a, b = g._delta, self.i, self.j
        for c in q:
            if a < 0:
                break
            a = delta[a][c]
            if b >= 0:
                b = delta[b][c]
        code = self[q] = g.follower_code(a, b) if g.follower_subset(a, b) else False
        return code


# The most m-blocks (alphabet size to the power of the memory) that
# build_follower_graph enumerates; a larger shift is refused before it starts.
MAX_BLOCKS = 2 ** 16


def build_follower_graph(spec: SftSpec) -> FollowerGraph:
    """Build the pruned follower automaton; raises :class:`EmptyShift` if the
    shift has no points and :class:`ShiftTooLarge` if it has more than
    :data:`MAX_BLOCKS` m-blocks to enumerate.  The forbidden-free words grow
    one letter at a time up to length m+1, each an edge from its first m-block
    to its last; a new word's prefix has passed, so only its suffixes are
    tested."""
    m = spec.memory
    k = len(spec.alphabet)
    if k ** m > MAX_BLOCKS:
        raise ShiftTooLarge(
            f"{k} letters with memory {m} give {k}^{m} blocks, more than {MAX_BLOCKS}")
    forbidden, lengths = spec.forbidden, {len(f) for f in spec.forbidden}
    level = [OMEGA]
    for _ in range(m + 1):
        level = [w for w in (u + (a,) for u in level for a in range(k))
                 if not any(w[-n:] in forbidden for n in lengths)]
    edges = {(w[:-1], w[-1]): w[1:] for w in level}
    # Prune to the retention fixpoint: keep the states with an outgoing edge.
    states = None
    while states != (live := {u for u, _a in edges}):
        states = live
        edges = {(u, a): v for (u, a), v in edges.items() if v in states}
    if not states:
        raise EmptyShift("all states pruned; the shift space is empty")
    return FollowerGraph(spec, frozenset(states), edges)
