"""Shifts of finite type over finite alphabets and their follower graphs.

A shift is presented by an alphabet and a finite set of forbidden words.  The
follower graph is a deterministic automaton whose states are the proper
prefixes of the forbidden words: a word leads to the longest of its suffixes
among them (Aho & Corasick, *Efficient string matching*, 1975).  It decides
prefix legality, i.e. non-emptiness of cylinders, which is what every other
module builds on.  The graph is one transition table with a start state, the
empty word, and a word is legal iff its walk from the start state never
leaves the table (Lind & Marcus, *An Introduction to Symbolic Dynamics and
Coding*, section 3.2).  The forbidden words are read only while it is built.

Every query takes its id from one walk, :meth:`FollowerGraph.reach`, and
each word asked from the start state is walked once: the word memo keeps the
id it reaches.  A support check on words ``u.q`` against a word ``v`` takes
the tail memo of the pair from the pair memo, keyed by the words ``(u, v)``
(:meth:`FollowerGraph.tails`), and then walks only the tails ``q``, from both
ids at once: the tail memo answers ``memo[q]`` and fills itself, with one key
per tail of at most m letters, and a longer tail takes its first m letters
from it.  Two walks keep nothing, :meth:`FollowerGraph.ids` and the
legality check of a tail longer than m letters: their words are the stored
words of supports and their prefixes, of any length, which the word memo
would keep alive after the supports are gone.

An id ``i`` also names a follower set ``F(i)``, the sequences ``x`` whose
walk from ``i`` never leaves the table: ``F(v) = {x : v.x in X}`` for the id
``v`` reaches.  :meth:`FollowerGraph.follower_subset` reads ``F(i) <= F(j)``
from a table made with the graph, and :meth:`FollowerGraph.follower_code`
gives the shortest words covering ``F(i) & F(j)``: it walks the pair of ids
letter by letter, ends within m letters (the id of a word depends only on its
last m letters) and is memoised per pair as it is asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import EmptyShift, ShiftTooLarge, UnknownLetter
from .words import OMEGA, EpPoint, Word, ep_normalize


def _has_forbidden_factor(w: Word, forbidden: frozenset[Word], lengths: set[int]) -> bool:
    """Whether a proper factor of ``w`` is in ``forbidden``, whose words
    have the ``lengths``."""
    return any(w[i:i + n] in forbidden
               for n in lengths if n < len(w) for i in range(len(w) - n + 1))


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
        lengths = {len(f) for f in self.forbidden}
        pruned = frozenset(f for f in self.forbidden
                           if not _has_forbidden_factor(f, self.forbidden, lengths))
        object.__setattr__(self, "forbidden", pruned)

    @staticmethod
    def make(alphabet: str | list[str], forbidden_words: list[str] = ()) -> "SftSpec":
        symbols = tuple(alphabet)
        index = {s: i for i, s in enumerate(symbols)}
        try:
            forb = frozenset(tuple(index[ch] for ch in w) for w in forbidden_words)
        except KeyError as exc:
            w = next(w for w in forbidden_words if exc.args[0] in w)
            raise UnknownLetter(f"unknown letter {exc.args[0]!r} in word {w!r}") from None
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
    """The follower automaton of an SFT, built by :func:`build_follower_graph`.

    Every query walks one table from its start state: ``_delta[i][a]`` is
    the id that letter ``a`` leads to from id ``i``, or -1 when ``a``
    completes a forbidden word or leads to an id without an infinite walk.
    The ids are the proper prefixes of the forbidden words, id 0 the empty
    word, and a legal word reaches the longest of its suffixes among them,
    which lies in its last m letters.  ``_inclusion[i]`` has bit ``j`` set
    iff ``F(i) <= F(j)``.

    ``out_letters[i]`` are the letters that may follow id ``i``, in
    ascending order, and ``out_degree[i]`` is their number.
    Four memos fill themselves as they are asked and are never emptied, so
    each holds one entry per distinct key asked: ``_ids`` the word memo, the
    id each word passed to :meth:`reach` reaches from the start state (-1
    for an illegal word); ``_pairs`` the pair memo, the tail memo of each
    pair of words passed to :meth:`tails`; ``_tails`` the tail memo of each
    pair of ids, whose keys have at most m letters; and ``_codes`` the
    answers of :meth:`follower_code` per pair of ids.  The keys of the word
    and pair memos are the words their callers pass: every query takes a
    word as a tuple of letter indices (``Word``), and a list is not a word.
    A fifth, ``leaves``, is the set-leaf memo that :mod:`.parsing` fills: the
    clopen set of each leaf ``Z(w)``, ``F(w)``, ``C(a, b)`` or ``X`` that an
    expression over the graph names, keyed by the leaf's node key, such as
    ``('Z', w)``.  It too is never emptied, so it holds one entry per
    distinct leaf asked.
    """

    def __init__(self, spec: SftSpec, delta: list[list[int]]):
        self.spec = spec
        self.m = spec.memory
        self.n_letters = len(spec.alphabet)
        self.n_states = len(delta)
        self._delta = delta
        # The last entries answer the id -1.
        self.out_letters = [tuple(a for a, t in enumerate(row) if t >= 0)
                            for row in delta] + [()]
        self.out_degree = list(map(len, self.out_letters))
        self._inclusion = _inclusions(delta)
        self._codes: dict[tuple[int, int], tuple[Word, ...]] = {}
        self._ids: dict[Word, int] = _Memo(partial(_walk, delta))
        self._tails: dict[tuple[int, int], _TailMemo] = _Memo(lambda ids: _TailMemo(self, *ids))
        self._pairs: dict[tuple[Word, Word], _TailMemo] = _Memo(
            lambda uv: self._tails[self._ids[uv[0]], self._ids[uv[1]]])
        self.leaves: dict[tuple, object] = {}

    def reach(self, w: Word, state: int = 0) -> int:
        """The id that ``w`` reaches from id ``state``, or -1 if its walk
        leaves the table: one table step per letter, and from the start
        state one lookup in the word memo once ``w`` has been walked."""
        if state:
            return _walk(self._delta, w, state)
        return self._ids[w]

    def is_prefix_legal(self, w: Word) -> bool:
        """True iff the cylinder of ``w`` is non-empty."""
        return self.reach(w) >= 0

    def ids(self, w: Word) -> list[int]:
        """The ids that the prefixes of ``w`` reach, that of ``w[:n]`` at
        index ``n``, and -1 from the first that is not legal: one walk, one
        table step per letter.  It keeps nothing in the word memo, which
        would then hold every prefix of a stored word that a caller
        enumerates."""
        delta, state, out = self._delta, 0, [0]
        for a in w:
            if state >= 0:
                state = delta[state][a]
            out.append(state)
        return out

    def follower_subset(self, i: int, j: int) -> bool:
        """Whether ``F(i) <= F(j)`` for ids ``i`` and ``j`` (-1 names the
        empty set): one read of the table made with the graph."""
        return i < 0 or j >= 0 and self._inclusion[i] >> j & 1 == 1

    def tails(self, u: Word, v: Word) -> _TailMemo:
        """The tail memo of the pair of ids that ``u`` and ``v`` reach:
        ``memo[q]`` answers a tail ``q`` (:class:`_TailMemo`).  One lookup
        in the pair memo once the pair has been asked."""
        return self._pairs[u, v]

    def follower_code(self, i: int, j: int) -> tuple[Word, ...]:
        """The shortest words ``t`` whose sets ``t.F(j.t)`` partition
        ``F(i) & F(j)``, in ascending order, where ``j.t`` is the id ``t``
        reaches from ``j``: the empty word alone when ``F(j) <= F(i)``, and
        otherwise each letter walkable from both ids followed by the code of
        the pair it leads to.  At every word ``t`` of the code
        ``F(j.t) <= F(i.t)``.  Memoised per asked pair; found depth first,
        with no recursion."""
        if i < 0 or j < 0:
            return ()
        code = self._codes.get((i, j))
        if code is None:
            delta, k, words, stack = self._delta, self.n_letters, [], [(OMEGA, i, j)]
            while stack:  # the larger letters lie below, so the words ascend
                t, s, r = stack.pop()
                if self.follower_subset(r, s):
                    words.append(t)
                else:
                    stack += [(t + (a,), x, y) for a, x, y in zip(range(k), delta[s], delta[r])
                              if x >= 0 and y >= 0][::-1]
            code = self._codes[i, j] = tuple(words)
        return code

    def legal_words(self, n: int) -> tuple[Word, ...]:
        """All prefix-legal words of length ``n``, lexicographically sorted:
        the extensions of the empty word."""
        if n < 0:
            raise ValueError("length must be >= 0")
        return tuple(self._grow(OMEGA, 0, n))

    def _grow(self, w: Word, state: int, steps: int, limit: int | None = None) -> list[Word] | None:
        """Extend ``w``, which reaches id ``state``, by ``steps`` letters
        along the table.  Letters are tried in ascending order, so the
        result is in lexicographic order.  ``None`` past ``limit`` words:
        each step, none smaller than the last, is counted before it is made."""
        delta, k = self._delta, self.n_letters
        frontier = [(w, state)]
        for _ in range(steps):
            if limit is not None and len(frontier) * k > limit \
                    and sum(k - delta[s].count(-1) for _, s in frontier) > limit:
                return None
            frontier = [(u + (a,), t)
                        for u, s in frontier
                        for a, t in enumerate(delta[s]) if t >= 0]
        return [u for u, _ in frontier] if limit is None or len(frontier) <= limit else None

    def extensions(self, w: Word, n: int, limit: int | None = None) -> list[Word] | None:
        """Prefix-legal extensions of ``w`` to length ``n`` (``n >= len(w)``),
        lexicographically sorted; ``None`` past ``limit`` of them."""
        if n < len(w):
            raise ValueError("cannot extend to a shorter length")
        state = self.reach(w)
        return self._grow(w, state, n - len(w), limit) if state >= 0 else []

    def least_extension(self, w: Word, n: int) -> Word | None:
        """The lexicographically least prefix-legal extension of ``w`` to
        length ``n``, or ``None`` if ``w`` is not prefix-legal.  Every id has
        a successor, so the least word takes the least letter at every step."""
        if n < len(w):
            raise ValueError("cannot extend to a shorter length")
        state = self.reach(w)
        if state < 0:
            return None
        delta = self._delta
        word = list(w)
        while len(word) < n:
            row = delta[state]
            a = next(b for b, t in enumerate(row) if t >= 0)
            word.append(a)
            state = row[a]
        return tuple(word)

    def unique_extension(self, w: Word, state: int = 0) -> EpPoint | None:
        """The single point of ``Z_w`` when the continuation is forced, with
        ``w`` walked from the id ``state``: present iff every id on the walk
        from the id ``w`` reaches has out-degree exactly 1.  The forced walk
        closes into a cycle within one step per id."""
        state = self.reach(w, state)
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


class _Memo(dict):
    """A dict that fills itself: a missing key gets ``make(key)``, which is
    kept.  It is never emptied, so it holds one entry per distinct key
    asked."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _walk(delta: list[list[int]], w: Word, state: int = 0) -> int:
    """The id that ``w`` reaches from id ``state`` in the table ``delta``, or
    -1 if its walk leaves the table: one table step per letter."""
    for a in w:
        if state < 0:
            return -1
        state = delta[state][a]
    return state


class _TailMemo(dict):
    """The tail memo of a pair of ids ``i`` and ``j``, reached by words
    ``a`` and ``b``: ``memo[q]`` is ``False`` unless ``F(a.q) <= F(b.q)``,
    and otherwise the code of ``F(a.q) & F(b.q)`` below ``b.q``, which
    covers all of ``F(a.q)`` (empty when ``a.q`` is not legal).  A missing
    tail of at most m letters is walked from both ids at once and its answer
    kept.  A longer one takes the answer of its first m letters while
    ``a.q`` stays legal, i.e. while ``q`` walks from the start state (those
    m letters fix the id), and empty otherwise; that walk is not kept in the
    word memo, which would then hold every long stored word.  So no key has
    more than m letters."""

    __slots__ = ("graph", "i", "j")

    def __init__(self, graph: FollowerGraph, i: int, j: int):
        self.graph, self.i, self.j = graph, i, j

    def __missing__(self, q: Word) -> tuple[Word, ...] | bool:
        g = self.graph
        m = g.m
        if len(q) > m:
            head = q[:m]
            code = self[head]
            if code == () or _walk(g._delta, q) >= 0:
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


def _inclusions(delta: list[list[int]]) -> list[int]:
    """Bit ``j`` of entry ``i`` is set iff ``F(i) <= F(j)``, with bit n for
    -1, the empty set: a greatest fixpoint that drops each nonempty set's pair
    with the empty one, then once each pair a letter leads to a dropped pair."""
    n = len(delta)
    into: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]  # id -> letter -> ids
    for i, row in enumerate(delta):
        for a, t in enumerate(row):
            into[t].setdefault(a, []).append(i)  # -1 is into[n]
    rows = [(1 << n + 1) - 1] * n
    dropped = [(i, n) for i, row in enumerate(delta) if max(row) >= 0]
    for p, q in dropped:  # grows while it is read
        for a, sources in into[p].items():
            for j in into[q].get(a, ()):
                for i in sources:
                    if rows[i] >> j & 1:
                        rows[i] ^= 1 << j
                        dropped.append((i, j))
    return rows


# The most states, the proper prefixes of the forbidden words with the empty
# one, that build_follower_graph takes, and the most cells (states times
# letters) of its table; more are refused before any row is built.
MAX_STATES = 512
MAX_TABLE_CELLS = 2 ** 18


def build_follower_graph(spec: SftSpec) -> FollowerGraph:
    """Build the follower automaton; raises :class:`EmptyShift` if the
    shift has no points and :class:`ShiftTooLarge` if the forbidden words
    have more than :data:`MAX_STATES` proper prefixes or the table more
    than :data:`MAX_TABLE_CELLS` cells.  Their trie's rows
    are completed breadth first: a missing letter leads where it leads from
    the row's longest proper suffix in the trie (its failure link).  Letters
    into a state with no infinite walk then lead nowhere."""
    k = len(spec.alphabet)
    trie: list[dict[int, int]] = [{}]  # an id -> its letters -> the ids they lead to
    for f in sorted(spec.forbidden):
        i = 0
        for a in f[:-1]:
            if a not in trie[i]:
                if len(trie) == MAX_STATES:
                    raise ShiftTooLarge(f"more than {MAX_STATES} forbidden-word prefixes")
                trie[i][a] = len(trie)
                trie.append({})
            i = trie[i][a]
        trie[i][f[-1]] = -1  # no word in a factor-free set extends f
    if len(trie) * k > MAX_TABLE_CELLS:
        raise ShiftTooLarge(f"a table of {len(trie)} states by {k} letters, "
                            f"more than {MAX_TABLE_CELLS} cells")
    delta, fail, order = [[]] * len(trie), [0] * len(trie), [0]
    for i in order:  # grows while it is read
        back = delta[fail[i]] if i else [0] * k
        delta[i] = [trie[i].get(a, back[a]) for a in range(k)]
        for a, t in trie[i].items():
            if t > 0:
                fail[t] = back[a]
                order.append(t)
    live = set(range(len(delta)))
    while dead := {i for i in live if not any(t in live for t in delta[i])}:
        live -= dead
    if 0 not in live:
        raise EmptyShift("all states pruned; the shift space is empty")
    return FollowerGraph(spec, [[t if t in live else -1 for t in row] for row in delta])
