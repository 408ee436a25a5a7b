"""Shifts of finite type over finite alphabets and their follower graphs.

A shift is presented by an alphabet and a finite set of forbidden words.  The
follower graph is the standard memory-m automaton (states = legal m-blocks,
pruned to the states of out-degree >= 1) whose infinite paths are exactly the
points of the shift.  It decides prefix legality, i.e. non-emptiness of
cylinders, which is what every other module builds on: a word is legal iff
its first m-block is a state and the walk of its remaining letters through
the graph's transition table never leaves it (Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, section 3).  The forbidden
words themselves are scanned only while the graph is built.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    States are the legal m-blocks that admit an infinite continuation;
    ``edges[(state, letter)]`` gives the successor m-block.  The states are
    numbered in sorted order, and ``_delta[i][a]`` holds the number of the
    successor of state ``i`` under letter ``a``, or -1 where there is no
    edge.  Prefix legality is a walk of this table, one step per letter
    after the first m-block; words shorter than m are looked up in the set
    of proper prefixes of the states.  Built through
    :func:`build_follower_graph`.
    """

    def __init__(self, spec: SftSpec, states: frozenset[Word],
                 edges: dict[tuple[Word, int], Word]):
        self.spec = spec
        self.states = states
        self.edges = edges
        self.m = spec.memory
        self.n_letters = len(spec.alphabet)
        self._ids = {s: i for i, s in enumerate(sorted(states))}
        self._delta: list[list[int]] = []
        self._out: dict[Word, tuple[tuple[int, Word], ...]] = {}
        for u in self._ids:
            row = [-1] * self.n_letters
            out = []
            for a in range(self.n_letters):
                v = edges.get((u, a))
                if v is not None:
                    row[a] = self._ids[v]
                    out.append((a, v))
            self._delta.append(row)
            self._out[u] = tuple(out)
        level = set(states)
        prefixes: set[Word] = set()
        for _ in range(self.m):
            level = {s[:-1] for s in level}
            prefixes |= level
        self._prefixes = frozenset(prefixes)
        self._legal_cache: dict[int, tuple[Word, ...]] = {}

    def out_edges(self, state: Word) -> tuple[tuple[int, Word], ...]:
        return self._out.get(state, ())

    def is_prefix_legal(self, w: Word) -> bool:
        """True iff the cylinder of ``w`` is non-empty."""
        m = self.m
        if len(w) < m:
            return w in self._prefixes
        state = self._ids.get(w[:m])
        if state is None:
            return False
        delta = self._delta
        for a in w[m:]:
            state = delta[state][a]
            if state < 0:
                return False
        return True

    def legal_words(self, n: int) -> tuple[Word, ...]:
        """All prefix-legal words of length ``n``, lexicographically sorted."""
        if n < 0:
            raise ValueError("length must be >= 0")
        if n not in self._legal_cache:
            if n < self.m:
                words = sorted({s[:n] for s in self.states})
            else:
                words = self._grow(list(self._ids.items()), n - self.m)
            self._legal_cache[n] = tuple(words)
        return self._legal_cache[n]

    def _grow(self, frontier: list[tuple[Word, int]], steps: int) -> list[Word]:
        """Extend every ``(word, state id)`` pair by ``steps`` letters along
        the table.  Letters are tried in ascending order, so a frontier in
        lexicographic order stays in it."""
        delta = self._delta
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
        if not self.is_prefix_legal(w):
            return []
        if len(w) >= self.m:
            return self._grow([(w, self._ids[w[-self.m:]])], n - len(w))
        if n < self.m:
            return [e for e in self.legal_words(n) if e[:len(w)] == w]
        starts = [(s, i) for s, i in self._ids.items() if s[:len(w)] == w]
        return self._grow(starts, n - self.m)

    def unique_extension(self, w: Word) -> EpPoint | None:
        """The single point of ``Z_w`` when the continuation is forced.

        Present iff every state on the walk from the suffix state of ``w``
        has out-degree exactly 1; the forced walk closes into a cycle within
        ``len(states)`` steps.
        """
        if len(w) < self.m or not self.is_prefix_legal(w):
            raise ValueError("unique_extension needs a prefix-legal word of length >= memory")
        letters: list[int] = []
        pos: dict[Word, int] = {}
        cur = w[-self.m:]
        while cur not in pos:
            out = self.out_edges(cur)
            if len(out) != 1:
                return None
            pos[cur] = len(letters)
            a, cur = out[0]
            letters.append(a)
        j = pos[cur]
        return ep_normalize(w + tuple(letters[:j]), tuple(letters[j:]))


# The most m-blocks (alphabet size to the power of the memory) that
# build_follower_graph enumerates; a larger shift is refused before it starts.
MAX_BLOCKS = 2 ** 16


def build_follower_graph(spec: SftSpec) -> FollowerGraph:
    """Build the pruned follower automaton; raises :class:`EmptyShift` if the
    shift has no points and :class:`ShiftTooLarge` if it has more than
    :data:`MAX_BLOCKS` m-blocks to enumerate."""
    m = spec.memory
    k = len(spec.alphabet)
    if k ** m > MAX_BLOCKS:
        raise ShiftTooLarge(
            f"{k} letters with memory {m} give {k}^{m} blocks, more than {MAX_BLOCKS}")

    def blocks(n: int):
        if n == 0:
            yield OMEGA
            return
        for w in blocks(n - 1):
            for a in range(k):
                yield w + (a,)

    candidates = {w for w in blocks(m) if not _has_forbidden_factor(w, spec.forbidden)}
    edges: dict[tuple[Word, int], Word] = {}
    for u in candidates:
        for a in range(k):
            ext = u + (a,)
            if _has_forbidden_factor(ext, spec.forbidden):
                continue
            v = ext[-m:]
            if v in candidates:
                edges[(u, a)] = v
    # Prune to the retention fixpoint: drop states with no outgoing edge.
    states = set(candidates)
    changed = True
    while changed:
        changed = False
        live = {u for (u, _a), v in edges.items() if v in states}
        dead = states - live
        if dead:
            states -= dead
            edges = {(u, a): v for (u, a), v in edges.items()
                     if u in states and v in states}
            changed = True
    if not states:
        raise EmptyShift("all states pruned; the shift space is empty")
    return FollowerGraph(spec, frozenset(states), edges)
