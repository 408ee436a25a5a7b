"""Seeded input generation for the benchmark, independent of the program.

Everything here is plain text: shift files and expressions in the CLI's
expression grammar.  Legal words are enumerated from each shift's alphabet
and forbidden list by a brute-force factor check of our own, never through
the package, so a change to the program cannot change what it is fed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

# The five census shifts (memory <= 2), as alphabet and forbidden words.
CENSUS_SHIFTS = {
    "full2": ("ab", ()),
    "golden_mean": ("ab", ("bb",)),
    "y": ("ab", ("ba",)),
    "period2": ("ab", ("aa", "bb")),
    "abc": ("abc", ("cc", "ab")),
}

SCALING_MS = range(2, 9)
SCALING_ELEMENT = "s(a) + 2.s(bab) + st(b)"
ARITH_SHIFT_NAMES = ("full2", "golden_mean", "y", "abc", "L_3")
ARITH_RINGS = ("z", "q", "zmod:6")

CENSUS_PER_SHIFT = 240
ARITH_PER_ALGEBRA = 168
MAX_WORD = 3


@dataclass(frozen=True)
class Op:
    """One benchmark operation: which algebra it runs in and its text.

    ``group`` names the ops that share a shift and kind; traced runs report
    time per group."""

    label: str
    group: str
    shift: str
    ring: str
    kind: str  # "reduce", "nf", "distrib" or "assoc"
    text: str


def l_shift(m: int) -> tuple[str, tuple[str, ...]]:
    """``L_m``: forbidden ``a^(m+1)`` and ``b^m a``; memory m, 2^m states."""
    return "ab", ("a" * (m + 1), "b" * m + "a")


def shift_text(alphabet: str, forbidden: tuple[str, ...]) -> str:
    return f"alphabet: {' '.join(alphabet)}\nforbidden: {', '.join(forbidden)}\n"


def shift_spec(name: str) -> tuple[str, tuple[str, ...]]:
    if name.startswith("L_"):
        return l_shift(int(name[2:]))
    return CENSUS_SHIFTS[name]


def _admissible_step(word: str, forbidden: tuple[str, ...]) -> bool:
    """``word`` minus its last letter is admissible; check the new suffixes."""
    return not any(word.endswith(f) for f in forbidden)


def legal_words(alphabet: str, forbidden: tuple[str, ...], n: int) -> list[str]:
    """Words of length ``n`` that contain no forbidden factor and extend to an
    infinite admissible sequence, in lexicographic order.

    An admissible extension of ``len(alphabet) ** memory`` more letters must
    revisit a memory-block, hence closes a cycle, so it witnesses an infinite
    continuation.
    """
    memory = max(1, max((len(f) for f in forbidden), default=0) - 1)
    horizon = len(alphabet) ** memory
    alive: dict[tuple[str, int], bool] = {}

    def extends(word: str, steps: int) -> bool:
        key = (word[-memory:], steps)
        if key not in alive:
            alive[key] = steps == 0 or any(
                _admissible_step(word + a, forbidden) and extends(word + a, steps - 1)
                for a in alphabet)
        return alive[key]

    level = [""]
    for _ in range(n):
        level = [w + a for w in level for a in alphabet
                 if _admissible_step(w + a, forbidden)]
    return [w for w in level if extends(w, horizon)]


def _words_upto(name: str, n: int) -> list[str]:
    alphabet, forbidden = shift_spec(name)
    return [w for k in range(1, n + 1) for w in legal_words(alphabet, forbidden, k)]


def _join_terms(terms: list[tuple[int | str, str]]) -> str:
    """Join ``(scalar, body)`` terms into a sum, moving signs into operators."""
    text = ""
    for scalar, body in terms:
        scalar = str(scalar)
        if not text:
            text = f"{scalar}.{body}"
        elif scalar.startswith("-"):
            text += f" - {scalar[1:]}.{body}"
        else:
            text += f" + {scalar}.{body}"
    return text


def _deck(rng: random.Random, cards: list, n: int) -> list:
    """``n`` cards, each of ``cards`` equally often, in a seeded order.

    The shapes of the inputs (how many terms, which kind of set) are dealt
    from such decks rather than drawn independently, so that every seed has
    the same mix of shapes and differs only in order, words and scalars: a
    change of seed then does not read as a change of speed."""
    assert n % len(cards) == 0
    deck = cards * (n // len(cards))
    rng.shuffle(deck)
    return deck


def census_ops(seed: int) -> list[Op]:
    """Random sums of 1-3 monomials ``k.s(u)*p(Z(w)|X)*st(v)`` on each census
    shift, with ``|k| <= 3`` and words of length <= 3; a third of the sums
    have each length, and a quarter of the sets are ``X``."""
    ops = []
    for si, name in enumerate(CENSUS_SHIFTS):
        rng = random.Random(seed * 1_000_003 + si)
        words = _words_upto(name, MAX_WORD)
        any_word = ["_"] + words
        lengths = _deck(rng, [1, 2, 3], CENSUS_PER_SHIFT)
        sets = iter(_deck(rng, [True, False, False, False], sum(lengths)))
        for i in range(CENSUS_PER_SHIFT):
            terms = []
            for _ in range(lengths[i]):
                k = rng.choice((-3, -2, -1, 1, 2, 3))
                a_set = "X" if next(sets) else f"Z({rng.choice(words)})"
                terms.append((k, f"s({rng.choice(any_word)})*p({a_set})"
                                 f"*st({rng.choice(any_word)})"))
            ops.append(Op(f"{name}#{i}", name, name, "z", "reduce", _join_terms(terms)))
    return ops


_SCALARS = {
    "z": ("-3", "-2", "-1", "1", "2", "3"),
    "q": ("1/2", "-1/2", "3/2", "-2/3", "1/3", "2", "-1"),
    "zmod:6": ("1", "2", "3", "4", "5"),
}


_ARITH_SETS = ["X", "Z({})", "F({})", "!Z({})"]
_ARITH_LENGTHS = [(x, y, z) for x in (1, 2) for y in (1, 2) for z in (1, 2)]


def _arith_sum(rng: random.Random, ring: str, words: list[str], n_terms: int, sets) -> str:
    any_word = ["_"] + words
    terms = []
    for _ in range(n_terms):
        a_set = next(sets).format(rng.choice(words))
        terms.append((rng.choice(_SCALARS[ring]),
                      f"s({rng.choice(any_word)})*p({a_set})*st({rng.choice(any_word)})"))
    return _join_terms(terms)


def arith_ops(seed: int) -> list[Op]:
    """Triples X, Y, Z of sums of 1-2 monomials per (shift, ring); op i is,
    in rotation, the normal form of X*Y, the distributivity identity, and the
    associativity identity.  Each kind of op has every pattern of sum
    lengths equally often, and each kind of set is a quarter of the terms."""
    ops = []
    for si, name in enumerate(ARITH_SHIFT_NAMES):
        words = _words_upto(name, MAX_WORD)
        for ri, ring in enumerate(ARITH_RINGS):
            rng = random.Random(seed * 1_000_003 + 97 * si + ri)
            per_kind = ARITH_PER_ALGEBRA // 3
            lengths = [_deck(rng, _ARITH_LENGTHS, per_kind) for _ in range(3)]
            n_terms = sum(sum(pattern) for deck in lengths for pattern in deck)
            sets = iter(_deck(rng, _ARITH_SETS, n_terms))
            for i in range(ARITH_PER_ALGEBRA):
                x, y, z = (_arith_sum(rng, ring, words, n, sets)
                           for n in lengths[i % 3][i // 3])
                kind = ("nf", "distrib", "assoc")[i % 3]
                if kind == "nf":
                    text = f"({x})*({y})"
                elif kind == "distrib":
                    text = f"({x})*(({y})+({z})) - ({x})*({y}) - ({x})*({z})"
                else:
                    text = f"(({x})*({y}))*({z}) - ({x})*(({y})*({z}))"
                ops.append(Op(f"{name}/{ring}#{i}", f"{name}/{ring}/{kind}",
                              name, ring, kind, text))
    return ops


def scaling_ops(seed: int) -> list[Op]:
    """The fixed element on ``L_2 .. L_8``; the seed does not enter."""
    del seed
    return [Op(f"m{m}", f"m{m}", f"L_{m}", "z", "reduce", SCALING_ELEMENT) for m in SCALING_MS]


GENERATORS = {"scaling": scaling_ops, "census": census_ops, "arith": arith_ops}

# The (shift, ring) algebras each workload builds during set-up; the ops of
# every seed run inside these.
ALGEBRAS = {
    "scaling": [(f"L_{m}", "z") for m in SCALING_MS],
    "census": [(name, "z") for name in CENSUS_SHIFTS],
    "arith": [(name, ring) for name in ARITH_SHIFT_NAMES for ring in ARITH_RINGS],
}


def serialize(ops: list[Op]) -> bytes:
    """Canonical bytes of an input list: shift files plus op records."""
    shifts = {op.shift: shift_text(*shift_spec(op.shift)) for op in ops}
    doc = {"shifts": shifts, "ops": [asdict(op) for op in ops]}
    return json.dumps(doc, sort_keys=True).encode()


def digest(ops: list[Op]) -> str:
    return hashlib.sha256(serialize(ops)).hexdigest()[:16]
