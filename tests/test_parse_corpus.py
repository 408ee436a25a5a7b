"""The outcome of parsing a fixed corpus of seeded texts, pinned.

``parse_corpus.jsonl`` holds one JSON list per line: a text, its outcome
read as an expression and its outcome read as a set expression, on the
golden mean shift.  An outcome is ``ok `` and the parser's node table as
JSON, or the exception type and its message, position included.  The texts
are drawn from the grammar's own pieces by :func:`corpus_texts`.

    python tests/test_parse_corpus.py           # check, without pytest
    python tests/test_parse_corpus.py --write   # record today's outcomes

``--write`` writes only if today's outcomes split the texts into the same
classes as the recorded ones and leave every error outcome as it is; else it
names the first text that does not match and exits nonzero.
"""

import json
import random
import sys
from pathlib import Path

from subshift_algebra.errors import SubshiftAlgebraError
from subshift_algebra.parsing import _parse
from subshift_algebra.shift import SftSpec

CORPUS = Path(__file__).resolve().parent / "parse_corpus.jsonl"
SEED = 16
RANDOM_TEXTS = 1200
GRAMMAR_TEXTS = 1800

# The openers of every form, the word and operator characters, scalars and
# near-scalars, letters of the alphabet and outside it, a digit that `\d`
# takes and one that it does not, and spaces that str.isspace takes.
PIECES = ("st(", "s(", "p(", "1", "0", "(", "!", "Z(", "F(", "C(", "X",
          ")", ",", "_", "+", "-", "*", "|", "&",
          "2.", "-3.", "1/2.", "12", "/", ".",
          "a", "b", "ab", "ba", "c", "\u00e9", "\u0663", "\u00b2",
          " ", "\t", "\x1c", "\u00a0", "\u2003")
SPACES = ("", "", "", "", " ", "  ", "\t", "\x1c", "\u00a0", "\u2003")
WORDS = ("_", "a", "b", "ab", "ba", "aab", "bab")
SCALARS = ("", "", "", "2.", "-3.", "1/2.", "12.", "0.", "-1/3.")

CORNER_CASES = [
    "-3.1/2.", "C(_a,b)", "p(C(_a,b))", "p(C(a,_b))", "s(_a)", "s(__)", "st(_ab)",
    "s(a) -3.s(b)", "s(a)-1/2.s(b)", "s(a) - -3.s(b)", "2.1/2.s(a)", "2.10",
    "10.s(a)", "(2.1/2.)", "((1 + 2.10))", "-3.1/2.s(a)", "1 -3.1/2.",
    "p(C(a , b))", "p(C( _ ,_ ))", "s( )", "s(", "st(", "p(C(a,", "p(C(a,)",
    "p(C(,a))", "p(Z(a)) , s(b)", "s(a,b)", "s(a b)", "s (a)", "p (X)",
    "p(X -3.)", "p(X 1)", "p(1.X)", "-s(a)", "1/2 s(a)", "2..s(a)", "12.5.s(a)",
    "2.-3.s(a)", "\u0663.s(a)", "\u00b2.s(a)", "s(a\u00a0)", "s(\u2003a)",
    "s(a\x1cb)", "s(ac)", "s(ca)", "s(a_)", "s(a(b)", "Z(a)", "p(s(a))",
    "", " ", "\u2003", ")", "1 1", "X", "!X", "p(!!!X)", "p(X & !)", "p(X |)",
    "(" * 99 + "s(a)" + ")" * 99, "(" * 100 + "s(a)" + ")" * 100,
    "(" * 99 + "1/2.s(a)" + ")" * 99, "(" * 99 + "2.1/2." + ")" * 99,
    "(" * 100 + "2.1/2." + ")" * 100, "(" * 98 + "p(X)" + ")" * 98,
    "(" * 98 + "p((X))" + ")" * 98, "p(" + "!" * 98 + "X)", "p(" + "!" * 99 + "X)",
    "!" * 99 + "X", "!" * 100 + "X", "(" * 99 + "Z(a)" + ")" * 99,
]


def _set_text(rng, depth):
    pick = rng.randrange(6 if depth else 4)
    if pick == 0:
        return f"Z({rng.choice(WORDS)})"
    if pick == 1:
        return f"F({rng.choice(WORDS)})"
    if pick == 2:
        return f"C({rng.choice(WORDS)}{rng.choice(SPACES)},{rng.choice(WORDS)})"
    if pick == 3:
        return "X"
    if pick == 4:
        return "!" + _set_text(rng, depth - 1)
    units = [_set_text(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    text = units[0]
    for unit in units[1:]:
        text += rng.choice(SPACES) + rng.choice("&|") + rng.choice(SPACES) + unit
    return f"({text})" if rng.random() < 0.5 else text


def _expr_text(rng, depth):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            pick = rng.randrange(6 if depth else 5)
            primary = (f"s({rng.choice(WORDS)})", f"st({rng.choice(WORDS)})",
                       f"p({_set_text(rng, 1)})", "1", "0")[pick] if pick < 5 else \
                f"({_expr_text(rng, depth - 1)})"
            factors.append(rng.choice(SCALARS) + rng.choice(SPACES) + primary)
        terms.append((rng.choice(SPACES) + "*" + rng.choice(SPACES)).join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice(SPACES) + rng.choice("+-") + rng.choice(SPACES) + term
    return text


def _mutate(rng, text):
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(text))
        pick = rng.randrange(3)
        if pick == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif pick == 1:
            text = text[:at] + text[at + rng.randint(1, 2):]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
    return text


def corpus_texts() -> list[str]:
    rng = random.Random(SEED)
    texts = ["".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))
             for _ in range(RANDOM_TEXTS)]
    for k in range(GRAMMAR_TEXTS):
        text = _expr_text(rng, 2) if k % 2 else _set_text(rng, 3)
        texts.append(_mutate(rng, text))
    return texts + CORNER_CASES


SPEC = SftSpec.make("ab", ["bb"])  # the golden mean shift


def outcome(start: str, text: str) -> str:
    """The outcome of ``text`` read as chain ``start``, "expr" or "set"."""
    try:
        return "ok " + json.dumps(list(_parse(text, SPEC, start)[0]))
    except SubshiftAlgebraError as exc:
        return f"{type(exc).__name__}: {exc}"


def recorded() -> list[list[str]]:
    with CORPUS.open(encoding="ascii") as f:
        return [json.loads(line) for line in f]


def today() -> list[list[str]]:
    return [[text, outcome("expr", text), outcome("set", text)] for text in corpus_texts()]


def first_mismatch(old_rows, new_rows):
    """The first text whose new outcomes split the texts otherwise than the old
    ones, or change an error outcome, or that the old rows do not hold in its
    place; None if there is none."""
    links = [({}, {}), ({}, {})]  # per reading: old outcome -> new, new -> old
    for k, new in enumerate(new_rows):
        old = old_rows[k] if k < len(old_rows) else [None]
        if old[0] != new[0]:
            return new[0]
        for a, b, (forward, back) in zip(old[1:], new[1:], links):
            changed_error = a != b and not (a.startswith("ok ") and b.startswith("ok "))
            if changed_error or forward.setdefault(a, b) != b or back.setdefault(b, a) != a:
                return new[0]
    return old_rows[len(new_rows)][0] if len(old_rows) > len(new_rows) else None


def test_corpus_is_the_generated_one():
    assert [text for text, _, _ in recorded()] == corpus_texts()


def test_parse_outcomes_match_the_corpus():
    rows = recorded()
    assert len(rows) > 3000
    mismatched = [(old, new) for old, new in zip(rows, today()) if old != new]
    assert not mismatched, mismatched[:5]
    # The corpus reaches every outcome: both parses succeed and fail, with
    # each kind of error.
    outcomes = {o.split(" ")[0] for _, expr, sset in rows for o in (expr, sset)}
    assert outcomes == {"ok", "ExprSyntaxError:", "UnknownLetter:"}


def test_first_mismatch_finds_a_changed_class():
    ok, error = "ok [[\"X\"]]", "ExprSyntaxError: expected ')' (at position 2)"
    old = [["a", "ok 1", error], ["b", "ok 2", error], ["c", "ok 2", "ok 3"]]
    assert first_mismatch(old, [["a", "ok 7", error], ["b", "ok 8", error],
                                ["c", "ok 8", ok]]) is None
    assert first_mismatch(old, [["a", "ok 7", error], ["b", "ok 7", error],
                                ["c", "ok 7", ok]]) == "b"  # two classes merged
    assert first_mismatch(old, [["a", "ok 7", error], ["b", "ok 8", error],
                                ["c", "ok 9", ok]]) == "c"  # a class split
    assert first_mismatch(old, [["a", "ok 7", error], ["b", "ok 8", error + " "],
                                ["c", "ok 8", ok]]) == "b"  # an error changed
    assert first_mismatch(old, [["a", "ok 7", "ok 9"], ["b", "ok 8", error],
                                ["c", "ok 8", ok]]) == "a"  # an error became a parse
    assert first_mismatch(old, old[:2]) == "c"
    assert first_mismatch(old[:2], old) == "c"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = today()
        text = first_mismatch(recorded(), rows)
        if text is not None:
            sys.exit(f"not written: the outcomes of {text!r} do not match the recorded ones")
        with CORPUS.open("w", encoding="ascii") as f:
            f.writelines(json.dumps(row) + "\n" for row in rows)
        classes = [len({row[k] for row in rows}) for k in (1, 2)]
        print(f"{len(rows)} texts, {classes[0]} expression and {classes[1]} set outcomes: "
              "the classes and errors are the recorded ones; written")
    else:
        test_corpus_is_the_generated_one()
        test_parse_outcomes_match_the_corpus()
        print(f"{len(recorded())} texts: outcomes match")
