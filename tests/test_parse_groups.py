"""Repeated groups read once per text: ``_parse`` against the parser it replaced.

``_parse`` takes a parenthesised group whose exact tokens the same chain
already read earlier in the text as the node it made then, and skips its
tokens.  ``_parse_reading_every_group`` below is the parser before that
change, kept verbatim as the reference: on every text here the two give the
same node table, ``uses`` and first fraction scalar, or the same error type,
message and position.
"""

import random
import time
from collections import Counter
from itertools import islice

from subshift_algebra import parsing
from subshift_algebra.errors import ExprSyntaxError, SubshiftAlgebraError, UnknownLetter
from subshift_algebra.parsing import (_CHAINS, _EXPR_TOKENS, _PRIMARY_FORMS, _UNIT, _WORD,
                                      _WORD_TOKEN_STARTS, MAX_NESTING, MAX_WORD_LETTERS,
                                      _parse)
from subshift_algebra.shift import SftSpec
from subshift_algebra.words import OMEGA

SPEC = SftSpec.make("ab", ["bb"])  # the golden mean shift


def _parse_reading_every_group(text: str, spec: SftSpec, start: str):
    """``_parse`` as it was before groups were reused: every token is read."""
    tokens = _EXPR_TOKENS.findall(text) + [""]  # "": the end of the text
    letter = {s: k for k, s in enumerate(spec.alphabet)}.__getitem__
    nodes, fractions, uses = {}, [], [0] * (2 * len(tokens))  # a token makes at most 2 nodes
    i = depth = letters = 0  # the next token; the open forms; letters read

    def position():
        match = next(islice(_EXPR_TOKENS.finditer(text), i, None), None)
        return len(text) if match is None else match.start()

    def error(message, offset=0):
        return ExprSyntaxError(message, position() + offset)

    def make(key, *children):
        n = len(nodes)
        found = nodes.setdefault(key, n)
        if found == n:
            for child in children:
                uses[child] += 1
        return found

    def word(opener, closer):
        """The word of token i after ``opener``; ``closer`` must follow."""
        nonlocal i, letters
        run = tokens[i][len(opener):].lstrip()
        at = len(tokens[i]) - len(run)  # where the word starts in the token
        if not run:
            raise error("expected a word", at)
        if run[0] == "_" and len(run) > 1:  # '_' is a word on its own
            raise error(f"expected {closer!r}", at + 1)
        try:
            w = OMEGA if run == "_" else tuple(map(letter, run))
        except KeyError:
            k = next(k for k, ch in enumerate(run) if ch not in spec.alphabet)
            raise UnknownLetter(f"unknown letter {run[k]!r} at position "
                                f"{position() + at + k}") from None
        letters += len(w)
        if letters > MAX_WORD_LETTERS:
            raise error(f"more than {MAX_WORD_LETTERS} letters in the words of one expression", at)
        i += 1
        if tokens[i][:1] != closer:
            raise error(f"expected {closer!r}")
        return w

    forms, ops, tight_ops, expected = chain = _CHAINS[start]
    left = low = right = tight = scalar = wrap = None
    nots, open_chains = 0, []
    while True:
        # An operand: its prefixes, then its form.
        token = tokens[i]
        if (token[-1:] == "." and scalar is None and forms is _PRIMARY_FORMS
                and len(token) > 1 and token[0] not in _WORD_TOKEN_STARTS):
            scalar = token[:-1]
            if "/" in scalar:
                fractions.append((len(nodes), scalar))
            i += 1
            continue
        entry = forms.get(token[:2])
        if entry is None and (entry := forms.get(token[:1])) is None:
            raise error(expected)
        if depth == MAX_NESTING:
            raise error(f"forms nested deeper than {MAX_NESTING}")
        opener, tag, arg = entry
        if type(arg) is tuple:
            w = word(opener, arg[0])
            key = (tag, w) if arg is _WORD else (tag, w, word(",", ")"))
            node = nodes.setdefault(key, len(nodes))
            i += 1
        elif arg is None:
            if token != opener:  # a '1' or '0' that starts a scalar, then the rest
                raise error("expected ')'" if open_chains else "trailing input", 1)
            node = nodes.setdefault((tag,), len(nodes))
            i += 1
        else:
            depth += 1
            i += 1
            if arg is _UNIT:
                nots += 1
            else:
                open_chains.append((chain, left, low, right, tight, scalar, nots, wrap))
                forms, ops, tight_ops, expected = chain = _CHAINS[arg]
                left = low = right = tight = scalar = None
                nots, wrap = 0, tag
            continue
        while True:
            # A complete operand: apply its prefixes, join it, read an operator.
            while nots:
                node = make(("not", node), node)
                nots -= 1
                depth -= 1
            if scalar is not None:
                node = make(("scale", scalar, node), node)
                scalar = None
            right = node if tight is None else make((tight, right, node), right, node)
            token = tokens[i]
            tight = tight_ops.get(token)
            if tight is not None:
                i += 1
                break
            node = right if low is None else make((low, left, right), left, right)
            low = ops.get(token[:1])
            if low is not None:
                left = node
                if len(token) > 1:  # a signed scalar: its sign is the operator
                    tokens[i] = token[1:]
                else:
                    i += 1
                break
            if token != (")" if open_chains else ""):
                raise error("expected ')'" if open_chains else "trailing input")
            if not open_chains:
                return nodes, uses, fractions
            i += 1
            depth -= 1
            if wrap is not None:
                node = make((wrap, node), node)
            chain, left, low, right, tight, scalar, nots, wrap = open_chains.pop()
            forms, ops, tight_ops, expected = chain


def _outcome(parse, text, start):
    """The node table, ``uses`` and first fraction scalar of ``text`` read as
    chain ``start``, or the error's type, message and position."""
    try:
        nodes, uses, fractions = parse(text, SPEC, start)
    except SubshiftAlgebraError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return list(nodes.items()), uses, fractions[:1]


# -- texts whose groups repeat ---------------------------------------------------

WORDS = ("_", "a", "b", "ab", "ba", "aab", "bab")
# Scalars, glued fraction and signed ones among them; a '-' operator before a
# scalar glues to it into one signed-scalar token.
SCALARS = ("", "", "", "2.", "-3.", "1/2.", "-1/3.", "12.")
SPACES = ("", "", " ")


def _group(rng, depth, pools, chain):
    """A parenthesised group of ``chain``: mostly one made before, so that
    groups repeat; in a text with ``pools["swap"]`` set, now and then one of
    the other chain."""
    if rng.random() < pools["swap"]:
        chain = "set" if chain == "expr" else "expr"
    pool = pools[chain]
    if pool and rng.random() < 0.7:
        return rng.choice(pool)
    text = _expr_text if chain == "expr" else _set_text
    pool.append(f"({text(rng, depth - 1, pools)})")
    return pool[-1]


def _set_text(rng, depth, pools):
    units = []
    for _ in range(rng.randint(1, 3)):
        pick = rng.randrange(7 if depth > 0 else 4)
        unit = (f"Z({rng.choice(WORDS)})", f"F({rng.choice(WORDS)})",
                f"C({rng.choice(WORDS)},{rng.choice(WORDS)})", "X")[pick] if pick < 4 else \
            _group(rng, depth, pools, "set")
        units.append("!" * rng.choice((0, 0, 0, 1, 2)) + unit)
    text = units[0]
    for unit in units[1:]:
        text += rng.choice(SPACES) + rng.choice("&|") + rng.choice(SPACES) + unit
    return text


def _expr_text(rng, depth, pools):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            pick = rng.randrange(8 if depth > 0 else 5)
            primary = (f"s({rng.choice(WORDS)})", f"st({rng.choice(WORDS)})",
                       f"p({_set_text(rng, depth, pools)})", "1", "0")[pick] if pick < 5 else \
                _group(rng, depth, pools, "expr")
            factors.append(rng.choice(SCALARS) + primary)
        terms.append((rng.choice(SPACES) + "*" + rng.choice(SPACES)).join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice(SPACES) + rng.choice("+-") + rng.choice(("", "", " ")) + term
    return text


def _seeded_texts(n, seed):
    rng = random.Random(seed)
    texts = []
    for k in range(n):
        pools = {"expr": [], "set": [], "swap": 0.1 if k % 5 == 0 else 0}
        texts.append(_expr_text(rng, 3, pools) if k % 2 else _set_text(rng, 3, pools))
    return texts


def _arith_texts(n, seed):
    """Texts shaped like the benchmark's arith workload: a product, and the
    distributivity and associativity identities, of sums of 1-2 monomials."""
    rng = random.Random(seed)
    words = [w for w in WORDS if w != "_"]
    scalars = ("-3", "-2", "-1", "1", "2", "3", "1/2", "-1/2", "-2/3")

    def a_sum():
        text = ""
        for k in range(rng.randint(1, 2)):
            scalar = rng.choice(scalars)
            a_set = rng.choice(("X", "Z({})", "F({})", "!Z({})")).format(rng.choice(words))
            body = f"s({rng.choice(WORDS)})*p({a_set})*st({rng.choice(WORDS)})"
            if not k:
                text = f"{scalar}.{body}"
            elif scalar.startswith("-"):
                text += f" - {scalar[1:]}.{body}"
            else:
                text += f" + {scalar}.{body}"
        return text

    texts = []
    for _ in range(n):
        x, y, z = a_sum(), a_sum(), a_sum()
        texts += [f"({x})*({y})", f"({x})*(({y})+({z})) - ({x})*({y}) - ({x})*({z})",
                  f"(({x})*({y}))*({z}) - ({x})*(({y})*({z}))"]
    return texts


def _nesting_texts():
    """Repeated groups of heights 1 to 3 whose copies stand 0 to 100 forms
    deep, in either order; and a group whose first copy takes a repeated group
    as it is, so that its height must count that group's."""
    texts = []
    for g in ("(s(a))", "((s(a)) - 1)", "(p(!(X | !Z(a))) * 2.((1)))", "(-3.(1/2.st(b)))"):
        h = ("(" + g + " * s(a))")
        for first in (0, 1, 50, 96, 97, 98, 99, 100):
            for second in range(94, 101):
                texts.append("(" * first + g + ")" * first + " + "
                             + "(" * second + g + ")" * second)
                texts.append("(" * second + g + ")" * second + "-" + "(" * first + g + ")" * first)
            texts.append(f"{g} + {h} + " + "(" * first + h + ")" * first)
    for s in ("(X)", "(!(Z(a) | X))", "((F(b)) & !X)"):
        for first in (0, 97, 98):
            for second in range(95, 101):
                texts.append("!" * first + s + " | " + "!" * second + s)
                texts.append(f"{s} & " + "(" * second + s + ")" * second)
    return texts


def _letter_texts():
    """A repeated group whose second copy crosses MAX_WORD_LETTERS, at its
    first or at a later word, or reaches it exactly."""
    half = MAX_WORD_LETTERS // 2
    texts = [f"(s({'a' * half})) + (s({'a' * half}))",
             f"(s({'ab' * (half // 2)})) * (s({'ab' * (half // 2)})) + s(a)",
             f"s(a) + (s({'a' * half})) + (s({'a' * half}))"]
    g = f"(s({'a' * 1000}) + st({'b' * 1000}))"
    for lead in (0, 95, 96, 97, 2000):
        texts.append(f"s({'a' * lead or '_'}) + {g} - {g}")
        texts.append(f"{g} - s({'a' * lead or '_'}) * {g}")
    return texts


CORNER_CASES = [
    # One group read as an expression and as a set.
    "(Z(a))", "p((Z(a))) + (Z(a))", "(Z(a)) | p(X)", "p((Z(a))) * p((Z(a)))",
    "(Z(a)) | (Z(a))", "p((s(a))) + (s(a))", "(s(a)) + p((s(a)))",
    # Glued signed and fraction scalars inside repeated groups; a copy without
    # the sign must not match one whose sign was read as the operator.
    "(s(a)-3.s(b))*(s(a)-3.s(b))", "(s(a)-1/2.s(b)) + (s(a)-1/2.s(b))",
    "(s(a)-3.s(b)) + (s(a)3.s(b))", "(s(a)3.s(b)) + (s(a)-3.s(b))",
    "(s(a) -3.s(b)) - (s(a)-3.s(b))", "(2.s(a))-3.(2.s(a))", "(1/2.s(a))-1/2.(1/2.s(a))",
    "(s(a)--3.s(b)) + (s(a)--3.s(b))", "(s(a)-3.) + (s(a)-3.)", "(s(a)-3.-3.s(b))",
    # '!' prefixes around and inside repeated groups.
    "!(Z(a)|X) & !(Z(a)|X)", "!!(X) | (X)", "(!X) & !(!X)", "p(!(X)) + p((!X)) + p(!(X))",
    # Groups cut short, unclosed or followed by trailing input.
    "(s(a)) + (s(a)", "(s(a)) + (s(a)) )", "(s(a)) + (", "(s(a)) + ((", "(", "((",
    "(s(a)) (s(a))", "(s(c)) + (s(c))", "(s(a)) + (s(c))", "(s(a)) + (s(a) 1)",
]


def test_groups_read_once_give_the_parents_table(monkeypatch):
    counts = Counter()  # (taken, same tokens) per group compared with an earlier one
    fits = parsing._fits

    def counted_fits(seen, tokens, i, depth, letters):
        length, start = seen[:2]
        taken = fits(seen, tokens, i, depth, letters)
        counts[taken, tokens[i:i + length] == tokens[start:start + length]] += 1
        return taken

    monkeypatch.setattr(parsing, "_fits", counted_fits)
    texts = (_seeded_texts(800, 59) + _arith_texts(150, 61) + _nesting_texts()
             + _letter_texts() + CORNER_CASES)
    kinds = set()
    for text in texts:
        for start in ("expr", "set"):
            old = _outcome(_parse_reading_every_group, text, start)
            assert _outcome(_parse, text, start) == old, (start, text)
            kinds.add(old[0] if isinstance(old[0], type) else "ok")
    # Both parses succeed and fail, each way.  Groups are taken often; an
    # equal group is refused where a bound would be crossed, and a group
    # with the key of an earlier one is refused where its tokens differ.
    assert kinds == {"ok", ExprSyntaxError, UnknownLetter}
    assert counts[True, True] > 1500
    assert counts[False, True] > 20 and counts[False, False] > 1000
    assert counts[True, False] == 0


def _best_time(text, start="expr"):
    best = float("inf")
    for _ in range(5):
        t = time.process_time()
        _parse(text, SPEC, start)
        best = min(best, time.process_time() - t)
    return best


def _distinct_groups(n_tokens):
    """Groups of 7 tokens no two of which share their first inner token."""
    return " + ".join(f"({k}.s(a) + 1)" for k in range(n_tokens // 8))


def test_group_lookup_stays_linear():
    # Each group is compared with one earlier group at most, so many groups
    # that share their first inner tokens, and deep nests of groups that
    # share them at every level, parse about as fast per token as groups
    # that share nothing.
    shared = " + ".join(f"(s(a) + {k}.1)" for k in range(3000))
    nested = " + ".join("(" * 90 + f"s(a) + {k}.1" + ")" * 90 for k in range(120))
    repeated = " + ".join(["(" * 90 + "s(a) + 2.1" + ")" * 90] * 120)
    sets = " | ".join("!" * 40 + "(" * 50 + f"C({'ab' * (k % 7) or '_'},{'ba' * (k // 7) or '_'})"
                      + ")" * 50 for k in range(100))
    for text, start in ((shared, "expr"), (nested, "expr"), (repeated, "expr"), (sets, "set")):
        n_tokens = len(_EXPR_TOKENS.findall(text))
        assert _best_time(text, start) < 4 * _best_time(_distinct_groups(n_tokens)), text[:40]
