"""Parsers for shift files and algebra/set expressions.

Shift file format (two lines, order fixed)::

    alphabet: a b
    forbidden: bb, ba

:class:`SftSpec` normalizes the forbidden words (deduplicated, factor-pruned).

Expression grammar (LL(1), whitespace-insensitive)::

    expr      := term (('+' | '-') term)*
    term      := factor ('*' factor)*
    factor    := [scalar '.'] primary
    primary   := s(word) | st(word) | p(setexpr) | 1 | 0 | '(' expr ')'
    setexpr   := setterm ('|' setterm)*
    setterm   := setunit ('&' setunit)*
    setunit   := '!' setunit | Z(word) | F(word) | C(word, word) | X
               | '(' setexpr ')'
    word      := '_' | symbol+          ('_' denotes the empty word)
    symbol    := any single character of the alphabet other than the
                 reserved '_', ',' and ')'
    scalar    := '-'? digits ['/' digits]   (the trailing '.' is mandatory)

Scalars are ring-dependent: ``k.`` everywhere, ``k/m.`` only over the
rationals.

One regular expression splits a text into tokens in one scan; text
positions are found only for an error, by scanning again.  The parser
hash-conses (Filliâtre & Conchon, *Type-safe modular hash-consing*, 2006):
its table holds each distinct node once, keyed by its tag, words or scalar
text and the table positions of its children, so a node comes after its
children.  The table is the parse; no other form of it is built.

Hash-consing makes a repeated node once, but each copy's tokens would still
be read.  So the parser also keeps each parenthesised group it closes, the
latest one per key (its chain and the two tokens after its ``(``), as the
range of token positions it spans, its node, its letters and how deep it
nests.  A group that opens with the key and the exact tokens of the kept one
is that node: its tokens are skipped and its letters counted.  If its
letters or its depth would cross ``MAX_WORD_LETTERS`` or ``MAX_NESTING``,
it is read as any other group, so each error keeps its message and
position.  One earlier group is compared per key, so the cost stays linear
in the text.  The groups are kept for one text only: across texts a group
recurs where the same text is read again, and a caller that reads a text
again can keep its value instead.

One evaluator serves expressions and sets: ``evaluate`` and
``evaluate_set`` build the table's values front to back in one pass,
dropping each after its last use.  A monomial ``k.s(u)*p(S)*st(v)`` is not
multiplied out: its generators fold into one unbuilt chain, which
:meth:`SubshiftAlgebra.mono` builds as its one component where it is used
otherwise, once.

The evaluator extends the hash-consing to the set leaves ``Z(w)``, ``F(w)``,
``C(a, b)`` and ``X`` for the lifetime of the follower graph: their sets are
interned in the graph's leaf memo (``FollowerGraph.leaves``), keyed by the
leaf's node key, such as ``('Z', w)`` or ``('X',)``.  A miss builds the set
with the checked constructor (:func:`cylinder`, :func:`c_set` or
:func:`full_set`); a hit is that set again, in any text and any ring over
the graph.  The memo lives and dies with the graph; it is never emptied, so
it holds one entry per distinct leaf asked.  Sets are immutable by
convention and :meth:`ClopenSet.complement` is computed at most once per
set and kept, so ``!Z(w)`` of an interned ``Z(w)`` is built once too.
"""

from __future__ import annotations

import operator
import re
from functools import partial
from itertools import islice

from .algebra import AlgebraElement, SubshiftAlgebra
from .clopen import ClopenSet, c_set, cylinder, full_set
from .errors import (BadScalarForRing, DuplicateSymbol, EmptyAlphabet,
                     ExprSyntaxError, IllegalForbiddenWord, ShiftParseError,
                     UnknownLetter)
from .rings import QQ
from .shift import SftSpec
from .words import OMEGA

# -- shift files ----------------------------------------------------------------

RESERVED_SYMBOLS = "_,)"  # the empty word and the word terminators
_TOKEN = re.compile(r"\S+")


def parse_shift(text: str) -> SftSpec:
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if len(stripped) < 1 or not stripped[0][1].startswith("alphabet:"):
        raise ShiftParseError("expected an 'alphabet:' line", 1, 1)
    lineno = stripped[0][0]
    line = lines[lineno - 1]
    tokens = list(_TOKEN.finditer(line, line.index("alphabet:") + len("alphabet:")))
    symbols = [t[0] for t in tokens]
    if not symbols:
        raise EmptyAlphabet("alphabet must list at least one symbol", lineno, 1)
    for t in tokens:
        s, column = t[0], t.start() + 1
        if len(s) != 1:
            raise ShiftParseError(f"alphabet symbols must be single characters: {s!r}",
                                  lineno, column)
        if s in RESERVED_SYMBOLS:
            raise ShiftParseError(f"alphabet symbol {s!r} is reserved by the word grammar",
                                  lineno, column)
    if len(set(symbols)) != len(symbols):
        dup = next(t for i, t in enumerate(tokens) if t[0] in symbols[:i])
        raise DuplicateSymbol(f"duplicate alphabet symbol {dup[0]!r}", lineno, dup.start() + 1)
    forbidden: list[str] = []
    if len(stripped) > 1:
        lineno2, forb_line = stripped[1]
        if not forb_line.startswith("forbidden:"):
            raise ShiftParseError("expected a 'forbidden:' line", lineno2, 1)
        if len(stripped) > 2:
            raise ShiftParseError("unexpected extra line", stripped[2][0], 1)
        line = lines[lineno2 - 1]
        start = line.index("forbidden:") + len("forbidden:")
        if line[start:].strip():
            for piece in line[start:].split(","):
                w = piece.strip()
                column = start + len(piece) - len(piece.lstrip()) + 1  # where w stands
                start += len(piece) + 1
                if not w:
                    raise IllegalForbiddenWord("empty forbidden word", lineno2, column)
                for i, ch in enumerate(w):
                    if ch not in symbols:
                        raise IllegalForbiddenWord(
                            f"forbidden word {w!r} uses unknown symbol {ch!r}",
                            lineno2, column + i)
                forbidden.append(w)
    return SftSpec.make(symbols, forbidden)


# -- expressions ------------------------------------------------------------------

# The keys of the node table are tagged tuples, a child given by its position:
#   ('s', word) ('st', word) ('p', set) ('one',) ('zero',)
#   ('scale', scalar_text, node) ('add'|'sub'|'mul', left, right)
# set nodes:
#   ('Z', word) ('F', word) ('C', w1, w2) ('X',) ('not', s) ('and'|'or', l, r)
# A node's child nodes come last; _KIDS counts them, by tag.

_KIDS = {"p": 1, "not": 1, "scale": 1, "add": 2, "sub": 2, "mul": 2, "and": 2, "or": 2}

# One token: a word form's opener, or the ',' between the words of C(..),
# with the run of characters after it that a word can hold; a scalar; 'p(';
# or any other character (the common ones first).  Spaces match nothing.
_EXPR_TOKENS = re.compile(r"[()*+|&!X]|(?:st\(|s\(|Z\(|F\(|C\(|,)\s*[^\s,)]*"
                          r"|-?\d+(?:/\d+)?\.|p\(|\S")
_WORD_TOKEN_STARTS = "sZFC,"  # no other token of two or more characters starts so

# The forms (opener, tag, argument) by the first two characters of the opener.
# The argument is the character after each word, _UNIT (the operand after the
# opener), the chain inside a group (tag None) or p(..), or None.  A chain is
# (operand forms, operators, tighter operators, error for a missing operand).
_WORD, _UNIT = (")",), "unit"
_PRIMARY_FORMS = {"st": ("st(", "st", _WORD), "s(": ("s(", "s", _WORD), "p(": ("p(", "p", "set"),
                  "1": ("1", "one", None), "0": ("0", "zero", None), "(": ("(", None, "expr")}
_SET_FORMS = {"!": ("!", "not", _UNIT), "Z(": ("Z(", "Z", _WORD), "F(": ("F(", "F", _WORD),
              "C(": ("C(", "C", (",", ")")), "X": ("X", "X", None), "(": ("(", None, "set")}
_CHAINS = {"expr": (_PRIMARY_FORMS, {"+": "add", "-": "sub"}, {"*": "mul"},
                    "expected s(..), st(..), p(..), 1, 0 or '('"),
           "set": (_SET_FORMS, {"|": "or"}, {"&": "and"}, "expected a set expression")}

# Forms (s(, p(, Z(, a parenthesis, !, X, 1, ...) nest at most this deep.  It
# bounds the input only: nothing recurses over a parse.
MAX_NESTING = 100
# The most letters, over all its words, that one expression or set expression
# may hold.  The cost of a reduction grows faster than the length of its words
# (on the golden mean shift, reducing s(w) + st(bw) takes 1.9-2.1 s of CPU for
# a seeded random w of 2,000 letters that ends in a, and 8.9-10.8 s for 4,000
# letters, built through the library, on a 2-vCPU Xeon; a w that ends in b
# takes milliseconds), so longer input is refused at the word that crosses
# the bound.
MAX_WORD_LETTERS = 4096


def _parse(text: str, spec: SftSpec, start: str):
    """The node table of ``text`` read as chain ``start``, with the parent counts
    and fraction scalars that ``_evaluate`` takes.  The open groups and p(..)
    forms are a stack of chains; the chain being read holds its loose part
    ``left low``, its tight part ``right tight`` and its operand's prefixes.
    A group whose tokens equal those of the latest group closed with the same
    key is not read again (:func:`_fits`)."""
    tokens = _EXPR_TOKENS.findall(text)
    letter = {s: k for k, s in enumerate(spec.alphabet)}.__getitem__
    nodes, fractions, uses = {}, [], [0] * (2 * len(tokens) + 2)  # a token makes at most 2 nodes
    tokens += ["", ""]  # the end of the text; a group's key reads two tokens past its '('
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
    # The groups closed so far, the latest per key: (its length in tokens, where
    # it opened, its node, its letters, how deep it nests); where the open
    # chain opened, the letters read before it and its deepest form so far.
    groups, opened, read, peak = {}, 0, 0, 0
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
            # A group keyed as one closed before (by its chain, which ``expected``
            # names, and its first two tokens) is that group's node if it fits.
            seen = groups.get((expected, tokens[i + 1], tokens[i + 2])) if tag is None else None
            if seen is not None and _fits(seen, tokens, i, depth, letters):
                length, _, node, n, height = seen
                i += length
                letters += n
                if depth + height > peak:
                    peak = depth + height
            else:
                depth += 1
                i += 1
                if arg is _UNIT:
                    nots += 1
                    if depth > peak:
                        peak = depth
                else:
                    open_chains.append((chain, left, low, right, tight, scalar, nots, wrap,
                                        opened, read, peak))
                    forms, ops, tight_ops, expected = chain = _CHAINS[arg]
                    left = low = right = tight = scalar = None
                    nots, wrap, opened, read, peak = 0, tag, i - 1, letters, depth
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
                i += 1
                if len(token) > 1:  # a signed scalar: its sign is the operator
                    scalar = token[1:-1]
                    if "/" in scalar:
                        fractions.append((len(nodes), scalar))
                break
            if token != (")" if open_chains else ""):
                raise error("expected ')'" if open_chains else "trailing input")
            if not open_chains:
                return nodes, uses, fractions
            i += 1
            depth -= 1
            if wrap is not None:
                node = make((wrap, node), node)
            else:  # a group: kept for an equal one later in the text
                key = (expected, tokens[opened + 1], tokens[opened + 2])
                groups[key] = (i - opened, opened, node, letters - read, peak - depth)
            (chain, left, low, right, tight, scalar, nots, wrap,
             opened, read, inner) = open_chains.pop()
            forms, ops, tight_ops, expected = chain
            if peak < inner:
                peak = inner


def _fits(seen, tokens, i, depth, letters):
    """Whether the group read before as ``seen`` opens again at token ``i``
    and may be taken as it is: its tokens are the same, and reading it again
    would cross neither bound."""
    length, start, _, n, height = seen
    return (depth + height < MAX_NESTING and letters + n <= MAX_WORD_LETTERS
            and tokens[i:i + length] == tokens[start:start + length])


def _run(nodes, uses, makers: dict):
    """Make each entry's value front to back by ``makers[tag]``, from its words
    or scalar text and its children's values, dropped after their last use."""
    values, value = [], None
    for key in nodes:
        tag = key[0]
        kids = _KIDS.get(tag)
        if kids is None:
            value = makers[tag](*key[1:])
        else:
            j = key[-1]
            if kids == 1:
                value = makers[tag](*key[1:-1], values[j])
            else:
                k = key[1]
                value = makers[tag](values[k], values[j])
                uses[k] -= 1
                if not uses[k]:
                    values[k] = None
            uses[j] -= 1
            if not uses[j]:
                values[j] = None
        values.append(value)
    return value


def _evaluate(nodes, uses, fractions, algebra: SubshiftAlgebra):
    """The value of a node table.  A fraction scalar outside the rationals is
    refused where its operand's entries would start, so errors come in the order
    of a walk of the expression: a scalar's ring check before its operand's.

    The generators are unbuilt chains.  A chain is a monomial
    ``k.s(alpha)*p(A)*st(beta)`` as the list ``[alpha, A, beta, k, first,
    last, element]``: its factors, which came in the order s, p, st, from stage
    ``first`` to stage ``last`` (0, 1 and 2), with ``None`` for a missing
    scalar or set, and the element that one :meth:`SubshiftAlgebra.mono` call
    builds from them, at most once.  (A list, not an object: a text makes one
    chain per generator, scaled generator and folded product, and a list is
    made several times faster than an object with an ``__init__``.)  A product
    of two chains is one chain when the right one has no scalar and its first
    factor comes after the left one's last, so a monomial's factors never meet
    in a product; any other use builds a chain.  A set leaf is taken from the
    graph's leaf memo, and built by ``build`` only on a miss."""
    g, ring = algebra.graph, algebra.ring
    leaves = g.leaves

    def leaf(tag, build):
        def interned(*words):
            key = (tag, *words)
            found = leaves.get(key)
            if found is None:
                found = leaves[key] = build(*words)
            return found
        return interned

    def built(x):
        if type(x) is not list:
            return x
        if x[6] is None:
            x[6] = algebra.mono(*x[:4])
        return x[6]

    def scale(scalar, x):
        k = ring.parse_scalar(scalar)
        if type(x) is list and x[3] is None:
            return [x[0], x[1], x[2], k, x[4], x[5], None]
        return built(x).scale(k)

    def mul(x, y):
        if type(x) is list and type(y) is list and y[3] is None and x[5] < y[4]:
            return [x[0], y[1] if x[1] is None else x[1], y[2], x[3], x[4], y[5], None]
        return built(x) * built(y)

    makers = {"s": lambda w: [w, None, OMEGA, None, 0, 0, None],
              "p": lambda a: [OMEGA, a, OMEGA, None, 1, 1, None],
              "st": lambda w: [OMEGA, None, w, None, 2, 2, None],
              "one": algebra.one, "zero": algebra.zero, "scale": scale, "mul": mul,
              "add": lambda x, y: built(x) + built(y), "sub": lambda x, y: built(x) - built(y),
              "and": operator.and_, "or": operator.or_,
              "Z": leaf("Z", partial(cylinder, g)), "F": leaf("F", lambda w: c_set(g, w, OMEGA)),
              "C": leaf("C", partial(c_set, g)), "X": leaf("X", partial(full_set, g)),
              "not": ClopenSet.complement}
    if fractions and ring != QQ:
        stop, scalar = fractions[0]
        _run(islice(nodes, stop), uses, makers)
        raise BadScalarForRing(f"fraction scalar {scalar!r} needs the rational ring")
    return built(_run(nodes, uses, makers))


def evaluate(text: str, algebra: SubshiftAlgebra) -> AlgebraElement:
    return _evaluate(*_parse(text, algebra.graph.spec, "expr"), algebra)


def evaluate_set(text: str, algebra: SubshiftAlgebra) -> ClopenSet:
    return _evaluate(*_parse(text, algebra.graph.spec, "set"), algebra)

