"""Parsers and printers for shift files and algebra/set expressions.

Shift file format (two lines, order fixed)::

    alphabet: a b
    forbidden: bb, ba

The printer emits the normalized form (deduplicated, factor-pruned, sorted),
and parsing its own output reproduces it byte-identically.

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
children.  One evaluator serves expressions and sets: ``evaluate`` and
``evaluate_set`` build the table's values front to back in one pass,
dropping each after its last use.  A monomial ``k.s(u)*p(S)*st(v)`` is not
multiplied out: its generators fold into one unbuilt chain, which
:meth:`SubshiftAlgebra.mono` builds as its one component where it is used
otherwise, once.  The AST is for parsing and printing only:
``parse_expr`` and ``parse_set`` build it from the same table, with equal
subtrees one object, and ``format_expr`` prints it back.
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

# AST nodes are tagged tuples:
#   ('s', word) ('st', word) ('p', set) ('one',) ('zero',)
#   ('scale', scalar_text, node) ('add'|'sub'|'mul', left, right)
# set nodes:
#   ('Z', word) ('F', word) ('C', w1, w2) ('X',) ('not', s) ('and'|'or', l, r)
# A node's child nodes come last; _KIDS counts them, by tag.

ExprAst = tuple

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

# Forms (s(, p(, Z(, a parenthesis, !, X, 1, ...) nest at most this deep, so
# that format_expr, which recurses into them, stays inside the recursion limit.
MAX_NESTING = 100
# The most letters, over all its words, that one expression or set expression
# may hold.  The cost of a reduction grows faster than the length of its words
# (on the golden mean shift, reducing s(w) + st(bw) takes seconds for a few
# thousand letters of w and half a minute for 16,000), so longer input is
# refused at the word that crosses the bound.
MAX_WORD_LETTERS = 4096


def _parse(text: str, spec: SftSpec, start: str):
    """The node table of ``text`` read as chain ``start``, with the parent counts
    and fraction scalars that ``_evaluate`` takes.  The open groups and p(..)
    forms are a stack of chains; the chain being read holds its loose part
    ``left low``, its tight part ``right tight`` and its operand's prefixes."""
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


def _run(nodes, uses, makers: dict):
    """Make each entry's value front to back by ``makers[tag]``, from its words
    or scalar text and its children's values, dropped after their last use."""
    values = []

    def take(j):
        value = values[j]
        uses[j] -= 1
        if not uses[j]:
            values[j] = None
        return value

    value = None
    for key in nodes:
        tag = key[0]
        kids = _KIDS.get(tag)
        if kids is None:
            value = makers[tag](*key[1:])
        elif kids == 1:
            value = makers[tag](*key[1:-1], take(key[-1]))
        else:
            value = makers[tag](take(key[1]), take(key[2]))
        values.append(value)
    return value


class _Chain:
    """An unbuilt monomial ``k.s(alpha)*p(A)*st(beta)``: its factors, which
    came in the order s, p, st, from stage ``first`` to stage ``last`` (0, 1
    and 2), with ``None`` for a missing scalar or set.  It is built by one
    :meth:`SubshiftAlgebra.mono` call, at most once."""

    __slots__ = ("alpha", "a", "beta", "k", "first", "last", "element")

    def __init__(self, alpha, a, beta, k, first, last):
        self.alpha, self.a, self.beta, self.k = alpha, a, beta, k
        self.first, self.last, self.element = first, last, None

    def build(self, algebra: SubshiftAlgebra) -> AlgebraElement:
        if self.element is None:
            self.element = algebra.mono(self.alpha, self.a, self.beta, self.k)
        return self.element


def _evaluate(nodes, uses, fractions, algebra: SubshiftAlgebra):
    """The value of a node table.  A fraction scalar outside the rationals is
    refused where its operand's entries would start, so errors come in the order
    of a walk of the expression: a scalar's ring check before its operand's.

    The generators are unbuilt chains (:class:`_Chain`).  A product of two
    chains is one chain when the right one has no scalar and its first factor
    comes after the left one's last, so a monomial's factors never meet in a
    product; any other use builds a chain."""
    g, ring = algebra.graph, algebra.ring

    def built(x):
        return x.build(algebra) if type(x) is _Chain else x

    def scale(scalar, x):
        k = ring.parse_scalar(scalar)
        if type(x) is _Chain and x.k is None:
            return _Chain(x.alpha, x.a, x.beta, k, x.first, x.last)
        return built(x).scale(k)

    def mul(x, y):
        if type(x) is _Chain and type(y) is _Chain and y.k is None and x.last < y.first:
            return _Chain(x.alpha, y.a if x.a is None else x.a, y.beta, x.k, x.first, y.last)
        return built(x) * built(y)

    makers = {"s": lambda w: _Chain(w, None, OMEGA, None, 0, 0),
              "p": lambda a: _Chain(OMEGA, a, OMEGA, None, 1, 1),
              "st": lambda w: _Chain(OMEGA, None, w, None, 2, 2),
              "one": algebra.one, "zero": algebra.zero, "scale": scale, "mul": mul,
              "add": lambda x, y: built(x) + built(y), "sub": lambda x, y: built(x) - built(y),
              "and": operator.and_, "or": operator.or_,
              "Z": partial(cylinder, g), "F": lambda w: c_set(g, w, OMEGA),
              "C": partial(c_set, g), "X": partial(full_set, g), "not": ClopenSet.complement}
    if fractions and ring != QQ:
        stop, scalar = fractions[0]
        _run(islice(nodes, stop), uses, makers)
        raise BadScalarForRing(f"fraction scalar {scalar!r} needs the rational ring")
    return built(_run(nodes, uses, makers))


def parse_expr(text: str, spec: SftSpec) -> ExprAst:
    return _run(*_parse(text, spec, "expr")[:2], _AST_MAKERS)


def parse_set(text: str, spec: SftSpec) -> ExprAst:
    return _run(*_parse(text, spec, "set")[:2], _AST_MAKERS)


def evaluate(text: str, algebra: SubshiftAlgebra) -> AlgebraElement:
    return _evaluate(*_parse(text, algebra.graph.spec, "expr"), algebra)


def evaluate_set(text: str, algebra: SubshiftAlgebra) -> ClopenSet:
    return _evaluate(*_parse(text, algebra.graph.spec, "set"), algebra)


# The printed form of each tag, filled with its arguments in order.
_FORMATS = {
    "s": "s({})", "st": "st({})", "p": "p({})", "one": "1", "zero": "0", "scale": "{}.({})",
    "add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "Z": "Z({})", "F": "F({})",
    "C": "C({},{})", "X": "X", "not": "!({})", "and": "{} & {}", "or": "{} | {}",
}
# How tightly each chain link binds; every other node is a unit (3).
_LEVEL = {"add": 1, "sub": 1, "or": 1, "mul": 2, "and": 2}


def _operand(node: ExprAst, level: int, spec: SftSpec) -> str:
    text = format_expr(node, spec)
    return text if _LEVEL.get(node[0], 3) >= level else f"({text})"


def format_expr(node: ExprAst, spec: SftSpec) -> str:
    """Re-emit an expression or set AST; parsing the output yields an equal
    AST.  A left-deep chain prints flat, one link at a time, and an operand
    is parenthesised only where its level or its place on the right needs
    it.  An argument is the scalar text, a child node or a word."""
    level = _LEVEL.get(node[0], 3)
    if level == 3:
        parts = (a if isinstance(a, str) else
                 format_expr(a, spec) if a and isinstance(a[0], str) else
                 spec.word_to_str(a) for a in node[1:])
        return _FORMATS[node[0]].format(*parts)
    links = []
    while _LEVEL.get(node[0]) == level:
        links.append(node)
        node = node[1]
    text = _operand(node, level, spec)
    for tag, _, right in reversed(links):
        text = _FORMATS[tag].format(text, _operand(right, level + 1, spec))
    return text


_AST_MAKERS = {tag: lambda *args, tag=tag: (tag, *args) for tag in _FORMATS}
