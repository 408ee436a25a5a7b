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

The parser hash-conses the AST (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): equal subexpressions of one text are one node, keyed
by its tag, its words or scalar text and the identities of its children, so
that building a node costs O(1) beyond its own text.  The AST still compares
``==`` to the tree it stands for.  One evaluation builds each node that it
reaches more than once a single time and keeps no value past its return, so
``evaluate`` builds every repeated subexpression once per call.
"""

from __future__ import annotations

import operator
import re
from functools import partial

from .algebra import AlgebraElement, SubshiftAlgebra
from .clopen import ClopenSet, c_set, cylinder, full_set
from .errors import (BadScalarForRing, DuplicateSymbol, EmptyAlphabet,
                     ExprSyntaxError, IllegalForbiddenWord, ShiftParseError,
                     UnknownLetter)
from .rings import QQ
from .shift import SftSpec
from .words import OMEGA, Word

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


def format_shift(spec: SftSpec) -> str:
    alpha = " ".join(spec.alphabet)
    forb = ", ".join(spec.word_to_str(w) for w in sorted(spec.forbidden))
    return f"alphabet: {alpha}\nforbidden:{' ' + forb if forb else ''}\n"


# -- expressions ------------------------------------------------------------------

# AST nodes are tagged tuples:
#   ('s', word) ('st', word) ('p', set) ('one',) ('zero',)
#   ('scale', scalar_text, node) ('add'|'sub'|'mul', left, right)
# set nodes:
#   ('Z', word) ('F', word) ('C', w1, w2) ('X',) ('not', s) ('and'|'or', l, r)

ExprAst = tuple

_SCALAR = re.compile(r"(-?\d+(?:/\d+)?)\.")


class _Scanner:
    def __init__(self, text: str, spec: SftSpec):
        self.text = text
        self.pos = 0
        self.depth = 0  # forms open around the current position
        self.letters = 0  # letters in the words read so far
        self.spec = spec
        self.symbol_index = {s: i for i, s in enumerate(spec.alphabet)}
        # The parse's nodes by key: the tag, then each word or scalar text,
        # and the id of each child node, already the parse's own one.
        self.nodes: dict[tuple, ExprAst] = {}

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ExprSyntaxError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def take_word(self) -> Word:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "_":
            self.pos += 1
            return OMEGA
        letters = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in (")", ",") or ch.isspace():
                break
            if ch not in self.symbol_index:
                raise UnknownLetter(f"unknown letter {ch!r} at position {self.pos}")
            letters.append(self.symbol_index[ch])
            self.pos += 1
        if not letters:
            raise ExprSyntaxError("expected a word", start)
        self.letters += len(letters)
        if self.letters > MAX_WORD_LETTERS:
            raise ExprSyntaxError(
                f"more than {MAX_WORD_LETTERS} letters in the words of one expression", start)
        return tuple(letters)

    def finish(self, node: ExprAst) -> ExprAst:
        """``node``, if it ends the text; else a trailing input error."""
        self.skip_ws()
        if self.pos < len(self.text):
            raise ExprSyntaxError("trailing input", self.pos)
        return node


def _binary(operand, ops: dict[str, str], sc: _Scanner) -> ExprAst:
    """``operand (op operand)*``, folded to the left; ``ops`` maps each
    operator character to its tag."""
    node = operand(sc)
    while (tag := ops.get(sc.peek())) is not None:
        sc.pos += 1
        right = operand(sc)
        node = sc.nodes.setdefault((tag, id(node), id(right)), (tag, node, right))
    return node


def _form(forms: dict, expected: str, sc: _Scanner) -> ExprAst:
    """The form of ``forms`` whose opener comes next, found by its first
    character.  Its arguments follow, comma-separated, and an opener ending
    in ``(`` is closed by ``)``; a group (tag ``None``) is its argument."""
    for opener, tag, args in forms.get(sc.peek(), ()):
        if sc.text.startswith(opener, sc.pos):
            if sc.depth == MAX_NESTING:
                raise ExprSyntaxError(f"forms nested deeper than {MAX_NESTING}", sc.pos)
            sc.pos += len(opener)
            sc.depth += 1
            node = [tag]
            for i, arg in enumerate(args):
                if i:
                    sc.take(",")
                node.append(arg(sc))
            if opener[-1] == "(":
                sc.take(")")
            sc.depth -= 1
            if tag is None:
                return node[1]
            # The arguments of a form are words, or else one child node.
            node = tuple(node)
            key = node if not args or args[0] is _word else (tag, id(node[1]))
            return sc.nodes.setdefault(key, node)
    raise ExprSyntaxError(expected, sc.pos)


def _by_first_char(*forms) -> dict:
    table: dict = {}
    for form in forms:
        table.setdefault(form[0][0], []).append(form)
    return table


def _factor(sc: _Scanner) -> ExprAst:
    sc.skip_ws()
    scalar = _SCALAR.match(sc.text, sc.pos)
    if scalar:
        sc.pos = scalar.end()
    node = _form(_PRIMARY_FORMS, "expected s(..), st(..), p(..), 1, 0 or '('", sc)
    if not scalar:
        return node
    return sc.nodes.setdefault(("scale", scalar[1], id(node)), ("scale", scalar[1], node))


# The other rules are partials with positional arguments, which cost no
# stack frame of their own: a level of '(' nesting costs four frames (three
# inside p(..)) and a '!' one.  MAX_NESTING bounds the open forms, so parsing
# and evaluating stay well inside Python's recursion limit.
MAX_NESTING = 100
# The most letters, over all its words, that one expression or set expression
# may hold.  The cost of a reduction grows faster than the length of its
# words (on the golden mean shift, reducing s(w) + st(bw) takes seconds for
# a few thousand letters of w and half a minute for 16,000), so longer input
# is refused at the word that crosses the bound.
MAX_WORD_LETTERS = 4096
_term = partial(_binary, _factor, {"*": "mul"})
_expr = partial(_binary, _term, {"+": "add", "-": "sub"})
_SET_FORMS: dict = {}  # filled below: its forms refer back to these rules
_setunit = partial(_form, _SET_FORMS, "expected a set expression")
_setterm = partial(_binary, _setunit, {"&": "and"})
_setexpr = partial(_binary, _setterm, {"|": "or"})

_word = _Scanner.take_word
# (opener, tag, argument parsers); "st(" is tried before "s(".
_PRIMARY_FORMS = _by_first_char(
    ("st(", "st", (_word,)), ("s(", "s", (_word,)), ("p(", "p", (_setexpr,)),
    ("1", "one", ()), ("0", "zero", ()), ("(", None, (_expr,)))
_SET_FORMS.update(_by_first_char(
    ("!", "not", (_setunit,)), ("Z(", "Z", (_word,)), ("F(", "F", (_word,)),
    ("C(", "C", (_word, _word)), ("X", "X", ()), ("(", None, (_setexpr,))))


def parse_expr(text: str, spec: SftSpec) -> ExprAst:
    sc = _Scanner(text, spec)
    return sc.finish(_expr(sc))


def parse_set(text: str, spec: SftSpec) -> ExprAst:
    sc = _Scanner(text, spec)
    return sc.finish(_setexpr(sc))


_CHAIN_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "and": operator.and_, "or": operator.or_}
# The slice of a node that holds its child nodes, by tag; other nodes have none.
_CHILDREN = {"p": slice(1, 2), "scale": slice(2, 3), "not": slice(1, 2),
             **dict.fromkeys(_CHAIN_OPS, slice(1, 3))}
_NO_CHILDREN = slice(0)


class _Evaluation:
    """One evaluation of an AST.  A node reached more than once from the
    root (in a hash-consed AST, a repeated subexpression) is built once: its
    value is kept in ``memo`` until the evaluation ends.  No other value is
    kept, and an AST without shared nodes is evaluated as a tree."""

    def __init__(self, root: ExprAst, algebra: SubshiftAlgebra):
        self.algebra = algebra
        self.memo: dict[int, object] = {}  # id of a shared node -> its value or None
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            key = id(node)
            if key in seen:
                self.memo[key] = None
            else:
                seen.add(key)
                stack += node[_CHILDREN.get(node[0], _NO_CHILDREN)]

    def value(self, node: ExprAst):
        key = id(node)
        if key not in self.memo:
            return self.build(node)
        result = self.memo[key]
        if result is None:
            result = self.memo[key] = self.build(node)
        return result

    def build(self, node: ExprAst):
        tag = node[0]
        if tag in _CHAIN_OPS:
            return self.left_fold(node)
        algebra = self.algebra
        if tag == "s":
            return algebra.elem_s(node[1])
        if tag == "st":
            return algebra.elem_s_star(node[1])
        if tag == "p":
            return algebra.gen_p(self.value(node[1]))
        if tag == "scale":
            ring = algebra.ring
            if "/" in node[1] and ring != QQ:
                raise BadScalarForRing(f"fraction scalar {node[1]!r} needs the rational ring")
            return self.value(node[2]).scale(ring.parse_scalar(node[1]))
        if tag == "one":
            return algebra.one()
        if tag == "zero":
            return algebra.zero()
        g = algebra.graph
        if tag == "Z":
            return cylinder(g, node[1])
        if tag == "F":
            return c_set(g, node[1], OMEGA)
        if tag == "C":
            return c_set(g, node[1], node[2])
        if tag == "X":
            return full_set(g)
        if tag == "not":
            return self.value(node[1]).complement()
        raise AssertionError(f"bad node {node!r}")

    def left_fold(self, node: ExprAst):
        """Evaluate a left-deep chain of binary operators one link at a time,
        so that a long sum costs no recursion per term.  The walk down the
        chain stops at a shared node, whose value is one operand."""
        links = [node]
        node = node[1]
        while node[0] in _CHAIN_OPS and id(node) not in self.memo:
            links.append(node)
            node = node[1]
        acc = self.value(node)
        for tag, _, right in reversed(links):
            acc = _CHAIN_OPS[tag](acc, self.value(right))
        return acc


def eval_set(node: ExprAst, algebra: SubshiftAlgebra) -> ClopenSet:
    return _Evaluation(node, algebra).value(node)


def eval_expr(node: ExprAst, algebra: SubshiftAlgebra) -> AlgebraElement:
    return _Evaluation(node, algebra).value(node)


def evaluate(text: str, algebra: SubshiftAlgebra) -> AlgebraElement:
    return eval_expr(parse_expr(text, algebra.graph.spec), algebra)


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
