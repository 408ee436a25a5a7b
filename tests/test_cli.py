"""CLI: file/expression parsing, command behavior, golden-file determinism."""

import io
import random
import shlex
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from subshift_algebra import reduction
from subshift_algebra.algebra import MAX_PRODUCT_PAIRS, AlgebraElement, SubshiftAlgebra
from subshift_algebra.cli import main
from subshift_algebra.clopen import (MAX_PRINTED_LETTERS, MAX_PRINTED_WORDS, ClopenSet,
                                     c_set, cylinder, full_set)
from subshift_algebra.errors import (BadScalarForRing, DuplicateSymbol,
                                     EmptyAlphabet, ExprSyntaxError,
                                     IllegalForbiddenWord, ShiftParseError,
                                     UnknownLetter)
from subshift_algebra.parsing import (MAX_NESTING, MAX_WORD_LETTERS, RESERVED_SYMBOLS,
                                      evaluate, format_expr,
                                      parse_expr, parse_set, parse_shift)
from subshift_algebra.rings import MAX_MODULUS, QQ, ZZ, ring_from_name
from subshift_algebra.shift import FollowerGraph, SftSpec, build_follower_graph
from subshift_algebra.words import OMEGA

from conftest import W, l_spec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

SHIFT_PATHS = {
    "full2": FIXTURES / "full2.shift",
    "golden_mean": FIXTURES / "golden_mean.shift",
    "y": FIXTURES / "y.shift",
}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


# -- shift files -----------------------------------------------------------------


def test_parse_shift_fixtures():
    gm = parse_shift(SHIFT_PATHS["golden_mean"].read_text())
    assert gm.alphabet == ("a", "b")
    assert gm.forbidden == frozenset({W("bb")})
    full = parse_shift(SHIFT_PATHS["full2"].read_text())
    assert full.forbidden == frozenset()


def test_parse_shift_errors():
    with pytest.raises(DuplicateSymbol):
        parse_shift("alphabet: a a\nforbidden:\n")
    with pytest.raises(EmptyAlphabet):
        parse_shift("alphabet:\nforbidden:\n")
    with pytest.raises(IllegalForbiddenWord):
        parse_shift("alphabet: a b\nforbidden: bc\n")
    for symbol in RESERVED_SYMBOLS:
        with pytest.raises(ShiftParseError, match="reserved") as err:
            parse_shift(f"alphabet: a {symbol}\nforbidden:\n")
        assert (err.value.line, err.value.column) == (1, 13)
    # A symbol's column is its own position in the line as written.
    for text, position in (("alphabet: ab\n", (1, 11)), ("   alphabet: a  bc\n", (1, 17)),
                           ("\n  alphabet:   a _\n", (2, 17))):
        with pytest.raises(ShiftParseError) as err:
            parse_shift(text)
        assert (err.value.line, err.value.column) == position
    # So is an offending symbol's or forbidden word's, leading spaces included.
    for text, error, position in (
            ("alphabet: a b a\n", DuplicateSymbol, (1, 15)),
            ("  alphabet:  a b a\n", DuplicateSymbol, (1, 18)),
            ("alphabet: a b\nforbidden: aa, ac\n", IllegalForbiddenWord, (2, 17)),
            ("alphabet: a b\n  forbidden:  aa,  ac\n", IllegalForbiddenWord, (2, 21)),
            ("alphabet: a b\nforbidden: aa, , b\n", IllegalForbiddenWord, (2, 16)),
            ("alphabet: a b\nforbidden: aa,\n", IllegalForbiddenWord, (2, 15))):
        with pytest.raises(error) as err:
            parse_shift(text)
        assert (err.value.line, err.value.column) == position, text


def test_parse_shift_normalizes():
    # A repeated forbidden word counts once, spaces around a word are dropped,
    # and the alphabet keeps the order it is written in.
    for text, alphabet, forbidden in (
            ("alphabet: a b\nforbidden: bb, bb, abb\n", "ab", ["bb", "abb"]),
            ("alphabet: a b\nforbidden:\n", "ab", []),
            ("alphabet: b a c\nforbidden: aa , cb\n", "bac", ["aa", "cb"])):
        assert parse_shift(text) == SftSpec.make(alphabet, forbidden)


# -- expressions --------------------------------------------------------------------


def test_expr_examples(g_gold, g_y):
    a_gold = SubshiftAlgebra(g_gold, ZZ)
    assert evaluate("s(a)*st(a)", a_gold) == a_gold.gen_p(cylinder(g_gold, W("a")))
    a_y = SubshiftAlgebra(g_y, ZZ)
    demo = evaluate("p(Z(b)) + s(b)*p(Z(b))", a_y)
    zb = cylinder(g_y, W("b"))
    assert demo == a_y.gen_p(zb) + a_y.elem_s((1,)) * a_y.gen_p(zb)


def test_expr_syntax_errors(g_gold):
    spec = g_gold.spec
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("s(ab", spec)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("s(a) +", spec)
    with pytest.raises(ExprSyntaxError):
        parse_expr("", spec)
    with pytest.raises(ExprSyntaxError):
        parse_expr("s(a) s(b)", spec)
    with pytest.raises(UnknownLetter):
        parse_expr("s(ac)", spec)
    with pytest.raises(ExprSyntaxError):
        parse_set("Z(a) + Z(b)", spec)


def test_scalar_parsing(g_full):
    algebra = SubshiftAlgebra(g_full, ZZ)
    assert evaluate("2.s(a)", algebra) == algebra.elem_s((0,)).scale(2)
    assert evaluate("-2.s(a)", algebra) == algebra.elem_s((0,)).scale(-2)
    assert evaluate("1 - 2.1", algebra) == algebra.one().scale(-1)
    assert evaluate("\u0663.s(a)", algebra) == algebra.elem_s((0,)).scale(3)  # Arabic-Indic 3
    with pytest.raises(ExprSyntaxError):
        parse_expr("\u00b2.s(a)", g_full.spec)  # superscript 2: a digit to isdigit only
    with pytest.raises(BadScalarForRing):
        evaluate("1/2.s(a)", algebra)
    rational = SubshiftAlgebra(g_full, QQ)
    half = evaluate("1/2.s(a)", rational)
    assert half + half == rational.elem_s((0,))


@pytest.mark.parametrize("ring, kind", [("z", "an integer"), ("q", "a rational"),
                                        ("zmod:7", "a residue")])
def test_long_scalar_is_refused_by_the_digit_bound(ring, kind, capsys):
    # Python refuses to convert a string of more than
    # sys.get_int_max_str_digits() digits; the refusal names that bound and
    # quotes only a prefix of the scalar.
    limit = sys.get_int_max_str_digits()
    expr = "1" * (limit + 700) + ".s(a)"
    assert run_cli(["nf", SHIFT_PATHS["full2"], "-e", expr, "--ring", ring]) == (2, "")
    assert capsys.readouterr().err == \
        f"error: not {kind} scalar: more than {limit} digits in '{'1' * 20}'...\n"
    assert run_cli(["nf", SHIFT_PATHS["full2"], "-e", "1" * limit + ".1",
                    "--ring", ring])[0] == 0


@pytest.mark.parametrize("ring", ["z", "q"])
def test_long_coefficient_is_refused_by_the_printer(ring, capsys):
    # A product of two 3000-digit scalars has a coefficient of about 6000
    # digits, more than the interpreter converts to text: the commands that
    # print it refuse it by that bound, and iszero, which does not, answers.
    limit = sys.get_int_max_str_digits()
    nines = "9" * 3000
    expr = f"{nines}.1 * {nines}.1"
    for command in ("nf", "reduce"):
        assert run_cli([command, SHIFT_PATHS["full2"], "-e", expr, "--ring", ring]) == (2, "")
        assert capsys.readouterr().err == (f"error: cannot print a coefficient of more than "
                                           f"{limit} digits (sys.get_int_max_str_digits())\n")
    assert run_cli(["iszero", SHIFT_PATHS["full2"], "-e", expr, "--ring", ring]) == \
        (1, "nonzero\n")
    assert run_cli(["nf", SHIFT_PATHS["full2"], "-e", f"{nines}.1", "--ring", ring]) == \
        (0, f"_ _^-1 | {nines} a ; {nines} b\n")


def test_set_expressions(g_gold):
    algebra = SubshiftAlgebra(g_gold, ZZ)
    assert evaluate("p(X)", algebra) == algebra.one()
    assert evaluate("p(!Z(a))", algebra) == algebra.gen_p(
        cylinder(g_gold, W("a")).complement())
    assert evaluate("p(Z(a) | Z(b))", algebra) == algebra.one()
    assert evaluate("p(Z(ab) & Z(aa))", algebra).is_zero()
    assert evaluate("p(C(b,a))", algebra) == algebra.gen_p(
        c_set(g_gold, W("b"), W("a")))
    assert evaluate("p(F(_))", algebra) == algebra.gen_p(full_set(g_gold))


def test_precedence(g_full):
    algebra = SubshiftAlgebra(g_full, ZZ)
    # * binds tighter than +; & tighter than |.
    lhs = evaluate("1 + s(a)*st(a)", algebra)
    rhs = algebra.one() + evaluate("s(a)*st(a)", algebra)
    assert lhs == rhs
    mixed = evaluate("p(Z(a) | Z(b) & Z(bb))", algebra)
    expected = cylinder(g_full, W("a")).union(
        cylinder(g_full, W("b")).intersect(cylinder(g_full, W("bb"))))
    assert mixed == algebra.gen_p(expected)


def _random_set(rng, depth):
    op = rng.choice(["leaf", "not", "and", "or"]) if depth else "leaf"
    if op == "leaf":
        return rng.choice([("Z", W("a")), ("F", W("b")), ("F", OMEGA), ("X",),
                           ("C", W("a"), W("b"))])
    if op == "not":
        return ("not", _random_set(rng, depth - 1))
    return (op, _random_set(rng, depth - 1), _random_set(rng, depth - 1))


def _random_ast(rng, depth, scalars):
    """A random AST with repeated subtrees: an operator may take one
    operand twice, and the distributive and associative identities repeat
    their operands."""
    if depth == 0:
        choice = rng.randrange(5)
        if choice == 0:
            return ("s", W(rng.choice(["a", "b", "ab"])))
        if choice == 1:
            return ("st", W(rng.choice(["a", "b", "ba"])))
        if choice == 2:
            return ("p", _random_set(rng, rng.randint(0, 2)))
        if choice == 3:
            return ("one",)
        return ("zero",)
    op = rng.choice(["add", "sub", "mul", "scale", "twice", "distrib", "assoc"])
    if op == "scale":
        return ("scale", rng.choice(scalars), _random_ast(rng, depth - 1, scalars))
    x, y, z = (_random_ast(rng, depth - 1, scalars) for _ in range(3))
    if op == "twice":
        return (rng.choice(["add", "sub", "mul"]), x, x)
    if op == "distrib":
        return ("sub", ("sub", ("mul", x, ("add", y, z)), ("mul", x, y)), ("mul", x, z))
    if op == "assoc":
        return ("sub", ("mul", ("mul", x, y), z), ("mul", x, ("mul", y, z)))
    return (op, x, y)


def _is_node(a):
    return isinstance(a, tuple) and a and isinstance(a[0], str)


def _unshared(ast):
    """An equal AST in which no two nodes are one object."""
    return tuple(_unshared(a) if _is_node(a) else a for a in ast)


def _node_ids(ast, into):
    into.append(id(ast))
    for a in filter(_is_node, ast[1:]):
        _node_ids(a, into)
    return into


def _reference_value(node, algebra):
    """The value of an expression or set AST by plain recursion, folding the
    algebra's own constructors and operators over the values of its children:
    a reference that shares no code with ``evaluate``."""
    g, ring = algebra.graph, algebra.ring
    args = [_reference_value(a, algebra) if _is_node(a) else a for a in node[1:]]
    return {
        "s": algebra.elem_s, "st": algebra.elem_s_star, "p": algebra.gen_p,
        "one": algebra.one, "zero": algebra.zero,
        "scale": lambda k, x: x.scale(ring.parse_scalar(k)),
        "add": lambda x, y: x + y, "sub": lambda x, y: x - y, "mul": lambda x, y: x * y,
        "Z": lambda w: cylinder(g, w), "F": lambda w: c_set(g, w, OMEGA),
        "C": lambda u, w: c_set(g, u, w), "X": lambda: full_set(g),
        "not": ClopenSet.complement, "and": ClopenSet.intersect, "or": ClopenSet.union,
    }[node[0]](*args)


def test_expression_print_parse_round_trip(g_gold):
    spec = g_gold.spec
    for ring in ("z", "q", "zmod:6"):
        algebra = SubshiftAlgebra(g_gold, ring_from_name(ring))
        scalars = [str(k) for k in range(-3, 4)] + (["1/2", "-2/3"] if ring == "q" else [])
        rng = random.Random(43)
        shared = 0
        for _ in range(50):
            ast = _unshared(_random_ast(rng, rng.randint(1, 3), scalars))
            ids = _node_ids(ast, [])
            assert len(set(ids)) == len(ids)
            text = format_expr(ast, spec)
            reparsed = parse_expr(text, spec)
            assert reparsed == ast, text
            ids = _node_ids(reparsed, [])
            shared += len(set(ids)) < len(ids)
            # The printed text evaluates to the AST's value folded as a tree.
            assert evaluate(text, algebra) == _reference_value(ast, algebra), (ring, text)
        assert shared >= 25, ring
    # A long chain prints flat, so its printed form parses back.
    sum_text = " - ".join(" + ".join(["s(a)", "st(b)", "2.(s(ab))"]) for _ in range(400))
    union_text = " | ".join(["Z(a)", "Z(b) & F(a)", "!(Z(ab))"] * 400)
    for text, parse in ((sum_text, parse_expr), (union_text, parse_set)):
        ast = parse(text, spec)
        assert format_expr(ast, spec) == text
        assert _left_spine(parse(format_expr(ast, spec), spec)) == _left_spine(ast)


def test_parse_shares_equal_subtrees(g_full):
    spec = g_full.spec
    ast = parse_expr("(s(a)+p(X))*(s(a)+p(X))", spec)
    assert ast[1] is ast[2]
    operand = ("add", ("s", W("a")), ("p", ("X",)))
    assert ast == ("mul", operand, _unshared(operand))
    union = parse_set("(Z(a) & !F(b)) | (Z(a) & !F(b))", spec)
    assert union[1] is union[2] and union[1][2][1] == ("F", W("b"))
    # Equal words under different tags stay apart.
    assert parse_expr("s(a) - st(a)", spec) == ("sub", ("s", W("a")), ("st", W("a")))


def test_evaluate_builds_each_repeated_operand_once(g_gold, monkeypatch):
    # (X)*((Y)+(Z)) - (X)*(Y) - (X)*(Z) builds X, Y and Z once each, each
    # monomial by one ``mono`` call; a second call builds them again, so
    # nothing is kept between calls.
    algebra = SubshiftAlgebra(g_gold, ZZ)
    built = Counter()
    mono = SubshiftAlgebra.mono

    def counted_mono(self, alpha, a, beta, k=None):
        built[alpha, a is not None, beta, k] += 1
        return mono(self, alpha, a, beta, k)

    monkeypatch.setattr(SubshiftAlgebra, "mono", counted_mono)
    x, y, z = "s(a) + 2.s(b)", "p(Z(a))", "st(ab)"
    text = f"({x})*(({y})+({z})) - ({x})*({y}) - ({x})*({z})"
    once = Counter({(W("a"), False, OMEGA, None): 1, (W("b"), False, OMEGA, 2): 1,
                    (OMEGA, True, OMEGA, None): 1, (OMEGA, False, W("ab"), None): 1})
    for calls in (1, 2):
        assert evaluate(text, algebra).is_zero()
        assert built == Counter({key: calls * n for key, n in once.items()})


# Products of generators that ``evaluate`` folds into one monomial, and those
# it must not fold: a right operand whose first factor does not come after
# the left one's last (in the order s, p, st), or that carries a scalar.  The
# first two read wrong if the fold compared the right operand's last factor.
FOLD_SHAPES = [
    "(s(a)*p(Z(a)))*(p(Z(ab))*st(a))", "s(b)*(s(a)*p(X))", "s(a)*(p(Z(b))*st(a))",
    "(2.s(a)*p(Z(a)))*st(ba)", "s(a)*2.p(X)", "st(a)*s(a)", "p(Z(a))*p(Z(b))", "s(a)*s(b)",
    "s(bb)*p(X)*st(a)", "2.(3.s(a)*p(Z(b)))*st(b)", "s(a)*st(b)*s(b)",
]


@pytest.mark.parametrize("text", FOLD_SHAPES)
def test_evaluate_folds_only_ordered_generators(all_graphs, text):
    for g, ring in product(all_graphs.values(), ("z", "q", "zmod:6")):
        algebra = SubshiftAlgebra(g, ring_from_name(ring))
        value = evaluate(text, algebra)
        assert value == _reference_value(parse_expr(text, g.spec), algebra), (g.spec, ring)
        if text in FOLD_SHAPES[:2] and g is all_graphs["full"]:
            assert not value.is_zero()
    # bb is not legal on the golden mean shift, so the monomial is zero.
    assert evaluate("s(bb)*p(X)*st(a)", SubshiftAlgebra(all_graphs["gold"], ZZ)).is_zero()


def test_evaluate_builds_a_shared_chain_once(g_full, monkeypatch):
    # One chain, three parents: a sum, a longer chain and a scaled chain.
    algebra = SubshiftAlgebra(g_full, ZZ)
    built = Counter()
    mono = SubshiftAlgebra.mono

    def counted_mono(self, alpha, a, beta, k=None):
        built[alpha, a is not None, beta, k] += 1
        return mono(self, alpha, a, beta, k)

    monkeypatch.setattr(SubshiftAlgebra, "mono", counted_mono)
    chain = "(s(a)*p(Z(b)))"
    text = f"{chain} + {chain}*st(ab) - 2.{chain}"
    assert evaluate(text, algebra) == _reference_value(parse_expr(text, g_full.spec), algebra)
    assert built == Counter({(W("a"), True, OMEGA, None): 1, (W("a"), True, W("ab"), None): 1,
                             (W("a"), True, OMEGA, 2): 1})


def _random_product(rng, depth, scalars):
    """A random AST of sums, products and scalars of generators, in every
    order and grouping, with words that may be illegal."""
    op = rng.choice(["mul", "mul", "mul", "add", "scale"]) if depth else "leaf"
    if op == "scale":
        return ("scale", rng.choice(scalars), _random_product(rng, depth - 1, scalars))
    if op != "leaf":
        return (op, *(_random_product(rng, rng.randint(0, depth - 1), scalars) for _ in "xy"))
    tag = rng.choice(["s", "p", "st"])
    if tag == "p":
        return ("p", _random_set(rng, rng.randint(0, 1)))
    return (tag, W(rng.choice(["", "a", "b", "ab", "ba", "bb"])))


def test_evaluate_matches_the_reference_on_random_products(all_graphs):
    rng = random.Random(5)
    for g, ring in product(all_graphs.values(), ("z", "q", "zmod:6")):
        algebra = SubshiftAlgebra(g, ring_from_name(ring))
        scalars = ["2", "-1", "3"] + (["1/2"] if ring == "q" else ["6"])
        for _ in range(150):
            ast = _random_product(rng, rng.randint(1, 4), scalars)
            text = format_expr(ast, g.spec)
            assert evaluate(text, algebra) == _reference_value(ast, algebra), (g.spec, ring, text)


def _left_spine(ast):
    """The base and the (tag, right operand) links of a left-deep chain,
    which compare without recursing once per link."""
    links = []
    while ast[0] in ("add", "sub", "or"):
        links.append((ast[0], ast[2]))
        ast = ast[1]
    return [ast, *reversed(links)]


# -- commands ---------------------------------------------------------------------------


def test_nf_zero_prints_zero():
    code, out = run_cli(["nf", SHIFT_PATHS["golden_mean"], "-e", "st(b)*s(a)"])
    assert code == 0 and out == "0\n"


def test_iszero_exit_codes():
    code, out = run_cli(["iszero", SHIFT_PATHS["golden_mean"], "-e", "st(b)*s(a)"])
    assert (code, out) == (0, "zero\n")
    code, out = run_cli(["iszero", SHIFT_PATHS["golden_mean"], "-e", "s(a)"])
    assert (code, out) == (1, "nonzero\n")


def test_reduce_zero_input_is_contract_error(capsys):
    code, _ = run_cli(["reduce", SHIFT_PATHS["golden_mean"], "-e", "0"])
    assert code == 3


def test_reduce_check_square(capsys, monkeypatch):
    code, out = run_cli(["reduce", SHIFT_PATHS["y"], "-e",
                         "p(Z(b)) + s(b)*p(Z(b))", "--check-square"])
    assert code == 0
    assert "square nonzero: true" in out
    # reduce is the one verification point: --verify and --check-square read
    # its witness, so the command runs one pipeline and one check.
    counts = Counter()

    class CountingPipeline(reduction._Pipeline):
        def __init__(self, *args, **kwargs):
            counts["pipeline"] += 1
            super().__init__(*args, **kwargs)

    def counting_verify(*args, _verify=reduction.verify):
        counts["verify"] += 1
        return _verify(*args)

    monkeypatch.setattr(reduction, "_Pipeline", CountingPipeline)
    monkeypatch.setattr(reduction, "verify", counting_verify)
    code, out = run_cli(["reduce", SHIFT_PATHS["y"], "-e", "p(Z(b)) + s(b)*p(Z(b))",
                         "--verify", "--check-square"])
    assert f"exit={code}\n{out}" == (GOLDEN / "reduce_square_y.txt").read_text(encoding="utf-8")
    assert counts == {"pipeline": 1, "verify": 1}
    # A refused check leaves no partial output.
    code, out = run_cli(["reduce", SHIFT_PATHS["y"], "-e", "s(b)",
                         "--ring", "zmod:6", "--check-square"])
    assert (code, out, capsys.readouterr().err) == (
        3, "", "error: square check requires a coefficient domain\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nf", str(SHIFT_PATHS["full2"])])  # missing -e
    assert exc.value.code == 2


def test_bad_expression_exit_code(capsys):
    code, _ = run_cli(["nf", SHIFT_PATHS["full2"], "-e", "s(ab"])
    assert (code, capsys.readouterr().err) == (2, "error: expected ')' (at position 4)\n")
    # A set expression's errors read as an expression's do.
    for text, message in (("Z(b", "expected ')' (at position 3)"),
                          ("s(b)", "expected a set expression (at position 0)"),
                          ("Z(c)", "unknown letter 'c' at position 2"),
                          ("C(b,)", "expected a word (at position 4)")):
        code, out = run_cli(["corner", SHIFT_PATHS["y"], "--set", text, "--word", "b",
                             "-e", "1"])
        assert (code, out, capsys.readouterr().err) == (2, "", f"error: {message}\n"), text


def test_missing_file_exit_code():
    code, _ = run_cli(["nf", "no-such-file.shift", "-e", "1"])
    assert code == 2


def test_corner_command_not_minimal_is_contract_error():
    code, _ = run_cli(["corner", SHIFT_PATHS["golden_mean"], "--set", "Z(a)",
                       "--word", "a", "-e", "1"])
    assert code == 3


def test_not_minimal_cycle_prints_the_word(capsys):
    code, _ = run_cli(["corner", SHIFT_PATHS["y"], "--set", "Z(b)",
                       "--word", "ab", "-e", "1"])
    assert code == 3
    assert capsys.readouterr().err == \
        "error: ({b}@1, ab) is not a minimal cycle without exit\n"


def test_corner_long_word_fails_fast():
    # The cycle check takes r(A, alpha) without refining A to |alpha| + m,
    # so a 6,000-letter word is decided at once (it took gigabytes before).
    proc = subprocess.run(
        [sys.executable, "-m", "subshift_algebra.cli", "corner", str(SHIFT_PATHS["full2"]),
         "--set", "Z(b)", "--word", "ab" * 3000, "-e", "1"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3
    assert proc.stderr == \
        "error: ({b}@1, %s) is not a minimal cycle without exit\n" % ("ab" * 3000)


NOT_UTF8 = "<shift file that is not UTF-8>"
TOO_LARGE = "<shift file with 1,024 proper prefixes of forbidden words>"
TOO_WIDE = "<shift file with a table of 512 states by 600 letters>"
LONG_MEMORY = "<shift file with memory 24, printed at 24 letters>"
EMPTY_WORD_SYMBOL = "<shift file with the symbol _>"
COMMA_SYMBOL = "<shift file with the symbol ,>"
BAD_SHIFT_FILES = {
    NOT_UTF8: b"\xff\xfealphabet: a b\n",
    TOO_LARGE: b"alphabet: a b\nforbidden: %s\n" % b", ".join(
        b"b" + bytes(w) for w in product(b"ab", repeat=10)),
    TOO_WIDE: ("alphabet: %s\nforbidden: %s\n" % (
        " ".join(chr(0x4E00 + i) for i in range(600)), chr(0x4E00) * 512)).encode(),
    LONG_MEMORY: b"alphabet: a b\nforbidden: aaaaaaaaaaaaaaaaaaaaaaaaa\n",
    EMPTY_WORD_SYMBOL: b"alphabet: _ a\nforbidden:\n",
    COMMA_SYMBOL: b"alphabet: a ,\nforbidden:\n",
}


@pytest.mark.parametrize("argv", [
    ["iszero", SHIFT_PATHS["full2"], "-e", "1", "--ring", "zmod:x"],
    ["iszero", SHIFT_PATHS["full2"], "-e", "1", "--ring", "zmod:1"],
    ["iszero", SHIFT_PATHS["full2"], "-e", "1", "--ring", "w"],
    ["corner", SHIFT_PATHS["full2"], "--set", "X", "--word", "c", "-e", "s(a)"],
    ["nf", FIXTURES, "-e", "1"],
    ["nf", NOT_UTF8, "-e", "1"],
    ["corner", SHIFT_PATHS["y"], "--set", "Z(b)", "--word", "_", "-e", "1"],
    ["nf", TOO_LARGE, "-e", "1"],
    ["nf", EMPTY_WORD_SYMBOL, "-e", "s(_)"],
    ["nf", COMMA_SYMBOL, "-e", "s(a)"],
    ["nf", SHIFT_PATHS["full2"], "-e", "(" * 300 + "s(a)" + ")" * 300],
    ["nf", SHIFT_PATHS["full2"], "-e", "p(" + "!" * 1000 + "X)"],
    ["nf", SHIFT_PATHS["full2"], "-e", "1", "--ring", f"zmod:{MAX_MODULUS}"],
    ["reduce", SHIFT_PATHS["golden_mean"], "-e",
     "s(a) + st(" + "a" * MAX_WORD_LETTERS + ")"],
    ["corner", SHIFT_PATHS["y"], "--set", "Z(" + "b" * (MAX_WORD_LETTERS + 1) + ")",
     "--word", "b", "-e", "1"],
    ["selftest", SHIFT_PATHS["full2"], "--max-len", "-1"],
    ["selftest", SHIFT_PATHS["full2"], "--max-len", "99"],
    ["nf", SHIFT_PATHS["full2"], "-e", "p(Z(a)|Z(b" + "a" * 19 + "))"],
    ["nf", LONG_MEMORY, "-e", "1"],
    ["iszero", SHIFT_PATHS["full2"], "-e", "*".join(["(s(a)+s(b))"] * 16)],
    ["nf", TOO_WIDE, "-e", "1"],
], ids=["ring-zmod-x", "ring-zmod-1", "ring-w", "word-unknown-letter", "shift-is-dir",
        "shift-not-utf8", "word-empty", "shift-too-large", "symbol-underscore",
        "symbol-comma", "nested-300", "not-1000", "ring-zmod-bound", "letters-expr",
        "letters-set", "selftest-negative", "selftest-too-many-words", "print-too-large",
        "print-too-large-memory", "product-too-large", "shift-too-many-cells"])
def test_malformed_input_is_usage_error(argv, tmp_path):
    # Exit 1 is a documented answer ("nonzero"), so malformed input must not
    # crash with a traceback and exit 1.
    files = {}
    for i, (name, data) in enumerate(BAD_SHIFT_FILES.items()):
        files[name] = tmp_path / f"bad{i}.shift"
        files[name].write_bytes(data)
    argv = [files.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "subshift_algebra.cli", *map(str, argv)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_size_bounds_are_named_usage_errors(capsys):
    # A printed form past its bounds, here two lines of 2^17 + 1 words of
    # 19 letters each (more than MAX_PRINTED_LETTERS together), and a
    # product past MAX_PRODUCT_PAIRS exit 2 with the bounds in the message
    # and print nothing; the 196,605 words of x at L_16 (3,407,820 letters)
    # are within the first bounds.
    a17 = "p(Z(a)|Z(b" + "a" * 17 + "))"
    code = main(["nf", str(SHIFT_PATHS["full2"]), "-e", f"{a17} + s(b)*{a17}"])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: the printed form has more than {MAX_PRINTED_WORDS} words or "
               f"{MAX_PRINTED_LETTERS} letters\n")
    code = main(["iszero", str(SHIFT_PATHS["full2"]), "-e", "*".join(["(s(a)+s(b))"] * 15)])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: a product of {2 ** 15} component pairs, more than {MAX_PRODUCT_PAIRS}\n")
    algebra = SubshiftAlgebra(build_follower_graph(l_spec(16)), ZZ)
    printed = evaluate("s(a)+2.s(bab)+st(b)", algebra).format()
    assert printed.count(";") + printed.count("\n") + 1 == 196_605


def test_printed_forms_hold_bounded_words_and_letters(tmp_path, monkeypatch, capsys):
    # One call for extensions holds at most ``limit`` words of n letters.
    # Over three letters, p(Z(a)|Z(bc^12)) prints 3^12 + 1 words of 13
    # letters: the word bound is met first.  s(b^400) on the shift without
    # a^400 prints at 400 + 399 letters: the letter bound is met first, at
    # far fewer words.
    asked = []
    extensions = FollowerGraph.extensions
    monkeypatch.setattr(FollowerGraph, "extensions", lambda g, w, n, limit=None:
                        asked.append((limit, n)) or extensions(g, w, n, limit))
    cases = [("abc", "", "p(Z(a)|Z(b" + "c" * 12 + "))", MAX_PRINTED_WORDS),
             ("ab", "a" * 400, "s(" + "b" * 400 + ")", MAX_PRINTED_LETTERS // 799)]
    for alphabet, forbidden, expr, first_limit in cases:
        shift = tmp_path / f"{alphabet}.shift"
        shift.write_text(f"alphabet: {' '.join(alphabet)}\nforbidden: {forbidden}\n")
        asked.clear()
        assert main(["nf", str(shift), "-e", expr]) == 2
        assert capsys.readouterr().err == (
            f"error: the printed form has more than {MAX_PRINTED_WORDS} words or "
            f"{MAX_PRINTED_LETTERS} letters\n")
        assert asked[0][0] == first_limit
        assert all(limit <= MAX_PRINTED_WORDS and limit * n <= MAX_PRINTED_LETTERS
                   for limit, n in asked)


def test_deep_expressions(g_full):
    # Deep nesting is refused at a position, within the recursion limit.
    depth = MAX_NESTING - 1  # parentheses around s(a), itself a form
    assert parse_expr("(" * depth + "s(a)" + ")" * depth, g_full.spec) == ("s", W("a"))
    with pytest.raises(ExprSyntaxError, match="nested") as err:
        parse_expr("(" * (depth + 1) + "s(a)" + ")" * (depth + 1), g_full.spec)
    assert err.value.position == MAX_NESTING
    # A long sum is evaluated without recursing once per term.
    terms = " + ".join(["s(a)"] * 1200)
    proc = subprocess.run(
        [sys.executable, "-m", "subshift_algebra.cli", "nf", str(SHIFT_PATHS["full2"]),
         "-e", terms], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "a _^-1 | 1200 aa ; 1200 ab\n", "")
    union = "p(" + " | ".join(["Z(a)"] * 1200) + ")"
    assert run_cli(["nf", SHIFT_PATHS["full2"], "-e", union]) == (0, "_ _^-1 | 1 a\n")


def test_long_sums_evaluate_in_one_pass(g_full, monkeypatch):
    # 40,000-term sums, with a repeated term, a repeated chain, and distinct
    # letter-free terms (which MAX_WORD_LETTERS does not bound).
    algebra = SubshiftAlgebra(g_full, ZZ)
    n = 40_000
    one = algebra.one()
    assert evaluate(" + ".join(["1"] * n), algebra) == one.scale(n)
    # No partial sum is kept: whenever `add` is called, at most two of its
    # results are alive, the running sum and the value of the shared (1+1).
    add, results, alive, most = AlgebraElement.add, [], 0, 0

    def freed(_):
        nonlocal alive
        alive -= 1

    def watched_add(self, other):
        nonlocal alive, most
        most = max(most, alive)
        result = add(self, other)
        results.append(weakref.ref(result, freed))
        alive += 1
        return result

    monkeypatch.setattr(AlgebraElement, "add", watched_add)
    monkeypatch.setattr(AlgebraElement, "__add__", watched_add)
    assert evaluate(" + ".join(["(1+1)"] * n), algebra) == one.scale(2 * n)
    assert len(results) == n and most <= 2
    monkeypatch.undo()
    assert evaluate(" + ".join(f"{k}.1" for k in range(1, n + 1)), algebra) == \
        one.scale(n * (n + 1) // 2)


def test_errors_come_in_evaluation_order(g_full, monkeypatch):
    algebra = SubshiftAlgebra(g_full, ZZ)
    # A syntax error is raised before any evaluation error.
    with pytest.raises(ExprSyntaxError) as err:
        evaluate("1/2.s(a) + )", algebra)
    assert err.value.position == 11
    # Of two evaluation errors the one met first is raised: a scalar's ring
    # check comes before its operand's errors, its conversion after them.
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    too_long = f"not an integer scalar: more than {len(digits) - 1} digits in '{'1' * 20}'..."
    for text, message in (
            ("1/2.s(a) + 1/3.s(b)", "fraction scalar '1/2' needs the rational ring"),
            ("s(a) - 1/3.1 + 1/2.1", "fraction scalar '1/3' needs the rational ring"),
            ("1/2.(1/3.s(a))", "fraction scalar '1/2' needs the rational ring"),
            ("(1/3.s(a)) * 1/2.1", "fraction scalar '1/3' needs the rational ring"),
            (f"{digits}.1 + 1/2.1", too_long),
            (f"1/2.1 + {digits}.1", "fraction scalar '1/2' needs the rational ring"),
            (f"{digits}.(1/2.1)", "fraction scalar '1/2' needs the rational ring"),
            (f"1/2.({digits}.1)", "fraction scalar '1/2' needs the rational ring"),
            (f"1 + 1/2.({digits}.1)", "fraction scalar '1/2' needs the rational ring"),
            (f"2.({digits}.1 * 1/2.1)", too_long)):
        with pytest.raises(BadScalarForRing) as err:
            evaluate(text, algebra)
        assert str(err.value) == message, text
    # A repeated subexpression that fails is evaluated once.
    parse_scalar, calls = type(ZZ).parse_scalar, []

    def counted_parse_scalar(self, text):
        calls.append(text)
        return parse_scalar(self, text)

    monkeypatch.setattr(type(ZZ), "parse_scalar", counted_parse_scalar)
    with pytest.raises(BadScalarForRing) as err:
        evaluate(f"({digits}.s(a)) * ({digits}.s(a))", algebra)
    assert str(err.value) == too_long and calls == [digits]


def test_word_letters_bound(g_full):
    # The words of one expression hold at most MAX_WORD_LETTERS letters; the
    # word that crosses the bound is refused at its position.
    head = "s(" + "a" * (MAX_WORD_LETTERS - 2) + ") * st(_) + "
    assert parse_expr(head + "s(ab)", g_full.spec)[2] == ("s", W("ab"))
    with pytest.raises(ExprSyntaxError, match="letters") as err:
        parse_expr(head + "s(aba)", g_full.spec)
    assert err.value.position == len(head) + 2
    with pytest.raises(ExprSyntaxError, match="letters") as err:
        parse_set("Z(a) | Z(" + "a" * MAX_WORD_LETTERS + ")", g_full.spec)
    assert err.value.position == 9


def test_expression_may_start_with_minus(capsys):
    # -e takes the next argument as the expression, whatever it starts with.
    full2 = SHIFT_PATHS["full2"]
    for flag in ("-e", "--expr", "--ex"):
        assert run_cli(["nf", full2, flag, "-3.p(X)"]) == (0, "_ _^-1 | -3 a ; -3 b\n")
    assert run_cli(["reduce", full2, "-e", "-2.s(a)"]) == (0, (
        "mu: _ a^-1 | 1 a ; 1 b\nnu: _ _^-1 | 1 a ; 1 b\nPROJ -2 {a b}@1\n"))
    # A leading '-' that is not a scalar reaches the expression parser.
    assert run_cli(["nf", full2, "-e", "-s(a)"]) == (2, "")
    assert capsys.readouterr().err.startswith("error: expected s(..)")
    with pytest.raises(SystemExit) as exc:
        main(["nf", str(full2), "-e"])  # no value
    assert exc.value.code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "subshift_algebra.cli", "cycles",
         str(SHIFT_PATHS["y"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "{b}@1 b\n"


# -- golden files -------------------------------------------------------------------------


GOLDEN_COMMANDS = {}
for _name, _path in SHIFT_PATHS.items():
    GOLDEN_COMMANDS[f"nf_{_name}"] = [
        "nf", _path, "-e", "s(a)*st(a) + 2.p(Z(b)) - s(ab)*st(ab)"]
    GOLDEN_COMMANDS[f"reduce_{_name}"] = [
        "reduce", _path, "-e", "s(a) + s(b) - p(Z(a))", "--verify"]
    GOLDEN_COMMANDS[f"cycles_{_name}"] = ["cycles", _path]
    GOLDEN_COMMANDS[f"checkexits_{_name}"] = ["check-exits", _path]
    GOLDEN_COMMANDS[f"selftest_{_name}"] = ["selftest", _path, "--max-len", "2"]
GOLDEN_COMMANDS["reduce_cycle_y"] = [
    "reduce", SHIFT_PATHS["y"], "-e", "p(Z(b)) + s(b)*p(Z(b))",
    "--verify", "--trace"]
GOLDEN_COMMANDS["reduce_align_full2"] = [
    "reduce", SHIFT_PATHS["full2"], "-e",
    "p(Z(aba)) + s(ab)*p(Z(aba)) + s(aba)*p(Z(aba))", "--verify", "--trace"]
GOLDEN_COMMANDS["reduce_pump_y"] = [
    "reduce", SHIFT_PATHS["y"], "-e",
    "p(Z(aaa)) - s(aa)*p(Z(aaa)) + s(aa)*p(Z(aaaaaaaa)) + 3.s(aaa)*p(Z(aaa))",
    "--verify", "--trace"]
GOLDEN_COMMANDS["reduce_square_y"] = [
    "reduce", SHIFT_PATHS["y"], "-e", "p(Z(b)) + s(b)*p(Z(b))",
    "--verify", "--check-square"]
# A sum of monomials in every shape the evaluator folds or builds, one with
# an illegal word.
MONOMIALS = ("2.s(a)*p(Z(a))*st(ba) + s(ab)*st(b) - p(F(a))*st(a) + st(a)*s(a)"
             " + (3.s(b)*p(!Z(bb)))*st(_) - s(a)*2.p(X) + s(ab)*p(Z(a)) + s(bb)*p(X)*st(a)")
GOLDEN_COMMANDS["nf_monomials_golden_mean"] = [
    "nf", SHIFT_PATHS["golden_mean"], "-e", MONOMIALS]
GOLDEN_COMMANDS["reduce_monomials_golden_mean"] = [
    "reduce", SHIFT_PATHS["golden_mean"], "-e", MONOMIALS, "--verify", "--trace"]
GOLDEN_COMMANDS["nf_ring_q"] = [
    "nf", SHIFT_PATHS["full2"], "-e", "1/2.s(a) + 1/2.s(a)", "--ring", "q"]
GOLDEN_COMMANDS["corner_y"] = [
    "corner", SHIFT_PATHS["y"], "--set", "Z(b)", "--word", "b",
    "-e", "2.s(b)*p(Z(b)) - 3.st(b)*p(Z(b)) + p(Z(b))"]
GOLDEN_COMMANDS["grade_full2"] = [
    "grade", SHIFT_PATHS["full2"], "-e", "s(a)*st(b) + s(ab) + 1", "-n", "0"]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden(name):
    argv = GOLDEN_COMMANDS[name]
    code, out = run_cli(argv)
    got = f"exit={code}\n{out}"
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert got == expected


def test_outputs_byte_identical_across_runs():
    for name, argv in GOLDEN_COMMANDS.items():
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, name


# -- scripts and README -------------------------------------------------------------------


def test_scripts_and_readme_quick_start_run(monkeypatch):
    root = FIXTURES.parent
    demo = subprocess.run([sys.executable, str(root / "scripts" / "demo_reduction.py")],
                          capture_output=True, text=True)
    assert demo.returncode == 0, demo.stderr
    assert [ln for ln in demo.stdout.splitlines() if ln.startswith("####")] == [
        "#### full 2-shift", "#### golden mean (forbidden bb)", "#### Y (forbidden ba)"]
    census = subprocess.run(
        [sys.executable, str(root / "scripts" / "reduction_census.py"), "5", "1"],
        capture_output=True, text=True)
    assert census.returncode == 0, census.stderr
    assert census.stdout.split()[:6] == ["shift", "n", "proj", "cycle", "max-trace", "sec"]
    readme = (root / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Library quick start")[1].split("```python\n")[1]
    exec(quick_start.split("```")[0], {})
    # Each "$ subshift-algebra ..." line of the Examples block prints the
    # lines shown under it, up to the next blank line.
    examples = readme.split("\nExamples:\n\n```\n")[1].split("```")[0]
    monkeypatch.chdir(root)
    commands = [block.splitlines() for block in examples.strip().split("\n\n")]
    assert commands and all(lines[0].startswith("$ subshift-algebra ") for lines in commands)
    for command, *shown in commands:
        code, out = run_cli(shlex.split(command)[2:])
        assert (code, out.splitlines()) == (0, shown), command
