"""Grammar-driven fuzzing of the command-line front end.

Shift files are drawn from the file format's two keywords, expressions from
the parser's own form tables (``parsing._PRIMARY_FORMS`` and
``parsing._SET_FORMS``), and both are then mutated character by character.
Every subcommand runs in-process on what is drawn.  Whatever the input, the
CLI must answer with a documented exit code (1 only for the negative answers
of ``iszero``, ``check-exits`` and ``selftest``), print no traceback, leave
no partial output on stdout when it reports an error, and finish in bounded
time.  The runs are seeded and derandomized, so a failure repeats.  A few
fixed command lines that the draws reach too rarely run through the same
checks.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from subshift_algebra.cli import main
from subshift_algebra.parsing import _PRIMARY_FORMS, _SET_FORMS, _UNIT, RESERVED_SYMBOLS

# Letters of the drawn alphabets; the reserved symbols, a digit and a
# grammar character are legal text for a shift file but must be refused or
# read as documented.
SYMBOLS = "abc" + RESERVED_SYMBOLS + "1(Xé"
# Characters a mutation inserts: the grammar's, letters, a space, a tab and
# a character outside the plain alphabets.
NOISE = "()*+-|&!X,._/0123456789 absZFCpté:\t"
# The longest any single case may take.  The drawn inputs are a few letters
# long, so this is far above what a correct CLI needs.
CASE_SECONDS = 5.0
# The subcommands whose exit code 1 is a documented answer.
NEGATIVE_ANSWERS = {"iszero", "check-exits", "selftest"}


@st.composite
def mutated(draw, text: str) -> str:
    """``text``, or, in one draw of four, ``text`` with one or two random
    edits: a character deleted, inserted or replaced, or the text cut
    short."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 0, 0, 0, 2]))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "replace", "cut"]))
        c = draw(st.sampled_from(NOISE))
        if edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "insert":
            text = text[:i] + c + text[i:]
        elif edit == "replace":
            text = text[:i] + c + text[i + 1:]
        else:
            text = text[:i]
    return text


@st.composite
def shift_files(draw) -> tuple[bytes, str]:
    """A shift file and the letters of its alphabet: an ``alphabet:`` line
    and a ``forbidden:`` line.  In one draw of four the file is wild: its
    symbols may be reserved or repeated, a line may be dropped, repeated or
    swapped, and the text may be mutated or not UTF-8."""
    wild = draw(st.integers(0, 3)) == 3
    symbols = draw(st.lists(st.sampled_from(SYMBOLS if wild else "abc"),
                            min_size=1 if wild else 2, max_size=3, unique=not wild))
    letters = "".join(symbols)
    forbidden = draw(st.lists(st.text(alphabet=letters, min_size=1 if wild else 2, max_size=3),
                              max_size=2))
    lines = [f"alphabet: {' '.join(symbols)}", f"forbidden: {', '.join(forbidden)}"]
    if not wild:
        return ("\n".join(lines) + "\n").encode("utf-8"), letters
    shape = draw(st.sampled_from(["as is", "drop", "repeat", "swap"]))
    if shape == "drop":
        lines = lines[:1]
    elif shape == "repeat":
        lines.append(lines[1])
    elif shape == "swap":
        lines.reverse()
    data = draw(mutated("\n".join(lines) + "\n")).encode("utf-8")
    if draw(st.booleans()):
        data += b"\xff"  # not UTF-8
    return data, letters


def _words(letters: str):
    return st.one_of(st.just("_"), st.text(alphabet=letters, min_size=1, max_size=3))


def _form(forms: dict, words, chains: dict):
    """One form of ``forms``, filled from the grammar: its opener, then the
    words its argument names (each followed by its closing character), the
    operand of a prefix form, or a chain closed by ')'.  ``chains`` has the
    strategies of the operands and chains one level down, or is empty at
    the bottom, where only the forms without them are drawn."""
    def fill(entry):
        opener, _, arg = entry
        if type(arg) is tuple:
            return st.tuples(*[words for _ in arg]).map(
                lambda ws: opener + "".join(w + c for w, c in zip(ws, arg)))
        if arg is None:
            return st.just(opener)
        if arg is _UNIT:
            return chains["unit"].map(lambda x: opener + x)
        return chains[arg].map(lambda x: f"{opener}{x})")
    entries = [e for e in forms.values() if chains or e[2] is None or type(e[2]) is tuple]
    return st.sampled_from(sorted(entries, key=str)).flatmap(fill)


def _chain(operands, operators: str):
    """One to three operands joined by operators drawn from ``operators``."""
    return st.lists(st.tuples(st.sampled_from(operators), operands), max_size=2).flatmap(
        lambda rest: operands.map(lambda first: first + "".join(o + x for o, x in rest)))


def expressions(letters: str, depth: int = 2) -> dict:
    """Strategies for the grammar's algebra expressions (``"expr"``), set
    expressions (``"set"``) and set operands (``"unit"``) over ``letters``,
    with forms nested at most ``depth`` deep, scalars and the chain
    operators."""
    inner = expressions(letters, depth - 1) if depth else {}
    words = _words(letters)
    scalars = st.builds("{}{}{}.".format, st.sampled_from(["", "-"]), st.integers(0, 12),
                        st.sampled_from(["", "", "/2", "/3"]))
    unit = _form(_SET_FORMS, words, inner)
    factor = st.tuples(st.one_of(st.just(""), scalars),
                       _form(_PRIMARY_FORMS, words, inner)).map("".join)
    return {"unit": unit, "set": _chain(unit, "|&"), "expr": _chain(factor, "+-*")}


RINGS = st.sampled_from(["z", "z", "q", "q", "zmod:6", "zmod:7", "zmod:1", "zmod:x", "w"])


@st.composite
def cases(draw, path: str, letters: str) -> list[str]:
    """The arguments of one subcommand on the shift file at ``path``, whose
    alphabet is mostly ``letters``."""
    letters += draw(st.sampled_from(["", "", "", "_", "b", "é"]))
    grammar = expressions(letters)
    command = draw(st.sampled_from(["nf", "iszero", "reduce", "grade", "cycles",
                                    "check-exits", "corner", "selftest"]))
    argv = [command, path]
    if command in ("cycles", "check-exits"):
        return argv
    if command == "selftest":
        return argv + ["--max-len", str(draw(st.integers(-1, 4)))]
    if command == "corner":
        argv += ["--set", draw(grammar["set"].flatmap(mutated)), "--word", draw(_words(letters))]
    argv += ["-e", draw(grammar["expr"].flatmap(mutated)), "--ring", draw(RINGS)]
    if command == "grade":
        argv += ["-n", str(draw(st.integers(-3, 3)))]
    elif command == "reduce":
        argv += draw(st.lists(st.sampled_from(["--verify", "--trace", "--check-square"]),
                              unique=True))
    return argv


@pytest.fixture(scope="module")
def shift_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "drawn.shift"


def run_and_check(argv: list[str]) -> tuple[int, str]:
    """Run the CLI on ``argv`` and check the properties every input must
    keep; return the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command line
            code = exc.code
    assert time.perf_counter() - start < CASE_SECONDS, argv
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2, 3) or code == 1 and argv[0] in NEGATIVE_ANSWERS, (code, argv)
    if code == 1 and argv[0] == "iszero":
        assert out.getvalue() == "nonzero\n"
    if code in (2, 3) and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error:"), err.getvalue()
    if err.getvalue().startswith("error:"):
        assert out.getvalue() == "", (argv, out.getvalue())
    return code, out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_answers_every_drawn_input_with_a_documented_exit_code(shift_path, data):
    text, letters = data.draw(shift_files(), label="shift file")
    shift_path.write_bytes(text)
    argv = data.draw(cases(str(shift_path), letters), label="argv")
    code, _ = run_and_check(argv)
    event(f"{argv[0]} exits {code}")


# ``reduce --check-square`` on a nonzero element over a ring that is not a
# domain: the draws above reach it too rarely to count on.
Y_SHIFT = str(Path(__file__).resolve().parent.parent / "fixtures" / "y.shift")


@pytest.mark.parametrize("options, expected", [
    (["-e", "s(b)", "--ring", "zmod:6", "--check-square"], 3),
    (["-e", "s(b)", "--ring", "zmod:7", "--verify", "--check-square"], 0),
    (["-e", "0", "--check-square"], 3),
], ids=["zmod6-refused", "zmod7-verified", "zero-refused"])
def test_cli_answers_the_square_check_cases(options, expected):
    code, out = run_and_check(["reduce", Y_SHIFT] + options)
    assert code == expected
    assert (out == "") == (code == 3), out
