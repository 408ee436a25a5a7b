"""Exception types shared across the package."""


class SubshiftAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(SubshiftAlgebraError):
    """A computational contract failed, as opposed to malformed input.

    The command line exits with code 3 for these and with code 2 (usage
    error) for every other package error.
    """


class EmptyShift(SubshiftAlgebraError):
    """The presented shift space is empty (every state was pruned)."""


class ShiftTooLarge(SubshiftAlgebraError):
    """The forbidden words have more proper prefixes, the states of the
    follower graph, than it is built for (``shift.MAX_STATES``), or its
    table more cells, states times letters (``shift.MAX_TABLE_CELLS``)."""


class ElementTooLarge(SubshiftAlgebraError):
    """A product has more component pairs than one multiplication takes
    (``algebra.MAX_PRODUCT_PAIRS``), or a printed form more words or letters
    than are printed (``clopen.MAX_PRINTED_WORDS`` and
    ``clopen.MAX_PRINTED_LETTERS``)."""


class NotCommuting(SubshiftAlgebraError):
    """commuting_root was called on a pair with alpha*beta != beta*alpha."""


class RingMismatch(ContractViolation):
    """Operands belong to different rings or different shift contexts."""


class ZeroInput(ContractViolation):
    """An operation requiring a nonzero element received zero."""


class InternalNonzeroViolation(ContractViolation):
    """A computation broke an invariant the theory guarantees: a reduction
    step produced zero, made no progress, or left a shape its successor
    cannot take; a support translation left the shift's language; a
    singleton cycle set is not the periodic point of its word, or a forced
    graph cycle is not a minimal cycle without exit; a common root or the
    minimality of a cycle word fails its cross-check.

    Raised only on bugs: every multiplication inside the reduction pipeline
    re-verifies nonzero-ness, and every phase checks the shape it hands on.
    """


class NotInCorner(ContractViolation):
    """Element has a graded component outside the corner's {c^n} family."""


class NotMinimalCycle(ContractViolation):
    """The supplied (set, word) pair is not a minimal cycle without exit."""


class NotADomain(ContractViolation):
    """The coefficient ring has zero divisors where a domain is required."""


class ShiftParseError(SubshiftAlgebraError):
    """Error while parsing a shift-specification file."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DuplicateSymbol(ShiftParseError):
    pass


class EmptyAlphabet(ShiftParseError):
    pass


class IllegalForbiddenWord(ShiftParseError):
    pass


class ExprSyntaxError(SubshiftAlgebraError):
    """Syntax error in an algebra/set expression, with 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BadArgument(SubshiftAlgebraError):
    """An argument lies outside the domain of the function it was passed to
    (an empty cycle word; a tail set of a component that is not positive; a
    self-test length bound that is negative or covers too many words)."""


class UnknownLetter(SubshiftAlgebraError):
    """A word literal used a symbol outside the shift's alphabet."""


class UnknownRing(SubshiftAlgebraError):
    """A ring name is not ``z``, ``q`` or ``zmod:N`` with ``2 <= N < MAX_MODULUS``."""


class BadScalarForRing(SubshiftAlgebraError):
    """A scalar literal cannot be interpreted in the selected ring."""


class CoefficientTooLong(SubshiftAlgebraError):
    """A coefficient has more digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``), so it cannot be printed."""
