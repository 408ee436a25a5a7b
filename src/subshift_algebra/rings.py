"""Exact coefficient rings: integers, rationals, integers mod n.

Ring values are plain Python objects (``int`` or ``fractions.Fraction``);
the ring object supplies the operations, so elements stay lightweight and
hashable.  ``is_domain`` distinguishes the rings in which squares of nonzero
reduced elements are guaranteed nonzero.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import BadScalarForRing, CoefficientTooLong, UnknownRing


# The first 13 primes.  Miller-Rabin with these bases decides primality
# exactly below MAX_MODULUS, the least strong pseudoprime to all of them
# (Sorenson & Webster, *Math. Comp.* 86, 2017); a larger modulus is refused.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact for ``n < MAX_MODULUS``: deterministic Miller-Rabin."""
    if n < 2 or any(n % p == 0 for p in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _BASES)


def _parse_scalar(convert, text: str, kind: str):
    """``convert(text)``, or a BadScalarForRing naming ``kind``.  A run of
    digits longer than the interpreter's int-string limit is refused by that
    bound, quoting only a prefix of the text."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if limit and any(len(run) > limit for run in re.findall(r"\d+", text)):
            raise BadScalarForRing(f"not {kind} scalar: more than {limit} digits "
                                   f"in {text[:20]!r}...") from None
        raise BadScalarForRing(f"not {kind} scalar: {text!r}") from None


class Ring:
    """Commutative unital ring with exact arithmetic and decidable equality."""

    name: str
    is_domain: bool

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def from_int(self, k: int):
        raise NotImplementedError

    def parse_scalar(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        try:
            return str(a)
        except ValueError:  # past the interpreter's int-string limit, left as it is
            raise CoefficientTooLong(
                f"cannot print a coefficient of more than {sys.get_int_max_str_digits()} "
                "digits (sys.get_int_max_str_digits())") from None

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "z"
    is_domain = True

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return not a

    def from_int(self, k: int):
        return k

    def parse_scalar(self, text: str):
        return _parse_scalar(int, text, "an integer")


class RationalRing(IntegerRing):
    """Fractions under the integer ring's operators."""

    name = "q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k: int):
        return Fraction(k)

    def parse_scalar(self, text: str):
        return _parse_scalar(Fraction, text, "a rational")


class IntegerModRing(Ring):
    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if modulus >= MAX_MODULUS:
            raise UnknownRing(f"zmod modulus must be below {MAX_MODULUS}, "
                              "the bound of the exact primality test")
        self.modulus = modulus
        self.name = f"zmod:{modulus}"
        self.is_domain = _is_prime(modulus)

    def zero(self):
        return 0

    def one(self):
        return 1 % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_zero(self, a) -> bool:
        return not a

    def from_int(self, k: int):
        return k % self.modulus

    def parse_scalar(self, text: str):
        return _parse_scalar(int, text, "a residue") % self.modulus


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(n: int) -> IntegerModRing:
    return IntegerModRing(n)


def ring_from_name(name: str) -> Ring:
    if name == "z":
        return ZZ
    if name == "q":
        return QQ
    digits = name[len("zmod:"):]
    if name.startswith("zmod:") and digits.isdecimal():
        # A longer digit string is at least the bound, and never converted.
        fits = len(digits.lstrip("0")) <= len(str(MAX_MODULUS))
        modulus = int(digits) if fits else MAX_MODULUS
        if modulus >= 2:
            return Zmod(modulus)
    raise UnknownRing(f"unknown ring: {name!r} (expected z, q or zmod:N with N >= 2)")
