"""Coefficient rings: the primality test behind ``zmod:N``'s ``is_domain``."""

import time

import pytest

from subshift_algebra.errors import UnknownRing
from subshift_algebra.rings import MAX_MODULUS, _is_prime, ring_from_name


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-2, 10 ** 5) if _is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize("modulus, is_domain", [
    (100000000000031, True),
    (1000000000000000003, True),
    (1000000007 * 1000000009, False),
    (3825123056546413051, False),  # a strong pseudoprime to the bases 2..23
    (MAX_MODULUS - 1, False),
])
def test_large_moduli_build_fast(modulus, is_domain):
    start = time.perf_counter()
    ring = ring_from_name(f"zmod:{modulus}")
    assert time.perf_counter() - start < 1.0
    assert ring.is_domain is is_domain


def test_modulus_bound_is_refused():
    # MAX_MODULUS is itself a strong pseudoprime to all thirteen bases.
    assert _is_prime(MAX_MODULUS)
    for name in (f"zmod:{MAX_MODULUS}", "zmod:" + "1" * 5000):
        with pytest.raises(UnknownRing, match="below"):
            ring_from_name(name)
    assert ring_from_name("zmod:" + "0" * 40 + "7").is_domain
