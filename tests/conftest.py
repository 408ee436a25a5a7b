import functools
import random
from itertools import product

import pytest

from subshift_algebra.algebra import SubshiftAlgebra
from subshift_algebra.clopen import cylinder, full_set
from subshift_algebra.rings import ZZ
from subshift_algebra.shift import SftSpec, build_follower_graph
from subshift_algebra.words import OMEGA, ep_normalize


@pytest.fixture(scope="session")
def g_full():
    return build_follower_graph(SftSpec.make("ab", []))


@pytest.fixture(scope="session")
def g_gold():
    return build_follower_graph(SftSpec.make("ab", ["bb"]))


@pytest.fixture(scope="session")
def g_y():
    return build_follower_graph(SftSpec.make("ab", ["ba"]))


@pytest.fixture(scope="session")
def all_graphs(g_full, g_gold, g_y):
    return {"full": g_full, "gold": g_gold, "y": g_y}


@pytest.fixture
def alg_full(g_full):
    return SubshiftAlgebra(g_full, ZZ)


@pytest.fixture
def alg_gold(g_gold):
    return SubshiftAlgebra(g_gold, ZZ)


@pytest.fixture
def alg_y(g_y):
    return SubshiftAlgebra(g_y, ZZ)


def W(text: str):
    """Word literal over the two-letter alphabet: 'ab' -> (0, 1)."""
    return tuple({"a": 0, "b": 1}[ch] for ch in text)


def brute_forbidden_free(w, forbidden):
    return not any(
        w[i:i + len(f)] == f
        for f in forbidden
        for i in range(len(w) - len(f) + 1)
    )


def in_shift(point, forbidden) -> bool:
    """``pre + per^inf`` avoids every forbidden word; every window of the
    infinite word already occurs in this prefix."""
    reps = max((len(f) for f in forbidden), default=0) + 2
    return brute_forbidden_free(point.preperiod + point.period * reps, forbidden)


def l_spec(m: int) -> SftSpec:
    """``L_m``: forbidden ``a^(m+1)`` and ``b^m a``; memory m, 2^m m-blocks
    and 2m + 1 states."""
    return SftSpec.make("ab", ["a" * (m + 1), "b" * m + "a"])


# Shifts whose legality and cycles are checked word by word against brute force.
DIFFERENTIAL_SHIFTS = {
    "full2": ("ab", []),
    "golden_mean": ("ab", ["bb"]),
    "y": ("ab", ["ba"]),
    "deep_pruning": ("abc", ["aa", "ab", "ac", "cb", "cc"]),
    # c is forbidden-free but dead, so "ac" is illegal inside longer words too.
    "dead_inner_block": ("abc", ["ca", "cb", "cc"]),
    **{f"L{m}": ("ab", ["a" * (m + 1), "b" * m + "a"]) for m in (2, 3, 4)},
}


def random_specs(count, seed):
    """Seeded random shifts over two or three letters, with one to four
    forbidden words of one to four letters (memory at most 3)."""
    rng = random.Random(seed)
    for _ in range(count):
        alphabet = rng.choice(["ab", "abc"])
        forbidden = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                     for _ in range(rng.randint(1, 4))]
        yield SftSpec.make(alphabet, forbidden)


def brute_extends(w, forbidden, k, depth):
    """True iff the forbidden-free word w has a forbidden-free extension by
    depth letters; depth-first, abandoning a branch at its first forbidden
    factor.  Forbidden-freeness is inherited by prefixes, so only the factors
    that end at the new letter are checked."""
    if depth == 0:
        return True
    return any(not any(v[-len(f):] == f for f in forbidden)
               and brute_extends(v, forbidden, k, depth - 1)
               for v in (w + (a,) for a in range(k)))


def brute_is_legal(spec, w, lookahead=None):
    """Independent legality oracle: ``w`` is forbidden-free and has a
    forbidden-free extension long enough to pump (exact for every SFT)."""
    k = len(spec.alphabet)
    if lookahead is None:
        lookahead = spec.memory + k ** spec.memory + 1
    return (brute_forbidden_free(w, spec.forbidden)
            and brute_extends(w, spec.forbidden, k, lookahead))


def brute_legal_words(spec, n, lookahead=None):
    """The words of length n that :func:`brute_is_legal` accepts."""
    return [w for w in product(range(len(spec.alphabet)), repeat=n)
            if brute_is_legal(spec, w, lookahead)]


def brute_follower_graph(spec):
    """The follower graph by its definition: the states are the m-blocks of
    the language, and each forbidden-free (m+1)-word from a state to a state
    is an edge.  Returns ``(states, edges)``."""
    m = spec.memory
    states = set(brute_legal_words(spec, m))
    edges = {(w[:-1], w[-1]): w[1:]
             for w in product(range(len(spec.alphabet)), repeat=m + 1)
             if w[:-1] in states and w[1:] in states
             and brute_forbidden_free(w, spec.forbidden)}
    return states, edges


def brute_forced_point(spec, w):
    """The single point of ``Z_w`` when every letter after ``w`` is the only
    legal one, else None; ``w`` is legal.  The point closes up once its last
    m-block repeats (a word shorter than m cannot repeat)."""
    m = spec.memory
    seen = {}
    while w[-m:] not in seen:
        seen[w[-m:]] = len(w)
        nexts = [a for a in range(len(spec.alphabet)) if brute_is_legal(spec, w + (a,))]
        if len(nexts) != 1:
            return None
        w += (nexts[0],)
    j = seen[w[-m:]]
    return ep_normalize(w[:j], w[j:])


def random_code(graph, rng: random.Random, max_len: int, keep: float = 0.6, root=OMEGA):
    """A random prefix code of legal words of at most ``max_len`` letters
    below the legal word ``root``: ``root``, split at random words into its
    legal one-letter extensions, and a random share of the result kept.
    Often not canonical (a split family may be kept whole)."""
    code = [root]
    for _ in range(rng.randint(0, 4 * max_len)):
        w = rng.choice(code)
        if len(w) < max_len:
            code.remove(w)
            code.extend(w + (a,) for a in range(graph.n_letters)
                        if graph.is_prefix_legal(w + (a,)))
    return [w for w in code if rng.random() < keep]


def covering_points(spec, n: int) -> list:
    """One eventually periodic point of X in every cylinder of a legal word
    of length ``n``, found by a forbidden-factor scan, so that functions
    stored in words of at most ``n`` letters are equal exactly when the
    points cannot tell them apart."""
    letters = range(len(spec.alphabet))
    tails = [w for k in range(4) for w in product(letters, repeat=k)]
    return [next(p for t in tails for per in tails[1:]
                 if in_shift(p := ep_normalize(w + t, per), spec.forbidden))
            for w in brute_legal_words(spec, n)]


def is_canonical(spec, coeffs: dict, floor: int) -> bool:
    """No word of at least ``floor`` letters has all of its legal one-letter
    extensions stored with one value, legality by :func:`brute_is_legal`."""
    k = len(spec.alphabet)
    for p in {w[:-1] for w in coeffs if len(w) > floor}:
        kids = [p + (a,) for a in range(k) if _cached_is_legal(spec, p + (a,))]
        if all(w in coeffs for w in kids) and len({coeffs[w] for w in kids}) == 1:
            return False
    return True


@functools.cache
def _cached_is_legal(spec, w) -> bool:
    return brute_is_legal(spec, w)


def stores_canonically(x) -> bool:
    """Every component of the element ``x`` at ``(u, v)`` is a prefix code
    of legal words ``u.q`` with nonzero values and ``F(u.q) <= F(v.q)``,
    and :func:`is_canonical` above ``|u|``; legality by
    :func:`brute_is_legal`, and ``F(a) <= F(b)`` as every m-letter ``r``
    with ``a.r`` legal having ``b.r`` legal."""
    spec, ring = x.algebra.graph.spec, x.algebra.ring
    blocks = list(product(range(len(spec.alphabet)), repeat=spec.memory))
    legal = functools.partial(_cached_is_legal, spec)
    for (u, v), fn in x.components.items():
        words = list(fn.coeffs)
        if not words or any(map(ring.is_zero, fn.coeffs.values())):
            return False
        if any(s != t and t[:len(s)] == s for s in words for t in words):
            return False
        for w in words:
            q = w[len(u):]
            if w[:len(u)] != u or not legal(w) or not all(
                    legal(v + q + r) for r in blocks if legal(w + r)):
                return False
        if not is_canonical(spec, fn.coeffs, len(u)):
            return False
    return True


def value_at(coeffs: dict, point):
    """The value a prefix code gives the point: that of the one stored word
    that is a prefix of it, or ``None``."""
    for n in sorted({len(w) for w in coeffs}):
        if point.prefix(n) in coeffs:
            return coeffs[point.prefix(n)]
    return None


def words_up_to(graph, n, include_empty=True):
    out = [OMEGA] if include_empty else []
    for k in range(1, n + 1):
        out.extend(graph.legal_words(k))
    return out


def random_monomial_sum(algebra, rng: random.Random, max_word=3, max_terms=3,
                        coeff_lo=-3, coeff_hi=3):
    """Random sum of monomials s_alpha p_A s_beta^*; may be zero."""
    g = algebra.graph
    pool = words_up_to(g, max_word)
    sets = [full_set(g)] + [cylinder(g, w) for w in words_up_to(g, 2, False)]
    x = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        alpha = rng.choice(pool)
        beta = rng.choice(pool)
        a_set = rng.choice(sets)
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(coeff_lo, coeff_hi)
        x = x + algebra.mono(alpha, a_set, beta, coeff)
    return x


def random_nonzero_element(algebra, rng, **kw):
    while True:
        x = random_monomial_sum(algebra, rng, **kw)
        if not x.is_zero():
            return x
