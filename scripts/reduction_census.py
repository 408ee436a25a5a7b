#!/usr/bin/env python3
"""Randomized reduction census.

Reduces a batch of random monomial sums on each fixture shift (and a few
extra presentations) and tabulates how often each reduced shape appears
together with witness sizes and timing.  ``reduce`` verifies each witness
before returning it and raises if the check fails.

Usage: reduction_census.py [COUNT] [SEED]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subshift_algebra import (CycleForm, SftSpec, SubshiftAlgebra, ZZ,
                              build_follower_graph, cylinder, full_set,
                              reduce)


def random_element(algebra, rng, max_word=3, max_terms=3):
    g = algebra.graph
    words = [()]
    for n in range(1, max_word + 1):
        words.extend(g.legal_words(n))
    sets = [full_set(g)] + [cylinder(g, w) for w in words if w]
    while True:
        x = algebra.zero()
        for _ in range(rng.randint(1, max_terms)):
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            x = x + algebra.mono(rng.choice(words), rng.choice(sets),
                                 rng.choice(words)).scale(coeff)
        if not x.is_zero():
            return x


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    presentations = {
        "full2": SftSpec.make("ab", []),
        "golden_mean": SftSpec.make("ab", ["bb"]),
        "y": SftSpec.make("ab", ["ba"]),
        "period2": SftSpec.make("ab", ["aa", "bb"]),
        "abc": SftSpec.make("abc", ["cc", "ab"]),
    }
    print(f"{'shift':<12} {'n':>5} {'proj':>6} {'cycle':>6} "
          f"{'max-trace':>9} {'sec':>6}")
    for name, spec in presentations.items():
        g = build_follower_graph(spec)
        algebra = SubshiftAlgebra(g, ZZ)
        rng = random.Random(seed)
        projections = cycles = 0
        longest_trace = 0
        t0 = time.time()
        for _ in range(count):
            x = random_element(algebra, rng)
            w = reduce(x, record_trace=True)
            longest_trace = max(longest_trace, len(w.trace))
            if isinstance(w.form, CycleForm):
                cycles += 1
            else:
                projections += 1
        print(f"{name:<12} {count:>5} {projections:>6} {cycles:>6} "
              f"{longest_trace:>9} {time.time() - t0:>6.2f}")


if __name__ == "__main__":
    main()
