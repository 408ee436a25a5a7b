#!/usr/bin/env python3
"""Walk through reductions on the three fixture shifts.

Shows the witness (mu, nu, reduced form, factor trace) for a handful of
instructive elements, including the cycle-form case on the shift Y.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subshift_algebra import (SubshiftAlgebra, SftSpec, ZZ,
                              build_follower_graph, cylinder,
                              find_cycles_without_exit, reduce)


def show(title, algebra, x):
    print(f"== {title}")
    print("input:")
    for line in x.format().splitlines():
        print(f"  {line}")
    w = reduce(x, record_trace=True)
    print(f"mu:   {' ;; '.join(w.mu.format().splitlines())}")
    print(f"nu:   {' ;; '.join(w.nu.format().splitlines())}")
    print(f"form: {w.form}")
    print(f"trace: {' -> '.join(w.trace) if w.trace else '(none)'}")
    print()


def main():
    shifts = {
        "full 2-shift": SftSpec.make("ab", []),
        "golden mean (forbidden bb)": SftSpec.make("ab", ["bb"]),
        "Y (forbidden ba)": SftSpec.make("ab", ["ba"]),
    }
    for name, spec in shifts.items():
        g = build_follower_graph(spec)
        algebra = SubshiftAlgebra(g, ZZ)
        print(f"#### {name}")
        pairs = find_cycles_without_exit(g)
        if pairs:
            for a_set, alpha in pairs:
                print(f"minimal cycle without exit: {a_set.format()} "
                      f"word {spec.word_to_str(alpha)}")
        else:
            print("every cycle has an exit")
        print()
        show("unit", algebra, algebra.one())
        a, b = 0, 1
        show("s_a + s_b", algebra, algebra.elem_s((a,)) + algebra.elem_s((b,)))
        show("s_a* - 2 s_ab", algebra,
             algebra.elem_s_star((a,)) - algebra.elem_s((a, b)).scale(2))
        if pairs:
            zb = cylinder(g, (b,))
            show("p(Z_b) + s_b p(Z_b)  [the cycle-form element]",
                 algebra, algebra.gen_p(zb) + algebra.elem_s((b,)) * algebra.gen_p(zb))


if __name__ == "__main__":
    main()
