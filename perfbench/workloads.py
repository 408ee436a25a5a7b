"""The benchmark's operations on the package's public API.

Every call into the package goes through a module attribute looked up at
call time (``parsing.evaluate``, ``reduction.reduce``, ...), so the wrappers
that :mod:`tracing` installs see it.  Each runner returns the op's answer as
text, which must repeat on every pass, and the algebra elements it produced.
"""

from __future__ import annotations

from subshift_algebra import algebra, parsing, reduction, rings, shift, structure

import inputs


class CheckFailed(Exception):
    """An op produced an answer that its correctness check rejects."""


def build_algebras(workload: str) -> dict[tuple[str, str], object]:
    """Parse every shift file the workload uses, build its follower graph
    once, and one algebra per (shift, ring)."""
    graphs = {}
    out = {}
    for name, ring in inputs.ALGEBRAS[workload]:
        if name not in graphs:
            spec = parsing.parse_shift(inputs.shift_text(*inputs.shift_spec(name)))
            graphs[name] = shift.build_follower_graph(spec)
        out[name, ring] = algebra.SubshiftAlgebra(graphs[name], rings.ring_from_name(ring))
    return out


def run_reduce(alg, text: str):
    """Evaluate, test for zero, reduce and verify the witness; round-trip a
    cycle form through the corner's Laurent polynomial."""
    x = parsing.evaluate(text, alg)
    if x.is_zero():
        return "zero", ()
    w = reduction.reduce(x, record_trace=True)
    if not reduction.verify(w, x):
        raise CheckFailed("witness failed verify")
    form = w.form
    if not isinstance(form, reduction.CycleForm):
        return f"projection {form.gamma!r}", (w.mu, w.nu)
    y = reduction.embed_form(alg, form)
    poly = structure.corner_to_laurent(y, form.cycle_set, form.beta)
    expected = dict(zip((0,) + form.exps, form.gammas))
    if poly.coeffs != expected:
        raise CheckFailed("corner polynomial disagrees with the cycle form")
    if not structure.laurent_to_corner(poly, alg, form.cycle_set, form.beta).equals(y):
        raise CheckFailed("corner round trip changed the element")
    return f"cycle {form.beta} {form.exps} {form.gammas!r}", (w.mu, w.nu)


def run_nf(alg, text: str):
    """The formatted normal form."""
    x = parsing.evaluate(text, alg)
    return x.format(), (x,)


def run_identity(alg, text: str):
    """An expression that is zero by an algebra identity."""
    if not parsing.evaluate(text, alg).is_zero():
        raise CheckFailed("identity did not evaluate to zero")
    return "zero", ()


RUNNERS = {"reduce": run_reduce, "nf": run_nf,
           "distrib": run_identity, "assoc": run_identity}


def printed_words(element) -> int:
    """Coefficient words shown by ``format()``: one per ``coeff word`` entry."""
    text = element.format()
    if text == "0":
        return 0
    return sum(len(line.split(" | ", 1)[1].split(" ; ")) for line in text.splitlines())


def stored_words(element) -> int:
    return sum(len(fn.coeffs) for fn in element.components.values())
