"""Executable reduction of nonzero algebra elements.

Any nonzero element can be compressed, by multiplying with explicit left and
right factors, to one of two shapes: a nonzero scalar multiple of a
projection, or a cycle form ``gamma_1 p_A + sum_i gamma_i s_{beta^{q_i}} p_A``
over a minimal cycle without exit.  :func:`reduce` produces the factors
together with the classified shape as a :class:`ReductionWitness`.

The reduction is a fixed sequence of the ``_phase_*`` functions, which
share a :class:`_Pipeline` accumulating the factors ``mu`` and ``nu``:

* ``_phase_positive`` right-multiplies once, by ``s_v`` for the longest
  negative part ``v``, which makes every component positive, and
  ``_phase_prefix_nest`` nests the positive words into a chain;
* ``_settle`` repeats ``_phase_common_projection`` (scalar coefficients over
  one common set), ``_phase_strip_z`` (strip the shortest word) and
  ``_phase_pump`` (shrink the set into its relative range under the second
  word) until a projection multiple appears or the pump does not run;
* if the words are not powers of one root, ``_phase_power_align`` kills the
  ones that are not, once, and ``_settle`` runs again; then
  ``_phase_exit_kill`` decides the cycle dichotomy.

From the nest on, the sequence keeps the *nest invariant*: every word is a
prefix of the longest word ``beta``, and every support lies inside
``Z(beta)`` (killing a term keeps it: ``Z(beta)`` lies in every cylinder of
the chain).  Nest: ``p(Z(beta))`` on the left cuts every support into
``Z(beta)`` and kills the words not comparable with ``beta``.  Right
projections, the one-cylinder collapse among them, only shrink supports.
``st(alpha_1)`` removes a prefix that every word shares.  Pump, with
``b_i = b_2 c_i``: a surviving term has a point ``y`` of ``B`` with
``c_i y`` in ``B``; both start with ``beta``, hence with ``b_2 c_i``, so
``c_i b_2 = b_2 c_i`` and every surviving word is a power of one root.
Power alignment: ``B`` inside ``r(B, alpha)`` puts ``alpha^n B`` inside
``Z(beta)``, so every ``b_i`` is a prefix of ``alpha^inf``; write
``b_i = rho^q p`` with ``rho`` the primitive root of ``alpha`` and ``p`` a
nonempty proper prefix of ``rho``.  Then ``st(alpha^n)`` kills the term, or
its new word starts with a nontrivial rotation of ``rho``, not ``rho`` by
Fine and Wilf, and ``p(Z(alpha))`` kills it.

Nonzero-ness is re-checked after every multiplication of the element but
two, which are skipped because the element is left as it is, nonzero as
before; only ``mu`` or ``nu`` takes the factor.  When the element is one
component ``c s_u p_A`` with a scalar ``c``, its common-projection factor is
``p_A``, ``A`` its own tail set, and ``c s_u p_A p_A`` is the element.  When
the nest meets one component ``(beta, omega)``, its support lies in
``Z(beta)``, so ``p(Z(beta))`` on the left leaves it whole.  Progress is
checked in the pump.  Under the nest invariant the projections and the
strip never add a term, and each pump that runs removes one (a pump can
need another), which bounds ``_settle``.  All multiplier
factors have coefficient 1, so no new zero-divisor products can arise even
over rings with zero divisors, and the nonzero checks operate purely on
supports.  A broken invariant raises :class:`InternalNonzeroViolation`.

:func:`reduce` verifies every witness before returning it and is the one
verification point: the command line's ``reduce --verify`` and
``--check-square`` read its witness without checking again.  The public
:func:`verify` re-multiplies and compares, for a witness from elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, SubshiftAlgebra
from .clopen import (ClopenSet, CoeffFn, CycleKind, as_singleton,
                     classify_cycle, cylinder, relative_range)
from .errors import InternalNonzeroViolation, ZeroInput
from .words import OMEGA, Word, ep_normalize, primitive_root

Pair = tuple[Word, Word]


@dataclass(frozen=True)
class ProjectionMultiple:
    gamma: object
    proj_set: ClopenSet


@dataclass(frozen=True)
class CycleForm:
    cycle_set: ClopenSet
    beta: Word
    gammas: tuple
    exps: tuple[int, ...]


ReducedForm = ProjectionMultiple | CycleForm


@dataclass
class ReductionWitness:
    mu: AlgebraElement
    nu: AlgebraElement
    form: ReducedForm
    trace: tuple[str, ...] | None = None


def embed_form(algebra: SubshiftAlgebra, form: ReducedForm) -> AlgebraElement:
    """The algebra element a reduced form denotes."""
    if isinstance(form, ProjectionMultiple):
        return algebra.gen_p(form.proj_set).scale(form.gamma)
    return sum((algebra.mono(form.beta * q, form.cycle_set, OMEGA, gamma)
                for gamma, q in zip(form.gammas, (0, *form.exps))), algebra.zero())


class _Pipeline:
    """Accumulates left/right factors while keeping the element nonzero.  A
    side with no factor yet is unset and reads as the unit; its first factor
    is taken as it is, not multiplied by the unit."""

    def __init__(self, x: AlgebraElement, record_trace: bool = False):
        self.alg = x.algebra
        self.x = x
        self._mu: AlgebraElement | None = None
        self._nu: AlgebraElement | None = None
        self.trace: list[str] | None = [] if record_trace else None

    @property
    def mu(self) -> AlgebraElement:
        return self.alg.one() if self._mu is None else self._mu

    @property
    def nu(self) -> AlgebraElement:
        return self.alg.one() if self._nu is None else self._nu

    def left(self, factor: AlgebraElement, label: str, idle: bool = False):
        """With ``idle`` the caller knows that ``factor * x`` is ``x``: only
        ``mu`` takes the factor."""
        if not idle:
            nx = factor * self.x
            if nx.is_zero():
                raise InternalNonzeroViolation(f"left factor zeroed the element: {label}")
            self.x = nx
        self._mu = factor if self._mu is None else factor * self._mu
        if self.trace is not None:
            self.trace.append(f"L {label}")

    def right(self, factor: AlgebraElement, *labels: str, idle: bool = False):
        """With ``idle`` the caller knows that ``x * factor`` is ``x``: only
        ``nu`` takes the factor.  A factor traced as several steps has a
        label for each."""
        if not idle:
            nx = self.x * factor
            if nx.is_zero():
                raise InternalNonzeroViolation(
                    f"right factor zeroed the element: {' '.join(labels)}")
            self.x = nx
        self._nu = factor if self._nu is None else self._nu * factor
        if self.trace is not None:
            self.trace.extend(f"R {label}" for label in labels)

    def fmt_word(self, w: Word) -> str:
        return self.alg.graph.spec.word_to_str(w)


def _sorted_keys(x: AlgebraElement) -> list[Pair]:
    return sorted(x.components, key=lambda t: (len(t[0]), t[0], len(t[1]), t[1]))


def _scalar_of(x: AlgebraElement, key: Pair):
    gamma = x.components[key].scalar()
    if gamma is None:
        raise InternalNonzeroViolation(
            "component is not a scalar multiple of an indicator")
    return gamma


def _require_positive(x: AlgebraElement):
    if any(v != OMEGA for (_, v) in x.components):
        raise InternalNonzeroViolation("a negative component survived the positive phase")


# -- phase: make every component positive (one right product by s_v) -----------


def _phase_positive(p: _Pipeline):
    negs = [t for t in p.x.components if t[1] != OMEGA]
    if not negs:
        return
    # Target the component with the longest negative part ``(u, v)``, least
    # first.  A letter ``a`` on the right keeps its index ``u v^-1 a`` in the
    # (positive)(negative)^-1 family only for ``a = v[0]``, and
    # ``s_u p s_v^* s_{v[0]} s_{v[0]}^* = s_u p s_v^*`` is nonzero.  That
    # letter drops every negative part not starting with it and shortens the
    # others by one; stored pairs never share a last letter, so no positive
    # term lands on the target, and the same component is the target next.
    # So the letters are exactly ``v``: by associativity the element ends at
    # ``x * s_v``, one product, traced one letter at a time.  A wrong target
    # leaves a negative component, which ``_require_positive`` rejects.
    v = min(negs, key=lambda t: (-len(t[1]), t[1], t[0]))[1]
    alphabet = p.alg.graph.spec.alphabet
    p.right(p.alg.elem_s(v), *(f"s({alphabet[a]})" for a in v))


# -- phase: nest the positive words into a prefix chain -------------------------


def _phase_prefix_nest(p: _Pipeline):
    _require_positive(p.x)
    words = [u for (u, _) in p.x.components]
    beta = min(words, key=lambda u: (-len(u), u))
    if beta == OMEGA:
        return
    p.left(p.alg.gen_p(cylinder(p.alg.graph, beta)),
           f"p(Z({p.fmt_word(beta)}))", idle=len(p.x.components) == 1)


# -- phase: common projection (scalar coefficients over one common set) ---------


def _phase_common_projection(p: _Pipeline) -> ClopenSet:
    _require_positive(p.x)
    # First pass: per-component set factors, in chain order.  Components whose
    # coefficient function is not a scalar multiple of an indicator get
    # collapsed onto one of their cylinders (the lexicographically least
    # word of the printed form: the least extension of the least stored word
    # to the longer of |u| + m and the longest stored word); the rest
    # contribute their own tail set.  The targeted component always survives
    # its own factor, so the element stays nonzero.  A lone component
    # ``c s_u p_A`` with a scalar ``c`` and its own tail set ``A`` is left as
    # it is by ``p_A``: only ``nu`` takes that factor.
    for key in _sorted_keys(p.x):
        if key not in p.x.components:
            continue
        fn = p.x.components[key]
        scalar = fn.scalar() is not None
        if not scalar:
            g, least = fn.graph, min(fn.coeffs)
            w = g.least_extension(least, max(len(key[0]) + g.m, fn.longest()))
            fn = CoeffFn(g, {w: fn.coeffs[least]})
        p.right(p.alg.gen_p(relative_range(fn, key[0])), "p(common)",
                idle=scalar and len(p.x.components) == 1)
    # Follower projections are subsumed: a tail set r(support, alpha) sits
    # inside the follower set of alpha by definition, so the common set
    # already lands inside every surviving F_{alpha_i}.
    keys = _sorted_keys(p.x)
    tails = [p.x.tail_set(k) for k in keys]
    common = tails[0]
    if not all(t == common for t in tails):
        raise InternalNonzeroViolation("projection cascade left unequal sets")
    for k in keys:
        _scalar_of(p.x, k)
    return common


# -- phase: strip the shortest word ---------------------------------------------


def _phase_strip_z(p: _Pipeline) -> ProjectionMultiple | ClopenSet:
    """Reach either a plain projection multiple or the shape
    ``gamma_1 p_B + sum gamma_i s_{b_i} p_B`` with ``B`` inside every
    ``F_{b_i}`` and ``Z_{b_i}``.  Under the nest invariant (every word a
    prefix of the longest word ``beta``, every support inside ``Z(beta)``)
    one ``st`` of the shortest word does this; the invariant is guarded,
    not repaired."""
    alpha1 = _sorted_keys(p.x)[0][0]
    if alpha1 != OMEGA:
        p.left(p.alg.elem_s_star(alpha1), f"st({p.fmt_word(alpha1)})")
    keys = _sorted_keys(p.x)
    if keys[0][0] != OMEGA:
        raise InternalNonzeroViolation("stripping left no constant term")
    if len(keys) == 1:
        return ProjectionMultiple(_scalar_of(p.x, keys[0]), p.x.support_set(keys[0]))
    b_set = p.x.tail_set(keys[0])
    if not b_set.is_subset(cylinder(p.alg.graph, keys[-1][0])):
        raise InternalNonzeroViolation("the common set left the longest cylinder")
    return b_set


# -- phase: pump the common set into its relative range -------------------------


def _phase_pump(p: _Pipeline, b_set: ClopenSet) -> bool:
    """One pump pass: when ``B`` is not inside ``r(B, b_2)`` for the second
    word ``b_2``, left-multiply by ``p_D s_{b_2}^*`` with
    ``D = B \\ r(B, b_2)``, which strictly lowers the term count.  Returns
    whether the pass ran."""
    b2 = _sorted_keys(p.x)[1][0]
    d_set = b_set.difference(relative_range(b_set, b2))
    if d_set.is_empty():
        return False
    terms = len(p.x.components)
    p.left(p.alg.mono(OMEGA, d_set, b2), f"p(D) st({p.fmt_word(b2)})")
    if len(p.x.components) >= terms:
        raise InternalNonzeroViolation("pump pass made no progress")
    return True


# -- phase: align longer words onto powers of the base word ---------------------


def _phase_power_align(p: _Pipeline, b_set: ClopenSet):
    g = p.alg.graph
    keys = _sorted_keys(p.x)
    if keys[0][0] != OMEGA or len(keys) < 3:
        raise InternalNonzeroViolation("power alignment needs a constant and two words")
    alpha = keys[1][0]
    cmax = keys[-1][0]
    n = -(-len(cmax) // len(alpha))
    p.right(p.alg.mono(alpha * n, b_set, OMEGA), f"s({p.fmt_word(alpha)}^{n}) p(B)")
    p.left(p.alg.mono(OMEGA, cylinder(g, alpha), alpha * n),
           f"p(Z({p.fmt_word(alpha)})) st({p.fmt_word(alpha)}^{n})")
    _phase_common_projection(p)


# -- phase: extract the common word root -----------------------------------------


def _extract_root(x: AlgebraElement) -> tuple[Word, list[int]] | None:
    """If all positive words are powers of one primitive root, return it with
    the exponent list (in chain order)."""
    keys = _sorted_keys(x)
    words = [u for (u, _) in keys if u != OMEGA]
    c, _ = primitive_root(words[0])
    exps = []
    for w in words:
        k, r = divmod(len(w), len(c))
        if r or c * k != w:
            return None
        exps.append(k)
    return c, exps


# -- phase: decide the cycle dichotomy -------------------------------------------


def _phase_exit_kill(p: _Pipeline, b_set: ClopenSet, c: Word,
                     exps: list[int]) -> ReducedForm:
    """Final dichotomy.

    The set lies inside every Z_{c^n} exactly when each of its points starts
    with arbitrarily long powers of c, i.e. equals c^inf; so the infinite
    intersection condition reduces to the exact singleton test.  The search
    for the diverging block reads one set difference per block, which refines
    the set no finer than the cylinder it removes.
    """
    g = p.alg.graph
    keys = _sorted_keys(p.x)
    gammas = tuple(_scalar_of(p.x, k) for k in keys)
    point = as_singleton(b_set)
    if point is not None and point == ep_normalize(OMEGA, c):
        root, l = primitive_root(c)
        return CycleForm(b_set, root, gammas, tuple(l * q for q in exps))
    # The set contains a point diverging from c^inf; find the block where it
    # leaves and cut with the offending cylinder, which kills every s-term.
    # Starting at block 0 also covers inputs whose set is not yet inside
    # Z_{c^{max exp}}: the kill argument only needs the minimality of j.
    # Past more blocks of c than the table has states, the walk along c^inf
    # repeats a state at one phase of c (pigeonhole, in any deterministic
    # presentation); a set whose points all still follow c there is the
    # forced singleton, which the test above has ruled out.
    j = 0
    cap = (b_set.longest() + (g.n_states + 2) * len(c)) // len(c) + 2
    while (rest := b_set.difference(cylinder(g, c * (j + 1)))).is_empty():
        j += 1
        if j > cap:
            raise InternalNonzeroViolation(
                "bounded search exhausted; singleton test should have fired")
    # The diverging block ends the least word of the difference, cut or
    # extended (by its least extension) to length (j+1)|c|: in a prefix code
    # the least word's extensions precede every other word's, so this is the
    # least legal word of that length that meets the set and is not c^(j+1).
    n = (j + 1) * len(c)
    w = min(rest.words)
    w0 = w[:n] if len(w) >= n else g.least_extension(w, n)
    beta = w0[j * len(c):]
    if beta == c:
        raise InternalNonzeroViolation("exit search found no diverging block")
    witness_word = c * j + beta
    p.left(p.alg.gen_p(cylinder(g, witness_word)),
           f"p(Z({p.fmt_word(witness_word)}))")
    keys = _sorted_keys(p.x)
    if len(keys) != 1 or keys[0][0] != OMEGA:
        raise InternalNonzeroViolation("exit cut left non-constant terms")
    gamma = _scalar_of(p.x, keys[0])
    return ProjectionMultiple(gamma, p.x.support_set(keys[0]))


# -- the full reduction ------------------------------------------------------------


def _settle(p: _Pipeline) -> ProjectionMultiple | ClopenSet:
    """Common projection, strip and pump, until the strip returns a
    projection multiple or the pump does not run; returns the strip's."""
    while True:
        _phase_common_projection(p)
        res = _phase_strip_z(p)
        if isinstance(res, ProjectionMultiple) or not _phase_pump(p, res):
            return res


def reduce(x: AlgebraElement, record_trace: bool = False) -> ReductionWitness:
    """Produce multipliers ``(mu, nu)`` and the classified reduced form of a
    nonzero element.

    Runs the nest, ``_settle``, at most one power alignment and ``_settle``
    again, then the exit kill, as the module docstring gives; with
    ``record_trace`` the witness also lists every factor as ``L label`` or
    ``R label``.  Before returning, the witness is checked with
    :func:`verify`; a failure raises :class:`InternalNonzeroViolation`, so
    every returned witness is correct and callers need not verify again.
    Raises :class:`ZeroInput` for the zero element.
    """
    if x.is_zero():
        raise ZeroInput("cannot reduce the zero element")
    p = _Pipeline(x, record_trace)
    _phase_positive(p)
    _phase_prefix_nest(p)
    form = _settle(p)
    # ``rooted`` is bound whenever a set reaches the exit kill.
    if isinstance(form, ClopenSet) and (rooted := _extract_root(p.x)) is None:
        _phase_power_align(p, form)
        form = _settle(p)
        if isinstance(form, ClopenSet) and (rooted := _extract_root(p.x)) is None:
            raise InternalNonzeroViolation(
                "power alignment left a word that is not a power of the root")
    if isinstance(form, ClopenSet):
        form = _phase_exit_kill(p, form, *rooted)
    witness = ReductionWitness(
        mu=p.mu, nu=p.nu, form=form,
        trace=tuple(p.trace) if p.trace is not None else None)
    if not verify(witness, x):
        raise InternalNonzeroViolation("produced witness failed verification")
    return witness


def verify(witness: ReductionWitness, x: AlgebraElement) -> bool:
    """Recompute ``mu * x * nu``, compare with the embedded form, and
    re-classify cycle forms."""
    algebra = x.algebra
    ring = algebra.ring
    product = witness.mu * x * witness.nu
    expected = embed_form(algebra, witness.form)
    if product.is_zero() or not product.equals(expected):
        return False
    form = witness.form
    if isinstance(form, ProjectionMultiple):
        return (not ring.is_zero(form.gamma)) and not form.proj_set.is_empty()
    if any(ring.is_zero(gamma) for gamma in form.gammas):
        return False
    if len(form.exps) != len(form.gammas) - 1:
        return False
    if any(q <= 0 for q in form.exps):
        return False
    if any(a >= b for a, b in zip(form.exps, form.exps[1:])):
        return False
    cc = classify_cycle(form.cycle_set, form.beta)
    return cc.kind is CycleKind.CYCLE_WITHOUT_EXIT and cc.minimal is True
