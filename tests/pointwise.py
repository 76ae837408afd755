"""Test helpers that check exact results independently: evaluation at
random rational points, a gcd canonicaliser that shares no code with
``kernel.Form``, and the first-variation identity of a linearisation."""

from __future__ import annotations

import random
from typing import Iterable, Mapping

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.orderings import grevlex
from sympy.polys.rings import PolyElement, PolyRing

from rop import kernel
from rop.jets import JetSpace
from rop.linearize import linearize

from conftest import to_form


class PoleError(ZeroDivisionError):
    """Denominator vanishes at the requested evaluation point."""


# -- the gcd canonicaliser ------------------------------------------------
#
# The reference canonical form: one walk of the expression tree turns
# every subexpression into a (numerator, denominator) pair in the sparse
# polynomial ring of the expression's symbols (QQ, grevlex in
# kernel.symbol_order), one gcd cancellation makes the pair coprime, and
# both parts are divided by the leading coefficient of the denominator.


def as_fraction(e) -> tuple[sp.Expr, sp.Expr]:
    """Canonical (numerator, denominator) pair with a monic denominator."""
    num, den = _canonical_pair(e)
    return num.as_expr(), den.as_expr()


def normalize(e) -> sp.Expr:
    """The canonical form n/d of e through a gcd; the kernel's canonical
    expression (``Form.as_expr``) must be exactly (srepr) this one."""
    num, den = _canonical_pair(e)
    if den.is_one:
        return num.as_expr()
    return num.as_expr() / den.as_expr()


def is_zero(e) -> bool:
    return normalize(e) == 0


def equal(a, b) -> bool:
    return is_zero(sp.sympify(a) - sp.sympify(b))


def _canonical_pair(e) -> tuple[PolyElement, PolyElement]:
    e = sp.sympify(e)
    ring = PolyRing(kernel.symbol_order(e.free_symbols), QQ, grevlex)
    num, den = _to_pair(e, ring, dict(zip(ring.symbols, ring.gens)))
    if not den:
        raise kernel.DegenerateExpressionError(f"zero denominator in {e}")
    if not num:
        return ring.zero, ring.one
    num, den = num.cancel(den)
    lc = den.LC
    if lc != 1:
        num = num.quo_ground(lc)
        den = den.quo_ground(lc)
    return num, den


def _to_pair(e, ring: PolyRing, gens: dict) -> tuple[PolyElement, PolyElement]:
    """(numerator, denominator) polynomials with quotient e; not reduced."""
    if e.is_Symbol:
        return gens[e], ring.one
    if e.is_Rational:
        return ring.ground_new(QQ(e.p, e.q)), ring.one
    if e.is_Add:
        return _sum([_to_pair(a, ring, gens) for a in e.args], ring)
    if e.is_Mul:
        num, den = ring.one, ring.one
        for a in e.args:
            n, d = _to_pair(a, ring, gens)
            num, den = num * n, den * d
        return num, den
    if e.is_Pow and e.exp.is_Integer:
        num, den = _to_pair(e.base, ring, gens)
        k = int(e.exp)
        if k < 0:
            if not num:
                raise kernel.DegenerateExpressionError(f"zero denominator in {e}")
            num, den, k = den, num, -k
        return num**k, den**k
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise kernel.DegenerateExpressionError(f"undefined value in {e}")
    raise ValueError(f"{e} is not a rational function over QQ")


def _sum(pairs, ring: PolyRing) -> tuple[PolyElement, PolyElement]:
    """Sum of fractions over a common denominator: numerators of equal
    denominators are added first; monomial denominators combine by
    their monomial lcm, any others by their product."""
    by_den: dict[PolyElement, PolyElement] = {}
    for n, d in pairs:
        by_den[d] = by_den[d] + n if d in by_den else n
    by_den = {d: n for d, n in by_den.items() if n}
    if not by_den:
        return ring.zero, ring.one
    if len(by_den) == 1:
        (den, num), = by_den.items()
        return num, den
    lcm = ring.zero_monom
    general = []
    for d in by_den:
        if len(d) == 1:
            lcm = ring.monomial_lcm(lcm, d.LM)
        else:
            general.append(d)
    mono = ring.term_new(lcm, QQ.one)
    num = ring.zero
    for d, n in by_den.items():
        factor = mono.quo_term(d.LT) if len(d) == 1 else mono
        for g in general:
            if g is not d:
                factor = factor * g
        num = num + n * factor
    den = mono
    for g in general:
        den = den * g
    return num, den


def reference_total_derivative(e, x: str, space: JetSpace) -> sp.Expr:
    """D_x of an expression through sp.diff: explicit x-dependence plus
    the chain rule over every jet present."""
    e = sp.sympify(e)
    out = sp.diff(e, sp.Symbol(x))
    for s in e.free_symbols:
        jv = space.jet_var(s.name)
        if jv is not None:
            out += sp.diff(e, s) * sp.Symbol(space.jet(jv.unknown, jv.index + (x,)))
    return normalize(out)


# -- evaluation -------------------------------------------------------------


def eval_rational(e, point: Mapping[sp.Symbol, object]) -> sp.Rational:
    """Exact evaluation at a rational point.

    Every free symbol must be bound.  Raises PoleError when the
    denominator vanishes at the point (caller resamples).
    """
    e = sp.sympify(e)
    subs = {s: sp.Rational(v) for s, v in point.items()}
    missing = e.free_symbols - set(subs)
    if missing:
        raise ValueError(f"unbound symbols at evaluation: {sorted(missing, key=str)}")
    n, d = e.as_numer_denom()
    dv = d.xreplace(subs)
    if dv == 0:
        raise PoleError(f"denominator {d} vanishes at point")
    nv = n.xreplace(subs)
    return sp.Rational(nv) / sp.Rational(dv)


def random_point(symbols: Iterable[sp.Symbol], rng: random.Random,
                 span: int = 10**6) -> dict[sp.Symbol, sp.Rational]:
    return {s: sp.Rational(rng.randint(-span, span)) for s in symbols}


def probably_nonzero(e, rng: random.Random | None = None, points: int = 8,
                     span: int = 10**6) -> bool:
    """Fast probabilistic nonzero test: evaluate at random rational points.

    Returns True as soon as one pole-free evaluation is nonzero; falls
    back to the exact test when every sampled point is a pole.
    """
    e = sp.sympify(e)
    if e == 0:
        return False
    rng = rng or random.Random(0)
    syms = list(e.free_symbols)
    found_value = False
    for _ in range(points):
        for _retry in range(20):
            try:
                v = eval_rational(e, random_point(syms, rng, span))
            except PoleError:
                continue
            found_value = True
            if v != 0:
                return True
            break
    if not found_value:
        return not is_zero(e)
    return False


def first_variation_defect(F, space: JetSpace, seed: str = "U") -> sp.Expr:
    """Defect of the first-variation identity through order one in a
    nilpotent perturbation size:

        F[u -> u + eps*seed] - F - eps * (linearization applied to seed)

    with eps^2 treated as zero.  Identically zero for every F; serves as
    the independent check of linearize()."""
    F = sp.sympify(F)
    eps = sp.Symbol("_eps")
    shift = {}
    for s in F.free_symbols:
        jv = space.jet_var(s.name)
        if jv is not None and jv.unknown == "u":
            shift[s] = s + eps * sp.Symbol(space.jet(seed, jv.index))
    shifted = F.xreplace(shift)
    lin = linearize(to_form(F, space)).apply_to(seed).as_expr()
    defect = sp.cancel(sp.together(shifted - F - eps * lin))
    num, den = defect.as_numer_denom()
    if den.subs(eps, 0) == 0:
        raise kernel.DegenerateExpressionError("denominator singular at eps = 0")
    p = sp.Poly(num, eps)
    return normalize(p.nth(0) + eps * p.nth(1))
