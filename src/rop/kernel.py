"""Exact rational arithmetic and canonical forms.

Everything downstream works with multivariate rational expressions over
exact rationals.  The carrier type is a plain sympy expression; this module
pins down one canonical form (coprime numerator/denominator, monic
denominator under a fixed monomial order) so that zero-testing is
syntactic and results are reproducible.  Floating point never enters.

The canonical form is computed by sparse polynomial arithmetic: one walk
of the expression tree turns every subexpression into a (numerator,
denominator) pair of polynomials in ``PolyRing(symbol_order(symbols), QQ,
grevlex)``, one ``cancel`` removes their gcd, and both parts are divided
by the grevlex leading coefficient of the denominator.  Only symbols,
rationals, sums, products and integer powers are admitted; any other
atom (a float, a root, a function) raises NotRationalError.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

import sympy as sp
from sympy.core.sorting import default_sort_key
from sympy.polys.domains import QQ
from sympy.polys.orderings import grevlex
from sympy.polys.rings import PolyElement, PolyRing

Expr = sp.Expr

_UNDEFINED = (sp.zoo, sp.nan, sp.oo, -sp.oo)


class DegenerateExpressionError(ZeroDivisionError):
    """Denominator vanishes identically after simplification."""


class NotRationalError(ValueError):
    """Expression is not a rational function over QQ of its symbols."""


class PoleError(ZeroDivisionError):
    """Denominator vanishes at the requested evaluation point."""


def symbol_order(symbols: Iterable[sp.Symbol]) -> list[sp.Symbol]:
    """The single global symbol order used for canonicalization."""
    return sorted(symbols, key=default_sort_key)


def normalize(e) -> sp.Expr:
    """Unique canonical form n/d: gcd(n, d) = 1, d expanded and monic
    under the global monomial order, n expanded.

    The form is computed over QQ in the sparse polynomial ring of e's
    symbols, ordered by symbol_order under grevlex, with one gcd
    cancellation.  Idempotent; agrees with the input at every point
    where both are defined.  Raises DegenerateExpressionError if the
    denominator simplifies to zero, and NotRationalError if e holds an
    atom other than a symbol or a rational number, or a power with a
    non-integer exponent.
    """
    num, den = _canonical_pair(e)
    if den.is_one:
        return num.as_expr()
    return num.as_expr() / den.as_expr()


def _canonical_pair(e) -> tuple[PolyElement, PolyElement]:
    e = sp.sympify(e)
    ring = PolyRing(symbol_order(e.free_symbols), QQ, grevlex)
    num, den = _to_pair(e, ring, dict(zip(ring.symbols, ring.gens)))
    if not den:
        raise DegenerateExpressionError(f"zero denominator in {e}")
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
                raise DegenerateExpressionError(f"zero denominator in {e}")
            num, den, k = den, num, -k
        return num**k, den**k
    if e.has(*_UNDEFINED):
        raise DegenerateExpressionError(f"undefined value in {e}")
    raise NotRationalError(f"{e} is not a rational function over QQ")


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


def leading_coeff(e) -> sp.Rational:
    """Leading coefficient of e's canonical numerator under the global
    monomial order (grevlex in symbol_order); zero for e = 0."""
    num, _den = _canonical_pair(e)
    return QQ.to_sympy(num.LC)


def is_zero(e) -> bool:
    """Exact (gcd-based) zero test in canonical form."""
    return normalize(e) == 0


def equal(a, b) -> bool:
    return is_zero(sp.sympify(a) - sp.sympify(b))


def as_fraction(e) -> tuple[sp.Expr, sp.Expr]:
    """Canonical (numerator, denominator) pair with a monic denominator."""
    num, den = _canonical_pair(e)
    return num.as_expr(), den.as_expr()


def partial_diff(e, s: sp.Symbol) -> sp.Expr:
    """Formal partial derivative treating every other symbol as constant."""
    return normalize(sp.diff(sp.sympify(e), s))


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
    val = sp.Rational(nv) / sp.Rational(dv)
    return val


def random_point(symbols: Iterable[sp.Symbol], rng: random.Random,
                 span: int = 10**6) -> dict[sp.Symbol, sp.Rational]:
    return {s: sp.Rational(rng.randint(-span, span)) for s in symbols}


def probably_nonzero(e, rng: random.Random | None = None, points: int = 8,
                     span: int = 10**6) -> bool:
    """Fast probabilistic nonzero test: evaluate at random rational points.

    Pre-filter only; the sound verdict is always normalize().  Returns
    True as soon as one pole-free evaluation is nonzero.
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
        # every sampled point was a pole; fall back to the exact test
        return not is_zero(e)
    return False
