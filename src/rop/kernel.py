"""Exact rational arithmetic and canonical forms.

Everything downstream works with multivariate rational expressions over
exact rationals.  The carrier type is a plain sympy expression; this module
pins down one canonical form (coprime numerator/denominator, monic
denominator under a fixed monomial order) so that zero-testing is
syntactic and results are reproducible.  Floating point never enters.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

import sympy as sp
from sympy.core.sorting import default_sort_key

Expr = sp.Expr

_UNDEFINED = (sp.zoo, sp.nan, sp.oo, -sp.oo)


class DegenerateExpressionError(ZeroDivisionError):
    """Denominator vanishes identically after simplification."""


class PoleError(ZeroDivisionError):
    """Denominator vanishes at the requested evaluation point."""


def symbol_order(symbols: Iterable[sp.Symbol]) -> list[sp.Symbol]:
    """The single global symbol order used for canonicalization."""
    return sorted(symbols, key=default_sort_key)


def normalize(e) -> sp.Expr:
    """Unique canonical form n/d: gcd(n, d) = 1, d expanded and monic
    under the global monomial order, n expanded.

    Idempotent; agrees with the input at every point where both are
    defined.  Raises DegenerateExpressionError if the denominator
    simplifies to zero.
    """
    n, d = _canonical_pair(e)
    if d == 1:
        return n
    return n / d


def _canonical_pair(e) -> tuple[sp.Expr, sp.Expr]:
    e = sp.sympify(e)
    if e.has(*_UNDEFINED):
        raise DegenerateExpressionError(f"undefined value in {e}")
    n, d = sp.cancel(sp.together(e)).as_numer_denom()
    n = sp.expand(n)
    d = sp.expand(d)
    if d == 0:
        raise DegenerateExpressionError(f"zero denominator in {e}")
    if n == 0:
        return sp.S.Zero, sp.S.One
    lc = _leading_coeff(d)
    if lc != 1:
        n = sp.expand(n / lc)
        d = sp.expand(d / lc)
    return n, d


def _leading_coeff(p: sp.Expr) -> sp.Rational:
    """Leading rational coefficient of an expanded polynomial under the
    global order.  All symbols (parameters and unknown constants
    included) count as generators, so this is always a plain rational."""
    if p.is_Number:
        return p
    gens = symbol_order(p.free_symbols)
    return sp.Poly(p, *gens).LC(order="grevlex")


def is_zero(e) -> bool:
    """Exact (gcd-based) zero test in canonical form."""
    return normalize(e) == 0


def equal(a, b) -> bool:
    return is_zero(sp.sympify(a) - sp.sympify(b))


def as_fraction(e) -> tuple[sp.Expr, sp.Expr]:
    """Canonical (numerator, denominator) pair with a monic denominator."""
    return _canonical_pair(e)


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
