"""Test helpers that check exact results independently: evaluation at
random rational points, the canonical pair of an expression, and the
first-variation identity of a linearisation."""

from __future__ import annotations

import random
from typing import Iterable, Mapping

import sympy as sp

from rop import kernel
from rop.jets import JetSpace
from rop.kernel import normalize
from rop.linearize import linearize


class PoleError(ZeroDivisionError):
    """Denominator vanishes at the requested evaluation point."""


def as_fraction(e) -> tuple[sp.Expr, sp.Expr]:
    """Canonical (numerator, denominator) pair with a monic denominator."""
    num, den = kernel._canonical_pair(e)
    return num.as_expr(), den.as_expr()


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
        return not kernel.is_zero(e)
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
        jv = space.jet_var(s)
        if jv is not None and jv.unknown == "u":
            shift[s] = s + eps * space.jet(seed, jv.index)
    shifted = F.xreplace(shift)
    lin = linearize(F, space).apply_to(seed, space).as_expr()
    defect = sp.cancel(sp.together(shifted - F - eps * lin))
    num, den = defect.as_numer_denom()
    if den.subs(eps, 0) == 0:
        raise kernel.DegenerateExpressionError("denominator singular at eps = 0")
    p = sp.Poly(num, eps)
    return normalize(p.nth(0) + eps * p.nth(1))
