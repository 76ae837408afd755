"""Answer checks for the benchmark, made with sympy alone.

Nothing here goes through ``rop``: printed residuals are evaluated
exactly, with sympy Rationals, at seeded random points, and solved
twists are compared with the paper's twists by ``cancel(a - b) == 0``.
"""

from __future__ import annotations

import random
import re

import sympy as sp

_NAME = re.compile(r"\b[A-Za-z][A-Za-z0-9_]*\b")
_INT = re.compile(r"\b\d+\b")
_JET = re.compile(r"\b(u|U|Ut)_([a-z]+)\b")

POINTS = 3  # random points tried before a residual is taken for zero
SPAN = 10**6


def _canonical(text: str) -> str:
    """Printed expression with sorted jet indices and ``**`` powers, so
    that ``u_zx`` and ``u_xz`` name one symbol."""
    text = _JET.sub(lambda m: f"{m.group(1)}_{''.join(sorted(m.group(2)))}", text)
    return text.replace("^", "**")


def value_at(text: str, point: dict) -> sp.Rational | None:
    """Exact value of a printed expression at a point (name -> Rational),
    or None at a pole."""
    code = _INT.sub(r"Integer(\g<0>)", _canonical(text))
    value = eval(code, {"__builtins__": {}, "Integer": sp.Integer}, point)  # noqa: S307
    return value if value.is_Rational else None


def some_nonzero(texts: list[str], rng: random.Random) -> bool:
    """True when one of the printed expressions evaluates to a nonzero
    rational at one of POINTS seeded random points."""
    names = sorted({n for t in texts for n in _NAME.findall(_canonical(t))} - {"Integer"})
    for _ in range(POINTS):
        point = {n: sp.Integer(rng.choice((-1, 1)) * rng.randint(1, SPAN)) for n in names}
        if any(value_at(t, point) not in (None, 0) for t in texts):
            return True
    return False


def parse(text: str) -> sp.Expr:
    text = _canonical(text)
    return sp.sympify(text, locals={n: sp.Symbol(n) for n in _NAME.findall(text)})


def same_function(a: str, b: str) -> bool:
    return sp.cancel(parse(a) - parse(b)) == 0
