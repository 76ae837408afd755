import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from rop.engine import SLOTS, TwistRelations
from rop.jets import LAMBDA, JetSpace, jet_ring
from rop.kernel import DegenerateExpressionError, FormRing
from rop.problem import parse_problem

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="session")
def eq5():
    return parse_problem((PROBLEM_DIR / "eq5.rop").read_text())


@pytest.fixture(scope="session")
def dfkn2():
    return parse_problem((PROBLEM_DIR / "dfkn2.rop").read_text())


@pytest.fixture(scope="session")
def dfkn3():
    return parse_problem((PROBLEM_DIR / "dfkn3.rop").read_text())


@pytest.fixture(scope="session")
def pavlov():
    return parse_problem((PROBLEM_DIR / "pavlov.rop").read_text())


@pytest.fixture()
def space():
    """Small three-variable jet space for kernel-level tests."""
    return JetSpace(["x", "y", "z"], max_order=4)


def evaluate(e, ring):
    """An expression as a Form of ring, evaluated with Form arithmetic as
    the parser evaluates a line: a symbol is a generator or a key, and
    sums, products and integer powers are taken in the ring."""
    e = sp.sympify(e)
    if e.is_Symbol:
        return ring.symbol(e.name)
    if e.is_Rational:
        return ring.constant(Fraction(e.p, e.q))
    if e.is_Add:
        one = ring.constant(1)
        return ring.combine([(one, evaluate(a, ring)) for a in e.args])
    if e.is_Mul:
        out = ring.constant(1)
        for a in e.args:
            out = out * evaluate(a, ring)
        return out
    if e.is_Pow and e.exp.is_Integer:
        base, k = evaluate(e.base, ring), int(e.exp)
        if k < 0:
            base, k = base.inverse(), -k
        out = ring.constant(1)
        for _ in range(k):
            out = out * base
        return out
    if e.has(sp.nan, sp.zoo):
        raise DegenerateExpressionError(f"undefined value in {e}")
    raise ValueError(f"{e} is not a rational function over QQ")


def to_form(e, space):
    """An expression (or a Form) as a Form of the JetRing of space, with
    any symbol of e that is neither a jet, an independent variable, lam
    nor a parameter as an extra generator."""
    e = sp.sympify(e)
    known = {LAMBDA, *space.params, *space.variables}
    return evaluate(e, jet_ring(space, [s.name for s in e.free_symbols
                                        if s.name not in known
                                        and space.jet_var(s.name) is None]))


def canonical(e) -> sp.Expr:
    """The kernel's canonical form of an expression, through a Form of
    the ring of its own symbols."""
    e = sp.sympify(e)
    return evaluate(e, FormRing(s.name for s in e.free_symbols)).as_expr()


def jets_in(space, e) -> list:
    """The jets among the symbols of an expression."""
    return [s for s in sp.sympify(e).free_symbols if space.jet_var(s.name) is not None]


def jet_symbols(space):
    """space.jet, giving the jet as a sympy symbol, for building
    reference expressions."""
    return lambda unknown, index=(): sp.Symbol(space.jet(unknown, index))


def zero_twist(space):
    """The twist whose four functions are the zero Form of space."""
    return TwistRelations({slot: to_form(0, space) for slot in SLOTS})


@pytest.fixture()
def rng():
    return random.Random(20240817)


def random_poly(rng, symbols, terms=4, degree=2):
    """Random integer polynomial; small and fast to cancel."""
    out = sp.Integer(rng.randint(-5, 5))
    for _ in range(terms):
        mon = sp.Integer(rng.randint(-5, 5))
        for _ in range(rng.randint(0, degree)):
            mon *= rng.choice(symbols)
        out += mon
    return out


def random_rational(rng, symbols, terms=3, degree=2):
    num = random_poly(rng, symbols, terms, degree)
    den = random_poly(rng, symbols, terms - 1, degree - 1) + sp.Integer(
        rng.randint(1, 7))
    if den == 0:
        den = sp.Integer(1)
    return num / den
