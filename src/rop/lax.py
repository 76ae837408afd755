"""First-order scalar operators, lambda splitting, and Lax-pair validation.

An operator here is  free + sum_j coeff_j * D_{x^j}  with rational-function
coefficients, kept as sympy expressions; ``expr_derivative`` takes their
total derivatives (and the parser's) through ``jets.total_derivative``.
Lax operators are linear in the spectral parameter, L = X0 - lam*X1, and
are stored as the split (X1, X0) pair: X1 is minus the lam-coefficient
and X0 the lam-free part, whatever the ranking.

Validity of a pair for an equation F = 0 is checked as commutator closure:
[op1, op2] must lie in the span of op1, op2 with lambda-rational
multipliers, modulo F and its differential consequences.  This is the
standard checkable criterion for pairs of this class; the choice is
recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from . import kernel
from .jets import (LAMBDA, JetSpace, RewriteSystem, expr_ring,
                   solve_for_leading, total_derivative)
from .kernel import Expr, Form, normalize


def expr_derivative(e, x: str, space: JetSpace) -> Expr:
    """Total derivative D_x of an expression, in the form normalize
    gives; carried as a Form of jets.expr_ring."""
    e = sp.sympify(e)
    return total_derivative(expr_ring(e, space).from_expr(e), x).as_expr()


class NotLambdaLinearError(ValueError):
    """Operator coefficients of lambda-degree >= 2.

    Some pairs quadratic in the spectral parameter can be rewritten in a
    lambda-linear form by hand; do so before splitting.
    """


class DegeneratePairError(ValueError):
    """The two operators do not give distinct leading directions."""


@dataclass(frozen=True)
class FirstOrderOperator:
    """free + sum_j dirs[j] * D_j with Expr coefficients."""
    free: Expr
    dirs: tuple[tuple[str, Expr], ...]

    @staticmethod
    def make(free, dirs: dict) -> "FirstOrderOperator":
        free = normalize(free)
        items = []
        for v, c in dirs.items():
            c = normalize(c)
            if c != 0:
                items.append((v, c))
        return FirstOrderOperator(free, tuple(sorted(items)))

    def dir_coeff(self, v: str) -> Expr:
        for w, c in self.dirs:
            if w == v:
                return c
        return sp.S.Zero

    @property
    def directions(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.dirs)

    def is_zero(self) -> bool:
        return self.free == 0 and not self.dirs

    def directional_apply(self, e, space: JetSpace) -> Expr:
        """Only the D-part applied to an expression."""
        return normalize(sum(c * expr_derivative(e, v, space)
                             for v, c in self.dirs))

    def apply(self, e, space: JetSpace) -> Expr:
        return normalize(self.free * e + self.directional_apply(e, space))

    def apply_to_unknown(self, unknown: str, space: JetSpace) -> Expr:
        """Apply to the zeroth jet of an unknown symbolically."""
        return normalize(self.free * space.jet(unknown)
                         + sum(c * space.jet(unknown, (v,)) for v, c in self.dirs))

    def scaled(self, factor) -> "FirstOrderOperator":
        return FirstOrderOperator.make(self.free * factor,
                                       {v: c * factor for v, c in self.dirs})

    def __add__(self, other: "FirstOrderOperator") -> "FirstOrderOperator":
        dirs = {v: self.dir_coeff(v) + other.dir_coeff(v)
                for v in set(self.directions) | set(other.directions)}
        return FirstOrderOperator.make(self.free + other.free, dirs)

    def __sub__(self, other: "FirstOrderOperator") -> "FirstOrderOperator":
        return self + other.scaled(-1)

    def __neg__(self) -> "FirstOrderOperator":
        return self.scaled(-1)


def commutator(p: FirstOrderOperator, q: FirstOrderOperator,
               space: JetSpace) -> FirstOrderOperator:
    """[p, q] as a first-order operator (second-order parts cancel)."""
    dirs = {}
    for v in set(p.directions) | set(q.directions):
        dirs[v] = (p.directional_apply(q.dir_coeff(v), space)
                   - q.directional_apply(p.dir_coeff(v), space))
    free = p.directional_apply(q.free, space) - q.directional_apply(p.free, space)
    return FirstOrderOperator.make(free, dirs)


def split_lambda(op: FirstOrderOperator) -> tuple[FirstOrderOperator, FirstOrderOperator]:
    """Split a lambda-linear operator as op = X0 - lam*X1.

    Returns (X1, X0): X1 is minus the lam-coefficient and X0 the
    lam-free part, so the split does not depend on the ranking.
    """
    x1_dirs, x0_dirs = {}, {}
    for v, c in op.dirs + ((None, op.free),):
        hi, lo = _lambda_parts(c)
        if v is None:
            x1_free, x0_free = -hi, lo
        else:
            x1_dirs[v] = -hi
            x0_dirs[v] = lo
    return (FirstOrderOperator.make(x1_free, x1_dirs),
            FirstOrderOperator.make(x0_free, x0_dirs))


def _lambda_parts(c) -> tuple[Expr, Expr]:
    c = normalize(c)
    _num, den = c.as_numer_denom()
    if den.has(LAMBDA):
        raise NotLambdaLinearError(
            f"coefficient {c} is not polynomial in the spectral parameter")
    p = sp.Poly(c, LAMBDA)
    if p.degree() > 1:
        raise NotLambdaLinearError(
            f"coefficient {c} has spectral-parameter degree {p.degree()}; "
            "try rewriting the pair in a lambda-linear form first")
    return normalize(p.nth(1)), normalize(p.nth(0))


@dataclass(frozen=True)
class LaxPair:
    """Two lambda-linear operators, stored split as (X1_i, X0_i)."""
    x1: tuple[FirstOrderOperator, FirstOrderOperator]
    x0: tuple[FirstOrderOperator, FirstOrderOperator]

    @staticmethod
    def from_operators(op1: FirstOrderOperator, op2: FirstOrderOperator,
                       space: JetSpace) -> "LaxPair":
        splits = [split_lambda(op) for op in (op1, op2)]
        pair = LaxPair(tuple(s[0] for s in splits), tuple(s[1] for s in splits))
        pair.validate(space)
        return pair

    def validate(self, space: JetSpace) -> None:
        for i, (x1, x0) in enumerate(zip(self.x1, self.x0)):
            if x1.is_zero():
                raise NotLambdaLinearError(
                    f"operator {i + 1} has no spectral-parameter part")
            for part in (x1, x0):
                for _, c in part.dirs + ((None, part.free),):
                    c = sp.sympify(c)
                    if c.has(LAMBDA):
                        raise ValueError("split coefficients must be lambda-free")
                    for s in space.jets_in(c):
                        if space.jet_var(s).unknown != "u":
                            raise ValueError(
                                f"Lax coefficients must be free of {s}")
        if not self._independent_directions(space):
            raise DegeneratePairError(
                "the directional parts of the two lambda-coefficient operators "
                "are proportional")

    def _independent_directions(self, space: JetSpace) -> bool:
        a, b = self.x1
        vs = sorted(set(a.directions) | set(b.directions))
        for i, v in enumerate(vs):
            for w in vs[i + 1:]:
                cross = a.dir_coeff(v) * b.dir_coeff(w) - a.dir_coeff(w) * b.dir_coeff(v)
                if not kernel.is_zero(cross):
                    return True
        return False

    def full_operator(self, i: int) -> FirstOrderOperator:
        """Reconstruct L_i = X0_i - lam*X1_i with lambda-polynomial
        coefficients."""
        return self.x0[i] - self.x1[i].scaled(LAMBDA)


@dataclass
class LaxReport:
    passed: bool
    residuals: list[Expr] = field(default_factory=list)
    multipliers: tuple[Expr, Expr] | None = None
    assumptions: tuple[Expr, ...] = ()
    note: str = ""


def equation_system(F: Form, space: JetSpace) -> RewriteSystem:
    """Rewrite system generated by F = 0 solved for its leading u-jet,
    in the ring of F."""
    rule, lead = solve_for_leading(F, "u", space)
    return RewriteSystem(space, [rule], [lead])


def check_lax(pair: LaxPair, F, space: JetSpace) -> LaxReport:
    """Commutator-closure check of a pair against F = 0.

    Seeks lambda-rational multipliers a, b with [op1, op2] = a*op1 + b*op2
    by matching directional coefficients, reducing every residual modulo
    F and its prolongations.  PASS iff all residuals vanish identically
    in lambda.  The operators are taken as opi = lam*X1_i - X0_i = -L_i:
    the commutator and the residuals are those of L_i, and the
    multipliers are reported for this sign.
    """
    sys = equation_system(expr_ring(F, space).from_expr(F), space)

    def reduce(e) -> Form:
        return sys.reduce(sys.ring.from_expr(e))

    op1, op2 = (-pair.full_operator(i) for i in (0, 1))
    comm = commutator(op1, op2, space)
    dirs = sorted(set(comm.directions) | set(op1.directions) | set(op2.directions))

    # pick two pivot directions with generically invertible 2x2 matrix
    pivot = None
    for i, v in enumerate(dirs):
        for w in dirs[i + 1:]:
            det = reduce(op1.dir_coeff(v) * op2.dir_coeff(w)
                         - op1.dir_coeff(w) * op2.dir_coeff(v)).as_expr()
            if det != 0:
                pivot = (v, w, det)
                break
        if pivot:
            break
    if pivot is None:
        return LaxReport(False, assumptions=sys.assumptions,
                         note="no pair of independent directional coefficients")
    v, w, det = pivot
    cv = reduce(comm.dir_coeff(v)).as_expr()
    cw = reduce(comm.dir_coeff(w)).as_expr()
    a = normalize((cv * op2.dir_coeff(w) - cw * op2.dir_coeff(v)) / det)
    b = normalize((op1.dir_coeff(v) * cw - op1.dir_coeff(w) * cv) / det)

    residuals = []
    for d in dirs:
        if d in (v, w):
            continue
        residuals.append(reduce(
            comm.dir_coeff(d) - a * op1.dir_coeff(d) - b * op2.dir_coeff(d)))
    residuals.append(reduce(comm.free - a * op1.free - b * op2.free))
    residuals = [r.as_expr() for r in residuals if r != 0]
    return LaxReport(not residuals, residuals, (a, b), sys.assumptions,
                     note=f"pivot directions {v}, {w}")
