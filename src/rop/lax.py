"""First-order scalar operators, lambda splitting, and Lax-pair validation.

An operator here is  free + sum_j coeff_j * D_{x^j}  with coefficients
that are Forms of one JetRing (``jets.jet_ring``), whose space names the
jets; the parser builds a lax line with the operator's ``+``, ``-`` and
``scaled``, and total derivatives are ``jets.total_derivative``.  Lax
operators are linear in the spectral parameter, L = X0 - lam*X1, and are
stored as the split (X1, X0) pair: X1 is minus the lam-coefficient and X0
the lam-free part, whatever the ranking.

Validity of a pair for an equation F = 0 is checked as commutator closure:
[op1, op2] must lie in the span of op1, op2 with lambda-rational
multipliers, modulo F and its differential consequences, and not without
them: a pair that closes for every u does not encode F.  This is the
standard checkable criterion for pairs of this class; the choice is
recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jets import LAMBDA, RewriteSystem, solve_for_leading, total_derivative
from .kernel import Form, FormRing, fmt


class NotLambdaLinearError(ValueError):
    """Operator coefficients of lambda-degree >= 2.

    Some pairs quadratic in the spectral parameter can be rewritten in a
    lambda-linear form by hand; do so before splitting.
    """


class DegeneratePairError(ValueError):
    """The two operators do not give distinct leading directions."""


@dataclass(frozen=True)
class FirstOrderOperator:
    """free + sum_j dirs[j] * D_j with coefficients Forms of one ring."""
    free: Form
    dirs: tuple[tuple[str, Form], ...]

    @staticmethod
    def make(free: Form, dirs: dict) -> "FirstOrderOperator":
        items = [(v, c) for v, c in dirs.items() if c != 0]
        return FirstOrderOperator(free, tuple(sorted(items, key=lambda vc: vc[0])))

    @property
    def ring(self) -> FormRing:
        return self.free.ring

    def dir_coeff(self, v: str) -> Form:
        for w, c in self.dirs:
            if w == v:
                return c
        return self.ring.zero

    @property
    def directions(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.dirs)

    def coefficients(self) -> list[Form]:
        return [self.free] + [c for _, c in self.dirs]

    def is_zero(self) -> bool:
        return self.free == 0 and not self.dirs

    def directional_apply(self, e: Form) -> Form:
        """Only the D-part applied to a Form."""
        return self.ring.combine([(c, total_derivative(e, v)) for v, c in self.dirs])

    def apply_to_unknown(self, unknown: str) -> Form:
        """Apply to the zeroth jet of an unknown symbolically."""
        ring = self.ring
        space = ring.space
        jets = [(self.free, space.jet(unknown))]
        jets += [(c, space.jet(unknown, (v,))) for v, c in self.dirs]
        return ring.combine([(c, ring.symbol(j)) for c, j in jets])

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


def commutator(p: FirstOrderOperator, q: FirstOrderOperator) -> FirstOrderOperator:
    """[p, q] as a first-order operator (second-order parts cancel)."""
    dirs = {}
    for v in set(p.directions) | set(q.directions):
        dirs[v] = (p.directional_apply(q.dir_coeff(v))
                   - q.directional_apply(p.dir_coeff(v)))
    free = p.directional_apply(q.free) - q.directional_apply(p.free)
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


def _lambda_parts(c: Form) -> tuple[Form, Form]:
    """(lam-coefficient, lam-free part) of c, read off the lam exponents
    of its numerators."""
    ring = c.ring
    k = ring.index[LAMBDA]
    if any(ring.factors[fid].degree(k) for fid in c.den):
        raise NotLambdaLinearError(
            f"coefficient {fmt(c)} is not polynomial in the spectral parameter")
    degree = max((p.degree(k) for p in c.terms.values()), default=0)
    if degree > 1:
        raise NotLambdaLinearError(
            f"coefficient {fmt(c)} has spectral-parameter degree {degree}; "
            "try rewriting the pair in a lambda-linear form first")
    hi = c.derive(lambda p: p.diff(k), lambda _key: None)
    return hi, c - hi * ring.symbol(LAMBDA)


def split_lax_operator(op: FirstOrderOperator) -> tuple[FirstOrderOperator, FirstOrderOperator]:
    """split_lambda of one operator of a pair, whose lam-part must be
    nonzero and whose coefficients must be free of U and Ut jets."""
    x1, x0 = split_lambda(op)
    if x1.is_zero():
        raise NotLambdaLinearError("operator has no spectral-parameter part")
    for c in x1.coefficients() + x0.coefficients():
        for s in c.free_symbols:
            jv = op.ring.space.jet_var(s)
            if jv is not None and jv.unknown != "u":
                raise ValueError(f"Lax coefficients must be free of {s}")
    return x1, x0


@dataclass(frozen=True)
class LaxPair:
    """Two lambda-linear operators, stored split as (X1_i, X0_i)."""
    x1: tuple[FirstOrderOperator, FirstOrderOperator]
    x0: tuple[FirstOrderOperator, FirstOrderOperator]

    @staticmethod
    def from_splits(split1: tuple, split2: tuple) -> "LaxPair":
        """The pair of two (X1, X0) splits, as ``split_lax_operator``
        gives them; the directional parts of the X1 must be independent."""
        pair = LaxPair((split1[0], split2[0]), (split1[1], split2[1]))
        if not pair._independent_directions():
            raise DegeneratePairError(
                "the directional parts of the two lambda-coefficient operators "
                "are proportional")
        return pair

    def _independent_directions(self) -> bool:
        a, b = self.x1
        vs = sorted(set(a.directions) | set(b.directions))
        for i, v in enumerate(vs):
            for w in vs[i + 1:]:
                if a.dir_coeff(v) * b.dir_coeff(w) - a.dir_coeff(w) * b.dir_coeff(v) != 0:
                    return True
        return False

    def full_operator(self, i: int) -> FirstOrderOperator:
        """Reconstruct L_i = X0_i - lam*X1_i with lambda-polynomial
        coefficients."""
        return self.x0[i] - self.x1[i].scaled(self.x1[i].ring.symbol(LAMBDA))


@dataclass
class LaxReport:
    """The verdict, with the nonzero residuals, the multipliers and the
    assumptions as Forms."""
    passed: bool
    residuals: list[Form] = field(default_factory=list)
    multipliers: tuple[Form, Form] | None = None
    assumptions: tuple[Form, ...] = ()
    note: str = ""


def equation_system(F: Form) -> RewriteSystem:
    """Rewrite system generated by F = 0 solved for its leading u-jet,
    in the ring of F and the ranking of its space; its assumptions are
    the factors of that jet's coefficient."""
    return RewriteSystem([solve_for_leading(F, "u")])


def check_lax(pair: LaxPair, F: Form) -> LaxReport:
    """Commutator-closure check of a pair against F = 0, F a Form of the
    ring of the pair's coefficients (a Form of another ring is a
    ValueError).

    Seeks lambda-rational multipliers a, b with [op1, op2] = a*op1 + b*op2
    by matching directional coefficients, reducing every residual modulo
    F and its prolongations.  PASS iff all residuals vanish identically
    in lambda, and not all do without that reduction: a pair that closes
    for every u encodes no equation.  The operators are taken as opi =
    lam*X1_i - X0_i = -L_i: the commutator and the residuals are those of
    L_i, and the multipliers are reported for this sign.
    """
    op1, op2 = (-pair.full_operator(i) for i in (0, 1))
    sys = equation_system(F)
    comm = commutator(op1, op2)
    dirs = sorted(set(comm.directions) | set(op1.directions) | set(op2.directions))

    def det(v, w):
        return op1.dir_coeff(v) * op2.dir_coeff(w) - op1.dir_coeff(w) * op2.dir_coeff(v)

    # pick two pivot directions with generically invertible 2x2 matrix
    pivot = next(((v, w) for i, v in enumerate(dirs) for w in dirs[i + 1:]
                  if sys.reduce(det(v, w)) != 0), None)
    if pivot is None:
        return LaxReport(False, assumptions=sys.assumptions,
                         note="no pair of independent directional coefficients")
    v, w = pivot

    def closure(reduce):
        """The multipliers and the nonzero closure residuals, every
        coefficient taken through reduce."""
        cv, cw = reduce(comm.dir_coeff(v)), reduce(comm.dir_coeff(w))
        inv = reduce(det(v, w)).inverse()
        a = (cv * op2.dir_coeff(w) - cw * op2.dir_coeff(v)) * inv
        b = (op1.dir_coeff(v) * cw - op1.dir_coeff(w) * cv) * inv
        residuals = [reduce(comm.dir_coeff(d) - a * op1.dir_coeff(d)
                            - b * op2.dir_coeff(d)) for d in dirs if d not in (v, w)]
        residuals.append(reduce(comm.free - a * op1.free - b * op2.free))
        return a, b, [r for r in residuals if r != 0]

    a, b, residuals = closure(sys.reduce)
    note = f"pivot directions {v}, {w}"
    free = not residuals and not closure(lambda f: f)[2]
    if free:
        note += "; the pair closes without F = 0, so it does not encode the equation"
    return LaxReport(not residuals and not free, residuals, (a, b), sys.assumptions, note)
