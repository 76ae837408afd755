"""Jet coordinates, total derivatives, rankings, and rewrite systems.

Three unknowns live on the jet space: the equation unknown ``u``, a seed
symmetry ``U`` and its image ``Ut`` (printed as the twisted symmetry).
Jet variables are plain sympy symbols named ``u_xy``, ``U_t``, ``Ut_zz``
with multi-indices kept sorted, so ``u_xy`` and ``u_yx`` are one symbol.

A RewriteSystem holds solved relations (equation, linearized equation,
recursion relations) oriented by a well-founded ranking, and reduces
expressions to normal form, generating prolongations of the rules on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import sympy as sp

from . import kernel
from .kernel import Expr, normalize

UNKNOWNS = ("u", "U", "Ut")


class OrderOverflowError(ValueError):
    """A jet beyond the registry's maximum order was demanded."""


class NonlinearLeadingError(ValueError):
    """Relation is nonlinear in the jet it should be solved for."""


class NoLeadingJetError(ValueError):
    """No solvable leading jet with nonzero coefficient remains."""


@dataclass(frozen=True)
class JetVar:
    unknown: str
    index: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.index)


class JetSpace:
    """Registry of independent variables, parameters, and jet symbols.

    The declaration order of the independent variables doubles as the
    ranking: earlier variables rank higher.  The unknown precedence is
    fixed to Ut > U > u.
    """

    def __init__(self, variables: Sequence[str], max_order: int = 4,
                 params: Sequence[str] = ()):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate independent variables")
        for v in variables:
            if len(v) != 1 or not v.isalpha():
                raise ValueError(f"independent variables are single letters, got {v!r}")
            if v in UNKNOWNS:
                raise ValueError(f"variable name {v!r} collides with an unknown")
        self.variables = tuple(variables)
        self.max_order = int(max_order)
        self._pos = {v: i for i, v in enumerate(self.variables)}
        self.var_syms = {v: sp.Symbol(v) for v in self.variables}
        self.params = tuple(sp.Symbol(p) for p in params)
        self._by_name: dict[str, JetVar] = {}

    # -- jet symbols ---------------------------------------------------

    def jet(self, unknown: str, index: Iterable[str] = ()) -> sp.Symbol:
        if unknown not in UNKNOWNS:
            raise ValueError(f"unknown function {unknown!r}")
        for v in index:
            if v not in self._pos:
                raise ValueError(f"{v!r} is not an independent variable")
        idx = tuple(sorted(index, key=self._pos.__getitem__))
        if len(idx) > self.max_order:
            raise OrderOverflowError(
                f"jet of order {len(idx)} exceeds bound {self.max_order}; "
                "raise the bound with a 'maxorder' line or --max-order")
        name = unknown if not idx else f"{unknown}_{''.join(idx)}"
        self._by_name[name] = JetVar(unknown, idx)
        return sp.Symbol(name)

    def jet_var(self, sym: sp.Symbol) -> JetVar | None:
        """JetVar behind a symbol, or None for non-jet symbols."""
        name = sym.name
        jv = self._by_name.get(name)
        if jv is not None:
            return jv
        head, _, tail = name.partition("_")
        if head in UNKNOWNS and (tail or "_" not in name):
            if "_" not in name:
                if name not in UNKNOWNS:
                    return None
                jv = JetVar(name, ())
            else:
                if not tail or any(v not in self._pos for v in tail):
                    return None
                jv = JetVar(head, tuple(sorted(tail, key=self._pos.__getitem__)))
                if "".join(jv.index) != tail:
                    return None
            self._by_name[name] = jv
            return jv
        return None

    def jets_in(self, e: Expr, unknown: str | None = None) -> list[sp.Symbol]:
        out = []
        for s in sp.sympify(e).free_symbols:
            jv = self.jet_var(s)
            if jv is not None and (unknown is None or jv.unknown == unknown):
                out.append(s)
        return out

    # -- ranking -------------------------------------------------------

    def rank_key(self, jv: JetVar) -> tuple:
        """Key comparable with > ; larger key means higher-ranked jet."""
        n = len(self.variables)
        lex = tuple(sorted((n - self._pos[v] for v in jv.index), reverse=True))
        return (UNKNOWNS.index(jv.unknown), jv.order, lex)

    def rank_of(self, sym: sp.Symbol) -> tuple:
        jv = self.jet_var(sym)
        if jv is None:
            raise ValueError(f"{sym} is not a jet variable")
        return self.rank_key(jv)


def total_derivative(e, x: str, space: JetSpace) -> Expr:
    """Total derivative D_x: explicit x-dependence plus the chain rule
    over every jet variable present."""
    e = sp.sympify(e)
    out = sp.diff(e, space.var_syms[x])
    for s in e.free_symbols:
        jv = space.jet_var(s)
        if jv is not None:
            out += sp.diff(e, s) * space.jet(jv.unknown, jv.index + (x,))
    return normalize(out)


def _multiset_leq(small: tuple[str, ...], big: tuple[str, ...]) -> bool:
    rest = list(big)
    for v in small:
        if v in rest:
            rest.remove(v)
        else:
            return False
    return True


def _multiset_diff(big: tuple[str, ...], small: tuple[str, ...]) -> tuple[str, ...]:
    rest = list(big)
    for v in small:
        rest.remove(v)
    return tuple(rest)


def clean_assumptions(assumptions: Iterable[Expr]) -> tuple[Expr, ...]:
    """Distinct non-constant irreducible factors of the recorded nonzero
    expressions (a product is nonzero iff each factor is)."""
    out: list[Expr] = []
    for a in assumptions:
        num, den = normalize(a).as_numer_denom()
        for part in (num, den):
            for factor, _mult in sp.factor_list(part)[1]:
                f = normalize(factor)
                if f.is_Number:
                    continue
                if not any(kernel.equal(f, g) or kernel.equal(f, -g) for g in out):
                    out.append(f)
    return tuple(out)


@dataclass(frozen=True)
class RewriteRule:
    """Solved relation lhs -> rhs with every jet in rhs strictly below lhs."""
    lhs: sp.Symbol
    rhs: Expr

    def validate(self, space: JetSpace) -> None:
        top = space.rank_of(self.lhs)
        for s in space.jets_in(self.rhs):
            if not space.rank_of(s) < top:
                raise ValueError(
                    f"rule {self.lhs} -> ... contains jet {s} not below its lhs")


def solve_for_leading(relation, unknown: str, space: JetSpace
                      ) -> tuple[RewriteRule, Expr]:
    """Solve a relation (== 0) for its ranking-greatest jet of ``unknown``.

    Returns the rule and the leading coefficient, which the caller
    records as a genericity assumption.  Falls through to the next jet
    when a leading coefficient is identically zero.
    """
    rel = normalize(relation)
    num, _den = rel.as_numer_denom()
    jets = sorted(space.jets_in(num, unknown), key=space.rank_of, reverse=True)
    if not jets:
        raise NoLeadingJetError(f"relation has no {unknown}-jets: {relation}")
    for i, v in enumerate(jets):
        p = sp.Poly(num, v)
        if p.degree() > 1:
            raise NonlinearLeadingError(
                f"relation is nonlinear in its leading jet {v}")
        a = p.nth(1)
        b = p.nth(0)
        if kernel.is_zero(a):
            continue
        rule = RewriteRule(v, normalize(-b / a))
        rule.validate(space)
        return rule, normalize(a)
    raise NoLeadingJetError(
        f"every {unknown}-jet of the relation has an identically zero coefficient")


class RewriteSystem:
    """Solved rules plus on-demand prolongations; reduction to normal form.

    Reduction is innermost with the highest-ranked applicable rule chosen
    for each reducible jet; it terminates because every replacement is
    strictly decreasing under the ranking.  Normal forms of reducible
    jets are memoized per system.
    """

    def __init__(self, space: JetSpace, rules: Iterable[RewriteRule],
                 assumptions: Iterable[Expr] = ()):
        self.space = space
        self.rules: dict[sp.Symbol, RewriteRule] = {}
        for r in rules:
            if r.lhs in self.rules:
                raise ValueError(f"duplicate rule for {r.lhs}")
            r.validate(space)
            self.rules[r.lhs] = r
        lhss = list(self.rules)
        for i, a in enumerate(lhss):
            for b in lhss[i + 1:]:
                ja, jb = space.jet_var(a), space.jet_var(b)
                if ja.unknown == jb.unknown and (
                        _multiset_leq(ja.index, jb.index)
                        or _multiset_leq(jb.index, ja.index)):
                    raise ValueError(
                        f"rule lhs {a} and {b} are derivatives of one another")
        self.assumptions = clean_assumptions(assumptions)
        self._nf: dict[sp.Symbol, Expr] = {}

    def matching_rule(self, sym: sp.Symbol) -> RewriteRule | None:
        jv = self.space.jet_var(sym)
        if jv is None:
            return None
        best = None
        for lhs, rule in self.rules.items():
            jl = self.space.jet_var(lhs)
            if jl.unknown == jv.unknown and _multiset_leq(jl.index, jv.index):
                if best is None or self.space.rank_of(lhs) > self.space.rank_of(best.lhs):
                    best = rule
        return best

    def normal_form(self, sym: sp.Symbol) -> Expr:
        cached = self._nf.get(sym)
        if cached is not None:
            return cached
        rule = self.matching_rule(sym)
        if rule is None:
            nf = sym
        else:
            jv = self.space.jet_var(sym)
            jl = self.space.jet_var(rule.lhs)
            e = self.reduce(rule.rhs)
            for x in _multiset_diff(jv.index, jl.index):
                e = self.reduce(total_derivative(e, x, self.space))
            nf = e
        self._nf[sym] = nf
        return nf

    def reduce(self, e) -> Expr:
        """Fixed-point reduction modulo the rules and their prolongations."""
        e = sp.sympify(e)
        while True:
            repl = {}
            for s in e.free_symbols:
                if self.matching_rule(s) is not None:
                    repl[s] = self.normal_form(s)
            if not repl:
                break
            e = e.xreplace(repl)
        return normalize(e)

    def extended(self, rules: Iterable[RewriteRule],
                 assumptions: Iterable[Expr] = ()) -> "RewriteSystem":
        return RewriteSystem(self.space, list(self.rules.values()) + list(rules),
                             self.assumptions + tuple(assumptions))
