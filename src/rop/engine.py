"""Twisted recursion relations: building, residuals, determining system, solving.

The recursion relations couple a seed symmetry U to its image Ut through
the split Lax operators, corrected by four zeroth-order twist functions
f_i^s.  Two requirements make the relations a recursion operator:

  a) the pair of relations, read as a system for Ut, is cross-derivative
     compatible whenever U satisfies the linearized equation;
  b) Ut then satisfies the linearized equation itself.

Both are computed as exact residuals reduced modulo the equation, the
linearized equation, the relations, and differential consequences of all
three.  With the twist functions expanded over an ansatz with unknown
constants, the vanishing of every residual coefficient yields the
determining system, solved exactly by rounds of elimination of all its
linear equations at once, then bounded branching on the factors of a
nonlinear one.

From the relations to the residuals everything is a ``kernel.Form`` of
one JetRing per computation, whose generators include the twist's
unknown constants.  F, the Lax operators and the twist come as Forms of
the space's JetRing (an ansatz twist: of that ring with its constants),
and ``FormRing.embed`` moves them into the computation's ring; the
VerifyReport carries Forms.  Up to here nothing needs sympy.  The
determining equations are made in the solver's ring, sympy's polynomial
ring of the unknowns over QQ or the field of the residuals' other
symbols, in one pass that splits each monomial of the residuals'
numerators into its equation, its monomial and its coefficient.  The
solver stays in that ring: the branch step factors an equation there,
and a closed branch's values are ground elements of it, which
``Solution.twist_functions`` lifts back with ``FormRing.lift`` and turns
into Forms with Form arithmetic.  sympy is imported by the functions
that make and solve the determining system, when they are first called.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .jets import (JetSpace, RewriteRule, RewriteSystem, jet_ring,
                   solve_for_leading, total_derivative)
from .kernel import ONE, Form
from .lax import LAMBDA, DegeneratePairError, LaxPair, equation_system
from .linearize import LinearDifferentialOperator, linearize

ORIENTATIONS = ("forward", "swapped")
SLOTS = ((1, 0), (1, 1), (2, 0), (2, 1))


class InvalidTwistError(ValueError):
    """Twist functions must be free of the spectral parameter and of
    U/Ut jets."""


class PartialResultError(RuntimeError):
    """Some branches were left unresolved; carries the solutions found
    and the equations of each unresolved branch, elements of the
    solver's ring."""

    def __init__(self, msg, solutions, unresolved):
        super().__init__(msg)
        self.solutions = solutions
        self.unresolved = unresolved


@dataclass(frozen=True)
class TwistRelations:
    """The four twist functions, Forms of a JetRing, plus the
    orientation flag.

    forward:  X1_i(Ut) + f_i^1 Ut = f_i^0 U + X0_i(U)
    swapped:  the roles of (X1, X0) exchanged between Ut and U.
    """
    f: dict
    orientation: str = "forward"

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        for slot in SLOTS:
            if slot not in self.f:
                raise InvalidTwistError(f"missing twist slot f{slot[0]}_{slot[1]}")

    def validate(self, space: JetSpace) -> None:
        for slot, e in self.f.items():
            check_twist_function(slot, e, space)

    def with_orientation(self, orientation: str) -> "TwistRelations":
        return TwistRelations(dict(self.f), orientation)

    def free_constants(self, space: JetSpace) -> set:
        """The generators of the twist functions' rings that the space's
        JetRing lacks: the unknown constants of an ansatz, also one whose
        basis term is zero."""
        known = jet_ring(space).index
        return {s for f in self.f.values() for s in f.ring.symbols if s not in known}


def check_twist_function(slot: tuple[int, int], f: Form, space: JetSpace) -> None:
    """The twist function of a slot must be free of the spectral parameter
    and of U/Ut jets (the keys of a Form)."""
    i, s = slot
    if LAMBDA in f.free_symbols:
        raise InvalidTwistError(f"f{i}_{s} depends on the spectral parameter")
    for key in f.terms:
        if key is not ONE:
            raise InvalidTwistError(f"f{i}_{s} depends on {key}")


@dataclass(frozen=True)
class RelationSet:
    """The two relations moved to one side, plus their solved forms, each
    rule with its leading Ut-coefficient as its lead; all Forms of one
    JetRing."""
    relations: tuple[Form, Form]
    rules: tuple[RewriteRule, RewriteRule]
    directions: tuple[str, str]
    orientation: str


def build_relations(pair: LaxPair, twist: TwistRelations,
                    space: JetSpace) -> RelationSet:
    """Form E_i = (Ut-side operator)(Ut) + f_i^1 Ut - f_i^0 U - (U-side
    operator)(U) and solve each for its leading Ut-jet.  The JetRing of
    the computation has the twist's unknown constants as generators."""
    twist.validate(space)
    ring = jet_ring(space, twist.free_constants(space))
    one = ring.constant(1)
    relations, rules, dirs = [], [], []
    for i in (0, 1):
        ut_op = pair.x1[i] if twist.orientation == "forward" else pair.x0[i]
        u_op = pair.x0[i] if twist.orientation == "forward" else pair.x1[i]
        e = ring.combine([(one, ring.embed(ut_op.apply_to_unknown("Ut", space))),
                          (ring.embed(twist.f[(i + 1, 1)]), ring.symbol(space.jet("Ut"))),
                          (-ring.embed(twist.f[(i + 1, 0)]), ring.symbol(space.jet("U"))),
                          (-one, ring.embed(u_op.apply_to_unknown("U", space)))])
        rule = solve_for_leading(e, "Ut", space)
        jv = space.jet_var(rule.lhs)
        if jv.order != 1:
            raise DegeneratePairError(
                f"leading Ut-jet {rule.lhs} of relation {i + 1} is not first order")
        relations.append(e)
        rules.append(rule)
        dirs.append(jv.index[0])
    if rules[0].lhs == rules[1].lhs:
        raise DegeneratePairError(
            f"both relations solve for the same leading Ut-jet {rules[0].lhs}")
    return RelationSet(tuple(relations), tuple(rules), tuple(dirs),
                       twist.orientation)


def full_system(F, relset: RelationSet,
                space: JetSpace) -> tuple[RewriteSystem, LinearDifferentialOperator]:
    """One rewrite system of F = 0, the linearized equation solved for
    U and the recursion relations solved for Ut, in the JetRing of the
    relations; and the linearization of F in that ring.  The linearized
    equation is reduced modulo F before it is solved, so the lead of its
    rule is in normal form; the other rules go in as they were solved,
    and reduction reduces each right-hand side where it uses it.  The
    system's assumptions are the factors of the leading coefficients of
    F, of its linearization and of the relations."""
    F = relset.relations[0].ring.embed(F)
    sys_u = equation_system(F, space)
    lin = linearize(F, space)
    u_rule = solve_for_leading(sys_u.reduce(lin.apply_to("U", space)), "U", space)
    return RewriteSystem(space, [*sys_u.rules.values(), u_rule, *relset.rules]), lin


def compatibility_residual(relset: RelationSet, sys: RewriteSystem) -> Form:
    """Condition a): the cross-derivative of the two solved relations,
    reduced in their full system; zero means the system for Ut is
    compatible whenever U is a symmetry."""
    (r1, r2), (d1, d2) = relset.rules, relset.directions
    cross = (total_derivative(sys.rules[r1.lhs].rhs, d2)
             - total_derivative(sys.rules[r2.lhs].rhs, d1))
    return sys.reduce(cross)


def symmetry_residual(lin: LinearDifferentialOperator, sys: RewriteSystem) -> Form:
    """Condition b): the linearized equation applied to Ut, reduced in the
    full system; zero means Ut is a symmetry whenever U is."""
    return sys.reduce(lin.apply_to("Ut", sys.space))


@dataclass
class VerifyReport:
    """The verdict, with both residuals and the assumptions as Forms."""
    passed: bool
    orientation: str
    compatibility: Form
    symmetry: Form
    assumptions: tuple[Form, ...]
    timings: dict = field(default_factory=dict)


def verify(F, pair: LaxPair, twist: TwistRelations, space: JetSpace) -> VerifyReport:
    """PASS iff both residuals are exactly zero.

    Both residuals are reduced to normal form in one derivation; the
    jet-order bound only decides whether a jet may be formed at all
    (OrderOverflowError), never the value of a residual.
    """
    if twist.free_constants(space):
        raise InvalidTwistError("verify requires a twist without unknown constants")
    t0 = time.monotonic()
    relset = build_relations(pair, twist, space)
    sys, lin = full_system(F, relset, space)
    t1 = time.monotonic()
    compat = compatibility_residual(relset, sys)
    t2 = time.monotonic()
    symm = symmetry_residual(lin, sys)
    t3 = time.monotonic()
    timings = {"build": t1 - t0, "compatibility": t2 - t1, "symmetry": t3 - t2}
    return VerifyReport(not compat.terms and not symm.terms, twist.orientation,
                        compat, symm, sys.assumptions, timings)


# -- ansatz and determining system ------------------------------------


def default_ansatz(F, pair: LaxPair, space: JetSpace) -> dict:
    """Slot -> basis terms u_pq/d, with p, q over the variables occurring
    in F or the Lax coefficients and d over the first derivatives u_r
    found in Lax-coefficient denominators, read off their registered
    factors; u_pq alone when there are none."""
    coeffs = [c for op in pair.x1 + pair.x0 for c in op.coefficients()]
    used = set()
    for s in F.free_symbols.union(*(c.free_symbols for c in coeffs)):
        jv = space.jet_var(s)
        used.update(jv.index if jv is not None else {s} & set(space.variables))
    used_vars = [v for v in space.variables if v in used]
    ring = jet_ring(space)
    factors = {c.ring.factors[fid] for c in coeffs for fid in c.den}
    firsts = [ring.symbol(space.jet("u", (r,))) for r in space.variables]
    dens = [u_r.inverse() for u_r in firsts if u_r.terms[ONE] in factors] or [ring.constant(1)]
    terms = [ring.symbol(space.jet("u", (p, q))) * d
             for p, q in itertools.combinations_with_replacement(used_vars, 2)
             for d in dens]
    return {slot: list(terms) for slot in SLOTS}


@dataclass
class DeterminingSystem:
    """Equations for the ansatz constants (the unknowns): elements of the
    solver's ring, whose generators are the unknowns and whose domain is
    QQ or the field of the parameters and independent variables they
    hold; their common zeros give the twists of the ansatz that pass."""
    equations: list
    unknowns: list
    slot_terms: dict  # slot -> list of (constant, basis term)
    orientation: str


def ansatz_twist(basis: dict, orientation: str) -> tuple[TwistRelations, dict]:
    """Expand each slot over its basis terms (slot -> terms, Forms of one
    JetRing) with fresh unknown constants, generators of the twist's
    ring.

    Returns the twist and, per slot, the (constant, basis term) pairs."""
    slot_terms = {(i, s): [(f"c{i}{s}_{k}", term)
                           for k, term in enumerate(basis[(i, s)])] for (i, s) in SLOTS}
    every = [pair for pairs in slot_terms.values() for pair in pairs]
    if not every:
        raise ValueError("the ansatz has no basis terms")
    ring = jet_ring(every[0][1].ring.space, [c for c, _ in every])
    f = {slot: ring.combine([(ring.symbol(c), ring.embed(t)) for c, t in pairs])
         for slot, pairs in slot_terms.items()}
    return TwistRelations(f, orientation), slot_terms


def derive_determining_system(F, pair: LaxPair, basis: dict,
                              orientation: str, space: JetSpace) -> DeterminingSystem:
    """Residual coefficients over every monomial in the parametric jets
    (and the spectral parameter, if present) as equations for the ansatz
    constants."""
    twist, slot_terms = ansatz_twist(basis, orientation)
    equations = determining_equations_for_twist(F, pair, twist, space)
    unknowns = sorted({c for pairs in slot_terms.values() for c, _ in pairs})
    return DeterminingSystem(equations, unknowns, slot_terms, orientation)


def determining_equations_for_twist(F, pair: LaxPair, twist: TwistRelations,
                                    space: JetSpace) -> list:
    """Coefficient of every monomial in the parametric jets (and lam, if
    present) across both residuals, each once, in the solver's ring
    ``PolyRing(unknowns, K)``: the twist's constants sorted by name, over
    QQ or the field of the other generators in the residuals' numerators.
    Empty iff the twist satisfies both conditions; with an ansatz twist
    these are the determining equations for its constants."""
    from sympy import Symbol
    from sympy.polys.domains import QQ
    from sympy.polys.rings import PolyRing

    relset = build_relations(pair, twist, space)
    sys, lin = full_system(F, relset, space)
    residuals = (compatibility_residual(relset, sys), symmetry_residual(lin, sys))
    src = relset.relations[0].ring
    unknowns = sorted(twist.free_constants(space))
    present = set().union(*(itertools.compress(src.symbols, p.degrees())
                            for r in residuals for p in r.terms.values()))
    others = sorted(s for s in present - set(unknowns)
                    if s != LAMBDA and space.jet_var(s) is None)
    ring = PolyRing([Symbol(s) for s in unknowns],
                    QQ.frac_field(*map(Symbol, others)) if others else QQ)
    equations = [eq for r in residuals for eq in _coefficients(r, space, ring)]
    return list(dict.fromkeys(equations))


def _coefficients(form: Form, space: JetSpace, ring) -> list:
    """The coefficients of a residual's numerator as a polynomial in its
    jets and lam, in the order sympy's Poly over those generators (sorted
    by name) lists them: descending lex.  In one pass each monomial's jet
    and lam exponents pick its equation, its unknowns' exponents its
    monomial in ring, and the rest its coefficient in ring's domain.  The
    numerator is the one ``as_numer_denom`` gives: it carries the lcm of
    the denominators of the numerator's coefficients, and of the
    denominator's when that has several terms."""
    if not form.terms:
        return []
    from sympy.polys.domains import QQ

    src = form.ring
    jet = [s == LAMBDA or space.jet_var(s) is not None for s in src.symbols]
    scale = 1
    den = src.den_poly(form.den)
    for p in list(form.terms.values()) + ([den] if len(den) > 1 else []):
        for c in p.values():
            scale = math.lcm(scale, int(c.denominator))
    gens = sorted(s for s in form.free_symbols
                  if s not in src.index or jet[src.index[s]])
    where = [src.index.get(g) for g in gens]
    frac = ring.domain.field if ring.domain != QQ else None
    # src's symbol_order sorts by name, as ring's generators and frac's
    # are sorted: compress lists their exponents in ring's and frac's order
    unknowns, others = set(map(str, ring.symbols)), set(map(str, frac.symbols if frac else ()))
    unknown = [s in unknowns for s in src.symbols]
    other = [s in others for s in src.symbols]
    monomials: dict = {}  # one tuple for each monomial the equations share
    groups: dict = {}
    for key, p in form.terms.items():
        exps = [int(g == key) if i is None else 0 for g, i in zip(gens, where)]
        for m, c in p.items():
            for n, i in enumerate(where):
                if i is not None:
                    exps[n] = m[i]
            u = tuple(itertools.compress(m, unknown))
            group = groups.setdefault(tuple(exps), {}).setdefault(monomials.setdefault(u, u), {})
            group[tuple(itertools.compress(m, other))] = QQ(int(c * scale))
    one = frac.ring.one if frac else None  # integer coefficients over 1: in lowest terms
    ground = (lambda d: frac.dtype(frac.ring.dtype(d), one)) if frac else (lambda d: d[()])
    return [ring.dtype({m: ground(d) for m, d in groups[k].items()})
            for k in sorted(groups, reverse=True)]


@dataclass
class Solution:
    assignment: dict  # constant -> ground element of the solver's ring
    free: tuple = ()

    def twist_functions(self, ds: DeterminingSystem) -> dict:
        """Slot -> twist function, a Form of the basis terms' ring."""
        ring = next(t.ring for pairs in ds.slot_terms.values() for _, t in pairs)

        def value(v):
            """A ground element over QQ or QQ(others) as a Form."""
            if not v.ring.domain.is_FractionField:
                return ring.constant(v.LC)
            num, den = (ring.scalar(ring.lift(p, p.ring.symbols))
                        for p in (v.LC.numer, v.LC.denom))
            return num * den.inverse()

        return {slot: ring.combine([(value(self.assignment[c]), t) for c, t in pairs])
                for slot, pairs in ds.slot_terms.items()}


def solve_determining(ds: DeterminingSystem, branch_bound: int = 64) -> list[Solution]:
    """Exact solving: rounds of linear elimination, then bounded
    branching on factors of the remaining nonlinear equations.

    The equations are elements of the ring of the unknowns over QQ, or
    over the field of rational functions in the other symbols, and every
    step stays in that ring (``PolyRing(unknowns, QQ)`` when there are no
    equations).  A round hands every equation of total degree at most 1 in
    the unknowns to one ``solve_lin_sys`` call, which reduces them to
    their unique reduced row echelon form, and substitutes the values into
    the nonlinear equations and into every solved value, so no solved
    value holds a solved unknown; rounds repeat while an equation is
    linear.  A nonlinear equation is never pivoted on: the branch step
    takes the equation with the fewest terms in the unknowns, the first of
    those on a tie, and descends once into each of its irreducible factors
    in the ring (``factor_list``); content in the other symbols is a unit
    of the domain and is dropped.  Every branch that closes yields one
    Solution, each value a ground element of the ring; remaining
    unconstrained constants are reported free and set to zero.
    A branch is left unresolved when the branch bound is spent, or when
    an irreducible nonlinear equation remains, so that branching would
    only give it back; any unresolved branch raises PartialResultError
    carrying the solutions found.
    """
    from sympy.polys.domains import QQ
    from sympy.polys.rings import PolyRing
    from sympy.polys.solvers import solve_lin_sys

    unknowns = list(ds.unknowns)
    eqs = [e for e in ds.equations if e]
    ring = eqs[0].ring if eqs else PolyRing(unknowns, QQ)

    solutions, seen = [], set()
    unresolved = []
    budget = [branch_bound]

    def emit(solved: dict):
        free = tuple(c for c, g in zip(unknowns, ring.gens) if g not in solved)
        zero = [(g, ring.zero) for g in ring.gens if g not in solved]
        assignment = {c: solved[g].compose(zero) if g in solved else ring.zero
                      for c, g in zip(unknowns, ring.gens)}
        key = tuple(assignment.values())
        if key not in seen:
            seen.add(key)
            solutions.append(Solution(assignment, free))

    def descend(eqs: list, solved: dict):
        while linear := [e for e in eqs if e.is_linear]:
            values = solve_lin_sys(linear, ring)
            if values is None:
                return  # inconsistent
            compose = [(g, ring(v)) for g, v in values.items()]
            solved = {g: v.compose(compose) for g, v in solved.items()} | dict(compose)
            eqs = [x for x in (e.compose(compose) for e in eqs if not e.is_linear) if x]
        if not eqs:
            emit(solved)
            return
        eq = min(eqs, key=len)
        # a factor free of the unknowns is a unit of the domain: not listed
        factors = eq.factor_list()[1]
        if len(factors) == 1 and factors[0][1] == 1:
            unresolved.append(eqs)  # branching would give eq back
            return
        rest = [x for x in eqs if x != eq]
        for f, _m in factors:
            if budget[0] <= 0:
                unresolved.append(eqs)
                return
            budget[0] -= 1
            descend([f] + rest, dict(solved))

    descend(eqs, {})
    if unresolved:
        raise PartialResultError(
            f"{len(unresolved)} unresolved branch(es): the branch bound was "
            "spent, or an irreducible nonlinear equation remained",
            solutions, unresolved)
    return solutions
