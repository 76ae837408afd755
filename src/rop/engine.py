"""Twisted recursion relations: building, residuals, determining system, solving.

The recursion relations couple a seed symmetry U to its image Ut through
the split Lax operators, corrected by four zeroth-order twist functions
f_i^s.  Two requirements make the relations a recursion operator:

  a) the pair of relations, read as a system for Ut, is cross-derivative
     compatible whenever U satisfies the linearized equation;
  b) Ut then satisfies the linearized equation itself.

Both are computed as exact residuals reduced modulo the equation, the
linearized equation, the relations, and differential consequences of all
three, by ``verify`` alone.  With the twist functions expanded over an
ansatz with unknown constants, the vanishing of every coefficient of its
residuals yields the determining system, solved exactly by rounds of
elimination of all its linear equations at once, then bounded branching
on the factors of a nonlinear one.  Each subcommand is one call here:
``verify_each`` and ``solve`` take every orientation asked for, keep a
degenerate one's DegeneratePairError as its result, and ``solve``
verifies each solution's twist again.

From the relations to the residuals everything is a ``kernel.Form`` of one
JetRing per computation, whose generators include the twist's unknown
constants.  F, the Lax operators and the twist come as Forms of one
JetRing (an ansatz twist: of that ring with its constants), whose space
is the computation's, and ``FormRing.embed`` moves them into its ring,
which extends theirs (a Form of another space is a ValueError); the
orientation is an argument beside the twist, and the VerifyReport
carries Forms and the RelationSet.  The determining equations are made
in one pass that splits each monomial of the residuals' numerators into
its equation and its monomial there: an equation is a scalar Form of the derivation's
JetRing, in the unknowns and the parameters and independent variables
the equations hold.  The solver stays in
that ring, with the kernel's operations on Forms: ``FormRing.split`` to
solve for a pivot, ``FormRing.substitution`` to put in the solved
values (the one ``RewriteSystem`` also reduces with), and the kernel's
factoring for the branch step.  A closed branch's values are affine in
its free constants, which ``Solution.twist_functions`` keeps as
generators of the system's ring, so a family is verified as a family,
in that ring.  sympy is imported only by the kernel, to factor an
equation that has no generator of degree 1.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import NamedTuple

from .jets import (RewriteRule, RewriteSystem, jet_ring, solve_for_leading,
                   total_derivative)
from .kernel import (ONE, Form, FormRing, Poly, _irreducible_factors, degree_in, exponents,
                     field_mask)
from .lax import LAMBDA, DegeneratePairError, LaxPair
from .linearize import LinearDifferentialOperator, linearize

ORIENTATIONS = ("forward", "swapped")
SLOTS = ((1, 0), (1, 1), (2, 0), (2, 1))


class InvalidTwistError(ValueError):
    """Twist functions must be free of the spectral parameter and of
    U/Ut jets."""


class PartialResultError(RuntimeError):
    """Some branches were left unresolved; carries the solutions found
    and the equations of each unresolved branch, scalar Forms of the
    system's ring."""

    def __init__(self, msg, solutions, unresolved):
        super().__init__(msg)
        self.solutions = solutions
        self.unresolved = unresolved


class TwistRelations:
    """The four twist functions f_i^s, slot (i, s) -> a Form of a
    JetRing."""

    def __init__(self, f: dict):
        for slot in SLOTS:
            if slot not in f:
                raise InvalidTwistError(f"missing twist slot f{slot[0]}_{slot[1]}")
        self.f = f

    def validate(self) -> None:
        for slot, e in self.f.items():
            check_twist_function(slot, e)

    def free_constants(self) -> set:
        """The extra generators of the twist functions' JetRings: the
        unknown constants of an ansatz, also one whose basis term is
        zero; of a solution's twist, every constant of its ansatz, solved
        or free."""
        return set().union(*(f.ring.extra for f in self.f.values()))


def check_twist_function(slot: tuple[int, int], f: Form) -> None:
    """The twist function of a slot must be free of the spectral parameter
    and of U/Ut jets (the keys of a Form)."""
    i, s = slot
    if LAMBDA in f.free_symbols:
        raise InvalidTwistError(f"f{i}_{s} depends on the spectral parameter")
    for key in f.terms:
        if key is not ONE:
            raise InvalidTwistError(f"f{i}_{s} depends on {key}")


class RelationSet(NamedTuple):
    """The two relations moved to one side, plus their solved forms, each
    rule with its leading Ut-coefficient as its lead; all Forms of one
    JetRing."""
    relations: tuple[Form, Form]
    rules: tuple[RewriteRule, RewriteRule]
    directions: tuple[str, str]


def build_relations(pair: LaxPair, twist: TwistRelations,
                    orientation: str) -> RelationSet:
    """Form E_i = (Ut-side operator)(Ut) + f_i^1 Ut - f_i^0 U - (U-side
    operator)(U) and solve each for its leading Ut-jet:

      forward:  X1_i(Ut) + f_i^1 Ut = f_i^0 U + X0_i(U)
      swapped:  the roles of (X1, X0) exchanged between Ut and U.

    The JetRing of the computation is that of the pair's space, with the
    twist's unknown constants as generators."""
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    twist.validate()
    space = pair.x1[0].ring.space
    ring = jet_ring(space, twist.free_constants())
    one = ring.constant(1)
    ut_ops, u_ops = (pair.x1, pair.x0) if orientation == "forward" else (pair.x0, pair.x1)
    relations, rules, dirs = [], [], []
    for i in (0, 1):
        e = ring.combine([(one, ring.embed(ut_ops[i].apply_to_unknown("Ut"))),
                          (ring.embed(twist.f[(i + 1, 1)]), ring.symbol(space.jet("Ut"))),
                          (-ring.embed(twist.f[(i + 1, 0)]), ring.symbol(space.jet("U"))),
                          (-one, ring.embed(u_ops[i].apply_to_unknown("U")))])
        rule = solve_for_leading(e, "Ut")
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
    return RelationSet(tuple(relations), tuple(rules), tuple(dirs))


def full_system(F, relset: RelationSet) -> tuple[RewriteSystem, LinearDifferentialOperator]:
    """One rewrite system of F = 0 solved for u, the linearized equation
    solved for U and the recursion relations solved for Ut, in the
    JetRing of the relations; and the linearization of F in that ring.
    Every rule goes in as it was solved, and reduction reduces each
    right-hand side where it uses it; the lead of the U rule is the
    coefficient of F's leading jet, which holds no reducible jet.  The
    system's assumptions are the factors of the leading coefficients of
    F, of its linearization and of the relations."""
    F = relset.relations[0].ring.embed(F)
    lin = linearize(F)
    rules = [solve_for_leading(F, "u"), solve_for_leading(lin.apply_to("U"), "U"),
             *relset.rules]
    return RewriteSystem(rules), lin


def compatibility_residual(relset: RelationSet, sys: RewriteSystem) -> Form:
    """Condition a): the cross-derivative of the two solved relations,
    reduced in their full system; zero means the system for Ut is
    compatible whenever U is a symmetry."""
    (r1, r2), (d1, d2) = relset.rules, relset.directions
    return sys.reduce(total_derivative(r1.rhs, d2) - total_derivative(r2.rhs, d1))


def symmetry_residual(lin: LinearDifferentialOperator, sys: RewriteSystem) -> Form:
    """Condition b): the linearized equation applied to Ut, reduced in the
    full system; zero means Ut is a symmetry whenever U is."""
    return sys.reduce(lin.apply_to("Ut"))


class VerifyReport(NamedTuple):
    """The verdict, with both residuals and the assumptions as Forms, the
    relations it was reached with, and the time of each phase."""
    passed: bool
    compatibility: Form
    symmetry: Form
    assumptions: tuple[Form, ...]
    relations: RelationSet
    timings: dict


def verify(F, pair: LaxPair, twist: TwistRelations, orientation: str) -> VerifyReport:
    """PASS iff both residuals of the twist's relations in the
    orientation are exactly zero.

    Both residuals are reduced to normal form in one derivation; the
    jet-order bound only decides whether a jet may be formed at all
    (OrderOverflowError), never the value of a residual.  The unknown
    constants of an ansatz twist are generators of the computation's
    ring, so a zero residual is zero for every value of them.
    """
    t0 = time.monotonic()
    relset = build_relations(pair, twist, orientation)
    sys, lin = full_system(F, relset)
    t1 = time.monotonic()
    compat = compatibility_residual(relset, sys)
    t2 = time.monotonic()
    symm = symmetry_residual(lin, sys)
    t3 = time.monotonic()
    timings = {"build": t1 - t0, "compatibility": t2 - t1, "symmetry": t3 - t2}
    return VerifyReport(not compat.terms and not symm.terms, compat, symm,
                        sys.assumptions, relset, timings)


def verify_each(F, pair: LaxPair, twist: TwistRelations, orientations) -> dict:
    """``verify`` of the twist in each orientation, by ``_each_orientation``."""
    return _each_orientation(lambda o: verify(F, pair, twist, o), orientations)


def _each_orientation(step, orientations) -> dict:
    """Orientation -> step(orientation), or the DegeneratePairError it
    raised; raises the first one when every orientation raised one."""
    results = {}
    for orientation in orientations:
        try:
            results[orientation] = step(orientation)
        except DegeneratePairError as exc:
            results[orientation] = exc
    if results and all(isinstance(r, DegeneratePairError) for r in results.values()):
        raise next(iter(results.values()))
    return results


# -- ansatz and determining system ------------------------------------


def default_ansatz(F, pair: LaxPair) -> dict:
    """Slot -> basis terms u_pq/d, Forms of the JetRing of the pair's
    space, with p, q over the variables occurring in F or the Lax
    coefficients and d over the first derivatives u_r found in
    Lax-coefficient denominators, read off their registered factors;
    u_pq alone when there are none."""
    space = pair.x1[0].ring.space
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


class DeterminingSystem(NamedTuple):
    """Equations for the ansatz constants (the unknowns): scalar Forms of
    ``ring``, the JetRing of the derivation, whose generators include
    the unknowns.  Their common zeros give the twists of the ansatz that
    pass."""
    equations: list
    unknowns: list
    slot_terms: dict  # slot -> list of (constant, basis term)
    ring: FormRing


def ansatz_twist(basis: dict) -> tuple[TwistRelations, dict]:
    """Expand each slot over its basis terms (slot -> terms, Forms of one
    JetRing) with fresh unknown constants, the extra generators of the
    twist's ring; ValueError names a constant that is a generator of the
    terms' ring, such as a parameter, and so no unknown.

    Returns the twist and, per slot, the (constant, basis term) pairs."""
    slot_terms = {(i, s): [(f"c{i}{s}_{k}", term)
                           for k, term in enumerate(basis[(i, s)])] for (i, s) in SLOTS}
    every = [pair for pairs in slot_terms.values() for pair in pairs]
    if not every:
        raise ValueError("the ansatz has no basis terms")
    base = every[0][1].ring
    clash = next((c for c, _ in every if c in base.index), None)
    if clash is not None:
        raise ValueError(f"the ansatz constant {clash} is a symbol of the problem; rename it")
    ring = jet_ring(base.space, [c for c, _ in every])
    f = {slot: ring.combine([(ring.symbol(c), ring.embed(t)) for c, t in pairs])
         for slot, pairs in slot_terms.items()}
    return TwistRelations(f), slot_terms


def derive_determining_system(F, pair: LaxPair, basis: dict,
                              orientation: str) -> DeterminingSystem:
    """Residual coefficients over every monomial in the parametric jets
    (and the spectral parameter, if present) as equations for the ansatz
    constants."""
    twist, slot_terms = ansatz_twist(basis)
    equations = determining_equations_for_twist(F, pair, twist, orientation)
    unknowns = sorted({c for pairs in slot_terms.values() for c, _ in pairs})
    return DeterminingSystem(equations, unknowns, slot_terms, twist.f[SLOTS[0]].ring)


def determining_equations_for_twist(F, pair: LaxPair, twist: TwistRelations,
                                    orientation: str) -> list:
    """Coefficient of every monomial in the parametric jets (and lam, if
    present) across both residuals, each once: scalar Forms of the
    residuals' ring, the JetRing of the derivation, in the twist's
    constants, the parameters and the independent variables.  Empty iff
    the twist satisfies both conditions; with an ansatz twist these are
    the determining equations for its constants: the coefficients of
    ``verify``'s residuals."""
    rep = verify(F, pair, twist, orientation)
    return list(dict.fromkeys(_coefficients((rep.compatibility, rep.symmetry))))


def _coefficients(residuals) -> list:
    """The coefficients of each residual's numerator as a polynomial in
    its jets and lam, in the order sympy's Poly over those generators
    (sorted by name) lists them: descending lex.  In one pass each
    monomial's jet and lam exponents pick its coefficient, and its other
    fields (of the unknowns, the parameters and the independent
    variables), with the degree field rebuilt as their sum, its monomial
    there: the coefficients are scalar Forms of the residuals' ring.
    The numerator is the one ``as_numer_denom`` gives: it carries the lcm
    of the denominators of the numerator's coefficients, and of the
    denominator's when that has several terms."""
    residuals = [r for r in residuals if r.terms]
    if not residuals:
        return []
    src = residuals[0].ring
    jet = [s == LAMBDA or src.space.jet_var(s) is not None for s in src.symbols]
    jets = field_mask(i for i, j in enumerate(jet) if j)
    others = field_mask(i for i, j in enumerate(jet) if not j)
    groups = []
    for form in residuals:
        scale = 1
        den = src.den_poly(form.den)
        for p in list(form.terms.values()) + ([den] if len(den) > 1 else []):
            for c in p.values():
                scale = math.lcm(scale, c.denominator)
        gens = sorted(s for s in form.free_symbols
                      if s not in src.index or jet[src.index[s]])
        where = {src.index[g]: n for n, g in enumerate(gens) if g in src.index}
        out: dict = {}
        for key, p in form.terms.items():
            base = [int(g == key) for g in gens]
            rows: dict = {}  # jet fields -> exponents over gens
            for m, c in p.items():
                j = m & jets
                exps = rows.get(j)
                if exps is None:
                    exps = list(base)
                    for i, e in exponents(j):
                        exps[where[i]] = e
                    exps = rows[j] = tuple(exps)
                r = m & others
                out.setdefault(exps, {})[r + degree_in(r, others)] = int(c * scale)
        groups += [out[k] for k in sorted(out, reverse=True)]
    return [src.scalar(Poly(g)) for g in groups]


class Solution(NamedTuple):
    assignment: dict  # constant -> value: a scalar Form of the system's ring
    free: tuple = ()

    def twist_functions(self, ds: DeterminingSystem) -> dict:
        """Slot -> twist function, a Form of the system's ring: the sum
        of the values times the basis terms, in which the free constants
        stay generators."""
        ring = ds.ring
        return {slot: ring.combine([(self.assignment[c], ring.embed(t)) for c, t in pairs])
                for slot, pairs in ds.slot_terms.items()}


def solve_determining(ds: DeterminingSystem, branch_bound: int = 64) -> list[Solution]:
    """Exact solving: rounds of linear elimination, then bounded
    branching on factors of the remaining nonlinear equations.

    The equations are scalar Forms of the system's ring (of a derived
    system, the derivation's JetRing), and every step stays in that
    ring; no denominator holds an unknown.  A round brings
    every equation of total degree at most 1 in the unknowns to its
    unique reduced row echelon form (``_row_reduce``, columns in the
    unknowns' order), and puts the values into the nonlinear equations
    and into every solved value with one ``FormRing.substitution``, so no
    solved value holds a solved unknown; rounds repeat while an equation
    is linear.  A nonlinear equation is never pivoted on: the branch step
    takes the equation with the fewest terms in the unknowns, the first
    of those on a tie, and descends once into each of its irreducible
    factors that hold unknowns, in the order the kernel finds them
    (``_branch_factors``).  Every branch that closes yields one Solution,
    each value a scalar Form affine in the constants left free, which
    are reported free and are their own values; two branches give one
    Solution only when their values and their free constants agree, and
    a Solution that is a member of another with more free constants is
    dropped.  A branch is left unresolved when the branch bound is spent,
    or when an irreducible nonlinear equation remains, so that branching
    would only give it back; any unresolved branch raises
    PartialResultError carrying the solutions found.
    """
    ring = ds.ring
    gens = {ring.index[str(c)]: c for c in ds.unknowns}
    mask = field_mask(gens)

    solutions, seen = [], set()
    unresolved = []
    budget = [branch_bound]

    def emit(solved: dict):
        free = tuple(c for i, c in gens.items() if i not in solved)
        assignment = {c: solved[i] if i in solved else ring.scalar(ring.gen(i))
                      for i, c in gens.items()}
        key = (tuple(assignment.values()), free)
        if key not in seen:
            seen.add(key)
            solutions.append(Solution(assignment, free))

    def descend(eqs: list, solved: dict):
        while True:
            parts = ([], [])  # nonlinear, linear
            for e in eqs:
                parts[all(degree_in(m, mask) <= 1 for m in e.terms[ONE])].append(e)
            nonlinear, linear = parts
            if not linear:
                break
            values = _row_reduce(linear, mask)
            if values is None:
                return  # inconsistent
            substitute = ring.substitution(values, values.__getitem__)
            solved = {i: substitute(v) for i, v in solved.items()} | values
            eqs = [x for x in map(substitute, nonlinear) if x]
        if not eqs:
            emit(solved)
            return
        eq = min(eqs, key=lambda e: len({m & mask for m in e.terms[ONE]}))
        factors = _branch_factors(eq, mask)
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

    def member(s: Solution, t: Solution) -> bool:
        """s's values are t's with s's values put for t's free constants."""
        put = ring.substitution((i for i, c in gens.items() if c in t.free),
                                lambda i: s.assignment[gens[i]])
        return all(put(t.assignment[c]) == v for c, v in s.assignment.items())

    descend([e for e in ds.equations if e], {})
    solutions = [s for s in solutions
                 if not any(len(t.free) > len(s.free) and member(s, t) for t in solutions)]
    if unresolved:
        raise PartialResultError(
            f"{len(unresolved)} unresolved branch(es): the branch bound was "
            "spent, or an irreducible nonlinear equation remained",
            solutions, unresolved)
    return solutions


def solve(F, pair: LaxPair, basis: dict, orientations, branch_bound: int) -> dict:
    """Orientation -> (the DeterminingSystem of the ansatz basis in it, each
    solution as (Solution, its twist functions by slot, their VerifyReport),
    the message of a partial result or None), by ``_each_orientation``."""
    def step(orientation):
        ds = derive_determining_system(F, pair, basis, orientation)
        try:
            sols, partial = solve_determining(ds, branch_bound), None
        except PartialResultError as exc:
            sols, partial = exc.solutions, str(exc)
        twists = [(sol, sol.twist_functions(ds)) for sol in sols]
        return ds, [(sol, fs, verify(F, pair, TwistRelations(fs), orientation))
                    for sol, fs in twists], partial

    return _each_orientation(step, orientations)


def _row_reduce(eqs: list, mask: int) -> dict | None:
    """The reduced row echelon form of equations of total degree at most
    1 in the unknowns (the generators whose fields mask covers), columns
    in the ring's order: {pivot's generator index: its value}, each
    value a scalar Form affine in the unknowns left free; None if the
    equations are inconsistent.  Each equation is reduced by the values
    found before it, takes its first unknown left as its pivot, solved
    for with ``FormRing.split``, and that pivot is put into the values
    before it, whose own pivots therefore stay their first unknowns.
    The form is unique, so the values do not depend on the equations'
    order."""
    ring = eqs[0].ring
    values: dict = {}
    reduce = ring.substitution((), values.__getitem__)
    for eq in eqs:
        e = reduce(eq)
        present = e.numerator_support() & mask
        if not present:
            if e:
                return None  # a nonzero constant
            continue
        pivot = exponents(present)[0][0]
        a, b = ring.split(e, pivot)
        value = -b * a.inverse()
        put = ring.substitution((pivot,), lambda _i: value)
        field = field_mask((pivot,))
        values = {i: put(v) if any(m & field for p in v.terms.values() for m in p) else v
                  for i, v in values.items()}
        values[pivot] = value
        reduce = ring.substitution(values, values.__getitem__)
    return values


def _branch_factors(eq: Form, mask: int) -> list:
    """The (factor, multiplicity) pairs of a nonlinear equation's
    numerator that hold an unknown (a generator whose field mask
    covers), as scalar Forms, in the order ``kernel._irreducible_factors``
    finds them; the factors free of the unknowns are units of the field
    of the others."""
    return [(eq.ring.scalar(g), k) for g, k in _irreducible_factors(eq.terms[ONE])
            if any(m & mask for m in g)]
