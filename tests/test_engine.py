import itertools
import random
import re
from collections import Counter

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyRing

from rop import engine, kernel
from rop import jets as jets_module
from rop.engine import (ORIENTATIONS, SLOTS, DeterminingSystem,
                        InvalidTwistError, PartialResultError, Solution,
                        TwistRelations, build_relations, default_ansatz,
                        determining_equations_for_twist, full_system,
                        solve_determining, verify)
from rop.lax import LAMBDA, DegeneratePairError, check_lax, equation_system
from rop.linearize import linearize
from rop.problem import parse_problem

from conftest import (PROBLEM_DIR, evaluate, jet_symbols, jets_in, random_poly, to_form,
                      zero_twist)
from pointwise import equal, is_zero, normalize, reference_total_derivative


def _orientation(problem):
    return problem.orientation or "forward"


@pytest.fixture(scope="module")
def problems(dfkn2, dfkn3):
    return {"dfkn2": dfkn2, "dfkn3": dfkn3}


class TestTwistRelations:
    def test_missing_slot_rejected(self):
        with pytest.raises(InvalidTwistError):
            TwistRelations({(1, 0): sp.S.Zero})

    def test_bad_orientation_rejected(self, dfkn2):
        with pytest.raises(ValueError):
            build_relations(dfkn2.lax, zero_twist(dfkn2.space), "sideways")

    def test_validate_rejects_spectral_parameter(self, space):
        t = TwistRelations({**zero_twist(space).f, (1, 0): to_form(sp.Symbol(LAMBDA), space)})
        with pytest.raises(InvalidTwistError):
            t.validate()

    def test_validate_rejects_capital_jets(self, space):
        t = TwistRelations({**zero_twist(space).f,
                            (2, 1): to_form(jet_symbols(space)("U", "x"), space)})
        with pytest.raises(InvalidTwistError):
            t.validate()


class TestBuildRelations:
    def test_second_example_forward(self, dfkn2):
        s = dfkn2.space
        j = jet_symbols(s)
        relset = build_relations(dfkn2.lax, dfkn2.twist, _orientation(dfkn2))
        assert {relset.rules[0].lhs, relset.rules[1].lhs} == \
            {s.jet("Ut", ("z",)), s.jet("Ut", ("x",))}
        assert set(relset.directions) == {"z", "x"}
        # first relation: Ut_z - (u_zx/u_x) Ut = U_t - (u_t/u_x) U_x
        idx = relset.directions.index("z")
        e = relset.relations[idx]
        expected = (j("Ut", ("z",)) - (j("u", ("z", "x")) / j("u", "x")) * j("Ut")
                    - j("U", ("t",)) + (j("u", ("t",)) / j("u", "x")) * j("U", ("x",)))
        assert normalize(e - expected) == 0 or normalize(e + expected) == 0

    def test_relations_reduce_to_zero_in_full_system(self, dfkn2):
        s = dfkn2.space
        relset = build_relations(dfkn2.lax, dfkn2.twist, _orientation(dfkn2))
        sys, _ = full_system(dfkn2.F, relset)
        for e in relset.relations:
            assert sys.reduce(e) == 0

    def test_distinct_leading_jets_required(self, dfkn2):
        # degenerate "pair" built from the same operator twice
        from rop.lax import LaxPair
        p = dfkn2.lax
        bad = LaxPair((p.x1[0], p.x1[0]), (p.x0[0], p.x0[0]))
        with pytest.raises(Exception):
            build_relations(bad, zero_twist(dfkn2.space), "forward")


class TestVerify:
    def test_examples_pass(self, eq5, dfkn2, dfkn3, pavlov):
        for prob in (eq5, dfkn2, dfkn3, pavlov):
            rep = verify(prob.F, prob.lax, prob.twist, _orientation(prob))
            assert rep.passed, (prob.name, rep.compatibility, rep.symmetry)
            assert rep.compatibility == 0 and rep.symmetry == 0

    def test_zero_twist_fails_second_example(self, dfkn2):
        s = dfkn2.space
        j = jet_symbols(s)
        rep = verify(dfkn2.F, dfkn2.lax, zero_twist(s), "forward")
        assert not rep.passed
        expected = ((j("U", "t") * j("u", "x") * j("u", "xx")
                     - j("U", "x") * j("u", "t") * j("u", "xx")
                     + j("U", "x") * j("u", "y") * j("u", ("z", "x"))
                     - j("U", "y") * j("u", "x") * j("u", ("z", "x")))
                    / j("u", "x") ** 2)
        assert normalize(rep.compatibility - expected) == 0 or \
            normalize(rep.compatibility + expected) == 0

    def test_sign_flipped_twist_fails(self, dfkn2):
        s = dfkn2.space
        f = dict(dfkn2.twist.f)
        f[(1, 1)] = to_form(-f[(1, 1)], s)
        rep = verify(dfkn2.F, dfkn2.lax, TwistRelations(f), "forward")
        assert not rep.passed

    def test_ansatz_twist_fails_with_its_determining_equations(self, dfkn2):
        # the constants are generators of the residuals' ring; the
        # determining equations are the coefficients of these residuals
        s = dfkn2.space
        basis = default_ansatz(dfkn2.F, dfkn2.lax)
        twist, _ = engine.ansatz_twist(basis)
        rep = verify(dfkn2.F, dfkn2.lax, twist, "forward")
        assert not rep.passed
        assert set(twist.free_constants()) <= set(rep.compatibility.ring.symbols)
        want = engine._coefficients((rep.compatibility, rep.symmetry),
                                    twist.free_constants())
        assert want
        assert determining_equations_for_twist(dfkn2.F, dfkn2.lax, twist, "forward") == \
            list(dict.fromkeys(want))

    def test_paper_twist_with_a_constant_passes(self, dfkn2):
        s = dfkn2.space
        ring = jets_module.jet_ring(s, ["c"])
        twist = TwistRelations({slot: ring.embed(f) for slot, f in dfkn2.twist.f.items()})
        assert twist.free_constants() == {"c"}
        rep = verify(dfkn2.F, dfkn2.lax, twist, "forward")
        assert rep.passed and rep.compatibility.ring is ring


class TestDeterminingSystem:
    def test_correct_twist_has_no_determining_equations(self, dfkn2):
        eqs = determining_equations_for_twist(dfkn2.F, dfkn2.lax,
                                              dfkn2.twist, _orientation(dfkn2))
        assert eqs == []

    def test_zero_twist_produces_equations(self, dfkn2):
        eqs = determining_equations_for_twist(dfkn2.F, dfkn2.lax,
                                              zero_twist(dfkn2.space),
                                              "forward")
        assert eqs

    def test_explicit_variables_are_the_domain(self, dfkn2):
        # x and t in the basis terms are no unknowns: the equations are
        # over QQ(t, x), and their solution is the paper's twist
        prob = parse_problem((PROBLEM_DIR / "dfkn2.rop").read_text()
                             + "ansatz f1_1 = x*u_xz/u_x, u_xz/u_x\n"
                             + "ansatz f2_1 = u_xx/u_x, t*u_xx/u_x\n")
        basis = {**default_ansatz(prob.F, prob.lax), **prob.ansatz}
        ds = engine.derive_determining_system(prob.F, prob.lax, basis, "forward")
        assert tuple(s for s in ds.ring.symbols if s not in ds.unknowns) == ("t", "x")
        assert all(e.ring is ds.ring for e in ds.equations)
        [sol] = solve_determining(ds)
        fs = sol.twist_functions(ds)
        assert verify(prob.F, prob.lax, TwistRelations(fs), "forward").passed
        assert all(equal(fs[slot].as_expr(), f.as_expr()) for slot, f in dfkn2.twist.f.items())

    def test_derivation_leaves_jet_space_unchanged(self, dfkn2):
        s = dfkn2.space
        j = jet_symbols(s)
        before = {k: v for k, v in vars(s).items() if not k.startswith("_")}
        basis = {(1, 0): [], (1, 1): [to_form(j("u", "xz") / j("u", "x"), s)],
                 (2, 0): [], (2, 1): [to_form(j("u", "xx") / j("u", "x"), s)]}
        ds = engine.derive_determining_system(dfkn2.F, dfkn2.lax, basis, "forward")
        assert [str(c) for c in ds.unknowns] == ["c11_0", "c21_0"]
        assert {k: v for k, v in vars(s).items() if not k.startswith("_")} == before

    def test_default_ansatz_second_example(self, dfkn2):
        s = dfkn2.space
        basis = default_ansatz(dfkn2.F, dfkn2.lax)
        assert sum(len(v) for v in basis.values()) == 40  # 10 ratios u_pq/u_x per slot
        terms = basis[(1, 1)]
        j = jet_symbols(s)
        assert any(equal(t, j("u", ("z", "x")) / j("u", "x")) for t in terms)
        assert any(equal(t, j("u", ("x", "x")) / j("u", "x")) for t in terms)

    def test_default_ansatz_without_denominators(self, pavlov):
        # no Lax coefficient has a denominator: the terms are the u_pq
        j = jet_symbols(pavlov.space)
        basis = default_ansatz(pavlov.F, pavlov.lax)
        assert {slot: [t.as_expr() for t in terms] for slot, terms in basis.items()} == \
            {slot: [j("u", pq) for pq in ("tt", "ty", "tx", "yy", "yx", "xx")] for slot in SLOTS}


def _synthetic(eqs, names):
    """The expression equations as the solver's equations: scalar Forms
    of the shared ring of the unknowns and the equations' other
    symbols."""
    eqs = [sp.sympify(e) for e in eqs]
    others = set().union(*(e.free_symbols for e in eqs))
    ring = engine._coefficient_ring({*names, *(s.name for s in others)})
    return DeterminingSystem([evaluate(e, ring) for e in eqs],
                             [sp.Symbol(n) for n in names], {slot: [] for slot in SLOTS})


def _expr(eq, unknowns):
    """An equation of the solver as an expression."""
    return eq.as_expr()


def _values(sol):
    """A solution's values, scalar Forms, as expressions."""
    return {c: v.as_expr() for c, v in sol.assignment.items()}


class TestSolveDetermining:
    def test_linear_elimination(self):
        c1, c2, c3 = sp.symbols("c1 c2 c3")
        ds = _synthetic([c1 - 2, c1 + c2], ["c1", "c2", "c3"])
        sols = solve_determining(ds)
        assert len(sols) == 1
        sol = sols[0]
        assert sol.assignment[c1] == 2
        assert sol.assignment[c2] == -2
        assert _values(sol)[c3] == c3 and c3 in sol.free  # a free constant is its own value

    def test_quadratic_branches(self):
        c1 = sp.Symbol("c1")
        ds = _synthetic([c1 * (c1 - 1)], ["c1"])
        sols = solve_determining(ds)
        assert len(sols) == 2 and {s.assignment[c1] for s in sols} == {0, 1}

    def test_power_of_one_factor_branches(self):
        # c0 = 1 - c1 leaves -alpha*(c1 - 1)^3: the content -alpha is
        # dropped and the cube is branched on once, not left unresolved
        c0, c1 = sp.symbols("c0 c1")
        alpha = sp.Symbol("alpha")
        ds = _synthetic([alpha * c0**2 * (c1 - 1), c0 + c1 - 1], ["c0", "c1"])
        [sol] = solve_determining(ds)
        assert sol.assignment == {c0: 0, c1: 1} and sol.free == ()

    def test_inconsistent_system_has_no_solutions(self):
        c1 = sp.Symbol("c1")
        ds = _synthetic([c1, c1 - 1], ["c1"])
        assert solve_determining(ds) == []

    def test_branch_bound(self):
        c1, c2 = sp.symbols("c1 c2")
        ds = _synthetic([c1 * (c1 - 1), c2 * (c2 - 1) * (c2 - 2)], ["c1", "c2"])
        with pytest.raises(PartialResultError):
            solve_determining(ds, branch_bound=1)
        sols = solve_determining(ds, branch_bound=64)
        assert len(sols) == 6

    def test_irreducible_equation_without_pivot_is_unresolved(self):
        # branching on c0^2 + c1^2 + 1 would give it back: it is left
        # unresolved at once, so the c2 = 1 branch is still reached
        c0, c1, c2 = sp.symbols("c0 c1 c2")
        ds = _synthetic([sp.expand(c2 * (c2 - 1)),
                         sp.expand(c0 * c2 + (c2 - 1) * (c0**2 + c1**2 + 1))],
                        ["c0", "c1", "c2"])
        with pytest.raises(PartialResultError) as exc:
            solve_determining(ds, branch_bound=1000)
        assert [_values(s) for s in exc.value.solutions] == [{c0: 0, c1: c1, c2: 1}]
        assert len(exc.value.unresolved) == 1

    def test_parameter_coefficient(self):
        c1, c2 = sp.symbols("c1 c2")
        alpha = sp.Symbol("alpha")
        ds = _synthetic([(alpha + 1) * c1 - alpha, c1 + c2], ["c1", "c2"])
        sols = solve_determining(ds)
        assert len(sols) == 1
        assert _values(sols[0]) == {c1: alpha / (alpha + 1), c2: -alpha / (alpha + 1)}
        assert sols[0].free == ()

    def test_branch_on_equation_with_parameter_denominator(self):
        # no equation is linear: the branch on c0*c1 gives c0 = 0, where
        # c1^2 = 1, and c1 = 0, where c0 = -1/alpha
        c0, c1 = sp.symbols("c0 c1")
        alpha = sp.Symbol("alpha")
        ds = _synthetic([alpha * c0 - c1**2 + 1, c0 * c1], ["c0", "c1"])
        sols = solve_determining(ds)
        assert sorted((_values(s)[c1], _values(s)[c0]) for s in sols) == \
            [(-1, 0), (0, -1 / alpha), (1, 0)]
        # c0 = c1/alpha leaves (c1^2 - c1)/alpha, whose numerator branches
        ds = _synthetic([alpha * c0 - c1, c0 * c1 - c0], ["c0", "c1"])
        sols = solve_determining(ds)
        assert sorted((_values(s)[c1], _values(s)[c0]) for s in sols) == \
            [(0, 0), (1, 1 / alpha)]

    def test_nonlinear_equation_is_never_pivoted_on(self):
        # c0 = -c1*c2 is no linear family: c0 = 0 with c1 = c2 = 1 fails
        c0, c1, c2 = sp.symbols("c0 c1 c2")
        ds = _synthetic([c0 + c1 * c2], ["c0", "c1", "c2"])
        with pytest.raises(PartialResultError) as exc:
            solve_determining(ds)
        assert exc.value.solutions == [] and len(exc.value.unresolved) == 1

    def test_linear_family_names_its_free_constant(self):
        # c1 = 1 makes c0 + c2 linear, so c2 is genuinely free
        c0, c1, c2 = sp.symbols("c0 c1 c2")
        ds = _synthetic([c0 + c1 * c2, c1 - 1], ["c0", "c1", "c2"])
        [sol] = solve_determining(ds)
        assert _values(sol) == {c0: -c2, c1: 1, c2: c2}
        assert sol.free == (c2,)

    def test_families_sharing_their_zero_member_are_kept(self):
        # c0 = 0 and c1 = 0 are two families with the same zero member
        c0, c1 = sp.symbols("c0 c1")
        ds = _synthetic([c0 * c1], ["c0", "c1"])
        assert {(tuple(_values(s).values()), s.free) for s in solve_determining(ds)} \
            == {((0, c1), (c1,)), ((c0, 0), (c0,))}
        # the family c0 = 0 with c1 free, and the point (1, 0); the point
        # (0, 0) of the branch c1 = 0 is a member of that family
        ds = _synthetic([c0 * c1, sp.expand(c0 * (c0 - 1))], ["c0", "c1"])
        assert {(tuple(_values(s).values()), s.free) for s in solve_determining(ds)} \
            == {((0, c1), (c1,)), ((1, 0), ())}

    def test_no_unknowns(self):
        alpha = sp.Symbol("alpha")
        sols = solve_determining(_synthetic([], []))
        assert [(s.assignment, s.free) for s in sols] == [({}, ())]
        assert solve_determining(_synthetic([sp.Integer(3)], [])) == []
        assert solve_determining(_synthetic([alpha], [])) == []


def reference_solve(ds: DeterminingSystem, branch_bound: int = 64) -> list[Solution]:
    """The solver on expression trees: one pivot at a time, the first
    unknown of the first equation that is linear in the unknowns, then
    every remaining equation and solved value substituted and normalised
    again, and a back-substitution pass.  It branches as the solver does:
    on the equation with the fewest terms in the unknowns, factored by
    sympy in the ring of the unknowns over QQ or the field of the other
    symbols, and visits the factors in the order ``_branch_factors``
    lists them."""
    unknowns = [sp.Symbol(str(c)) for c in ds.unknowns]
    exprs = [_expr(e, ds.unknowns) for e in ds.equations]
    others = sorted(set().union(*(e.free_symbols for e in exprs)) - set(unknowns), key=str)
    ring = PolyRing(unknowns, QQ.frac_field(*others) if others else QQ)
    ours = ds.ring
    names = {str(c) for c in unknowns}
    solutions, seen = [], set()
    unresolved = []
    budget = [branch_bound]

    def emit(solved: dict):
        assignment = _reference_back_substitute(solved, unknowns)
        free = tuple(c for c in unknowns if c not in assignment)
        assignment = {c: normalize(assignment.get(c, c)) for c in unknowns}
        key = (tuple(sp.sstr(assignment[c]) for c in unknowns), free)
        if key not in seen:
            seen.add(key)
            solutions.append(Solution(assignment, free))

    def descend(eqs: list, solved: dict):
        eqs = [e for e in (normalize(e) for e in eqs) if e != 0]
        changed = True
        while changed:
            changed = False
            for idx, eq in enumerate(eqs):
                pivot = _reference_linear_pivot(eq, unknowns)
                if pivot is None:
                    continue
                c, val = pivot
                solved = {k: normalize(v.xreplace({c: val})) for k, v in solved.items()}
                solved[c] = val
                sub = {c: val}
                eqs = [e for e in
                       (normalize(sp.sympify(x).xreplace(sub)) for j, x in enumerate(eqs) if j != idx)
                       if e != 0]
                changed = True
                break
        if not eqs:
            emit(solved)
            return
        polys = [ring.from_expr(e) for e in eqs]
        eq = min(polys, key=len)
        factors = eq.factor_list()[1]
        if not factors:
            return  # inconsistent: constant nonzero equation
        order = [_monic(f, names) for f, _m in engine._branch_factors(_ours(eq, ours),
                                                                      _mask(ours, names))]
        factors.sort(key=lambda fm: order.index(_monic(_ours(fm[0], ours), names)))
        if len(factors) == 1 and factors[0][1] == 1:
            unresolved.append(eqs)  # branching would give eq back
            return
        rest = [e for e, p in zip(eqs, polys) if p != eq]
        for f, _m in factors:
            if budget[0] <= 0:
                unresolved.append(eqs)
                return
            budget[0] -= 1
            descend([f.as_expr()] + rest, dict(solved))

    def member(s, t):
        put = {f: s.assignment[f] for f in t.free}
        return all(normalize(t.assignment[c].xreplace(put) - v) == 0
                   for c, v in s.assignment.items())

    descend(exprs, {})
    solutions = [s for s in solutions
                 if not any(len(t.free) > len(s.free) and member(s, t) for t in solutions)]
    if unresolved:
        raise PartialResultError(f"{len(unresolved)} unresolved branch(es)",
                                 solutions, unresolved)
    return solutions


def _reference_linear_pivot(eq, unknowns):
    present = [c for c in unknowns if eq.has(c)]
    if not present:
        return None
    try:
        p = sp.Poly(eq, *present)
    except sp.PolynomialError:
        return None
    if p.total_degree() != 1:
        return None
    c = present[0]
    a = p.coeff_monomial(c)
    return c, normalize(-(eq - a * c) / a)


def _reference_back_substitute(solved: dict, unknowns) -> dict:
    out = dict(solved)
    for _ in range(len(out) + 1):
        changed = False
        for c, v in out.items():
            if v.free_symbols & set(unknowns):
                nv = normalize(v.xreplace(out))
                if nv != v:
                    out[c] = nv
                    changed = True
        if not changed:
            break
    return out


def _outcome(solve, ds, **kwargs):
    """Solutions as (constant name, srepr of the canonical value) pairs
    in order with their free tuples of names, and the unresolved
    branches' equations (expressions or ring elements) in canonical
    form, if any."""
    def canon(e):
        return sp.srepr(normalize(e if isinstance(e, sp.Expr) else _expr(e, ds.unknowns)))

    try:
        sols, unresolved = solve(ds, **kwargs), None
    except PartialResultError as exc:
        sols = exc.solutions
        unresolved = [[canon(e) for e in eqs] for eqs in exc.unresolved]
    return ([([(str(c), canon(sp.sympify(v))) for c, v in s.assignment.items()],
              tuple(map(str, s.free))) for s in sols], unresolved)


@st.composite
def determining_systems(draw):
    """One to three equations in 2-4 unknowns, each a linear form, a
    product of two or a linear form plus a product of two; the forms
    have coefficients in -2..2, and about half of the systems also
    alpha among them."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    unknowns = sp.symbols(f"c0:{rng.randint(2, 4)}")
    coeffs = [-2, -1, 0, 1, 2] + [sp.Symbol("alpha")] * rng.randint(0, 1)

    def linear():
        return sum(rng.choice(coeffs) * c for c in unknowns) + rng.choice(coeffs)

    eqs = []
    for _ in range(rng.randint(1, 3)):
        e = rng.choice([linear(), linear() * linear(),
                        linear() + linear() * linear()])
        eqs.append(sp.expand(e))
    return _synthetic(eqs, [str(c) for c in unknowns])


@settings(max_examples=100, deadline=None)
@given(determining_systems())
def test_solver_matches_reference(ds):
    # a bound of 1 cuts the branching short and 8 lets it finish; an
    # irreducible nonlinear equation is left unresolved at once under
    # either
    for bound in (8, 1):
        assert _outcome(solve_determining, ds, branch_bound=bound) == \
            _outcome(reference_solve, ds, branch_bound=bound)


# -- the solver's steps against sympy's PolyRing ---------------------------
#
# Each step of the solver against the sympy function it stands for, in
# sympy's PolyRing(c0, ..., c_{n-1}, K), K = QQ or QQ(alpha).

ALPHA = sp.Symbol("alpha")


def _sympy_ring(n, alpha):
    return PolyRing(sp.symbols(f"c0:{n}"), QQ.frac_field(ALPHA) if alpha else QQ)


def _domain(ring):
    """The solver's shared ring for sympy's ring: its unknowns and alpha."""
    return engine._coefficient_ring([str(g) for g in ring.gens]
                                    + (["alpha"] if ring.domain != QQ else []))


def _mask(ours, names):
    """The solver's mask of the unknowns among the generators of ours."""
    return tuple(s in names for s in ours.symbols)


def _ours(p, ours):
    """An element of sympy's ring as an equation of the solver."""
    return evaluate(p.as_expr(), ours)


def _monic(f, names):
    """A scalar Form's numerator divided by its leading coefficient
    (grevlex) as a polynomial in the unknowns named by names."""
    ring = f.ring
    mask = _mask(ring, names)
    coeffs: dict = {}
    for m, c in f.terms[kernel.ONE].items():
        rest = tuple(0 if u else e for u, e in zip(mask, m))
        coeffs.setdefault(tuple(itertools.compress(m, mask)), {})[rest] = c
    lead = coeffs[max(coeffs, key=kernel._grevlex)]
    return ring.scalar(f.terms[kernel.ONE]) * ring.scalar(kernel.Poly(lead)).inverse()


def _ground(ring, c):
    """A number or an expression in alpha as an element of ring's domain."""
    return ring.domain.from_sympy(sp.sympify(c))


def _random_element(rng, ring, degree, terms):
    """A random element of ring: terms monomials of total degree at most
    degree in the unknowns, with coefficients from -2, -1, 1, 2 and 1/2
    and, over QQ(alpha), alpha, alpha + 1 and 1/alpha."""
    pool = [-2, -1, 1, 2, sp.Rational(1, 2)]
    if ring.domain != QQ:
        pool += [ALPHA, ALPHA + 1, 1 / ALPHA]
    out = ring.zero
    for _ in range(terms):
        m = ring.one
        for _ in range(rng.randint(0, degree)):
            m *= rng.choice(ring.gens)
        out += _ground(ring, rng.choice(pool)) * m
    return out


@st.composite
def linear_systems(draw):
    """1-6 equations of degree at most 1 in 1-4 unknowns over QQ or
    QQ(alpha); some repeat an equation, scale it, add two, or hold only
    a constant, so that systems are also rank-deficient or
    inconsistent."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ring = _sympy_ring(rng.randint(1, 4), rng.random() < 0.5)
    eqs = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["new", "new", "repeat", "scale", "sum", "constant"])
        if kind == "constant":
            eqs.append(ring(rng.choice([0, 1, -3])))
        elif kind == "new" or not eqs:
            eqs.append(_random_element(rng, ring, 1, rng.randint(1, 4)))
        elif kind == "repeat":
            eqs.append(rng.choice(eqs))
        elif kind == "scale":
            eqs.append(rng.choice(eqs) * _ground(ring, rng.choice([-1, 2, ALPHA][:2 + (ring.domain != QQ)])))
        else:
            eqs.append(rng.choice(eqs) + rng.choice(eqs) + rng.choice([0, 1]))
    return ring, eqs


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_row_reduce_matches_solve_lin_sys(system):
    from sympy.polys.solvers import solve_lin_sys

    ring, eqs = system
    ours = _domain(ring)
    want = solve_lin_sys(eqs, ring)
    got = engine._row_reduce([_ours(e, ours) for e in eqs],
                             _mask(ours, {str(g) for g in ring.gens}))
    if want is None:
        assert got is None
    else:
        assert got == {ours.index[str(g)]: _ours(ring(v), ours) for g, v in want.items()}


@st.composite
def factored_equations(draw):
    """A product of 2-3 factors, some repeated, in 2-3 unknowns over QQ
    or QQ(alpha), with content in alpha: linear factors that often
    differ only in their alpha-coefficients, and quadratic ones; about
    half of the equations leave out the first unknown."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ring = _sympy_ring(rng.randint(2, 3), rng.random() < 0.75)
    gens = ring.gens[1:] if rng.random() < 0.5 else ring.gens
    pool = [1, 2, -1, 3] + ([ALPHA, -ALPHA, ALPHA + 2, 2 * ALPHA + 1]
                            if ring.domain != QQ else [])
    x = rng.choice(gens)

    def c():
        return _ground(ring, rng.choice(pool))

    def factor():
        kind = rng.choice(["alike", "alike", "linear", "quadratic"])
        if kind == "alike":  # c*x + a: the same degree, alpha-coefficients apart
            return c() * x + c()
        if kind == "linear":
            return sum((c() * g for g in gens), c())
        return rng.choice(gens) * rng.choice(gens) + c() * rng.choice(gens) + c()

    eq = ring(c())
    for _ in range(rng.randint(2, 3)):
        eq *= factor()**rng.choice([1, 1, 2])
    return ring, eq


def _assert_factors_match(ring, eq):
    ours = _domain(ring)
    names = {str(g) for g in ring.gens}
    want = [(_monic(_ours(f, ours), names), k) for f, k in eq.factor_list()[1]]
    got = [(_monic(f, names), k)
           for f, k in engine._branch_factors(_ours(eq, ours), _mask(ours, names))]
    assert Counter(got) == Counter(want)


@settings(max_examples=150, deadline=None)
@given(factored_equations())
def test_branch_factors_match_factor_list(case):
    ring, eq = case
    assume(any(sum(m) > 1 for m in eq.monoms()))
    _assert_factors_match(ring, eq)


@pytest.mark.parametrize("text", [
    # alike factors whose alpha-coefficients differ only in their terms
    "(c1 + alpha + 2)*(c1 + 2*alpha + 1)", "(c1 + 2*alpha + 1)*(c1 + alpha + 2)",
    "(c1 + alpha)*(alpha*c1 + 1)*(c2 - alpha)", "(c2 + alpha**2)*(c2 + alpha + 1)**2",
    # a factor free of c1, content in alpha, and a monomial factor
    "alpha*(c1 + c2)*(c2 + 1)*c2", "(alpha + 1)*c0*(c0 + c2)*(c1 - alpha)"])
def test_branch_factors_match_factor_list_on(text):
    ring = _sympy_ring(3, True)
    _assert_factors_match(ring, ring.from_expr(sp.expand(sp.sympify(text))))


# -- reference derivation on expression trees ----------------------------
#
# The derivation as it was before the Form carrier: every intermediate is
# a sympy expression normalized by the gcd canonicaliser of pointwise.py,
# total derivatives go through sp.diff, reduction substitutes normal
# forms with xreplace until nothing changes, a relation is solved through
# a Poly in its leading jet, and the determining equations are the
# coefficients of a Poly over the residual numerator's jets and lam.


def reference_solve_for_leading(relation, unknown, space):
    rel = normalize(relation)
    num, _den = rel.as_numer_denom()
    jets = sorted((s for s in jets_in(space, num) if space.jet_var(s.name).unknown == unknown),
                  key=lambda s: space.rank_of(s.name), reverse=True)
    if not jets:
        raise jets_module.NoLeadingJetError(f"relation has no {unknown}-jets")
    for v in jets:
        p = sp.Poly(num, v)
        if p.degree() > 1:
            raise jets_module.NonlinearLeadingError(f"nonlinear in {v}")
        a = p.nth(1)
        b = p.nth(0)
        if is_zero(a):
            continue
        return (v, normalize(-b / a)), normalize(a)
    raise jets_module.NoLeadingJetError("zero coefficients")


class ReferenceRewriteSystem:
    def __init__(self, space, rules):
        self.space = space
        self.rules = dict(rules)
        self._nf = {}

    def matching_rule(self, sym):
        jv = self.space.jet_var(sym.name)
        if jv is None:
            return None
        best = None
        for lhs in self.rules:
            jl = self.space.jet_var(lhs.name)
            if jl.unknown == jv.unknown and jets_module._multiset_leq(jl.index, jv.index):
                if best is None or \
                        self.space.rank_of(lhs.name) > self.space.rank_of(best.name):
                    best = lhs
        return best

    def normal_form(self, sym):
        cached = self._nf.get(sym)
        if cached is not None:
            return cached
        lhs = self.matching_rule(sym)
        if lhs is None:
            nf = sym
        else:
            jv = self.space.jet_var(sym.name)
            jl = self.space.jet_var(lhs.name)
            e = self.reduce(self.rules[lhs])
            for x in jets_module._multiset_diff(jv.index, jl.index):
                e = self.reduce(reference_total_derivative(e, x, self.space))
            nf = e
        self._nf[sym] = nf
        return nf

    def reduce(self, e):
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

    def extended(self, rules):
        return ReferenceRewriteSystem(self.space, {**self.rules, **dict(rules)})


def reference_determining_equations(F, pair, twist, orientation, space):
    j = jet_symbols(space)
    rules, dirs = [], []
    for i in (0, 1):
        ut_op = pair.x1[i] if orientation == "forward" else pair.x0[i]
        u_op = pair.x0[i] if orientation == "forward" else pair.x1[i]
        e = normalize(ut_op.apply_to_unknown("Ut")
                      + twist.f[(i + 1, 1)] * j("Ut")
                      - twist.f[(i + 1, 0)] * j("U")
                      - u_op.apply_to_unknown("U"))
        rule, _lead = reference_solve_for_leading(e, "Ut", space)
        rules.append(rule)
        dirs.append(space.jet_var(rule[0].name).index[0])
    lin = linearize(to_form(F, space))
    sys_u = ReferenceRewriteSystem(space, [reference_solve_for_leading(F, "u", space)[0]])
    lin_u = sys_u.reduce(normalize(sum(c * j("U", idx) for idx, c in lin.coeffs)))
    sys_uu = sys_u.extended([reference_solve_for_leading(lin_u, "U", space)[0]])
    sys = sys_uu.extended([(lhs, sys_uu.reduce(rhs)) for lhs, rhs in rules])
    (r1, r2), (d1, d2) = rules, dirs
    cross = (reference_total_derivative(sys.rules[r1[0]], d2, space)
             - reference_total_derivative(sys.rules[r2[0]], d1, space))
    equations, seen = [], set()
    for resid in (sys.reduce(cross),
                  sys.reduce(normalize(sum(c * j("Ut", idx)
                                           for idx, c in lin.coeffs)))):
        if resid == 0:
            continue
        num, _den = normalize(resid).as_numer_denom()
        gens = [s for s in num.free_symbols
                if space.jet_var(s.name) is not None or s.name == LAMBDA]
        if not gens:
            gens = [sp.Symbol("_one")]
        for coeff in sp.Poly(num, *sorted(gens, key=str)).coeffs():
            eq = normalize(coeff)
            if eq == 0:
                continue
            key = sp.sstr(eq)
            if key not in seen:
                seen.add(key)
                equations.append(eq)
    return equations


@st.composite
def reduced_ansatz_twists(draw):
    """dfkn2 or dfkn3, an orientation, and per slot 2-4 terms u_pq/u_x
    of the default basis with seeded signs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    name = rng.choice(["dfkn2", "dfkn3"])
    orientation = rng.choice(["forward", "swapped"])
    return name, orientation, rng


@settings(max_examples=12, deadline=None)
@given(reduced_ansatz_twists())
def test_determining_equations_match_reference(problems, case):
    name, orientation, rng = case
    prob = problems[name]
    s = prob.space
    pool = default_ansatz(prob.F, prob.lax)[(1, 0)]
    basis = {slot: [rng.choice([1, -1]) * t
                    for t in rng.sample(pool, rng.randint(2, 4))]
             for slot in SLOTS}
    twist, _ = engine.ansatz_twist(basis)
    want = reference_determining_equations(prob.F, prob.lax, twist, orientation, s)
    got = determining_equations_for_twist(prob.F, prob.lax, twist, orientation)
    unknowns = sorted(twist.free_constants())
    assert [sp.srepr(normalize(_expr(e, unknowns))) for e in got] == [sp.srepr(e) for e in want]


@settings(max_examples=6, deadline=None)
@given(reduced_ansatz_twists())
def test_solver_matches_reference_on_derived_systems(problems, case):
    # the shipped twist's terms u_pq/u_x join 1-3 seeded terms per slot,
    # so the system has a nonzero solution; the reference solver reads
    # the same equations as expressions
    name, orientation, rng = case
    prob = problems[name]
    pool = default_ansatz(prob.F, prob.lax)[(1, 0)]
    slots = {}
    for slot in SLOTS:
        paper = [t for t in pool if t.as_numer_denom()[0]
                 in sp.sympify(prob.twist.f[slot]).free_symbols]
        terms = paper + [rng.choice([1, -1]) * t for t in rng.sample(pool, rng.randint(1, 3))]
        slots[slot] = rng.sample(terms, len(terms))
    ds = engine.derive_determining_system(prob.F, prob.lax, slots, orientation)
    assert _outcome(solve_determining, ds) == _outcome(reference_solve, ds)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_reduce_matches_reference_on_denominators(dfkn2, seed):
    # the denominators hold the equation rule's lhs u_yz or one of its
    # prolongations, which reduction must substitute there too
    rng = random.Random(seed)
    s = dfkn2.space
    j = jet_symbols(s)
    rule = jets_module.solve_for_leading(to_form(dfkn2.F, s), "u")
    assert rule.lhs == s.jet("u", ("y", "z"))
    sys = jets_module.RewriteSystem([rule])
    ref = ReferenceRewriteSystem(s, [reference_solve_for_leading(dfkn2.F, "u", s)[0]])
    pool = [j("u", "yz"), j("u", "yz") + j("u", "t"), j("u", "xyz"),
            j("u", "x") * j("u", "yz") - j("u", "y"), j("u", "x"),
            j("u", "y") - j("u", "t")]
    num = random_poly(rng, [j("u", "x"), j("u", "y"), j("u", "t"), j("u", "yz")])
    e = num / sp.Mul(*(rng.choice(pool) for _ in range(rng.randint(1, 3))))
    got = sys.reduce(to_form(e, s)).as_expr()
    assert sp.srepr(got) == sp.srepr(ref.reduce(e))


def test_denominator_vanishing_on_the_equation_is_degenerate(dfkn2):
    s = dfkn2.space
    rule = jets_module.solve_for_leading(to_form(dfkn2.F, s), "u")
    sys = jets_module.RewriteSystem([rule])
    e = sp.Symbol(s.jet("u", "x")) / (sp.Symbol(rule.lhs) - rule.rhs.as_expr())
    with pytest.raises(kernel.DegenerateExpressionError):
        sys.reduce(to_form(e, s))


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_determining_equations_match_reference_with_rule_lhs_in_denominator(
        dfkn2, orientation):
    j = jet_symbols(dfkn2.space)
    u_yz = j("u", ("y", "z"))
    # the parent's gcds make larger twists of this kind take minutes
    basis = {(1, 0): [], (1, 1): [to_form(j("u", "y") / u_yz, dfkn2.space)], (2, 0): [],
             (2, 1): []}
    twist, _ = engine.ansatz_twist(basis)
    want = reference_determining_equations(dfkn2.F, dfkn2.lax, twist, orientation,
                                           dfkn2.space)
    got = determining_equations_for_twist(dfkn2.F, dfkn2.lax, twist, orientation)
    unknowns = sorted(twist.free_constants())
    assert want
    assert [sp.srepr(normalize(_expr(e, unknowns))) for e in got] == [sp.srepr(e) for e in want]


def _orders(variables, sample=None):
    orders = ["".join(p) for p in itertools.permutations(variables)]
    return orders if sample is None else random.Random(5).sample(orders, sample)


@pytest.mark.parametrize("name,order",
                         [("dfkn2", o) for o in _orders("yztx")]
                         + [("dfkn3", o) for o in _orders("yztx")]
                         + [("eq5", o) for o in _orders("tyxzsr", sample=20)])
def test_verdict_invariant_under_vars_permutation(name, order):
    # the ranking changes every leading jet and rule; the shipped twist
    # must still PASS, unless the pair degenerates under that ranking
    text = (PROBLEM_DIR / f"{name}.rop").read_text()
    text = re.sub(r"^vars .*$", "vars " + " ".join(order), text, flags=re.M)
    try:
        prob = parse_problem(text)
        rep = verify(prob.F, prob.lax, prob.twist, _orientation(prob))
    except DegeneratePairError:
        return
    assert rep.passed, (name, order, rep.compatibility, rep.symmetry)
    # the assumptions read from the registry are those the leads factor into
    relset = build_relations(prob.lax, prob.twist, _orientation(prob))
    systems = [full_system(prob.F, relset)[0],
               equation_system(to_form(prob.F, prob.space))]
    for sys in systems:
        want = reference_assumptions([r.lead for r in sys.rules.values()])
        got = iter(a.as_expr() for a in sys.assumptions)
        # leads in order; the factors new in one lead in any order
        assert [set(itertools.islice(got, len(w))) for w in want] == want, (name, order)
        assert next(got, None) is None, (name, order)
    assert rep.assumptions == systems[0].assumptions


def test_forms_of_another_ranking_give_no_verdict(dfkn2):
    # dfkn2 read again with its vars line reversed names u_yz as u_zy:
    # its Forms are of another ring, and mixed with dfkn2's they are an
    # error, never a verdict reached under one of the two rankings
    text = (PROBLEM_DIR / "dfkn2.rop").read_text()
    other = parse_problem(re.sub(r"^vars .*$", "vars x t z y", text, flags=re.M))
    with pytest.raises(ValueError, match="not a generator of the ring"):
        verify(dfkn2.F, other.lax, other.twist, "forward")
    with pytest.raises(ValueError, match="not a generator of the ring"):
        verify(other.F, dfkn2.lax, dfkn2.twist, "forward")
    with pytest.raises(ValueError, match="Form of another ring"):
        check_lax(dfkn2.lax, other.F)
    with pytest.raises(ValueError, match="Form of another ring"):
        check_lax(other.lax, dfkn2.F)


def reference_assumptions(leads):
    """Per lead, in order, the set of its irreducible factors that no
    earlier lead has, found by factoring each lead with sympy;
    associates count once."""
    out, seen = [], set()
    for lead in leads:
        ring, new = lead.ring, set()
        for part in lead.as_numer_denom():
            for factor, _mult in sp.factor_list(part)[1]:
                f = normalize(factor)
                fid = ring.factor_id(evaluate(f, ring).terms[kernel.ONE])
                if fid not in seen:
                    seen.add(fid)
                    new.add(f)
        out.append(new)
    return out
