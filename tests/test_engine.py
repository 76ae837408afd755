import pytest
import sympy as sp

from rop import engine
from rop.engine import (SLOTS, AnsatzBasis, DeterminingSystem,
                        InvalidTwistError, PartialResultError, TwistRelations,
                        build_relations, default_ansatz,
                        determining_equations_for_twist, full_system,
                        hierarchy_relations, solve_determining, verify)
from rop.kernel import equal, normalize
from rop.lax import LAMBDA


def _twist(problem):
    return problem.twist.with_orientation(problem.orientation or "forward")


class TestTwistRelations:
    def test_missing_slot_rejected(self):
        with pytest.raises(InvalidTwistError):
            TwistRelations({(1, 0): sp.S.Zero})

    def test_bad_orientation_rejected(self):
        with pytest.raises(ValueError):
            TwistRelations.zero("sideways")

    def test_validate_rejects_spectral_parameter(self, space):
        t = TwistRelations({**TwistRelations.zero().f, (1, 0): LAMBDA})
        with pytest.raises(InvalidTwistError):
            t.validate(space)

    def test_validate_rejects_capital_jets(self, space):
        t = TwistRelations({**TwistRelations.zero().f, (2, 1): space.jet("U", "x")})
        with pytest.raises(InvalidTwistError):
            t.validate(space)


class TestBuildRelations:
    def test_second_example_forward(self, dfkn2):
        s = dfkn2.space
        j = s.jet
        relset = build_relations(dfkn2.lax, _twist(dfkn2), s)
        assert {relset.rules[0].lhs, relset.rules[1].lhs} == \
            {j("Ut", ("z",)), j("Ut", ("x",))}
        assert set(relset.directions) == {"z", "x"}
        # first relation: Ut_z - (u_zx/u_x) Ut = U_t - (u_t/u_x) U_x
        idx = relset.directions.index("z")
        e = relset.relations[idx]
        expected = (j("Ut", ("z",)) - (j("u", ("z", "x")) / j("u", "x")) * j("Ut")
                    - j("U", ("t",)) + (j("u", ("t",)) / j("u", "x")) * j("U", ("x",)))
        assert normalize(e - expected) == 0 or normalize(e + expected) == 0

    def test_relations_reduce_to_zero_in_full_system(self, dfkn2):
        s = dfkn2.space
        relset = build_relations(dfkn2.lax, _twist(dfkn2), s)
        sys = full_system(dfkn2.F, relset, s)
        for e in relset.relations:
            assert sys.reduce(e) == 0

    def test_distinct_leading_jets_required(self, dfkn2):
        # degenerate "pair" built from the same operator twice
        from rop.lax import LaxPair
        p = dfkn2.lax
        bad = LaxPair((p.x1[0], p.x1[0]), (p.x0[0], p.x0[0]))
        with pytest.raises(Exception):
            build_relations(bad, TwistRelations.zero(), dfkn2.space)


class TestVerify:
    def test_examples_pass(self, eq5, dfkn2, dfkn3):
        for prob in (eq5, dfkn2, dfkn3):
            rep = verify(prob.F, prob.lax, _twist(prob), prob.space)
            assert rep.passed, (prob.name, rep.compatibility, rep.symmetry)
            assert rep.compatibility == 0 and rep.symmetry == 0

    def test_zero_twist_fails_second_example(self, dfkn2):
        s = dfkn2.space
        j = s.jet
        rep = verify(dfkn2.F, dfkn2.lax, TwistRelations.zero(), s)
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
        f = dict(_twist(dfkn2).f)
        f[(1, 1)] = normalize(-f[(1, 1)])
        rep = verify(dfkn2.F, dfkn2.lax, TwistRelations(f, "forward"), s)
        assert not rep.passed

    def test_rejects_unknown_constants(self, dfkn2):
        s = dfkn2.space
        basis = default_ansatz(dfkn2.F, dfkn2.lax, s)
        twist, _ = engine.ansatz_twist(basis, "forward")
        with pytest.raises(InvalidTwistError):
            verify(dfkn2.F, dfkn2.lax, twist, s)


class TestDeterminingSystem:
    def test_correct_twist_has_no_determining_equations(self, dfkn2):
        eqs = determining_equations_for_twist(dfkn2.F, dfkn2.lax,
                                              _twist(dfkn2), dfkn2.space)
        assert eqs == []

    def test_zero_twist_produces_equations(self, dfkn2):
        eqs = determining_equations_for_twist(dfkn2.F, dfkn2.lax,
                                              TwistRelations.zero(),
                                              dfkn2.space)
        assert eqs

    def test_derivation_leaves_jet_space_unchanged(self, dfkn2):
        s = dfkn2.space
        j = s.jet
        before = {k: v for k, v in vars(s).items() if not k.startswith("_")}
        basis = AnsatzBasis({(1, 0): [], (1, 1): [j("u", "xz") / j("u", "x")],
                             (2, 0): [], (2, 1): [j("u", "xx") / j("u", "x")]})
        ds = engine.derive_determining_system(dfkn2.F, dfkn2.lax, basis,
                                              "forward", s)
        assert [str(c) for c in ds.unknowns] == ["c11_0", "c21_0"]
        assert {k: v for k, v in vars(s).items() if not k.startswith("_")} == before

    def test_default_ansatz_second_example(self, dfkn2):
        s = dfkn2.space
        basis = default_ansatz(dfkn2.F, dfkn2.lax, s)
        assert not basis.fallback
        assert basis.size() == 40  # 10 ratios u_pq/u_x per slot
        terms = basis.slots[(1, 1)]
        assert any(equal(t, s.jet("u", ("z", "x")) / s.jet("u", "x"))
                   for t in terms)
        assert any(equal(t, s.jet("u", ("x", "x")) / s.jet("u", "x"))
                   for t in terms)


def _synthetic(eqs, names):
    unknowns = [sp.Symbol(n) for n in names]
    return DeterminingSystem(list(eqs), unknowns,
                             {slot: [] for slot in SLOTS}, "forward")


class TestSolveDetermining:
    def test_linear_elimination(self):
        c1, c2, c3 = sp.symbols("c1 c2 c3")
        ds = _synthetic([c1 - 2, c1 + c2], ["c1", "c2", "c3"])
        sols = solve_determining(ds)
        assert len(sols) == 1
        sol = sols[0]
        assert sol.assignment[c1] == 2
        assert sol.assignment[c2] == -2
        assert sol.assignment[c3] == 0 and c3 in sol.free

    def test_quadratic_branches(self):
        c1 = sp.Symbol("c1")
        ds = _synthetic([c1 * (c1 - 1)], ["c1"])
        sols = solve_determining(ds)
        assert sorted(s.assignment[c1] for s in sols) == [0, 1]

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


class TestHierarchy:
    def test_levels_chain(self, dfkn2):
        levels = hierarchy_relations(dfkn2.lax, 3, dfkn2.space)
        assert [(lv.source, lv.target) for lv in levels] == \
            [("psi_0", "psi_1"), ("psi_1", "psi_2"), ("psi_2", "psi_3")]

    def test_k_must_be_positive(self, dfkn2):
        with pytest.raises(ValueError):
            hierarchy_relations(dfkn2.lax, 0, dfkn2.space)
