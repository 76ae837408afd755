import pytest
import sympy as sp

from rop.jets import (JetSpace, NoLeadingJetError, NonlinearLeadingError,
                      OrderOverflowError, RewriteRule, RewriteSystem,
                      jet_ring, solve_for_leading, total_derivative)

from conftest import jet_symbols, random_rational, to_form
from pointwise import PoleError, equal, eval_rational, normalize, random_point


@pytest.fixture()
def ex2_space():
    return JetSpace(["y", "z", "t", "x"])


@pytest.fixture()
def ex2_F(ex2_space):
    s = ex2_space
    j = jet_symbols(s)
    return normalize(j("u", "x") * j("u", "yz") - j("u", "y") * j("u", "xz")
                     - j("u", "x") * j("u", "xt") + j("u", "t") * j("u", "xx"))


class TestJetSpace:
    def test_index_order_independent(self, space):
        assert space.jet("u", ("x", "y")) == space.jet("u", ("y", "x"))

    def test_order_bound(self, space):
        with pytest.raises(OrderOverflowError):
            space.jet("u", ("x",) * 5)

    def test_ranking_precedence(self, space):
        # Ut > U > u, then order, then lexicographic by variable order
        r = space.rank_of
        assert r(space.jet("Ut")) > r(space.jet("U", ("x", "x")))
        assert r(space.jet("U", ("z",))) > r(space.jet("u", ("x", "y")))
        assert r(space.jet("u", ("x", "y"))) > r(space.jet("u", ("x", "z")))
        assert r(space.jet("u", ("x",))) > r(space.jet("u", ("y",)))

    def test_non_jets_unrecognized(self, space):
        assert space.jet_var("alpha") is None
        assert space.jet_var("u_q") is None
        assert space.jet_var("x") is None

    def test_misordered_jet_name_is_the_jet(self, dfkn2):
        # z ranks before x on dfkn2, so u_xz, as the file writes f1_1,
        # names the jet u_zx
        j, ring = dfkn2.space.jet, jet_ring(dfkn2.space)
        assert dfkn2.space.jet_named("u_xz") == j("u", ("z", "x"))
        assert dfkn2.twist.f[(1, 1)] == \
            -ring.symbol(j("u", ("z", "x"))) * ring.symbol(j("u", "x")).inverse()

    def test_ring_shared_while_its_forms_live(self):
        # twenty other rings are asked for in between
        space = JetSpace(["x", "y"], 2)
        form = jet_ring(space).symbol(space.jet("u", ("x",)))
        for k in range(20):
            jet_ring(space, [f"c{k}"])
        assert jet_ring(JetSpace(["x", "y"], 2)) is form.ring

    def test_ring_with_constants_extends_the_base_ring(self, dfkn2):
        # the constants come after every base generator, though "c" sorts
        # before the jets; a Form of the base ring keeps its numerators
        base = jet_ring(dfkn2.space)
        ring = jet_ring(dfkn2.space, ["c", "c0"])
        assert ring.symbols == base.symbols + ("c", "c0")
        assert ring.extra == {"c", "c0"}
        for f in dfkn2.twist.f.values():
            g = ring.embed(f)
            assert g.ring is ring and all(g.terms[k] is p for k, p in f.terms.items())
            assert equal(g.as_expr(), f.as_expr())


class TestTotalDerivative:
    def test_quotient_chain_rule(self, ex2_space):
        s = ex2_space
        j = jet_symbols(s)
        expected = normalize((j("u", "x") * j("u", "yz")
                              - j("u", "y") * j("u", "xz")) / j("u", "x")**2)
        assert total_derivative(to_form(j("u", "y") / j("u", "x"), s), "z").as_expr() == expected

    def test_explicit_variable_dependence(self, space):
        j = jet_symbols(space)
        x = sp.Symbol("x")
        u = j("u")
        assert total_derivative(to_form(x * u, space), "x").as_expr() == \
            normalize(u + x * j("u", "x"))

    def test_commutativity(self, space):
        e = to_form(jet_symbols(space)("u", ("z",)), space)
        dxy = total_derivative(total_derivative(e, "y"), "x")
        dyx = total_derivative(total_derivative(e, "x"), "y")
        assert normalize(dxy - dyx) == 0

    def test_leibniz_random(self, rng, space):
        j = jet_symbols(space)
        syms = [j("u"), j("u", "x"), j("u", "y")]
        for _ in range(20):
            a = random_rational(rng, syms)
            b = random_rational(rng, syms)
            lhs = total_derivative(to_form(a * b, space), "x")
            rhs = (total_derivative(to_form(a, space), "x") * b
                   + a * total_derivative(to_form(b, space), "x"))
            assert normalize(lhs - rhs) == 0


class TestSolveForLeading:
    def test_eq5_solved_for_uzt(self, eq5):
        s = eq5.space
        j = jet_symbols(s)
        rule = solve_for_leading(to_form(eq5.F, s), "u")
        assert rule.lhs == s.jet("u", ("z", "t"))
        expected = normalize((j("u", "z") * j("u", ("s", "t"))
                              + j("u", "s") * j("u", ("x", "y"))
                              - j("u", "y") * j("u", ("s", "x"))
                              + j("u", "y") * j("u", ("r", "z"))
                              - j("u", "z") * j("u", ("r", "y"))) / j("u", "s"))
        assert normalize(rule.rhs - expected) == 0
        assert equal(rule.lead, j("u", "s")) or equal(rule.lead, -j("u", "s"))

    def test_recursion_relation_solved_for_leading_ut(self, ex2_space):
        s = ex2_space
        j = jet_symbols(s)
        rel = (j("Ut", "z") - (j("u", "xz") / j("u", "x")) * j("Ut")
               - j("U", "t") + (j("u", "t") / j("u", "x")) * j("U", "x"))
        rule = solve_for_leading(to_form(rel, s), "Ut")
        assert rule.lhs == s.jet("Ut", ("z",))
        expected = ((j("u", "xz") / j("u", "x")) * j("Ut") + j("U", "t")
                    - (j("u", "t") / j("u", "x")) * j("U", "x"))
        assert normalize(rule.rhs - expected) == 0

    def test_monomial_relation(self, space):
        rule = solve_for_leading(to_form(jet_symbols(space)("u", "x"), space), "u")
        assert rule.lhs == space.jet("u", ("x",))
        assert rule.rhs == 0

    def test_nonlinear_leading_rejected(self, space):
        with pytest.raises(NonlinearLeadingError):
            j = jet_symbols(space)
            solve_for_leading(to_form(j("u", "xy")**2 + j("u"), space), "u")

    def test_no_jet_of_unknown(self, space):
        with pytest.raises(NoLeadingJetError):
            solve_for_leading(to_form(jet_symbols(space)("u", "x"), space), "U")


class TestRewriteSystem:
    def _f_system(self, problem):
        rule = solve_for_leading(to_form(problem.F, problem.space), "u")
        return RewriteSystem([rule])

    def test_relation_reduces_by_own_rule(self, dfkn2):
        sys = self._f_system(dfkn2)
        assert sys.reduce(to_form(dfkn2.F, dfkn2.space)) == 0

    def test_trivial_commutator(self, eq5):
        s = eq5.space
        sys = self._f_system(eq5)
        j = jet_symbols(s)
        e = j("u", "zt") * j("u", "s") - j("u", "s") * j("u", "zt")
        assert sys.reduce(to_form(e, s)) == 0

    def test_prolonged_relation_reduces_to_zero(self, dfkn2):
        sys = self._f_system(dfkn2)
        dF = total_derivative(to_form(dfkn2.F, dfkn2.space), "y")
        assert sys.reduce(dF) == 0

    def test_prolongation_order_irrelevant(self, dfkn2):
        s = dfkn2.space
        rule = solve_for_leading(to_form(dfkn2.F, s), "u")
        sys = RewriteSystem([rule])
        via_yz = sys.reduce(total_derivative(
            sys.reduce(total_derivative(rule.rhs, "y")), "z"))
        via_zy = sys.reduce(total_derivative(
            sys.reduce(total_derivative(rule.rhs, "z")), "y"))
        assert via_yz == via_zy

    def test_prolong_constant_rhs(self, space):
        ring = jet_ring(space)
        rule = RewriteRule(space.jet("u", "xy"), ring.constant(3), ring.constant(1))
        sys = RewriteSystem([rule])
        assert sys.normal_form(space.jet("u", "xyz")) == 0

    def test_reduce_is_projection(self, dfkn2, rng):
        s = dfkn2.space
        sys = self._f_system(dfkn2)
        j = jet_symbols(s)
        syms = [j("u"), j("u", "x"), j("u", "y"), j("u", "yz"), j("u", "xt")]
        for _ in range(10):
            e = random_rational(rng, syms)
            r = sys.reduce(to_form(e, s))
            assert sys.reduce(r) == r

    def test_reduction_stays_in_rule_ideal(self, dfkn2, rng):
        # at points satisfying the (triangular) rules, e and reduce(e)
        # agree numerically
        s = dfkn2.space
        sys = self._f_system(dfkn2)
        j = jet_symbols(s)
        e = j("u", "yz") * j("u", "x") + j("u", "y") / j("u", "t")
        r = sys.reduce(to_form(e, s))
        for trial in range(5):
            point = {}
            free = (set(e.free_symbols) | set(r.as_expr().free_symbols)) - {j("u", "yz")}
            point = random_point(free, rng, span=50)
            try:
                lead_val = eval_rational(sys.normal_form(s.jet("u", "yz")), point)
                point[j("u", "yz")] = lead_val
                assert eval_rational(e, point) == eval_rational(r, point)
            except PoleError:
                continue

    def test_overlapping_lhs_rejected(self, space):
        ring = jet_ring(space)
        r1 = RewriteRule(space.jet("u", "xy"), ring.zero, ring.constant(1))
        r2 = RewriteRule(space.jet("u", ("x", "y", "z")), ring.constant(1),
                         ring.constant(1))
        with pytest.raises(ValueError):
            RewriteSystem([r1, r2])

    @pytest.mark.parametrize("case, message", [
        ("duplicate", "duplicate rule"),
        ("derivative", "derivatives of one another"),
        ("other ring", "another ring")])
    def test_constructor_checks(self, space, case, message):
        ring = jet_ring(space)
        one = ring.constant(1)
        first = RewriteRule(space.jet("u", "x"), ring.zero, one)
        if case == "duplicate":
            second = RewriteRule(space.jet("u", "x"), one, one)
        elif case == "derivative":
            second = RewriteRule(space.jet("u", "xy"), one, one)
        else:
            other = jet_ring(space, ["c"])
            second = RewriteRule(space.jet("U", "x"), other.zero, other.constant(1))
        with pytest.raises(ValueError, match=message):
            RewriteSystem([first, second])

    def test_rule_above_its_lhs_rejected(self, space):
        rhs = to_form(jet_symbols(space)("u", "xy"), space)
        with pytest.raises(ValueError):
            RewriteRule(space.jet("u", "x"), rhs, rhs.ring.constant(1)).validate()
