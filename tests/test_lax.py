import pytest
import sympy as sp

from rop.jets import JetSpace
from rop.kernel import equal, normalize
from rop.lax import (LAMBDA, DegeneratePairError, FirstOrderOperator, LaxPair,
                     NotLambdaLinearError, check_lax, commutator, split_lambda)

from conftest import random_rational


@pytest.fixture()
def ex2_space():
    return JetSpace(["y", "z", "t", "x"])


def _dfkn2_ops(s):
    j = s.jet
    op1 = FirstOrderOperator.make(0, {"t": 1, "z": -LAMBDA,
                                      "x": -j("u", "t") / j("u", "x")})
    op2 = FirstOrderOperator.make(0, {"y": 1,
                                      "x": -LAMBDA - j("u", "y") / j("u", "x")})
    return op1, op2


class TestFirstOrderOperator:
    def test_make_drops_zero_coefficients(self, space):
        op = FirstOrderOperator.make(0, {"x": 1, "y": 0})
        assert op.directions == ("x",)
        assert op.dir_coeff("y") == 0

    def test_apply_product(self, space):
        j = space.jet
        op = FirstOrderOperator.make(j("u"), {"x": j("u", "y")})
        e = j("u", "z")
        assert normalize(op.apply(e, space)
                         - j("u") * j("u", "z")
                         - j("u", "y") * j("u", "xz")) == 0

    def test_apply_to_unknown(self, space):
        op = FirstOrderOperator.make(2, {"x": 3})
        j = space.jet
        assert normalize(op.apply_to_unknown("U", space)
                         - 2 * j("U") - 3 * j("U", "x")) == 0

    def test_linearity_of_algebra(self, space, rng):
        j = space.jet
        syms = [j("u"), j("u", "x")]
        a = FirstOrderOperator.make(random_rational(rng, syms),
                                    {"x": random_rational(rng, syms)})
        b = FirstOrderOperator.make(random_rational(rng, syms),
                                    {"x": random_rational(rng, syms),
                                     "y": random_rational(rng, syms)})
        e = j("u", "z") / j("u")
        lhs = (a + b).apply(e, space)
        rhs = normalize(a.apply(e, space) + b.apply(e, space))
        assert normalize(lhs - rhs) == 0
        assert normalize((a - b).apply(e, space)
                         - a.apply(e, space) + b.apply(e, space)) == 0


class TestCommutator:
    def test_coordinate_fields_commute(self, space):
        p = FirstOrderOperator.make(0, {"x": 1})
        q = FirstOrderOperator.make(0, {"y": 1})
        assert commutator(p, q, space).is_zero()

    def test_against_direct_application(self, space, rng):
        # [p, q](e) computed operator-wise matches p(q(e)) - q(p(e))
        j = space.jet
        syms = [j("u"), j("u", "x"), j("u", "y")]

        def small():
            return random_rational(rng, syms, terms=2, degree=1)

        for _ in range(3):
            p = FirstOrderOperator.make(0, {"x": small(), "y": small()})
            q = FirstOrderOperator.make(0, {"y": small(), "z": small()})
            e = small()
            lhs = commutator(p, q, space).apply(e, space)
            rhs = (p.directional_apply(q.directional_apply(e, space), space)
                   - q.directional_apply(p.directional_apply(e, space), space))
            assert normalize(lhs - rhs) == 0

    def test_antisymmetry(self, space):
        j = space.jet
        p = FirstOrderOperator.make(j("u"), {"x": j("u", "y")})
        q = FirstOrderOperator.make(0, {"x": 1, "z": j("u")})
        c1 = commutator(p, q, space)
        c2 = commutator(q, p, space)
        assert (c1 + c2).is_zero()


class TestSplitLambda:
    def test_second_example_split(self, ex2_space):
        s = ex2_space
        j = s.jet
        op1, op2 = _dfkn2_ops(s)
        x1, x0 = split_lambda(op2)
        # op2 = D_y - lam D_x - (u_y/u_x) D_x = X0 - lam X1  =>  X1 = D_x,
        # X0 = D_y - (u_y/u_x) D_x
        assert equal(x1.dir_coeff("x"), 1)
        assert x1.dir_coeff("y") == 0
        assert equal(x0.dir_coeff("y"), 1)
        assert equal(x0.dir_coeff("x"), -j("u", "y") / j("u", "x"))
        # lam X1 - X0 is -op2
        recon = x1.scaled(LAMBDA) - x0
        assert normalize(recon.dir_coeff("x") + op2.dir_coeff("x")) == 0
        assert normalize(recon.dir_coeff("y") + op2.dir_coeff("y")) == 0

    def test_lambda_quadratic_rejected(self, space):
        op = FirstOrderOperator.make(0, {"x": LAMBDA**2})
        with pytest.raises(NotLambdaLinearError):
            split_lambda(op)

    def test_lambda_in_denominator_rejected(self, space):
        op = FirstOrderOperator.make(0, {"x": 1 / (LAMBDA + 1)})
        with pytest.raises(NotLambdaLinearError):
            split_lambda(op)


class TestLaxPair:
    def test_from_operators_round_trip(self, ex2_space):
        op1, op2 = _dfkn2_ops(ex2_space)
        pair = LaxPair.from_operators(op1, op2, ex2_space)
        for i, op in enumerate((op1, op2)):
            recon = pair.full_operator(i)
            for v in set(op.directions) | set(recon.directions):
                assert normalize(recon.dir_coeff(v) - op.dir_coeff(v)) == 0

    def test_no_lambda_part_rejected(self, space):
        op1 = FirstOrderOperator.make(0, {"x": 1})
        op2 = FirstOrderOperator.make(0, {"y": 1, "x": LAMBDA})
        with pytest.raises(NotLambdaLinearError):
            LaxPair.from_operators(op1, op2, space)

    def test_proportional_directions_rejected(self, space):
        op1 = FirstOrderOperator.make(0, {"x": LAMBDA, "y": 1})
        op2 = FirstOrderOperator.make(0, {"x": 2 * LAMBDA, "y": 1})
        with pytest.raises(DegeneratePairError):
            LaxPair.from_operators(op1, op2, space)

    def test_capital_jets_in_coefficients_rejected(self, space):
        op1 = FirstOrderOperator.make(0, {"x": LAMBDA, "y": space.jet("U")})
        op2 = FirstOrderOperator.make(0, {"y": LAMBDA, "z": 1})
        with pytest.raises(ValueError):
            LaxPair.from_operators(op1, op2, space)


class TestCheckLax:
    def test_examples_pass(self, eq5, dfkn2, dfkn3):
        for prob in (eq5, dfkn2, dfkn3):
            report = check_lax(prob.lax, prob.F, prob.space)
            assert report.passed, (prob.name, report.residuals)
            assert all(r == 0 for r in report.residuals)

    def test_multipliers_vanish_on_examples(self, dfkn2):
        report = check_lax(dfkn2.lax, dfkn2.F, dfkn2.space)
        assert report.multipliers == (0, 0)

    def test_perturbed_pair_fails(self, dfkn2):
        s = dfkn2.space
        j = s.jet
        op1 = FirstOrderOperator.make(0, {"t": 1, "z": -LAMBDA,
                                          "x": -j("u", "t") / j("u", "y")})
        op2 = FirstOrderOperator.make(0, {"y": 1,
                                          "x": -LAMBDA - j("u", "y") / j("u", "x")})
        bad = LaxPair.from_operators(op1, op2, s)
        report = check_lax(bad, dfkn2.F, s)
        assert not report.passed
        assert report.residuals

    def test_wrong_equation_fails(self, dfkn2, eq5):
        s = dfkn2.space
        j = s.jet
        other_F = j("u", "x") * j("u", "yz") - j("u", "y") * j("u", "xz")
        report = check_lax(dfkn2.lax, other_F, s)
        assert not report.passed
