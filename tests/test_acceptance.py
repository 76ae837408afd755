"""End-to-end acceptance gate.

One test per criterion; each prints a single pass/fail line (written to
the real stdout so it survives pytest's capture) before asserting.
"""

import random
import time

import pytest
import sympy as sp

from rop import engine
from rop.engine import TwistRelations
from rop.jets import RewriteSystem, solve_for_leading, total_derivative
from rop.lax import LAMBDA, FirstOrderOperator, LaxPair, check_lax

from conftest import (canonical, jet_symbols, jets_in, random_poly, random_rational,
                      to_form, zero_twist)
from pointwise import equal, first_variation_defect, normalize, probably_nonzero


_capman = None


@pytest.fixture(autouse=True)
def _passthrough(pytestconfig):
    global _capman
    _capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _orientation(problem):
    return problem.orientation or "forward"


def _verify_example(problem, limit, criterion):
    t0 = time.monotonic()
    rep = engine.verify(problem.F, problem.lax, problem.twist, _orientation(problem))
    dt = time.monotonic() - t0
    ok = rep.passed and rep.compatibility == 0 and rep.symmetry == 0 and dt < limit
    report(criterion, ok,
           f"{problem.name} residuals ({rep.compatibility}, {rep.symmetry}) "
           f"in {dt:.1f}s (< {limit}s)")


def test_criterion_1_example_1_verification(eq5):
    assert eq5.orientation == "swapped"
    _verify_example(eq5, 120, 1)


def test_criterion_2_example_2_verification(dfkn2):
    j = jet_symbols(dfkn2.space)
    assert equal(dfkn2.twist.f[(1, 1)], -j("u", ("z", "x")) / j("u", "x"))
    assert equal(dfkn2.twist.f[(2, 1)], -j("u", ("x", "x")) / j("u", "x"))
    assert dfkn2.twist.f[(1, 0)] == 0 and dfkn2.twist.f[(2, 0)] == 0
    _verify_example(dfkn2, 60, 2)


def test_criterion_3_example_3_verification(dfkn3):
    alpha = sp.Symbol(dfkn3.space.params[0])
    assert all(sp.sympify(e).has(alpha) for e in dfkn3.twist.f.values())
    _verify_example(dfkn3, 120, 3)


@pytest.fixture(scope="module")
def solve_results(eq5, dfkn2, dfkn3):
    """Shared by criteria 4 and 9: solve the whole shipped corpus from
    the default ansatz and keep the emitted branches."""
    out = {}
    for prob in (eq5, dfkn2, dfkn3):
        t0 = time.monotonic()
        basis = engine.default_ansatz(prob.F, prob.lax)
        ds = engine.derive_determining_system(
            prob.F, prob.lax, basis, prob.orientation or "forward")
        sols = engine.solve_determining(ds)
        out[prob.name] = (prob, ds, sols, time.monotonic() - t0)
    return out


def test_criterion_4_solve_mode_recovery(solve_results):
    expectations = {}
    prob5 = solve_results["eq5"][0]
    j = jet_symbols(prob5.space)
    expectations["eq5"] = {
        (1, 0): (j("u", ("y", "r")) - j("u", ("t", "s"))) / j("u", "s"),
        (1, 1): sp.S.Zero,
        (2, 0): (j("u", ("z", "r")) - j("u", ("x", "s"))) / j("u", "s"),
        (2, 1): sp.S.Zero,
    }
    prob2 = solve_results["dfkn2"][0]
    j = jet_symbols(prob2.space)
    expectations["dfkn2"] = {
        (1, 0): sp.S.Zero,
        (1, 1): -j("u", ("z", "x")) / j("u", "x"),
        (2, 0): sp.S.Zero,
        (2, 1): -j("u", ("x", "x")) / j("u", "x"),
    }
    prob3 = solve_results["dfkn3"][0]
    j = jet_symbols(prob3.space)
    alpha = sp.Symbol(prob3.space.params[0])
    f1 = (alpha * (j("u", ("y", "x")) - j("u", ("z", "x")))
          - j("u", ("z", "x"))) / j("u", "x")
    f2 = (alpha * (j("u", ("z", "x")) - j("u", ("t", "x")))
          - j("u", ("t", "x"))) / j("u", "x")
    expectations["dfkn3"] = {(1, 0): f1, (1, 1): f1, (2, 0): f2, (2, 1): f2}

    details = []
    ok = True
    for name, want in expectations.items():
        prob, ds, sols, dt = solve_results[name]
        matched = any(
            all(equal(sol.twist_functions(ds)[slot], want[slot])
                for slot in want)
            for sol in sols)
        ok = ok and matched and dt < 600
        details.append(f"{name}: {len(sols)} branch(es), "
                       f"{'match' if matched else 'no match'} in {dt:.0f}s")
    report(4, ok, "; ".join(details))


def test_criterion_5_negative_controls(dfkn2, rng):
    s = dfkn2.space
    rep_zero = engine.verify(dfkn2.F, dfkn2.lax, zero_twist(s), "forward")
    flipped = dict(dfkn2.twist.f)
    flipped[(1, 1)] = to_form(-flipped[(1, 1)], s)
    rep_flip = engine.verify(dfkn2.F, dfkn2.lax, TwistRelations(flipped), "forward")
    nonzero_confirmed = all(
        probably_nonzero(r, rng, points=8)
        for rep in (rep_zero, rep_flip)
        for r in (rep.compatibility, rep.symmetry) if r != 0)
    ok = (not rep_zero.passed) and (not rep_flip.passed) and nonzero_confirmed
    report(5, ok, "zero twist FAIL, sign-flipped twist FAIL, "
                  "residuals nonzero at 8 random points")


def _perturbed_pair(pair, space):
    """Double one jet-dependent coefficient of one split operator."""
    for attr in ("x0", "x1"):
        ops = list(getattr(pair, attr))
        for i, op in enumerate(ops):
            for v, c in op.dirs:
                if jets_in(space, c):
                    dirs = dict(op.dirs)
                    dirs[v] = 2 * c
                    ops[i] = FirstOrderOperator.make(op.free, dirs)
                    if attr == "x0":
                        return LaxPair(pair.x1, tuple(ops))
                    return LaxPair(tuple(ops), pair.x0)
    raise AssertionError("no jet-dependent coefficient to perturb")


def test_criterion_6_lax_validation(eq5, dfkn2, dfkn3):
    details = []
    ok = True
    for prob in (eq5, dfkn2, dfkn3):
        F = to_form(prob.F, prob.space)
        good = check_lax(prob.lax, F)
        bad = check_lax(_perturbed_pair(prob.lax, prob.space), F)
        ok = ok and good.passed and not bad.passed
        details.append(f"{prob.name}: pair {'PASS' if good.passed else 'FAIL'}"
                       f", perturbed {'FAIL' if not bad.passed else 'PASS'}")
    report(6, ok, "; ".join(details))


def test_criterion_7_linearization_property_suite(eq5, dfkn2, dfkn3, space, rng):
    failures = 0
    for prob in (eq5, dfkn2, dfkn3):
        if first_variation_defect(prob.F, prob.space) != 0:
            failures += 1
    j = jet_symbols(space)
    jets = [j("u"), j("u", "x"), j("u", "y"), j("u", "z"),
            j("u", "xx"), j("u", "xy"), j("u", "yz"), j("u", "zz")]
    for _ in range(20):
        F = random_poly(rng, jets, terms=5, degree=2)
        if first_variation_defect(F, space) != 0:
            failures += 1
    report(7, failures == 0,
           f"{failures} failures over 3 corpus equations + 20 random ones")


def test_criterion_8_kernel_property_suite(space, dfkn2):
    t0 = time.monotonic()
    rng = random.Random(6021023)
    j = jet_symbols(space)
    jets = [j("u"), j("u", "x"), j("u", "y")]

    def small():
        return random_rational(rng, jets, terms=2, degree=1)

    for _ in range(1000):  # idempotence of the kernel's canonical form
        e = small()
        assert canonical(canonical(e)) == canonical(e)

    for _ in range(1000):  # total-derivative commutativity
        e = to_form(small(), space)
        xy = total_derivative(total_derivative(e, "x"), "y")
        yx = total_derivative(total_derivative(e, "y"), "x")
        assert normalize(xy - yx) == 0

    for _ in range(1000):  # Leibniz rule
        a, b = small(), small()
        lhs = total_derivative(to_form(a * b, space), "x")
        rhs = (total_derivative(to_form(a, space), "x") * b
               + a * total_derivative(to_form(b, space), "x"))
        assert normalize(lhs - rhs) == 0

    s2 = dfkn2.space
    rule = solve_for_leading(to_form(dfkn2.F, s2), "u")
    sys2 = RewriteSystem([rule])
    j2 = jet_symbols(s2)
    jets2 = [j2("u", "x"), j2("u", "y"), j2("u", "yz"), j2("u", ("t", "x"))]
    for _ in range(1000):  # reduce is a projection
        e = random_rational(rng, jets2, terms=2, degree=1)
        r = sys2.reduce(to_form(e, s2))
        assert sys2.reduce(r) == r

    dt = time.monotonic() - t0
    report(8, dt < 300, f"4 x 1000 randomized cases, 0 failures, "
                        f"{dt:.0f}s (< 300s)")


def test_criterion_9_closed_loop_soundness(solve_results):
    total, sound = 0, 0
    for name, (prob, ds, sols, _dt) in solve_results.items():
        for sol in sols:
            total += 1
            twist = TwistRelations(sol.twist_functions(ds))
            rep = engine.verify(prob.F, prob.lax, twist, prob.orientation or "forward")
            if rep.passed:
                sound += 1
    report(9, total > 0 and sound == total,
           f"{sound}/{total} emitted solutions re-pass verify")
