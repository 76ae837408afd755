"""Command-line front end.

Subcommands: lax-check, linearize, verify, solve, hierarchy.  Exit codes:
0 on PASS / solutions found, 1 on FAIL / no solutions, 2 on error.  With
--json a single machine-readable document is printed instead of the
human rendering; both carry the same data.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import engine, lax
from .linearize import linearize as linearize_equation
from .engine import SLOTS
from .kernel import ONE, DegenerateExpressionError, fmt
from .problem import Problem, ProblemSyntaxError, parse_basis, parse_problem


class CliError(Exception):
    pass


@contextmanager
def _time_limit(seconds: int | None):
    if not seconds:
        yield
        return

    def on_alarm(_sig, _frame):
        raise TimeoutError(f"computation exceeded {seconds} s (ROP_TIMEOUT_SECS)")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _orientations(problem: Problem, flag: str | None) -> list[str]:
    choice = flag or problem.orientation or "both"
    if choice == "both":
        return ["forward", "swapped"]
    return [choice]


def _basis_for(problem: Problem, basis_arg: str) -> dict:
    basis = engine.default_ansatz(problem.F, problem.lax)
    explicit = problem.ansatz
    if basis_arg not in (None, "auto"):
        explicit = parse_basis(Path(basis_arg).read_text(), problem)
    basis.update(explicit or {})
    return basis


def cmd_lax_check(problem: Problem, args) -> dict:
    report = lax.check_lax(problem.lax, problem.F)
    return {
        "verdict": "PASS" if report.passed else "FAIL",
        "residuals": [fmt(r) for r in report.residuals],
        "multipliers": [fmt(m) for m in report.multipliers] if report.multipliers else None,
        "assumptions": [fmt(a) for a in report.assumptions],
        "notes": report.note,
    }


def cmd_linearize(problem: Problem, args) -> dict:
    op = linearize_equation(problem.F)
    terms = [{"index": list(idx), "coefficient": fmt(c)} for idx, c in op.coeffs]
    return {
        "verdict": "PASS",
        "linearization": terms,
        "applied_to_seed": fmt(op.apply_to("U")),
    }


def cmd_verify(problem: Problem, args) -> dict:
    return _verify(problem, _orientations(problem, args.orientation))[0]


def _verify(problem: Problem, orientations: list[str]) -> tuple[dict, dict]:
    """The document of the twist verified in each orientation, and the
    engine's results; a degenerate orientation is an ERROR result."""
    if problem.twist is None:
        raise CliError("problem file has no twist block; 'verify' and "
                       "'hierarchy' need one")
    reports = engine.verify_each(problem.F, problem.lax, problem.twist, orientations)
    results = []
    assumptions: list[str] = []
    for orientation, rep in reports.items():
        if isinstance(rep, lax.DegeneratePairError):
            results.append({"orientation": orientation, "verdict": "ERROR", "error": str(rep)})
            continue
        for a in rep.assumptions:
            if fmt(a) not in assumptions:
                assumptions.append(fmt(a))
        results.append({
            "orientation": orientation,
            "verdict": "PASS" if rep.passed else "FAIL",
            "compatibility_residual": fmt(rep.compatibility),
            "symmetry_residual": fmt(rep.symmetry),
            "timings": rep.timings,
        })
    ran = [r for r in results if r["verdict"] != "ERROR"]
    return {
        "verdict": "PASS" if any(r["verdict"] == "PASS" for r in ran) else "FAIL",
        "results": results,
        "residuals": [r["compatibility_residual"] for r in ran]
                     + [r["symmetry_residual"] for r in ran],
        "assumptions": assumptions,
    }, reports


def cmd_solve(problem: Problem, args) -> dict:
    kept, rejected = [], []
    warnings = list(problem.warnings)
    results = engine.solve(problem.F, problem.lax, _basis_for(problem, args.basis),
                           _orientations(problem, args.orientation), args.branch_bound)
    for orientation, res in results.items():
        if isinstance(res, lax.DegeneratePairError):
            warnings.append(f"orientation {orientation}: {res}")
            continue
        ds, solutions, partial = res
        if partial:
            warnings.append(partial + "; solutions may be missing")
        for sol, fs, rep in solutions:
            (kept if rep.passed else rejected).append({
                "orientation": orientation,
                "twist": {f"f{i}_{s}": fmt(fs[(i, s)]) for (i, s) in SLOTS},
                "free_constants": [str(c) for c in sol.free],
                "reverified": rep.passed,
            })
        nok = sum(rep.passed for _, _, rep in solutions)
        warnings.append(f"orientation {orientation}: {len(ds.equations)} "
                        f"determining equations, {len(ds.unknowns)} unknowns, "
                        f"{len(solutions)} branch(es), {nok} reverified")
    return {
        "verdict": "PASS" if kept else "FAIL",
        "solutions": kept,
        "rejected": rejected,
        "warnings": warnings,
    }


def cmd_hierarchy(problem: Problem, args) -> dict:
    """The problem's relations in the first orientation whose twist
    passes verify, chained k times: level j maps psi_j (U) to psi_{j+1}
    (Ut).  No orientation passing is a FAIL with no relations."""
    doc, reports = _verify(problem, _orientations(problem, None))
    passed = [r["orientation"] for r in doc["results"] if r["verdict"] == "PASS"]
    rels = []
    if passed:
        relset = reports[passed[0]].relations
        jets = {k: problem.space.jet_var(k).unknown
                for rel in relset.relations for k in rel.terms if k is not ONE}
        for j in range(args.k):
            ren = {s: s.replace(unknown, f"psi_{j + (unknown == 'Ut')}", 1)
                   for s, unknown in jets.items()}
            rels += [f"{fmt(e.renamed(ren))} = 0" for e in relset.relations]
    return {**doc, "orientation": passed[0] if passed else None,
            "relations": rels, "levels": args.k}


COMMANDS = {
    "lax-check": cmd_lax_check,
    "linearize": cmd_linearize,
    "verify": cmd_verify,
    "solve": cmd_solve,
    "hierarchy": cmd_hierarchy,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rop",
        description="Derive and verify twisted recursion operators for "
                    "second-order multidimensional PDEs with lambda-linear "
                    "Lax pairs.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--max-order", type=_at_least(1), default=None)
        p.add_argument("--json", action="store_true")
        if name in ("verify", "solve"):
            p.add_argument("--orientation", choices=["forward", "swapped", "both"],
                           default=None)
        if name == "solve":
            p.add_argument("--branch-bound", type=_at_least(0), default=64)
            p.add_argument("--basis", default="auto",
                           help="'auto' or a path to a file of ansatz lines, "
                                "read with the problem's vars, param and let lines")
        if name == "hierarchy":
            p.add_argument("--k", type=_at_least(1), default=1)
    return ap


def _at_least(minimum: int):
    """Validator of an integer argument of at least minimum."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _timeout_secs() -> int:
    """ROP_TIMEOUT_SECS, an integer from 0 to what signal.alarm takes
    (2**31 - 1); unset or 0 is no limit."""
    text = os.environ.get("ROP_TIMEOUT_SECS") or "0"
    if not text.isdecimal() or int(text) > 2**31 - 1:
        raise CliError("ROP_TIMEOUT_SECS must be an integer from 0 to 2147483647, "
                       f"got {text!r}")
    return int(text)


def render_human(doc: dict) -> str:
    lines = [f"problem: {doc['problem']}", f"command: {doc['command']}",
             f"verdict: {doc['verdict']}"]
    for r in doc.get("results", []):
        lines.append(f"  [{r['orientation']}] {r['verdict']}")
        if "error" in r:
            lines.append(f"    error: {r['error']}")
            continue
        lines.append(f"    compatibility residual: {r['compatibility_residual']}")
        lines.append(f"    symmetry residual:      {r['symmetry_residual']}")
    for t in doc.get("linearization", []):
        idx = "".join(t["index"]) or "(zeroth order)"
        lines.append(f"  D_{idx}: {t['coefficient']}")
    for s in doc.get("solutions", []):
        lines.append(f"  solution [{s['orientation']}]"
                     + (f" free: {', '.join(s['free_constants'])}" if s["free_constants"] else ""))
        for slot, val in s["twist"].items():
            lines.append(f"    {slot} = {val}")
    for r in doc.get("relations", []):
        lines.append(f"  {r}")
    if doc.get("residuals"):
        nonzero = [r for r in doc["residuals"] if r != "0"]
        if nonzero:
            lines.append("nonzero residuals:")
            lines.extend(f"  {r}" for r in nonzero)
    if doc.get("multipliers"):
        lines.append(f"multipliers: a = {doc['multipliers'][0]}, "
                     f"b = {doc['multipliers'][1]}")
    if doc.get("assumptions"):
        lines.append("assuming nonzero: " + ", ".join(doc["assumptions"]))
    for w in doc.get("warnings", []):
        lines.append(f"warning: {w}")
    if doc.get("notes"):
        lines.append(f"note: {doc['notes']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    # Keep the import heap out of this run's collections and out of the
    # collector's pass at interpreter exit.
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        timeout = _timeout_secs()
        with _time_limit(timeout):
            problem = parse_problem(Path(args.file).read_text(), max_order=args.max_order)
            t0 = time.monotonic()
            doc = COMMANDS[args.command](problem, args)
            total = time.monotonic() - t0
    except (ProblemSyntaxError, CliError, TimeoutError, OSError, ValueError,
            DegenerateExpressionError) as exc:
        msg = f"error: {exc}"
        if args.json:
            print(json.dumps({"command": args.command, "verdict": "ERROR",
                              "error": str(exc)}))
        else:
            print(msg, file=sys.stderr)
        return 2
    doc = {"problem": problem.name, "command": args.command, **doc,
           "warnings": doc.get("warnings", problem.warnings), "timings": {"total": total}}
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_human(doc))
    return 0 if doc["verdict"] == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
