"""Benchmark of the rop command line: verify, reject and solve workloads.

    python3 bench/run.py --workload verify|reject|solve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (``src/rop`` and ``problems``).
Every operation is one ``rop`` invocation in a fresh interpreter, run
one at a time from this process, exactly as a user of the command line
pays for it.  The run repeats whole rounds of its workload's operations
until S seconds have passed, checks every answer, and prints one JSON
object as the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
over rounds of the round's total invocation wall time), ``setup_s``
(median over the run's interpreter starts of the time until ``import
rop`` returns) and ``peak_rss_mb`` (largest peak resident set of any
invocation).  With ``--trace 1`` the same rounds run with every layer
wrapped in span recorders (see child.py) and the per-layer metrics are
reported, each the median over rounds of its per-round total.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

PROBES = 5  # import-only interpreter starts per run, for setup_s
CAP_S = {"lax-check": 30, "verify": 30, "solve": 90}  # ROP_TIMEOUT_SECS
KILL_MARGIN_S = 15  # a child still alive this long after its cap is killed


@dataclass
class Op:
    """One rop invocation and the answer it must give."""
    label: str
    command: str
    path: Path
    expect: str  # PASS or FAIL


def workload_ops(workload: str, rng: random.Random, run_dir: Path) -> list[Op]:
    ops = []
    if workload == "verify":
        for name in inputs.PROBLEMS:
            path = ROOT / "problems" / f"{name}.rop"
            ops += [Op(f"{name}/lax-check", "lax-check", path, "PASS"),
                    Op(f"{name}/verify", "verify", path, "PASS")]
    elif workload == "reject":
        for name, kind, text in inputs.reject_inputs(ROOT, rng):
            path = run_dir / f"{name}-{kind}.rop"
            path.write_text(text)
            if kind == "doubled-lax":
                ops.append(Op(f"{name}/{kind}/lax-check", "lax-check", path, "FAIL"))
            ops.append(Op(f"{name}/{kind}/verify", "verify", path, "FAIL"))
    else:
        for name in ("dfkn2", "dfkn3"):
            text = (ROOT / "problems" / f"{name}.rop").read_text()
            path = run_dir / f"{name}-ansatz.rop"
            path.write_text(inputs.solve_input(name, text, rng))
            ops.append(Op(f"{name}/solve", "solve", path, "PASS"))
    return ops


def check(op: Op, code: int, doc: dict, rng: random.Random) -> bool:
    """Whether an answer that was given is the known right one."""
    if doc["verdict"] != op.expect or code != (0 if op.expect == "PASS" else 1):
        return False
    if op.command == "solve":
        sols = doc["solutions"]
        if len(sols) != 1 or not sols[0]["reverified"]:
            return False
        want = inputs.expected_twist(op.label.split("/")[0])
        return all(checks.same_function(sols[0]["twist"][slot], want[slot])
                   for slot in inputs.SLOTS)
    if op.expect == "PASS":
        return all(r == "0" for r in doc["residuals"]) and all(
            r["verdict"] == "PASS" for r in doc.get("results", []))
    return checks.some_nonzero(doc["residuals"], rng)


class Runner:
    def __init__(self, run_dir: Path, hashseed: int, trace: bool):
        self.run_dir = run_dir
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED=str(hashseed))
        self.setup_samples: list[float] = []
        self.count = 0

    def start(self, rop_args: list[str], cap: int | None = None):
        """Run one child interpreter; returns (exit code or None on a
        kill, wall seconds, stdout, trace summary or None)."""
        self.count += 1
        stamp = self.run_dir / f"stamp-{self.count}"
        trace = self.run_dir / f"trace-{self.count}.json" if self.trace and rop_args else None
        env = dict(self.env, ROP_TIMEOUT_SECS=str(cap)) if cap else self.env
        cmd = [sys.executable, str(BENCH / "child.py"), str(stamp),
               str(trace) if trace else "-", *rop_args]
        with open(self.run_dir / "stdout", "w+b") as out, \
                open(self.run_dir / "stderr", "wb") as err:
            t_mono, t0 = time.monotonic(), time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
            try:
                code = proc.wait(timeout=(cap or 60) + KILL_MARGIN_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            wall = time.perf_counter() - t0
            out.seek(0)
            stdout = out.read().decode()
        if stamp.exists():
            self.setup_samples.append(float(stamp.read_text()) - t_mono)
        summary = json.loads(trace.read_text()) if trace and trace.exists() else None
        return code, wall, stdout, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["verify", "reject", "solve"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    missing = [p for p in [ROOT / "src" / "rop" / "cli.py"]
               + [ROOT / "problems" / f"{n}.rop" for n in inputs.PROBLEMS]
               if not p.is_file()]
    if missing:
        print(f"error: not a rop source checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    rng = random.Random(f"{args.workload}/{args.seed}")
    point_rng = random.Random(f"points/{args.seed}")
    run_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workload_ops(args.workload, rng, run_dir)
    runner = Runner(run_dir, rng.randrange(2**32), bool(args.trace))

    runner.start([])  # warm-up: byte-code and file caches, not measured
    runner.setup_samples.clear()
    for _ in range(PROBES):
        runner.start([])

    attempted = failed = 0
    correct = True
    rounds: list[dict] = []
    import_s: list[float] = []
    op_walls: dict[str, list[float]] = {op.label: [] for op in ops}
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        wall, layers = 0.0, {}
        for op in ops:
            attempted += 1
            code, dt, stdout, summary = runner.start(
                [op.command, str(op.path), "--json"], CAP_S[op.command])
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                doc = None
            if code not in (0, 1) or doc is None or doc.get("verdict") == "ERROR" \
                    or (args.trace and summary is None):
                failed += 1
                tail = (run_dir / "stderr").read_text().strip().splitlines()[-1:]
                print(f"failed: {op.label} (exit {code}) {' '.join(tail)}", file=sys.stderr)
                continue
            if not check(op, code, doc, point_rng):
                correct = False
                print(f"wrong answer: {op.label}", file=sys.stderr)
            wall += dt
            op_walls[op.label].append(dt)
            for key, value in (summary or {}).items():
                if key == "setup.import_s":
                    import_s.append(value)
                else:
                    layers[key] = layers.get(key, 0) + value
        rounds.append({"wall_s": wall, **layers})

    for label, walls in op_walls.items():
        if walls:
            print(f"{label}: median {statistics.median(walls):.3f} s over {len(walls)}")
    print(f"rounds: {len(rounds)}, round wall: "
          + ", ".join(f"{r['wall_s']:.3f}" for r in rounds))

    def med(key):
        return statistics.median(r.get(key, 0) for r in rounds)

    if args.trace:
        metrics = {"setup.import_s": {"value": statistics.median(import_s or [0.0]),
                                     "unit": "s"}}
        for name in sorted(rounds[0]):
            if name != "wall_s":
                unit = "s" if name.endswith(("_s", ".s")) else "count"
                metrics[name] = {"value": med(name), "unit": unit}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(runner.setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
