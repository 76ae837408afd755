"""One rop invocation in a fresh interpreter, as the benchmark runs it.

    python3 bench/child.py STAMP TRACE [rop arguments...]

Writes ``time.monotonic()`` to STAMP as soon as ``import rop`` returns,
then runs the rop command line with the given arguments and exits with
its code.  Without rop arguments it only imports rop (a set-up probe).

TRACE is ``-`` for an untraced invocation.  Otherwise every public
function and method of the modules in LAYERS is wrapped, from outside
the program, in a recorder of spans, and a summary of the spans is
written to TRACE as JSON when the command ends.  Because modules import
names such as ``normalize`` from one another, each binding of a wrapped
function in any rop module is replaced.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("kernel", "jets", "linearize", "lax", "engine", "problem")


class Tracer:
    """Open spans form a stack; each span knows its parent through it.
    A span's self time is its duration minus the durations of its child
    spans.  Totals are aggregated per wrapped name as spans close."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child seconds]
        self.open: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_nf: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.before(name, args)
            frame = [name, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            tracer.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.open[name] -= 1
                duration = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if tracer.open[name] == 0:
                    tracer.outer_s[name] += duration
                if tracer.stack:
                    tracer.stack[-1][2] += duration
            tracer.after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def before(self, name: str, args) -> None:
        if name == "kernel.normalize" and self.open["engine.solve_determining"]:
            self.counts["engine.solve_determining.normalize_calls"] += 1
        elif name == "engine.build_relations" and self.open["engine.verify"]:
            self.counts["engine.verify.attempts"] += 1
        elif name == "jets.RewriteSystem.normal_form":
            seen = self.seen_nf.setdefault(args[0], set())
            if args[1] in seen:
                self.counts["jets.RewriteSystem.normal_form.repeat_calls"] += 1
            seen.add(args[1])

    def after(self, name: str, result) -> None:
        if name in ("engine.compatibility_residual", "engine.symmetry_residual"):
            # Counting is not part of any span: it happens after the span
            # closed, and is excluded from the parent's self time.
            t0 = time.perf_counter()
            if result != 0:
                numer = result.as_numer_denom()[0]
                self.counts["engine.residual_terms"] += len(numer.args) if numer.is_Add else 1
            if self.stack:
                self.stack[-1][2] += time.perf_counter() - t0
        elif name == "engine.determining_equations_for_twist":
            self.counts["engine.determining_equations"] += len(result)
        elif name == "engine.solve_determining":
            self.counts["engine.solutions"] += len(result)

    def summary(self, import_s: float) -> dict:
        out = {"setup.import_s": import_s}
        for name in ("kernel.normalize", "jets.total_derivative"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in ("jets.RewriteSystem.reduce", "jets.RewriteSystem.normal_form",
                     "linearize.linearize", "engine.verify"):
            out[f"{name}.calls"] = self.calls[name]
        for name in ("jets.RewriteSystem.reduce", "problem.parse_problem",
                     "lax.check_lax", "engine.full_system",
                     "engine.compatibility_residual", "engine.symmetry_residual",
                     "engine.determining_equations_for_twist",
                     "engine.solve_determining"):
            out[f"{name}.s"] = self.outer_s[name]
        out["engine.solve_determining.self_s"] = self.self_s["engine.solve_determining"]
        for name in ("jets.RewriteSystem.normal_form.repeat_calls",
                     "engine.verify.attempts", "engine.residual_terms",
                     "engine.determining_equations",
                     "engine.solve_determining.normalize_calls", "engine.solutions"):
            out[name] = self.counts[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.split(".", 1)[0] == layer)
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer and rebind
    each wrapped function wherever a rop module holds it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "rop" or n.startswith("rop.")]
    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"rop.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    if isinstance(raw, staticmethod):
                        setattr(obj, meth, staticmethod(tracer.wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(obj, meth, tracer.wrap(name, raw))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])


def main(argv: list[str]) -> int:
    stamp_path, trace_path, rop_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import rop  # noqa: F401  (the set-up being timed)
    import_s = time.perf_counter() - t0
    with open(stamp_path, "w") as fh:
        fh.write(repr(time.monotonic()))
    if not rop_args:
        return 0
    from rop import cli
    if trace_path == "-":
        return cli.main(rop_args)
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(rop_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.summary(import_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
