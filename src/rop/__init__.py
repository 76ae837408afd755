"""Recursion operators of twisted Lax-pair form for second-order
multidimensional PDEs: exact symbolic derivation and verification."""

import gc as _gc

# sympy's import leaves ~50k objects and frees almost none of them, so
# the collections it would trigger are pure cost.
_gc_enabled = _gc.isenabled()
_gc.disable()
try:
    from .engine import (RelationSet, TwistRelations, VerifyReport,
                         build_relations, compatibility_residual, default_ansatz,
                         derive_determining_system, solve_determining,
                         symmetry_residual, verify)
    from .jets import JetSpace, RewriteRule, RewriteSystem, total_derivative
    from .lax import FirstOrderOperator, LaxPair, check_lax, split_lambda
    from .linearize import linearize
    from .problem import Problem, parse_problem
finally:
    if _gc_enabled:
        _gc.enable()

__all__ = [
    "FirstOrderOperator", "JetSpace", "LaxPair", "Problem", "RelationSet",
    "RewriteRule", "RewriteSystem", "TwistRelations", "VerifyReport",
    "build_relations", "check_lax", "compatibility_residual",
    "default_ansatz", "derive_determining_system", "linearize",
    "parse_problem", "solve_determining", "split_lambda",
    "symmetry_residual", "total_derivative", "verify",
]
