"""Recursion operators of twisted Lax-pair form for second-order
multidimensional PDEs: exact symbolic derivation and verification."""

from .engine import (RelationSet, TwistRelations, VerifyReport,
                     build_relations, compatibility_residual, default_ansatz,
                     derive_determining_system, solve_determining,
                     symmetry_residual, verify)
from .jets import JetSpace, RewriteRule, RewriteSystem, total_derivative
from .lax import FirstOrderOperator, LaxPair, check_lax, split_lambda
from .linearize import linearize
from .problem import Problem, parse_problem

__all__ = [
    "FirstOrderOperator", "JetSpace", "LaxPair", "Problem", "RelationSet",
    "RewriteRule", "RewriteSystem", "TwistRelations", "VerifyReport",
    "build_relations", "check_lax", "compatibility_residual",
    "default_ansatz", "derive_determining_system", "linearize",
    "parse_problem", "solve_determining", "split_lambda",
    "symmetry_residual", "total_derivative", "verify",
]
