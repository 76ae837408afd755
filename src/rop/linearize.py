"""Formal linearization of the equation's left-hand side.

For F depending on u-jets up to order k, the linearization is the linear
differential operator

    sum over jets u_alpha present in F of  (dF/du_alpha) * D_alpha

whose application to a perturbation replaces D_alpha by the alpha-jet of
the perturbation.  F is a Form, and each partial derivative is
``Form.derive`` with the partial derivative of the polynomial ring, so
the coefficients are Forms of F's ring, whose space names the jets.
Works for any k; nothing here is tied to order 2.
"""

from __future__ import annotations

from typing import NamedTuple

from .jets import JetRing
from .kernel import Form


class WrongUnknownError(ValueError):
    """F must be an expression in u-jets and independent variables only."""


class LinearDifferentialOperator(NamedTuple):
    """Coefficient map from sorted derivative multi-index to coefficient.

    The empty index is the zeroth-order term; applying the operator to
    the constant 1 returns exactly that coefficient.  The coefficients
    are Forms of ``ring``.
    """
    coeffs: tuple[tuple[tuple[str, ...], Form], ...]
    ring: JetRing

    def apply_to(self, unknown: str) -> Form:
        """Apply to the zeroth jet of an unknown: D_alpha becomes the
        alpha-jet.  Result is linear in the target's jets; a Form of the
        operator's ring."""
        ring = self.ring
        return ring.combine([(c, ring.symbol(ring.space.jet(unknown, idx)))
                             for idx, c in self.coeffs])


def linearize(F: Form) -> LinearDifferentialOperator:
    """Linearization operator of F; coefficients are the partial
    derivatives of F with respect to each jet variable present."""
    ring = F.ring
    coeffs = []
    for s in sorted(F.free_symbols):
        jv = ring.space.jet_var(s)
        if jv is None:
            continue
        if jv.unknown != "u":
            raise WrongUnknownError(f"F depends on {s}, not a u-jet")
        i = ring.index[s]
        c = F.derive(lambda p: p.diff(i), lambda _key: None)
        if c != 0:
            coeffs.append((jv.index, c))
    coeffs.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return LinearDifferentialOperator(tuple(coeffs), ring)
