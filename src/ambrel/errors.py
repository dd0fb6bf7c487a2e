"""Exception types shared across the package.

Validation failures carry a machine-readable ``code`` (a short CamelCase
tag) and a ``witness`` built from plain labels, so reports can be emitted
as JSON without further translation.
"""

from __future__ import annotations

import numpy as np


class ValidationError(ValueError):
    """A candidate object violates one of its defining axioms."""

    def __init__(self, code: str, message: str, witness=None):
        super().__init__(message)
        self.code = code
        self.witness = witness

    def report(self) -> dict:
        return {
            "verdict": "invalid",
            "error": self.code,
            "witness": self.witness,
            "detail": str(self),
        }


class SpaceMismatch(ValueError):
    """Two operands live over different spaces (or lattices) and cannot be combined."""


class SpaceTooLarge(ValueError):
    """Input exceeds the hard size gate of an exact enumeration path."""


class LatticeTooLarge(ValueError):
    """Lattice too large for a definitional (enumeration-based) check."""


class LatticeIsChain(ValueError):
    """The construction requires a pair of incomparable lattice elements."""


class MalformedInput(ValueError):
    """Unreadable or schema-violating external input."""


def raise_first(*checks) -> None:
    """Raise the violation that nested loops over the indices meet first.

    ``checks`` are ``(code, message, mask, witness)`` in the order the
    loops test them, each mask nonzero where its axiom fails.  The loops run
    row-major over the axes all masks share and test every check there in
    turn; a mask's further axes run innermost.  ``witness(*index)`` builds
    the report's witness from the violating index, given as Python ints.
    Valid input costs one ``count_nonzero`` per mask.  The validators name
    their first violation through this search wherever the loops run over
    indices; two checks walk their input's own order instead (union-join
    in ``capacity.validate_subgraph``, the cut family in ``fuzzy.from_cuts``).
    """
    for check in checks:
        if np.count_nonzero(check[2]):  # a third of the cost of .any() on small masks
            break
    else:
        return
    lead = min(mask.ndim for _, _, mask, _ in checks)
    bad = np.logical_or.reduce(
        [mask.reshape(mask.shape[:lead] + (-1,)).any(axis=-1) for _, _, mask, _ in checks]
    )
    at = np.unravel_index(bad.argmax(), bad.shape)
    code, message, mask, witness = next(check for check in checks if check[2][at].any())
    rest = np.unravel_index(np.flatnonzero(mask[at])[0], mask[at].shape)
    raise ValidationError(code, message, witness(*map(int, (*at, *rest))))
