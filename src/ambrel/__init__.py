"""Algebra of crisp and lattice-graded ambiguous representations.

A representation relates nonempty subsets of one finite space to
nonempty subsets of another, reading "this set can stand for that one";
graded variants score the relation in a finite distributive lattice.
The package provides the traversal duality, pseudo-inversion,
compositions, the lattice structure on representations, capacities,
the saturation/encoding machinery, worked geometric examples, and
definitional oracles plus law checkers for all of it.  The oracles are
not imported with the package: ``from ambrel import oracle`` loads them.
"""

from . import capacity, catalog, crisp, fuzzy, generators, hyperencoding, io, laws
from .capacity import (
    LCapacity,
    capacities_of,
    capacity_of,
    capacity_subgraph,
    validate_capacity,
    validate_subgraph,
)
from .crisp import CrispAmbRep
from .errors import (
    LatticeIsChain,
    LatticeTooLarge,
    MalformedInput,
    SpaceMismatch,
    SpaceTooLarge,
    ValidationError,
)
from .fuzzy import LFuzzyAmbRep
from .hyperencoding import TernaryHyperRelation, encode, family_sup, is_encoded
from .hyperspace import (
    FiniteSpace,
    InclusionHyperspace,
    antichain,
    family_of,
    full_family,
    is_inclusion_hyperspace,
    members,
    space,
    traversal,
    upward_closure,
)
from .lattice import (
    FiniteLattice,
    TNormTable,
    meet_tnorm,
    validate_lattice,
    validate_tnorm,
    way_below,
)
from .laws import check_fuzzy_laws, check_laws, search_law

__version__ = "0.1.0"
