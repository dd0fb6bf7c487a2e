"""Lattice-valued capacities and their subgraph characterization.

A capacity is a monotone set function on all subsets of a space
(including the empty set) that sends the empty set to bottom and the
whole space to top.  Each source-set fiber of a graded representation is
the subgraph of one; extraction and the antitone dependence on the
source set are the bridge between representations and measures.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import ValidationError, raise_first
from .fuzzy import LFuzzyAmbRep
from .hyperspace import FiniteSpace, _frozen, _superset_matrix
from .lattice import FiniteLattice


@lru_cache(maxsize=None)
def _cover_steps(space: FiniteSpace) -> tuple[np.ndarray, np.ndarray]:
    """Every cover step ``m -> m | 1 << i`` (bit ``i`` not in ``m``) between
    nonempty subsets, as the index arrays ``(m - 1, (m | 1 << i) - 1)``,
    in the ``(m, i)`` order of a loop over sets and then bits."""
    masks = np.arange(1, space.full + 1)[:, None]
    bits = 1 << np.arange(space.size)
    keep = masks & bits == 0
    small = np.broadcast_to(masks, keep.shape)[keep]
    return _frozen(small - 1), _frozen((masks | bits)[keep] - 1)


class LCapacity:
    """A validated capacity: ``values[mask]`` grades each subset mask."""

    __slots__ = ("space", "lattice", "values")

    def __init__(self, space: FiniteSpace, lattice: FiniteLattice, values):
        self.space = space
        self.lattice = lattice
        arr = np.array(values, dtype=np.intp)
        if arr.shape != (space.full + 1,):
            raise ValidationError(
                "BadValueTable", f"need {space.full + 1} values, got {arr.shape}"
            )
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def _of_row(cls, space: FiniteSpace, lattice: FiniteLattice, row: np.ndarray) -> LCapacity:
        # wraps a read-only row of the right shape as it is, without a copy
        cap = object.__new__(cls)
        cap.space, cap.lattice, cap.values = space, lattice, row
        return cap

    def __call__(self, mask: int) -> int:
        return int(self.values[mask])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LCapacity)
            and self.space == other.space
            and self.lattice == other.lattice
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.space, self.lattice, self.values.tobytes()))

    def __repr__(self) -> str:
        vals = {self.space.labels(m): self.lattice.elements[v] for m, v in enumerate(self.values)}
        return f"LCapacity({vals})"


def validate_capacity(space: FiniteSpace, lattice: FiniteLattice, values) -> LCapacity:
    """Check the entries are element indices (``BadValueTable``), then the
    bounds and monotonicity of a candidate value table.

    Each check is one test on the whole table, and the witness is searched
    only when it fails: the first violation in the order of
    :func:`ambrel.oracle.validate_capacity_loops`.
    """
    cap = LCapacity(space, lattice, values)
    v = cap.values
    # a negative entry is a large one in the unsigned view
    if np.maximum.reduce(v.view(np.uintp)) >= lattice.size:
        raise_first(("BadValueTable", f"values must be element indices 0..{lattice.size - 1}",
                     (v < 0) | (v >= lattice.size), lambda f: [list(space.labels(f)), int(v[f])]))
    low, high = v.item(0), v.item(space.full)
    if low != lattice.bottom or high != lattice.top:
        raise ValidationError(
            "BadBounds",
            "the empty set must get bottom and the whole space top",
            witness=[lattice.elements[low], lattice.elements[high]],
        )
    # short[k]: the value at small_k is not below the value at large_k.
    # The bounds hold, so steps from the empty set pass, and monotone on
    # cover steps is monotone (docs/properties.md)
    d = lattice.down[v[1:]]
    small, large = _cover_steps(space)
    short = d[small] & ~d[large]
    if np.count_nonzero(short):
        raise_first(("NotMonotone", "values must rise with the set", short,
                     lambda k: [list(space.labels(m + 1)) for m in (small[k], large[k])]))
    return cap


def minimal_capacity(space: FiniteSpace, lattice: FiniteLattice) -> LCapacity:
    values = [lattice.bottom] * (space.full + 1)
    values[space.full] = lattice.top
    return LCapacity(space, lattice, values)


def capacity_of(rep: LFuzzyAmbRep, a: int) -> LCapacity:
    """The capacity graded by the fiber of the representation at ``a``."""
    if not 1 <= a <= rep.source.full:
        raise ValidationError("BadSubset", f"source subset mask {a} out of range")
    values = np.concatenate(([rep.lattice.bottom], rep.grades[a - 1]))
    return LCapacity(rep.target, rep.lattice, values)


def capacities_of(rep: LFuzzyAmbRep) -> dict[int, LCapacity]:
    """Batch extraction over every nonempty source subset.

    One read-only table holds every fiber, bottom first; each capacity's
    ``values`` is a row of it, so nothing is copied per fiber.
    """
    table = np.empty((rep.source.full, rep.target.full + 1), dtype=np.intp)
    table[:, 0] = rep.lattice.bottom
    table[:, 1:] = rep.grades
    table.setflags(write=False)
    return {a: LCapacity._of_row(rep.target, rep.lattice, row) for a, row in enumerate(table, 1)}


# -- subgraph view -----------------------------------------------------------


def capacity_subgraph(cap: LCapacity) -> frozenset[tuple[int, int]]:
    """All pairs ``(mask, alpha)`` with ``mask`` nonempty and ``alpha`` at
    most the capacity of the set."""
    lat = cap.lattice
    return frozenset(
        (f, alpha)
        for f in cap.space.subsets()
        for alpha in range(lat.size)
        if lat.le(alpha, cap(f))
    )


def validate_subgraph(
    space: FiniteSpace, lattice: FiniteLattice, pairs: Iterable[tuple[int, int]]
) -> LCapacity:
    """Recognize a pair set as the subgraph of a capacity.

    Conditions checked with witnesses: the floor (all sets at grade
    bottom, the whole space at every grade) is present (``MissingFloor``);
    the set is up-closed in the set argument and down-closed in the grade
    (``NotDownSetInAlpha``); and grades of two members join within the set
    of their union (``UnionJoinViolated``).  Closedness holds vacuously
    over a finite space.  Returns the unique capacity with this subgraph.

    A pair set is a subgraph exactly when its join candidate, the join of
    the grades held at each set, is a capacity whose subgraph is the pair
    set (``docs/properties.md``).  So the candidate is built and returned
    when it passes; the conditions above are searched for their first
    violation only when it does not, and one of them then fails.
    """
    pset = set(pairs)
    listed = list(pset)  # the set's own order, which the witnesses follow
    flat = np.fromiter(chain.from_iterable(listed), dtype=np.intp, count=2 * len(listed))
    fs, alphas = flat.reshape(-1, 2).T
    out_of_range = (fs < 1) | (fs > space.full) | (alphas < 0) | (alphas >= lattice.size)
    if out_of_range.any():
        f, alpha = listed[int(out_of_range.argmax())]
        raise ValidationError("BadPair", f"pair ({f}, {alpha}) out of range")
    # held[f - 1, alpha]: the pair (f, alpha) is in the set
    held = np.zeros((space.full, lattice.size), dtype=bool)
    held[fs - 1, alphas] = True
    # the join of the grades held at f: the OR of their down masks
    values = np.full(space.full + 1, lattice.bottom, dtype=np.intp)
    values[1:] = lattice.from_down(np.bitwise_or.reduce(held * lattice.down, axis=1))
    if np.array_equal(lattice.leq.T[values[1:]], held):
        try:
            return validate_capacity(space, lattice, values)
        except ValidationError:
            pass
    _raise_first_violation(space, lattice, listed, held)
    raise AssertionError("a rejected pair set violates a subgraph condition")


def _raise_first_violation(
    space: FiniteSpace,
    lattice: FiniteLattice,
    listed: list[tuple[int, int]],
    held: np.ndarray,
) -> None:
    """Raise the first subgraph condition the pair set ``listed`` violates,
    in the order and with the witness of
    :func:`ambrel.oracle.validate_subgraph_loops`."""
    elements = lattice.elements
    raise_first(("MissingFloor", "every nonempty set must appear at grade bottom",
                 ~held[:, lattice.bottom],
                 lambda f: [list(space.labels(f + 1)), elements[lattice.bottom]]))
    raise_first(("MissingFloor", "the whole space must appear at every grade",
                 ~held[space.full - 1],
                 lambda alpha: [list(space.labels(space.full)), elements[alpha]]))
    # [k, g - 1, beta]: the k-th listed pair (f, alpha) has f <= g and
    # beta <= alpha, and (g, beta) is not held
    fs, alphas = np.array(listed).T
    raise_first(("NotDownSetInAlpha", "subgraphs grow with the set and shrink with the grade",
                 _superset_matrix(space)[fs - 1, :, None] & lattice.leq.T[alphas, None] & ~held,
                 lambda k, g, beta: [list(space.labels(listed[k][0])), elements[listed[k][1]],
                                     list(space.labels(g + 1)), elements[beta]]))
    jt = lattice.join_table
    by_set = {f: set() for f in space.subsets()}
    for f, alpha in listed:
        by_set[f].add(alpha)
    # each set's grades in the order the pair set fills them, as the oracle walks them
    grades = {f: list(alphas) for f, alphas in by_set.items()}
    for f, grades_f in grades.items():
        for g, grades_g in grades.items():
            short = ~held[(f | g) - 1, jt[np.ix_(grades_f, grades_g)]]
            if short.any():
                i, j = divmod(int(short.argmax()), len(grades_g))
                raise ValidationError(
                    "UnionJoinViolated",
                    "grades of a union must reach the join of the parts",
                    witness=[
                        list(space.labels(f)),
                        elements[grades_f[i]],
                        list(space.labels(g)),
                        elements[grades_g[j]],
                    ],
                )
