"""Lattice-valued capacities and their subgraph characterization.

A capacity is a monotone set function on all subsets of a space
(including the empty set) that sends the empty set to bottom and the
whole space to top.  Each source-set fiber of a graded representation is
the subgraph of one; extraction and the antitone dependence on the
source set are the bridge between representations and measures.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .fuzzy import LFuzzyAmbRep
from .hyperspace import FiniteSpace, _grow_index, _superset_matrix, _union_index
from .lattice import FiniteLattice


class LCapacity:
    """A validated capacity: ``values[mask]`` grades each subset mask."""

    __slots__ = ("space", "lattice", "values")

    def __init__(self, space: FiniteSpace, lattice: FiniteLattice, values):
        self.space = space
        self.lattice = lattice
        arr = np.asarray(values, dtype=np.intp).copy()
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
    bounds and monotonicity of a candidate value table."""
    cap = LCapacity(space, lattice, values)
    v = cap.values
    outside = (v < 0) | (v >= lattice.size)
    if outside.any():
        f = int(outside.argmax())
        raise ValidationError(
            "BadValueTable",
            f"values must be element indices 0..{lattice.size - 1}",
            witness=[list(space.labels(f)), int(v[f])],
        )
    if v[0] != lattice.bottom or v[space.full] != lattice.top:
        raise ValidationError(
            "BadBounds",
            "the empty set must get bottom and the whole space top",
            witness=[lattice.elements[int(v[0])], lattice.elements[int(v[space.full])]],
        )
    # rises[f, i]: the value at f is not below the value at f | 1 << i; a
    # bit already in f compares a value with itself, which reflexivity passes
    rises = ~lattice.leq[v[:, None], v[_grow_index(space)]]
    if rises.any():
        f, i = divmod(int(rises.argmax()), space.size)
        raise ValidationError(
            "NotMonotone",
            "values must rise with the set",
            witness=[list(space.labels(f)), list(space.labels(f | (1 << i)))],
        )
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
    missing = ~held[:, lattice.bottom]
    if missing.any():
        f = int(missing.argmax()) + 1
        raise ValidationError(
            "MissingFloor",
            "every nonempty set must appear at grade bottom",
            witness=[list(space.labels(f)), lattice.elements[lattice.bottom]],
        )
    missing = ~held[space.full - 1]
    if missing.any():
        alpha = int(missing.argmax())
        raise ValidationError(
            "MissingFloor",
            "the whole space must appear at every grade",
            witness=[list(space.labels(space.full)), lattice.elements[alpha]],
        )
    leq, jt = lattice.leq, lattice.join_table
    supersets = _superset_matrix(space)
    gaps = ~held
    # a held (f, alpha) fails when some superset of f misses some grade
    # below alpha; counts in float32 are exact at these sizes
    gap_below = gaps.astype(np.float32) @ leq.astype(np.float32) > 0
    gap_above = supersets.astype(np.float32) @ gap_below.astype(np.float32) > 0
    failing = gap_above[fs - 1, alphas]
    if failing.any():
        f, alpha = listed[int(failing.argmax())]
        first = supersets[f - 1][:, None] & leq[:, alpha][None, :] & gaps
        g, beta = divmod(int(first.argmax()), lattice.size)
        raise ValidationError(
            "NotDownSetInAlpha",
            "subgraphs grow with the set and shrink with the grade",
            witness=[
                list(space.labels(f)),
                lattice.elements[alpha],
                list(space.labels(g + 1)),
                lattice.elements[beta],
            ],
        )
    # reach[f - 1, beta, gamma]: some held grade alpha at f has alpha | beta = gamma;
    # joins[f - 1, g - 1, gamma]: gamma joins a grade held at f with one held at g
    one_hot = (jt[:, :, None] == np.arange(lattice.size)).astype(np.float32)
    reach = (held.astype(np.float32) @ one_hot.reshape(lattice.size, -1)).reshape(
        space.full, lattice.size, lattice.size
    )
    joins = held.astype(np.float32) @ reach > 0
    unions = _union_index(space) - 1
    short = (joins & gaps[unions]).any(axis=2)
    if short.any():
        f, g = (k + 1 for k in divmod(int(short.argmax()), space.full))
        # walk the grade sets in the order the pair set fills them
        grades_f = {alpha for f2, alpha in listed if f2 == f}
        grades_g = {beta for g2, beta in listed if g2 == g}
        alpha, beta = next(
            (alpha, beta)
            for alpha in grades_f
            for beta in grades_g
            if not held[(f | g) - 1, jt[alpha, beta]]
        )
        raise ValidationError(
            "UnionJoinViolated",
            "grades of a union must reach the join of the parts",
            witness=[
                list(space.labels(f)),
                lattice.elements[alpha],
                list(space.labels(g)),
                lattice.elements[beta],
            ],
        )
    # the value at f joins the grades held there: the OR of their down masks
    values = np.full(space.full + 1, lattice.bottom, dtype=np.intp)
    values[1:] = lattice.from_down(np.bitwise_or.reduce(held * lattice.down, axis=1))
    cap = validate_capacity(space, lattice, values)
    if not np.array_equal(leq.T[cap.values[1:]], held):
        raise ValidationError(
            "NotASubgraph", "pair set is not reproduced by its own capacity", witness=None
        )
    return cap
