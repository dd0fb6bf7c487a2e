"""Finite bounded distributive lattices and t-norm tables.

A lattice is given by its full order matrix, not a Hasse diagram: the
matrix is unambiguous and cheap to validate exhaustively at the sizes
this package works with (at most ``MAX_LATTICE`` elements).

Every lattice here is distributive, so Birkhoff's representation theorem
applies: an element is determined by the set of join-irreducibles below
it, and the join of elements is the union of those sets.  Validation
stores each set as a bitmask (``down``), which turns any join of many
grades into one bitwise OR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

MAX_LATTICE = 16


class FiniteLattice:
    """A validated finite bounded distributive lattice.

    Elements are addressed by index into ``elements``; ``leq``, ``join_table``
    and ``meet_table`` are dense tables over those indices.  The Birkhoff
    encoding: ``irreducibles`` lists the join-irreducible elements, and
    bit ``k`` of ``down[x]`` says whether ``irreducibles[k] <= x``
    (``uint16``: a lattice of at most 16 elements has at most 15 of them).
    Instances are immutable after construction and safe to share; only
    :func:`validate_lattice` builds them.
    """

    __slots__ = (
        "elements", "leq", "join_table", "meet_table", "bottom", "top",
        "irreducibles", "down", "_sorted_down", "_by_down",
    )

    def __init__(self, elements, leq, join_table, meet_table, bottom, top, irreducibles, down):
        self.elements: tuple[str, ...] = tuple(elements)
        self.leq = leq
        self.join_table = join_table
        self.meet_table = meet_table
        self.bottom: int = bottom
        self.top: int = top
        self.irreducibles: tuple[int, ...] = tuple(irreducibles)
        self.down = down
        # down is injective, so sorting it gives the inverse map
        self._by_down = np.argsort(down)
        self._sorted_down = down[self._by_down]
        for arr in (
            self.leq, self.join_table, self.meet_table, self.down,
            self._by_down, self._sorted_down,
        ):
            arr.setflags(write=False)

    # -- basic queries ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise KeyError(f"unknown lattice element {label!r}") from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    def join(self, a: int, b: int) -> int:
        return int(self.join_table[a, b])

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_table[a, b])

    def from_down(self, masks) -> np.ndarray:
        """The elements whose ``down`` masks are ``masks`` (elementwise).

        Every mask must be some element's; the union of the masks of any
        elements is the mask of their join.
        """
        return self._by_down[np.searchsorted(self._sorted_down, masks)]

    def family_join(self, items: Iterable[int]) -> int:
        """Least upper bound of a set of elements; the empty join is bottom."""
        acc = self.bottom
        for x in items:
            acc = int(self.join_table[acc, x])
        return acc

    def family_meet(self, items: Iterable[int]) -> int:
        """Greatest lower bound of a set of elements; the empty meet is top."""
        acc = self.top
        for x in items:
            acc = int(self.meet_table[acc, x])
        return acc

    def is_chain(self) -> bool:
        n = self.size
        return all(self.leq[a, b] or self.leq[b, a] for a in range(n) for b in range(n))

    def incomparable_pair(self) -> tuple[int, int] | None:
        n = self.size
        for a in range(n):
            for b in range(a + 1, n):
                if not self.leq[a, b] and not self.leq[b, a]:
                    return a, b
        return None

    # -- identity -----------------------------------------------------

    def __eq__(self, other) -> bool:
        # most comparisons meet the same instance, so skip the matrix there
        return self is other or (
            isinstance(other, FiniteLattice)
            and self.elements == other.elements
            and np.array_equal(self.leq, other.leq)
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.leq.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)})"


def validate_lattice(elements: Sequence[str], leq: Sequence[Sequence[bool]]) -> FiniteLattice:
    """Check a candidate order matrix and derive the join/meet tables.

    Raises :class:`ValidationError` naming the first violated axiom with a
    witness: ``NotAPartialOrder``, ``MissingBound``, ``NoBottom``, ``NoTop``
    or ``NotDistributive``.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise ValidationError("EmptyLattice", "a lattice needs at least one element")
    if len(set(elements)) != n:
        raise ValidationError("DuplicateElement", f"duplicate labels in {elements}")
    if n > MAX_LATTICE:
        raise ValidationError("LatticeTooLarge", f"at most {MAX_LATTICE} elements, got {n}")
    mat = np.asarray(leq, dtype=bool)
    if mat.shape != (n, n):
        raise ValidationError("BadMatrix", f"leq must be {n}x{n}, got {mat.shape}")

    def wit(*idx):
        return [elements[i] for i in idx]

    for a in range(n):
        if not mat[a, a]:
            raise ValidationError("NotAPartialOrder", "leq not reflexive", wit(a))
    for a in range(n):
        for b in range(n):
            if a != b and mat[a, b] and mat[b, a]:
                raise ValidationError("NotAPartialOrder", "leq not antisymmetric", wit(a, b))
            for c in range(n):
                if mat[a, b] and mat[b, c] and not mat[a, c]:
                    raise ValidationError("NotAPartialOrder", "leq not transitive", wit(a, b, c))

    join_table = np.zeros((n, n), dtype=np.intp)
    meet_table = np.zeros((n, n), dtype=np.intp)
    for a in range(n):
        for b in range(n):
            uppers = [c for c in range(n) if mat[a, c] and mat[b, c]]
            least = [c for c in uppers if all(mat[c, d] for d in uppers)]
            if len(least) != 1:
                raise ValidationError(
                    "MissingBound", "pair has no unique least upper bound", wit(a, b)
                )
            join_table[a, b] = least[0]
            lowers = [c for c in range(n) if mat[c, a] and mat[c, b]]
            greatest = [c for c in lowers if all(mat[d, c] for d in lowers)]
            if len(greatest) != 1:
                raise ValidationError(
                    "MissingBound", "pair has no unique greatest lower bound", wit(a, b)
                )
            meet_table[a, b] = greatest[0]

    bottoms = [a for a in range(n) if all(mat[a, b] for b in range(n))]
    if not bottoms:
        raise ValidationError("NoBottom", "no least element")
    tops = [a for a in range(n) if all(mat[b, a] for b in range(n))]
    if not tops:
        raise ValidationError("NoTop", "no greatest element")

    # exhaustive O(n^3) scan; sizes are gated above
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = meet_table[a, join_table[b, c]]
                rhs = join_table[meet_table[a, b], meet_table[a, c]]
                if lhs != rhs:
                    raise ValidationError(
                        "NotDistributive", "meet does not distribute over join", wit(a, b, c)
                    )

    # join-irreducible: exactly one lower cover (bottom has none).
    # covers[y, x]: y < x with nothing strictly between them
    strict = mat & ~np.eye(n, dtype=bool)
    covers = strict & ~(strict.astype(np.intp) @ strict.astype(np.intp) > 0)
    irreducibles = np.flatnonzero(covers.sum(axis=0) == 1)
    down = mat[irreducibles].T @ (1 << np.arange(len(irreducibles)))
    return FiniteLattice(
        elements, mat, join_table, meet_table, bottoms[0], tops[0],
        irreducibles.tolist(), down.astype(np.uint16),
    )


def way_below(lat: FiniteLattice, a: int, b: int) -> bool:
    """Approximation order.

    On a finite lattice every directed set contains its supremum, so this
    coincides with ``a <= b``; the shortcut is used on production paths and
    the directed-set definition lives in :mod:`ambrel.oracle` for
    cross-checking.
    """
    return lat.le(a, b)


@dataclass(frozen=True)
class TNormTable:
    """A validated grade-combination operation on a lattice."""

    lattice: FiniteLattice
    table: np.ndarray = field(compare=False)
    name: str = "tnorm"

    def __call__(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TNormTable)
            and self.lattice == other.lattice
            and np.array_equal(self.table, other.table)
        )


def validate_tnorm(lat: FiniteLattice, table, name: str = "tnorm") -> TNormTable:
    """Check associativity, commutativity, neutrality of top, monotonicity
    and distributivity over join; return the validated table."""
    tab = np.asarray(table, dtype=np.intp)
    n = lat.size
    if tab.shape != (n, n):
        raise ValidationError("BadMatrix", f"table must be {n}x{n}, got {tab.shape}")
    if tab.min() < 0 or tab.max() >= n:
        raise ValidationError("BadMatrix", "table entries must be element indices")

    def wit(*idx):
        return [lat.elements[i] for i in idx]

    for a in range(n):
        for b in range(n):
            if tab[a, b] != tab[b, a]:
                raise ValidationError("NotCommutative", "a*b != b*a", wit(a, b))
            for c in range(n):
                if tab[tab[a, b], c] != tab[a, tab[b, c]]:
                    raise ValidationError("NotAssociative", "(a*b)*c != a*(b*c)", wit(a, b, c))
    for a in range(n):
        if tab[a, lat.top] != a:
            raise ValidationError("TopNotNeutral", "a*1 != a", wit(a))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if lat.le(b, c) and not lat.le(tab[a, b], tab[a, c]):
                    raise ValidationError("NotMonotone", "b<=c but a*b !<= a*c", wit(a, b, c))
                lhs = tab[a, lat.join(b, c)]
                rhs = lat.join(tab[a, b], tab[a, c])
                if lhs != rhs:
                    raise ValidationError(
                        "NotJoinDistributive", "a*(b|c) != (a*b)|(a*c)", wit(a, b, c)
                    )
    out = TNormTable(lat, tab, name)
    out.table.setflags(write=False)
    return out


def meet_tnorm(lat: FiniteLattice) -> TNormTable:
    """The lattice meet, the default grade combination."""
    return TNormTable(lat, lat.meet_table, "meet")
