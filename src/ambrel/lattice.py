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
    ``x <= y`` holds exactly when ``down[x] & ~down[y] == 0``.
    Instances are immutable after construction and safe to share; only
    :func:`validate_lattice` and its oracle twin build them.  ``size`` and
    the hash are computed once, at construction.
    """

    __slots__ = (
        "elements", "leq", "join_table", "meet_table", "bottom", "top",
        "irreducibles", "down", "size", "_of_down", "_index", "_hash",
    )

    def __init__(self, elements, leq, join_table, meet_table, bottom, top, irreducibles, down):
        self.elements: tuple[str, ...] = tuple(elements)
        self.size: int = len(self.elements)
        self._index = {label: i for i, label in enumerate(self.elements)}
        self.leq = leq
        self.join_table = join_table
        self.meet_table = meet_table
        self.bottom: int = bottom
        self.top: int = top
        self.irreducibles: tuple[int, ...] = tuple(irreducibles)
        self.down = down
        # _of_down[down[x]] = x, the inverse of the injective down; a mask
        # of no element maps to -1.  At most 2^15 entries (32 KB, chain16)
        self._of_down = np.full(1 << len(self.irreducibles), -1, dtype=np.int8)
        self._of_down[down] = np.arange(len(self.elements))
        for arr in (self.leq, self.join_table, self.meet_table, self.down, self._of_down):
            arr.setflags(write=False)
        self._hash = hash((self.elements, self.leq.tobytes()))

    # -- basic queries ------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # unknown or unhashable
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
        elements is the mask of their join.  The result is ``int8``.
        """
        return self._of_down.take(masks)

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
        return bool((self.leq | self.leq.T).all())

    def incomparable_pair(self) -> tuple[int, int] | None:
        """The first incomparable pair ``a < b`` in row-major order."""
        apart = np.triu(~(self.leq | self.leq.T), 1)
        if not apart.any():
            return None
        a, b = divmod(int(apart.argmax()), self.size)
        return a, b

    # -- identity -----------------------------------------------------

    def __eq__(self, other) -> bool:
        # most comparisons meet the same instance, so skip the matrix there
        return self is other or (
            isinstance(other, FiniteLattice)
            and self.elements == other.elements
            and np.array_equal(self.leq, other.leq)
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: string hashes differ between
        # processes, so a pickled hash would be stale
        return type(self), (
            self.elements, self.leq, self.join_table, self.meet_table,
            self.bottom, self.top, self.irreducibles, self.down,
        )

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)})"


def _boolean_type(t: type) -> bool:
    return t is bool or t is np.bool_


def _integer_type(t: type) -> bool:
    return t is not bool and issubclass(t, (int, np.integer))


# per kind of entry: the array's dtype, the dtype kinds an array may have,
# and the test of the type of an entry of a nested sequence
_ENTRIES = {"booleans": (bool, "b", _boolean_type), "integers": (np.intp, "iu", _integer_type)}


def _square(matrix, n: int, what: str, entries: str) -> np.ndarray:
    """``matrix`` as an ``n x n`` array of ``entries`` ("booleans" or "integers").

    ``np.asarray`` would read any truthy value as ``True``, truncate
    floats and parse digit strings as integers, and it fails on ragged
    rows with a bare ``ValueError``; each of these is ``BadMatrix`` here.
    An array is checked by its dtype, nested sequences by the types of
    their entries.
    """
    dtype, kinds, entry_type = _ENTRIES[entries]
    if isinstance(matrix, np.ndarray):
        typed = matrix.dtype.kind in kinds
    else:
        try:
            matrix = [list(row) for row in matrix]
        except TypeError:
            raise ValidationError("BadMatrix", f"{what} must be a sequence of rows") from None
        if len({len(row) for row in matrix}) > 1:
            raise ValidationError("BadMatrix", f"{what} rows differ in length")
        typed = all(map(entry_type, {type(v) for row in matrix for v in row}))
    if not typed:
        raise ValidationError("BadMatrix", f"{what} entries must be {entries}")
    mat = np.asarray(matrix, dtype=dtype)
    if mat.shape != (n, n):
        raise ValidationError("BadMatrix", f"{what} must be {n}x{n}, got {mat.shape}")
    return mat


def _raise_first(labels: Sequence[str], *checks) -> None:
    """Raise the violation that nested loops over the indices meet first.

    ``checks`` are ``(code, message, mask)`` in the order the loops test
    them, each mask true where its axiom fails.  The loops run row-major
    over the axes all masks share and test every check there in turn; a
    mask's further axes run innermost.  The witness is the labels at the
    violating index.  Valid input costs one ``any`` per mask.
    """
    if not any(mask.any() for _, _, mask in checks):
        return
    lead = min(mask.ndim for _, _, mask in checks)
    bad = np.logical_or.reduce(
        [mask.reshape(mask.shape[:lead] + (-1,)).any(axis=-1) for _, _, mask in checks]
    )
    at = np.unravel_index(bad.argmax(), bad.shape)
    code, message, mask = next(check for check in checks if check[2][at].any())
    rest = np.unravel_index(mask[at].argmax(), mask[at].shape)
    raise ValidationError(code, message, [labels[i] for i in (*at, *rest)])


def _least_upper(mat: np.ndarray) -> np.ndarray:
    """``least[a, b, c]``: ``c`` is an upper bound of ``a`` and ``b`` below
    every other one; on ``mat.T``, the greatest lower bounds."""
    n = len(mat)
    upper = (mat[:, None, :] & mat[None, :, :]).reshape(n * n, n)
    # outside[ab, c] = number of upper bounds d with c !<= d (float32 is exact here)
    outside = upper.astype(np.float32) @ (~mat).T.astype(np.float32)
    return (upper & (outside == 0)).reshape(n, n, n)


def validate_lattice(elements: Sequence[str], leq: Sequence[Sequence[bool]]) -> FiniteLattice:
    """Check a candidate order matrix and derive the join/meet tables.

    Raises :class:`ValidationError` naming the first violated axiom with a
    witness: ``NotAPartialOrder``, ``MissingBound`` or ``NotDistributive``.
    An order matrix that is not n x n booleans is ``BadMatrix``.
    Each check is one array over the index tuples it quantifies, and the
    witness is the violation that nested loops over them meet first
    (:func:`ambrel.oracle.validate_lattice_loops`).  No check looks for a
    least or greatest element: once every pair has a meet and a join, the
    meet of all elements is least and their join greatest.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise ValidationError("EmptyLattice", "a lattice needs at least one element")
    if len(set(elements)) != n:
        raise ValidationError("DuplicateElement", f"duplicate labels in {elements}")
    if n > MAX_LATTICE:
        raise ValidationError("LatticeTooLarge", f"at most {MAX_LATTICE} elements, got {n}")
    mat = _square(leq, n, "leq", "booleans")

    _raise_first(elements, ("NotAPartialOrder", "leq not reflexive", ~mat.diagonal()))
    _raise_first(
        elements,
        ("NotAPartialOrder", "leq not antisymmetric", mat & mat.T & ~np.eye(n, dtype=bool)),
        ("NotAPartialOrder", "leq not transitive", mat[:, :, None] & mat & ~mat[:, None]),
    )
    least, greatest = _least_upper(mat), _least_upper(mat.T)
    _raise_first(
        elements,
        ("MissingBound", "pair has no unique least upper bound", least.sum(axis=2) != 1),
        ("MissingBound", "pair has no unique greatest lower bound", greatest.sum(axis=2) != 1),
    )
    join_table, meet_table = least.argmax(axis=2), greatest.argmax(axis=2)
    # meet(a, join(b, c)) against join(meet(a, b), meet(a, c))
    lhs = meet_table[np.arange(n)[:, None, None], join_table]
    rhs = join_table[meet_table[:, :, None], meet_table[:, None, :]]
    _raise_first(elements, ("NotDistributive", "meet does not distribute over join", lhs != rhs))

    # join-irreducible: exactly one lower cover (bottom has none).
    # covers[y, x]: y < x with nothing strictly between them
    strict = mat & ~np.eye(n, dtype=bool)
    covers = strict & ~(strict.astype(np.intp) @ strict.astype(np.intp) > 0)
    irreducibles = np.flatnonzero(covers.sum(axis=0) == 1)
    down = mat[irreducibles].T @ (1 << np.arange(len(irreducibles)))
    return FiniteLattice(
        elements, mat, join_table, meet_table,
        int(mat.all(axis=1).argmax()), int(mat.all(axis=0).argmax()),
        irreducibles.tolist(), down.astype(np.uint16),
    )


def _levels(lat: FiniteLattice) -> np.ndarray:
    """``_levels(lat)[k]``: the element of the chain ``lat``, listed in any
    order, with exactly ``k`` elements strictly below it.  The caller
    checks that ``lat`` is a chain."""
    return np.argsort(lat.leq.sum(axis=0))


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

    def __hash__(self) -> int:  # the fields __eq__ compares; the name is only a label
        return hash((self.lattice, self.table.tobytes()))


def validate_tnorm(lat: FiniteLattice, table, name: str = "tnorm") -> TNormTable:
    """Check associativity, commutativity, neutrality of top, monotonicity
    and distributivity over join; return the validated table.  A table
    that is not n x n integer element indices is ``BadMatrix``.

    As in :func:`validate_lattice`, each check is one array and the
    witness is the violation nested loops meet first."""
    n = lat.size
    tab = _square(table, n, "table", "integers")
    if tab.min() < 0 or tab.max() >= n:
        raise ValidationError("BadMatrix", "table entries must be element indices")

    a, jt = np.arange(n)[:, None, None], lat.join_table
    ab, ac = tab[:, :, None], tab[:, None, :]  # a*b and a*c at [a, b, c]
    _raise_first(
        lat.elements,
        ("NotCommutative", "a*b != b*a", tab != tab.T),
        ("NotAssociative", "(a*b)*c != a*(b*c)", tab[tab] != tab[a, tab]),
    )
    _raise_first(lat.elements, ("TopNotNeutral", "a*1 != a", tab[:, lat.top] != np.arange(n)))
    _raise_first(
        lat.elements,
        ("NotMonotone", "b<=c but a*b !<= a*c", lat.leq & ~lat.leq[ab, ac]),
        ("NotJoinDistributive", "a*(b|c) != (a*b)|(a*c)", tab[a, jt] != jt[ab, ac]),
    )
    out = TNormTable(lat, tab, name)
    out.table.setflags(write=False)
    return out


def meet_tnorm(lat: FiniteLattice) -> TNormTable:
    """The lattice meet, the default grade combination."""
    return TNormTable(lat, lat.meet_table, "meet")
