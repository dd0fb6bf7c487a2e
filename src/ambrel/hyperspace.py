"""Finite powerset hyperspaces, set families, and the traversal operator.

Conventions used throughout the package:

* A point set is a :class:`FiniteSpace` with an ordered tuple of labels.
* A subset of a space is an ``int`` bitmask; bit ``i`` stands for point
  ``space.points[i]``.  Nonempty subsets range over ``1 .. space.full``.
* A family of nonempty subsets is again an ``int`` ("family mask"); bit
  ``s - 1`` stands for the subset with mask ``s``.  Since a space has
  ``space.full`` nonempty subsets, family masks range over
  ``0 .. (1 << space.full) - 1``.

Both encodings are canonical, so equality of families is integer equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError

MAX_POINTS = 6


def gate_points(n: int) -> int:
    """``n``, once ``n`` points pass the size gate; ``SpaceTooLarge`` if not.

    A caller that builds anything of ``n`` points from a bare count calls
    this first, so an oversized count is refused before it allocates.
    """
    if n > MAX_POINTS:
        raise ValidationError("SpaceTooLarge", f"at most {MAX_POINTS} points supported, got {n}")
    return n


@dataclass(frozen=True, order=True)
class FiniteSpace:
    """A finite universe of labelled points.

    ``size`` (the number of points), ``full`` (the bitmask of the whole
    space, also the number of nonempty subsets) and the hash are computed
    once, at construction: every cached table and every memo key hashes
    a space, and the kernels read ``full`` many times per call.  They are
    plain attributes, not dataclass fields, so equality, ordering,
    ``repr`` and ``dataclasses.replace`` see ``points`` alone.
    """

    points: tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise ValidationError("EmptySpace", "a space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValidationError("DuplicatePoint", f"duplicate labels in {self.points}")
        n = gate_points(len(self.points))
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "full", (1 << n) - 1)
        # the hash the generated one would give: that of the compared fields
        object.__setattr__(self, "_hash", hash((self.points,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: string hashes differ between
        # processes, so a pickled hash would be stale
        return type(self), (self.points,)

    def subsets(self) -> range:
        """All nonempty subset masks."""
        return range(1, self.full + 1)

    def subset(self, labels: Iterable[str]) -> int:
        labels = tuple(labels)
        try:
            return _mask_table(self)[labels]
        except (KeyError, TypeError):
            pass  # out of point order, repeated, unknown or unhashable labels
        mask = 0
        for lab in labels:
            try:
                mask |= 1 << self.points.index(lab)
            except ValueError:
                raise KeyError(f"unknown point {lab!r} in space {self.points}") from None
        return mask

    def labels(self, mask: int) -> tuple[str, ...]:
        """Labels of the points in ``mask`` (``0 .. full``), in point order."""
        return _label_table(self)[mask]


def space(*points: str) -> FiniteSpace:
    return FiniteSpace(tuple(points))


def family_of(subsets: Iterable[int]) -> int:
    """Family mask collecting the given nonempty subset masks."""
    fam = 0
    for s in subsets:
        if s <= 0:
            raise ValueError("families hold nonempty subsets only")
        fam |= 1 << (s - 1)
    return fam


def members(family: int) -> Iterator[int]:
    """Subset masks collected in a family mask, ascending."""
    s = 1
    while family:
        if family & 1:
            yield s
        family >>= 1
        s += 1


def full_family(space: FiniteSpace) -> int:
    """The family of all nonempty subsets."""
    return (1 << space.full) - 1


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _bit_weights(space: FiniteSpace) -> np.ndarray:
    # _bit_weights(X)[s - 1] = 1 << (s - 1), the bit of subset s in a family
    # mask (bit 62 at most, so int64 holds every family)
    return _frozen(np.left_shift(1, np.arange(space.full, dtype=np.int64)))


def _pack(held: np.ndarray, space: FiniteSpace) -> np.ndarray:
    """Family masks of boolean rows: bit ``s - 1`` of each mask is
    ``held[..., s - 1]``, over the nonempty subsets ``s`` of ``space``."""
    return held @ _bit_weights(space)


def _unpack(families, space: FiniteSpace) -> np.ndarray:
    """The boolean rows of family masks; inverse of :func:`_pack`.

    Each mask is read as its eight little-endian bytes, and its first
    ``space.full`` bits are the row.
    """
    masks = np.ascontiguousarray(families, "<i8")
    bits = np.unpackbits(
        masks.view(np.uint8).reshape(*masks.shape, 8), axis=-1, count=space.full, bitorder="little"
    )
    return bits.view(bool)


@lru_cache(maxsize=None)
def _superset_matrix(space: FiniteSpace) -> np.ndarray:
    # _superset_matrix(X)[s - 1, t - 1] = whether s <= t, over nonempty masks
    masks = np.arange(1, space.full + 1)
    return _frozen(masks[:, None] & masks[None, :] == masks[:, None])


@lru_cache(maxsize=None)
def _superset_table(space: FiniteSpace) -> tuple[int, ...]:
    # _superset_table(X)[s - 1] = family mask of all supersets of s
    return tuple(_pack(_superset_matrix(space), space).tolist())


@lru_cache(maxsize=None)
def _subset_table(space: FiniteSpace) -> tuple[int, ...]:
    # _subset_table(X)[s - 1] = family mask of all nonempty subsets of s
    return tuple(_pack(_superset_matrix(space).T, space).tolist())


@lru_cache(maxsize=None)
def _meets_masks(space: FiniteSpace) -> np.ndarray:
    # _meets_masks(X)[s - 1] = family mask of all subsets intersecting s
    masks = np.arange(1, space.full + 1)
    return _frozen(_pack(masks[:, None] & masks[None, :] != 0, space))


@lru_cache(maxsize=None)
def _meets_table(space: FiniteSpace) -> tuple[int, ...]:
    # _meets_masks as Python ints
    return tuple(_meets_masks(space).tolist())


@lru_cache(maxsize=None)
def _grow_index(space: FiniteSpace) -> np.ndarray:
    # _grow_index(X)[m, i] = m | (1 << i), for every mask m from 0 to X.full
    masks = np.arange(space.full + 1)[:, None]
    return _frozen(masks | (1 << np.arange(space.size)))


@lru_cache(maxsize=None)
def _shrink_index(space: FiniteSpace) -> np.ndarray:
    # _shrink_index(X)[m, i] = m & ~(1 << i), or m itself where that is empty
    masks = np.arange(space.full + 1)[:, None]
    smaller = masks & ~(1 << np.arange(space.size))
    return _frozen(np.where(smaller == 0, masks, smaller))


@lru_cache(maxsize=None)
def _label_table(space: FiniteSpace) -> tuple[tuple[str, ...], ...]:
    # _label_table(X)[m] = labels of the points in mask m, in point order,
    # for every mask m from 0 to X.full
    return tuple(
        tuple(p for i, p in enumerate(space.points) if m >> i & 1) for m in range(space.full + 1)
    )


@lru_cache(maxsize=None)
def _mask_table(space: FiniteSpace) -> dict[tuple[str, ...], int]:
    # _mask_table(X)[labels] = m, the inverse of _label_table(X); only
    # label tuples in point order without repeats are keys
    return {labels: m for m, labels in enumerate(_label_table(space))}


def upward_closure(space: FiniteSpace, family: int) -> int:
    """All supersets of members: ``{A' : some A in family, A <= A'}``."""
    sup = _superset_table(space)
    out = 0
    for s in members(family):
        out |= sup[s - 1]
    return out


def traversal(space: FiniteSpace, family: int) -> int:
    """All nonempty sets meeting every member of ``family``.

    The empty family traverses to the full powerset: the defining
    condition is vacuous.  The result is always upward closed and
    contains the whole space.
    """
    meets = _meets_table(space)
    out = full_family(space)
    for s in members(family):
        out &= meets[s - 1]
    return out


def is_upward_closed(space: FiniteSpace, family: int) -> bool:
    return upward_closure(space, family) == family


def is_inclusion_hyperspace(space: FiniteSpace, family: int) -> bool:
    """Nonempty and closed under taking supersets."""
    return family != 0 and is_upward_closed(space, family)


def antichain(space: FiniteSpace, family: int) -> tuple[int, ...]:
    """Minimal members of a family, ascending by mask."""
    strict_sub = _subset_table(space)
    out = []
    for s in members(family):
        below = strict_sub[s - 1] & ~(1 << (s - 1))
        if family & below == 0:
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class InclusionHyperspace:
    """An upward-closed nonempty family, stored by its minimal antichain."""

    space: FiniteSpace
    minimal: tuple[int, ...]

    @classmethod
    def from_family(cls, space: FiniteSpace, family: int) -> "InclusionHyperspace":
        if not is_inclusion_hyperspace(space, family):
            raise ValidationError(
                "NotAnInclusionHyperspace",
                "family must be nonempty and upward closed",
                witness=[list(space.labels(s)) for s in members(family)],
            )
        return cls(space, antichain(space, family))

    @property
    def family(self) -> int:
        return upward_closure(self.space, family_of(self.minimal))

    def __contains__(self, subset: int) -> bool:
        return any(m & subset == m for m in self.minimal)

    def __len__(self) -> int:
        return self.family.bit_count()
