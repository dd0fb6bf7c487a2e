"""Crisp ambiguous representations between finite spaces.

A representation relates nonempty subsets of a source space to nonempty
subsets of a target space; it is down-closed in the source argument,
up-closed in the target argument, and relates every source set to the
whole target.  Internally a representation is the tuple of its rows:
``rows[A - 1]`` is the family (over the target) of sets admissible for
the source subset with mask ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import SpaceMismatch, ValidationError
from .hyperspace import (
    FiniteSpace,
    InclusionHyperspace,
    antichain,
    full_family,
    is_upward_closed,
    members,
    traversal,
    upward_closure,
    _meets_masks,
    _meets_table,
    _pack,
    _superset_table,
    _unpack,
)

# pair-table size (source sets x target sets) from which sms and compose
# run their array kernels.  Measured on a 2-vCPU x86 VM with numpy 2.4:
# the loops win up to two points (9 cells, 2-3x) and at 2x4 and 4x2
# points (45 cells), the paths tie at 3x3 points (49 cells), and the
# arrays win from 3x4 points on (28x for sms at 6x6).  The selection
# reads tuple lengths, which cost less than FiniteSpace.full, because
# the per-instance law callers run these operations thousands of times
# on 1- and 2-point spaces: a sampled crisp suite makes about 4,400
# compose calls at the default 200 trials and the oracle twin of the
# exhaustive suite about 230,000.  Exhaustive suites and searches build
# their operation tables for whole pools with the stacked kernels
# (_compose_rows, _sms_rows) and call compose only to re-evaluate a
# witness.
ARRAY_MIN_CELLS = 49


@dataclass(frozen=True)
class CrispAmbRep:
    """A crisp ambiguous representation, canonically stored row by row."""

    source: FiniteSpace
    target: FiniteSpace
    rows: tuple[int, ...]

    def row(self, a: int) -> int:
        """Family of sets admissible for source subset ``a``."""
        return self.rows[a - 1]

    def contains(self, a: int, b: int) -> bool:
        return bool(self.rows[a - 1] >> (b - 1) & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for a in self.source.subsets():
            for b in members(self.rows[a - 1]):
                yield a, b

    def __le__(self, other: "CrispAmbRep") -> bool:
        _same_spaces(self, other)
        return all(r & ~s == 0 for r, s in zip(self.rows, other.rows))


def _same_spaces(r: CrispAmbRep, s: CrispAmbRep) -> None:
    if r.source != s.source or r.target != s.target:
        raise SpaceMismatch("representations live over different spaces")


def _rows_from_pairs(source: FiniteSpace, target: FiniteSpace, pairs) -> list[int]:
    rows = [0] * source.full
    for a, b in pairs:
        if not (1 <= a <= source.full) or not (1 <= b <= target.full):
            raise ValidationError(
                "BadPair", f"pair ({a}, {b}) outside the nonempty subsets of the spaces"
            )
        rows[a - 1] |= 1 << (b - 1)
    return rows


def validate(source: FiniteSpace, target: FiniteSpace, pairs: Iterable[tuple[int, int]]) -> CrispAmbRep:
    """Validate a pair set as an ambiguous representation.

    Checks, in order: every row contains the full target
    (``MissingFullTarget``), rows are upward closed in the target argument
    (``NotUpwardClosedInB``), and rows shrink as the source set grows
    (``NotAntitoneInA``).  Closedness of rows holds vacuously over finite
    discrete spaces and is not a separate check.
    """
    return validate_rows(source, target, _rows_from_pairs(source, target, pairs))


def validate_rows(source: FiniteSpace, target: FiniteSpace, rows) -> CrispAmbRep:
    rows = list(rows)
    if len(rows) != source.full:
        raise ValidationError("BadRowCount", f"need {source.full} rows, got {len(rows)}")
    full_bit = 1 << (target.full - 1)
    for a in source.subsets():
        if not rows[a - 1] & full_bit:
            raise ValidationError(
                "MissingFullTarget",
                "some source set does not admit the full target",
                witness=list(source.labels(a)),
            )
        if not is_upward_closed(target, rows[a - 1]):
            up = upward_closure(target, rows[a - 1])
            missing = next(members(up & ~rows[a - 1]))
            raise ValidationError(
                "NotUpwardClosedInB",
                "admissible families must contain all supersets",
                witness=[list(source.labels(a)), list(target.labels(missing))],
            )
    for a in source.subsets():
        for i in range(source.size):
            smaller = a & ~(1 << i)
            if smaller and rows[a - 1] & ~rows[smaller - 1]:
                b = next(members(rows[a - 1] & ~rows[smaller - 1]))
                raise ValidationError(
                    "NotAntitoneInA",
                    "a smaller source set must admit at least as much",
                    witness=[
                        list(source.labels(smaller)),
                        list(source.labels(a)),
                        list(target.labels(b)),
                    ],
                )
    return CrispAmbRep(source, target, tuple(rows))


def from_seed(source: FiniteSpace, target: FiniteSpace, pairs: Iterable[tuple[int, int]]) -> CrispAmbRep:
    """Least ambiguous representation containing the given pairs.

    Axiom closure: every seed pair spreads to all smaller source sets and
    larger target sets, and the full target is admissible everywhere.
    """
    sup = _superset_table(target)
    full_bit = 1 << (target.full - 1)
    rows = [full_bit] * source.full
    for a, b in pairs:
        if not (1 <= a <= source.full) or not (1 <= b <= target.full):
            raise ValidationError("BadPair", f"seed pair ({a}, {b}) out of range")
        grow = sup[b - 1]
        sub = a
        while sub:
            rows[sub - 1] |= grow
            sub = (sub - 1) & a
    return CrispAmbRep(source, target, tuple(rows))


# -- canonical representations -------------------------------------------


def bot(source: FiniteSpace, target: FiniteSpace) -> CrispAmbRep:
    full_bit = 1 << (target.full - 1)
    return CrispAmbRep(source, target, tuple([full_bit] * source.full))


def top(source: FiniteSpace, target: FiniteSpace) -> CrispAmbRep:
    return CrispAmbRep(source, target, tuple([full_family(target)] * source.full))


def identity(space: FiniteSpace) -> CrispAmbRep:
    sup = _superset_table(space)
    return CrispAmbRep(space, space, tuple(sup[a - 1] for a in space.subsets()))


# -- admissible / unavoidable sets ----------------------------------------


def admissible(rep: CrispAmbRep, a: int) -> InclusionHyperspace:
    """The sets the source subset ``a`` can stand for."""
    return InclusionHyperspace(rep.target, antichain(rep.target, rep.rows[a - 1]))


def unavoidable(rep: CrispAmbRep, a: int) -> InclusionHyperspace:
    """The sets meeting every set admissible for ``a``."""
    fam = traversal(rep.target, rep.rows[a - 1])
    return InclusionHyperspace(rep.target, antichain(rep.target, fam))


# -- the pseudo-inversion operator -----------------------------------------


def sms(rep: CrispAmbRep) -> CrispAmbRep:
    """Pseudo-inversion: swap the roles of the two spaces through traversal.

    The row of the result at a target subset ``bt`` is the traversal of
    ``{A : bt is unavoidable for A}``.  Equivalently ``(bt, at)`` is in the
    result iff every source set disjoint from ``at`` admits some set
    disjoint from ``bt``.

    Two paths compute the same rows, chosen by the size of the pair
    table.  Below ``ARRAY_MIN_CELLS`` cells a loop over Python ints runs:
    at one or two points it is two to three times faster than the set-up of
    the arrays.  From there on one int64 kernel tests every
    ``(bt, A)`` at once and AND-reduces the traversals.
    """
    if len(rep.rows) * rep.target.full < ARRAY_MIN_CELLS:  # len(rows) is source.full
        return _sms_loop(rep)
    return _sms_masks(rep)


def _sms_loop(rep: CrispAmbRep) -> CrispAmbRep:
    X, Y = rep.source, rep.target
    meets_x, everything = _meets_table(X), full_family(X)
    out_rows = []
    for hits in _meets_table(Y):
        row = everything
        for admitted, meets in zip(rep.rows, meets_x):
            # bt unavoidable for a: bt meets every admissible set of a
            if admitted & ~hits == 0:
                row &= meets
        out_rows.append(row)
    return CrispAmbRep(Y, X, tuple(out_rows))


def _sms_masks(rep: CrispAmbRep) -> CrispAmbRep:
    rows = _sms_rows(np.asarray(rep.rows, dtype=np.int64), rep.source, rep.target)
    return CrispAmbRep(rep.target, rep.source, tuple(rows.tolist()))


def _sms_rows(rows: np.ndarray, source: FiniteSpace, target: FiniteSpace) -> np.ndarray:
    """The rows of the pseudo-inverses of stacked representations: ``rows``
    has the source sets on its last axis and any leading axes, and the
    result has the target sets there instead."""
    # unavoidable[..., bt - 1, a - 1]: bt meets every admissible set of a
    unavoidable = rows[..., None, :] & ~_meets_masks(target)[:, None] == 0
    kept = np.where(unavoidable, _meets_masks(source), full_family(source))
    return np.bitwise_and.reduce(kept, axis=-1)


def is_pseudo_invertible(rep: CrispAmbRep) -> bool:
    """Whether pseudo-inversion applied twice restores the representation.

    Over finite spaces this holds exactly when the full-source row admits
    only the whole target (see ``docs/properties.md``); the definitional
    double application is evaluated here rather than that shortcut.
    """
    return sms(sms(rep)) == rep


# -- lattice structure ------------------------------------------------------


def meet(r: CrispAmbRep, s: CrispAmbRep) -> CrispAmbRep:
    _same_spaces(r, s)
    return CrispAmbRep(r.source, r.target, tuple(a & b for a, b in zip(r.rows, s.rows)))


def join(r: CrispAmbRep, s: CrispAmbRep) -> CrispAmbRep:
    _same_spaces(r, s)
    return CrispAmbRep(r.source, r.target, tuple(a | b for a, b in zip(r.rows, s.rows)))


# -- composition ------------------------------------------------------------


def compose(r: CrispAmbRep, s: CrispAmbRep) -> CrispAmbRep:
    """Relational composition; reads left to right (first ``r``, then ``s``).

    The row of ``a`` is the union of the rows of ``s`` at the sets that
    ``a`` admits.  As for :func:`sms`, the size of ``r``'s pair table
    picks the path: a loop over Python ints below ``ARRAY_MIN_CELLS``
    cells, one int64 OR-reduce over the unpacked rows of ``r`` from there.
    """
    if r.target != s.source:
        raise SpaceMismatch("middle spaces differ")
    if len(r.rows) * len(s.rows) < ARRAY_MIN_CELLS:  # source.full * target.full of r
        return _compose_loop(r, s)
    return _compose_masks(r, s)


def _compose_loop(r: CrispAmbRep, s: CrispAmbRep) -> CrispAmbRep:
    rows = []
    for admitted in r.rows:
        acc = 0
        for b, s_row in enumerate(s.rows):
            if admitted >> b & 1:
                acc |= s_row
        rows.append(acc)
    return CrispAmbRep(r.source, s.target, tuple(rows))


def _compose_masks(r: CrispAmbRep, s: CrispAmbRep) -> CrispAmbRep:
    rows = _compose_rows(np.asarray(r.rows), np.asarray(s.rows, dtype=np.int64), r.target)
    return CrispAmbRep(r.source, s.target, tuple(rows.tolist()))


def _compose_rows(r_rows: np.ndarray, s_rows: np.ndarray, middle: FiniteSpace) -> np.ndarray:
    """The rows of stacked composites: the last axis of ``r_rows`` runs over
    the source sets and that of ``s_rows`` over the ``middle`` sets, and
    their leading axes broadcast together."""
    picked = np.where(_unpack(r_rows, middle), s_rows[..., None, :], 0)
    return np.bitwise_or.reduce(picked, axis=-1)


# -- worked examples ---------------------------------------------------------


def mapping_rep(source: FiniteSpace, target: FiniteSpace, f) -> CrispAmbRep:
    """Representation induced by a point map: ``(A, B)`` related iff ``f(A) <= B``.

    ``f`` maps source labels to target labels (dict or callable).
    """
    get = f.__getitem__ if isinstance(f, dict) else f
    image_of_point = [target.subset([get(p)]) for p in source.points]
    sup = _superset_table(target)
    rows = []
    for a in source.subsets():
        img = 0
        for i in range(source.size):
            if a >> i & 1:
                img |= image_of_point[i]
        rows.append(sup[img - 1])
    return CrispAmbRep(source, target, tuple(rows))


def _class_masks(space: FiniteSpace, partition: Iterable[Iterable[str]]) -> list[int]:
    masks = [space.subset(block) for block in partition]
    seen = 0
    for m in masks:
        if m == 0 or m & seen:
            raise ValidationError("BadPartition", "blocks must be nonempty and disjoint")
        seen |= m
    if seen != space.full:
        raise ValidationError("BadPartition", "blocks must cover the space")
    return masks


def upper_approx(space: FiniteSpace, partition, a: int) -> int:
    """Union of the blocks meeting ``a``."""
    out = 0
    for m in _class_masks(space, partition):
        if m & a:
            out |= m
    return out


def lower_approx(space: FiniteSpace, partition, a: int) -> int:
    """Union of the blocks contained in ``a``."""
    out = 0
    for m in _class_masks(space, partition):
        if m & a == m:
            out |= m
    return out


def rough_rep(space: FiniteSpace, partition) -> CrispAmbRep:
    """Indiscernibility representation: ``(A, B)`` related iff the upper
    approximation of ``A`` is contained in the upper approximation of ``B``.
    The partition is checked once; each upper approximation is then the
    union of the blocks meeting ``A``, as in :func:`upper_approx`."""
    blocks = _class_masks(space, partition)
    uppers = np.array([sum(m for m in blocks if m & a) for a in space.subsets()])
    rows = _pack(uppers[:, None] & ~uppers[None, :] == 0, space)
    return CrispAmbRep(space, space, tuple(rows.tolist()))
