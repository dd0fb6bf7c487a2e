"""Injective encoding of graded representations into ternary hyperrelations.

A ternary hyperrelation relates (nonempty families of source subsets,
nonempty target subsets, grades).  A graded representation embeds by
sending a family to the join of the grades its members carry; the image
is exactly the common fixed points of three saturation operators
(refinement, merge, and their floored composite), which is what makes the
encoding recognizable and the least-upper-bound construction work.

Both saturations are subset sums, so each is computed exactly in one
pass by a subset-OR (zeta) transform over the bits of an index (Yates
1937; Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets Möbius",
STOC 2007).  After the transform, entry ``i`` holds the OR of the input
over every index ``j`` whose bits are a subset of ``i``'s.

* Refinement: a family ``cand`` refines ``fam`` iff ``fam`` lies inside
  ``covers(cand)``, the family of sets containing some member of
  ``cand``.  So the refinement closure at ``(cand, b)`` is the
  down-closure of the OR of ``masks[fam, b]`` over ``fam`` within
  ``covers(cand)``: one transform over the family bits, read at
  ``covers``.
* Merge: a triple lies in the closure under merging iff it equals the
  merge of all input triples below it (family and set inclusion, grade
  order).  If it is the merge of some input triples, each of them is
  below it, so the merge of all triples below it lies between the two.
  This needs only a join-semilattice of grades.  A cell index is the
  family bits followed by the target-set bits, so one transform over
  the cell index, run once per grade ``g`` over the triples of grade at
  most ``g``, gives both the union of the cells below and the grades
  held there.

Everything here is exact and desk-scale: the source space is gated at 3
points (127 families) and the lattice at 4 elements.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SpaceMismatch, SpaceTooLarge
from .fuzzy import LFuzzyAmbRep
from .hyperspace import FiniteSpace, _bit_weights, _frozen, _pack, _superset_matrix, _unpack
from .lattice import FiniteLattice

MAX_ENCODE_POINTS = 3
MAX_ENCODE_LATTICE = 4

# _POPCOUNT[m] = number of set bits of the byte m
_POPCOUNT = np.array([bin(m).count("1") for m in range(256)], dtype=np.intp)


class TernaryHyperRelation:
    """Triple set stored as a dense matrix of grade bitmasks.

    ``masks[fam, b]`` has bit ``alpha`` set iff the triple
    (family with mask ``fam``, subset ``b``, grade ``alpha``) is present.
    Row 0 and column 0 are unused padding.
    """

    __slots__ = ("source", "target", "lattice", "masks")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice, masks):
        _gate(source, lattice)
        self.source = source
        self.target = target
        self.lattice = lattice
        arr = np.asarray(masks, dtype=np.uint8).copy()
        want = (1 << source.full, target.full + 1)
        if arr.shape != want:
            raise ValueError(f"mask matrix must be {want}, got {arr.shape}")
        arr[0, :] = 0
        arr[:, 0] = 0
        arr.setflags(write=False)
        self.masks = arr

    @classmethod
    def empty(cls, source, target, lattice) -> "TernaryHyperRelation":
        return cls(source, target, lattice, np.zeros((1 << source.full, target.full + 1), np.uint8))

    @classmethod
    def from_triples(cls, source, target, lattice, triples) -> "TernaryHyperRelation":
        _gate(source, lattice)  # before allocating 2^(2^n - 1) rows
        m = np.zeros((1 << source.full, target.full + 1), np.uint8)
        for fam, b, alpha in triples:
            if not 1 <= fam <= (1 << source.full) - 1 or not 1 <= b <= target.full:
                raise ValueError(f"triple ({fam}, {b}, {alpha}) out of range")
            if not 0 <= alpha < lattice.size:
                raise ValueError(f"grade index {alpha} out of range")
            m[fam, b] |= 1 << alpha
        return cls(source, target, lattice, m)

    def triples(self):
        fams, bs = np.nonzero(self.masks)
        grades = range(self.lattice.size)
        # one read of the nonzero cells: indexing them one by one costs more
        for fam, b, mk in zip(fams.tolist(), bs.tolist(), self.masks[fams, bs].tolist()):
            for alpha in grades:
                if mk >> alpha & 1:
                    yield fam, b, alpha

    def triple_count(self) -> int:
        return int(_POPCOUNT[self.masks].sum())

    def __contains__(self, triple) -> bool:
        fam, b, alpha = triple
        return bool(self.masks[fam, b] >> alpha & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryHyperRelation)
            and self.source == other.source
            and self.target == other.target
            and self.lattice == other.lattice
            and np.array_equal(self.masks, other.masks)
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.lattice, self.masks.tobytes()))

    def issubset(self, other: "TernaryHyperRelation") -> bool:
        return bool(np.all(self.masks & ~other.masks == 0))


def _gate(source: FiniteSpace, lattice: FiniteLattice) -> None:
    if source.full > (1 << MAX_ENCODE_POINTS) - 1:
        raise SpaceTooLarge(
            f"encoding paths are exact only up to {MAX_ENCODE_POINTS} source points"
        )
    if lattice.size > MAX_ENCODE_LATTICE:
        raise SpaceTooLarge(
            f"encoding paths are gated at {MAX_ENCODE_LATTICE} lattice elements"
        )


# -- per-space / per-lattice tables -------------------------------------------


@lru_cache(maxsize=None)
def _covers(space: FiniteSpace) -> np.ndarray:
    # _covers(X)[fam] = family mask of the sets that some member of the
    # family refines (is contained in), for every family mask fam
    held = _unpack(np.arange(1 << space.full), space)
    return _frozen(_pack(held @ _superset_matrix(space), space))


def refinement_hyperspace(space: FiniteSpace, family: int) -> tuple[int, ...]:
    """All families holding a refiner of every member of ``family``.

    Upward closed under family inclusion; exact filter over all nonempty
    families of the space.
    """
    if space.full > (1 << MAX_ENCODE_POINTS) - 1:
        raise SpaceTooLarge("refinement filter enumerates all families; need <= 3 points")
    if not 1 <= family <= (1 << space.full) - 1:
        raise ValueError("family mask out of range (must be nonempty)")
    return tuple(np.flatnonzero(family & ~_covers(space) == 0).tolist())


class _GradeTables(NamedTuple):
    down: np.ndarray  # down[mask] = union of the principal down-sets of the grades in mask
    join_of: np.ndarray  # join_of[mask] = join of the grades in mask (bottom when empty)
    below: np.ndarray  # below[g, 0] = down[1 << g]
    hit: np.ndarray  # hit[g << n | mask] = 1 << g if mask is nonempty and joins to g, else 0
    hit_row: np.ndarray  # hit_row[g, 0] = g << n


@lru_cache(maxsize=None)
def _grade_tables(lattice: FiniteLattice) -> _GradeTables:
    n = lattice.size
    # bits[mask, g]: grade g is in mask; below[g]: the grades at most g
    bits = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    below = lattice.leq.T @ (1 << np.arange(n))
    down = np.bitwise_or.reduce(bits * below, axis=1).astype(np.uint8)
    join_of = lattice.from_down(np.bitwise_or.reduce(bits * lattice.down, axis=1))
    grades = np.arange(n)[:, None]
    hit = np.where(join_of == grades, 1 << grades, 0).astype(np.uint8)
    hit[:, 0] = 0
    tables = _GradeTables(
        down, join_of, below.astype(np.uint8)[:, None], hit.reshape(-1), grades << n
    )
    for arr in tables:
        arr.setflags(write=False)
    return tables


# -- saturation kernels on mask matrices ------------------------------------------
#
# Each kernel takes a mask matrix with zero padding row and column and
# returns a new one with the same property, so the kernels chain without
# building a relation for each intermediate.


def _zeta_or(a: np.ndarray, bits: range) -> None:
    """Subset-OR transform of the C-contiguous array ``a``, in place, over
    the given bits of its flat index: afterwards ``a[i]`` is the OR of the
    old ``a[j]`` over all ``j`` that agree with ``i`` outside ``bits`` and
    whose ``bits`` are a subset of ``i``'s."""
    for k in bits:
        v = a.reshape(-1, 2, 1 << k)
        v[:, 1] |= v[:, 0]


def _refine(masks: np.ndarray, source: FiniteSpace, lattice: FiniteLattice) -> np.ndarray:
    down = _grade_tables(lattice).down
    target_bits = masks.shape[1].bit_length() - 1
    z = masks.copy()
    _zeta_or(z, range(target_bits, target_bits + source.full))
    return down[z[_covers(source)]]


def _merge(masks: np.ndarray, lattice: FiniteLattice) -> np.ndarray:
    g = _grade_tables(lattice)
    n = lattice.size
    cells = np.arange(masks.size, dtype=np.uint32)
    # row k: the grades at most k held at each cell, with the cell index
    # in the high bits; 0 where the cell holds none of them
    held = masks.reshape(-1) & g.below
    z = (held | cells << n) * (held != 0)
    _zeta_or(z, range(masks.size.bit_length() - 1))
    kept = g.hit[z & ((1 << n) - 1) | g.hit_row] * (z >> n == cells)
    return np.bitwise_or.reduce(kept, axis=0).reshape(masks.shape)


def _plus(masks: np.ndarray, source: FiniteSpace, lattice: FiniteLattice) -> np.ndarray:
    m = masks.copy()
    m[1:, -1] = (1 << lattice.size) - 1
    m[1:, 1:] |= 1 << lattice.bottom
    return _merge(_refine(m, source, lattice), lattice)


# -- saturation operators -------------------------------------------------------


def subset_saturate(t: TernaryHyperRelation) -> TernaryHyperRelation:
    """Refinement saturation: spread each triple to every refining family
    and every smaller grade.  Extensive and idempotent.

    ``out[cand, b]`` is the down-closure of the OR of ``masks[fam, b]``
    over the families ``fam`` inside ``covers(cand)``; one subset-OR
    transform over the family bits yields those ORs for every ``cand``
    at once, exactly.
    """
    out = _refine(t.masks, t.source, t.lattice)
    return TernaryHyperRelation(t.source, t.target, t.lattice, out)


def sup_saturate(t: TernaryHyperRelation) -> TernaryHyperRelation:
    """Merge saturation: close under (family union, set union, grade join).

    Since all three combiners are associative, commutative and
    idempotent, the closure holds the merges of every nonempty subset of
    triples, and a triple is among them iff it is the merge of all the
    triples below it.  For each cell and grade ``g`` one subset-OR
    transform over the cell index collects the union of the cells below
    that hold a grade at most ``g``, and the grades at most ``g`` they
    hold; the triple is kept iff that union is the cell itself and those
    grades join to ``g``.  Extensive and idempotent.
    """
    return TernaryHyperRelation(t.source, t.target, t.lattice, _merge(t.masks, t.lattice))


def plus(t: TernaryHyperRelation) -> TernaryHyperRelation:
    """Floor, refine, then merge; the composite saturation whose fixed
    points containing singleton data are exactly the encoded images.

    The floor adds every grade on the full target set and the bottom
    grade on every cell."""
    out = _plus(t.masks, t.source, t.lattice)
    return TernaryHyperRelation(t.source, t.target, t.lattice, out)


# -- the encoding ---------------------------------------------------------------


def _encode(rep: LFuzzyAmbRep) -> np.ndarray:
    lat = rep.lattice
    down = _grade_tables(lat).down
    # grade of a family = join over its members; the families in
    # [2**k, 2**(k+1)) join member row k onto the families below 2**k
    grade_of = np.empty((1 << rep.source.full, rep.target.full), dtype=np.intp)
    grade_of[0] = lat.bottom
    for k in range(rep.source.full):
        grade_of[1 << k : 2 << k] = lat.join_table[grade_of[: 1 << k], rep.grades[k]]
    masks = np.zeros((1 << rep.source.full, rep.target.full + 1), dtype=np.uint8)
    masks[1:, 1:] = down[1 << grade_of[1:]]
    return masks


def encode(rep: LFuzzyAmbRep) -> TernaryHyperRelation:
    """Encode a graded representation.

    A triple (family, b, gamma) is present iff ``gamma`` is below the join
    of the grades ``rep(a, b)`` over members ``a`` of the family.
    """
    _gate(rep.source, rep.lattice)
    return TernaryHyperRelation(rep.source, rep.target, rep.lattice, _encode(rep))


def bullet(rep: LFuzzyAmbRep) -> TernaryHyperRelation:
    """The singleton-family copy of a representation's subgraph."""
    _gate(rep.source, rep.lattice)
    down = _grade_tables(rep.lattice).down
    m = np.zeros((1 << rep.source.full, rep.target.full + 1), dtype=np.uint8)
    m[_bit_weights(rep.source), 1:] = down[1 << rep.grades]
    return TernaryHyperRelation(rep.source, rep.target, rep.lattice, m)


def _decode(
    masks: np.ndarray, source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice
) -> LFuzzyAmbRep:
    join_of = _grade_tables(lattice).join_of
    return LFuzzyAmbRep(source, target, lattice, join_of[masks[_bit_weights(source), 1:]])


def decode(t: TernaryHyperRelation) -> LFuzzyAmbRep:
    """Recover the representation from the singleton-family triples."""
    return _decode(t.masks, t.source, t.target, t.lattice)


def is_encoded(t: TernaryHyperRelation) -> bool:
    """Whether ``t`` is ``plus`` of its singleton-family triples; then
    ``t == plus(t)`` as well, ``plus`` being a closure (``docs/properties.md``)."""
    rows = _bit_weights(t.source)  # the families of a single subset
    singletons = np.zeros_like(t.masks)
    singletons[rows] = t.masks[rows]
    return np.array_equal(t.masks, _plus(singletons, t.source, t.lattice))


def family_sup(reps: Sequence[LFuzzyAmbRep]) -> LFuzzyAmbRep:
    """Least upper bound computed through the encoding.

    Encodes every member, unions the triple sets, saturates, and decodes.
    Must agree with the pointwise construction in :mod:`ambrel.fuzzy`.
    """
    if not reps:
        raise ValueError("sup of an empty family is not defined without a frame")
    first = reps[0]
    for r in reps:
        if r.source != first.source or r.target != first.target or r.lattice != first.lattice:
            raise SpaceMismatch("family members live over different frames")
    _gate(first.source, first.lattice)
    acc = _encode(first)
    for r in reps[1:]:
        acc |= _encode(r)
    acc = _plus(acc, first.source, first.lattice)
    return _decode(acc, first.source, first.target, first.lattice)
