"""Lattice-graded ambiguous representations.

A graded representation assigns to each pair (nonempty source subset,
nonempty target subset) a grade in a finite bounded distributive lattice:
how well the first can stand for the second.  Grades fall as the source
set grows, rise as the target set grows, and the full target always gets
the top grade.  The grade table, the subgraph triple set and the family
of crisp cuts are three views of the same object; conversions between
them live here.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import crisp
from .crisp import CrispAmbRep
from .errors import LatticeIsChain, SpaceMismatch, ValidationError
from .hyperspace import (
    FiniteSpace, _frozen, _grow_index, _pack, _shrink_index, _superset_matrix, _unpack, full_family,
)
from .lattice import FiniteLattice, TNormTable, meet_tnorm


class LFuzzyAmbRep:
    """A graded ambiguous representation, stored as a dense grade table.

    ``grades[a - 1, b - 1]`` is the lattice element index grading the pair
    of subset masks ``(a, b)``.  Instances are immutable and compared by
    value.  The first :func:`alpha_cut` packs every cut at once and keeps
    the cuts (``_cuts``), so further cuts of the same instance are read,
    not recomputed.
    """

    __slots__ = ("source", "target", "lattice", "grades", "_cuts")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice, grades):
        self.source = source
        self.target = target
        self.lattice = lattice
        arr = np.array(grades, dtype=np.intp)
        if arr.shape != (source.full, target.full):
            raise ValidationError(
                "BadGradeTable",
                f"grade table must be {source.full}x{target.full}, got {arr.shape}",
            )
        arr.setflags(write=False)
        self.grades = arr
        self._cuts = None

    def grade(self, a: int, b: int) -> int:
        return int(self.grades[a - 1, b - 1])

    def subgraph(self) -> set[tuple[int, int, int]]:
        """All triples ``(a, b, alpha)`` with ``alpha`` below the grade."""
        lat = self.lattice
        return {
            (a, b, alpha)
            for a in self.source.subsets()
            for b in self.target.subsets()
            for alpha in range(lat.size)
            if lat.le(alpha, self.grade(a, b))
        }

    def __eq__(self, other) -> bool:
        # both tables are intp of the shape the spaces fix, so once the
        # frames match, equal bytes are equal grades
        return (
            isinstance(other, LFuzzyAmbRep)
            and self.source == other.source
            and self.target == other.target
            and self.lattice == other.lattice
            and self.grades.tobytes() == other.grades.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.lattice, self.grades.tobytes()))

    def __repr__(self) -> str:
        return f"LFuzzyAmbRep({self.source.points}->{self.target.points}, |L|={self.lattice.size})"


def _same_frame(r: LFuzzyAmbRep, s: LFuzzyAmbRep) -> None:
    if r.source != s.source or r.target != s.target:
        raise SpaceMismatch("representations live over different spaces")
    if r.lattice != s.lattice:
        raise SpaceMismatch("representations use different grade lattices")


def validate(
    source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice, grades
) -> LFuzzyAmbRep:
    """Validate a grade table.

    Checks every entry is an element index (``BadGradeTable``), the
    full-target column is constantly top (``FullTargetNotTop``), grades
    rise with the target set (``NotIsotoneInB``) and fall with the source
    set (``NotAntitoneInA``).  Join-closure of the induced triple set is
    automatic for tables recovered by maxima, and the zero floor is part of
    the subgraph reading rather than a table property.
    """
    rep = LFuzzyAmbRep(source, target, lattice, grades)
    g = rep.grades
    # a negative index wraps to a large one in the unsigned view
    if np.maximum.reduce(g.view(np.uintp), axis=None) >= lattice.size:
        outside = (g < 0) | (g >= lattice.size)
        a, b = (int(k) + 1 for k in np.unravel_index(outside.argmax(), outside.shape))
        raise ValidationError(
            "BadGradeTable",
            f"grades must be element indices 0..{lattice.size - 1}",
            witness=[list(source.labels(a)), list(target.labels(b)), int(g[a - 1, b - 1])],
        )
    return _checked(rep)


def _checked(rep: LFuzzyAmbRep) -> LFuzzyAmbRep:
    # the checks of validate on a table of element indices; from_cuts runs
    # them on the table it rebuilds
    source, target, lattice, g = rep.source, rep.target, rep.lattice, rep.grades
    off_top = g[:, target.full - 1] != lattice.top
    if off_top.any():
        a = int(off_top.argmax()) + 1
        raise ValidationError(
            "FullTargetNotTop",
            "the whole target must carry the top grade",
            witness=[list(source.labels(a))],
        )
    # leq_at[x * |L| + y] = whether x <= y; one lookup into a flat index
    # array built in place costs less than a two-index one
    leq_at, n = lattice.leq.reshape(-1), lattice.size
    # rises[b - 1, j, a - 1]: grade (a, b) is below grade (a, b | 1 << j).
    # A bit already in b compares an entry with itself, which reflexivity
    # passes, so the first violation is the loop-order (b, j, a) one.
    gt = g.T
    steps = gt[_grow_index(target)[1:] - 1]
    steps += gt[:, None, :] * n
    rises = leq_at[steps]
    if not rises.all():
        b, j, a = (int(k) for k in np.unravel_index(rises.argmin(), rises.shape))
        raise ValidationError(
            "NotIsotoneInB",
            "grades must rise with the target set",
            witness=[
                list(source.labels(a + 1)),
                list(target.labels(b + 1)),
                list(target.labels((b + 1) | (1 << j))),
            ],
        )
    # falls[a - 1, i, b - 1]: grade (a, b) is below grade (a & ~(1 << i), b);
    # steps that leave a unchanged or empty compare an entry with itself
    steps = g[_shrink_index(source)[1:] - 1]
    steps += g[:, None, :] * n
    falls = leq_at[steps]
    if not falls.all():
        a, i, b = (int(k) for k in np.unravel_index(falls.argmin(), falls.shape))
        raise ValidationError(
            "NotAntitoneInA",
            "grades must fall as the source set grows",
            witness=[
                list(source.labels((a + 1) & ~(1 << i))),
                list(source.labels(a + 1)),
                list(target.labels(b + 1)),
            ],
        )
    return rep


# -- canonical representations ------------------------------------------


def top(source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice) -> LFuzzyAmbRep:
    g = np.full((source.full, target.full), lattice.top, dtype=np.intp)
    return LFuzzyAmbRep(source, target, lattice, g)


def bot(source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice) -> LFuzzyAmbRep:
    g = np.full((source.full, target.full), lattice.bottom, dtype=np.intp)
    g[:, target.full - 1] = lattice.top
    return LFuzzyAmbRep(source, target, lattice, g)


def identity(space: FiniteSpace, lattice: FiniteLattice) -> LFuzzyAmbRep:
    g = np.where(_superset_matrix(space), lattice.top, lattice.bottom)
    return LFuzzyAmbRep(space, space, lattice, g)


def embed_crisp(rep: CrispAmbRep, lattice: FiniteLattice) -> LFuzzyAmbRep:
    """Two-valued embedding: related pairs get top, the rest bottom."""
    g = np.where(_unpack(rep.rows, rep.target), lattice.top, lattice.bottom)
    return LFuzzyAmbRep(rep.source, rep.target, lattice, g)


# -- cuts ------------------------------------------------------------------

# table sizes from which the cut rows and compose run their array kernels;
# below them one gather of a small table decides every entry.  Measured on
# a 2-vCPU x86 VM with Python 3.11 and numpy 2.4, as crisp.ARRAY_MIN_CELLS.
# Cut rows count grades x source sets x target sets: the gather wins below
# (6.4 to 2.1 us at 2x2 points over chain3, 7.1 to 3.7 at 3x3 over
# chain16), the paths tie at 4x4 over chain16 (3600 cells) and 4x5 over
# chain8, and the kernel wins from there on (13.9 against 26.3 us at 6x6
# over the square).
CUT_KERNEL_MIN_CELLS = 3600
# Compose counts source x middle x target sets: the gather wins below
# (5.9 to 3.7 us at 2x2x2 points, 7.5 to 6.8 at 2x4x4), the paths tie at
# 3x3x4 and 4x3x3 (735 cells), and the kernel wins from there on (8.7
# against 19.8 us at 4x4x4).
COMPOSE_KERNEL_MIN_CELLS = 700


def _cut_rows(rep: LFuzzyAmbRep) -> np.ndarray:
    """``rows[alpha, a - 1]``: the family mask of row ``a`` of the cut at
    ``alpha``, for every element ``alpha`` at once.

    Below ``CUT_KERNEL_MIN_CELLS`` cells (grades x source sets x target
    sets) one gather of the order matrix, ``leq[alpha, grade]``, decides
    every cut and ``_pack`` packs its rows.  From there on the kernel
    below runs: ``alpha <= y`` exactly when ``down[alpha] & ~down[y] ==
    0``, so one mask test over (grade, source set, target set) decides
    every cut.  Each row is padded to the width of the smallest unsigned
    integer that holds it (8 to 64 target sets), so its packed bits are
    one integer.  The padding holds at the bottom grade alone, whose cut
    is the full relation, so that row is set to the whole family.
    """
    lat, g, target = rep.lattice, rep.grades, rep.target
    if lat.size * g.size < CUT_KERNEL_MIN_CELLS:
        return _frozen(_pack(lat.leq.take(g, axis=1), target))
    width = max(8, 1 << target.size)  # target.full + 1 bits, at least a byte
    not_down = np.full((len(g), width), np.uint16(0xFFFF))
    not_down[:, : target.full] = ~lat.down[g]
    held = (lat.down[:, None, None] & not_down) == 0
    rows = np.packbits(held, axis=None, bitorder="little").view(f"<u{width // 8}")
    rows = rows.reshape(lat.size, -1)
    rows[lat.bottom] = full_family(target)
    return _frozen(rows)


def alpha_cut(rep: LFuzzyAmbRep, alpha: int) -> CrispAmbRep:
    """Pairs graded at least ``alpha``; a valid crisp representation for
    every ``alpha``.

    The first call on a representation packs every cut at once
    (:func:`_cut_rows`) and keeps the cuts on the instance; every call
    returns one of them.  Most callers read every cut, some more than
    once, so each cut is built once.
    """
    cuts = rep._cuts
    if cuts is None:
        source, target = rep.source, rep.target
        cuts = rep._cuts = tuple(
            [CrispAmbRep(source, target, rows) for rows in map(tuple, _cut_rows(rep).tolist())]
        )
    return cuts[alpha]


def cuts(rep: LFuzzyAmbRep) -> dict[int, CrispAmbRep]:
    return {alpha: alpha_cut(rep, alpha) for alpha in range(rep.lattice.size)}


def from_cuts(
    source: FiniteSpace,
    target: FiniteSpace,
    lattice: FiniteLattice,
    cut_family: Mapping[int, CrispAmbRep],
) -> LFuzzyAmbRep:
    """Reassemble a graded representation from a family of crisp cuts.

    The family must be indexed by every lattice element and reproduce
    itself: grading each pair by the join of the indices whose cut holds
    it must give back exactly the family.  Otherwise
    ``CutFamilyInconsistent`` is raised with the offending index and pair.
    The grades must then pass the checks of :func:`validate`.
    """
    if cut_family.keys() != set(range(lattice.size)):
        raise ValidationError(
            "CutFamilyInconsistent", "need one cut per lattice element", witness=None
        )
    # one set of space pairs: a tuple compare meets the same objects first
    if {(cut.source, cut.target) for cut in cut_family.values()} != {(source, target)}:
        raise SpaceMismatch("cut family members live over different spaces")
    # the join of the indices whose cut holds a pair, as the union of
    # their down-set masks.  held[alpha, a - 1, b - 1]: the cut at alpha
    # holds (a, b)
    n = lattice.size
    rows = np.fromiter(
        chain.from_iterable(cut_family[alpha].rows for alpha in range(n)),
        dtype="<i8",
        count=n * source.full,
    )
    held = _unpack(rows.reshape(n, source.full), target)
    g = lattice.from_down(np.bitwise_or.reduce(held * lattice.down[:, None, None], axis=0))
    rep = LFuzzyAmbRep(source, target, lattice, g)
    for alpha, cut in cut_family.items():
        again = alpha_cut(rep, alpha)
        if again.rows != cut.rows:  # the spaces agree, as checked above
            # first differing pair in (a, b) order: first differing row,
            # lowest differing bit
            a, diff = next(
                (a, r ^ s) for a, (r, s) in enumerate(zip(again.rows, cut.rows), 1) if r != s
            )
            b = (diff & -diff).bit_length()
            raise ValidationError(
                "CutFamilyInconsistent",
                "cut family is not reproduced by its own grades",
                witness=[
                    lattice.elements[alpha],
                    list(source.labels(a)),
                    list(target.labels(b)),
                ],
            )
    return _checked(rep)


# -- composition -------------------------------------------------------------


def compose(
    rf: LFuzzyAmbRep, sf: LFuzzyAmbRep, tnorm: TNormTable | None = None
) -> LFuzzyAmbRep:
    """Graded composition: join over middle sets of combined grades.

    The grade of ``(a, c)`` is the join, over middle sets ``b``, of
    ``tnorm(grade_r(a, b), grade_s(b, c))``.  The join runs on Birkhoff
    masks: each combined grade is replaced by its ``lattice.down`` mask,
    the masks are OR-ed over the middle axis, and the result is mapped
    back to an element.  That is exact because in a distributive lattice
    the join-irreducibles below a join are those below either side; every
    :class:`FiniteLattice` is distributive, as :func:`validate_lattice`
    checks.  Any t-norm goes through the same kernel.

    Below ``COMPOSE_KERNEL_MIN_CELLS`` (source x middle x target sets)
    the masks of every ``(a, b, c)`` are gathered at once.  From there on
    they are gathered by rows: for every grade ``y`` and middle set
    ``b`` one row holds the masks of ``tnorm(grade_r(a, b), y)`` over all
    ``a``, and each pair ``(b, c)`` copies the row of ``y = grade_s(b, c)``.
    """
    if rf.target != sf.source:
        raise SpaceMismatch("middle spaces differ")
    if rf.lattice != sf.lattice:
        raise SpaceMismatch("representations use different grade lattices")
    lat = rf.lattice
    if tnorm is None:
        tnorm = meet_tnorm(lat)
    elif tnorm.lattice != lat:
        raise SpaceMismatch("grade combination table belongs to a different lattice")
    if rf.grades.size * sf.target.full < COMPOSE_KERNEL_MIN_CELLS:
        # combined[x, y] = down mask of tnorm(x, y), gathered at every
        # (a, b, c) and OR-reduced over the middle sets b
        combined = lat.down[tnorm.table]
        joined = np.bitwise_or.reduce(combined[rf.grades[:, :, None], sf.grades], axis=1)
        return LFuzzyAmbRep(rf.source, sf.target, lat, lat.from_down(joined))
    # by_s[y * B + b, a - 1] = down mask of tnorm(grade_r(a, b), y): for
    # each grade y and middle set b, one contiguous row over the sources.
    # The grade of (b, c) in s picks row s_bc * B + b, so the gather reads
    # B*C indices and copies rows of A masks; the largest temporary is the
    # (B, C, A) uint16 gather, 0.5 MB at 6x6x6 points
    n_mid = sf.grades.shape[0]
    by_s = lat.down[tnorm.table].T.take(rf.grades.T, axis=1).reshape(lat.size * n_mid, -1)
    picks = sf.grades * n_mid + np.arange(n_mid)[:, None]
    joined = np.bitwise_or.reduce(by_s.take(picks, axis=0), axis=0)
    return LFuzzyAmbRep(rf.source, sf.target, lat, lat.from_down(joined.T))


# -- pseudo-inversion ---------------------------------------------------------


def sms(rep: LFuzzyAmbRep) -> LFuzzyAmbRep:
    """Cutwise pseudo-inversion.

    By definition the cut of the result at ``alpha`` is the intersection
    of the crisp pseudo-inverses of all cuts at indices up to ``alpha``
    (the approximation order collapses to the lattice order on finite
    lattices).  Cuts shrink as the index grows and crisp ``sms`` is
    isotone, so of the intersected relations the pseudo-inverse of the cut
    at ``alpha`` is the smallest, and the intersection is exactly
    ``crisp.sms(cut_alpha)``.  The zero cut of the result is the full
    relation, as for any graded relation, rather than the pseudo-inverse
    of the full zero cut.  The grade of a pair is recovered as the join of
    the indices whose cut holds it, and ``from_cuts`` checks that the
    cuts reproduce themselves.
    """
    lat = rep.lattice
    X, Y = rep.source, rep.target
    cut_family = {alpha: crisp.sms(alpha_cut(rep, alpha)) for alpha in range(lat.size)}
    cut_family[lat.bottom] = crisp.top(Y, X)
    return from_cuts(Y, X, lat, cut_family)


def is_pseudo_invertible(rep: LFuzzyAmbRep) -> bool:
    """Whether cutwise pseudo-inversion applied twice restores the table."""
    return sms(sms(rep)) == rep


# -- lattice structure ---------------------------------------------------------


def join(r: LFuzzyAmbRep, s: LFuzzyAmbRep) -> LFuzzyAmbRep:
    _same_frame(r, s)
    return LFuzzyAmbRep(r.source, r.target, r.lattice, r.lattice.join_table[r.grades, s.grades])


def meet(r: LFuzzyAmbRep, s: LFuzzyAmbRep) -> LFuzzyAmbRep:
    _same_frame(r, s)
    return LFuzzyAmbRep(r.source, r.target, r.lattice, r.lattice.meet_table[r.grades, s.grades])


def sup_family(reps: Sequence[LFuzzyAmbRep]) -> LFuzzyAmbRep:
    """Pointwise least upper bound of a nonempty family."""
    if not reps:
        raise ValueError("sup of an empty family is not defined without a frame")
    acc = reps[0]
    for r in reps[1:]:
        acc = join(acc, r)
    return acc


def inf_family(reps: Sequence[LFuzzyAmbRep]) -> LFuzzyAmbRep:
    """Pointwise greatest lower bound of a nonempty family."""
    if not reps:
        raise ValueError("inf of an empty family is not defined without a frame")
    acc = reps[0]
    for r in reps[1:]:
        acc = meet(acc, r)
    return acc


# -- subgraph views and the union counterexample -----------------------------


def subgraph_is_join_closed(
    source: FiniteSpace,
    target: FiniteSpace,
    lattice: FiniteLattice,
    triples: Iterable[tuple[int, int, int]],
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Check the join-closure axiom of subgraph triple sets.

    Returns ``(True, None)`` or ``(False, (a, b, alpha, beta))`` where the
    triple at ``alpha | beta`` is missing.
    """
    present: dict[tuple[int, int], set[int]] = {}
    for a, b, alpha in triples:
        present.setdefault((a, b), set()).add(alpha)
    for (a, b), grades in present.items():
        for alpha in grades:
            for beta in grades:
                if lattice.join(alpha, beta) not in grades:
                    return False, (a, b, alpha, beta)
    return True, None


def union_counterexample(
    source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice
) -> tuple[LFuzzyAmbRep, LFuzzyAmbRep, dict]:
    """Two valid graded representations whose subgraph union is not one.

    Both grade a common point's neighbourhoods through two incomparable
    grades; the union of their subgraphs then misses the joined grade.
    Raises ``LatticeIsChain`` when every pair of grades is comparable, in
    which case no such pair exists.
    """
    pair = lattice.incomparable_pair()
    if pair is None:
        raise LatticeIsChain("all grades comparable: subgraph unions stay join-closed")
    if target.size < 2:
        raise ValidationError(
            "TargetTooSmall", "need a proper neighbourhood in the target", witness=None
        )
    a_grade, b_grade = pair
    x1 = 1  # first point of the source
    y1 = 1  # first point of the target

    def build(grade: int) -> LFuzzyAmbRep:
        g = np.full((source.full, target.full), lattice.bottom, dtype=np.intp)
        g[:, target.full - 1] = lattice.top
        for b in target.subsets():
            if b & y1 and b != target.full:
                g[x1 - 1, b - 1] = grade
        return LFuzzyAmbRep(source, target, lattice, g)

    rf, sf = build(a_grade), build(b_grade)
    witness_b = y1  # the singleton neighbourhood of the common point
    union = set(rf.subgraph()) | set(sf.subgraph())
    closed, missing = subgraph_is_join_closed(source, target, lattice, union)
    assert not closed and missing is not None
    witness = {
        "source_set": list(source.labels(x1)),
        "target_set": list(target.labels(witness_b)),
        "grades": [lattice.elements[a_grade], lattice.elements[b_grade]],
        "missing_grade": lattice.elements[lattice.join(a_grade, b_grade)],
        "missing_triple": [
            list(source.labels(missing[0])),
            list(target.labels(missing[1])),
            lattice.elements[lattice.join(missing[2], missing[3])],
        ],
    }
    return rf, sf, witness
