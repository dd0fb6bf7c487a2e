"""Builders: geometric example representations and seeded random objects.

The metric and translation builders realize the two guiding geometric
examples (how far a set must be dilated or shifted to sit inside
another); the projection builder realizes the shadow relation on grid
windows.  The random builders feed the property suites and are
deterministic given their seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import crisp
from .capacity import LCapacity
from .crisp import CrispAmbRep
from .errors import ValidationError
from .fuzzy import LFuzzyAmbRep
from .hyperspace import FiniteSpace, _pack, gate_points
from .lattice import FiniteLattice, _levels
from .catalog import chain


def _holds(space: FiniteSpace) -> np.ndarray:
    # _holds(X)[s - 1, i]: point i lies in the nonempty subset s
    return (np.arange(1, space.full + 1)[:, None] >> np.arange(space.size) & 1).astype(bool)


# -- metric example -----------------------------------------------------------


@dataclass(frozen=True)
class MetricTable:
    """A finite metric space given by its distance matrix."""

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.points)
        d = self.dist
        if len(d) != n or any(len(row) != n for row in d):
            raise ValidationError("BadMatrix", "distance matrix shape mismatch")
        for i in range(n):
            if d[i][i] != 0:
                raise ValidationError("BadMetric", "nonzero self-distance", [self.points[i]])
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise ValidationError(
                        "BadMetric", "asymmetric distance", [self.points[i], self.points[j]]
                    )
                if d[i][j] < 0:
                    raise ValidationError("BadMetric", "negative distance")
                for k in range(n):
                    if d[i][k] > d[i][j] + d[j][k]:
                        raise ValidationError(
                            "BadMetric",
                            "triangle inequality fails",
                            [self.points[i], self.points[j], self.points[k]],
                        )
        if n > 1 and self.diameter == 0:
            raise ValidationError("BadMetric", "diameter must be positive")

    @property
    def diameter(self) -> Fraction:
        return max((x for row in self.dist for x in row), default=Fraction(0))


def metric_table(points: Sequence[str], dist) -> MetricTable:
    rows = tuple(tuple(Fraction(x) for x in row) for row in dist)
    return MetricTable(tuple(points), rows)


def line_metric(n: int) -> MetricTable:
    """n points on a line at unit spacing."""
    pts = [f"p{i}" for i in range(gate_points(n))]
    return metric_table(pts, [[abs(i - j) for j in range(n)] for i in range(n)])


def metric_rep(m: MetricTable, grades: FiniteLattice) -> LFuzzyAmbRep:
    """Grade pairs by normalized one-sided distance.

    The grade of (A, B) quantizes ``1 - max over a in A of dist(a, B) /
    diameter`` down onto the levels of a chain listed in any order;
    containment gives top, a diameter-far pair bottom (``docs/properties.md``).

    ``min`` and ``max`` commute with ranking, so the one-sided distances
    are taken on the integer ranks of the distinct distances, and only
    each distinct distance is quantized, by exact ``Fraction`` arithmetic.
    """
    if not grades.is_chain():
        raise ValidationError("NotAChain", "metric grading needs a chain of levels")
    sp = FiniteSpace(m.points)
    n_levels = grades.size
    diam = m.diameter
    distinct = sorted({d for row in m.dist for d in row})
    rank_of = {d: k for k, d in enumerate(distinct)}
    rank = np.array([[rank_of[d] for d in row] for row in m.dist], dtype=np.intp)
    inside = _holds(sp)
    # to_b[i, b - 1]: rank of dist(i, B), the least over the points of B
    to_b = np.where(inside[None, :, :], rank[:, None, :], len(distinct)).min(axis=2)
    # worst[a - 1, b - 1]: rank of the largest dist(i, B) over i in A; the
    # fill 0 is the least rank, so points outside A never win
    worst = np.where(inside[:, :, None], to_b[None, :, :], 0).max(axis=1)
    level = []
    for d in distinct:
        val = 1 - (d / diam if diam else Fraction(0))
        level.append(min(int(val * (n_levels - 1)), n_levels - 1))  # floor quantization
    return LFuzzyAmbRep(sp, sp, grades, _levels(grades)[level][worst])


# -- grid examples ------------------------------------------------------------


@dataclass(frozen=True)
class GridWindow:
    """An inner window of cells sitting inside an outer window.

    Cells are addressed column-first as ``c<x>r<y>``; the inner window is
    anchored at ``(inner_x, inner_y)`` within the outer one.
    """

    outer_w: int
    outer_h: int
    inner_w: int
    inner_h: int
    inner_x: int = 0
    inner_y: int = 0

    def __post_init__(self):
        if min(self.outer_w, self.outer_h, self.inner_w, self.inner_h) <= 0:
            raise ValidationError("BadWindow", "window dimensions must be positive")
        if (
            self.inner_x < 0
            or self.inner_y < 0
            or self.inner_x + self.inner_w > self.outer_w
            or self.inner_y + self.inner_h > self.outer_h
        ):
            raise ValidationError("BadWindow", "inner window must sit inside the outer one")
        if self.outer_w * self.outer_h > 6:
            raise ValidationError("BadWindow", "outer window limited to 6 cells")

    def outer_space(self) -> FiniteSpace:
        return FiniteSpace(
            tuple(f"c{x}r{y}" for x in range(self.outer_w) for y in range(self.outer_h))
        )

    def inner_space(self) -> FiniteSpace:
        return FiniteSpace(
            tuple(
                f"c{x}r{y}"
                for x in range(self.inner_x, self.inner_x + self.inner_w)
                for y in range(self.inner_y, self.inner_y + self.inner_h)
            )
        )

    def outer_cells(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.outer_w) for y in range(self.outer_h)]

    def inner_cells(self) -> list[tuple[int, int]]:
        return [
            (x, y)
            for x in range(self.inner_x, self.inner_x + self.inner_w)
            for y in range(self.inner_y, self.inner_y + self.inner_h)
        ]

    @property
    def reach(self) -> int:
        """Chebyshev diameter of the outer window."""
        return max(self.outer_w - 1, self.outer_h - 1)


def translation_rep(g: GridWindow, grades: FiniteLattice | None = None) -> LFuzzyAmbRep:
    """Grade inner/outer set pairs by the shortest embedding shift.

    The grade of (A, B) is level ``reach`` minus the least Chebyshev
    length of an integer shift taking A inside B, of a chain listed in any
    order; no shift embeds, grade bottom.  One array over (shift, inner
    set, outer set) decides it; valid by construction (``docs/properties.md``).
    """
    r = g.reach
    if r == 0:
        raise ValidationError("BadWindow", "outer window needs at least two cells across")
    if grades is None:
        grades = chain(r + 1)
    if not grades.is_chain() or grades.size != r + 1:
        raise ValidationError("NotAChain", f"need the {r + 1}-level chain for this window")
    inner, outer = g.inner_space(), g.outer_space()
    x, y = np.array(g.inner_cells()).T
    shifts = np.mgrid[1 - g.outer_w : g.outer_w, 1 - g.outer_h : g.outer_h]
    dx, dy = shifts.reshape(2, -1, 1)
    # bit[s, i]: the bit of inner cell i moved by shift s in an outer set
    # mask; bit outer.size, in no outer set, when it leaves the window
    left = (x + dx < 0) | (x + dx >= g.outer_w) | (y + dy < 0) | (y + dy >= g.outer_h)
    bit = 1 << np.where(left, outer.size, (x + dx) * g.outer_h + y + dy)
    # moved[s, a - 1]: the mask of A moved by shift s
    moved = np.bitwise_or.reduce(np.where(_holds(inner), bit[:, None, :], 0), axis=2)
    fits = moved[:, :, None] & ~np.arange(1, outer.full + 1) == 0
    level = np.where(fits, r - np.maximum(abs(dx), abs(dy))[:, :, None], 0).max(axis=0)
    return LFuzzyAmbRep(inner, outer, grades, _levels(grades)[level])


def projection_rep(g: GridWindow) -> CrispAmbRep:
    """Shadow relation: (A, B) related iff every column of A is a column of B."""
    inner, outer = g.inner_space(), g.outer_space()

    def column_sets(space: FiniteSpace, cells) -> np.ndarray:
        # column_sets(...)[s - 1] = bitmask of the grid columns subset s meets
        column_bits = 1 << np.array([x for x, _ in cells])
        return np.bitwise_or.reduce(np.where(_holds(space), column_bits, 0), axis=1)

    ca, cb = column_sets(inner, g.inner_cells()), column_sets(outer, g.outer_cells())
    rows = _pack(ca[:, None] & ~cb[None, :] == 0, outer)
    return CrispAmbRep(inner, outer, tuple(rows.tolist()))


# -- seeded random builders -----------------------------------------------------


def random_rep(
    source: FiniteSpace, target: FiniteSpace, seed: int, density: float
) -> CrispAmbRep:
    """Axiom closure of a Bernoulli-sampled seed pair set.

    Density 0 gives the bottom representation, density 1 the top one;
    identical seeds give identical output.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    pairs = [
        (a, b)
        for a in source.subsets()
        for b in target.subsets()
        if rng.random() < density
    ]
    return crisp.from_seed(source, target, pairs)


@lru_cache(maxsize=None)
def _lane_steps(n_src: int, n_tgt: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The steps of the two subset-OR transforms on a table packed into one
    integer, for ``n_src`` source and ``n_tgt`` target points.

    Cell ``(a, b)``, for every mask ``a`` from 0 to the full source and
    ``b`` from 0 to the full target, is the 16-bit lane ``a * 2^n_tgt +
    b``.  A step is ``(shift, select)``: target bit ``j`` ORs the lanes
    shifted up by ``2^j`` lanes into those whose ``b`` holds bit ``j``,
    and source bit ``i`` ORs the lanes shifted down by ``2^i`` rows into
    those whose ``a`` lacks bit ``i``.
    """
    a = np.arange(1 << n_src)[:, None]
    b = np.arange(1 << n_tgt)[None, :]

    def select(lanes: np.ndarray) -> int:
        ones = np.where(np.broadcast_to(lanes, (len(a), b.size)), 0xFFFF, 0).astype("<u2")
        return int.from_bytes(ones.tobytes(), "little")

    over_target = tuple((16 << j, select(b >> j & 1 == 1)) for j in range(n_tgt))
    over_source = tuple((16 << (n_tgt + i), select(a >> i & 1 == 0)) for i in range(n_src))
    return over_target, over_source


def random_fuzzy_rep(
    source: FiniteSpace,
    target: FiniteSpace,
    grades: FiniteLattice,
    seed: int,
    density: float,
) -> LFuzzyAmbRep:
    """Random grade table repaired to the least valid majorant.

    Raw grades, drawn row by row: bottom with probability ``1 - density``,
    otherwise top with probability ``density`` else a uniform element.
    The repair forces the full-target column to top and then grades each
    pair ``(a, b)`` by the join of the raw grades at every superset of
    ``a`` and subset of ``b``; the result is valid by construction.  The
    joins run on Birkhoff masks as two subset-OR transforms, over the
    target bits and then over the source bits, which give the tables of
    the sequential join loops (``docs/properties.md``), kept as
    ``oracle.random_fuzzy_rep_loops``.  The masks are packed into one
    integer, 16 bits a cell, so each step of a transform is one shift,
    one AND and one OR of that integer (:func:`_lane_steps`).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    lat = grades
    draw, uniform, n_src, n_tgt = rng.random, rng.randrange, source.full + 1, target.full + 1
    raw = [
        (lat.top if draw() < density else uniform(lat.size)) if draw() < density else lat.bottom
        for _ in range(source.full * target.full)
    ]
    # masks[a, b]: the down mask of the grade of (a, b).  Row and column 0
    # stand for the empty set: column 0 stays 0, the mask of bottom, and
    # row 0 only takes joins.  Both are dropped at the end
    masks = np.zeros((n_src, n_tgt), dtype="<u2")
    masks[1:, 1:] = lat.down.take(raw).reshape(source.full, target.full)
    masks[1:, target.full] = lat.down[lat.top]
    packed = int.from_bytes(masks.tobytes(), "little")
    over_target, over_source = _lane_steps(source.size, target.size)
    for shift, select in over_target:  # b with bit j joins b without it
        packed |= (packed << shift) & select
    for shift, select in over_source:  # a without bit i joins a with it
        packed |= (packed >> shift) & select
    masks = np.frombuffer(packed.to_bytes(2 * masks.size, "little"), dtype="<u2")
    return LFuzzyAmbRep(source, target, lat, lat.from_down(masks.reshape(n_src, n_tgt)[1:, 1:]))


def random_capacity(
    space: FiniteSpace, grades: FiniteLattice, seed: int, density: float = 0.5
) -> LCapacity:
    """Random monotone set function with the mandatory bounds: the empty
    set is never drawn, the whole space starts at top, and joins keep both."""
    rng = random.Random(seed)
    lat = grades
    values = [lat.bottom] * (space.full + 1)
    for f in space.subsets():
        if rng.random() < density:
            values[f] = rng.randrange(lat.size)
    values[space.full] = lat.top
    for f in space.subsets():  # monotone repair, ascending masks see subsets first
        for i in range(space.size):
            smaller = f & ~(1 << i)
            if smaller != f:
                values[f] = lat.join(values[f], values[smaller])
    return LCapacity(space, grades, values)


def random_hyper_triples(
    source: FiniteSpace,
    target: FiniteSpace,
    grades: FiniteLattice,
    seed: int,
    count: int = 8,
) -> list[tuple[int, int, int]]:
    """Random raw triples for exercising the saturation operators."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        fam = rng.randrange(1, 1 << source.full)
        b = rng.randrange(1, target.full + 1)
        alpha = rng.randrange(grades.size)
        out.append((fam, b, alpha))
    return out
