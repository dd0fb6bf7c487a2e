"""Ready-made lattices and exhaustive enumerators for small structures.

The enumerators back the definitional sweeps and the counterexample
searches: every inclusion hyperspace over a small space, every valid
representation between small spaces, every distributive lattice up to a
given size, partitions, and point maps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Sequence

from .crisp import CrispAmbRep
from .errors import SpaceTooLarge, ValidationError
from .hyperspace import FiniteSpace, _subset_table, full_family
from .lattice import FiniteLattice, TNormTable, _levels, validate_lattice


# -- standard lattices -------------------------------------------------------


def chain(n: int) -> FiniteLattice:
    """The n-element chain; labels ``0 < m < 1`` for n=3, ``0 < m1 < ... < 1``
    in general."""
    if n < 1:
        raise ValueError("chain needs at least one element")
    if n == 1:
        labels = ["0"]
    elif n == 2:
        labels = ["0", "1"]
    elif n == 3:
        labels = ["0", "m", "1"]
    else:
        labels = ["0"] + [f"m{i}" for i in range(1, n - 1)] + ["1"]
    leq = [[i <= j for j in range(n)] for i in range(n)]
    return validate_lattice(labels, leq)


def boolean_square() -> FiniteLattice:
    """The four-element lattice with two incomparable middle elements."""
    labels = ["0", "a", "b", "1"]
    order = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    leq = [[(i, j) in order for j in range(4)] for i in range(4)]
    return validate_lattice(labels, leq)


def pentagon_leq() -> tuple[list[str], list[list[bool]]]:
    """Order matrix of the pentagon N5 (not distributive; for negative tests)."""
    labels = ["0", "a", "c", "b", "1"]
    pairs = {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
             (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    return labels, [[(i, j) in pairs for j in range(5)] for i in range(5)]


def diamond_leq() -> tuple[list[str], list[list[bool]]]:
    """Order matrix of the diamond M3 (not distributive; for negative tests)."""
    labels = ["0", "a", "b", "c", "1"]
    pairs = {(i, i) for i in range(5)} | {(0, j) for j in range(5)} | {(j, 4) for j in range(5)}
    return labels, [[(i, j) in pairs for j in range(5)] for i in range(5)]


def lukasiewicz(chain_lattice: FiniteLattice) -> TNormTable:
    """Truncated addition on the levels of a chain listed in any order: the
    elements at levels ``i`` and ``j`` give the one at level
    ``max(i + j - top, 0)``.  Valid by construction (``docs/properties.md``)."""
    if not chain_lattice.is_chain():
        raise ValidationError("NotAChain", "this grade combination needs a chain")
    at = _levels(chain_lattice)
    level = at.argsort()
    table = at[(level[:, None] + level - (chain_lattice.size - 1)).clip(0)]
    table.setflags(write=False)
    return TNormTable(chain_lattice, table, "lukasiewicz")


# -- enumerators -------------------------------------------------------------


def _down_sets(below: Sequence[int]) -> list[int]:
    """Every down-set of a finite order as a mask, each built once.
    ``below[i]`` masks the elements strictly below ``i``, all listed
    before ``i``, so whether a down-set may hold ``i`` is known by then."""
    sets = [0]
    for i, strict in enumerate(below):
        sets += [d | 1 << i for d in sets if strict & ~d == 0]
    return sets


@lru_cache(maxsize=None)
def all_inclusion_hyperspaces(space: FiniteSpace) -> tuple[int, ...]:
    """Every upward-closed nonempty family over the space, as family masks,
    ascending: the complements of the proper families closed under taking
    subsets.  Gated at five points (7,579 families; six give 7,828,352)."""
    if space.size > 5:
        raise SpaceTooLarge("inclusion hyperspaces are enumerated up to 5 points")
    strict_sub = [sub & ~(1 << s) for s, sub in enumerate(_subset_table(space))]
    full = full_family(space)
    return tuple(sorted(full ^ d for d in _down_sets(strict_sub) if d != full))


def all_crisp_reps(source: FiniteSpace, target: FiniteSpace) -> Iterator[CrispAmbRep]:
    """Every valid representation: antitone maps from source subsets to
    inclusion hyperspaces over the target.

    Exhaustive only at desk scale; the count grows doubly exponentially,
    and targets above five points raise ``SpaceTooLarge``.
    """
    hyper = all_inclusion_hyperspaces(target)
    n_rows = source.full
    rows: list[int] = [0] * n_rows
    point_bits = [1 << i for i in range(source.size)]

    def fill(a: int) -> Iterator[CrispAmbRep]:
        if a > n_rows:
            yield CrispAmbRep(source, target, tuple(rows))
            return
        # antitone: the row at a must sit inside every row at a minus a point
        bound = full_family(target)
        for bit in point_bits:
            smaller = a & ~bit
            if smaller and smaller != a:
                bound &= rows[smaller - 1]
        for fam in hyper:
            if fam & ~bound == 0:
                rows[a - 1] = fam
                yield from fill(a + 1)
        rows[a - 1] = 0

    yield from fill(1)


def all_partitions(labels: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """All set partitions of the given labels."""
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for part in all_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1:]
        yield ((first,),) + part


def all_point_maps(source: FiniteSpace, target: FiniteSpace) -> Iterator[dict[str, str]]:
    """All functions from source points to target points."""
    for img in product(target.points, repeat=source.size):
        yield dict(zip(source.points, img))


# -- all small distributive lattices ----------------------------------------


def _canonical(below: tuple[int, ...]) -> tuple[int, ...]:
    """The least strict-order matrix of a poset over every relabelling of
    its points, flattened: equal exactly for isomorphic posets."""
    return min(
        tuple(below[p] >> q & 1 for p in perm for q in perm)
        for perm in permutations(range(len(below)))
    )


@lru_cache(maxsize=None)
def all_distributive_lattices(max_size: int = 6) -> tuple[FiniteLattice, ...]:
    """Every finite distributive lattice with at most ``max_size`` elements,
    one per isomorphism class, its elements ``e0..`` in down-set mask order.

    By Birkhoff duality these are the down-set lattices of the posets, one
    per isomorphism class.  Posets grow a point at a time, each new point
    above a down-set of the earlier ones, until they have more than
    ``max_size`` down-sets (``docs/properties.md``).
    """
    if max_size > 7:
        raise ValueError("enumeration supported up to size 7")
    found: dict[tuple[int, ...], FiniteLattice] = {}
    level: list[tuple[int, ...]] = [()]
    while level:
        grown = []
        for below in level:
            downs = sorted(_down_sets(below))
            m = len(downs)
            if m > max_size:
                continue
            key = _canonical(below)
            if key in found:
                continue
            leq = [[d & ~e == 0 for e in downs] for d in downs]
            found[key] = validate_lattice([f"e{i}" for i in range(m)], leq)
            grown += [below + (d,) for d in downs]
        level = grown
    return tuple(found.values())
