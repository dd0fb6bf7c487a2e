"""Ready-made lattices and exhaustive enumerators for small structures.

The enumerators back the definitional sweeps and the counterexample
searches: every inclusion hyperspace over a small space, every valid
representation between small spaces, every distributive lattice up to a
given size, partitions, and point maps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

from .crisp import CrispAmbRep
from .errors import ValidationError
from .hyperspace import FiniteSpace, full_family, is_inclusion_hyperspace
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


@lru_cache(maxsize=None)
def all_inclusion_hyperspaces(space: FiniteSpace) -> tuple[int, ...]:
    """Every upward-closed nonempty family over the space, as family masks."""
    return tuple(
        fam for fam in range(1, full_family(space) + 1) if is_inclusion_hyperspace(space, fam)
    )


def all_crisp_reps(source: FiniteSpace, target: FiniteSpace) -> Iterator[CrispAmbRep]:
    """Every valid representation: antitone maps from source subsets to
    inclusion hyperspaces over the target.

    Exhaustive only at desk scale; the count grows doubly exponentially.
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


def _all_posets(n: int) -> Iterator[tuple[tuple[bool, ...], ...]]:
    """All labelled partial orders on n points, as reflexive leq matrices."""
    idx_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for choice in product((0, 1, 2), repeat=len(idx_pairs)):
        mat = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), c in zip(idx_pairs, choice):
            if c == 1:
                mat[i][j] = True
            elif c == 2:
                mat[j][i] = True
        ok = True
        for i in range(n):
            for j in range(n):
                if not mat[i][j]:
                    continue
                for k in range(n):
                    if mat[j][k] and not mat[i][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield tuple(tuple(row) for row in mat)


def _downset_lattice(poset) -> tuple[tuple[bool, ...], ...] | None:
    """The lattice of down-sets of a poset, as a leq (subset) matrix."""
    n = len(poset)
    downsets = []
    for mask in range(1 << n):
        good = True
        for i in range(n):
            if not mask >> i & 1:
                continue
            for j in range(n):
                if poset[j][i] and not mask >> j & 1:
                    good = False
                    break
            if not good:
                break
        if good:
            downsets.append(mask)
    m = len(downsets)
    return tuple(
        tuple(downsets[i] & ~downsets[j] == 0 for j in range(m)) for i in range(m)
    )


def _canonical_leq(mat) -> bytes:
    n = len(mat)
    best = None
    for perm in permutations(range(n)):
        key = bytes(mat[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def all_distributive_lattices(max_size: int = 6) -> tuple[FiniteLattice, ...]:
    """Every finite distributive lattice with at most ``max_size`` elements,
    one per isomorphism class.

    Built as down-set lattices of all posets on up to ``max_size - 1``
    points; by Birkhoff duality this is exhaustive.
    """
    if max_size > 7:
        raise ValueError("enumeration supported up to size 7")
    seen: dict[bytes, FiniteLattice] = {}
    for n_pts in range(0, max_size):
        for poset in _all_posets(n_pts):
            leq = _downset_lattice(poset)
            m = len(leq)
            if m > max_size:
                continue
            key = _canonical_leq(leq)
            if key in seen:
                continue
            labels = [f"e{i}" for i in range(m)]
            seen[key] = validate_lattice(labels, leq)
    return tuple(seen.values())
