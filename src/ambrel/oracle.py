"""Definitional twins of the production operators.

Every formula-driven operator in the package has a quantifier-literal
re-implementation here, sharing no code with the fast paths, so that
agreement between the two is meaningful evidence.  These are used by the
test suite and the ``laws`` command only; they make no attempt at speed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .crisp import CrispAmbRep
from .errors import LatticeTooLarge
from .fuzzy import LFuzzyAmbRep
from .hyperencoding import TernaryHyperRelation
from .hyperspace import FiniteSpace
from .lattice import FiniteLattice, TNormTable


def _nonempty_subsets(n: int):
    return range(1, (1 << n))


def sms_definitional(rep: CrispAmbRep) -> CrispAmbRep:
    """Literal transcription of the pseudo-inversion quantifier.

    ``(bt, at)`` belongs to the result iff for every source set ``a``
    disjoint from ``at`` there is a set admissible for ``a`` disjoint
    from ``bt``.
    """
    X, Y = rep.source, rep.target
    pairs = []
    for bt in _nonempty_subsets(Y.size):
        for at in _nonempty_subsets(X.size):
            ok = True
            for a in _nonempty_subsets(X.size):
                if a & at:
                    continue
                admissible = [b for b in _nonempty_subsets(Y.size) if rep.contains(a, b)]
                if not any(b & bt == 0 for b in admissible):
                    ok = False
                    break
            if ok:
                pairs.append((bt, at))
    rows = [0] * Y.full
    for bt, at in pairs:
        rows[bt - 1] |= 1 << (at - 1)
    return CrispAmbRep(Y, X, tuple(rows))


def double_traversal_oracle(space: FiniteSpace, family: int) -> int:
    """Two literal traversal passes, written out as nested quantifiers."""

    def meets_all(candidate: int, fam_members: list[int]) -> bool:
        return all(candidate & m for m in fam_members)

    first_members = [s for s in _nonempty_subsets(space.size) if family >> (s - 1) & 1]
    once = [b for b in _nonempty_subsets(space.size) if meets_all(b, first_members)]
    twice = [b for b in _nonempty_subsets(space.size) if meets_all(b, once)]
    out = 0
    for s in twice:
        out |= 1 << (s - 1)
    return out


def way_below_definitional(lat: FiniteLattice, a: int, b: int) -> bool:
    """Directed-set definition of the approximation order.

    True iff every nonempty directed subset whose supremum dominates ``b``
    contains an element dominating ``a``.  Enumeration is exponential in
    the lattice size, hence the hard gate.
    """
    n = lat.size
    if n > 6:
        raise LatticeTooLarge("definitional check enumerates subsets; need at most 6 elements")
    elements = list(range(n))
    for r in range(1, n + 1):
        for subset in combinations(elements, r):
            directed = True
            for x in subset:
                for y in subset:
                    if not any(lat.le(x, u) and lat.le(y, u) for u in subset):
                        directed = False
                        break
                if not directed:
                    break
            if not directed:
                continue
            sup = lat.family_join(subset)
            if lat.le(b, sup) and not any(lat.le(a, d) for d in subset):
                return False
    return True


def compose_subgraph(rf: LFuzzyAmbRep, sf: LFuzzyAmbRep, tnorm: TNormTable) -> LFuzzyAmbRep:
    """Composition computed on subgraph triples.

    Builds both subgraphs literally, forms all combinable triple pairs,
    and keeps every grade below some combination; the grade function is
    then recovered as the maximal grade per pair.
    """
    lat = rf.lattice
    sub_r = [
        (a, b, beta)
        for a in _nonempty_subsets(rf.source.size)
        for b in _nonempty_subsets(rf.target.size)
        for beta in range(lat.size)
        if lat.le(beta, rf.grade(a, b))
    ]
    sub_s = [
        (b, c, gamma)
        for b in _nonempty_subsets(sf.source.size)
        for c in _nonempty_subsets(sf.target.size)
        for gamma in range(lat.size)
        if lat.le(gamma, sf.grade(b, c))
    ]
    by_first: dict[int, list[tuple[int, int]]] = {}
    for b, c, gamma in sub_s:
        by_first.setdefault(b, []).append((c, gamma))

    grades = np.full((rf.source.full, sf.target.full), lat.bottom, dtype=np.intp)
    for a, b, beta in sub_r:
        for c, gamma in by_first.get(b, ()):
            combined = tnorm(beta, gamma)
            grades[a - 1, c - 1] = lat.join(int(grades[a - 1, c - 1]), combined)
    return LFuzzyAmbRep(rf.source, sf.target, lat, grades)


@lru_cache(maxsize=None)
def _refiners(space: FiniteSpace) -> dict[int, list[int]]:
    # _refiners(X)[fam] = the families cand such that every member of fam
    # contains some member of cand
    members = {
        fam: [s for s in _nonempty_subsets(space.size) if fam >> (s - 1) & 1]
        for fam in range(1, 1 << space.full)
    }
    return {
        fam: [
            cand
            for cand, cand_members in members.items()
            if all(any(c & a == c for c in cand_members) for a in fam_members)
        ]
        for fam, fam_members in members.items()
    }


def subset_saturate_per_cell(t: TernaryHyperRelation) -> TernaryHyperRelation:
    """Refinement saturation, one input cell at a time.

    Every held grade set at ``(fam, b)`` spreads, closed downward, to
    ``(cand, b)`` for each family ``cand`` refining ``fam``: every member
    of ``fam`` contains some member of ``cand``.
    """
    lat = t.lattice
    refiners = _refiners(t.source)
    below = [
        sum(1 << beta for beta in range(lat.size) if lat.le(beta, alpha))
        for alpha in range(lat.size)
    ]
    out = np.zeros_like(t.masks)
    for fam, b in zip(*np.nonzero(t.masks)):
        mask = int(t.masks[fam, b])
        spread = 0
        for alpha in range(lat.size):
            if mask >> alpha & 1:
                spread |= below[alpha]
        for cand in refiners[int(fam)]:
            out[cand, b] |= spread
    return TernaryHyperRelation(t.source, t.target, lat, out)


def sup_saturate_fixpoint(t: TernaryHyperRelation) -> TernaryHyperRelation:
    """Merge saturation as the fixed point of the binary merge.

    Each round merges every pair of held cells (family union, set union,
    all pairwise grade joins) until nothing changes.  Since the three
    combiners are associative, commutative and idempotent, the fixed
    point is the closure under merging any nonempty subset of triples.
    """
    lat = t.lattice
    size = 1 << lat.size
    joinm = np.zeros((size, size), dtype=np.uint8)
    for m1 in range(size):
        for m2 in range(size):
            for a in range(lat.size):
                for b in range(lat.size):
                    if m1 >> a & 1 and m2 >> b & 1:
                        joinm[m1, m2] |= 1 << lat.join(a, b)
    cur = t.masks.copy()
    while True:
        fams, bs = np.nonzero(cur)
        if len(fams) == 0:
            break
        mk = cur[fams, bs]
        ff = np.bitwise_or.outer(fams, fams).ravel()
        bb = np.bitwise_or.outer(bs, bs).ravel()
        jj = joinm[mk[:, None], mk[None, :]].ravel()
        nxt = cur.copy()
        np.bitwise_or.at(nxt, (ff, bb), jj)
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    return TernaryHyperRelation(t.source, t.target, lat, cur)


def plus_literal(t: TernaryHyperRelation) -> TernaryHyperRelation:
    """Floor, then the two saturations above.

    The floor adds every grade on the full target set and the bottom
    grade at every family and target set.
    """
    lat = t.lattice
    floor = set(t.triples())
    for fam in range(1, 1 << t.source.full):
        for b in _nonempty_subsets(t.target.size):
            floor.add((fam, b, lat.bottom))
        for alpha in range(lat.size):
            floor.add((fam, t.target.full, alpha))
    floored = TernaryHyperRelation.from_triples(t.source, t.target, lat, floor)
    return sup_saturate_fixpoint(subset_saturate_per_cell(floored))
