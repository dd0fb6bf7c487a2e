"""Definitional twins of the production operators.

Every formula-driven operator in the package has a quantifier-literal
re-implementation here, sharing no code with the fast paths, so that
agreement between the two is meaningful evidence.  The law suites are
the exception: each law is stated once, in ``laws``.  The crisp twins
here check the operation tables two ways, by evaluating the statements
one instance at a time and by filling every table entry with one
``crisp`` call per pair of arguments; the graded twin runs the suite's
trials with every operation evaluated afresh, without the memo that
shares results within a trial.  These are used by the test suite
and the benchmark's output checks; they make no attempt at speed.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import crisp, fuzzy
from .capacity import LCapacity, capacity_subgraph
from .catalog import all_crisp_reps, chain, lukasiewicz
from .crisp import CrispAmbRep
from .errors import LatticeTooLarge, SpaceMismatch, ValidationError
from .fuzzy import LFuzzyAmbRep
from .generators import GridWindow, MetricTable
from .hyperencoding import TernaryHyperRelation
from .hyperspace import FiniteSpace
from .lattice import MAX_LATTICE, FiniteLattice, TNormTable, meet_tnorm
from .laws import (
    ASSERTED_FUZZY,
    CRISP_LAWS,
    RECORDED_FUZZY,
    _BY_NAME,
    LawResult,
    _cut_composition,
    _Graded,
    _Grid,
    fuzzy_sampler,
)


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


# -- crisp law suites, one instance at a time --------------------------------------


def check_laws_per_instance(
    x: FiniteSpace, y: FiniteSpace, z: FiniteSpace
) -> dict[str, LawResult]:
    """``laws.check_laws(x, y, z, exhaustive=True)`` without operation
    tables: each law's evaluator runs on every argument tuple of the
    enumerated pools in ``itertools.product`` order and stops at the first
    witness.  It is the twin of exhaustive searches too, which run on the
    same tables: ``search_law(law, ..., exhaustive=True)`` reports the
    count and witness of ``law`` here, and ``meet-distributivity`` adds
    the count of ``meet-distributivity-right`` while it holds.  Ungated;
    the count of instances grows doubly exponentially."""
    spaces = {"x": x, "y": y, "z": z}
    results = {}
    for law in CRISP_LAWS:
        res = LawResult(law.name, law.asserted)
        pools = [list(all_crisp_reps(spaces[hom[0]], spaces[hom[1]])) for hom in law.homs]
        for args in product(*pools):
            res.checked += 1
            res.witness = law.evaluate(*args)
            if res.witness is not None:
                break
        results[law.name] = res
    return results


class OperationTablesPerPair:
    """``laws._Tables`` filled one ``crisp`` call per pair of arguments.

    Each operation takes and returns the same index grids as the tables do.
    An entry is the pool position of the ``crisp`` operation's result,
    found in a dict keyed by rows (``KeyError`` if the result is not in
    its pool); the entries a grid does not reach stay at ``-1``.  Pools
    are enumerated here by ``all_crisp_reps``, one list per hom set."""

    def __init__(self, x: FiniteSpace, y: FiniteSpace, z: FiniteSpace):
        self._spaces = {"x": x, "y": y, "z": z}
        self._pools: dict[str, list[CrispAmbRep]] = {}
        self._index: dict[str, dict[tuple[int, ...], int]] = {}

    def pool(self, hom: str) -> list[CrispAmbRep]:
        if hom not in self._pools:
            pool = list(all_crisp_reps(self._spaces[hom[0]], self._spaces[hom[1]]))
            self._pools[hom] = pool
            self._index[hom] = {rep.rows: i for i, rep in enumerate(pool)}
        return self._pools[hom]

    def _position(self, hom: str, rep: CrispAmbRep) -> int:
        self.pool(hom)
        return self._index[hom][rep.rows]

    def _pairwise(self, op, r: _Grid, s: _Grid, hom: str | None) -> np.ndarray:
        """``op`` at every pair of ``r`` and ``s``: pool indices in ``hom``,
        or the results themselves (booleans) when ``hom`` is None."""
        left, right = self.pool(r.hom), self.pool(s.hom)
        table = np.full((len(left), len(right)), -1, np.intp)
        reached = np.zeros(table.shape, dtype=bool)
        reached[r.at, s.at] = True
        for i, j in zip(*(axis.tolist() for axis in np.nonzero(reached))):
            out = op(left[i], right[j])
            table[i, j] = out if hom is None else self._position(hom, out)
        return table[r.at, s.at]

    def compose(self, r: _Grid, s: _Grid) -> _Grid:
        hom = r.source + s.target
        return _Grid(hom, self._pairwise(crisp.compose, r, s, hom))

    def join(self, r: _Grid, s: _Grid) -> _Grid:
        return _Grid(r.hom, self._pairwise(crisp.join, r, s, r.hom))

    def meet(self, r: _Grid, s: _Grid) -> _Grid:
        return _Grid(r.hom, self._pairwise(crisp.meet, r, s, r.hom))

    def sms(self, r: _Grid) -> _Grid:
        hom = r.hom[::-1]
        table = np.array([self._position(hom, crisp.sms(a)) for a in self.pool(r.hom)], np.intp)
        return _Grid(hom, table[r.at])

    def identity(self, point: str) -> _Grid:
        hom = point + point
        return _Grid(hom, np.intp(self._position(hom, crisp.identity(self._spaces[point]))))

    def le(self, r: _Grid, s: _Grid) -> np.ndarray:
        return self._pairwise(operator.le, r, s, None) == 1


# -- the graded law suite, without its memo -------------------------------------


class _GradedPerUse(_Graded):
    """``laws._Graded`` calling ``fuzzy`` on every use, with no memo."""

    def __init__(self, tnorm: TNormTable):
        self.tnorm = tnorm

    def sms(self, r: LFuzzyAmbRep) -> LFuzzyAmbRep:
        return fuzzy.sms(r)

    def compose(self, r: LFuzzyAmbRep, s: LFuzzyAmbRep) -> LFuzzyAmbRep:
        return fuzzy.compose(r, s, self.tnorm)

    def identity(self, space: FiniteSpace) -> LFuzzyAmbRep:
        return fuzzy.identity(space, self.tnorm.lattice)


def check_fuzzy_laws_per_instance(
    x: FiniteSpace,
    y: FiniteSpace,
    z: FiniteSpace,
    lattice: FiniteLattice,
    trials: int = 100,
    seed: int = 0,
) -> dict[str, LawResult]:
    """``laws.check_fuzzy_laws`` with every operation of every law
    evaluated afresh: the same draws, t-norms, counts and witnesses, on
    namespaces that keep nothing between uses."""
    sample = fuzzy_sampler(seed, lattice)
    tnorms = [meet_tnorm(lattice)]
    if lattice.is_chain() and lattice.size > 1:
        tnorms.append(lukasiewicz(lattice))
    graded = [_GradedPerUse(tn) for tn in tnorms]
    names = ASSERTED_FUZZY + RECORDED_FUZZY
    results = {name: LawResult(name, name in ASSERTED_FUZZY) for name in names}
    for i in range(trials):
        r, r2, s = sample(x, y, 3 * i), sample(x, y, 3 * i + 1), sample(y, z, 3 * i + 2)
        t = sample(z, x, -1 - i)
        arguments = {
            "associativity": (r, s, t),
            "identity": (r,),
            "sms-join": (r, r2),
            "sms-meet": (r, r2),
            "anti-involution": (r,),
            "contravariance": (r, s),
        }
        for name, res in results.items():
            res.checked += 1
            if res.witness is not None:
                continue
            if name == "cut-composition":
                res.witness = _cut_composition(r, s, graded)
            elif name in ("associativity", "identity"):
                for ops in graded:
                    witness = _BY_NAME[name].evaluate(*arguments[name], ops=ops)
                    if witness is not None:
                        res.witness = {"tnorm": ops.tnorm.name} | witness
                        break
            else:
                res.witness = _BY_NAME[name].evaluate(*arguments[name], ops=graded[0])
    return results


# -- graded kernels, one pair at a time ------------------------------------------


def fuzzy_validate_loops(
    source: FiniteSpace, target: FiniteSpace, lattice: FiniteLattice, grades
) -> LFuzzyAmbRep:
    """``fuzzy.validate`` by nested loops over sets, one-point steps and
    pairs, raising at the first violation in loop order."""
    rep = LFuzzyAmbRep(source, target, lattice, grades)
    g = rep.grades
    leq = lattice.leq
    for a in source.subsets():
        for b in target.subsets():
            if not 0 <= g[a - 1, b - 1] < lattice.size:
                raise ValidationError(
                    "BadGradeTable",
                    f"grades must be element indices 0..{lattice.size - 1}",
                    witness=[list(source.labels(a)), list(target.labels(b)), int(g[a - 1, b - 1])],
                )
    for a in source.subsets():
        if g[a - 1, target.full - 1] != lattice.top:
            raise ValidationError(
                "FullTargetNotTop",
                "the whole target must carry the top grade",
                witness=[list(source.labels(a))],
            )
    for b in target.subsets():
        for j in range(target.size):
            bigger = b | (1 << j)
            if bigger != b:
                for a in source.subsets():
                    if not leq[g[a - 1, b - 1], g[a - 1, bigger - 1]]:
                        raise ValidationError(
                            "NotIsotoneInB",
                            "grades must rise with the target set",
                            witness=[
                                list(source.labels(a)),
                                list(target.labels(b)),
                                list(target.labels(bigger)),
                            ],
                        )
    for a in source.subsets():
        for i in range(source.size):
            smaller = a & ~(1 << i)
            if smaller:
                for b in target.subsets():
                    if not leq[g[a - 1, b - 1], g[smaller - 1, b - 1]]:
                        raise ValidationError(
                            "NotAntitoneInA",
                            "grades must fall as the source set grows",
                            witness=[
                                list(source.labels(smaller)),
                                list(source.labels(a)),
                                list(target.labels(b)),
                            ],
                        )
    return rep


def alpha_cut_per_pair(rep: LFuzzyAmbRep, alpha: int) -> CrispAmbRep:
    """``fuzzy.alpha_cut`` by testing every pair against ``alpha``."""
    leq = rep.lattice.leq
    rows = []
    for a in rep.source.subsets():
        row = 0
        for b in rep.target.subsets():
            if leq[alpha, rep.grades[a - 1, b - 1]]:
                row |= 1 << (b - 1)
        rows.append(row)
    return CrispAmbRep(rep.source, rep.target, tuple(rows))


def from_cuts_per_pair(
    source: FiniteSpace,
    target: FiniteSpace,
    lattice: FiniteLattice,
    cut_family: Mapping[int, CrispAmbRep],
) -> LFuzzyAmbRep:
    """``fuzzy.from_cuts`` by joining, pair by pair, the indices whose cut
    holds the pair, then re-cutting and scanning every pair for the first
    mismatch, then validating the grades by loops."""
    if set(cut_family) != set(range(lattice.size)):
        raise ValidationError(
            "CutFamilyInconsistent", "need one cut per lattice element", witness=None
        )
    for cut in cut_family.values():
        if cut.source != source or cut.target != target:
            raise SpaceMismatch("cut family members live over different spaces")
    g = np.full((source.full, target.full), lattice.bottom, dtype=np.intp)
    for a in source.subsets():
        for b in target.subsets():
            g[a - 1, b - 1] = lattice.family_join(
                alpha for alpha, cut in cut_family.items() if cut.contains(a, b)
            )
    rep = LFuzzyAmbRep(source, target, lattice, g)
    for alpha, cut in cut_family.items():
        again = alpha_cut_per_pair(rep, alpha)
        if again != cut:
            rows_diff = [
                (a, b)
                for a in source.subsets()
                for b in target.subsets()
                if again.contains(a, b) != cut.contains(a, b)
            ]
            a, b = rows_diff[0]
            raise ValidationError(
                "CutFamilyInconsistent",
                "cut family is not reproduced by its own grades",
                witness=[
                    lattice.elements[alpha],
                    list(source.labels(a)),
                    list(target.labels(b)),
                ],
            )
    return fuzzy_validate_loops(source, target, lattice, g)


def fuzzy_sms_intersection(rep: LFuzzyAmbRep) -> LFuzzyAmbRep:
    """``fuzzy.sms`` by its defining formula: the cut at ``alpha`` is the
    intersection of the crisp pseudo-inverses of the cuts at every
    ``beta <= alpha``; the zero cut is the full relation."""
    lat = rep.lattice
    X, Y = rep.source, rep.target
    base = {alpha: crisp.sms(alpha_cut_per_pair(rep, alpha)) for alpha in range(lat.size)}
    formula_cuts: dict[int, CrispAmbRep] = {}
    for alpha in range(lat.size):
        rows = list(crisp.top(Y, X).rows)
        for beta in range(lat.size):
            if lat.le(beta, alpha):
                rows = [r & s for r, s in zip(rows, base[beta].rows)]
        formula_cuts[alpha] = CrispAmbRep(Y, X, tuple(rows))
    cut_family = {alpha: formula_cuts[alpha] for alpha in range(lat.size)}
    cut_family[lat.bottom] = crisp.top(Y, X)
    return from_cuts_per_pair(Y, X, lat, cut_family)


def _levels_by_counting(lat: FiniteLattice) -> list[int]:
    """``[k]``: the element of the chain ``lat`` with exactly ``k``
    elements strictly below it, found by counting them."""
    at = [0] * lat.size
    for x in range(lat.size):
        at[sum(lat.le(y, x) for y in range(lat.size)) - 1] = x
    return at


def metric_rep_loops(m: MetricTable, grades: FiniteLattice) -> LFuzzyAmbRep:
    """``generators.metric_rep`` by a triple loop over source sets, their
    points and target points, in exact ``Fraction`` arithmetic."""
    if not grades.is_chain():
        raise ValidationError("NotAChain", "metric grading needs a chain of levels")
    sp = FiniteSpace(m.points)
    n_levels = grades.size
    at = _levels_by_counting(grades)
    diam = m.diameter
    g = np.full((sp.full, sp.full), grades.bottom, dtype=np.intp)
    for a in sp.subsets():
        for b in sp.subsets():
            worst = Fraction(0)
            for i in range(sp.size):
                if not a >> i & 1:
                    continue
                d_to_b = min(m.dist[i][j] for j in range(sp.size) if b >> j & 1)
                worst = max(worst, d_to_b)
            val = 1 - (worst / diam if diam else Fraction(0))
            level = min(int(val * (n_levels - 1)), n_levels - 1)  # floor quantization
            g[a - 1, b - 1] = at[level]
    return fuzzy.validate(sp, sp, grades, g)


def random_fuzzy_rep_loops(
    source: FiniteSpace, target: FiniteSpace, grades: FiniteLattice, seed: int, density: float
) -> LFuzzyAmbRep:
    """``generators.random_fuzzy_rep`` by the sequential repair: the same
    draws one cell at a time, then join each column into its one-point
    extensions in increasing mask order and each row into its one-point
    reductions by decreasing size, one ``join_table`` lookup per step."""
    rng = random.Random(seed)
    lat = grades
    g = np.full((source.full, target.full), lat.bottom, dtype=np.intp)
    for a in source.subsets():
        for b in target.subsets():
            if rng.random() < density:
                g[a - 1, b - 1] = lat.top if rng.random() < density else rng.randrange(lat.size)
    g[:, target.full - 1] = lat.top
    for b in target.subsets():
        for j in range(target.size):
            bigger = b | (1 << j)
            if bigger != b:
                g[:, bigger - 1] = lat.join_table[g[:, bigger - 1], g[:, b - 1]]
    for a in sorted(source.subsets(), key=lambda m: -m.bit_count()):
        for i in range(source.size):
            smaller = a & ~(1 << i)
            if smaller:
                g[smaller - 1, :] = lat.join_table[g[smaller - 1, :], g[a - 1, :]]
    return fuzzy.validate(source, target, lat, g)


def translation_rep_loops(g: GridWindow, grades: FiniteLattice | None = None) -> LFuzzyAmbRep:
    """``generators.translation_rep`` by loops over inner sets, outer sets
    and shifts, moving the cells of each inner set one at a time."""
    r = g.reach
    if r == 0:
        raise ValidationError("BadWindow", "outer window needs at least two cells across")
    if grades is None:
        grades = chain(r + 1)
    if not grades.is_chain() or grades.size != r + 1:
        raise ValidationError("NotAChain", f"need the {r + 1}-level chain for this window")
    at = _levels_by_counting(grades)
    inner, outer = g.inner_space(), g.outer_space()
    in_cells = g.inner_cells()
    out_index = {c: i for i, c in enumerate(g.outer_cells())}
    table = np.full((inner.full, outer.full), grades.bottom, dtype=np.intp)
    shifts = [
        (dx, dy)
        for dx in range(-g.outer_w + 1, g.outer_w)
        for dy in range(-g.outer_h + 1, g.outer_h)
    ]
    for a in inner.subsets():
        pts = [in_cells[i] for i in range(inner.size) if a >> i & 1]
        for b in outer.subsets():
            best = None
            for dx, dy in shifts:
                shifted = [(x + dx, y + dy) for x, y in pts]
                if any(c not in out_index for c in shifted):
                    continue
                if all(b >> out_index[c] & 1 for c in shifted):
                    length = max(abs(dx), abs(dy))
                    best = length if best is None else min(best, length)
            table[a - 1, b - 1] = grades.bottom if best is None else at[r - best]
    return fuzzy.validate(inner, outer, grades, table)


def capacity_of_per_set(rep: LFuzzyAmbRep, a: int) -> LCapacity:
    """``capacity.capacity_of`` by reading the fiber one target set at a time."""
    if not 1 <= a <= rep.source.full:
        raise ValidationError("BadSubset", f"source subset mask {a} out of range")
    values = [rep.lattice.bottom] * (rep.target.full + 1)
    for b in rep.target.subsets():
        values[b] = rep.grade(a, b)
    return LCapacity(rep.target, rep.lattice, values)


def validate_capacity_loops(space: FiniteSpace, lattice: FiniteLattice, values) -> LCapacity:
    """``capacity.validate_capacity`` by a loop over sets and one-point
    extensions."""
    cap = LCapacity(space, lattice, values)
    v = cap.values
    for f in range(space.full + 1):
        if not 0 <= v[f] < lattice.size:
            raise ValidationError(
                "BadValueTable",
                f"values must be element indices 0..{lattice.size - 1}",
                witness=[list(space.labels(f)), int(v[f])],
            )
    if v[0] != lattice.bottom or v[space.full] != lattice.top:
        raise ValidationError(
            "BadBounds",
            "the empty set must get bottom and the whole space top",
            witness=[lattice.elements[int(v[0])], lattice.elements[int(v[space.full])]],
        )
    for f in range(space.full + 1):
        for i in range(space.size):
            g = f | (1 << i)
            if g != f and not lattice.le(int(v[f]), int(v[g])):
                raise ValidationError(
                    "NotMonotone",
                    "values must rise with the set",
                    witness=[list(space.labels(f)), list(space.labels(g))],
                )
    return cap


def validate_subgraph_loops(
    space: FiniteSpace, lattice: FiniteLattice, pairs: Iterable[tuple[int, int]]
) -> LCapacity:
    """``capacity.validate_subgraph`` by membership tests on the pair set,
    walking the set and its per-set grade sets in their own order."""
    pset = set(pairs)
    for f, alpha in pset:
        if not 1 <= f <= space.full or not 0 <= alpha < lattice.size:
            raise ValidationError("BadPair", f"pair ({f}, {alpha}) out of range")
    for f in space.subsets():
        if (f, lattice.bottom) not in pset:
            raise ValidationError(
                "MissingFloor",
                "every nonempty set must appear at grade bottom",
                witness=[list(space.labels(f)), lattice.elements[lattice.bottom]],
            )
    for alpha in range(lattice.size):
        if (space.full, alpha) not in pset:
            raise ValidationError(
                "MissingFloor",
                "the whole space must appear at every grade",
                witness=[list(space.labels(space.full)), lattice.elements[alpha]],
            )
    for f, alpha in pset:
        for g in space.subsets():
            if f & g != f:
                continue
            for beta in range(lattice.size):
                if lattice.le(beta, alpha) and (g, beta) not in pset:
                    raise ValidationError(
                        "NotDownSetInAlpha",
                        "subgraphs grow with the set and shrink with the grade",
                        witness=[
                            list(space.labels(f)),
                            lattice.elements[alpha],
                            list(space.labels(g)),
                            lattice.elements[beta],
                        ],
                    )
    by_set: dict[int, set[int]] = {f: set() for f in space.subsets()}
    for f, alpha in pset:
        by_set[f].add(alpha)
    for f, grades_f in by_set.items():
        for g, grades_g in by_set.items():
            for alpha in grades_f:
                for beta in grades_g:
                    if (f | g, lattice.join(alpha, beta)) not in pset:
                        raise ValidationError(
                            "UnionJoinViolated",
                            "grades of a union must reach the join of the parts",
                            witness=[
                                list(space.labels(f)),
                                lattice.elements[alpha],
                                list(space.labels(g)),
                                lattice.elements[beta],
                            ],
                        )
    values = [lattice.bottom] * (space.full + 1)
    for f in space.subsets():
        values[f] = lattice.family_join(by_set[f])
    cap = validate_capacity_loops(space, lattice, values)
    if capacity_subgraph(cap) != pset:
        raise ValidationError(
            "NotASubgraph", "pair set is not reproduced by its own capacity", witness=None
        )
    return cap


# -- lattices and t-norms, one index at a time ------------------------------------


def _square_loops(matrix, n: int, what: str, entries: str) -> np.ndarray:
    """``lattice._square`` one row and one entry at a time."""
    if isinstance(matrix, np.ndarray):
        if matrix.dtype.kind not in ("b" if entries == "booleans" else "iu"):
            raise ValidationError("BadMatrix", f"{what} entries must be {entries}")
        rows = matrix
    else:
        if not hasattr(matrix, "__iter__"):
            raise ValidationError("BadMatrix", f"{what} must be a sequence of rows")
        rows = []
        for row in matrix:
            if not hasattr(row, "__iter__"):
                raise ValidationError("BadMatrix", f"{what} must be a sequence of rows")
            rows.append(list(row))
        for row in rows:
            if len(row) != len(rows[0]):
                raise ValidationError("BadMatrix", f"{what} rows differ in length")
        for row in rows:
            for v in row:
                if entries == "booleans":
                    ok = type(v) in (bool, np.bool_)
                else:
                    ok = type(v) is not bool and isinstance(v, (int, np.integer))
                if not ok:
                    raise ValidationError("BadMatrix", f"{what} entries must be {entries}")
    mat = np.array(rows, dtype=bool if entries == "booleans" else np.intp)
    if mat.shape != (n, n):
        raise ValidationError("BadMatrix", f"{what} must be {n}x{n}, got {mat.shape}")
    return mat


def validate_lattice_loops(elements: Sequence[str], leq: Sequence[Sequence[bool]]) -> FiniteLattice:
    """``lattice.validate_lattice`` by nested loops over element indices,
    raising at the first violation in loop order.

    It still searches for a least and a greatest element and would raise
    ``NoBottom``/``NoTop``; once every pair has a join and a meet both
    exist, so the twin tests expect these never to fire.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise ValidationError("EmptyLattice", "a lattice needs at least one element")
    if len(set(elements)) != n:
        raise ValidationError("DuplicateElement", f"duplicate labels in {elements}")
    if n > MAX_LATTICE:
        raise ValidationError("LatticeTooLarge", f"at most {MAX_LATTICE} elements, got {n}")
    mat = _square_loops(leq, n, "leq", "booleans")

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

    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = meet_table[a, join_table[b, c]]
                rhs = join_table[meet_table[a, b], meet_table[a, c]]
                if lhs != rhs:
                    raise ValidationError(
                        "NotDistributive", "meet does not distribute over join", wit(a, b, c)
                    )

    # join-irreducible: exactly one lower cover y < x, nothing strictly between
    def covers(y, x):
        return y != x and mat[y, x] and not any(
            z not in (x, y) and mat[y, z] and mat[z, x] for z in range(n)
        )

    irreducibles = [x for x in range(n) if sum(covers(y, x) for y in range(n)) == 1]
    down = [sum(1 << k for k, j in enumerate(irreducibles) if mat[j, x]) for x in range(n)]
    return FiniteLattice(
        elements, mat, join_table, meet_table, bottoms[0], tops[0],
        irreducibles, np.array(down, dtype=np.uint16),
    )


def validate_tnorm_loops(lat: FiniteLattice, table, name: str = "tnorm") -> TNormTable:
    """``lattice.validate_tnorm`` by nested loops over element indices,
    raising at the first violation in loop order."""
    n = lat.size
    tab = _square_loops(table, n, "table", "integers")
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
