"""Law checkers and counterexample searches.

Laws split into two groups:

* asserted laws hold for every valid representation (associativity,
  identities, monotonicity, distributivity over join, and the
  join/meet laws of pseudo-inversion) — a counterexample here is a bug;
* recorded laws are searched, and whatever the search finds is the
  result (double pseudo-inversion as the identity, contravariance,
  distributivity over meet, the modular law, cutting through graded
  composition).  Several of these hold only on the class of
  pseudo-invertible representations; see ``docs/properties.md``.

Each crisp law is stated once, as a predicate over a namespace of
operations (``compose``, ``join``, ``meet``, ``sms``, ``identity``,
``le``, ``eq``).  On concrete representations it decides one instance;
the ``law_*`` evaluators wrap it and return ``None`` or a JSON-ready
witness.  Sampled mode draws seeded random representations with mixed
densities and evaluates instance by instance, and so does
:func:`search_law`, which stops at its first witness.

Exhaustive suites evaluate the same predicates on operation tables.
The representations between two finite spaces form a lattice and are
the arrows of a category, so each enumerated pool is closed under the
operations: every operation is a table of pool indices, filled by the
``crisp`` operation at the pairs of arguments a law reaches, and a law
is one boolean array over open ``np.indices`` grids of its argument
pools.  The first failing entry in C order is the first failing tuple
in ``itertools.product`` order, so the count and the witness are those
of the per-instance loop (``oracle.check_laws_per_instance``).  The
tables live for one call.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import crisp, fuzzy
from .catalog import all_crisp_reps, lukasiewicz
from .crisp import CrispAmbRep
from .errors import SpaceTooLarge
from .generators import random_fuzzy_rep, random_rep
from .hyperspace import FiniteSpace
from .lattice import FiniteLattice, TNormTable, meet_tnorm
from .io import crisp_rep_payload, fuzzy_rep_payload


@dataclass
class LawResult:
    law: str
    asserted: bool
    checked: int = 0
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.witness is None

    def payload(self) -> dict:
        return {
            "law": self.law,
            "asserted": self.asserted,
            "verdict": "holds" if self.holds else "counterexample",
            "instances_checked": self.checked,
            "witness": self.witness,
        }


# -- the crisp laws, each stated once ------------------------------------------
#
# ``o`` is an operations namespace: _Reps on concrete representations, where
# a statement returns a bool, or a _Tables on index grids, where it
# returns a boolean array over the grid.


def _associativity(o, r, s, t):
    return o.eq(o.compose(o.compose(r, s), t), o.compose(r, o.compose(s, t)))


def _identity(o, r):
    left, right = o.identity(r.source), o.identity(r.target)
    return o.eq(o.compose(left, r), r) & o.eq(o.compose(r, right), r)


def _monotonicity(o, r, r2, s):
    return o.le(o.compose(o.meet(r, r2), s), o.compose(o.join(r, r2), s))


def _monotonicity_right(o, r, s, s2):
    return o.le(o.compose(r, o.meet(s, s2)), o.compose(r, o.join(s, s2)))


def _join_distributivity(o, r, r2, s):
    return o.eq(o.compose(o.join(r, r2), s), o.join(o.compose(r, s), o.compose(r2, s)))


def _join_distributivity_right(o, r, s, s2):
    return o.eq(o.compose(r, o.join(s, s2)), o.join(o.compose(r, s), o.compose(r, s2)))


def _meet_distributivity(o, r, r2, s):
    return o.eq(o.compose(o.meet(r, r2), s), o.meet(o.compose(r, s), o.compose(r2, s)))


def _meet_distributivity_right(o, r, s, s2):
    return o.eq(o.compose(r, o.meet(s, s2)), o.meet(o.compose(r, s), o.compose(r, s2)))


def _sms_join(o, r, s):
    return o.eq(o.sms(o.join(r, s)), o.join(o.sms(r), o.sms(s)))


def _sms_meet(o, r, s):
    return o.eq(o.sms(o.meet(r, s)), o.meet(o.sms(r), o.sms(s)))


def _anti_involution(o, r):
    return o.eq(o.sms(o.sms(r)), r)


def _contravariance(o, r, s):
    return o.eq(o.sms(o.compose(r, s)), o.compose(o.sms(s), o.sms(r)))


def _modular(o, f, g, h):
    """Modular inequality: the meet of a composite with a parallel arrow is
    bounded by composing through the pulled-back meet."""
    return o.le(o.meet(o.compose(f, g), h), o.compose(f, o.meet(g, o.compose(o.sms(f), h))))


class _Reps:
    """Law operations on concrete representations.  ``crisp`` is looked up
    at each call, so a rebound ``crisp`` function (``bench/tracing.py``
    rebinds them) sees the calls the laws make."""

    compose = staticmethod(lambda r, s: crisp.compose(r, s))
    join = staticmethod(lambda r, s: crisp.join(r, s))
    meet = staticmethod(lambda r, s: crisp.meet(r, s))
    sms = staticmethod(lambda r: crisp.sms(r))
    identity = staticmethod(lambda space: crisp.identity(space))
    le = staticmethod(operator.le)
    eq = staticmethod(operator.eq)


# -- crisp law evaluators: one instance, None or a witness ------------------------


def _w(**reps) -> dict:
    return {name: crisp_rep_payload(rep) for name, rep in reps.items()}


def law_associativity(r, s, t) -> dict | None:
    return None if _associativity(_Reps, r, s, t) else _w(r=r, s=s, t=t)


def law_identity(r) -> dict | None:
    return None if _identity(_Reps, r) else _w(r=r)


def law_monotonicity(r, r2, s) -> dict | None:
    if _monotonicity(_Reps, r, r2, s):
        return None
    return _w(small=crisp.meet(r, r2), big=crisp.join(r, r2), s=s) | {"argument": "left"}


def law_monotonicity_right(r, s, s2) -> dict | None:
    if _monotonicity_right(_Reps, r, s, s2):
        return None
    return _w(r=r, small=crisp.meet(s, s2), big=crisp.join(s, s2)) | {"argument": "right"}


def law_join_distributivity(r, r2, s) -> dict | None:
    if _join_distributivity(_Reps, r, r2, s):
        return None
    return _w(r=r, r2=r2, s=s) | {"argument": "left"}


def law_join_distributivity_right(r, s, s2) -> dict | None:
    if _join_distributivity_right(_Reps, r, s, s2):
        return None
    return _w(r=r, s=s, s2=s2) | {"argument": "right"}


def law_meet_distributivity(r, r2, s) -> dict | None:
    if _meet_distributivity(_Reps, r, r2, s):
        return None
    return _w(r=r, r2=r2, s=s) | {"argument": "left"}


def law_meet_distributivity_right(r, s, s2) -> dict | None:
    if _meet_distributivity_right(_Reps, r, s, s2):
        return None
    return _w(r=r, s=s, s2=s2) | {"argument": "right"}


def law_sms_join(r, s) -> dict | None:
    return None if _sms_join(_Reps, r, s) else _w(r=r, s=s)


def law_sms_meet(r, s) -> dict | None:
    return None if _sms_meet(_Reps, r, s) else _w(r=r, s=s)


def law_anti_involution(r) -> dict | None:
    return None if _anti_involution(_Reps, r) else _w(r=r, double=crisp.sms(crisp.sms(r)))


def law_contravariance(r, s) -> dict | None:
    return None if _contravariance(_Reps, r, s) else _w(r=r, s=s)


def law_modular(f, g, h) -> dict | None:
    return None if _modular(_Reps, f, g, h) else _w(f=f, g=g, h=h)


class CrispLaw(NamedTuple):
    name: str
    asserted: bool
    homs: tuple[str, ...]  # argument spaces: "xy" ranges over reps X -> Y
    holds: Callable  # the statement, over an operations namespace
    evaluate: Callable  # the same on concrete reps: None or a witness


CRISP_LAWS: tuple[CrispLaw, ...] = (
    CrispLaw("associativity", True, ("xy", "yz", "zx"), _associativity, law_associativity),
    CrispLaw("identity", True, ("xy",), _identity, law_identity),
    CrispLaw("monotonicity", True, ("xy", "xy", "yz"), _monotonicity, law_monotonicity),
    CrispLaw(
        "monotonicity-right", True, ("xy", "yz", "yz"),
        _monotonicity_right, law_monotonicity_right,
    ),
    CrispLaw(
        "join-distributivity", True, ("xy", "xy", "yz"),
        _join_distributivity, law_join_distributivity,
    ),
    CrispLaw(
        "join-distributivity-right", True, ("xy", "yz", "yz"),
        _join_distributivity_right, law_join_distributivity_right,
    ),
    CrispLaw("sms-join", True, ("xy", "xy"), _sms_join, law_sms_join),
    CrispLaw("sms-meet", True, ("xy", "xy"), _sms_meet, law_sms_meet),
    CrispLaw("anti-involution", False, ("xy",), _anti_involution, law_anti_involution),
    CrispLaw("contravariance", False, ("xy", "yz"), _contravariance, law_contravariance),
    CrispLaw(
        "meet-distributivity", False, ("xy", "xy", "yz"),
        _meet_distributivity, law_meet_distributivity,
    ),
    CrispLaw(
        "meet-distributivity-right", False, ("xy", "yz", "yz"),
        _meet_distributivity_right, law_meet_distributivity_right,
    ),
    CrispLaw("modular", False, ("xy", "yz", "xz"), _modular, law_modular),
)

ASSERTED_CRISP = tuple(law.name for law in CRISP_LAWS if law.asserted)
RECORDED_CRISP = tuple(law.name for law in CRISP_LAWS if not law.asserted)
ASSERTED_FUZZY = ("associativity", "identity", "sms-join", "sms-meet")
RECORDED_FUZZY = ("anti-involution", "contravariance", "cut-composition")


# -- operation tables over the enumerated pools -----------------------------------


class _Grid(NamedTuple):
    """Pool indices of representations in one hom set (``"xy"``: X -> Y)."""

    hom: str
    at: np.ndarray

    @property
    def source(self) -> str:
        return self.hom[0]

    @property
    def target(self) -> str:
        return self.hom[1]


class _Tables:
    """Law operations on index grids over the pools of every representation
    between the spaces of one call.

    Each binary operation is a table over pairs of pool indices, filled
    by the ``crisp`` operation at the pairs a law reaches, the first time
    it reaches them; ``sms`` is filled for its whole pool at once.  Pools
    are closed under every operation, so each result has an index, and
    they hold distinct representations, so ``eq`` compares indices.
    """

    def __init__(self, x: FiniteSpace, y: FiniteSpace, z: FiniteSpace):
        self._spaces = {"x": x, "y": y, "z": z}
        self._pools: dict[str, list[CrispAmbRep]] = {}
        self._index: dict[str, dict[tuple[int, ...], int]] = {}
        self._tables: dict[tuple, np.ndarray] = {}
        self._complete: set[tuple] = set()  # tables with every entry filled

    def pool(self, hom: str) -> list[CrispAmbRep]:
        if hom not in self._pools:
            pool = list(all_crisp_reps(self._spaces[hom[0]], self._spaces[hom[1]]))
            self._pools[hom] = pool
            self._index[hom] = {rep.rows: i for i, rep in enumerate(pool)}
        return self._pools[hom]

    def _position(self, hom: str, rep: CrispAmbRep) -> int:
        self.pool(hom)
        return self._index[hom][rep.rows]

    def _pairwise(self, op: Callable, r: _Grid, s: _Grid, hom: str | None) -> np.ndarray:
        """``op`` at every pair of ``r`` and ``s``: pool indices in ``hom``,
        or the results themselves (booleans) when ``hom`` is None."""
        key = (op, r.hom, s.hom)
        table = self._tables.get(key)
        if key not in self._complete:
            left, right = self.pool(r.hom), self.pool(s.hom)
            if table is None:
                table = self._tables[key] = np.full((len(left), len(right)), -1, np.int32)
            new = np.zeros(table.shape, dtype=bool)
            new[r.at, s.at] = True
            new &= table < 0
            for i, j in zip(*(axis.tolist() for axis in np.nonzero(new))):
                out = op(left[i], right[j])
                table[i, j] = out if hom is None else self._position(hom, out)
            if table.min() >= 0:
                self._complete.add(key)
        return table[r.at, s.at]

    def compose(self, r: _Grid, s: _Grid) -> _Grid:
        hom = r.source + s.target
        return _Grid(hom, self._pairwise(crisp.compose, r, s, hom))

    def join(self, r: _Grid, s: _Grid) -> _Grid:
        return _Grid(r.hom, self._pairwise(crisp.join, r, s, r.hom))

    def meet(self, r: _Grid, s: _Grid) -> _Grid:
        return _Grid(r.hom, self._pairwise(crisp.meet, r, s, r.hom))

    def sms(self, r: _Grid) -> _Grid:
        hom, key = r.hom[::-1], ("sms", r.hom)
        if key not in self._tables:
            self._tables[key] = np.array(
                [self._position(hom, crisp.sms(a)) for a in self.pool(r.hom)], np.int32
            )
        return _Grid(hom, self._tables[key][r.at])

    def identity(self, point: str) -> _Grid:
        hom = point + point
        return _Grid(hom, np.intp(self._position(hom, crisp.identity(self._spaces[point]))))

    def le(self, r: _Grid, s: _Grid) -> np.ndarray:
        return self._pairwise(operator.le, r, s, None) == 1

    def eq(self, r: _Grid, s: _Grid) -> np.ndarray:
        return r.at == s.at


def _check_exhaustive(law: CrispLaw, tables: _Tables) -> LawResult:
    pools = [tables.pool(hom) for hom in law.homs]
    shape = tuple(len(pool) for pool in pools)
    # open grids: each intermediate spans only the arguments it depends on
    grids = np.indices(shape, sparse=True)
    holds = law.holds(tables, *(_Grid(hom, at) for hom, at in zip(law.homs, grids)))
    holds = np.broadcast_to(holds, shape)
    res = LawResult(law.name, law.asserted, holds.size)
    if not holds.all():
        # C order over the grid is itertools.product order over the pools
        first = int(holds.argmin())
        args = [pool[i] for pool, i in zip(pools, np.unravel_index(first, holds.shape))]
        res.checked = first + 1
        res.witness = law.evaluate(*args)
        if res.witness is None:
            raise RuntimeError(f"{law.name}: the operation tables disagree with the law")
    return res


# -- samplers --------------------------------------------------------------------

DENSITIES = (0.03, 0.1, 0.25, 0.5, 0.8)


def crisp_sampler(seed: int) -> Callable[[FiniteSpace, FiniteSpace, int], CrispAmbRep]:
    """Deterministic stream of random representations with mixed densities."""

    def sample(source: FiniteSpace, target: FiniteSpace, i: int) -> CrispAmbRep:
        return random_rep(source, target, seed * 1_000_003 + i, DENSITIES[i % len(DENSITIES)])

    return sample


def fuzzy_sampler(seed: int, lattice: FiniteLattice):
    def sample(source: FiniteSpace, target: FiniteSpace, i: int):
        density = random.Random(seed * 69_061 + i).random()
        return random_fuzzy_rep(source, target, lattice, seed * 1_000_003 + i, density)

    return sample


def _hom_spaces(pattern: str, x, y, z) -> tuple[FiniteSpace, FiniteSpace]:
    by_name = {"x": x, "y": y, "z": z}
    return by_name[pattern[0]], by_name[pattern[1]]


def _gate(x: FiniteSpace, y: FiniteSpace, z: FiniteSpace) -> None:
    if max(x.size, y.size, z.size) > 2:
        raise SpaceTooLarge("exhaustive enumeration is gated at two-point spaces; sample at size 3")


def _arguments(
    homs: tuple[str, ...],
    x: FiniteSpace,
    y: FiniteSpace,
    z: FiniteSpace,
    exhaustive: bool,
    sampler,
    trials: int,
) -> Iterator[tuple[CrispAmbRep, ...]]:
    if exhaustive:
        _gate(x, y, z)
        pools = [list(all_crisp_reps(*_hom_spaces(p, x, y, z))) for p in homs]
        yield from product(*pools)
    else:
        for i in range(trials):
            yield tuple(
                sampler(*_hom_spaces(p, x, y, z), len(homs) * i + k)
                for k, p in enumerate(homs)
            )


# -- suite runners ----------------------------------------------------------------


def check_laws(
    x: FiniteSpace,
    y: FiniteSpace,
    z: FiniteSpace,
    trials: int = 200,
    exhaustive: bool = False,
    seed: int = 0,
) -> dict[str, LawResult]:
    """Run the crisp law suite.

    Each law quantifies over its own argument spaces; counterexamples are
    report content, carried as full witnesses.  Exhaustive mode reports a
    law's first witness in enumeration order and counts the instances up
    to it (all of them when the law holds), evaluated on operation tables.
    """
    if exhaustive:
        _gate(x, y, z)
        tables = _Tables(x, y, z)
        return {law.name: _check_exhaustive(law, tables) for law in CRISP_LAWS}
    sampler = crisp_sampler(seed)
    results: dict[str, LawResult] = {}
    for law in CRISP_LAWS:
        res = LawResult(law.name, law.asserted)
        for args in _arguments(law.homs, x, y, z, False, sampler, trials):
            res.checked += 1
            res.witness = law.evaluate(*args)
            if res.witness is not None:
                break
        results[law.name] = res
    return results




def check_fuzzy_laws(
    x: FiniteSpace,
    y: FiniteSpace,
    z: FiniteSpace,
    lattice: FiniteLattice,
    trials: int = 100,
    seed: int = 0,
) -> dict[str, LawResult]:
    """Graded law suite, including the exploratory cut/composition check."""
    sample = fuzzy_sampler(seed, lattice)
    tnorms: list[TNormTable] = [meet_tnorm(lattice)]
    if lattice.is_chain() and lattice.size > 1:
        tnorms.append(lukasiewicz(lattice))
    results = {
        name: LawResult(name, asserted=name in ASSERTED_FUZZY)
        for name in ASSERTED_FUZZY + RECORDED_FUZZY
    }
    for i in range(trials):
        r = sample(x, y, 3 * i)
        r2 = sample(x, y, 3 * i + 1)
        s = sample(y, z, 3 * i + 2)

        def record(name: str, witness_fn):
            res = results[name]
            res.checked += 1
            if res.witness is None:
                res.witness = witness_fn()

        def w_assoc():
            for tn in tnorms:
                lhs = fuzzy.compose(fuzzy.compose(r, s, tn), fuzzy.identity(z, lattice), tn)
                rhs = fuzzy.compose(r, fuzzy.compose(s, fuzzy.identity(z, lattice), tn), tn)
                if lhs != rhs:
                    return {"tnorm": tn.name, "r": fuzzy_rep_payload(r), "s": fuzzy_rep_payload(s)}
            return None

        def w_identity():
            for tn in tnorms:
                if (
                    fuzzy.compose(fuzzy.identity(x, lattice), r, tn) != r
                    or fuzzy.compose(r, fuzzy.identity(y, lattice), tn) != r
                ):
                    return {"tnorm": tn.name, "r": fuzzy_rep_payload(r)}
            return None

        def w_sms_join():
            if fuzzy.sms(fuzzy.join(r, r2)) != fuzzy.join(fuzzy.sms(r), fuzzy.sms(r2)):
                return {"r": fuzzy_rep_payload(r), "s": fuzzy_rep_payload(r2)}
            return None

        def w_sms_meet():
            if fuzzy.sms(fuzzy.meet(r, r2)) != fuzzy.meet(fuzzy.sms(r), fuzzy.sms(r2)):
                return {"r": fuzzy_rep_payload(r), "s": fuzzy_rep_payload(r2)}
            return None

        def w_involution():
            if fuzzy.sms(fuzzy.sms(r)) != r:
                return {"r": fuzzy_rep_payload(r)}
            return None

        def w_contravariance():
            if fuzzy.sms(fuzzy.compose(r, s)) != fuzzy.compose(fuzzy.sms(s), fuzzy.sms(r)):
                return {"r": fuzzy_rep_payload(r), "s": fuzzy_rep_payload(s)}
            return None

        def w_cut():
            # do cuts commute with graded composition? recorded, never asserted
            for tn in tnorms:
                comp = fuzzy.compose(r, s, tn)
                for alpha in range(lattice.size):
                    lhs = fuzzy.alpha_cut(comp, alpha)
                    rhs = crisp.compose(fuzzy.alpha_cut(r, alpha), fuzzy.alpha_cut(s, alpha))
                    if lhs != rhs:
                        return {
                            "tnorm": tn.name,
                            "alpha": lattice.elements[alpha],
                            "r": fuzzy_rep_payload(r),
                            "s": fuzzy_rep_payload(s),
                        }
            return None

        record("associativity", w_assoc)
        record("identity", w_identity)
        record("sms-join", w_sms_join)
        record("sms-meet", w_sms_meet)
        record("anti-involution", w_involution)
        record("contravariance", w_contravariance)
        record("cut-composition", w_cut)
    return results


# -- targeted searches --------------------------------------------------------------

SEARCHABLE = ("modular", "meet-distributivity", "anti-involution", "contravariance")


def search_law(
    law: str,
    x: FiniteSpace,
    y: FiniteSpace,
    z: FiniteSpace,
    exhaustive: bool = False,
    trials: int = 1000,
    seed: int = 0,
) -> dict:
    """Hunt for a counterexample to one recorded law.

    Returns a verdict payload: either a verified witness or an exhaustion
    certificate stating how many instances were checked.  The verdict is
    an output of the run, not an assumption.  Meet-distributivity covers
    both composition arguments.
    """
    if law not in SEARCHABLE:
        raise ValueError(f"searchable laws: {SEARCHABLE}")
    names = [law, "meet-distributivity-right"] if law == "meet-distributivity" else [law]
    specs = [spec for spec in CRISP_LAWS if spec.name in names]
    sampler = crisp_sampler(seed)
    checked = 0
    witness = None
    for spec in specs:
        for args in _arguments(spec.homs, x, y, z, exhaustive, sampler, trials):
            checked += 1
            witness = spec.evaluate(*args)
            if witness is not None:
                break
        if witness is not None:
            break
    return {
        "law": law,
        "mode": "exhaustive" if exhaustive else "sampled",
        "sizes": [x.size, y.size, z.size],
        "instances_checked": checked,
        "verdict": "counterexample" if witness else "no_counterexample",
        "witness": witness,
    }
