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

Each law is stated once, in :data:`CRISP_LAWS`, as a predicate over a
namespace of operations (``compose``, ``join``, ``meet``, ``sms``,
``identity``, ``le``, ``eq``), and both suites run that one table.  On
concrete representations a statement decides one instance, and
``evaluate`` returns ``None`` or a JSON-ready witness: the arguments by
the statement's parameter names, plus the law's tag.  The graded suite
runs the same statements on graded operations under each t-norm; only
cutting through composition, which has no crisp form, is stated for it
alone.  Its laws share their operations: a graded trial evaluates each
distinct ``sms``, ``compose`` and ``identity`` once, through a memo that
lives for that one trial.

:func:`check_laws` and :func:`search_law` run each crisp law in one of
two modes.  Sampled mode draws seeded random representations with mixed
densities and evaluates instance by instance up to the first witness.

Exhaustive mode evaluates the same predicates on operation tables.  The
representations between two finite spaces form a lattice and are
the arrows of a category, so each enumerated pool is closed under the
operations: every operation is a table of pool indices, and a law is
one boolean array over open ``np.indices`` grids of its argument pools.
A pool is enumerated once per pair of spaces, by ``all_crisp_reps`` and
in its order, and kept with its rows stacked in one int64 array; each
table is built for whole pools by one array kernel, and its results
map back to pool indices through packed row keys.  The tables live for
one call, and ``oracle.OperationTablesPerPair``, which fills them by
one ``crisp`` call per pair, is their twin.  C order over the grid is
the lexicographic order of argument tuples, so the first failing entry,
its count and its witness are those of the per-instance loop,
``oracle.check_laws_per_instance``, which is the twin of exhaustive
suites and searches alike.  The witness is evaluated again on the
representations themselves, through ``crisp``.
"""

from __future__ import annotations

import inspect
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import crisp, fuzzy
from .catalog import all_crisp_reps, lukasiewicz
from .crisp import CrispAmbRep, _compose_rows, _sms_rows
from .errors import SpaceTooLarge
from .generators import random_fuzzy_rep, random_rep
from .hyperspace import FiniteSpace, _frozen
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


# -- the laws, each stated once ------------------------------------------------
#
# ``o`` is an operations namespace: _Reps on concrete representations and
# _Graded on graded ones, where a statement returns a bool, or a _Tables on
# index grids, where it returns a boolean array over the grid.


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
    payload = staticmethod(lambda rep: crisp_rep_payload(rep))


class _Graded:
    """Law operations on graded representations, composing under one
    t-norm.  ``fuzzy`` is looked up at each call, as in :class:`_Reps`.

    ``sms``, ``compose`` and ``identity`` keep their results in a memo.
    The suite builds its namespaces afresh for each trial, one per t-norm
    sharing one memo (:meth:`per_trial`), so a trial evaluates each
    distinct operation once and no result outlives its trial.  ``join``
    and ``meet`` are one table lookup each and are called directly.  A
    key holds values, never identities: the operation, the spaces, the
    grade bytes and, for ``compose``, the t-norm.  The spaces are needed:
    tables between different spaces can have the same shape and bytes.
    """

    join = staticmethod(lambda r, s: fuzzy.join(r, s))
    meet = staticmethod(lambda r, s: fuzzy.meet(r, s))
    eq = staticmethod(operator.eq)
    payload = staticmethod(lambda rep: fuzzy_rep_payload(rep))

    def __init__(self, tnorm: TNormTable):
        self.tnorm = tnorm
        self._table = tnorm.table.tobytes()  # the t-norm in compose keys, hashed once
        self._memo: dict = {}

    @classmethod
    def per_trial(cls, tnorms: list[TNormTable]) -> list["_Graded"]:
        """One namespace per t-norm, all on the first one's memo: ``sms``
        and ``identity`` need no t-norm, so each runs once per trial."""
        graded = [cls(tn) for tn in tnorms]
        for ops in graded[1:]:
            ops._memo = graded[0]._memo
        return graded

    def _once(self, key: tuple, op: Callable, *args):
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = op(*args)
        return out

    def sms(self, r):
        return self._once(("sms", r.source, r.target, r.grades.tobytes()), fuzzy.sms, r)

    def compose(self, r, s):
        spaces = (r.source, r.target, s.target)  # r.target is the middle space
        key = ("compose", self._table, *spaces, r.grades.tobytes(), s.grades.tobytes())
        return self._once(key, fuzzy.compose, r, s, self.tnorm)

    def identity(self, space: FiniteSpace):
        return self._once(("identity", space), fuzzy.identity, space, self.tnorm.lattice)


class CrispLaw(NamedTuple):
    name: str
    asserted: bool
    homs: tuple[str, ...]  # argument spaces: "xy" ranges over reps X -> Y
    holds: Callable  # the statement, over an operations namespace
    tag: dict = {}  # joins every witness: which argument the law varies
    shows: Callable | None = None  # the reps a crisp witness shows, if not the arguments

    def evaluate(self, *args, ops=_Reps) -> dict | None:
        """One instance on concrete representations: None, or a JSON-ready
        witness of the arguments by the statement's parameter names."""
        if self.holds(ops, *args):
            return None
        if self.shows is not None and ops is _Reps:
            shown = self.shows(*args).items()
        else:
            shown = zip(list(inspect.signature(self.holds).parameters)[1:], args)
        return {name: ops.payload(rep) for name, rep in shown} | self.tag


_LEFT, _RIGHT = {"argument": "left"}, {"argument": "right"}

CRISP_LAWS: tuple[CrispLaw, ...] = (
    CrispLaw("associativity", True, ("xy", "yz", "zx"), _associativity),
    CrispLaw("identity", True, ("xy",), _identity),
    CrispLaw(
        "monotonicity", True, ("xy", "xy", "yz"), _monotonicity, _LEFT,
        lambda r, r2, s: {"small": crisp.meet(r, r2), "big": crisp.join(r, r2), "s": s},
    ),
    CrispLaw(
        "monotonicity-right", True, ("xy", "yz", "yz"), _monotonicity_right, _RIGHT,
        lambda r, s, s2: {"r": r, "small": crisp.meet(s, s2), "big": crisp.join(s, s2)},
    ),
    CrispLaw("join-distributivity", True, ("xy", "xy", "yz"), _join_distributivity, _LEFT),
    CrispLaw(
        "join-distributivity-right", True, ("xy", "yz", "yz"), _join_distributivity_right, _RIGHT
    ),
    CrispLaw("sms-join", True, ("xy", "xy"), _sms_join),
    CrispLaw("sms-meet", True, ("xy", "xy"), _sms_meet),
    CrispLaw(
        "anti-involution", False, ("xy",), _anti_involution,
        shows=lambda r: {"r": r, "double": crisp.sms(crisp.sms(r))},
    ),
    CrispLaw("contravariance", False, ("xy", "yz"), _contravariance),
    CrispLaw("meet-distributivity", False, ("xy", "xy", "yz"), _meet_distributivity, _LEFT),
    CrispLaw(
        "meet-distributivity-right", False, ("xy", "yz", "yz"), _meet_distributivity_right, _RIGHT
    ),
    CrispLaw("modular", False, ("xy", "yz", "xz"), _modular),
)
_BY_NAME = {law.name: law for law in CRISP_LAWS}

ASSERTED_CRISP = tuple(law.name for law in CRISP_LAWS if law.asserted)
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


class _Pool(NamedTuple):
    """Every representation between two spaces, in ``all_crisp_reps``
    order, with its rows stacked into one read-only int64 array of shape
    ``(N, source.full)``.  A representation's key packs its rows into one
    int64, row 0 in the most significant bits; the keys of the pool
    ascend, since ``all_crisp_reps`` lists the representations in
    lexicographic order of their rows."""

    reps: tuple[CrispAmbRep, ...]
    rows: np.ndarray
    shifts: np.ndarray  # the bit offset of each row in a key
    keys: np.ndarray  # keys[i]: the key of reps[i]

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The pool indices of stacked rows, over their leading axes;
        ``KeyError`` if some rows are not in the pool."""
        keys = np.bitwise_or.reduce(rows << self.shifts, axis=-1)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        if not np.array_equal(self.keys[at], keys):
            raise KeyError("rows outside the pool of their spaces")
        return at


# pools under the two-point gate hold at most 25 representations; the
# bound keeps a process that meets many labellings of the spaces small
@lru_cache(maxsize=256)
def _pool(source: FiniteSpace, target: FiniteSpace) -> _Pool:
    reps = tuple(all_crisp_reps(source, target))
    rows = _frozen(np.array([rep.rows for rep in reps], dtype=np.int64))
    shifts = _frozen(np.arange(source.full - 1, -1, -1, dtype=np.int64) * target.full)
    return _Pool(reps, rows, shifts, _frozen(np.bitwise_or.reduce(rows << shifts, axis=-1)))


class _Tables:
    """Law operations on index grids over the pools of every representation
    between the spaces of one call.

    Each operation is a table over the pool indices of its arguments,
    built for the whole pools in one array step the first time a law
    reaches it: ``compose`` ORs rows of the right pool over the middle
    sets each row of the left pool admits, ``join``, ``meet`` and ``le``
    are elementwise on rows, and ``sms`` is the pseudo-inversion kernel
    over the pool.  Pools are closed under every operation, so each
    result has an index, and they hold distinct representations, so
    ``eq`` compares indices.  ``oracle.OperationTablesPerPair`` is the
    twin that fills each entry by one ``crisp`` call.
    """

    def __init__(self, x: FiniteSpace, y: FiniteSpace, z: FiniteSpace):
        self._spaces = {"x": x, "y": y, "z": z}
        self._tables: dict[tuple[str, ...], np.ndarray] = {}

    def pool(self, hom: str) -> _Pool:
        return _pool(self._spaces[hom[0]], self._spaces[hom[1]])

    def compose(self, r: _Grid, s: _Grid) -> _Grid:
        hom, key = r.source + s.target, ("compose", r.hom, s.hom)
        if key not in self._tables:
            left, right = self.pool(r.hom).rows, self.pool(s.hom).rows
            rows = _compose_rows(left[:, None], right, self._spaces[r.target])
            self._tables[key] = self.pool(hom).index(rows)
        return _Grid(hom, self._tables[key][r.at, s.at])

    def _rowwise(self, op: np.ufunc, r: _Grid, s: _Grid) -> _Grid:
        key = (op.__name__, r.hom)
        if key not in self._tables:
            rows = self.pool(r.hom).rows
            self._tables[key] = self.pool(r.hom).index(op(rows[:, None], rows))
        return _Grid(r.hom, self._tables[key][r.at, s.at])

    def join(self, r: _Grid, s: _Grid) -> _Grid:
        return self._rowwise(np.bitwise_or, r, s)

    def meet(self, r: _Grid, s: _Grid) -> _Grid:
        return self._rowwise(np.bitwise_and, r, s)

    def sms(self, r: _Grid) -> _Grid:
        hom, key = r.hom[::-1], ("sms", r.hom)
        if key not in self._tables:
            rows = _sms_rows(self.pool(r.hom).rows, self._spaces[r.source], self._spaces[r.target])
            self._tables[key] = self.pool(hom).index(rows)
        return _Grid(hom, self._tables[key][r.at])

    def identity(self, point: str) -> _Grid:
        hom = point + point
        rows = np.array(crisp.identity(self._spaces[point]).rows)
        return _Grid(hom, self.pool(hom).index(rows))

    def le(self, r: _Grid, s: _Grid) -> np.ndarray:
        key = ("le", r.hom)
        if key not in self._tables:
            rows = self.pool(r.hom).rows
            self._tables[key] = (rows[:, None] & ~rows == 0).all(axis=-1)
        return self._tables[key][r.at, s.at]

    def eq(self, r: _Grid, s: _Grid) -> np.ndarray:
        return r.at == s.at


def _check_exhaustive(law: CrispLaw, tables: _Tables) -> LawResult:
    pools = [tables.pool(hom).reps for hom in law.homs]
    shape = tuple(len(pool) for pool in pools)
    # open grids: each intermediate spans only the arguments it depends on
    grids = np.indices(shape, sparse=True)
    holds = law.holds(tables, *(_Grid(hom, at) for hom, at in zip(law.homs, grids)))
    holds = np.broadcast_to(holds, shape)
    res = LawResult(law.name, law.asserted, holds.size)
    if not holds.all():
        # C order over the grid is lexicographic order over the pools
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


# -- one runner per mode -------------------------------------------------------------


def _check_sampled(law: CrispLaw, spaces: dict, sample, trials: int) -> LawResult:
    """Argument ``k`` of trial ``i`` is draw ``len(law.homs) * i + k``; the
    count runs up to the first witness."""
    res = LawResult(law.name, law.asserted)
    for i in range(trials):
        args = [
            sample(spaces[hom[0]], spaces[hom[1]], len(law.homs) * i + k)
            for k, hom in enumerate(law.homs)
        ]
        res.checked += 1
        res.witness = law.evaluate(*args)
        if res.witness is not None:
            break
    return res


def _require_trials(trials: int) -> None:
    # zero trials would report a clean verdict over no instances
    if trials < 1:
        raise ValueError(f"sampled runs need trials >= 1, got trials={trials}")


def _runner(
    x: FiniteSpace, y: FiniteSpace, z: FiniteSpace, exhaustive: bool, trials: int, seed: int
) -> Callable[[CrispLaw], LawResult]:
    """The one way a call runs each of its laws."""
    if exhaustive:
        if max(x.size, y.size, z.size) > 2:
            raise SpaceTooLarge(
                "exhaustive enumeration is gated at two-point spaces; sample at size 3"
            )
        tables = _Tables(x, y, z)
        return lambda law: _check_exhaustive(law, tables)
    _require_trials(trials)
    spaces, sample = {"x": x, "y": y, "z": z}, crisp_sampler(seed)
    return lambda law: _check_sampled(law, spaces, sample, trials)


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
    run = _runner(x, y, z, exhaustive, trials, seed)
    return {law.name: run(law) for law in CRISP_LAWS}


# -- the graded suite ---------------------------------------------------------------

_EVERY_TNORM = ("associativity", "identity")  # the category laws


def _cut_composition(r, s, graded: list[_Graded]) -> dict | None:
    """Do cuts commute with graded composition?  Recorded, never asserted,
    and graded only: None, or a witness.  The composites of the cuts need
    no t-norm, so each is built once."""
    lattice = r.lattice
    composed_cuts = [
        crisp.compose(fuzzy.alpha_cut(r, alpha), fuzzy.alpha_cut(s, alpha))
        for alpha in range(lattice.size)
    ]
    for ops in graded:
        comp = ops.compose(r, s)
        for alpha in range(lattice.size):
            if fuzzy.alpha_cut(comp, alpha) != composed_cuts[alpha]:
                return {
                    "tnorm": ops.tnorm.name,
                    "alpha": lattice.elements[alpha],
                    "r": fuzzy_rep_payload(r),
                    "s": fuzzy_rep_payload(s),
                }
    return None


def check_fuzzy_laws(
    x: FiniteSpace,
    y: FiniteSpace,
    z: FiniteSpace,
    lattice: FiniteLattice,
    trials: int = 100,
    seed: int = 0,
) -> dict[str, LawResult]:
    """Graded law suite: the statements of :data:`CRISP_LAWS` on graded
    operations, plus the exploratory cut/composition check.

    Trial ``i`` draws ``r``, ``r2``: X -> Y and ``s``: Y -> Z at sampler
    indices ``3i``, ``3i + 1`` and ``3i + 2``, and the third argument of
    associativity, ``t``: Z -> X, from its own stream at ``-1 - i``.
    Associativity and identity run under every t-norm of the lattice
    (the meet, and Łukasiewicz on a chain) and name it in their witness;
    the other laws run under the meet.  Every law counts every trial,
    ``instances_checked == trials``, and keeps its first witness, where
    the crisp suites count up to their first witness.

    A trial evaluates each distinct ``sms``, ``compose`` and ``identity``
    once, and each composite of cuts once, through namespaces built for
    that trial alone (see :class:`_Graded`).  Łukasiewicz runs on chains of three or more
    grades, where its table differs from the meet's; on two it is the
    meet's table, which fails nowhere the meet passes.
    ``oracle.check_fuzzy_laws_per_instance``, which calls ``fuzzy`` on
    every use and runs both tables on every chain, is its twin.
    """
    _require_trials(trials)
    sample = fuzzy_sampler(seed, lattice)
    tnorms: list[TNormTable] = [meet_tnorm(lattice)]
    if lattice.is_chain() and lattice.size > 2:  # on two grades Łukasiewicz is the meet
        tnorms.append(lukasiewicz(lattice))
    results = {
        name: LawResult(name, asserted=name in ASSERTED_FUZZY)
        for name in ASSERTED_FUZZY + RECORDED_FUZZY
    }
    for i in range(trials):
        graded = _Graded.per_trial(tnorms)
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
            elif name in _EVERY_TNORM:
                for ops in graded:
                    witness = _BY_NAME[name].evaluate(*arguments[name], ops=ops)
                    if witness is not None:
                        res.witness = {"tnorm": ops.tnorm.name} | witness
                        break
            else:
                res.witness = _BY_NAME[name].evaluate(*arguments[name], ops=graded[0])
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
    an output of the run, not an assumption.  It runs as a law of
    :func:`check_laws` does in the same mode.  Meet-distributivity covers
    both composition arguments: the right law runs while the left holds,
    and the counts add up.
    """
    if law not in SEARCHABLE:
        raise ValueError(f"searchable laws: {SEARCHABLE}")
    names = [law, "meet-distributivity-right"] if law == "meet-distributivity" else [law]
    run = _runner(x, y, z, exhaustive, trials, seed)
    checked, witness = 0, None
    for name in names:
        res = run(_BY_NAME[name])
        checked, witness = checked + res.checked, res.witness
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
