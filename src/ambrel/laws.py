"""Law checkers and counterexample searches.

Each law is a predicate on concrete representations returning ``None``
or a JSON-ready witness.  Laws split into two groups:

* asserted laws hold for every valid representation (associativity,
  identities, monotonicity, distributivity over join, and the
  join/meet laws of pseudo-inversion) — a counterexample here is a bug;
* recorded laws are searched, and whatever the search finds is the
  result (double pseudo-inversion as the identity, contravariance,
  distributivity over meet, the modular law, cutting through graded
  composition).  Several of these hold only on the class of
  pseudo-invertible representations; see ``docs/properties.md``.

Exhaustive mode enumerates each law's own argument product over all
valid representations at the given sizes; sampled mode draws seeded
random representations with mixed densities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

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


# -- crisp law evaluators ------------------------------------------------------


def _w(**reps) -> dict:
    return {name: crisp_rep_payload(rep) for name, rep in reps.items()}


def law_associativity(r, s, t) -> dict | None:
    if crisp.compose(crisp.compose(r, s), t) != crisp.compose(r, crisp.compose(s, t)):
        return _w(r=r, s=s, t=t)
    return None


def law_identity(r) -> dict | None:
    if (
        crisp.compose(crisp.identity(r.source), r) != r
        or crisp.compose(r, crisp.identity(r.target)) != r
    ):
        return _w(r=r)
    return None


def law_monotonicity(r, r2, s) -> dict | None:
    lo, hi = crisp.meet(r, r2), crisp.join(r, r2)
    if not crisp.compose(lo, s) <= crisp.compose(hi, s):
        return _w(small=lo, big=hi, s=s) | {"argument": "left"}
    return None


def law_monotonicity_right(r, s, s2) -> dict | None:
    lo, hi = crisp.meet(s, s2), crisp.join(s, s2)
    if not crisp.compose(r, lo) <= crisp.compose(r, hi):
        return _w(r=r, small=lo, big=hi) | {"argument": "right"}
    return None


def law_join_distributivity(r, r2, s) -> dict | None:
    if crisp.compose(crisp.join(r, r2), s) != crisp.join(
        crisp.compose(r, s), crisp.compose(r2, s)
    ):
        return _w(r=r, r2=r2, s=s) | {"argument": "left"}
    return None


def law_join_distributivity_right(r, s, s2) -> dict | None:
    if crisp.compose(r, crisp.join(s, s2)) != crisp.join(
        crisp.compose(r, s), crisp.compose(r, s2)
    ):
        return _w(r=r, s=s, s2=s2) | {"argument": "right"}
    return None


def law_meet_distributivity(r, r2, s) -> dict | None:
    if crisp.compose(crisp.meet(r, r2), s) != crisp.meet(
        crisp.compose(r, s), crisp.compose(r2, s)
    ):
        return _w(r=r, r2=r2, s=s) | {"argument": "left"}
    return None


def law_meet_distributivity_right(r, s, s2) -> dict | None:
    if crisp.compose(r, crisp.meet(s, s2)) != crisp.meet(
        crisp.compose(r, s), crisp.compose(r, s2)
    ):
        return _w(r=r, s=s, s2=s2) | {"argument": "right"}
    return None


def law_sms_join(r, s) -> dict | None:
    if crisp.sms(crisp.join(r, s)) != crisp.join(crisp.sms(r), crisp.sms(s)):
        return _w(r=r, s=s)
    return None


def law_sms_meet(r, s) -> dict | None:
    if crisp.sms(crisp.meet(r, s)) != crisp.meet(crisp.sms(r), crisp.sms(s)):
        return _w(r=r, s=s)
    return None


def law_anti_involution(r) -> dict | None:
    if crisp.sms(crisp.sms(r)) != r:
        return _w(r=r, double=crisp.sms(crisp.sms(r)))
    return None


def law_contravariance(r, s) -> dict | None:
    if crisp.sms(crisp.compose(r, s)) != crisp.compose(crisp.sms(s), crisp.sms(r)):
        return _w(r=r, s=s)
    return None


def law_modular(f, g, h) -> dict | None:
    """Modular inequality: the meet of a composite with a parallel arrow is
    bounded by composing through the pulled-back meet."""
    lhs = crisp.meet(crisp.compose(f, g), h)
    rhs = crisp.compose(f, crisp.meet(g, crisp.compose(crisp.sms(f), h)))
    if not lhs <= rhs:
        return _w(f=f, g=g, h=h)
    return None


# one entry per law: asserted flag, hom-set pattern, evaluator.
# patterns name the spaces each argument ranges over ("xy" = reps X -> Y).
_CRISP_LAWS: list[tuple[str, bool, tuple[str, ...], Callable]] = [
    ("associativity", True, ("xy", "yz", "zx"), law_associativity),
    ("identity", True, ("xy",), law_identity),
    ("monotonicity", True, ("xy", "xy", "yz"), law_monotonicity),
    ("monotonicity-right", True, ("xy", "yz", "yz"), law_monotonicity_right),
    ("join-distributivity", True, ("xy", "xy", "yz"), law_join_distributivity),
    ("join-distributivity-right", True, ("xy", "yz", "yz"), law_join_distributivity_right),
    ("sms-join", True, ("xy", "xy"), law_sms_join),
    ("sms-meet", True, ("xy", "xy"), law_sms_meet),
    ("anti-involution", False, ("xy",), law_anti_involution),
    ("contravariance", False, ("xy", "yz"), law_contravariance),
    ("meet-distributivity", False, ("xy", "xy", "yz"), law_meet_distributivity),
    ("meet-distributivity-right", False, ("xy", "yz", "yz"), law_meet_distributivity_right),
    ("modular", False, ("xy", "yz", "xz"), law_modular),
]

ASSERTED_CRISP = tuple(name for name, asserted, _, _ in _CRISP_LAWS if asserted)
RECORDED_CRISP = tuple(name for name, asserted, _, _ in _CRISP_LAWS if not asserted)
ASSERTED_FUZZY = ("associativity", "identity", "sms-join", "sms-meet")
RECORDED_FUZZY = ("anti-involution", "contravariance", "cut-composition")


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
        if max(x.size, y.size, z.size) > 2:
            raise SpaceTooLarge(
                "exhaustive enumeration is gated at two-point spaces; sample at size 3"
            )
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
    report content, carried as full witnesses.  Exhaustive mode stops a
    law's enumeration at its first witness (the count says how far it got).
    """
    sampler = crisp_sampler(seed)
    results: dict[str, LawResult] = {}
    for name, asserted, homs, evaluator in _CRISP_LAWS:
        res = LawResult(name, asserted)
        for args in _arguments(homs, x, y, z, exhaustive, sampler, trials):
            res.checked += 1
            witness = evaluator(*args)
            if witness is not None:
                res.witness = witness
                break
        results[name] = res
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
    specs = [spec for spec in _CRISP_LAWS if spec[0] in names]
    sampler = crisp_sampler(seed)
    checked = 0
    witness = None
    for _, _, homs, evaluator in specs:
        for args in _arguments(homs, x, y, z, exhaustive, sampler, trials):
            checked += 1
            witness = evaluator(*args)
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
