"""The four workloads: seeded inputs, item bodies and output checks.

Inputs come from this file's own seeded code (``random.Random(seed)``),
never from ``ambrel.generators``, so the program under test receives only
data.  Each workload builds a *deck* of items with a fixed class mix; the
timed loop runs the deck over and over, so every pass has the same mix
and throughput does not depend on where a run happens to stop.  The
first pass is the reference: its outputs get the full checks and feed
the digest, and every later pass must reproduce them exactly.

Calls into ambrel go through module attributes (``he.encode``, not a
from-import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from itertools import product
from typing import Callable

import numpy as np

from ambrel import capacity, catalog, cli, crisp, fuzzy, laws, oracle
from ambrel import lattice as alat
from ambrel import hyperencoding as he
from ambrel import io as aio
from ambrel.hyperspace import FiniteSpace


@dataclass
class Item:
    """One unit of closed-loop work.

    ``run`` is timed; ``check`` returns failure messages for its output;
    ``warm`` is the set-up call that fills the caches this item needs,
    made once per distinct ``key`` (space and lattice).  ``cls`` names the
    item class whose share of the deck the percentile check looks at.
    """

    cls: str
    key: tuple
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    warm: Callable[[], object]


@dataclass
class Deck:
    items: list[Item]

    def class_shares(self) -> dict[str, float]:
        n = len(self.items)
        out: dict[str, float] = {}
        for it in self.items:
            out[it.cls] = out.get(it.cls, 0.0) + 1 / n
        return out


def space(prefix: str, n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"{prefix}{i + 1}" for i in range(n)))


def lattices() -> dict:
    return {
        "chain2": catalog.chain(2),
        "chain3": catalog.chain(3),
        "chain4": catalog.chain(4),
        "chain8": catalog.chain(8),
        "chain16": catalog.chain(16),
        "square": catalog.boolean_square(),
    }


def spread(k: int, n: int, lo: float, hi: float) -> float:
    """The middle of the k-th of n equal strata of [lo, hi): a deck's mix of
    densities and sizes is the same for every seed, only contents vary."""
    return lo + (hi - lo) * (k + 0.5) / n


# -- seeded raw data ----------------------------------------------------------


def grade_table(rng: random.Random, n_src: int, n_tgt: int, lat, density: float) -> np.ndarray:
    """A valid grade table: random grades, then the least repair that makes
    them rise with the target set, fall with the source set, and give the
    whole target the top grade."""
    full_s, full_t = (1 << n_src) - 1, (1 << n_tgt) - 1
    g = np.full((full_s, full_t), lat.bottom, dtype=np.intp)
    for a in range(full_s):
        for b in range(full_t):
            if rng.random() < density:
                g[a, b] = rng.randrange(lat.size)
    g[:, full_t - 1] = lat.top
    join = lat.join_table
    for b in range(1, full_t + 1):  # ascending masks: subsets first
        for j in range(n_tgt):
            bigger = b | (1 << j)
            if bigger != b:
                g[:, bigger - 1] = join[g[:, bigger - 1], g[:, b - 1]]
    for a in sorted(range(1, full_s + 1), key=lambda m: -bin(m).count("1")):
        for i in range(n_src):
            smaller = a & ~(1 << i)
            if smaller and smaller != a:
                g[smaller - 1, :] = join[g[smaller - 1, :], g[a - 1, :]]
    return g


def crisp_rows(rng: random.Random, n_src: int, n_tgt: int, density: float) -> list[int]:
    """Rows of a valid crisp representation: the axiom closure of random
    seed pairs, computed here rather than by ``crisp.from_seed``."""
    full_s, full_t = (1 << n_src) - 1, (1 << n_tgt) - 1
    supersets = [
        sum(1 << (t - 1) for t in range(1, full_t + 1) if t & s == s)
        for s in range(1, full_t + 1)
    ]
    rows = [1 << (full_t - 1)] * full_s
    for a in range(1, full_s + 1):
        for b in range(1, full_t + 1):
            if rng.random() < density:
                sub = a
                while sub:
                    rows[sub - 1] |= supersets[b - 1]
                    sub = (sub - 1) & a
    return rows


def rows_pairs(rows: list[int]) -> list[tuple[int, int]]:
    return [
        (a + 1, b)
        for a, row in enumerate(rows)
        for b in range(1, row.bit_length() + 1)
        if row >> (b - 1) & 1
    ]


def raw_triples(rng: random.Random, n_src: int, n_tgt: int, lat, count: int):
    return [
        (rng.randrange(1, 1 << ((1 << n_src) - 1)), rng.randrange(1, 1 << n_tgt), rng.randrange(lat.size))
        for _ in range(count)
    ]


# -- canonical forms for the digest ----------------------------------------------


def canon(value):
    """JSON-ready canonical form of any output the items produce."""
    if isinstance(value, fuzzy.LFuzzyAmbRep):
        return ["F", value.source.points, value.target.points, value.lattice.elements,
                value.grades.tolist()]
    if isinstance(value, crisp.CrispAmbRep):
        return ["C", value.source.points, value.target.points, list(value.rows)]
    if isinstance(value, he.TernaryHyperRelation):
        return ["H", value.source.points, value.target.points, value.lattice.elements,
                value.masks.tolist()]
    if isinstance(value, capacity.LCapacity):
        return ["K", value.space.points, value.values.tolist()]
    if isinstance(value, laws.LawResult):
        return value.payload()
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"no canonical form for {type(value).__name__}")


def canonical_bytes(value) -> bytes:
    return json.dumps(canon(value), sort_keys=True, separators=(",", ":")).encode()


# -- encode: the hyperencoding pipeline -----------------------------------------------


def _encode_item(cls, rng, X, Y, lat, density, n_neigh, n_triples) -> Item:
    grades = grade_table(rng, X.size, Y.size, lat, density)
    neighbours = [
        fuzzy.validate(X, Y, lat, grade_table(rng, X.size, Y.size, lat, rng.uniform(0.1, 0.7)))
        for _ in range(n_neigh)
    ]
    raw = he.TernaryHyperRelation.from_triples(
        X, Y, lat, raw_triples(rng, X.size, Y.size, lat, n_triples)
    )

    def run():
        r = fuzzy.validate(X, Y, lat, grades)
        t = he.encode(r)
        encoded = he.is_encoded(t)
        back = he.decode(t)
        sup = he.family_sup([r] + neighbours)
        return r, t, encoded, back, sup, he.subset_saturate(raw), he.sup_saturate(raw), he.plus(raw)

    def check(out):
        r, t, encoded, back, sup, s_sub, s_sup, s_plus = out
        bad = []
        if back != r:
            bad.append("decode(encode(r)) != r")
        if encoded is not True:
            bad.append("is_encoded(encode(r)) is not True")
        if sup != fuzzy.sup_family([r] + neighbours):
            bad.append("family_sup differs from fuzzy.sup_family")
        for name, op, sat in (
            ("subset_saturate", he.subset_saturate, s_sub),
            ("sup_saturate", he.sup_saturate, s_sup),
            ("plus", he.plus, s_plus),
        ):
            if not raw.issubset(sat):
                bad.append(f"{name} is not extensive")
            if op(sat) != sat:
                bad.append(f"{name} is not idempotent")
        return bad

    def warm():
        bot = fuzzy.bot(X, Y, lat)
        he.is_encoded(he.encode(bot))
        he.family_sup([bot, bot])
        return he.plus(raw)

    return Item(cls, ("encode", X, Y, lat), run, check, warm)


def build_encode(seed: int, size: str, lats: dict) -> Deck:
    rng = random.Random(seed)
    n_src = 3 if size == "full" else 2
    # (class, target points, items per lattice); 60/40 keeps p50 inside the
    # two-point targets and p90 inside the three-point ones
    classes = [("t2", 2, 6), ("t3", 3, 4)] if size == "full" else [("t1", 1, 3), ("t2", 2, 2)]
    X = space("x", n_src)
    items = []
    for cls, n_tgt, per_lat in classes:
        Y = space("y", n_tgt)
        n = per_lat * 3
        for k in range(n):
            lat = lats[("square", "chain3", "chain4")[k % 3]]
            items.append(
                _encode_item(
                    cls,
                    rng,
                    X,
                    Y,
                    lat,
                    spread(k, n, 0.2, 0.6),
                    1 + k % 3,
                    8 + int(spread(k, n, 0, 57)),
                )
            )
    rng.shuffle(items)
    return Deck(items)


# -- small: law suites and encodings at one and two points ------------------------------


def _law_check(result_map) -> list[str]:
    bad = []
    for name, res in result_map.items():
        if res.checked < 1:
            bad.append(f"{name}: no instances checked")
        if res.asserted and not res.holds:
            bad.append(f"asserted law {name} violated")
    return bad


def _search_check(verdict) -> list[str]:
    if verdict["verdict"] not in ("counterexample", "no_counterexample"):
        return [f"unknown verdict {verdict['verdict']!r}"]
    if verdict["instances_checked"] < 1:
        return ["search checked no instances"]
    if (verdict["verdict"] == "counterexample") != (verdict["witness"] is not None):
        return ["verdict and witness disagree"]
    return []


def build_small(seed: int, size: str, lats: dict) -> Deck:
    """Exhaustive law suites and searches at every size triple in {1,2}^3,
    sampled graded suites at 2,2,2, and encoding items at one and two
    points.  Sorted by latency the deck reads: searches (34%), encodings
    (40%), the small suites, graded suites (17%), the 2,2,1 / 1,2,2 /
    2,2,2 suites; so the p50 is an encoding and the p90 a graded suite."""
    rng = random.Random(seed)
    triples = list(product((1, 2), repeat=3))
    if size == "tiny":
        triples = [t for t in triples if sum(t) <= 4]
    items = []
    for sizes in triples:
        x, y, z = space("x", sizes[0]), space("y", sizes[1]), space("z", sizes[2])
        cls_laws = "laws" + "".join(map(str, sizes))

        def warm(x=x, y=y, z=z):
            laws.check_laws(x, y, z, trials=1, seed=0)
            for a, b in product((x, y, z), repeat=2):
                list(catalog.all_crisp_reps(a, b))

        items.append(
            Item(
                cls_laws,
                ("laws", x, y, z),
                lambda x=x, y=y, z=z: laws.check_laws(x, y, z, exhaustive=True),
                _law_check,
                warm,
            )
        )
        for law in laws.SEARCHABLE:
            items.append(
                Item(
                    "search",
                    ("laws", x, y, z),
                    lambda law=law, x=x, y=y, z=z: laws.search_law(law, x, y, z, exhaustive=True),
                    _search_check,
                    warm,
                )
            )
    x2, y2, z2 = space("x", 2), space("y", 2), space("z", 2)
    n_fuzzy = 16 if size == "full" else 3
    trials = 6 if size == "full" else 1
    for k in range(n_fuzzy):
        lat = lats[("chain2", "chain3", "square")[k % 3]]
        s = rng.randrange(1 << 30)
        items.append(
            Item(
                "fuzzy_laws",
                ("fuzzy_laws", lat),
                lambda lat=lat, s=s: laws.check_fuzzy_laws(x2, y2, z2, lat, trials=trials, seed=s),
                _law_check,
                lambda lat=lat: laws.check_fuzzy_laws(x2, y2, z2, lat, trials=1, seed=0),
            )
        )
    n_enc = 38 if size == "full" else 6
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)] if size == "full" else [(1, 1), (1, 2)]
    for k in range(n_enc):
        n_src, n_tgt = shapes[k % len(shapes)]
        lat = lats[("square", "chain3")[k // len(shapes) % 2]]
        items.append(
            _encode_item(
                "encode",
                rng,
                space("x", n_src),
                space("y", n_tgt),
                lat,
                spread(k, n_enc, 0.2, 0.6),
                1 + k % 3,
                8 + int(spread(k, n_enc, 0, 57)),
            )
        )
    rng.shuffle(items)
    return Deck(items)


# -- graded: the Python-loop kernels at four to six points -----------------------------


# one density for every graded item keeps each class's latencies tight
GRADED_DENSITY = 0.35


def fiber_pairs(grades: np.ndarray, a: int, lat) -> list[tuple[int, int]]:
    """Subgraph pairs of the capacity graded by row ``a``, built here so the
    item hands ``validate_subgraph`` plain data."""
    row = grades[a - 1]
    return [
        (f, alpha)
        for f in range(1, len(row) + 1)
        for alpha in range(lat.size)
        if lat.leq[alpha, row[f - 1]]
    ]


def _graded_item(cls, rng, n_src, n_tgt, lat, lat_name, with_oracle) -> Item:
    X, Y, Z = space("x", n_src), space("y", n_tgt), space("z", n_src)
    grades = grade_table(rng, n_src, n_tgt, lat, GRADED_DENSITY)
    other = fuzzy.validate(X, Y, lat, grade_table(rng, n_src, n_tgt, lat, GRADED_DENSITY))
    partner = fuzzy.validate(Y, Z, lat, grade_table(rng, n_tgt, n_src, lat, GRADED_DENSITY))
    tnorms = [alat.meet_tnorm(lat)]
    if lat.is_chain():
        tnorms.append(catalog.lukasiewicz(lat))
    fiber = 1 << rng.randrange(n_src)  # a singleton: the fiber with the most grades
    pairs = fiber_pairs(grades, fiber, lat)
    alpha = rng.randrange(lat.size)
    partner_cut = crisp.validate_rows(Y, Z, fuzzy.alpha_cut(partner, alpha).rows)

    def run():
        r = fuzzy.validate(X, Y, lat, grades)
        inv = fuzzy.sms(r)
        comps = [fuzzy.compose(r, partner, tn) for tn in tnorms]
        cut_family = fuzzy.cuts(r)
        back = fuzzy.from_cuts(X, Y, lat, cut_family)
        j, m = fuzzy.join(r, other), fuzzy.meet(r, other)
        caps = capacity.capacities_of(r)
        caps = {a: capacity.validate_capacity(Y, lat, c.values) for a, c in caps.items()}
        sub = capacity.validate_subgraph(Y, lat, pairs)
        cut = cut_family[alpha]
        return r, inv, comps, back, j, m, caps, sub, crisp.sms(cut), crisp.compose(cut, partner_cut)

    def check(out):
        r, inv, comps, back, j, m, caps, sub, cut_inv, cut_comp = out
        bad = []
        if back != r:
            bad.append("from_cuts(cuts(r)) != r")
        if sub != caps[fiber]:
            bad.append("validate_subgraph does not recover the fiber capacity")
        if with_oracle:
            cut = fuzzy.alpha_cut(r, alpha)
            if cut_inv != oracle.sms_definitional(cut):
                bad.append("crisp.sms disagrees with oracle.sms_definitional")
            for tn, comp in zip(tnorms, comps):
                if comp != oracle.compose_subgraph(r, partner, tn):
                    bad.append(f"fuzzy.compose ({tn.name}) disagrees with oracle.compose_subgraph")
        return bad

    def warm():
        bot = fuzzy.bot(X, Y, lat)
        fuzzy.sms(bot)
        fuzzy.from_cuts(X, Y, lat, fuzzy.cuts(bot))
        for tn in tnorms:
            fuzzy.compose(bot, partner, tn)
        return capacity.capacities_of(bot)

    return Item(cls, ("graded", X, Y, lat_name), run, check, warm)


# (source points, target points, lattice, items).  Each combination is an
# item class; their latencies sit in tiers at least 1.5x apart, from ~5 ms
# (4x4 over chain3) to ~250 ms (6x5 over chain16).  The p50 falls in the
# middle of the 6x5-chain3 class (deck shares 0.35-0.65) and the p90 in
# the 6x6-square class (0.725-0.975); the wide p50 class keeps the p50
# from hanging on one or two items' contents.
GRADED_FULL = [
    (4, 4, "chain3", 5),
    (4, 4, "square", 5),
    (4, 4, "chain8", 2),
    (5, 4, "chain8", 2),
    (6, 5, "chain3", 12),
    (6, 4, "chain16", 3),
    (6, 6, "square", 10),
    (6, 5, "chain16", 1),
]
GRADED_TINY = [(3, 3, "chain3", 2), (3, 3, "square", 2), (4, 3, "chain8", 1)]


def build_graded(seed: int, size: str, lats: dict) -> Deck:
    rng = random.Random(seed)
    items = []
    for n_src, n_tgt, lat_name, count in GRADED_FULL if size == "full" else GRADED_TINY:
        lat = lats[lat_name]
        for _ in range(count):
            # oracle twins are exhaustive; sample them on the small items
            with_oracle = max(n_src, n_tgt) <= 4 and lat.size <= 4 and rng.random() < 0.5
            cls = f"{n_src}x{n_tgt}-{lat_name}"
            items.append(_graded_item(cls, rng, n_src, n_tgt, lat, lat_name, with_oracle))
    rng.shuffle(items)
    return Deck(items)


# -- cli: in-process verbs over JSON files --------------------------------------------------


def lattice_doc(lat) -> dict:
    return {
        "elements": list(lat.elements),
        "leq": [[bool(lat.leq[i, j]) for j in range(lat.size)] for i in range(lat.size)],
        "tnorm": None,
    }


def crisp_doc(X, Y, rows) -> dict:
    return {
        "source": list(X.points),
        "target": list(Y.points),
        "pairs": [[list(X.labels(a)), list(Y.labels(b))] for a, b in rows_pairs(rows)],
    }


def graded_doc(X, Y, lat, grades) -> dict:
    return {
        "source": list(X.points),
        "target": list(Y.points),
        "lattice": lattice_doc(lat),
        "grades": [
            [list(X.labels(a)), list(Y.labels(b)), lat.elements[int(grades[a - 1, b - 1])]]
            for a in X.subsets()
            for b in Y.subsets()
            if b != Y.full and grades[a - 1, b - 1] != lat.bottom
        ],
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _reload(verb: str, payload) -> None:
    """Parse an exit-0 output back through the reader for its kind."""
    if verb == "encode":
        aio.hyper_from(payload)
    elif verb == "capacity":
        aio.capacity_from(payload)
    elif verb in ("sms", "compose", "join", "meet", "cut", "gen"):
        if aio.is_fuzzy_payload(payload):
            aio.fuzzy_rep_from(payload)
        else:
            aio.crisp_rep_from(payload)
    elif verb == "unavoidable":
        if not isinstance(payload, list):
            raise ValueError("unavoidable output is a list of subsets")
    elif verb == "validate":
        if payload.get("verdict") != "valid":
            raise ValueError("validate output lacks a valid verdict")


def _cli_check(verb: str, expected: int):
    def check(out) -> list[str]:
        code, text = out
        bad = []
        if code != expected:
            bad.append(f"{verb}: exit {code}, built as {expected}")
        if expected == 3:
            if text:
                bad.append(f"{verb}: malformed input printed to stdout")
            return bad
        try:
            payload = aio.loads(text)
        except aio.MalformedInput:
            return bad + [f"{verb}: stdout is not JSON"]
        if aio.dumps(payload) != text:
            bad.append(f"{verb}: stdout is not canonical")
        if expected == 1:
            if payload.get("verdict") != "invalid":
                bad.append(f"{verb}: exit 1 without an invalid verdict")
        else:
            try:
                _reload(verb, payload)
            except ValueError as e:  # MalformedInput and ValidationError included
                bad.append(f"{verb}: output does not re-load: {e}")
        return bad

    return check


class _Files:
    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def write(self, doc_or_text) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:04d}.json")
        text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text)
        with open(path, "w") as fh:
            fh.write(text)
        return path


# (verb, source points, target points, lattice or None for crisp, extra).
# The small tier is a few milliseconds per call; the large tier (five or
# six points, eight- and sixteen-grade chains, 3-point encodings) tens to
# a hundred.  At 32:20 the p50 sits inside the small tier and the p90
# inside the large one.  About 10% of inputs are invalid and 5% malformed,
# all of kinds whose exit code is settled.
CLI_SMALL = [
    ("validate", 2, 2, "chain3", None), ("validate", 3, 3, "square", None),
    ("validate", 4, 4, "chain4", None), ("validate", 2, 2, None, None),
    ("validate", 3, 3, None, "seed"), ("validate", 4, 4, None, None),
    ("sms", 2, 3, None, None), ("sms", 3, 3, None, None), ("sms", 4, 4, None, None),
    ("sms", 2, 2, "square", None), ("sms", 3, 3, "chain3", None),
    ("compose", 2, 3, None, None), ("compose", 3, 4, None, None),
    ("compose", 2, 2, "chain3", "lukasiewicz"), ("compose", 3, 3, "square", "meet"),
    ("join", 3, 3, "chain3", None), ("meet", 3, 3, "square", None),
    ("cut", 3, 3, "chain4", None), ("capacity", 4, 4, "square", None),
    ("unavoidable", 3, 3, None, None), ("unavoidable", 4, 3, None, None),
    ("encode", 2, 2, "square", None), ("encode", 2, 3, "chain3", None),
    ("gen", 3, 3, "chain3", "random-fuzzy"), ("gen", 3, 4, None, "random"),
    ("invalid", 3, 3, None, None), ("invalid", 4, 4, None, None),
    ("invalid", 2, 2, "chain3", None), ("invalid", 3, 3, "square", None),
    ("malformed", 3, 3, None, "bad-json"), ("malformed", 3, 3, None, "missing-key"),
    ("malformed", 3, 3, None, "bad-label"),
]
CLI_LARGE = [
    ("validate", 5, 5, "chain8", None), ("validate", 6, 6, "chain16", None),
    ("validate", 5, 5, None, "seed"), ("validate", 6, 6, None, None),
    ("sms", 4, 6, None, None), ("sms", 4, 4, "chain8", None),
    ("compose", 5, 5, None, None), ("compose", 6, 4, None, None),
    ("join", 5, 5, "chain8", None), ("join", 6, 6, "chain16", None),
    ("meet", 5, 5, "chain8", None), ("cut", 6, 6, "chain16", None),
    ("capacity", 6, 6, "chain16", None), ("unavoidable", 6, 6, None, None),
    ("encode", 3, 3, "square", None), ("encode", 3, 2, "chain4", None),
    ("gen", 5, 5, "chain8", "random-fuzzy"), ("gen", 5, 0, "chain4", "metric"),
    ("invalid", 6, 6, None, None), ("invalid", 5, 5, "chain16", None),
]


def build_cli(seed: int, size: str, lats: dict, workdir: str) -> Deck:
    rng = random.Random(seed)
    files = _Files(workdir)
    items: list[Item] = []

    def graded(n_src, n_tgt, lat_name, src="x", tgt="y"):
        X, Y, lat = space(src, n_src), space(tgt, n_tgt), lats[lat_name]
        return graded_doc(X, Y, lat, grade_table(rng, n_src, n_tgt, lat, rng.uniform(0.1, 0.6)))

    def crisp_rep(n_src, n_tgt, src="x", tgt="y"):
        X, Y = space(src, n_src), space(tgt, n_tgt)
        return crisp_doc(X, Y, crisp_rows(rng, n_src, n_tgt, rng.uniform(0.02, 0.2)))

    def rep(n_src, n_tgt, lat_name, src="x", tgt="y"):
        if lat_name is None:
            return files.write(crisp_rep(n_src, n_tgt, src, tgt))
        return files.write(graded(n_src, n_tgt, lat_name, src, tgt))

    def item(cls, verb, n, m, lat_name, extra) -> Item:
        expected = 0
        if verb == "validate":
            doc = crisp_rep(n, m) if lat_name is None else graded(n, m, lat_name)
            if extra == "seed":
                doc["seed"] = True
            argv = ["validate", "--rep", files.write(doc)]
        elif verb in ("sms", "encode"):
            argv = [verb, "--rep", rep(n, m, lat_name)]
        elif verb == "compose":
            argv = ["compose", "--rep", rep(n, m, lat_name), "--rep2", rep(m, n, lat_name, "y", "z")]
            if extra:
                argv += ["--tnorm", extra]
        elif verb in ("join", "meet"):
            argv = [verb, "--rep", rep(n, m, lat_name), "--rep2", rep(n, m, lat_name)]
        elif verb == "cut":
            lat = lats[lat_name]
            argv = ["cut", "--rep", rep(n, m, lat_name), "--alpha", lat.elements[rng.randrange(lat.size)]]
        elif verb in ("capacity", "unavoidable"):
            chosen = rng.sample(space("x", n).points, rng.randrange(1, n + 1))
            argv = [verb, "--rep", rep(n, m, lat_name), "--set", ",".join(chosen)]
        elif verb == "gen":
            argv = ["gen", "--kind", extra, "--seed", str(rng.randrange(1 << 20))]
            argv += ["--sizes", f"{n},{m}" if m else str(n)]
            if lat_name in ("chain2", "chain3", "chain4", "square"):
                argv += ["--lattice", lat_name]
            elif lat_name:  # other lattices travel as a lattice file
                argv += ["--lattice", files.write(lattice_doc(lats[lat_name]))]
            if extra != "metric":
                argv += ["--density", "0.3"]
        elif verb == "invalid":
            # a valid payload with one axiom broken: the full target dropped
            # from the full source set, or graded below top
            X, Y = space("x", n), space("y", m)
            if lat_name is None:
                doc = crisp_rep(n, m)
                doc["pairs"] = [p for p in doc["pairs"] if p != [list(X.points), list(Y.points)]]
                argv = ["validate", "--rep", files.write(doc)]
            else:
                doc = graded(n, m, lat_name)
                doc["grades"].append([list(X.points), list(Y.points), lats[lat_name].elements[0]])
                argv = ["sms", "--rep", files.write(doc)]
            expected = 1
        else:  # malformed: broken JSON, a missing key, an unknown point
            doc = crisp_rep(n, m)
            if extra == "bad-json":
                text = json.dumps(doc)
                argv = ["validate", "--rep", files.write(text[: len(text) // 2])]
            elif extra == "missing-key":
                del doc["pairs"]
                argv = ["join", "--rep", files.write(doc), "--rep2", rep(n, m, None)]
            else:
                doc["pairs"][0][1] = ["nowhere"]
                argv = ["sms", "--rep", files.write(doc)]
            expected = 3
        key = (verb, n, m, lat_name, extra)
        return Item(cls, key, lambda: run_cli(argv), _cli_check(argv[0], expected),
                    lambda: run_cli(argv))

    tiers = [("small", CLI_SMALL), ("large", CLI_LARGE)]
    if size == "tiny":
        tiers = [(cls, [s for s in specs if max(s[1], s[2]) <= 3 and s[3] in (None, "chain3", "square")])
                 for cls, specs in tiers]
    for _ in range(2):
        for cls, specs in tiers:
            items.extend(item(cls, *spec) for spec in specs)
    rng.shuffle(items)
    return Deck(items)


def build(workload: str, seed: int, size: str, workdir: str) -> Deck:
    lats = lattices()
    if workload == "encode":
        return build_encode(seed, size, lats)
    if workload == "small":
        return build_small(seed, size, lats)
    if workload == "graded":
        return build_graded(seed, size, lats)
    if workload == "cli":
        return build_cli(seed, size, lats, workdir)
    raise ValueError(f"unknown workload {workload!r}")
