import random
from fractions import Fraction
from itertools import product

import pytest

from ambrel import crisp, fuzzy, io, oracle
from ambrel.capacity import LCapacity, validate_capacity
from ambrel.catalog import all_distributive_lattices, boolean_square, chain, lukasiewicz
from ambrel.errors import ValidationError
from ambrel.generators import (
    GridWindow,
    line_metric,
    metric_rep,
    metric_table,
    projection_rep,
    random_capacity,
    random_fuzzy_rep,
    random_rep,
    translation_rep,
)
from ambrel.hyperspace import space
from ambrel.lattice import validate_lattice, validate_tnorm


def top_first(lat):
    """The same chain with its elements listed from the top down."""
    return validate_lattice(lat.elements[::-1], lat.leq[::-1, ::-1].tolist())


CHAINS = [chain(k) for k in (2, 3, 4, 8, 16)]
CHAINS += [top_first(lat) for lat in CHAINS]
# every grid window of at most six outer cells, and those a shift can cross
ALL_WINDOWS = [
    GridWindow(ow, oh, iw, ih, ix, iy)
    for ow, oh in product(range(1, 7), repeat=2)
    if ow * oh <= 6
    for iw, ih in product(range(1, ow + 1), range(1, oh + 1))
    for ix, iy in product(range(ow - iw + 1), range(oh - ih + 1))
]
WINDOWS = [g for g in ALL_WINDOWS if g.reach >= 1]


def test_metric_table_validation():
    with pytest.raises(ValidationError):
        metric_table(["p", "q"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValidationError):
        metric_table(["p", "q", "r"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle


def test_metric_rep_extremes():
    m = line_metric(3)
    lat = chain(4)
    rep = metric_rep(m, lat)
    sp = rep.source
    # containment always grades top
    for a in sp.subsets():
        for b in sp.subsets():
            if a & b == a:
                assert rep.grade(a, b) == lat.top
    # two points a full diameter apart grade bottom
    p0, p2 = sp.subset(["p0"]), sp.subset(["p2"])
    assert rep.grade(p0, p2) == lat.bottom
    assert rep.grade(p2, p0) == lat.bottom


def shortest_path_metric(n: int, seed: int):
    """The shortest-path metric of a seeded graph with rational edge
    lengths: a path through all points plus random chords."""
    rng = random.Random(seed)
    inf = Fraction(10**9)
    d = [[Fraction(0) if i == j else inf for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.4]
    for i, j in edges:
        d[i][j] = d[j][i] = min(d[i][j], Fraction(rng.randint(1, 12), rng.randint(1, 5)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return metric_table([f"s{i}" for i in range(n)], d)


def test_metric_rep_matches_loop_twin():
    metrics = [line_metric(n) for n in range(1, 7)]
    metrics += [shortest_path_metric(n, seed) for n in range(2, 6) for seed in range(3)]
    metrics.append(shortest_path_metric(6, 3))
    lattices = [chain(2), chain(3), chain(4), chain(8)]
    for lat in lattices + [top_first(lat) for lat in lattices]:
        for m in metrics:
            assert metric_rep(m, lat) == oracle.metric_rep_loops(m, lat)


def test_metric_rep_needs_chain(square):
    with pytest.raises(ValidationError) as err:
        metric_rep(line_metric(3), square)
    assert err.value.code == "NotAChain"


def test_metric_rep_relabeling_invariance():
    m1 = line_metric(3)
    perm = [2, 0, 1]  # relabel points by a permutation
    pts = tuple(f"q{i}" for i in range(3))
    dist = [[m1.dist[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
    m2 = metric_table(pts, dist)
    lat = chain(4)
    r1, r2 = metric_rep(m1, lat), metric_rep(m2, lat)
    for a in r1.source.subsets():
        for b in r1.source.subsets():
            a2 = sum(1 << perm.index(i) for i in range(3) if a >> i & 1)
            b2 = sum(1 << perm.index(i) for i in range(3) if b >> i & 1)
            assert r1.grade(a, b) == r2.grade(a2, b2)


def test_translation_rep_values():
    # a 3x1 strip with a single-cell inner window
    g = GridWindow(3, 1, 1, 1)
    rep = translation_rep(g)
    lat = rep.lattice
    inner, outer = rep.source, rep.target
    a = inner.subset(["c0r0"])
    assert rep.grade(a, outer.subset(["c0r0"])) == lat.top  # zero shift
    assert rep.grade(a, outer.subset(["c1r0"])) == lat.top - 1  # one-cell shift, reach 2
    assert rep.grade(a, outer.full) == lat.top


def test_translation_rep_matches_loop_twin():
    assert len(WINDOWS) == 155
    for g in WINDOWS:
        for grades in (None, top_first(chain(g.reach + 1))):
            assert translation_rep(g, grades) == oracle.translation_rep_loops(g, grades)


def test_translation_rep_no_embedding_is_bottom():
    g = GridWindow(3, 1, 2, 1)
    rep = translation_rep(g)
    a = rep.source.full  # both inner cells
    b = rep.target.subset(["c0r0"])  # no two-cell set fits in one cell
    assert rep.grade(a, b) == rep.lattice.bottom


def test_projection_rep_is_valid_and_columnwise():
    g = GridWindow(2, 2, 2, 2)
    rep = projection_rep(g)
    crisp.validate_rows(rep.source, rep.target, rep.rows)
    sp = rep.source
    a = sp.subset(["c0r0"])
    b = sp.subset(["c0r1"])
    assert rep.contains(a, b)  # same column
    assert not rep.contains(a, sp.subset(["c1r0"]))


def test_projection_shade_formula_small_grids():
    windows = [
        GridWindow(1, 1, 1, 1),
        GridWindow(2, 1, 1, 1),
        GridWindow(2, 1, 2, 1),
        GridWindow(1, 2, 1, 2),
        GridWindow(2, 2, 1, 1),
        GridWindow(2, 2, 2, 1),
        GridWindow(2, 2, 2, 2),
        GridWindow(2, 2, 1, 2, 1, 0),
    ]
    for g in windows:
        rep = projection_rep(g)
        inv = crisp.sms(rep)
        inner, outer = rep.source, rep.target
        in_cols = [x for x, _ in g.inner_cells()]
        out_cols = [x for x, _ in g.outer_cells()]
        for bt in outer.subsets():
            shade = {
                c for i, c in enumerate(out_cols) if not bt >> i & 1
            }
            for at in inner.subsets():
                uncovered = {c for i, c in enumerate(in_cols) if not at >> i & 1}
                assert inv.contains(bt, at) == (uncovered <= shade)


def test_random_rep_extremes_and_determinism(x3, y3):
    assert random_rep(x3, y3, 0, 0.0) == crisp.bot(x3, y3)
    assert random_rep(x3, y3, 0, 1.0) == crisp.top(x3, y3)
    a = io.dumps(io.crisp_rep_payload(random_rep(x3, y3, 42, 0.4)))
    b = io.dumps(io.crisp_rep_payload(random_rep(x3, y3, 42, 0.4)))
    assert a == b
    assert random_rep(x3, y3, 42, 0.4) != random_rep(x3, y3, 43, 0.4)


def test_random_fuzzy_extremes_and_validity(x2, y2, square):
    assert random_fuzzy_rep(x2, y2, square, 0, 0.0) == fuzzy.bot(x2, y2, square)
    assert random_fuzzy_rep(x2, y2, square, 0, 1.0) == fuzzy.top(x2, y2, square)
    for seed in range(25):
        rep = random_fuzzy_rep(x2, y2, square, seed, 0.5)
        assert fuzzy.validate(x2, y2, square, rep.grades) == rep


def test_random_fuzzy_rep_matches_the_loop_repair():
    # every size pair up to 3x3 over every distributive lattice of at most
    # 6 elements, densities 0 and 1 included
    lattices = list(all_distributive_lattices(6))
    for n_src, n_tgt in product(range(1, 4), repeat=2):
        X = space(*(f"x{i}" for i in range(1, n_src + 1)))
        Y = space(*(f"y{i}" for i in range(1, n_tgt + 1)))
        for lat, seed, density in product(lattices, range(3), (0.0, 0.2, 0.5, 0.9, 1.0)):
            want = oracle.random_fuzzy_rep_loops(X, Y, lat, seed, density)
            assert random_fuzzy_rep(X, Y, lat, seed, density) == want, (n_src, n_tgt, lat, seed)
    # spot checks at six points over the largest chain and the square
    X, Y = space(*"abcdef"), space(*"uvwxyz")
    for lat, seed in product((chain(16), boolean_square()), range(2)):
        for target in (Y, space(*"uvwx")):
            want = oracle.random_fuzzy_rep_loops(X, target, lat, seed, 0.35)
            assert random_fuzzy_rep(X, target, lat, seed, 0.35) == want, (lat, seed)


def test_random_capacity_validates(y3, chain3):
    for seed in range(25):
        cap = random_capacity(y3, chain3, seed)
        assert cap(0) == chain3.bottom and cap(y3.full) == chain3.top


def test_grid_window_validation():
    with pytest.raises(ValidationError):
        GridWindow(2, 2, 3, 1)  # inner wider than outer
    with pytest.raises(ValidationError):
        GridWindow(0, 2, 1, 1)
    with pytest.raises(ValidationError):
        GridWindow(4, 2, 1, 1)  # more than six cells


# -- the builders construct valid objects ---------------------------------------

SPACES = [space(*(f"p{i}" for i in range(n))) for n in (1, 2, 3)]
DENSITIES = (0.0, 0.3, 1.0)


def _union_pairs():
    for x, y in product(SPACES, SPACES[1:]):
        yield from fuzzy.union_counterexample(x, y, boolean_square())[:2]


BUILDS = {
    "random_fuzzy_rep": lambda: (
        random_fuzzy_rep(x, y, lat, seed, density)
        for x, y in product(SPACES, repeat=2)
        for lat in CHAINS + [boolean_square()]
        for seed, density in product(range(3), DENSITIES)
    ),
    "random_capacity": lambda: (
        random_capacity(x, lat, seed, density)
        for x in SPACES
        for lat in CHAINS + [boolean_square()]
        for seed, density in product(range(3), DENSITIES)
    ),
    "metric_rep": lambda: (
        metric_rep(m, lat)
        for m in [line_metric(n) for n in range(1, 7)]
        + [shortest_path_metric(n, seed) for n in range(2, 6) for seed in range(3)]
        for lat in CHAINS
    ),
    "translation_rep": lambda: (
        translation_rep(g, grades)
        for g in WINDOWS
        for grades in (None, top_first(chain(g.reach + 1)))
    ),
    "projection_rep": lambda: map(projection_rep, ALL_WINDOWS),
    "union_counterexample": _union_pairs,
    "lukasiewicz": lambda: map(lukasiewicz, [chain(1)] + CHAINS),
}


def _revalidated(out):
    """``out`` rebuilt from its raw data by the public validator."""
    if isinstance(out, fuzzy.LFuzzyAmbRep):
        return fuzzy.validate(out.source, out.target, out.lattice, out.grades)
    if isinstance(out, LCapacity):
        return validate_capacity(out.space, out.lattice, out.values)
    if isinstance(out, crisp.CrispAmbRep):
        return crisp.validate_rows(out.source, out.target, out.rows)
    return validate_tnorm(out.lattice, out.table, out.name)


@pytest.mark.parametrize("builder", sorted(BUILDS))
def test_builders_return_valid_objects(builder):
    outputs = list(BUILDS[builder]())
    assert outputs
    for out in outputs:
        assert _revalidated(out) == out
