import random

import numpy as np
import pytest

from ambrel import crisp, fuzzy, oracle
from ambrel.catalog import boolean_square, chain, lukasiewicz
from ambrel.crisp import CrispAmbRep
from ambrel.errors import LatticeIsChain, SpaceMismatch, ValidationError
from ambrel.generators import random_fuzzy_rep, random_rep
from ambrel.hyperspace import space
from ambrel.lattice import meet_tnorm, validate_tnorm

# the six lattices of the benchmark, and source x target sizes of 1-4 points
TWIN_LATTICES = (chain(2), chain(3), chain(4), chain(8), chain(16), boolean_square())
TWIN_SHAPES = ((1, 1), (1, 3), (2, 2), (3, 1), (2, 4), (3, 3), (4, 2), (4, 4))


def outcome(fn, *args):
    """The result, or the code, witness and message of the ValidationError."""
    try:
        return fn(*args)
    except ValidationError as err:
        return err.code, err.witness, str(err)


def test_canonical_reps_validate(x2, y2, chain3):
    for rep in (
        fuzzy.top(x2, y2, chain3),
        fuzzy.bot(x2, y2, chain3),
        fuzzy.identity(x2, chain3),
    ):
        assert fuzzy.validate(rep.source, rep.target, rep.lattice, rep.grades) == rep


def test_validate_error_codes(x2, y2, y3, chain3):
    g = fuzzy.top(x2, y2, chain3).grades.copy()
    g[0, y2.full - 1] = 0
    with pytest.raises(ValidationError) as err:
        fuzzy.validate(x2, y2, chain3, g)
    assert err.value.code == "FullTargetNotTop"

    g2 = fuzzy.bot(x2, y2, chain3).grades.copy()
    g2[x2.full - 1, 0] = 2  # bigger source set graded above smaller one
    with pytest.raises(ValidationError) as err:
        fuzzy.validate(x2, y2, chain3, g2)
    assert err.value.code == "NotAntitoneInA"

    g3 = fuzzy.bot(x2, y3, chain3).grades.copy()
    g3[0, y3.subset(["y1"]) - 1] = 2
    g3[0, y3.subset(["y1", "y2"]) - 1] = 0  # superset graded below its subset
    with pytest.raises(ValidationError) as err:
        fuzzy.validate(x2, y3, chain3, g3)
    assert err.value.code == "NotIsotoneInB"


def test_alpha_cut_examples(x2, y2, chain3):
    rf = random_fuzzy_rep(x2, y2, chain3, 5, 0.5)
    assert fuzzy.alpha_cut(rf, chain3.bottom) == crisp.top(x2, y2)
    ident = fuzzy.identity(x2, chain3)
    assert fuzzy.alpha_cut(ident, chain3.index("m")) == crisp.identity(x2)
    assert fuzzy.alpha_cut(fuzzy.bot(x2, y2, chain3), chain3.top) == crisp.bot(x2, y2)


def test_cuts_are_valid_and_nested(x3, y2, square):
    rf = random_fuzzy_rep(x3, y2, square, 7, 0.6)
    cut_map = fuzzy.cuts(rf)
    for alpha, cut in cut_map.items():
        crisp.validate_rows(cut.source, cut.target, cut.rows)
        for beta in range(square.size):
            if square.le(beta, alpha):
                assert cut <= cut_map[beta]


def test_from_cuts_roundtrip(x2, y2, square):
    for seed in range(20):
        rf = random_fuzzy_rep(x2, y2, square, seed, 0.5)
        assert fuzzy.from_cuts(x2, y2, square, fuzzy.cuts(rf)) == rf


def test_from_cuts_rejects_sup_incompatible(x2, y2, square):
    a, b = square.index("a"), square.index("b")
    family = {
        square.bottom: crisp.top(x2, y2),
        a: crisp.top(x2, y2),
        b: crisp.top(x2, y2),
        square.top: crisp.bot(x2, y2),  # join of a,b is top: cut at top must stay full
    }
    with pytest.raises(ValidationError) as err:
        fuzzy.from_cuts(x2, y2, square, family)
    assert err.value.code == "CutFamilyInconsistent"


def test_compose_identity_and_bot(x2, y2, z2, chain3):
    luk = lukasiewicz(chain3)
    for tn in (meet_tnorm(chain3), luk):
        for seed in range(10):
            rf = random_fuzzy_rep(x2, y2, chain3, seed, 0.4)
            assert fuzzy.compose(fuzzy.identity(x2, chain3), rf, tn) == rf
            assert fuzzy.compose(rf, fuzzy.identity(y2, chain3), tn) == rf
            assert fuzzy.compose(rf, fuzzy.bot(y2, z2, chain3), tn) == fuzzy.bot(x2, z2, chain3)


def test_compose_flat_middle_grade(x2, y2, z2, chain3):
    # constant mid-grade tables compose to the mid grade except on the
    # forced full-target column
    m, one = chain3.index("m"), chain3.top
    g1 = np.full((x2.full, y2.full), m, dtype=np.intp)
    g1[:, y2.full - 1] = one
    g2 = np.full((y2.full, z2.full), m, dtype=np.intp)
    g2[:, z2.full - 1] = one
    rf = fuzzy.validate(x2, y2, chain3, g1)
    sf = fuzzy.validate(y2, z2, chain3, g2)
    out = fuzzy.compose(rf, sf)
    want = np.full((x2.full, z2.full), m, dtype=np.intp)
    want[:, z2.full - 1] = one
    assert np.array_equal(out.grades, want)


def test_compose_associative_both_tnorms(x2, y2, z2, chain3):
    luk = lukasiewicz(chain3)
    for tn in (meet_tnorm(chain3), luk):
        for seed in range(25):
            r = random_fuzzy_rep(x2, y2, chain3, seed, 0.4)
            s = random_fuzzy_rep(y2, z2, chain3, 100 + seed, 0.5)
            t = random_fuzzy_rep(z2, x2, chain3, 200 + seed, 0.6)
            assert fuzzy.compose(fuzzy.compose(r, s, tn), t, tn) == fuzzy.compose(
                r, fuzzy.compose(s, t, tn), tn
            )


def test_sms_identity_and_top(x2, y2, chain3, square):
    for lat in (chain3, square):
        ident = fuzzy.identity(x2, lat)
        assert fuzzy.sms(ident) == ident
        tl = fuzzy.top(x2, y2, lat)
        out = fuzzy.sms(tl)
        # every positive cut of the inverse is the crisp inverse of the top
        want = crisp.sms(crisp.top(x2, y2))
        for alpha in range(lat.size):
            if alpha != lat.bottom:
                assert fuzzy.alpha_cut(out, alpha) == want


def test_sms_embedding_coherence(x2, y2, chain3, square):
    for lat in (chain3, square):
        for seed in range(25):
            R = random_rep(x2, y2, seed, (seed % 7) / 7)
            assert fuzzy.sms(fuzzy.embed_crisp(R, lat)) == fuzzy.embed_crisp(crisp.sms(R), lat)


def test_embedding_cut_roundtrip(x2, y2, chain3, square):
    for lat in (chain3, square):
        for seed in range(15):
            R = random_rep(x2, y2, seed, 0.4)
            assert fuzzy.alpha_cut(fuzzy.embed_crisp(R, lat), lat.top) == R
            assert fuzzy.embed_crisp(crisp.top(x2, y2), lat) == fuzzy.top(x2, y2, lat)


def test_double_sms_is_full_row_collapse(x2, y2, chain3, square):
    for lat in (chain3, square):
        for seed in range(30):
            rf = random_fuzzy_rep(x2, y2, lat, seed, 0.5)
            g = rf.grades.copy()
            g[x2.full - 1, : y2.full - 1] = lat.bottom
            collapsed = fuzzy.validate(x2, y2, lat, g)
            assert fuzzy.sms(fuzzy.sms(rf)) == collapsed
            assert fuzzy.is_pseudo_invertible(rf) == (rf == collapsed)


def test_sms_output_validates(x3, y2, square):
    for seed in range(15):
        rf = random_fuzzy_rep(x3, y2, square, seed, 0.6)
        out = fuzzy.sms(rf)
        assert fuzzy.validate(out.source, out.target, out.lattice, out.grades) == out


def test_join_meet_bounds(x2, y2, chain3):
    rf = random_fuzzy_rep(x2, y2, chain3, 9, 0.5)
    assert fuzzy.join(rf, fuzzy.bot(x2, y2, chain3)) == rf
    assert fuzzy.meet(rf, fuzzy.top(x2, y2, chain3)) == rf


def test_sms_lattice_laws(x2, y2, chain3, square):
    for lat in (chain3, square):
        for seed in range(40):
            r = random_fuzzy_rep(x2, y2, lat, seed, 0.4)
            s = random_fuzzy_rep(x2, y2, lat, 500 + seed, 0.6)
            assert fuzzy.sms(fuzzy.join(r, s)) == fuzzy.join(fuzzy.sms(r), fuzzy.sms(s))
            assert fuzzy.sms(fuzzy.meet(r, s)) == fuzzy.meet(fuzzy.sms(r), fuzzy.sms(s))


def test_family_folds(x2, y2, square):
    reps = [random_fuzzy_rep(x2, y2, square, s, 0.5) for s in range(4)]
    sup = fuzzy.sup_family(reps)
    inf = fuzzy.inf_family(reps)
    for r in reps:
        assert fuzzy.join(sup, r) == sup
        assert fuzzy.meet(inf, r) == inf
    assert fuzzy.sup_family([reps[0]]) == reps[0]
    assert fuzzy.sup_family([reps[0], fuzzy.bot(x2, y2, square)]) == reps[0]


def test_union_counterexample_square(x2, y2, square):
    rf, sf, witness = fuzzy.union_counterexample(x2, y2, square)
    for rep in (rf, sf):
        assert fuzzy.validate(x2, y2, square, rep.grades) == rep
    union = rf.subgraph() | sf.subgraph()
    closed, missing = fuzzy.subgraph_is_join_closed(x2, y2, square, union)
    assert not closed and missing is not None
    assert witness["grades"] == ["a", "b"] and witness["missing_grade"] == "1"
    # the pointwise lattice join, unlike the subgraph union, stays valid
    joined = fuzzy.join(rf, sf)
    assert fuzzy.validate(x2, y2, square, joined.grades) == joined
    closed, _ = fuzzy.subgraph_is_join_closed(x2, y2, square, joined.subgraph())
    assert closed


def test_union_counterexample_needs_incomparables(x2, y2, chain3):
    with pytest.raises(LatticeIsChain):
        fuzzy.union_counterexample(x2, y2, chain3)


def test_lattice_mismatch(x2, y2, chain3, square):
    r = random_fuzzy_rep(x2, y2, chain3, 1, 0.5)
    s = random_fuzzy_rep(x2, y2, square, 1, 0.5)
    with pytest.raises(SpaceMismatch):
        fuzzy.join(r, s)


def _perturbed_family(rng, rep):
    family = fuzzy.cuts(rep)
    keys = list(family)
    rng.shuffle(keys)  # witnesses follow the family's own order
    family = {alpha: family[alpha] for alpha in keys}
    mode = rng.randrange(4)
    alpha = rng.choice(keys)
    if mode == 0:  # one pair added to or dropped from one cut
        rows = list(family[alpha].rows)
        a = rng.randrange(rep.source.full)
        rows[a] ^= 1 << rng.randrange(rep.target.full)
        family[alpha] = CrispAmbRep(rep.source, rep.target, tuple(rows))
    elif mode == 1:  # one cut replaced by another
        family[alpha] = family[rng.choice(keys)]
    elif mode == 2 and len(keys) > 1:  # one index missing
        del family[alpha]
    return family


def test_graded_kernels_match_oracle_twins():
    codes = set()
    for lat in TWIN_LATTICES:
        for n_src, n_tgt in TWIN_SHAPES:
            X = space(*(f"x{i}" for i in range(1, n_src + 1)))
            Y = space(*(f"y{i}" for i in range(1, n_tgt + 1)))
            for seed in range(8):
                rng = random.Random(f"{lat.size}-{n_src}-{n_tgt}-{seed}")
                rep = random_fuzzy_rep(X, Y, lat, seed, rng.choice((0.2, 0.4, 0.7)))
                inv = fuzzy.sms(rep)
                assert inv == oracle.fuzzy_sms_intersection(rep)
                for alpha in range(lat.size):
                    if alpha != lat.bottom:
                        want = crisp.sms(fuzzy.alpha_cut(rep, alpha))
                        assert fuzzy.alpha_cut(inv, alpha) == want
                g = rep.grades.copy()
                for _ in range(rng.randint(1, 3)):
                    g[rng.randrange(X.full), rng.randrange(Y.full)] = rng.randrange(lat.size)
                raw = fuzzy.LFuzzyAmbRep(X, Y, lat, g)
                for alpha in range(lat.size):
                    assert fuzzy.alpha_cut(raw, alpha) == oracle.alpha_cut_per_pair(raw, alpha)
                got = outcome(fuzzy.validate, X, Y, lat, g)
                assert got == outcome(oracle.fuzzy_validate_loops, X, Y, lat, g)
                family = _perturbed_family(rng, rep)
                got_cuts = outcome(fuzzy.from_cuts, X, Y, lat, family)
                assert got_cuts == outcome(oracle.from_cuts_per_pair, X, Y, lat, family)
                wild = g.copy()  # numpy would wrap a negative index silently
                for _ in range(rng.randint(1, 2)):
                    wild[rng.randrange(X.full), rng.randrange(Y.full)] = rng.choice((-1, lat.size))
                got_wild = outcome(fuzzy.validate, X, Y, lat, wild)
                assert got_wild == outcome(oracle.fuzzy_validate_loops, X, Y, lat, wild)
                codes.update(out[0] for out in (got, got_cuts, got_wild) if isinstance(out, tuple))
    assert codes == {
        "BadGradeTable", "FullTargetNotTop", "NotIsotoneInB", "NotAntitoneInA",
        "CutFamilyInconsistent",
    }


# the graded item shapes of the benchmark and the lattices they run over
BENCH_SHAPES = ((5, 3), (6, 4), (6, 6))
BENCH_LATTICES = (chain(3), boolean_square(), chain(16))


def test_graded_checks_match_oracle_twins_at_bench_sizes():
    # the step order and the flat indices of the kernels depend on the size
    codes = set()
    for lat in BENCH_LATTICES:
        for n_src, n_tgt in BENCH_SHAPES:
            X = space(*(f"x{i}" for i in range(1, n_src + 1)))
            Y = space(*(f"y{i}" for i in range(1, n_tgt + 1)))
            for seed in range(8):
                rng = random.Random(f"bench-{lat.size}-{n_src}-{n_tgt}-{seed}")
                rep = random_fuzzy_rep(X, Y, lat, seed, rng.choice((0.2, 0.35, 0.7)))
                assert fuzzy.validate(X, Y, lat, rep.grades) == rep
                for alpha in range(lat.size):
                    assert fuzzy.alpha_cut(rep, alpha) == oracle.alpha_cut_per_pair(rep, alpha)
                g = rep.grades.copy()
                for _ in range(rng.randint(1, 3)):
                    g[rng.randrange(X.full), rng.randrange(Y.full)] = rng.randrange(lat.size)
                got = outcome(fuzzy.validate, X, Y, lat, g)
                assert got == outcome(oracle.fuzzy_validate_loops, X, Y, lat, g)
                wild = g.copy()
                for _ in range(rng.randint(1, 2)):
                    wild[rng.randrange(X.full), rng.randrange(Y.full)] = rng.choice((-1, lat.size))
                got_wild = outcome(fuzzy.validate, X, Y, lat, wild)
                assert got_wild == outcome(oracle.fuzzy_validate_loops, X, Y, lat, wild)
                family = _perturbed_family(rng, rep)
                got_cuts = outcome(fuzzy.from_cuts, X, Y, lat, family)
                assert got_cuts == outcome(oracle.from_cuts_per_pair, X, Y, lat, family)
                codes.update(out[0] for out in (got, got_wild, got_cuts) if isinstance(out, tuple))
    assert codes == {
        "BadGradeTable", "FullTargetNotTop", "NotIsotoneInB", "NotAntitoneInA",
        "CutFamilyInconsistent",
    }


# (source, middle, target) points for the compose twins, mixed sizes included
COMPOSE_SHAPES = (
    (1, 1, 1), (1, 2, 3), (3, 2, 1), (2, 2, 2), (2, 4, 1), (4, 1, 3), (3, 3, 3), (4, 3, 4),
    (5, 3, 4),
)


def drastic(lat):
    """The drastic t-norm: x * top = x, top * y = y, bottom otherwise.

    ``validate_tnorm`` accepts it on chains; on the Boolean square it
    fails join-distributivity."""
    n = lat.size
    table = [
        [y if x == lat.top else x if y == lat.top else lat.bottom for y in range(n)]
        for x in range(n)
    ]
    return validate_tnorm(lat, table, "drastic")


def test_drastic_tnorm_fails_distributivity_on_the_square():
    with pytest.raises(ValidationError) as err:
        drastic(boolean_square())
    assert err.value.code == "NotJoinDistributive"


def test_compose_matches_oracle_twin():
    for lat in TWIN_LATTICES:
        tnorms = [meet_tnorm(lat)]
        if lat.is_chain():
            tnorms += [lukasiewicz(lat), drastic(lat)]
        for shape in COMPOSE_SHAPES:
            X, Y, Z = (space(*(f"{p}{i}" for i in range(1, n + 1))) for p, n in zip("xyz", shape))
            seed = sum(shape) + lat.size
            r = random_fuzzy_rep(X, Y, lat, seed, (0.3, 0.6)[seed % 2])
            s = random_fuzzy_rep(Y, Z, lat, 50 + seed, (0.6, 0.3)[seed % 2])
            for tn in tnorms:
                assert fuzzy.compose(r, s, tn) == oracle.compose_subgraph(r, s, tn)


def _points(prefix, n):
    return space(*(f"{prefix}{i}" for i in range(1, n + 1)))


def test_small_table_formulas_match_the_twins_on_both_sides_of_their_thresholds():
    # below its threshold a kernel gathers one small table; both paths
    # must give the oracles' cuts and compositions
    cut_sides, compose_sides = set(), set()
    for lat in (chain(2), chain(3), boolean_square(), chain(8), chain(16)):
        for n_src, n_tgt in ((2, 2), (3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (5, 4)):
            X, Y = _points("x", n_src), _points("y", n_tgt)
            rep = random_fuzzy_rep(X, Y, lat, n_src * n_tgt, 0.4)
            cut_sides.add(lat.size * X.full * Y.full < fuzzy.CUT_KERNEL_MIN_CELLS)
            for alpha in range(lat.size):
                assert fuzzy.alpha_cut(rep, alpha) == oracle.alpha_cut_per_pair(rep, alpha)
    assert cut_sides == {True, False}
    assert 16 * 15 * 15 == fuzzy.CUT_KERNEL_MIN_CELLS  # 4x4 over chain16: the kernel
    for lat in (chain(3), boolean_square(), chain(16)):
        tnorms = [meet_tnorm(lat)] + ([lukasiewicz(lat)] if lat.is_chain() else [])
        for shape in ((2, 2, 2), (3, 3, 3), (1, 6, 1), (2, 4, 4), (3, 3, 4), (4, 3, 3), (2, 2, 6)):
            X, Y, Z = (_points(p, n) for p, n in zip("xyz", shape))
            r = random_fuzzy_rep(X, Y, lat, sum(shape), 0.4)
            s = random_fuzzy_rep(Y, Z, lat, 7 + sum(shape), 0.5)
            compose_sides.add(X.full * Y.full * Z.full < fuzzy.COMPOSE_KERNEL_MIN_CELLS)
            for tn in tnorms:
                assert fuzzy.compose(r, s, tn) == oracle.compose_subgraph(r, s, tn), (shape, lat)
    assert compose_sides == {True, False}


def test_from_cuts_rejects_a_self_reproducing_invalid_family():
    X, Y = space("x1", "x2"), space("y1", "y2")
    lat = chain(3)
    family = fuzzy.cuts(fuzzy.top(X, Y, lat))
    rows = list(family[lat.top].rows)
    rows[0] &= ~(1 << (Y.full - 1))  # the top cut no longer holds ({x1}, Y)
    family[lat.top] = CrispAmbRep(X, Y, tuple(rows))
    got = outcome(fuzzy.from_cuts, X, Y, lat, family)
    assert got == outcome(oracle.from_cuts_per_pair, X, Y, lat, family)
    assert got[:2] == ("FullTargetNotTop", [["x1"]])


def test_six_point_cut_roundtrip_uses_bit_62():
    X = space(*"abcdef")
    Y = space(*"uvwxyz")
    lat = chain(3)
    rep = random_fuzzy_rep(X, Y, lat, 3, 0.35)
    family = fuzzy.cuts(rep)
    # the whole target is subset mask 63, bit 62, and lies in every cut
    assert all(row >> 62 == 1 for cut in family.values() for row in cut.rows)
    assert family == {alpha: oracle.alpha_cut_per_pair(rep, alpha) for alpha in range(lat.size)}
    assert fuzzy.from_cuts(X, Y, lat, family) == rep
    m = lat.index("m")
    rows = list(family[m].rows)
    rows[5] ^= 1 << 62
    family[m] = CrispAmbRep(X, Y, tuple(rows))
    got = outcome(fuzzy.from_cuts, X, Y, lat, family)
    assert got == outcome(oracle.from_cuts_per_pair, X, Y, lat, family)
    assert got[0] == "CutFamilyInconsistent" and got[1][2] == list(Y.points)
