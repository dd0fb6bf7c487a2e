import random

import pytest

from ambrel import fuzzy, oracle
from ambrel.capacity import (
    capacities_of,
    capacity_of,
    capacity_subgraph,
    minimal_capacity,
    validate_capacity,
    validate_subgraph,
)
from ambrel.catalog import boolean_square, chain
from ambrel.errors import ValidationError
from ambrel.generators import random_capacity, random_fuzzy_rep
from ambrel.hyperspace import space

# the six lattices of the benchmark
TWIN_LATTICES = (chain(2), chain(3), chain(4), chain(8), chain(16), boolean_square())


def outcome(fn, *args):
    """The result, or the code, witness and message of the ValidationError."""
    try:
        return fn(*args)
    except ValidationError as err:
        return err.code, err.witness, str(err)


def test_minimal_and_maximal_capacities(y2, chain3):
    lo = minimal_capacity(y2, chain3)
    assert validate_capacity(y2, chain3, lo.values) == lo
    hi = [chain3.top] * (y2.full + 1)
    hi[0] = chain3.bottom
    validate_capacity(y2, chain3, hi)


def test_bounds_rejected(y2, chain3):
    vals = [chain3.bottom] * (y2.full + 1)
    vals[y2.full] = chain3.index("m")
    with pytest.raises(ValidationError) as err:
        validate_capacity(y2, chain3, vals)
    assert err.value.code == "BadBounds"


def test_monotonicity_rejected(y3, chain3):
    vals = [chain3.bottom] * (y3.full + 1)
    vals[y3.full] = chain3.top
    vals[y3.subset(["y1"])] = chain3.top
    vals[y3.subset(["y1", "y2"])] = chain3.bottom  # superset graded below a subset
    with pytest.raises(ValidationError) as err:
        validate_capacity(y3, chain3, vals)
    assert err.value.code == "NotMonotone"


def test_capacity_of_identity(x2, chain3):
    ident = fuzzy.identity(x2, chain3)
    cap = capacity_of(ident, x2.subset(["x1"]))
    for b in x2.subsets():
        want = chain3.top if b & 1 else chain3.bottom
        assert cap(b) == want
    assert cap(0) == chain3.bottom


def test_capacity_of_extremes(x2, y2, square):
    lo = fuzzy.bot(x2, y2, square)
    hi = fuzzy.top(x2, y2, square)
    for a in x2.subsets():
        assert capacity_of(lo, a) == minimal_capacity(y2, square)
        cap = capacity_of(hi, a)
        assert all(cap(b) == square.top for b in y2.subsets())


def test_capacity_union_join_bound(y3, square):
    for seed in range(20):
        cap = random_capacity(y3, square, seed)
        for f in y3.subsets():
            for g in y3.subsets():
                assert square.le(square.join(cap(f), cap(g)), cap(f | g))


def test_extraction_is_antitone(x3, y2, chain3, square):
    for lat in (chain3, square):
        for seed in range(20):
            rf = random_fuzzy_rep(x3, y2, lat, seed, 0.5)
            caps = capacities_of(rf)
            for a in x3.subsets():
                for i in range(x3.size):
                    smaller = a & ~(1 << i)
                    if smaller:
                        big, small = caps[a], caps[smaller]
                        assert all(
                            lat.le(big(b), small(b)) for b in range(y2.full + 1)
                        )


def test_subgraph_roundtrip(y3, chain3, square):
    for lat in (chain3, square):
        for seed in range(30):
            cap = random_capacity(y3, lat, seed)
            assert validate_subgraph(y3, lat, capacity_subgraph(cap)) == cap


def test_subgraph_of_minimal_capacity(y2, chain3):
    sub = capacity_subgraph(minimal_capacity(y2, chain3))
    floor = {(f, chain3.bottom) for f in y2.subsets()}
    wall = {(y2.full, alpha) for alpha in range(chain3.size)}
    assert sub == floor | wall


def test_subgraph_error_codes(y2, chain3, square):
    good = capacity_subgraph(minimal_capacity(y2, chain3))
    with pytest.raises(ValidationError) as err:
        validate_subgraph(y2, chain3, good - {(1, chain3.bottom)})
    assert err.value.code == "MissingFloor"

    # a pair present at top grade without its supersets
    with pytest.raises(ValidationError) as err:
        validate_subgraph(y2, chain3, set(good) | {(1, chain3.top)})
    assert err.value.code == "NotDownSetInAlpha"

    # two incomparable grades on one set whose join is missing
    a, b = square.index("a"), square.index("b")
    floor = capacity_subgraph(minimal_capacity(y2, square))
    broken = set(floor) | {(1, a), (1, b)}
    with pytest.raises(ValidationError) as err:
        validate_subgraph(y2, square, broken)
    assert err.value.code == "UnionJoinViolated"


def _perturbed_pairs(rng, space_, lat, pairs):
    pairs = set(pairs)
    mode = rng.randrange(4)
    if mode == 0:  # one pair dropped
        pairs.discard(rng.choice(sorted(pairs)))
    elif mode == 1:  # one pair added, possibly out of range
        pairs.add((rng.randrange(space_.full + 2), rng.randrange(-1, lat.size + 1)))
    elif mode == 2:  # grades added at one set together with what they require
        f = rng.randrange(1, space_.full + 1)
        for alpha in rng.sample(range(lat.size), min(2, lat.size)):
            pairs.update(
                (g, beta)
                for g in space_.subsets()
                if f & g == f
                for beta in range(lat.size)
                if lat.le(beta, alpha)
            )
    listed = sorted(pairs)
    rng.shuffle(listed)
    return listed


def test_capacity_kernels_match_oracle_twins():
    codes = set()
    for lat in TWIN_LATTICES:
        for n in (1, 2, 3, 4):
            Y = space(*(f"y{i}" for i in range(1, n + 1)))
            X = space("x1", "x2")
            for seed in range(12):
                rng = random.Random(f"{lat.size}-{n}-{seed}")
                rep = random_fuzzy_rep(X, Y, lat, seed, 0.4)
                for a in range(X.full + 2):  # 0 and X.full + 1 are out of range
                    got = outcome(capacity_of, rep, a)
                    assert got == outcome(oracle.capacity_of_per_set, rep, a)
                cap = random_capacity(Y, lat, seed)
                values = list(cap.values)
                for _ in range(rng.randint(0, 2)):
                    values[rng.randrange(Y.full + 1)] = rng.randrange(lat.size)
                got_values = outcome(validate_capacity, Y, lat, values)
                assert got_values == outcome(oracle.validate_capacity_loops, Y, lat, values)
                pairs = _perturbed_pairs(rng, Y, lat, capacity_subgraph(cap))
                got_pairs = outcome(validate_subgraph, Y, lat, pairs)
                assert got_pairs == outcome(oracle.validate_subgraph_loops, Y, lat, pairs)
                wild = list(values)  # numpy would wrap a negative index silently
                for _ in range(rng.randint(1, 2)):
                    wild[rng.randrange(Y.full + 1)] = rng.choice((-1, lat.size))
                got_wild = outcome(validate_capacity, Y, lat, wild)
                assert got_wild == outcome(oracle.validate_capacity_loops, Y, lat, wild)
                codes.update(
                    out[0]
                    for out in (got, got_values, got_pairs, got_wild)
                    if isinstance(out, tuple)
                )
    assert codes == {
        "BadSubset", "BadValueTable", "BadBounds", "NotMonotone", "BadPair", "MissingFloor",
        "NotDownSetInAlpha", "UnionJoinViolated",
    }


def test_capacities_of_is_capacity_of_at_every_source_set():
    for lat in TWIN_LATTICES:
        for n_src, n_tgt in ((1, 1), (2, 3), (3, 2), (4, 4)):
            X = space(*(f"x{i}" for i in range(1, n_src + 1)))
            Y = space(*(f"y{i}" for i in range(1, n_tgt + 1)))
            rep = random_fuzzy_rep(X, Y, lat, n_src + n_tgt, 0.4)
            caps = capacities_of(rep)
            assert list(caps) == list(X.subsets())
            for a, cap in caps.items():
                assert cap == capacity_of(rep, a)
                assert cap.values.shape == (Y.full + 1,)
                with pytest.raises(ValueError):
                    cap.values[0] = lat.top
                with pytest.raises(ValueError):
                    cap.values.setflags(write=True)
