import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambrel import oracle
from ambrel.catalog import (
    all_distributive_lattices,
    boolean_square,
    chain,
    diamond_leq,
    lukasiewicz,
    pentagon_leq,
)
from ambrel.errors import ValidationError
from ambrel.hyperencoding import _grade_tables
from ambrel.lattice import meet_tnorm, validate_lattice, validate_tnorm, way_below


def test_chain_join_meet_are_max_min():
    c = chain(3)
    assert (c.bottom, c.top) == (0, 2)
    for i in range(3):
        for j in range(3):
            assert c.join(i, j) == max(i, j)
            assert c.meet(i, j) == min(i, j)


def test_boolean_square_tables():
    sq = boolean_square()
    a, b = sq.index("a"), sq.index("b")
    assert sq.join(a, b) == sq.top
    assert sq.meet(a, b) == sq.bottom
    assert sq.incomparable_pair() == (a, b)
    assert not sq.is_chain() and chain(4).is_chain()


def test_pentagon_not_distributive():
    labels, leq = pentagon_leq()
    with pytest.raises(ValidationError) as err:
        validate_lattice(labels, leq)
    assert err.value.code == "NotDistributive"
    assert len(err.value.witness) == 3


def test_diamond_not_distributive():
    labels, leq = diamond_leq()
    with pytest.raises(ValidationError) as err:
        validate_lattice(labels, leq)
    assert err.value.code == "NotDistributive"


def test_order_axioms_rejected():
    with pytest.raises(ValidationError) as err:
        validate_lattice(["p", "q"], [[True, True], [True, True]])
    assert err.value.code == "NotAPartialOrder"
    # two incomparable points, no bounds anywhere
    with pytest.raises(ValidationError) as err:
        validate_lattice(["p", "q"], [[True, False], [False, True]])
    assert err.value.code == "MissingBound"


def test_family_folds():
    sq = boolean_square()
    a, b = sq.index("a"), sq.index("b")
    assert sq.family_join([]) == sq.bottom
    assert sq.family_meet([]) == sq.top
    assert sq.family_join([a, b]) == sq.top
    assert sq.family_meet([a, b]) == sq.bottom


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=6), st.randoms())
@settings(max_examples=60)
def test_family_fold_order_independent(items, rnd):
    sq = boolean_square()
    shuffled = list(items)
    rnd.shuffle(shuffled)
    assert sq.family_join(items) == sq.family_join(shuffled)
    assert sq.family_meet(items) == sq.family_meet(shuffled)


def test_way_below_shortcut():
    c = chain(3)
    assert way_below(c, c.index("m"), c.top)
    for lat in (c, boolean_square()):
        for x in range(lat.size):
            assert way_below(lat, lat.bottom, x)


def test_meet_tnorm_validates_everywhere():
    for lat in (chain(2), chain(3), boolean_square()):
        tn = validate_tnorm(lat, lat.meet_table)
        # annihilation by bottom follows from the axioms
        assert all(tn(a, lat.bottom) == lat.bottom for a in range(lat.size))


def test_lukasiewicz_chain3():
    c = chain(3)
    tn = lukasiewicz(c)
    m = c.index("m")
    assert tn(m, m) == c.bottom
    assert tn(m, c.top) == m
    assert all(tn(a, c.bottom) == c.bottom for a in range(3))


def test_lukasiewicz_needs_chain():
    with pytest.raises(ValidationError) as err:
        lukasiewicz(boolean_square())
    assert err.value.code == "NotAChain"


@pytest.mark.parametrize(
    "lat_name, table, code",
    [
        ("chain2", [[0, 0], [1, 1]], "NotCommutative"),
        ("chain2", [[0, 0], [0, 0]], "TopNotNeutral"),
        ("chain4", None, "NotAssociative"),  # tampered truncated addition
        ("square", [[0] * 4, [0, 0, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]], "NotJoinDistributive"),
    ],
)
def test_bad_tnorms_rejected(lat_name, table, code):
    lat = {"chain2": chain(2), "chain4": chain(4), "square": boolean_square()}[lat_name]
    if table is None:
        table = [[max(i + j - 3, 0) for j in range(4)] for i in range(4)]
        table[1][1] = 2
    with pytest.raises(ValidationError) as err:
        validate_tnorm(lat, table)
    assert err.value.code == code


def test_tnorm_monotonicity_rejected():
    c = chain(3)
    table = [[min(i, j) for j in range(3)] for i in range(3)]
    table[1][1] = 2  # m*m above m*1
    with pytest.raises(ValidationError) as err:
        validate_tnorm(c, table)
    assert err.value.code in ("NotMonotone", "NotAssociative")


def test_lattice_equality_and_hash():
    assert chain(3) == chain(3)
    assert chain(3) != chain(4)
    assert len({chain(3), chain(3), boolean_square()}) == 2
    # equal t-norms hash alike whatever their names
    c = chain(3)
    named, plain = meet_tnorm(c), validate_tnorm(c, c.meet_table)
    assert named == plain and hash(named) == hash(plain)
    assert len({named, plain, lukasiewicz(c)}) == 2


@pytest.mark.parametrize(
    "lat",
    [chain(n) for n in range(1, 17)] + [boolean_square()] + list(all_distributive_lattices(6)),
    ids=lambda lat: "-".join(lat.elements),
)
def test_birkhoff_encoding(lat):
    n = lat.size
    # in a distributive lattice the join-irreducibles are the join-primes:
    # not bottom, and below a join only when below one side of it
    primes = [
        j
        for j in range(n)
        if j != lat.bottom
        and all(
            lat.le(j, a) or lat.le(j, b) or not lat.le(j, lat.join(a, b))
            for a in range(n)
            for b in range(n)
        )
    ]
    assert lat.irreducibles == tuple(primes)
    for x in range(n):
        assert lat.down[x] == sum(1 << k for k, j in enumerate(primes) if lat.le(j, x))
    assert len(set(lat.down.tolist())) == n
    for a in range(n):
        for b in range(n):
            assert lat.down[lat.join(a, b)] == lat.down[a] | lat.down[b]
            assert lat.down[lat.meet(a, b)] == lat.down[a] & lat.down[b]
    assert np.array_equal(lat.from_down(lat.down), np.arange(n))


# -- twins: the array checks against the loops in ambrel.oracle ------------------


def _outcome(fn, *args):
    """Every table of the result, or the code, witness and message of the
    ValidationError."""
    try:
        out = fn(*args)
    except ValidationError as err:
        return err.code, err.witness, str(err)
    if hasattr(out, "table"):
        return out.lattice, out.name, out.table.dtype, out.table.tolist()
    return (
        out.elements, out.leq.tolist(), out.join_table.dtype, out.join_table.tolist(),
        out.meet_table.tolist(), out.bottom, out.top, out.irreducibles, out.down.tolist(),
    )


def _random_poset(rng, n):
    # a transitively closed random upper-triangular relation, relabelled
    mat = np.triu(np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]), 1)
    mat |= np.eye(n, dtype=bool)
    for _ in range(n):
        mat = mat.astype(np.intp) @ mat.astype(np.intp) > 0
    perm = rng.sample(range(n), n)
    return mat[np.ix_(perm, perm)].tolist()


def _random_matrix(rng, n):
    density = rng.random()
    mat = [[rng.random() < density for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.7:  # reflexive, so the later checks are reached
        for i in range(n):
            mat[i][i] = True
    return mat


def _labelled_posets(n):
    """Every partial order on n labelled points, as a reflexive leq matrix:
    each off-diagonal relation kept if antisymmetric and transitive."""
    eye = np.eye(n, dtype=bool)
    for bits in product((False, True), repeat=n * n - n):
        mat = eye.copy()
        mat[~eye] = bits
        if not (mat & mat.T & ~eye).any() and not (mat @ mat & ~mat).any():
            yield mat.tolist()


def test_validate_lattice_matches_loops():
    rng = random.Random(7)
    corpus = [mat for n in range(1, 5) for mat in _labelled_posets(n)]
    corpus += [_random_poset(rng, 5) for _ in range(1500)]
    corpus += [_random_matrix(rng, rng.randint(1, 7)) for _ in range(3000)]
    assert len(corpus) == 4742
    codes = set()
    for mat in corpus:
        labels = [f"e{i}" for i in range(len(mat))]
        got = _outcome(validate_lattice, labels, mat)
        assert got == _outcome(oracle.validate_lattice_loops, labels, mat)
        codes.add(got[2] if len(got) == 3 else "valid")
    assert codes == {
        "valid", "leq not reflexive", "leq not antisymmetric", "leq not transitive",
        "pair has no unique least upper bound", "pair has no unique greatest lower bound",
        "meet does not distribute over join",
    }


def _tnorm_bases():
    lats = [chain(n) for n in range(1, 9)] + [boolean_square()] + list(all_distributive_lattices(6))
    return [(lat, lat.meet_table) for lat in lats] + [
        (lat, lukasiewicz(lat).table) for lat in lats[:8]
    ]


def test_validate_tnorm_matches_loops():
    rng = random.Random(11)
    bases = _tnorm_bases()
    codes = set()
    checked = 0
    for lat, base in bases:
        n = lat.size
        for _ in range(4320 // len(bases)):
            table = base.copy()
            for _ in range(rng.randint(0, 2)):
                a, b, g = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                table[a, b] = g
                if rng.random() < 0.6:  # keep it commutative
                    table[b, a] = g
            got = _outcome(validate_tnorm, lat, table)
            assert got == _outcome(oracle.validate_tnorm_loops, lat, table)
            codes.add(got[0] if len(got) == 3 else "valid")
            checked += 1
    assert checked == 4320
    assert codes == {
        "valid", "NotCommutative", "NotAssociative", "TopNotNeutral", "NotMonotone",
        "NotJoinDistributive",
    }


def test_chain_queries_match_loops():
    for lat in [chain(n) for n in range(1, 5)] + list(all_distributive_lattices(6)):
        n = lat.size
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        apart = [(a, b) for a, b in pairs if not lat.le(a, b) and not lat.le(b, a)]
        assert lat.is_chain() == (not apart)
        assert lat.incomparable_pair() == (apart[0] if apart else None)


def test_grade_tables_match_family_join():
    lats = {lat for lat in all_distributive_lattices(4)}
    lats.update(chain(n) for n in range(1, 5))
    lats.add(boolean_square())
    for lat in lats:
        n = lat.size
        tables = _grade_tables(lat)
        for mask in range(1 << n):
            grades = [g for g in range(n) if mask >> g & 1]
            assert tables.join_of[mask] == lat.family_join(grades)
            below = [b for b in range(n) if any(lat.le(b, g) for g in grades)]
            assert tables.down[mask] == sum(1 << b for b in below)
        for g in range(n):
            assert tables.below[g, 0] == tables.down[1 << g]


def _product(first, second):
    """The product order of two lattices, labelled by pairs of labels."""
    pairs = list(product(range(first.size), range(second.size)))
    leq = [
        [bool(first.leq[a, c] and second.leq[b, d]) for c, d in pairs] for a, b in pairs
    ]
    return validate_lattice([first.elements[a] + second.elements[b] for a, b in pairs], leq)


def _lattices_to_eight():
    """Every distributive lattice of at most seven elements, then some of
    eight, past the enumeration's gate: the chain and two products."""
    c2, c4, sq = chain(2), chain(4), boolean_square()
    return list(all_distributive_lattices(7)) + [
        chain(8), _product(c2, c4), _product(c2, sq),
    ]


def test_from_down_is_family_join_on_masks():
    rng = random.Random(8)
    lats = _lattices_to_eight() + [chain(16)]
    assert {lat.size for lat in lats} == set(range(1, 9)) | {16}
    for lat in lats:
        n = lat.size
        # every element's own mask, then ORs of the masks of random sets
        assert lat.from_down(lat.down).tolist() == list(range(n))
        picks = [rng.sample(range(n), rng.randint(0, n)) for _ in range(100)]
        masks = np.array(
            [np.bitwise_or.reduce(lat.down[pick]) for pick in picks], dtype=np.uint16
        ).reshape(10, 10)
        want = np.array([lat.family_join(pick) for pick in picks]).reshape(10, 10)
        assert np.array_equal(lat.from_down(masks), want)


# -- matrices that numpy would coerce: BadMatrix before any axiom ------------------

_BAD_LEQ = [
    [[1, "yes"], [0, 2]],  # would read as the chain a < b
    [[1, 1], [0, 1]],
    [[True, 1.0], [False, True]],
    [[True, True], [False]],  # ragged
    [[True, True], [False, True, False]],
    ["ab", "ba"],
    [True, False],
    None,
    np.array([[1, 1], [0, 1]]),
]

_BAD_TNORM = [
    [[0.9, 0.2], [0, 1.7]],  # would truncate to the meet table
    [["0", "0"], ["0", "1"]],  # would parse to the meet table
    [[False, False], [False, True]],
    [[0, 0], [0]],  # ragged
    [[0], [0, 1]],
    ["00", "01"],
    [0, 1],
    7,
    np.array([[0.0, 0.0], [0.0, 1.0]]),
]


@pytest.mark.parametrize("leq", _BAD_LEQ)
def test_leq_must_be_a_boolean_matrix(leq):
    with pytest.raises(ValidationError) as err:
        validate_lattice(["a", "b"], leq)
    assert err.value.code == "BadMatrix"
    got = _outcome(validate_lattice, ["a", "b"], leq)
    assert got == _outcome(oracle.validate_lattice_loops, ["a", "b"], leq)


@pytest.mark.parametrize("table", _BAD_TNORM)
def test_tnorm_must_be_an_integer_matrix(table):
    with pytest.raises(ValidationError) as err:
        validate_tnorm(chain(2), table)
    assert err.value.code == "BadMatrix"
    got = _outcome(validate_tnorm, chain(2), table)
    assert got == _outcome(oracle.validate_tnorm_loops, chain(2), table)


def test_typed_matrices_still_accepted():
    c = chain(2)
    leq = [[True, True], [False, True]]
    for same in (np.array(leq), [np.array(row) for row in leq], [tuple(row) for row in leq]):
        assert validate_lattice(["0", "1"], same) == c
        assert _outcome(validate_lattice, ["0", "1"], same) == _outcome(
            oracle.validate_lattice_loops, ["0", "1"], same
        )
    meet = [[0, 0], [0, 1]]
    for same in (np.array(meet, dtype=np.uint8), [np.array(row) for row in meet], c.meet_table):
        assert validate_tnorm(c, same) == meet_tnorm(c)
        assert _outcome(validate_tnorm, c, same) == _outcome(oracle.validate_tnorm_loops, c, same)
