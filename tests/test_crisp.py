import random

import pytest

from ambrel import crisp, fuzzy, oracle
from ambrel.catalog import all_crisp_reps, all_inclusion_hyperspaces, all_partitions, chain
from ambrel.errors import SpaceMismatch, ValidationError
from ambrel.generators import random_rep
from ambrel.hyperspace import family_of, full_family, space
from ambrel.lattice import meet_tnorm


@pytest.fixture
def R0(x2, y2):
    # everything can stand for anything around the first target point
    return crisp.from_seed(x2, y2, [(x2.full, y2.subset(["y1"]))])


def test_identity_pairs_frozen(x2):
    ident = crisp.identity(x2)
    assert set(ident.pairs()) == {(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)}


def test_top_bot_validate(x2, y2):
    assert crisp.validate(x2, y2, crisp.top(x2, y2).pairs()) == crisp.top(x2, y2)
    assert crisp.validate(x2, y2, crisp.bot(x2, y2).pairs()) == crisp.bot(x2, y2)


def test_validate_rejects_missing_full_target(x2, y2):
    with pytest.raises(ValidationError) as err:
        crisp.validate(x2, y2, [(1, 1)])
    assert err.value.code == "MissingFullTarget"


def test_validate_rejects_antitone_break(x2, y2):
    # the bigger source set admits more than a smaller one
    pairs = list(crisp.bot(x2, y2).pairs()) + [(3, 1)]
    with pytest.raises(ValidationError) as err:
        crisp.validate(x2, y2, pairs)
    assert err.value.code in ("NotAntitoneInA", "NotUpwardClosedInB")


def test_validate_rejects_upward_gap(x3, y3):
    rows = list(crisp.bot(x3, y3).rows)
    rows[0] |= 1 << (y3.subset(["y1"]) - 1)  # {y1} admitted without {y1,y2}
    with pytest.raises(ValidationError) as err:
        crisp.validate_rows(x3, y3, rows)
    assert err.value.code == "NotUpwardClosedInB"


def test_from_seed_examples(x2, y2, R0):
    assert crisp.from_seed(x2, y2, []) == crisp.bot(x2, y2)
    up_y1 = family_of([1, 3])
    assert R0.rows == (up_y1, up_y1, up_y1)
    # closure is idempotent on valid representations
    for rep in (R0, crisp.top(x2, y2), crisp.identity(x2)):
        assert crisp.from_seed(rep.source, rep.target, rep.pairs()) == rep


def test_admissible_unavoidable(x2, y2, R0):
    assert crisp.unavoidable(crisp.bot(x2, y2), 1).family == full_family(y2)
    assert crisp.unavoidable(crisp.top(x2, y2), 1).family == family_of([y2.full])
    assert crisp.unavoidable(R0, 1).family == family_of([1, 3])
    assert crisp.admissible(R0, 2).family == family_of([1, 3])


def test_sms_frozen_rows(x2, y2, R0):
    S = crisp.sms(R0)
    assert S.source == y2 and S.target == x2
    assert S.rows == (family_of([3]), full_family(x2), family_of([3]))


def test_identity_is_self_inverse(x2):
    ident = crisp.identity(x2)
    assert crisp.sms(ident) == ident
    assert crisp.compose(ident, ident) == ident


def test_sms_output_always_valid(x3, y2):
    rng = random.Random(3)
    for i in range(100):
        rep = random_rep(x3, y2, i, rng.random())
        out = crisp.sms(rep)
        assert crisp.validate_rows(out.source, out.target, out.rows) == out


def test_double_sms_is_full_row_collapse(x2, y2):
    # applying pseudo-inversion twice keeps every row except the full-source
    # one, which collapses to the whole-target-only family
    for rep in all_crisp_reps(x2, y2):
        rows = list(rep.rows)
        rows[x2.full - 1] = family_of([y2.full])
        assert crisp.sms(crisp.sms(rep)) == crisp.CrispAmbRep(x2, y2, tuple(rows))


def test_pseudo_invertible_iff_trivial_full_row(x2, y2):
    full_row = family_of([y2.full])
    for rep in all_crisp_reps(x2, y2):
        assert crisp.is_pseudo_invertible(rep) == (rep.rows[x2.full - 1] == full_row)


def test_sms_is_idempotent_after_one_application(x3, y2):
    for i in range(60):
        rep = random_rep(x3, y2, 1000 + i, (i % 10) / 10)
        once = crisp.sms(rep)
        assert crisp.sms(crisp.sms(once)) == once


def test_compose_identity_laws(x2, y2):
    for i in range(40):
        rep = random_rep(x2, y2, i, (i % 8) / 8)
        assert crisp.compose(crisp.identity(x2), rep) == rep
        assert crisp.compose(rep, crisp.identity(y2)) == rep


def test_compose_bot_absorbs(x2, y2, z2, R0):
    assert crisp.compose(R0, crisp.bot(y2, z2)) == crisp.bot(x2, z2)


def test_compose_associative(x2, y2, z2):
    for i in range(40):
        r = random_rep(x2, y2, i, 0.3)
        s = random_rep(y2, z2, 100 + i, 0.5)
        t = random_rep(z2, x2, 200 + i, 0.7)
        assert crisp.compose(crisp.compose(r, s), t) == crisp.compose(r, crisp.compose(s, t))


def test_space_mismatch(x2, y2, z2):
    with pytest.raises(SpaceMismatch):
        crisp.compose(crisp.top(x2, y2), crisp.top(x2, y2))
    with pytest.raises(SpaceMismatch):
        crisp.meet(crisp.top(x2, y2), crisp.top(y2, x2))


def test_lattice_bounds(x2, y2, R0):
    assert crisp.join(R0, crisp.bot(x2, y2)) == R0
    assert crisp.meet(R0, crisp.top(x2, y2)) == R0


def test_sms_lattice_laws_exhaustive(x2, y2):
    reps = list(all_crisp_reps(x2, y2))
    for r in reps:
        for s in reps:
            assert crisp.sms(crisp.join(r, s)) == crisp.join(crisp.sms(r), crisp.sms(s))
            assert crisp.sms(crisp.meet(r, s)) == crisp.meet(crisp.sms(r), crisp.sms(s))


def test_sms_isotone(x2, y2):
    reps = list(all_crisp_reps(x2, y2))
    for r in reps[:10]:
        for s in reps:
            if r <= s:
                assert crisp.sms(r) <= crisp.sms(s)


def test_contravariance_on_pseudo_invertible_pairs(x2, y2, z2):
    xy = [r for r in all_crisp_reps(x2, y2) if crisp.is_pseudo_invertible(r)]
    yz = [s for s in all_crisp_reps(y2, z2) if crisp.is_pseudo_invertible(s)]
    for r in xy:
        for s in yz:
            assert crisp.sms(crisp.compose(r, s)) == crisp.compose(crisp.sms(s), crisp.sms(r))


def test_mapping_rep(x2, y2):
    const = crisp.mapping_rep(x2, y2, {"x1": "y1", "x2": "y1"})
    # image always {y1}: admissible sets are the neighbourhoods of y1
    assert const.rows == (family_of([1, 3]),) * 3
    S = crisp.sms(const)
    # rows of the inverse: everything containing the preimage
    assert S.rows[0] == family_of([3])          # preimage of {y1} is everything
    assert S.rows[1] == full_family(x2)         # preimage of {y2} is empty
    assert S.rows[2] == family_of([3])
    ident_map = crisp.mapping_rep(x2, x2, {"x1": "x1", "x2": "x2"})
    assert ident_map == crisp.identity(x2)


def test_rough_rep_examples():
    X = space("1", "2", "3")
    partition = (("1", "2"), ("3",))
    R = crisp.rough_rep(X, partition)
    one, two = X.subset(["1"]), X.subset(["2"])
    assert R.contains(one, two)  # equal upper approximations
    a, c = X.subset(["3"]), X.subset(["1", "3"])
    assert crisp.upper_approx(X, partition, a) & crisp.lower_approx(X, partition, c)
    assert c in crisp.unavoidable(R, a)
    singletons = tuple((p,) for p in X.points)
    assert crisp.rough_rep(X, singletons) == crisp.identity(X)


def test_rough_rep_checks_the_partition_once(monkeypatch):
    # the blocks are parsed and checked once per call, not once per source
    # subset, and the relation is still "upper(A) within upper(B)"
    X = space("1", "2", "3", "4")
    checked = []

    def counted(sp, partition, class_masks=crisp._class_masks):
        checked.append(partition)
        return class_masks(sp, partition)

    monkeypatch.setattr(crisp, "_class_masks", counted)
    for partition in all_partitions(X.points):
        checked.clear()
        R = crisp.rough_rep(X, partition)
        assert len(checked) == 1
        upper = {a: crisp.upper_approx(X, partition, a) for a in X.subsets()}
        for a in X.subsets():
            assert R.rows[a - 1] == family_of(b for b in X.subsets() if upper[a] & ~upper[b] == 0)
    for bad in ((("1", "2"), ("2", "3", "4")), (("1",), ("2",)), (("1", "2", "3", "4"), ())):
        with pytest.raises(ValidationError, match="blocks"):
            crisp.rough_rep(X, bad)


def test_rough_unavoidability_equivalence():
    X = space("1", "2", "3", "4")
    for partition in all_partitions(X.points):
        R = crisp.rough_rep(X, partition)
        for a in X.subsets():
            unavoid = crisp.unavoidable(R, a)
            for c in X.subsets():
                meets = bool(
                    crisp.upper_approx(X, partition, a) & crisp.lower_approx(X, partition, c)
                )
                assert (c in unavoid) == meets


def test_enumeration_counts(x2, y2):
    assert len(all_inclusion_hyperspaces(y2)) == 4
    assert sum(1 for _ in all_crisp_reps(x2, y2)) == 25


def _pts(prefix, n):
    return space(*(f"{prefix}{i}" for i in range(1, n + 1)))


# (source, middle, target) points: every size 1-6 on both crisp paths,
# with few samples where the oracles are slow (sms_definitional takes
# about 0.7 s at 6x6, compose_subgraph 1.5 s at 6x6x6)
PATH_SHAPES = [
    ((1, 1, 1), 6), ((2, 1, 2), 6), ((1, 3, 2), 6), ((2, 2, 2), 6), ((3, 2, 1), 6),
    ((3, 3, 3), 6), ((2, 4, 3), 6), ((4, 3, 2), 6), ((4, 4, 4), 3),
    ((5, 2, 5), 2), ((2, 5, 2), 2), ((5, 5, 1), 1), ((6, 2, 6), 1), ((2, 6, 2), 1),
    ((6, 6, 1), 1),
]


@pytest.mark.parametrize(
    "shape, samples", PATH_SHAPES, ids=["x".join(map(str, shape)) for shape, _ in PATH_SHAPES]
)
def test_both_crisp_paths_match_the_oracles(shape, samples):
    X, Y, Z = (_pts(p, n) for p, n in zip("xyz", shape))
    two = chain(2)
    for seed in range(samples):
        r = random_rep(X, Y, seed, (seed % 5 + 1) / 6)
        s = random_rep(Y, Z, 100 + seed, (seed % 3 + 1) / 4)
        want = oracle.sms_definitional(r)
        assert crisp._sms_loop(r) == want
        assert crisp._sms_masks(r) == want
        want = oracle.compose_subgraph(
            fuzzy.embed_crisp(r, two), fuzzy.embed_crisp(s, two), meet_tnorm(two)
        )
        assert fuzzy.embed_crisp(crisp._compose_loop(r, s), two) == want
        assert fuzzy.embed_crisp(crisp._compose_masks(r, s), two) == want


def test_paths_are_selected_by_pair_table_size(monkeypatch):
    ran = []
    for name in ("_sms_loop", "_sms_masks", "_compose_loop", "_compose_masks"):
        kernel = getattr(crisp, name)
        monkeypatch.setattr(
            crisp, name, lambda *reps, name=name, kernel=kernel: ran.append(name) or kernel(*reps)
        )
    loops, arrays = ["_sms_loop", "_compose_loop"], ["_sms_masks", "_compose_masks"]
    # the loops up to 2x4 points and the arrays from 3x3 on, as measured
    for (n_src, n_tgt), want in (
        ((1, 1), loops), ((1, 2), loops), ((2, 2), loops), ((1, 5), loops), ((2, 4), loops),
        ((4, 2), loops), ((3, 3), arrays), ((1, 6), arrays), ((4, 4), arrays), ((6, 6), arrays),
    ):
        X, Y = _pts("x", n_src), _pts("y", n_tgt)
        r = random_rep(X, Y, 1, 0.5)
        ran.clear()
        crisp.sms(r)
        crisp.compose(r, crisp.top(Y, X))
        assert ran == want, (n_src, n_tgt)
