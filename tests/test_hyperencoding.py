import random

import pytest

from ambrel import fuzzy, oracle
from ambrel import hyperencoding as he
from ambrel.catalog import boolean_square, chain
from ambrel.errors import SpaceMismatch, SpaceTooLarge
from ambrel.generators import random_fuzzy_rep, random_hyper_triples
from ambrel.hyperspace import family_of, space


def test_refinement_of_whole_space(x3):
    whole = family_of([x3.full])
    # every nonempty family refines {X}: each member sits inside X
    assert len(he.refinement_hyperspace(x3, whole)) == (1 << x3.full) - 1


def test_refinement_of_singleton(x3):
    fam = family_of([x3.subset(["x1"])])
    refiners = he.refinement_hyperspace(x3, fam)
    bit = 1 << (x3.subset(["x1"]) - 1)
    assert all(r & bit for r in refiners)
    assert len(refiners) == (1 << x3.full) // 2


def test_refinement_upward_closed(x3):
    for fam in (family_of([1]), family_of([1, 6]), family_of([x3.full])):
        refiners = set(he.refinement_hyperspace(x3, fam))
        for r in list(refiners):
            for extra in range(1, x3.full + 1):
                assert (r | (1 << (extra - 1))) in refiners


def test_subset_saturate_empty_and_singleton(x2, y2, chain3):
    empty = he.TernaryHyperRelation.empty(x2, y2, chain3)
    assert he.subset_saturate(empty) == empty
    single = he.TernaryHyperRelation.from_triples(
        x2, y2, chain3, [(family_of([x2.full]), y2.full, chain3.top)]
    )
    sat = he.subset_saturate(single)
    # all families, the full target only, every grade
    for fam in range(1, 1 << x2.full):
        assert int(sat.masks[fam, y2.full]) == (1 << chain3.size) - 1
        for b in y2.subsets():
            if b != y2.full:
                assert sat.masks[fam, b] == 0


def test_sup_saturate_single_merge(x2, y2, square):
    a1 = 1 << (x2.subset(["x1"]) - 1)
    a2 = 1 << (x2.subset(["x2"]) - 1)
    t = he.TernaryHyperRelation.from_triples(
        x2, y2, square,
        [(a1, y2.subset(["y1"]), square.index("a")), (a2, y2.subset(["y2"]), square.index("b"))],
    )
    sat = he.sup_saturate(t)
    merged = (a1 | a2, y2.full, square.top)
    assert merged in sat
    assert sat.triple_count() == 3


def test_sup_saturate_matches_subset_enumeration(x3, y2, square):
    # brute force: fold the merge over every nonempty subset of the triples
    from itertools import combinations

    for seed in range(6):
        raw = random_hyper_triples(x3, y2, square, 400 + seed, count=7)
        t = he.TernaryHyperRelation.from_triples(x3, y2, square, raw)
        triples = list(t.triples())
        expected = set()
        for r in range(1, len(triples) + 1):
            for chosen in combinations(triples, r):
                fam = b = 0
                alpha = square.bottom
                for f, bb, al in chosen:
                    fam |= f
                    b |= bb
                    alpha = square.join(alpha, al)
                expected.add((fam, b, alpha))
        got = set(he.sup_saturate(t).triples())
        assert got == expected


def test_saturations_extensive_idempotent(x3, y2, square):
    for seed in range(12):
        raw = random_hyper_triples(x3, y2, square, seed, count=9)
        t = he.TernaryHyperRelation.from_triples(x3, y2, square, raw)
        for op in (he.subset_saturate, he.sup_saturate, he.plus):
            sat = op(t)
            assert t.issubset(sat)
            assert op(sat) == sat


def test_saturations_match_oracle_twins():
    # a raw triple set at every shape and lattice; the encode and bullet
    # images of one representation per shape, cycling through the lattices
    lattices = [chain(k) for k in (1, 2, 3, 4)] + [boolean_square()]
    for nx in (1, 2, 3):
        for ny in (1, 2, 3, 4):
            x = space(*(f"x{i}" for i in range(nx)))
            y = space(*(f"y{i}" for i in range(ny)))
            for k, lat in enumerate(lattices):
                seed = 100 * nx + 10 * ny + k
                raw = random_hyper_triples(x, y, lat, seed, count=(1, 3, 8, 20)[seed % 4])
                cases = [he.TernaryHyperRelation.from_triples(x, y, lat, raw)]
                if k == (nx + ny) % len(lattices):
                    rep = random_fuzzy_rep(x, y, lat, seed, 0.2 + 0.1 * (seed % 7))
                    cases += [he.encode(rep), he.bullet(rep)]
                for t in cases:
                    assert he.subset_saturate(t) == oracle.subset_saturate_per_cell(t)
                    assert he.sup_saturate(t) == oracle.sup_saturate_fixpoint(t)
                    assert he.plus(t) == oracle.plus_literal(t)


def test_triple_count_matches_triples(x3, y2, square):
    for seed in range(8):
        raw = random_hyper_triples(x3, y2, square, 700 + seed, count=4 * seed)
        t = he.TernaryHyperRelation.from_triples(x3, y2, square, raw)
        for rel in (t, he.plus(t)):
            assert rel.triple_count() == len(list(rel.triples()))


def test_encode_roundtrip_and_fixpoint(x3, y3, chain3, square):
    for lat in (chain3, square):
        for seed in range(10):
            rep = random_fuzzy_rep(x3, y3, lat, seed, 0.5)
            t = he.encode(rep)
            assert he.is_encoded(t)
            assert he.decode(t) == rep
            assert t == he.sup_saturate(he.bullet(rep))
            assert t == he.plus(he.bullet(rep))


def test_not_encoded_detection(x2, y2, chain3):
    raw = he.TernaryHyperRelation.from_triples(
        x2, y2, chain3, [(family_of([1]), 1, chain3.top)]
    )
    assert not he.is_encoded(raw)


def test_is_encoded_is_one_closure_test():
    # the two-test definition: a fixed point of plus that plus rebuilds
    # from its singleton-family triples.  Raw triples, their plus images,
    # encodings and encodings with one triple cut, at 1-3 source points
    def two_tests(t):
        singles = [(fam, b, alpha) for fam, b, alpha in t.triples() if fam.bit_count() == 1]
        singles = he.TernaryHyperRelation.from_triples(t.source, t.target, t.lattice, singles)
        return oracle.plus_literal(singles) == t and oracle.plus_literal(t) == t

    verdicts = []
    for nx, ny in ((1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        x = space(*(f"x{i}" for i in range(nx)))
        y = space(*(f"y{i}" for i in range(ny)))
        for k, lat in enumerate([chain(2), chain(3), chain(4), boolean_square()]):
            seed = 100 * nx + 10 * ny + k
            raw = he.TernaryHyperRelation.from_triples(
                x, y, lat, random_hyper_triples(x, y, lat, seed, count=1 + seed % 5)
            )
            enc = he.encode(random_fuzzy_rep(x, y, lat, seed, 0.5))
            fam, b, alpha = random.Random(seed).choice(list(enc.triples()))
            masks = enc.masks.copy()
            masks[fam, b] ^= 1 << alpha
            cut = he.TernaryHyperRelation(x, y, lat, masks)
            for t in (raw, he.plus(raw), enc, cut):
                verdicts.append(he.is_encoded(t))
                assert verdicts[-1] == two_tests(t)
    assert 0 < sum(verdicts) < len(verdicts)


def test_encoding_monotone(x2, y2, chain3):
    lo = fuzzy.bot(x2, y2, chain3)
    hi = fuzzy.top(x2, y2, chain3)
    assert he.encode(lo).issubset(he.encode(hi))


def test_family_sup_routes_agree(x3, y2, chain3, square):
    for lat in (chain3, square):
        for seed in range(15):
            members = [
                random_fuzzy_rep(x3, y2, lat, 100 * seed + k, 0.3 + 0.1 * k) for k in range(3)
            ]
            assert he.family_sup(members) == fuzzy.sup_family(members)


def test_family_sup_trivia(x2, y2, square):
    rep = random_fuzzy_rep(x2, y2, square, 3, 0.5)
    assert he.family_sup([rep]) == rep
    assert he.family_sup([rep, fuzzy.bot(x2, y2, square)]) == rep


def test_family_sup_rejects_mixed_frames(x2, y2, y3, chain3, square):
    rep = random_fuzzy_rep(x2, y2, chain3, 1, 0.5)
    with pytest.raises(SpaceMismatch):
        he.family_sup([rep, random_fuzzy_rep(x2, y3, chain3, 2, 0.5)])
    with pytest.raises(SpaceMismatch):
        he.family_sup([rep, random_fuzzy_rep(x2, y2, square, 3, 0.5)])


def test_size_gates():
    big = space("a", "b", "c", "d")
    small = space("p", "q")
    with pytest.raises(SpaceTooLarge):
        he.encode(fuzzy.top(big, small, chain(3)))
    with pytest.raises(SpaceTooLarge):
        he.refinement_hyperspace(big, 1)
    with pytest.raises(SpaceTooLarge):
        he.encode(fuzzy.top(small, small, chain(5)))
