import os
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from ambrel import crisp, fuzzy
from ambrel.catalog import (
    all_crisp_reps,
    all_distributive_lattices,
    all_inclusion_hyperspaces,
    boolean_square,
    chain,
    lukasiewicz,
)
from ambrel.errors import LatticeTooLarge
from ambrel.generators import random_fuzzy_rep, random_rep
from ambrel.hyperspace import full_family, space, traversal, upward_closure
from ambrel.lattice import meet_tnorm, way_below
from ambrel.oracle import (
    compose_subgraph,
    double_traversal_oracle,
    inclusion_hyperspaces_by_filter,
    sms_definitional,
    way_below_definitional,
)


def test_sms_oracle_exhaustive_2x2(x2, y2):
    for rep in all_crisp_reps(x2, y2):
        assert sms_definitional(rep) == crisp.sms(rep)


def test_sms_oracle_random_3x3(x3, y3):
    for i in range(150):
        rep = random_rep(x3, y3, i, (i % 9) / 9)
        assert sms_definitional(rep) == crisp.sms(rep)


def test_sms_oracle_canonical_reps(x3, y2):
    for rep in (
        crisp.top(x3, y2),
        crisp.bot(x3, y2),
        crisp.identity(x3),
        crisp.mapping_rep(x3, y2, {"x1": "y1", "x2": "y1", "x3": "y2"}),
        crisp.rough_rep(x3, (("x1", "x2"), ("x3",))),
    ):
        assert sms_definitional(rep) == crisp.sms(rep)


def test_compose_oracle_agrees(x2, y2, z2, chain3, square):
    tnorms = {chain3: [meet_tnorm(chain3), lukasiewicz(chain3)], square: [meet_tnorm(square)]}
    for lat, tns in tnorms.items():
        for tn in tns:
            for seed in range(20):
                r = random_fuzzy_rep(x2, y2, lat, seed, 0.4)
                s = random_fuzzy_rep(y2, z2, lat, 100 + seed, 0.6)
                assert compose_subgraph(r, s, tn) == fuzzy.compose(r, s, tn)


def test_compose_oracle_identity(x2, chain3):
    ident = fuzzy.identity(x2, chain3)
    assert compose_subgraph(ident, ident, meet_tnorm(chain3)) == ident


def test_compose_oracle_embedding_coherence(x2, y2, z2, chain3):
    for seed in range(15):
        r = random_rep(x2, y2, seed, 0.4)
        s = random_rep(y2, z2, 50 + seed, 0.5)
        lhs = compose_subgraph(
            fuzzy.embed_crisp(r, chain3), fuzzy.embed_crisp(s, chain3), meet_tnorm(chain3)
        )
        assert lhs == fuzzy.embed_crisp(crisp.compose(r, s), chain3)


def test_way_below_matches_order_on_all_small_lattices():
    lattices = all_distributive_lattices(5)
    assert len(lattices) >= 8
    for lat in lattices:
        for a in range(lat.size):
            for b in range(lat.size):
                assert way_below_definitional(lat, a, b) == way_below(lat, a, b) == lat.le(a, b)


def test_way_below_named_lattices():
    for lat in (chain(3), boolean_square()):
        for a in range(lat.size):
            for b in range(lat.size):
                assert way_below_definitional(lat, a, b) == lat.le(a, b)


def test_way_below_gate():
    with pytest.raises(LatticeTooLarge):
        way_below_definitional(chain(7), 0, 0)


def test_double_traversal_oracle_matches_production():
    X = space("a", "b", "c")
    for fam in range(0, full_family(X) + 1):
        assert double_traversal_oracle(X, fam) == traversal(X, traversal(X, fam))


def test_double_traversal_oracle_vs_upward_closure_nonempty():
    X = space("a", "b", "c")
    for fam in range(1, full_family(X) + 1):
        assert double_traversal_oracle(X, fam) == upward_closure(X, fam)


def _isomorphic(a, b):
    """Whether some relabelling of order matrix ``b`` gives order matrix
    ``a``, tried over every permutation."""
    if len(a) != len(b):
        return False
    perms = np.array(list(permutations(range(len(a)))))
    return bool((b[perms[:, :, None], perms[:, None, :]] == a).all(axis=(1, 2)).any())


def test_distributive_lattice_enumeration_found_shapes():
    sizes = sorted(lat.size for lat in all_distributive_lattices(5))
    # one shape each at sizes 1-3, two at 4 (chain, square), three at 5
    assert sizes == [1, 2, 3, 4, 4, 5, 5, 5]
    # OEIS A006982: distributive lattices on 1..7 elements
    lattices = all_distributive_lattices(7)
    counts = Counter(lat.size for lat in lattices)
    assert [counts[m] for m in range(1, 8)] == [1, 1, 1, 2, 3, 5, 8]
    assert not any(
        _isomorphic(a.leq, b.leq) for i, a in enumerate(lattices) for b in lattices[i + 1:]
    )
    # the check does find a relabelled copy
    assert all(_isomorphic(lat.leq, lat.leq[::-1, ::-1]) for lat in lattices)


def test_inclusion_hyperspace_enumeration_counts_and_twin():
    spaces = [space(*(f"p{i}" for i in range(n))) for n in range(1, 6)]
    # Dedekind numbers minus 2 (OEIS A000372): the empty family and the
    # family holding the empty set are not inclusion hyperspaces
    assert len(all_inclusion_hyperspaces(spaces[0])) == 1
    assert len(all_inclusion_hyperspaces(spaces[1])) == 4
    assert len(all_inclusion_hyperspaces(spaces[2])) == 18
    assert len(all_inclusion_hyperspaces(spaces[3])) == 166
    assert len(all_inclusion_hyperspaces(spaces[4])) == 7579
    for X in spaces[:4]:
        assert all_inclusion_hyperspaces(X) == inclusion_hyperspaces_by_filter(X)


def test_import_ambrel_leaves_the_twins_unloaded():
    # the twins serve tests and the benchmark's checks, so a CLI process
    # never pays for them; importing them by name still works
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = (
        "import sys, ambrel; assert 'ambrel.oracle' not in sys.modules; "
        "from ambrel import oracle; assert callable(oracle.sms_definitional)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
