import copy
import dataclasses
import itertools
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambrel.errors import ValidationError
from ambrel.hyperspace import (
    FiniteSpace,
    InclusionHyperspace,
    antichain,
    family_of,
    full_family,
    is_inclusion_hyperspace,
    is_upward_closed,
    members,
    space,
    traversal,
    upward_closure,
)


def masks(*labelled):
    return labelled


def test_space_basics():
    X = space("x1", "x2")
    assert X.full == 3
    assert list(X.subsets()) == [1, 2, 3]
    assert X.subset(["x2"]) == 2
    assert X.labels(3) == ("x1", "x2")
    with pytest.raises(ValidationError):
        FiniteSpace(("p", "p"))
    with pytest.raises(ValidationError):
        FiniteSpace(tuple(f"p{i}" for i in range(7)))


def test_space_keeps_its_dataclass_behaviour():
    # size, full and the hash are attributes set once, not fields
    X = space("b", "a", "c")
    assert (X.size, X.full) == (3, 7)
    assert [f.name for f in dataclasses.fields(X)] == ["points"]
    assert repr(X) == "FiniteSpace(points=('b', 'a', 'c'))"
    assert X == space("b", "a", "c") and hash(X) == hash(space("b", "a", "c"))
    assert hash(X) == hash((X.points,))
    assert sorted([space("b"), space("a", "z"), space("a")]) == [
        space("a"), space("a", "z"), space("b"),
    ]
    Y = dataclasses.replace(X, points=("p",))
    assert (Y.size, Y.full, hash(Y)) == (1, 1, hash(space("p")))
    for name in ("points", "size", "full"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(X, name, 1)
    assert copy.deepcopy(X) == X and hash(copy.copy(X)) == hash(X)


# pickled in one interpreter, read in another with a different string hash
_PICKLE = """
import pickle, sys
from ambrel.catalog import boolean_square, chain
from ambrel.hyperspace import space
objects = [space("x1", "x2"), space("y1"), chain(3), boolean_square()]
sys.stdout.buffer.write(pickle.dumps((objects, {obj: k for k, obj in enumerate(objects)})))
"""
_UNPICKLE = """
import pickle, sys
from ambrel.catalog import boolean_square, chain
from ambrel.hyperspace import _superset_table, space
objects, table = pickle.loads(sys.stdin.buffer.read())
fresh = [space("x1", "x2"), space("y1"), chain(3), boolean_square()]
assert objects == fresh
assert [hash(obj) for obj in objects] == [hash(obj) for obj in fresh]
assert [table[obj] for obj in fresh] == [0, 1, 2, 3]
assert [{obj: k for k, obj in enumerate(objects)}[obj] for obj in fresh] == [0, 1, 2, 3]
assert _superset_table(objects[0]) is _superset_table(fresh[0])
print("found")
"""


def test_spaces_and_lattices_rehash_when_unpickled():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = partial(subprocess.run, capture_output=True, timeout=120, check=True)
    dumped = run([sys.executable, "-c", _PICKLE], env=env | {"PYTHONHASHSEED": "1"}).stdout
    read = run([sys.executable, "-c", _UNPICKLE], env=env | {"PYTHONHASHSEED": "2"}, input=dumped)
    assert read.stdout.decode().split() == ["found"]


def test_traversal_frozen_values():
    X = space("x1", "x2")
    # empty family: vacuous condition, everything traverses
    assert traversal(X, 0) == full_family(X)
    # single singleton: everything containing x1
    assert traversal(X, family_of([1])) == family_of([1, 3])
    # the whole powerset: only the full set meets every singleton
    assert traversal(X, full_family(X)) == family_of([3])


def test_upward_closure_frozen_values():
    X = space("x1", "x2")
    assert upward_closure(X, family_of([1])) == family_of([1, 3])
    assert upward_closure(X, 0) == 0


def test_inclusion_hyperspace_predicate():
    X = space("x1", "x2")
    assert is_inclusion_hyperspace(X, family_of([3]))
    assert not is_inclusion_hyperspace(X, family_of([1]))  # missing superset
    assert not is_inclusion_hyperspace(X, 0)


family_masks = st.integers(min_value=0, max_value=(1 << 7) - 1)


@given(family_masks, family_masks)
@settings(max_examples=100)
def test_traversal_antitone(f, g):
    X = space("a", "b", "c")
    if f & ~g == 0:  # f subset of g
        assert traversal(X, g) & ~traversal(X, f) == 0


@given(family_masks)
@settings(max_examples=100)
def test_traversal_ignores_upward_closure(f):
    X = space("a", "b", "c")
    assert traversal(X, f) == traversal(X, upward_closure(X, f))


@given(family_masks)
@settings(max_examples=100)
def test_traversal_output_is_inclusion_hyperspace(f):
    X = space("a", "b", "c")
    assert is_inclusion_hyperspace(X, traversal(X, f))


def test_double_traversal_on_inclusion_hyperspaces():
    X = space("a", "b", "c")
    for fam in range(1, full_family(X) + 1):
        if is_inclusion_hyperspace(X, fam):
            assert traversal(X, traversal(X, fam)) == fam


def test_double_traversal_equals_up_closure_for_nonempty():
    X = space("a", "b")
    for fam in range(1, full_family(X) + 1):
        assert traversal(X, traversal(X, fam)) == upward_closure(X, fam)


def test_double_traversal_of_empty_family_degenerates():
    # the one boundary case where double traversal is not the upward closure:
    # everything traverses the empty family, and only the full set survives
    X = space("a", "b", "c")
    assert upward_closure(X, 0) == 0
    assert traversal(X, traversal(X, 0)) == family_of([X.full])


def test_antichain_roundtrip():
    X = space("a", "b", "c")
    for fam in range(1, full_family(X) + 1):
        if is_upward_closed(X, fam):
            mins = antichain(X, fam)
            assert upward_closure(X, family_of(mins)) == fam


def test_inclusion_hyperspace_type():
    X = space("x1", "x2")
    ih = InclusionHyperspace.from_family(X, family_of([1, 3]))
    assert ih.minimal == (1,)
    assert 3 in ih and 2 not in ih
    assert len(ih) == 2
    with pytest.raises(ValidationError):
        InclusionHyperspace.from_family(X, family_of([1]))


def test_members_iteration():
    assert list(members(family_of([2, 5]))) == [2, 5]
    assert list(members(0)) == []


# -- label <-> mask codec --------------------------------------------------------


def _labels_loop(X, mask):
    # the per-point loop FiniteSpace.labels replaced by a table lookup
    return tuple(p for i, p in enumerate(X.points) if mask >> i & 1)


def _subset_loop(X, labels):
    # the per-label loop FiniteSpace.subset now runs only on a table miss
    mask = 0
    for lab in labels:
        try:
            mask |= 1 << X.points.index(lab)
        except ValueError:
            raise KeyError(f"unknown point {lab!r} in space {X.points}") from None
    return mask


@pytest.mark.parametrize("n", range(1, 7))
def test_labels_and_subset_are_inverse_tables(n):
    X = space(*(f"p{i}" for i in range(n)))
    for m in range(X.full + 1):
        assert X.labels(m) == _labels_loop(X, m)
        assert X.subset(X.labels(m)) == m
        assert X.subset(list(X.labels(m))) == m
        assert X.subset(iter(X.labels(m))) == m


@pytest.mark.parametrize("n", range(1, 5))
def test_subset_accepts_any_order_and_repeats(n):
    X = space(*(f"p{i}" for i in range(n)))
    for m in X.subsets():
        labels = X.labels(m)
        for perm in itertools.permutations(labels):
            assert X.subset(list(perm)) == m == _subset_loop(X, perm)
            for k in range(len(perm)):
                repeated = list(perm) + [perm[k]]
                assert X.subset(repeated) == m == _subset_loop(X, repeated)


def test_subset_point_order_is_the_space_order():
    X = space("b", "a")
    assert X.labels(3) == ("b", "a")
    assert X.subset(["b", "a"]) == X.subset(["a", "b"]) == 3
    assert X.subset(["a"]) == 2


@pytest.mark.parametrize(
    "labels, bad",
    [(["x1", "nowhere"], "'nowhere'"), (["x2", 1], "1"), ([["x1"]], "['x1']"),
     ([None], "None"), ([{"x1": 1}], "{'x1': 1}")],
)
def test_subset_errors_unchanged(labels, bad):
    X = space("x1", "x2")
    with pytest.raises(KeyError) as info:
        X.subset(labels)
    assert info.value.args == (f"unknown point {bad} in space ('x1', 'x2')",)
    with pytest.raises(KeyError) as loop:
        _subset_loop(X, labels)
    assert loop.value.args == info.value.args
