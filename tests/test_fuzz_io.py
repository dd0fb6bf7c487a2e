"""Property-based fuzzing of the payload readers and of ``ambrel validate``.

Each example starts from a valid payload of one of the five kinds (crisp
and graded representations, capacities, ternary hyperrelations and
lattices), applies a few random edits (a node replaced by arbitrary JSON,
a key dropped, a list reordered or given a repeated entry, a label
swapped for another), and feeds the result both to the ``io`` reader and,
written to a file, to ``cli.main(["validate", ...])``.  Every outcome
must be a value, a ``ValidationError`` (exit 1) or ``MalformedInput``,
``SpaceMismatch`` or ``SpaceTooLarge`` (exit 3), never a traceback, and
every accepted payload must come back byte-identically through its
writer.  Texts that repeat a key within one object, or that hold a
``NaN`` or ``Infinity`` constant, must end in ``MalformedInput``.
Examples are derandomized, so a run is reproducible.
"""

from __future__ import annotations

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambrel import io
from ambrel.catalog import boolean_square, chain, lukasiewicz
from ambrel.cli import main
from ambrel.errors import MalformedInput, SpaceMismatch, SpaceTooLarge, ValidationError
from ambrel.generators import random_capacity, random_fuzzy_rep, random_hyper_triples, random_rep
from ambrel.hyperencoding import TernaryHyperRelation
from ambrel.hyperspace import space
from ambrel.lattice import meet_tnorm

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# what the command line maps to exit 1 (ValidationError) or 3 (the rest)
REJECTED = (ValidationError, MalformedInput, SpaceMismatch, SpaceTooLarge)

LATTICES = [chain(2), chain(3), boolean_square()]

# labels of the spaces and lattices above, and two that belong to none
LABELS = ["x1", "x2", "x3", "y1", "y2", "0", "m", "1", "a", "b", "nowhere", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.sampled_from(LABELS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(LABELS), inner, max_size=2),
    max_leaves=6,
)


def _spaces(n, m):
    return space(*(f"x{i + 1}" for i in range(n))), space(*(f"y{i + 1}" for i in range(m)))


def _valid(kind: str, seed: int):
    n, m = 1 + seed % 3, 1 + seed // 3 % 2
    X, Y = _spaces(n, m)
    lat = LATTICES[seed % len(LATTICES)]
    if kind == "crisp":
        payload = io.crisp_rep_payload(random_rep(X, Y, seed, 0.3))
        if seed % 2:
            payload["seed"] = True
        return payload
    if kind == "fuzzy":
        tn = [None, meet_tnorm(lat), lukasiewicz(lat) if lat is LATTICES[1] else None][seed % 3]
        return io.fuzzy_rep_payload(random_fuzzy_rep(X, Y, lat, seed, 0.4), tn)
    if kind == "capacity":
        return io.capacity_payload(random_capacity(Y, lat, seed))
    if kind == "hyper":
        t = TernaryHyperRelation.from_triples(X, Y, lat, random_hyper_triples(X, Y, lat, seed, 4))
        return io.hyper_payload(t)
    return io.lattice_payload(lat, meet_tnorm(lat) if seed % 2 else None)


def _read(kind: str, payload):
    if kind == "crisp":
        return io.crisp_rep_from(payload)
    if kind == "fuzzy":
        return io.fuzzy_rep_from(payload)
    if kind == "capacity":
        return io.capacity_from(payload)
    if kind == "hyper":
        return io.hyper_from(payload)
    return io.lattice_from(payload)


def _write(kind: str, value):
    if kind == "crisp":
        return io.crisp_rep_payload(value)
    if kind == "fuzzy":
        return io.fuzzy_rep_payload(*value)
    if kind == "capacity":
        return io.capacity_payload(value)
    if kind == "hyper":
        return io.hyper_payload(value)
    return io.lattice_payload(*value)


def _paths(node, here=()):
    yield here
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, here + (i,))
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, here + (key,))


def _edit(payload, data):
    """One random edit of a JSON tree; returns the edited tree."""
    path = data.draw(st.sampled_from(list(_paths(payload))))
    how = data.draw(st.sampled_from(["replace", "label", "drop", "reverse", "repeat"]))
    if how == "replace" or not path:
        new = data.draw(json_values)
        return new if not path else _set(payload, path, new)
    parent_path, last = path[:-1], path[-1]
    parent = _get(payload, parent_path)
    if how == "label":
        parent[last] = data.draw(st.sampled_from(LABELS))
    elif how == "drop":
        del parent[last]
    elif isinstance(parent, list):  # reverse or repeat, at the enclosing list
        if how == "reverse":
            parent.reverse()
        else:
            parent.append(json.loads(json.dumps(parent[last])))
    return payload


def _get(node, path):
    for step in path:
        node = node[step]
    return node


def _set(payload, path, value):
    _get(payload, path[:-1])[path[-1]] = value
    return payload


@st.composite
def fuzzed(draw, kind):
    payload = _valid(kind, draw(st.integers(0, 11)))
    for _ in range(draw(st.integers(0, 3))):
        payload = _edit(payload, draw(st.data()))
    return payload


def _validate(path: str, kind: str) -> tuple[int, str]:
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(["validate", "--lattice" if kind == "lattice" else "--rep", path])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", ["crisp", "fuzzy", "capacity", "hyper", "lattice"])
def test_fuzzed_payloads_end_in_a_value_or_a_report(kind, workdir):
    path = str(workdir / f"{kind}.json")

    @FUZZ
    @given(fuzzed(kind))
    def check(payload):
        try:
            value = _read(kind, payload)
        except REJECTED as e:
            verdict = 1 if isinstance(e, ValidationError) else 3
        else:
            verdict = 0
            text = io.dumps(_write(kind, value))
            again = _read(kind, io.loads(text))
            assert again == value
            assert io.dumps(_write(kind, again)) == text

        with open(path, "w") as fh:
            fh.write(json.dumps(payload))
        code, out = _validate(path, kind)
        assert code in (0, 1, 3)
        if code == 3:
            assert out == ""
        else:
            assert json.loads(out)["verdict"] == ("valid" if code == 0 else "invalid")
        # validate --rep reads what carries "grades" as graded, the rest as crisp
        if kind == "lattice" or kind == ("fuzzy" if io.is_fuzzy_payload(payload) else "crisp"):
            assert code == verdict

    check()


@FUZZ
@given(st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
def test_fuzzed_bytes_exit_three_or_report(workdir, raw):
    path = workdir / "raw.json"
    path.write_bytes(raw)
    for kind in ("crisp", "lattice"):
        code, out = _validate(str(path), kind)
        assert code in (0, 1, 3)
        assert (out == "") == (code == 3)


@pytest.mark.parametrize(
    "raw",
    [b"1" * 5000, b"[" * 100000, b"\xff\xfe", b'{"source": ["x1"], "target": ["y1"], "pairs": 10e999}'],
    ids=["long-integer", "deep-nesting", "not-utf8", "infinite-number"],
)
def test_hostile_files_exit_three(workdir, raw):
    path = workdir / "hostile.json"
    path.write_bytes(raw)
    assert _validate(str(path), "crisp") == (3, "")
    assert _validate(str(path), "lattice") == (3, "")


def _dumps_with(node, path, write) -> str:
    """JSON text of ``node`` with the node at ``path`` written by ``write``."""
    if not path:
        return write(node)
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        items = (
            json.dumps(k) + ":" + (_dumps_with(v, rest, write) if k == head else json.dumps(v))
            for k, v in node.items()
        )
        return "{" + ",".join(items) + "}"
    return "[" + ",".join(
        _dumps_with(v, rest, write) if i == head else json.dumps(v) for i, v in enumerate(node)
    ) + "]"


@pytest.mark.parametrize("kind", ["crisp", "fuzzy", "capacity", "hyper", "lattice"])
def test_repeated_keys_exit_three(kind, workdir):
    # json.loads would keep the last of two equal keys; the reader refuses both
    path = workdir / f"repeated-{kind}.json"

    @FUZZ
    @given(st.data())
    def check(data):
        payload = _valid(kind, data.draw(st.integers(0, 11)))
        objects = [p for p in _paths(payload) if isinstance(node := _get(payload, p), dict) and node]
        at = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(sorted(_get(payload, at))))
        extra = json.dumps(key) + ":" + json.dumps(data.draw(json_values))
        before = data.draw(st.booleans())

        def repeat(obj):
            items = [json.dumps(k) + ":" + json.dumps(v) for k, v in obj.items()]
            return "{" + ",".join([extra, *items] if before else [*items, extra]) + "}"

        text = _dumps_with(payload, at, repeat)
        with pytest.raises(MalformedInput, match="repeated key"):
            io.loads(text)
        path.write_text(text)
        assert _validate(str(path), kind) == (3, "")

    check()


@pytest.mark.parametrize("kind", ["crisp", "fuzzy", "capacity", "hyper", "lattice"])
def test_non_finite_constants_exit_three(kind, workdir):
    # NaN, Infinity and -Infinity are not JSON, though json.loads reads them
    path = workdir / f"non-finite-{kind}.json"

    @FUZZ
    @given(st.data())
    def check(data):
        payload = _valid(kind, data.draw(st.integers(0, 11)))
        at = data.draw(st.sampled_from(list(_paths(payload))))
        constant = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        text = _dumps_with(payload, at, lambda _: constant)
        with pytest.raises(MalformedInput, match="not a JSON number"):
            io.loads(text)
        path.write_text(text)
        assert _validate(str(path), kind) == (3, "")

    check()


def test_a_repeated_key_is_refused_not_read_as_its_last_value(workdir):
    # a first "pairs" naming an unknown point, then a valid one; a lattice
    # whose "tnorm" is null and then a table
    X, Y = _spaces(2, 1)
    crisp = io.crisp_rep_payload(random_rep(X, Y, 0, 0.3))
    head = '{"source":["x1","x2"],"target":["y1"],"pairs":[[["zz"],["y1"]]],'
    lat = io.lattice_payload(chain(3), meet_tnorm(chain(3)))
    cases = [
        ("crisp", head + '"pairs":' + json.dumps(crisp["pairs"]) + "}"),
        ("lattice", '{"elements":%s,"leq":%s,"tnorm":null,"tnorm":%s}'
         % tuple(json.dumps(lat[k]) for k in ("elements", "leq", "tnorm"))),
    ]
    for kind, text in cases:
        path = workdir / f"repeated-{kind}.json"
        path.write_text(text)
        assert _validate(str(path), kind) == (3, "")
