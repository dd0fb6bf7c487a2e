import json

import pytest

from ambrel import cli, crisp, fuzzy, io
from ambrel.catalog import chain, lukasiewicz
from ambrel.cli import main
from ambrel.errors import MalformedInput, SpaceTooLarge, ValidationError
from ambrel.generators import random_capacity, random_fuzzy_rep, random_rep
from ambrel.hyperencoding import encode
from ambrel.hyperspace import space
from ambrel.lattice import meet_tnorm


def test_lattice_roundtrip(chain3, square):
    for lat, tn in ((chain3, lukasiewicz(chain3)), (square, meet_tnorm(square))):
        payload = io.lattice_payload(lat, tn)
        lat2, tn2 = io.lattice_from(payload)
        assert lat2 == lat and tn2 == tn
    lat2, tn2 = io.lattice_from(io.lattice_payload(chain3))
    assert tn2 is None


def test_crisp_rep_roundtrip(x3, y2):
    for seed in range(10):
        rep = random_rep(x3, y2, seed, 0.35)
        assert io.crisp_rep_from(io.crisp_rep_payload(rep)) == rep


def test_seeded_payload_expands(x2, y2):
    payload = {
        "source": ["x1", "x2"],
        "target": ["y1", "y2"],
        "pairs": [[["x1", "x2"], ["y1"]]],
        "seed": True,
    }
    assert io.crisp_rep_from(payload) == crisp.from_seed(x2, y2, [(3, 1)])
    unseeded = dict(payload, pairs=[[["x1", "x2"], ["y1", "y2"]], [["x1"], ["y1", "y2"]],
                                    [["x2"], ["y1", "y2"]]])
    expected = crisp.validate(x2, y2, [(3, 3), (1, 3), (2, 3)])
    assert io.crisp_rep_from(dict(unseeded, seed=False)) == expected
    del unseeded["seed"]
    assert io.crisp_rep_from(unseeded) == expected
    with pytest.raises(ValidationError):  # not closed under the axioms, so not valid as given
        io.crisp_rep_from(dict(payload, seed=False))


@pytest.mark.parametrize("seed", ["false", 1, [], None])
def test_cli_seed_must_be_boolean(tmp_path, capsys, seed):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({
        "source": ["x1", "x2"], "target": ["y1", "y2"],
        "pairs": [[["x1", "x2"], ["y1"]]], "seed": seed,
    }))
    assert run_cli(capsys, "validate", "--rep", str(path)) == (3, "")


def test_fuzzy_rep_roundtrip(x2, y3, chain3, square):
    for lat in (chain3, square):
        for seed in range(10):
            rep = random_fuzzy_rep(x2, y3, lat, seed, 0.5)
            got, _ = io.fuzzy_rep_from(io.fuzzy_rep_payload(rep))
            assert got == rep


def test_capacity_roundtrip(y3, square):
    cap = random_capacity(y3, square, 4)
    assert io.capacity_from(io.capacity_payload(cap)) == cap


def test_hyper_roundtrip(x2, y2, chain3):
    rep = random_fuzzy_rep(x2, y2, chain3, 8, 0.5)
    t = encode(rep)
    assert io.hyper_from(io.hyper_payload(t)) == t


def test_canonical_text_fixpoint(x3, y2, chain3):
    # parse-and-reemit is the identity on canonical output
    rep = random_rep(x3, y2, 6, 0.4)
    text = io.dumps(io.crisp_rep_payload(rep))
    again = io.dumps(io.crisp_rep_payload(io.crisp_rep_from(io.loads(text))))
    assert again == text
    rf = random_fuzzy_rep(x3, y2, chain3, 6, 0.4)
    text = io.dumps(io.fuzzy_rep_payload(rf))
    again = io.dumps(io.fuzzy_rep_payload(io.fuzzy_rep_from(io.loads(text))[0]))
    assert again == text


def test_malformed_payloads_rejected():
    with pytest.raises(MalformedInput):
        io.crisp_rep_from({"nope": 1})
    with pytest.raises(MalformedInput):
        io.space_from("not-a-list")
    with pytest.raises(MalformedInput):
        io.loads("{broken")


def _graded_payload(a_labels, b_labels):
    return {
        "source": ["x1", "x2"],
        "target": ["y1", "y2"],
        "lattice": {"elements": ["0", "1"], "leq": [[True, True], [False, True]]},
        "grades": [[a_labels, b_labels, "1"]],
    }


@pytest.mark.parametrize("a_labels, b_labels", [([], ["y1"]), (["x1"], [])])
def test_graded_empty_subset_rejected(a_labels, b_labels):
    with pytest.raises(ValidationError) as info:
        io.fuzzy_rep_from(_graded_payload(a_labels, b_labels))
    assert info.value.code == "BadPair"
    assert info.value.witness == [a_labels, b_labels]


def _hyper_payload(fam_labels, b_labels):
    return {
        "source": ["x1", "x2"],
        "target": ["y1", "y2"],
        "lattice": {"elements": ["0", "1"], "leq": [[True, True], [False, True]]},
        "triples": [[fam_labels, b_labels, "1"]],
    }


@pytest.mark.parametrize(
    "fam_labels, b_labels",
    [([["x1"]], []), ([], ["y1"]), ([["x1"], []], ["y1"])],
    ids=["empty-target-subset", "empty-family", "empty-family-member"],
)
def test_hyper_empty_parts_rejected(fam_labels, b_labels):
    with pytest.raises(ValidationError) as info:
        io.hyper_from(_hyper_payload(fam_labels, b_labels))
    assert info.value.code == "BadTriple"
    assert info.value.witness == [fam_labels, b_labels]


def _duplicated_payload(first_labels, second_labels):
    payload = _graded_payload(first_labels, ["y1"])
    payload["grades"].append([second_labels, ["y1"], "0"])
    return payload


DUPLICATES = [(["x1"], ["x1"]), (["x1", "x2"], ["x2", "x1"])]


@pytest.mark.parametrize("first_labels, second_labels", DUPLICATES)
def test_graded_duplicate_pair_rejected(first_labels, second_labels):
    with pytest.raises(ValidationError) as info:
        io.fuzzy_rep_from(_duplicated_payload(first_labels, second_labels))
    assert info.value.code == "DuplicatePair"
    assert info.value.witness == [first_labels, ["y1"]]


def test_capacity_duplicate_set_rejected(chain3):
    payload = {
        "space": ["y1", "y2"],
        "lattice": io.lattice_payload(chain3),
        "values": [[["y1"], "1"], [["y1", "y2"], "1"], [["y1"], "0"]],
    }
    with pytest.raises(ValidationError) as info:
        io.capacity_from(payload)
    assert info.value.code == "DuplicateSet"
    assert info.value.witness == ["y1"]


BOOL_LEQ = [[True, True], [False, True]]
NON_SCHEMA_LATTICES = [
    {"elements": ["0", "1"], "leq": [[True, "yes"], [False, True]]},
    {"elements": ["0", "1"], "leq": [[True, True], ["", True]]},
    {"elements": ["0", "1"], "leq": [[1, 1], [0, 1]]},
    {"elements": ["0", "1"], "leq": "yes"},
    {"elements": [0, 1], "leq": BOOL_LEQ},
    {"elements": "01", "leq": BOOL_LEQ},
]


@pytest.mark.parametrize("payload", NON_SCHEMA_LATTICES)
def test_lattice_schema_rejected(payload):
    with pytest.raises(MalformedInput):
        io.lattice_from(payload)


# -- command line -----------------------------------------------------------


@pytest.mark.parametrize("payload", NON_SCHEMA_LATTICES)
def test_cli_validate_lattice_schema_exits_three(tmp_path, capsys, payload):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(payload))
    assert run_cli(capsys, "validate", "--lattice", str(path)) == (3, "")
    path.write_text(json.dumps({"elements": ["0", "1"], "leq": BOOL_LEQ}))
    code, out = run_cli(capsys, "validate", "--lattice", str(path))
    assert code == 0 and json.loads(out)["elements"] == ["0", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_identity_fixpoint(tmp_path, capsys):
    path = tmp_path / "id.json"
    code, out = run_cli(capsys, "gen", "--kind", "identity", "--sizes", "2", "--out", str(path))
    assert code == 0
    code, out2 = run_cli(capsys, "sms", "--rep", str(path))
    assert code == 0
    assert out2 == out  # the identity is its own pseudo-inverse, canonically


def test_cli_gen_determinism(tmp_path, capsys):
    args = ("gen", "--kind", "random-fuzzy", "--sizes", "3,2", "--seed", "42",
            "--density", "0.4", "--lattice", "square")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_validate_and_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "source": ["x1"], "target": ["y1", "y2"],
        "pairs": [[["x1"], ["y1"]]],
    }))
    code, out = run_cli(capsys, "validate", "--rep", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "invalid" and report["error"] == "MissingFullTarget"


@pytest.mark.parametrize("a_labels, b_labels", [([], ["y1"]), (["x1"], [])])
def test_cli_validate_rejects_empty_subset(tmp_path, capsys, a_labels, b_labels):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_graded_payload(a_labels, b_labels)))
    code, out = run_cli(capsys, "validate", "--rep", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "BadPair"


@pytest.mark.parametrize("first_labels, second_labels", DUPLICATES)
def test_cli_validate_rejects_duplicate_pair(tmp_path, capsys, first_labels, second_labels):
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(_duplicated_payload(first_labels, second_labels)))
    code, out = run_cli(capsys, "validate", "--rep", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "DuplicatePair" and report["witness"] == [first_labels, ["y1"]]


def test_cli_compose_cut_capacity_unavoidable(tmp_path, capsys):
    rf = tmp_path / "rf.json"
    run_cli(capsys, "gen", "--kind", "random-fuzzy", "--sizes", "2,2", "--seed", "7",
            "--density", "0.5", "--lattice", "chain3", "--out", str(rf))
    code, out = run_cli(capsys, "compose", "--rep", str(rf), "--rep2", str(rf))
    assert code == 3  # middle spaces differ (y vs x labels)

    sq = tmp_path / "sq.json"
    run_cli(capsys, "gen", "--kind", "random-fuzzy", "--sizes", "2,2", "--seed", "9",
            "--density", "0.5", "--lattice", "chain3", "--out", str(sq))
    code, out = run_cli(capsys, "cut", "--rep", str(sq), "--alpha", "m")
    assert code == 0
    cut_payload = json.loads(out)
    assert {"source", "target", "pairs"} <= cut_payload.keys()

    code, out = run_cli(capsys, "capacity", "--rep", str(sq), "--set", "x1")
    assert code == 0
    assert json.loads(out)["values"][0] == [[], "0"]

    ident = tmp_path / "id.json"
    run_cli(capsys, "gen", "--kind", "identity", "--sizes", "2", "--out", str(ident))
    code, out = run_cli(capsys, "unavoidable", "--rep", str(ident), "--set", "x1")
    assert code == 0
    assert json.loads(out) == [["x1"], ["x1", "x2"]]


def test_cli_encode(tmp_path, capsys):
    rf = tmp_path / "rf.json"
    run_cli(capsys, "gen", "--kind", "random-fuzzy", "--sizes", "2,2", "--seed", "3",
            "--density", "0.6", "--lattice", "square", "--out", str(rf))
    code, out = run_cli(capsys, "encode", "--rep", str(rf))
    assert code == 0
    assert "triples" in json.loads(out)


def test_cli_laws_exit_zero(capsys):
    code, out = run_cli(capsys, "laws", "--suite", "crisp", "--sizes", "2,2,2",
                        "--trials", "15", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["asserted_violations"] == []
    names = {entry["law"] for entry in report["laws"]}
    assert "modular" in names and "associativity" in names


def test_cli_laws_fuzzy(capsys):
    code, out = run_cli(capsys, "laws", "--suite", "fuzzy", "--sizes", "2,2,2",
                        "--trials", "6", "--seed", "2", "--lattice", "square")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "fuzzy"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("laws", "--suite", "fuzzy", "--exhaustive"), "--exhaustive"),
        (("laws", "--suite", "fuzzy", "--sizes", "1,1,1", "--exhaustive", "--lattice", "square"),
         "--exhaustive"),
        (("laws", "--suite", "crisp", "--lattice", "square"), "--lattice"),
        (("laws", "--lattice", "chain3", "--exhaustive"), "--lattice"),
    ],
)
def test_cli_laws_flags_the_suite_ignores_exit_three(capsys, argv, flag):
    # a flag the chosen suite would ignore is refused, not silently dropped
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_cli_search_exit_codes(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, out = run_cli(capsys, "search", "--law", "modular", "--sizes", "2,2,2",
                        "--exhaustive", "--out", str(out_path))
    verdict = json.loads(out_path.read_text())
    assert verdict["verdict"] in ("counterexample", "no_counterexample")
    assert code == (2 if verdict["verdict"] == "counterexample" else 0)


def test_cli_malformed_exits_three(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("{]")
    assert run_cli(capsys, "validate", "--rep", str(bad))[0] == 3
    assert run_cli(capsys, "frobnicate")[0] == 3
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")  # not UTF-8
    assert run_cli(capsys, "validate", "--rep", str(binary)) == (3, "")
    assert run_cli(capsys, "gen", "--kind", "nope")[0] == 3


def test_cli_gen_geometry(capsys):
    code, out = run_cli(capsys, "gen", "--kind", "projection", "--sizes", "2,2,2,2")
    assert code == 0
    code, out = run_cli(capsys, "gen", "--kind", "translation", "--sizes", "1,1,3,1")
    assert code == 0
    code, out = run_cli(capsys, "gen", "--kind", "metric", "--sizes", "3", "--lattice", "chain4")
    assert code == 0
    code, out = run_cli(capsys, "gen", "--kind", "counterexample", "--sizes", "2,2",
                        "--lattice", "square")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["missing_grade"] == "1"


def test_cli_counterexample_on_chain_reports(capsys):
    code, out = run_cli(capsys, "gen", "--kind", "counterexample", "--sizes", "2,2",
                        "--lattice", "chain3")
    assert code == 1
    assert json.loads(out)["verdict"] == "no_counterexample"


def _lattice_file(tmp_path, **fields):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"elements": ["0", "1"], "leq": BOOL_LEQ, **fields}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--kind", "metric", "--sizes", "three"),
        ("gen", "--kind", "translation", "--sizes", "1,1,3,x"),
        ("gen", "--kind", "projection", "--sizes", "2.5,2,2,2"),
        ("gen", "--kind", "random", "--sizes", "2,2", "--density", "1.5"),
        ("gen", "--kind", "random-fuzzy", "--sizes", "2,2", "--density", "-0.1"),
        ("gen", "--kind", "random", "--sizes", "2,2", "--density", "nan"),
        ("laws", "--sizes", "3,2,2", "--exhaustive"),
        ("search", "--law", "modular", "--sizes", "2,3,2", "--exhaustive"),
        ("sms",),
    ],
)
def test_cli_bad_arguments_exit_three(capsys, argv):
    assert run_cli(capsys, *argv) == (3, "")


def test_cli_bad_lattice_files_exit_three(tmp_path, capsys):
    ragged = _lattice_file(tmp_path, leq=[[True, True], [False]])
    assert run_cli(capsys, "validate", "--lattice", ragged) == (3, "")
    ragged = _lattice_file(tmp_path, tnorm=[["0", "0"], ["1"]])
    assert run_cli(capsys, "validate", "--lattice", ragged) == (3, "")
    # rows are lists of labels, not strings spelling them out
    strings = _lattice_file(tmp_path, tnorm=["00", "01"])
    assert run_cli(capsys, "validate", "--lattice", strings) == (3, "")


def test_cli_unknown_alpha_exits_three(tmp_path, capsys):
    rf = tmp_path / "rf.json"
    run_cli(capsys, "gen", "--kind", "random-fuzzy", "--sizes", "2,2", "--seed", "9",
            "--lattice", "chain3", "--out", str(rf))
    assert run_cli(capsys, "cut", "--rep", str(rf), "--alpha", "nowhere") == (3, "")


def test_cli_internal_errors_propagate(tmp_path, capsys, monkeypatch):
    path = tmp_path / "id.json"
    run_cli(capsys, "gen", "--kind", "identity", "--sizes", "2", "--out", str(path))

    def broken(rep):
        raise ValueError("internal fault")

    monkeypatch.setattr(crisp, "sms", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["sms", "--rep", str(path)])


# -- writers and readers through the per-space label tables ---------------------


def _names(X, mask):
    return [p for i, p in enumerate(X.points) if mask >> i & 1]


def _lattice_payload_loop(lat, tnorm=None):
    n = lat.size
    return {
        "elements": list(lat.elements),
        "leq": [[bool(lat.leq[i, j]) for j in range(n)] for i in range(n)],
        "tnorm": None if tnorm is None else [
            [lat.elements[int(tnorm.table[i, j])] for j in range(n)] for i in range(n)
        ],
    }


def _crisp_payload_loop(rep):
    return {
        "source": list(rep.source.points),
        "target": list(rep.target.points),
        "pairs": [[_names(rep.source, a), _names(rep.target, b)] for a, b in rep.pairs()],
    }


def _fuzzy_payload_loop(rep, tnorm=None):
    lat = rep.lattice
    grades = []
    for a in rep.source.subsets():
        for b in rep.target.subsets():
            g = rep.grade(a, b)
            if b == rep.target.full or g == lat.bottom:
                continue
            grades.append([_names(rep.source, a), _names(rep.target, b), lat.elements[g]])
    return {
        "source": list(rep.source.points),
        "target": list(rep.target.points),
        "lattice": _lattice_payload_loop(lat, tnorm),
        "grades": grades,
    }


def _hyper_payload_loop(t):
    triples = []
    for fam, b, alpha in t.triples():
        sets = [_names(t.source, a) for a in range(1, t.source.full + 1) if fam >> (a - 1) & 1]
        triples.append([sets, _names(t.target, b), t.lattice.elements[alpha]])
    return {
        "source": list(t.source.points),
        "target": list(t.target.points),
        "lattice": _lattice_payload_loop(t.lattice),
        "triples": triples,
    }


FRAMES = [(1, 1), (1, 3), (2, 2), (3, 1), (3, 4), (4, 2), (5, 5), (6, 3), (2, 6), (6, 6)]


def _frame(n, m):
    return space(*(f"x{i}" for i in range(n))), space(*(f"y{i}" for i in range(m)))


@pytest.mark.parametrize("n, m", FRAMES)
def test_writers_match_the_per_subset_loops(n, m, chain3, square):
    X, Y = _frame(n, m)
    lats = [chain3, square, chain(16)]

    def same(payload, expected):  # dumps also tells true from 1
        assert payload == expected and io.dumps(payload) == io.dumps(expected)

    for seed in range(3):
        density = (0.1, 0.4, 0.8)[seed]
        rep = random_rep(X, Y, seed, density)
        same(io.crisp_rep_payload(rep), _crisp_payload_loop(rep))
        for lat in lats:
            rf = random_fuzzy_rep(X, Y, lat, seed, density)
            tnorms = [None, meet_tnorm(lat)] + ([lukasiewicz(lat)] if lat is chain3 else [])
            for tn in tnorms:
                payload = io.fuzzy_rep_payload(rf, tn)
                same(payload, _fuzzy_payload_loop(rf, tn))
                assert io.fuzzy_rep_from(payload) == (rf, tn)
            if n <= 3 and lat is not lats[-1] and seed == 0:  # the encoding gate
                t = encode(rf)
                same(io.hyper_payload(t), _hyper_payload_loop(t))
                assert io.hyper_from(io.hyper_payload(t)) == t


def test_readers_take_labels_in_any_order_with_repeats(chain3):
    X, Y = _frame(3, 2)
    rf = random_fuzzy_rep(X, Y, chain3, 4, 0.6)
    payload = io.fuzzy_rep_payload(rf)
    for entry in payload["grades"]:
        entry[0] = entry[0][::-1] + entry[0][:1]
        entry[1] = entry[1][::-1]
    assert io.fuzzy_rep_from(payload)[0] == rf
    rep = random_rep(X, Y, 4, 0.4)
    payload = io.crisp_rep_payload(rep)
    for pair in payload["pairs"]:
        pair[0] = pair[0][::-1]
        pair[1] = pair[1] + pair[1]
    assert io.crisp_rep_from(payload) == rep


_LAT2 = {"elements": ["0", "1"], "leq": [[True, True], [False, True]]}


# (reader, payload, message), the messages as the per-label loops gave them
READER_ERRORS = [
    ("crisp_rep_from",
     {"source": ["x1", "x2"], "target": ["y1"], "pairs": [[["x1", "nowhere"], ["y1"]]]},
     'bad pair list: "unknown point \'nowhere\' in space (\'x1\', \'x2\')"'),
    ("crisp_rep_from",
     {"source": ["x1", "x2"], "target": ["y1"], "pairs": [[["x2", 1], ["y1"]]]},
     'bad pair list: "unknown point 1 in space (\'x1\', \'x2\')"'),
    ("crisp_rep_from",
     {"source": ["x1", "x2"], "target": ["y1"], "pairs": [[["x1"], [["y1"]]]]},
     'bad pair list: "unknown point [\'y1\'] in space (\'y1\',)"'),
    ("crisp_rep_from",
     {"source": ["x1", "x2"], "target": ["y1"], "pairs": [["x1", ["y1"]]]},
     "bad pair list: a subset is a list of point labels"),
    ("fuzzy_rep_from",
     {"source": ["x1"], "target": ["y1", "y2"], "lattice": _LAT2, "grades": [[["x1"], ["y3"], "1"]]},
     'bad grade list: "unknown point \'y3\' in space (\'y1\', \'y2\')"'),
    ("fuzzy_rep_from",
     {"source": ["x1"], "target": ["y1", "y2"], "lattice": _LAT2, "grades": [[[None], ["y1"], "1"]]},
     'bad grade list: "unknown point None in space (\'x1\',)"'),
    ("fuzzy_rep_from",
     {"source": ["x1"], "target": ["y1", "y2"], "lattice": _LAT2, "grades": [[["x1"], ["y1"], "2"]]},
     'bad grade list: "unknown lattice element \'2\'"'),
    ("fuzzy_rep_from",
     {"source": ["x1"], "target": ["y1", "y2"], "lattice": _LAT2, "grades": [[["x1"], ["y1"], ["1"]]]},
     'bad grade list: "unknown lattice element [\'1\']"'),
    ("hyper_from",
     {"source": ["x1"], "target": ["y1"], "lattice": _LAT2, "triples": [[[["x1"], ["x2"]], ["y1"], "1"]]},
     'bad triple list: "unknown point \'x2\' in space (\'x1\',)"'),
    ("hyper_from",
     {"source": ["x1"], "target": ["y1"], "lattice": _LAT2, "triples": [[[["x1"]], [{"y1": 0}], "1"]]},
     'bad triple list: "unknown point {\'y1\': 0} in space (\'y1\',)"'),
    ("capacity_from",
     {"space": ["x1"], "lattice": _LAT2, "values": [[["x1", "x1", "x9"], "1"]]},
     'bad value list: "unknown point \'x9\' in space (\'x1\',)"'),
]


@pytest.mark.parametrize("reader, payload, message", READER_ERRORS)
def test_reader_error_messages_unchanged(reader, payload, message):
    with pytest.raises(MalformedInput) as info:
        getattr(io, reader)(payload)
    assert str(info.value) == message


def test_lattice_index_errors_unchanged(chain3):
    assert [chain3.index(e) for e in chain3.elements] == [0, 1, 2]
    for label in ("2", 1, None, ["1"], {"m": 0}):
        with pytest.raises(KeyError) as info:
            chain3.index(label)
        assert info.value.args == (f"unknown lattice element {label!r}",)


def test_hyper_reader_gates_before_allocating(chain3):
    # 5 and 6 source points would allocate 2^31 and 2^63 family rows
    for n in (4, 5, 6):
        payload = {
            "source": [f"x{i}" for i in range(n)], "target": ["y1"],
            "lattice": io.lattice_payload(chain3), "triples": [[[["x0"]], ["y1"], "1"]],
        }
        with pytest.raises(SpaceTooLarge):
            io.hyper_from(payload)


# -- the command line: embedded t-norms, the parser built once ------------------


def _identity_file(tmp_path, name, lat, tn):
    path = tmp_path / name
    payload = io.fuzzy_rep_payload(fuzzy.identity(space("x1", "x2"), lat), tn)
    path.write_text(io.dumps(payload))
    return str(path)


@pytest.mark.parametrize("verb", ["compose", "join", "meet"])
def test_cli_conflicting_embedded_tnorms_exit_three(tmp_path, capsys, chain3, verb):
    meet_file = _identity_file(tmp_path, "meet.json", chain3, meet_tnorm(chain3))
    luk_file = _identity_file(tmp_path, "luk.json", chain3, lukasiewicz(chain3))
    assert run_cli(capsys, verb, "--rep", meet_file, "--rep2", luk_file) == (3, "")
    assert run_cli(capsys, verb, "--rep", luk_file, "--rep2", meet_file) == (3, "")


def test_cli_one_or_equal_embedded_tnorms_compose(tmp_path, capsys, chain3):
    luk_file = _identity_file(tmp_path, "luk.json", chain3, lukasiewicz(chain3))
    luk_again = _identity_file(tmp_path, "luk2.json", chain3, lukasiewicz(chain3))
    plain = _identity_file(tmp_path, "plain.json", chain3, None)
    code, out = run_cli(capsys, "compose", "--rep", luk_file, "--rep2", plain)
    assert code == 0
    assert json.loads(out)["lattice"]["tnorm"] == [["0", "0", "0"], ["0", "0", "m"], ["0", "m", "1"]]
    assert run_cli(capsys, "compose", "--rep", plain, "--rep2", luk_file) == (0, out)
    assert run_cli(capsys, "compose", "--rep", luk_file, "--rep2", luk_again) == (0, out)


def test_cli_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_cli_cached_parser_carries_no_out_path(tmp_path, capsys):
    path = tmp_path / "id.json"
    code, out = run_cli(capsys, "gen", "--kind", "identity", "--sizes", "2", "--out", str(path))
    assert code == 0 and path.read_text() == out
    path.unlink()
    assert run_cli(capsys, "gen", "--kind", "identity", "--sizes", "2") == (0, out)
    assert not path.exists()


def test_cli_cached_parser_recovers_from_errors(capsys):
    argv = ("gen", "--kind", "random", "--sizes", "3,2")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, "gen", "--kind", "random", "--sizes", "3,2", "--seed", "x") == (3, "")
    assert run_cli(capsys, "gen", "--bogus") == (3, "")
    assert run_cli(capsys, *argv, "--seed", "9", "--density", "0.9")[0] == 0
    assert run_cli(capsys, *argv) == (0, out)  # defaults, not the last call's values
