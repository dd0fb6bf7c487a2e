"""Golden digests of the command-line output, and a demo smoke test.

Each CLI case runs ``ambrel.cli.main`` in process, in one scratch
directory, in the order listed (later cases read the files earlier ones
write), and hashes the exit code together with the bytes written to
standard output.  The cases are the README examples plus fixed-seed runs
of ``gen`` (every kind), ``sms``, ``cut``, ``encode``, ``laws`` and
``search --exhaustive`` at sizes 2,2,2.  A changed digest means changed
canonical output.  When a change of output is intended, print the new
digests with ``PYTHONPATH=src python tests/test_golden.py`` and say why
in the change.
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ambrel.cli import main

REPO = Path(__file__).resolve().parent.parent

CASES: list[tuple[str, list[str]]] = [
    # README command-line examples, in README order
    ("readme-gen-identity", ["gen", "--kind", "identity", "--sizes", "2", "--out", "id.json"]),
    ("readme-sms", ["sms", "--rep", "id.json"]),
    (
        "readme-gen-random-fuzzy",
        ["gen", "--kind", "random-fuzzy", "--sizes", "3,2", "--seed", "42",
         "--density", "0.4", "--lattice", "square", "--out", "rf.json"],
    ),
    ("readme-cut", ["cut", "--rep", "rf.json", "--alpha", "a"]),
    ("readme-compose", ["compose", "--rep", "r.json", "--rep2", "s.json", "--tnorm", "lukasiewicz"]),
    ("readme-capacity", ["capacity", "--rep", "rf.json", "--set", "x1"]),
    ("readme-unavoidable", ["unavoidable", "--rep", "id.json", "--set", "x1"]),
    ("readme-encode", ["encode", "--rep", "rf.json"]),
    ("readme-validate", ["validate", "--rep", "rf.json"]),
    ("readme-laws", ["laws", "--suite", "crisp", "--sizes", "2,2,2", "--exhaustive"]),
    (
        "readme-search",
        ["search", "--law", "modular", "--sizes", "2,2,2", "--exhaustive", "--out", "verdict.json"],
    ),
    # gen, every kind
    ("gen-identity-3", ["gen", "--kind", "identity", "--sizes", "3", "--out", "id3.json"]),
    ("gen-top", ["gen", "--kind", "top", "--sizes", "2,3"]),
    ("gen-bot", ["gen", "--kind", "bot", "--sizes", "3,2"]),
    (
        "gen-random",
        ["gen", "--kind", "random", "--sizes", "3,3", "--seed", "5", "--density", "0.2",
         "--out", "cr.json"],
    ),
    (
        "gen-random-fuzzy-chain4",
        ["gen", "--kind", "random-fuzzy", "--sizes", "3,3", "--seed", "11",
         "--lattice", "chain4", "--out", "rf4.json"],
    ),
    (
        "gen-random-fuzzy-chain2",
        ["gen", "--kind", "random-fuzzy", "--sizes", "2,2", "--seed", "3",
         "--lattice", "chain2", "--out", "rf2.json"],
    ),
    ("gen-metric", ["gen", "--kind", "metric", "--sizes", "3", "--lattice", "chain3"]),
    ("gen-translation", ["gen", "--kind", "translation", "--sizes", "1,1,3,1"]),
    ("gen-projection", ["gen", "--kind", "projection", "--sizes", "2,1,3,2", "--out", "pr.json"]),
    ("gen-counterexample", ["gen", "--kind", "counterexample", "--sizes", "2,2"]),
    ("gen-counterexample-chain", ["gen", "--kind", "counterexample", "--sizes", "2,2", "--lattice", "chain3"]),
    # sms, cut and encode on the generated files
    ("sms-identity-3", ["sms", "--rep", "id3.json"]),
    ("sms-random", ["sms", "--rep", "cr.json"]),
    ("sms-projection", ["sms", "--rep", "pr.json"]),
    ("sms-fuzzy-square", ["sms", "--rep", "rf.json"]),
    ("sms-fuzzy-chain4", ["sms", "--rep", "rf4.json"]),
    ("sms-fuzzy-chain2", ["sms", "--rep", "rf2.json"]),
    ("cut-0", ["cut", "--rep", "rf.json", "--alpha", "0"]),
    ("cut-b", ["cut", "--rep", "rf.json", "--alpha", "b"]),
    ("cut-1", ["cut", "--rep", "rf.json", "--alpha", "1"]),
    ("cut-m2", ["cut", "--rep", "rf4.json", "--alpha", "m2"]),
    ("encode-chain4", ["encode", "--rep", "rf4.json"]),
    ("encode-chain2", ["encode", "--rep", "rf2.json"]),
    ("encode-chain3", ["encode", "--rep", "r.json"]),
    ("sms-fuzzy-chain3", ["sms", "--rep", "s.json"]),
    ("validate-invalid", ["validate", "--rep", "bad.json"]),
    # law suites and searches
    ("laws-fuzzy", ["laws", "--suite", "fuzzy", "--sizes", "2,2,2", "--trials", "20", "--seed", "4"]),
    ("search-modular", ["search", "--law", "modular", "--sizes", "2,2,2", "--exhaustive"]),
    (
        "search-meet-distributivity",
        ["search", "--law", "meet-distributivity", "--sizes", "2,2,2", "--exhaustive"],
    ),
    ("search-anti-involution", ["search", "--law", "anti-involution", "--sizes", "2,2,2", "--exhaustive"]),
    ("search-contravariance", ["search", "--law", "contravariance", "--sizes", "2,2,2", "--exhaustive"]),
]

# The README's compose example reads two graded files that no verb can
# write (gen names every space x or y), so they are given here, with one
# invalid file.
_CHAIN3 = {
    "elements": ["0", "m", "1"],
    "leq": [[True, True, True], [False, True, True], [False, False, True]],
    "tnorm": None,
}
FILES = {
    "r.json": {
        "source": ["x1", "x2"],
        "target": ["y1", "y2"],
        "lattice": _CHAIN3,
        "grades": [[["x1"], ["y1"], "1"], [["x1"], ["y2"], "m"], [["x2"], ["y2"], "m"]],
    },
    "s.json": {
        "source": ["y1", "y2"],
        "target": ["z1", "z2"],
        "lattice": _CHAIN3,
        "grades": [[["y1"], ["z1"], "m"], [["y2"], ["z2"], "1"], [["y2"], ["z1"], "m"]],
    },
    # grade m at {z1} but bottom at its superset {z1, z2}
    "bad.json": {
        "source": ["y1", "y2"],
        "target": ["z1", "z2", "z3"],
        "lattice": _CHAIN3,
        "grades": [[["y1"], ["z1"], "m"], [["y2"], ["z2", "z3"], "1"]],
    },
}

GOLDEN: dict[str, str] = {
    'readme-gen-identity': 'a4b00c9f5d052976f91b3f3e39534d49b730be4026bf709efd539e2f797f1d68',
    'readme-sms': 'a4b00c9f5d052976f91b3f3e39534d49b730be4026bf709efd539e2f797f1d68',
    'readme-gen-random-fuzzy': '74698da4fe964ffec4731941bc5ab5646f4135075fed692ead3cb771949bea49',
    'readme-cut': '7ed8b03b576c2be3a48b86d33ccc06f949507c484fed5225f3dae6d646b308c9',
    'readme-compose': '309365beead47c61f9ec2b385e2e36727386575dcf549ca79053ccf94bfac803',
    'readme-capacity': '487bd2bdf67c399a0de0030e49eb5c42cea5ac9abd6d3beb6b21535335337e6c',
    'readme-unavoidable': '9e0c426ac34081e9bd74c1f1ba2a9bb0b67418e16a53c580b1343ebb37e81a8e',
    'readme-encode': '34fd67846dc8e5cac8effb0785ba2cb00383cd1196586eaf4db689591289ea5e',
    'readme-validate': 'd10d41eabd7341c88a15b910eb0f6941c08263c051c735b9a411ecd8d1f35935',
    'readme-laws': '5179a255ffd1eb2a7e49401a9617f055641def1c886bbb9d3f0e80444e009e9e',
    'readme-search': '80334d72f15ba10da29fa3ecc8d8dfc29e629650ce8a18925ee0b984d80da879',
    'gen-identity-3': '03ecb192130afe12ff9e3225ccb3862cd8bebbff63ee5066706ac5f88c8f65d9',
    'gen-top': '6f6860b57460351e25bac076552ebce3216273c453d33b4e1b89b81f43f955ad',
    'gen-bot': '8dc47627a7f00af5317ce4a1e6469bf63d7ec3948f7ce3e725a3568ae6d80127',
    'gen-random': 'f45c2f0e469a8256450676c809d7c21b7dda176c04439aa1d730eeee81ce7547',
    'gen-random-fuzzy-chain4': '46c12a80d45e1720c6a11afda322aafe64f4717dc9eaeb5387129e0ec9407269',
    'gen-random-fuzzy-chain2': 'a27b17c8810f8d9f751011819ed3e97f01fba0f96e2914b261dfbe595bb06611',
    'gen-metric': '9912b5cf5c4a25ea582a5200162c8f97233658077c052b21aab4b51dd7bb9b26',
    'gen-translation': '7cc0a0b46ee74c4c5c3cfa6fce7eb4a974a803c4ff768ef246835ded8690cc43',
    'gen-projection': '1e52f26d494d5bd138c884dabc692ed751dbe8ed48f9d2588e7b68f665890d77',
    'gen-counterexample': 'df1717ffe68e6e7dfe02fdeb118daaca8f5c52c2662bb308cdad522ddc415544',
    'gen-counterexample-chain': 'ca8816ef95b46d59dc274374bee73f13b3d7a86482a315df805e9cdb91fec2c1',
    'sms-identity-3': '03ecb192130afe12ff9e3225ccb3862cd8bebbff63ee5066706ac5f88c8f65d9',
    'sms-random': 'b25dafb888c7980b184427c432ff3cd88513c9388babc909ef64921ffb8b570a',
    'sms-projection': 'a196bc3d8f6dc441d2b1417f7fac3d0c20d8ce207078a5423af00ef4246098b9',
    'sms-fuzzy-square': '9f16b86afea7e823df7f9403fc9fe387f31279421c3bf01456eb4afad884ccfb',
    'sms-fuzzy-chain4': 'db7283a7b34b56500711d3789a9bee2c250820b622cf6e02e3e86dc86ee02f10',
    'sms-fuzzy-chain2': 'bd9fb24c00ef11292e19ea818c25c90f69a12c39c071c68ac360244c63dc068e',
    'cut-0': 'f2fe3e9288a3ca663740928edd737830c4cf8b044fff9c0f156aaa18cc2b1fbb',
    'cut-b': '40e33ffd3e55e2b78b1035ec0cf9dbdbf17c7d0e10b964759c48fbdeee84f5d2',
    'cut-1': '82d1b09b28896fca5d997481aca5e95a388e8ebb296e07d76ab61a60b52e335e',
    'cut-m2': 'e260ddb96b06612003d86bfd2a0f214803eadff644192b98727ce148ebf152b1',
    'encode-chain4': 'd6a426108fa00b2004ba830b40aa4fd71506b9bd193973c49660c3158321aad8',
    'encode-chain2': 'ef7cd391b95d27e5933d8f963533a29b61b3e9439035b220ebf7985932304ec3',
    'encode-chain3': '130fa2ec4983d261650724010f44ca2d652860345842dcb43640f1cc9222cdec',
    'sms-fuzzy-chain3': '6edcf98925bdea6315af5bda6509086f59b05f45bf082a7ae77a4db0316a422f',
    'validate-invalid': 'e4a91229412461a28e6ab7563beca91d6e4b50aad97555b926c21765087a071a',
    'laws-fuzzy': 'da4e889295f7361a96c7a983a527744ebb0322b1fad733395027ce14c59f8227',
    'search-modular': '80334d72f15ba10da29fa3ecc8d8dfc29e629650ce8a18925ee0b984d80da879',
    'search-meet-distributivity': '53719d49de43ae3afec2837fedbaeef9eb76e76bc5395f228a844dd9e99fcb11',
    'search-anti-involution': '5c61241e6a509b1ec5689f3df90c5ebe7ed45af05915aebf5dd1c8cad7555a59',
    'search-contravariance': 'a0e3c4e524e86ef64605e346f6a09c2e40e7e3b3f93b6bc995816ac57a96f3fd',
}


def run_cases() -> dict[str, str]:
    """sha256 of (exit code, stdout) per case, run in the current directory."""
    for file_name, payload in FILES.items():
        Path(file_name).write_text(json.dumps(payload))
    digests = {}
    for name, argv in CASES:
        out = _io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        digests[name] = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
    return digests


def test_cli_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cases() == GOLDEN


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo):
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name, digest in run_cases().items():
            print(f"    {name!r}: {digest!r},")
