"""Property-based fuzzing of the command line over every verb.

Each example is one argv drawn from the parser's own verbs and flags:
flags in any order, repeated or missing, with values drawn from empty,
negative, over-gate, non-ASCII-digit and random text, from the lattice and
t-norm names, and from a few representation and lattice files.  Every
outcome must be exit 0, 1, 2 or 3, never a traceback, and an argv that
gives `--sizes`, `--trials` or `--seed` anything but an optional `-` and
ASCII digits must exit 3 unless it asks for help first.

The calls run in a child process (this file run as a script) under an
address-space limit, with one BLAS thread and a timeout, so that a flag
that allocates before its gate fails this test rather than the machine.
Counts that would run for long by design stay small: `--sizes` entries
are at most 2 below the gate and `--trials` at most 20, and random text
holds no ASCII digit.  Examples are derandomized, so a run is
reproducible.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

LIMIT = 1 << 30
HUGE = "99999999999999999999"

# the fixture files the child writes into its working directory
FILES = ["crisp.json", "graded.json", "luk.json", "lattice.json", "invalid.json", "broken.json",
         "missing.json"]
# each flag's own values: valid ones, small counts, negative and over-gate sizes
OWN = {
    "--sizes": ["1", "2", "1,1", "2,2", "1,2", "1,1,1", "2,2,2", "1,2,1", "2,1,2,2", "-1",
                "7", "1,7,1", f"{HUGE},1"],
    "--trials": ["1", "2", "20"],
    "--seed": ["0", "1", "-3", HUGE],
    "--out": ["out.json", "nodir/x.json", "."],
    "--rep": FILES,
    "--rep2": FILES,
    "--tnorm": ["meet", "lukasiewicz", "lattice.json"],
    "--lattice": ["chain2", "chain3", "chain4", "square", "lattice.json"],
    "--alpha": ["0", "m", "1", "a"],
    "--set": ["x1", "x1,x2", "y1", "x1,x1"],
    "--density": ["0", "0.3", "1"],
}
# integers that int() reads but the integer flags refuse, and other non-integers
BAD_INTEGERS = ["2_0", "+2", " 1", "1 ", "２", "٣", "1.0", "0x2", "2,,2", ","]
INTEGER_FLAGS = ("--sizes", "--trials", "--seed")
# values that no flag or only another flag takes; none is a large count
JUNK = ["", "-1", "0", "7", "1.5", "-0.1", "nan", "inf", "1e400", "chain3", "square", "meet",
        "crisp", "modular", "metric", "x1", "m", *BAD_INTEGERS, *FILES]


def _malformed_integer(flag: str, value: str) -> bool:
    """An integer flag's value other than an optional ``-`` and ASCII
    digits (for ``--sizes``, in each comma-separated entry)."""
    if flag not in INTEGER_FLAGS:
        return False
    entries = value.split(",") if flag == "--sizes" else [value]
    digits = [e.removeprefix("-") for e in entries]
    return not all(d.isascii() and d.isdigit() for d in digits)


def _asks_help(word: str) -> bool:
    # -h or --help exits 0 before later values are read; the parser takes
    # no abbreviation of a flag, so --hel is an unknown argument
    return word.startswith("-h") or word == "--help"


def _write_fixtures() -> None:
    from ambrel import io
    from ambrel.catalog import chain, lukasiewicz
    from ambrel.generators import random_fuzzy_rep, random_rep
    from ambrel.hyperspace import space

    x, y, chain3 = space("x1", "x2"), space("y1", "y2"), chain(3)
    texts = {
        "crisp.json": io.dumps(io.crisp_rep_payload(random_rep(x, y, 1, 0.4))),
        "graded.json": io.dumps(io.fuzzy_rep_payload(random_fuzzy_rep(x, y, chain3, 2, 0.5))),
        "luk.json": io.dumps(
            io.fuzzy_rep_payload(random_fuzzy_rep(y, x, chain3, 3, 0.5), lukasiewicz(chain3))
        ),
        "lattice.json": io.dumps(io.lattice_payload(chain3, lukasiewicz(chain3))),
        # valid JSON, but the full target is missing at the one source set
        "invalid.json": '{"source": ["x1"], "target": ["y1", "y2"], "pairs": [[["x1"], ["y1"]]]}',
        "broken.json": '{"source": ["x1"], "target": ',
    }
    for name, text in texts.items():
        Path(name).write_text(text)


def _fuzz() -> None:
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ambrel.cli import _build_parser, main

    parser = _build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "verb").choices
    # verb -> [(flag, takes a value, required, choices)]
    verbs = {
        verb: [
            (a.option_strings[0], a.nargs != 0, a.required, a.choices)
            for a in sub._actions
            if a.option_strings
        ]
        for verb, sub in subparsers.items()
    }
    # no ASCII digit, no path separator; an argv cannot hold NUL or a lone surrogate
    text = st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x000123456789"),
        max_size=8,
    )
    junk = st.sampled_from(JUNK) | text

    @st.composite
    def argvs(draw):
        verb = draw(st.sampled_from([*verbs, *verbs, "", "nosuchverb"]))
        flags = verbs.get(verb, [("--rep", True, True, None)])
        chosen = draw(st.lists(st.sampled_from(flags), max_size=5))
        if draw(st.integers(0, 4)):  # the required flags, most of the time
            chosen = [f for f in flags if f[2]] + chosen
        argv, slots = [verb], []
        for flag, takes_value, _, choices in draw(st.permutations(chosen)):
            argv.append(flag)
            if takes_value:
                slots.append(len(argv))
                argv.append(draw(st.sampled_from(list(choices or OWN[flag]))))
        for _ in range(draw(st.integers(0, 2)) if slots else 0):  # values replaced by junk
            argv[draw(st.sampled_from(slots))] = draw(junk)
        integer_flags = [f for f, *_ in flags if f in INTEGER_FLAGS]
        if integer_flags and draw(st.booleans()):  # one integer flag given a refused integer
            argv += [draw(st.sampled_from(integer_flags)), draw(st.sampled_from(BAD_INTEGERS))]
        if draw(st.integers(0, 9)) == 0:  # a stray word
            argv.insert(draw(st.integers(0, len(argv))), draw(junk))
        return argv

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(argvs())
    def run(argv):
        out, err = StringIO(), StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as e:  # --help
            code = e.code
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if not any(map(_asks_help, argv)) and any(map(_malformed_integer, argv, argv[1:])):
            assert code == 3, argv

    run()


def test_argv_fuzz_over_every_verb(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # one BLAS thread, so that numpy imports under the limit
    env |= {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    done = subprocess.run(
        [sys.executable, __file__], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    _write_fixtures()
    _fuzz()
