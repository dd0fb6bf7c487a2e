"""Batch front end.

Verbs: ``validate sms compose cut join meet capacity unavoidable gen
encode laws search``.  Canonical JSON goes to standard output (or
``--out``), a one-line human summary to standard error.

Exit codes: 0 success, 1 validation failure (report on stdout), 2 a law
violation or counterexample found by ``laws``/``search``, 3 malformed
input.  All randomness sits behind ``--seed``; there is no
environment-variable configuration.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache, partial

from . import crisp, fuzzy, generators, io
from .capacity import capacity_of
from .errors import (
    LatticeIsChain,
    MalformedInput,
    SpaceMismatch,
    SpaceTooLarge,
    ValidationError,
)
from .hyperencoding import encode
from .hyperspace import FiniteSpace, gate_points
from .catalog import boolean_square, chain, lukasiewicz
from .lattice import meet_tnorm
from .laws import SEARCHABLE, check_fuzzy_laws, check_laws, search_law


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed command lines exit 3, not argparse's 2
        raise _CliError(message)


def _text(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expects a nonempty value")
    return text


def _integer(text: str) -> int:
    # int() alone would also read 2_0, +2, surrounding blanks and non-ASCII digits
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(s) for s in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expects integers like 2,2,2, not {text!r}") from None


def _trials(text: str) -> int:
    # a count below 1 would report "holds" over no instances at all
    trials = _integer(text)
    if trials < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {trials}")
    return trials


def _density(text: str) -> float:
    density = float(text)
    if not 0.0 <= density <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], not {text}")
    return density


# the --sizes entries each gen kind reads; unset, every entry is 2
_GEN_ENTRIES = {
    "identity": 1, "top": 2, "bot": 2, "random": 2, "random-fuzzy": 2,
    "metric": 1, "translation": 4, "projection": 4, "counterexample": 2,
}

# Each flag's type, default and accepted values, written once; a verb
# lists the flags it reads.  --trials, --seed, --lattice and --tnorm, and
# gen's --sizes, are None when unset: what they stand for then depends on
# other flags or input (_sampling, _tnorm, laws and _run_gen).
_FLAGS = {
    "--rep": {"type": _text, "required": True},
    "--rep2": {"type": _text, "required": True},
    "--alpha": {"type": _text, "required": True},
    "--set": {"type": _text, "required": True},
    "--tnorm": {"type": _text},
    "--lattice": {"type": _text},
    "--out": {"type": _text},
    "--suite": {"choices": ("crisp", "fuzzy"), "default": "crisp"},
    "--law": {"choices": SEARCHABLE, "required": True},
    "--kind": {"choices": tuple(_GEN_ENTRIES), "required": True},
    "--sizes": {"type": _sizes, "default": (2, 2, 2)},
    "--trials": {"type": _trials},
    "--seed": {"type": _integer},
    "--density": {"type": _density, "default": 0.3},
    "--exhaustive": {"action": "store_true"},
}


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # built once: parse_args fills a fresh namespace on every call
    # a flag is read by its full name only: a prefix such as --tri would
    # run silently as --trials, and a new flag could change its meaning
    p = _Parser(prog="ambrel", description=__doc__, allow_abbrev=False)
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, *flags, **differs):
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag] | differs.get(flag[2:], {}))

    add("validate", "--rep", "--lattice", "--out", rep={"required": False})
    add("sms", "--rep", "--out")
    add("compose", "--rep", "--rep2", "--tnorm", "--out")
    add("cut", "--rep", "--alpha", "--out")
    add("join", "--rep", "--rep2", "--out")
    add("meet", "--rep", "--rep2", "--out")
    add("capacity", "--rep", "--set", "--out")
    add("unavoidable", "--rep", "--set", "--out")
    add("gen", "--kind", "--sizes", "--seed", "--density", "--lattice", "--out",
        sizes={"default": None}, seed={"default": 0})
    add("encode", "--rep", "--out")
    add("laws", "--suite", "--sizes", "--trials", "--seed", "--exhaustive", "--lattice", "--out")
    add("search", "--law", "--sizes", "--trials", "--seed", "--exhaustive", "--out")
    return p


def _emit(args, text: str) -> None:
    """Write canonical JSON text to ``--out``, if given, and to stdout."""
    if args.out is not None:
        # the file first: a path that cannot be written leaves stdout empty
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise MalformedInput(f"cannot write --out {args.out}: {e.strerror or e}") from None
        except ValueError as e:  # NUL in the path
            raise MalformedInput(f"cannot write --out {args.out}: {e}") from None
    sys.stdout.write(text)


def _sampling(args) -> tuple[int, int]:
    """``--trials`` and ``--seed`` of a law run, 200 and 0 when unset; an
    exhaustive run reads neither, so it refuses both."""
    if args.exhaustive:
        for flag in ("--trials", "--seed"):
            if getattr(args, flag[2:]) is not None:
                raise MalformedInput(f"{flag} applies to sampled runs, not --exhaustive")
    return (200 if args.trials is None else args.trials), (0 if args.seed is None else args.seed)


def _load_rep(path: str, graded: bool | None = None, refusal: str = ""):
    """A representation file as ``(rep, embedded t-norm or None)``.  With
    ``graded`` given, a file of the other kind exits 3 with ``refusal``,
    after it has been read: an invalid file still gets its report."""
    payload = io.load_path(path)
    if io.is_fuzzy_payload(payload):
        rep, tn = io.fuzzy_rep_from(payload)
    else:
        rep, tn = io.crisp_rep_from(payload), None
    if graded is not None and isinstance(rep, fuzzy.LFuzzyAmbRep) != graded:
        raise MalformedInput(refusal)
    return rep, tn


def _rep_text(rep, tn=None) -> str:
    if isinstance(rep, fuzzy.LFuzzyAmbRep):
        return io.fuzzy_rep_text(rep, tn)
    return io.crisp_rep_text(rep)


def _entries(sizes: tuple[int, ...], how_many: int) -> tuple[int, ...]:
    if len(sizes) != how_many:
        raise MalformedInput(f"--sizes needs {how_many} entries here, not {len(sizes)}")
    return sizes


def _spaces(sizes: tuple[int, ...]) -> list[FiniteSpace]:
    # each count passes the gate before its labels are built
    return [
        FiniteSpace(tuple(f"{name}{i + 1}" for i in range(gate_points(n))))
        for name, n in zip("xyzw", sizes)
    ]


_LATTICES = {"chain2": partial(chain, 2), "chain3": partial(chain, 3), "chain4": partial(chain, 4),
             "square": boolean_square}

_TNORMS = {"meet": meet_tnorm, "lukasiewicz": lukasiewicz}


def _lattice(spec: str):
    """A lattice by its name in :data:`_LATTICES`, or read from a file."""
    if spec in _LATTICES:
        return _LATTICES[spec]()
    lat, _ = io.lattice_from(io.load_path(spec))
    return lat


def _tnorm(spec, lattice, embedded):
    """``--tnorm`` by name; unset, the t-norm the files embed or the meet.
    A custom t-norm reaches ``compose`` only embedded in the files."""
    if spec is None:
        return embedded or meet_tnorm(lattice)
    if spec not in _TNORMS:
        raise MalformedInput(f"--tnorm takes {' or '.join(_TNORMS)}, not {spec!r}")
    tn = _TNORMS[spec](lattice)
    if embedded is not None and embedded != tn:
        raise SpaceMismatch(f"--tnorm {spec} differs from the t-norm the files embed")
    return tn


def _run(args) -> int:
    if args.verb == "validate":
        if (args.rep is None) == (args.lattice is None):
            raise MalformedInput("validate takes exactly one of --rep and --lattice")
        if args.lattice is not None:
            elements = list(_lattice(args.lattice).elements)
            _emit(args, io.dumps({"verdict": "valid", "kind": "lattice", "elements": elements}))
        else:
            graded = isinstance(_load_rep(args.rep)[0], fuzzy.LFuzzyAmbRep)
            _emit(args, io.dumps({"verdict": "valid", "kind": "fuzzy" if graded else "crisp"}))
        return 0

    if args.verb in ("sms", "compose", "join", "meet"):
        rep1, tn1 = _load_rep(args.rep)
        graded = isinstance(rep1, fuzzy.LFuzzyAmbRep)
        ops = fuzzy if graded else crisp
        if args.verb == "sms":
            _emit(args, _rep_text(ops.sms(rep1), tn1))
            return 0
        rep2, tn2 = _load_rep(args.rep2, graded, "cannot mix crisp and graded representations")
        if tn1 is not None and tn2 is not None and tn1 != tn2:
            # the output embeds one of them, so their order would matter
            raise SpaceMismatch("the two representation files embed different t-norms")
        op = {"compose": ops.compose, "join": ops.join, "meet": ops.meet}[args.verb]
        if args.verb == "compose" and graded:
            op = partial(fuzzy.compose, tnorm=_tnorm(args.tnorm, rep1.lattice, tn1 or tn2))
        elif args.verb == "compose" and args.tnorm is not None:
            raise MalformedInput("--tnorm applies to graded representations, not crisp ones")
        _emit(args, _rep_text(op(rep1, rep2), tn1 or tn2))
        return 0

    if args.verb == "cut":
        rep, _ = _load_rep(args.rep, True, "cut applies to graded representations")
        try:
            alpha = rep.lattice.index(args.alpha)
        except KeyError as e:
            raise MalformedInput(str(e)) from None
        _emit(args, io.crisp_rep_text(fuzzy.alpha_cut(rep, alpha)))
        return 0

    if args.verb == "capacity":
        rep, _ = _load_rep(args.rep, True, "capacity extraction applies to graded representations")
        a = _parse_set(rep.source, args.set)
        _emit(args, io.dumps(io.capacity_payload(capacity_of(rep, a))))
        return 0

    if args.verb == "unavoidable":
        rep, _ = _load_rep(args.rep, False, "unavoidable sets are a crisp notion; cut first")
        a = _parse_set(rep.source, args.set)
        fam = crisp.unavoidable(rep, a).family
        _emit(args, io.dumps(io.family_payload(rep.target, fam)))
        return 0

    if args.verb == "gen":
        return _run_gen(args)

    if args.verb == "encode":
        rep, _ = _load_rep(args.rep, True, "encode applies to graded representations")
        _emit(args, io.hyper_text(encode(rep)))
        return 0

    if args.verb == "laws":
        if args.suite == "crisp" and args.lattice is not None:
            raise MalformedInput("--lattice applies to the fuzzy suite only")
        if args.suite == "fuzzy" and args.exhaustive:
            raise MalformedInput("--exhaustive applies to the crisp suite only")
        trials, seed = _sampling(args)
        x, y, z = _spaces(_entries(args.sizes, 3))
        if args.suite == "crisp":
            results = check_laws(x, y, z, trials=trials, exhaustive=args.exhaustive, seed=seed)
        else:
            lat = _lattice(args.lattice or "chain3")
            results = check_fuzzy_laws(x, y, z, lat, trials, seed)
        payload = {"suite": args.suite, "laws": [r.payload() for r in results.values()]}
        broken = [r.law for r in results.values() if r.asserted and not r.holds]
        payload["asserted_violations"] = broken
        _emit(args, io.dumps(payload))
        for r in results.values():
            status = "holds" if r.holds else "counterexample"
            print(f"{r.law}: {status} ({r.checked} instances)", file=sys.stderr)
        return 2 if broken else 0

    if args.verb == "search":
        trials, seed = _sampling(args)
        x, y, z = _spaces(_entries(args.sizes, 3))
        verdict = search_law(
            args.law, x, y, z, exhaustive=args.exhaustive, trials=trials, seed=seed
        )
        _emit(args, io.dumps(verdict))
        print(f"{args.law}: {verdict['verdict']}", file=sys.stderr)
        return 2 if verdict["verdict"] == "counterexample" else 0


def _parse_set(space: FiniteSpace, text: str) -> int:
    try:
        return space.subset([t.strip() for t in text.split(",")])
    except KeyError as e:
        raise MalformedInput(str(e)) from None


def _run_gen(args) -> int:
    kind, entries = args.kind, _GEN_ENTRIES[args.kind]
    sizes = _entries((2,) * entries if args.sizes is None else args.sizes, entries)
    # a counterexample needs incomparable grades
    lattice = args.lattice or ("square" if kind == "counterexample" else "chain3")
    if kind in ("translation", "projection"):
        w, h, ow, oh = sizes
        build = generators.translation_rep if kind == "translation" else generators.projection_rep
        rep = build(generators.GridWindow(ow, oh, w, h))
    elif kind == "metric":
        rep = generators.metric_rep(generators.line_metric(*sizes), _lattice(lattice))
    else:
        spaces = _spaces(sizes)
        if kind == "identity":
            rep = crisp.identity(*spaces)
        elif kind in ("top", "bot"):
            rep = (crisp.top if kind == "top" else crisp.bot)(*spaces)
        elif kind == "random":
            rep = generators.random_rep(*spaces, args.seed, args.density)
        elif kind == "random-fuzzy":
            rep = generators.random_fuzzy_rep(*spaces, _lattice(lattice), args.seed, args.density)
        else:  # counterexample
            rf, sf, witness = fuzzy.union_counterexample(*spaces, _lattice(lattice))
            payload = {"r": io.fuzzy_rep_payload(rf), "s": io.fuzzy_rep_payload(sf)}
            _emit(args, io.dumps(payload | {"witness": witness}))
            return 0
    _emit(args, _rep_text(rep))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except ValidationError as e:
        sys.stdout.write(io.dumps(e.report()))
        print(f"invalid: {e}", file=sys.stderr)
        return 1
    except LatticeIsChain as e:
        sys.stdout.write(io.dumps({"verdict": "no_counterexample", "reason": str(e)}))
        print(str(e), file=sys.stderr)
        return 1
    except (MalformedInput, _CliError, SpaceMismatch, SpaceTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
