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
from functools import lru_cache

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
from .hyperspace import FiniteSpace
from .catalog import boolean_square, chain, lukasiewicz
from .lattice import meet_tnorm
from .laws import SEARCHABLE, check_fuzzy_laws, check_laws, search_law


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed command lines exit 3, not argparse's 2
        raise _CliError(message)


def _trials(text: str) -> int:
    # a count below 1 would report "holds" over no instances at all
    try:
        trials = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if trials < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {trials}")
    return trials


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # built once: parse_args fills a fresh namespace on every call
    p = _Parser(prog="ambrel", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, *flags):
        sp = sub.add_parser(name)
        for flag in flags:
            if flag == "--exhaustive":
                sp.add_argument(flag, action="store_true")
            elif flag == "--trials":
                sp.add_argument(flag, type=_trials)  # unset is None: see _sampling
            elif flag == "--seed":
                sp.add_argument(flag, type=int, default=0 if name == "gen" else None)
            elif flag == "--density":
                sp.add_argument(flag, type=float, default=0.3)
            else:
                sp.add_argument(flag)
        return sp

    add("validate", "--rep", "--lattice", "--out")
    add("sms", "--rep", "--out")
    add("compose", "--rep", "--rep2", "--tnorm", "--out")
    add("cut", "--rep", "--alpha", "--out")
    add("join", "--rep", "--rep2", "--out")
    add("meet", "--rep", "--rep2", "--out")
    add("capacity", "--rep", "--set", "--out")
    add("unavoidable", "--rep", "--set", "--out")
    add("gen", "--kind", "--sizes", "--seed", "--density", "--lattice", "--out")
    add("encode", "--rep", "--out")
    add("laws", "--suite", "--sizes", "--trials", "--seed", "--exhaustive", "--lattice", "--out")
    add("search", "--law", "--sizes", "--trials", "--seed", "--exhaustive", "--out")
    return p


def _emit(args, payload) -> None:
    text = io.dumps(payload)
    if getattr(args, "out", None):
        # the file first: a path that cannot be written leaves stdout empty
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise MalformedInput(f"cannot write --out {args.out}: {e.strerror or e}") from None
    sys.stdout.write(text)


def _sampling(args) -> tuple[int, int]:
    """``--trials`` and ``--seed`` of a law run, 200 and 0 when unset; an
    exhaustive run reads neither, so it refuses both."""
    if args.exhaustive:
        for flag in ("--trials", "--seed"):
            if getattr(args, flag[2:]) is not None:
                raise MalformedInput(f"{flag} applies to sampled runs, not --exhaustive")
    return (200 if args.trials is None else args.trials), (args.seed or 0)


def _load_rep(path: str | None):
    if not path:
        raise MalformedInput("this verb needs a representation file (--rep, --rep2)")
    payload = io.load_path(path)
    if io.is_fuzzy_payload(payload):
        rep, tn = io.fuzzy_rep_from(payload)
        return rep, tn
    return io.crisp_rep_from(payload), None


def _ints(sizes: str) -> list[int]:
    try:
        return [int(s) for s in sizes.split(",")]
    except (AttributeError, ValueError):
        raise MalformedInput("--sizes expects a comma list like 2,2,2") from None


def _density(args) -> float:
    if not 0.0 <= args.density <= 1.0:
        raise MalformedInput("--density must lie in [0, 1]")
    return args.density


def _spaces(sizes: str, how_many: int) -> list[FiniteSpace]:
    parts = _ints(sizes)
    if len(parts) != how_many:
        raise MalformedInput(f"--sizes needs {how_many} entries here")
    names = ["x", "y", "z", "w"]
    return [
        FiniteSpace(tuple(f"{names[k]}{i + 1}" for i in range(n))) for k, n in enumerate(parts)
    ]


def _named_lattice(name: str | None):
    if name in (None, "", "chain3"):
        return chain(3)
    if name == "chain2":
        return chain(2)
    if name == "chain4":
        return chain(4)
    if name == "square":
        return boolean_square()
    lat, _ = io.lattice_from(io.load_path(name))
    return lat


def _resolve_tnorm(spec_str, lattice, embedded):
    if spec_str in (None, "", "meet"):
        return embedded or meet_tnorm(lattice)
    if spec_str == "lukasiewicz":
        return lukasiewicz(lattice)
    lat2, tn = io.lattice_from(io.load_path(spec_str))
    if tn is None:
        raise MalformedInput(f"{spec_str} carries no tnorm table")
    if lat2 != lattice:
        raise SpaceMismatch("tnorm file lattice differs from the representation lattice")
    return tn


def _run(args) -> int:
    if args.verb == "validate":
        if args.lattice:
            lat, tn = io.lattice_from(io.load_path(args.lattice))
            _emit(args, {"verdict": "valid", "kind": "lattice", "elements": list(lat.elements)})
            return 0
        if not args.rep:
            raise MalformedInput("validate needs --rep or --lattice")
        payload = io.load_path(args.rep)
        if io.is_fuzzy_payload(payload):
            io.fuzzy_rep_from(payload)
            _emit(args, {"verdict": "valid", "kind": "fuzzy"})
        else:
            io.crisp_rep_from(payload)
            _emit(args, {"verdict": "valid", "kind": "crisp"})
        return 0

    if args.verb == "sms":
        rep, tn = _load_rep(args.rep)
        if isinstance(rep, fuzzy.LFuzzyAmbRep):
            _emit(args, io.fuzzy_rep_payload(fuzzy.sms(rep), tn))
        else:
            _emit(args, io.crisp_rep_payload(crisp.sms(rep)))
        return 0

    if args.verb in ("compose", "join", "meet"):
        rep1, tn1 = _load_rep(args.rep)
        rep2, tn2 = _load_rep(args.rep2)
        if isinstance(rep1, fuzzy.LFuzzyAmbRep) != isinstance(rep2, fuzzy.LFuzzyAmbRep):
            raise MalformedInput("cannot mix crisp and graded representations")
        if isinstance(rep1, fuzzy.LFuzzyAmbRep):
            if tn1 is not None and tn2 is not None and tn1 != tn2:
                # the output embeds one of them, so their order would matter
                raise SpaceMismatch("the two representation files embed different t-norms")
            op = {"compose": None, "join": fuzzy.join, "meet": fuzzy.meet}[args.verb]
            if args.verb == "compose":
                tn = _resolve_tnorm(args.tnorm, rep1.lattice, tn1 or tn2)
                out = fuzzy.compose(rep1, rep2, tn)
            else:
                out = op(rep1, rep2)
            _emit(args, io.fuzzy_rep_payload(out, tn1 or tn2))
        else:
            if getattr(args, "tnorm", None) is not None:
                raise MalformedInput("--tnorm applies to graded representations, not crisp ones")
            op = {"compose": crisp.compose, "join": crisp.join, "meet": crisp.meet}[args.verb]
            _emit(args, io.crisp_rep_payload(op(rep1, rep2)))
        return 0

    if args.verb == "cut":
        rep, _ = _load_rep(args.rep)
        if not isinstance(rep, fuzzy.LFuzzyAmbRep):
            raise MalformedInput("cut applies to graded representations")
        if args.alpha is None:
            raise MalformedInput("cut needs --alpha")
        try:
            alpha = rep.lattice.index(args.alpha)
        except KeyError as e:
            raise MalformedInput(str(e)) from None
        _emit(args, io.crisp_rep_payload(fuzzy.alpha_cut(rep, alpha)))
        return 0

    if args.verb == "capacity":
        rep, _ = _load_rep(args.rep)
        if not isinstance(rep, fuzzy.LFuzzyAmbRep):
            raise MalformedInput("capacity extraction applies to graded representations")
        a = _parse_set(rep.source, args.set)
        _emit(args, io.capacity_payload(capacity_of(rep, a)))
        return 0

    if args.verb == "unavoidable":
        rep, _ = _load_rep(args.rep)
        if isinstance(rep, fuzzy.LFuzzyAmbRep):
            raise MalformedInput("unavoidable sets are a crisp notion; cut first")
        a = _parse_set(rep.source, args.set)
        fam = crisp.unavoidable(rep, a).family
        _emit(args, io.family_payload(rep.target, fam))
        return 0

    if args.verb == "gen":
        return _run_gen(args)

    if args.verb == "encode":
        rep, _ = _load_rep(args.rep)
        if not isinstance(rep, fuzzy.LFuzzyAmbRep):
            raise MalformedInput("encode applies to graded representations")
        _emit(args, io.hyper_payload(encode(rep)))
        return 0

    if args.verb == "laws":
        suite = args.suite or "crisp"
        if suite == "crisp":
            if args.lattice:
                raise MalformedInput("--lattice applies to the fuzzy suite only")
            trials, seed = _sampling(args)
            x, y, z = _spaces(args.sizes or "2,2,2", 3)
            results = check_laws(x, y, z, trials=trials, exhaustive=args.exhaustive, seed=seed)
        elif suite == "fuzzy":
            if args.exhaustive:
                raise MalformedInput("--exhaustive applies to the crisp suite only")
            trials, seed = _sampling(args)
            x, y, z = _spaces(args.sizes or "2,2,2", 3)
            results = check_fuzzy_laws(x, y, z, _named_lattice(args.lattice), trials, seed)
        else:
            raise MalformedInput("--suite must be crisp or fuzzy")
        payload = {"suite": suite, "laws": [r.payload() for r in results.values()]}
        broken = [r.law for r in results.values() if r.asserted and not r.holds]
        payload["asserted_violations"] = broken
        _emit(args, payload)
        for r in results.values():
            status = "holds" if r.holds else "counterexample"
            print(f"{r.law}: {status} ({r.checked} instances)", file=sys.stderr)
        return 2 if broken else 0

    if args.verb == "search":
        if args.law not in SEARCHABLE:
            raise MalformedInput(f"--law must be one of {', '.join(SEARCHABLE)}")
        trials, seed = _sampling(args)
        x, y, z = _spaces(args.sizes or "2,2,2", 3)
        verdict = search_law(
            args.law, x, y, z, exhaustive=args.exhaustive, trials=trials, seed=seed
        )
        _emit(args, verdict)
        print(f"{args.law}: {verdict['verdict']}", file=sys.stderr)
        return 2 if verdict["verdict"] == "counterexample" else 0

    raise MalformedInput(f"unknown verb {args.verb}")


def _parse_set(space: FiniteSpace, text: str | None) -> int:
    if not text:
        raise MalformedInput("--set expects a comma list of point labels")
    try:
        return space.subset([t.strip() for t in text.split(",")])
    except KeyError as e:
        raise MalformedInput(str(e)) from None


def _run_gen(args) -> int:
    kind = args.kind or ""
    sizes = args.sizes or "2,2"
    if kind in ("identity", "top", "bot"):
        (x,) = _spaces(sizes.split(",")[0], 1)
        if kind == "identity":
            rep = crisp.identity(x)
        else:
            x, y = _spaces(sizes, 2)
            rep = (crisp.top if kind == "top" else crisp.bot)(x, y)
        _emit(args, io.crisp_rep_payload(rep))
        return 0
    if kind == "random":
        x, y = _spaces(sizes, 2)
        _emit(args, io.crisp_rep_payload(generators.random_rep(x, y, args.seed, _density(args))))
        return 0
    if kind == "random-fuzzy":
        x, y = _spaces(sizes, 2)
        lat = _named_lattice(args.lattice)
        rep = generators.random_fuzzy_rep(x, y, lat, args.seed, _density(args))
        _emit(args, io.fuzzy_rep_payload(rep))
        return 0
    if kind == "metric":
        n = _ints(sizes)[0]
        lat = _named_lattice(args.lattice)
        rep = generators.metric_rep(generators.line_metric(n), lat)
        _emit(args, io.fuzzy_rep_payload(rep))
        return 0
    if kind in ("translation", "projection"):
        parts = _ints(sizes)
        if len(parts) != 4:
            raise MalformedInput("grid kinds need --sizes w,h,W,H")
        w, h, ow, oh = parts
        window = generators.GridWindow(ow, oh, w, h)
        if kind == "translation":
            _emit(args, io.fuzzy_rep_payload(generators.translation_rep(window)))
        else:
            _emit(args, io.crisp_rep_payload(generators.projection_rep(window)))
        return 0
    if kind == "counterexample":
        x, y = _spaces(sizes, 2)
        lat = _named_lattice(args.lattice or "square")
        rf, sf, witness = fuzzy.union_counterexample(x, y, lat)
        _emit(
            args,
            {
                "r": io.fuzzy_rep_payload(rf),
                "s": io.fuzzy_rep_payload(sf),
                "witness": witness,
            },
        )
        return 0
    raise MalformedInput(
        "gen --kind must be one of identity, top, bot, random, random-fuzzy, "
        "metric, translation, projection, counterexample"
    )


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
