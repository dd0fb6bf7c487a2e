import hashlib
from functools import lru_cache, partial
from itertools import product

import numpy as np
import pytest

from ambrel import crisp, fuzzy, io, laws, oracle
from ambrel.catalog import boolean_square, chain
from ambrel.errors import SpaceTooLarge
from ambrel.hyperspace import space
from ambrel.io import crisp_rep_from
from ambrel.lattice import meet_tnorm
from ambrel.laws import (
    ASSERTED_CRISP,
    ASSERTED_FUZZY,
    CRISP_LAWS,
    SEARCHABLE,
    check_fuzzy_laws,
    check_laws,
    search_law,
)

LAWS = {law.name: law for law in CRISP_LAWS}


def test_asserted_crisp_laws_hold_on_samples(x2, y2, z2):
    results = check_laws(x2, y2, z2, trials=60, seed=7)
    for name in ASSERTED_CRISP:
        assert results[name].holds, results[name].witness
        assert results[name].checked == 60


def test_recorded_laws_report_witnesses(x2, y2, z2):
    results = check_laws(x2, y2, z2, trials=120, seed=3)
    assert not results["anti-involution"].holds
    assert not results["contravariance"].holds
    # a recorded counterexample must actually violate its law
    witness = results["anti-involution"].witness
    rep = crisp_rep_from(witness["r"])
    assert crisp.sms(crisp.sms(rep)) != rep


def test_asserted_fuzzy_laws_hold_on_samples(x2, y2, z2):
    for lat in (chain(3), boolean_square()):
        results = check_fuzzy_laws(x2, y2, z2, lat, trials=25, seed=5)
        for name in ASSERTED_FUZZY:
            assert results[name].holds, (lat.elements, name, results[name].witness)


def test_fuzzy_associativity_composes_a_third_argument(monkeypatch, x2, y2, z2):
    # (r;s);t against r;(s;t) with t: Z -> X, not with the identity on Z
    right_args = []

    def recorded(r, s, tnorm=None, compose=fuzzy.compose):
        right_args.append((s.source, s.target))
        return compose(r, s, tnorm)

    monkeypatch.setattr(fuzzy, "compose", recorded)
    results = check_fuzzy_laws(x2, y2, z2, chain(3), trials=2, seed=1)
    assert results["associativity"].holds
    assert (z2, x2) in right_args


def test_search_modular_exhaustive_small(x2, y2, z2):
    verdict = search_law("modular", x2, y2, z2, exhaustive=True)
    assert verdict["mode"] == "exhaustive"
    assert verdict["verdict"] in ("counterexample", "no_counterexample")
    if verdict["verdict"] == "counterexample":
        w = verdict["witness"]
        f, g, h = (crisp_rep_from(w[k]) for k in ("f", "g", "h"))
        assert LAWS["modular"].evaluate(f, g, h) is not None


def test_search_meet_distributivity_finds_witness(x2, y2, z2):
    verdict = search_law("meet-distributivity", x2, y2, z2, exhaustive=True)
    assert verdict["verdict"] == "counterexample"
    w = verdict["witness"]
    if w.get("argument") == "left":
        r, r2, s = (crisp_rep_from(w[k]) for k in ("r", "r2", "s"))
        assert LAWS["meet-distributivity"].evaluate(r, r2, s) is not None


def test_law_report_payload_shape(x2, y2, z2):
    results = check_laws(x2, y2, z2, trials=5, seed=0)
    for res in results.values():
        payload = res.payload()
        assert set(payload) == {"law", "asserted", "verdict", "instances_checked", "witness"}


def _spaces(sizes):
    return [space(*(f"{name}{i}" for i in range(1, k + 1))) for name, k in zip("xyz", sizes)]


@pytest.mark.parametrize("sizes", list(product((1, 2), repeat=3)))
def test_exhaustive_suite_matches_per_instance_loop(sizes):
    # verdict, instances_checked and witness of every law
    x, y, z = _spaces(sizes)
    got = {name: res.payload() for name, res in check_laws(x, y, z, exhaustive=True).items()}
    want = {name: res.payload() for name, res in oracle.check_laws_per_instance(x, y, z).items()}
    assert got == want


@lru_cache(maxsize=None)
def _per_instance(sizes):
    return oracle.check_laws_per_instance(*_spaces(sizes))


@pytest.mark.parametrize("law", SEARCHABLE)
@pytest.mark.parametrize("sizes", list(product((1, 2), repeat=3)))
def test_exhaustive_search_matches_per_instance_loop(sizes, law):
    # the whole payload; meet-distributivity adds its right law's count
    # while the left law holds, and stops at the first witness of either
    twin = _per_instance(sizes)
    checked, witness = twin[law].checked, twin[law].witness
    if law == "meet-distributivity" and witness is None:
        right = twin["meet-distributivity-right"]
        checked, witness = checked + right.checked, right.witness
    want = {
        "law": law,
        "mode": "exhaustive",
        "sizes": list(sizes),
        "instances_checked": checked,
        "verdict": "no_counterexample" if witness is None else "counterexample",
        "witness": witness,
    }
    assert search_law(law, *_spaces(sizes), exhaustive=True) == want


def test_exhaustive_suite_finds_witnesses_and_full_counts(x2, y2, z2):
    # the twin test above is only as strong as the laws it reaches both ways
    results = check_laws(x2, y2, z2, exhaustive=True)
    assert not results["anti-involution"].holds
    assert not results["meet-distributivity"].holds
    assert results["associativity"].holds
    assert results["associativity"].checked == 25**3


@pytest.mark.parametrize(
    "seed, digest",
    [
        (3, "741f7c7132a73fe1c200e769066b0e0296ad2f0b7c72b210840b93cb299b981e"),
        (11, "300134e0dd804849e9c3932d999e20fd7f6bec5e3cb664140f8f4b5c50bb42f8"),
    ],
)
def test_sampled_payloads_unchanged(seed, digest):
    # sampled suites run instance by instance; pinned at every triple in {1,2}^3
    h = hashlib.sha256()
    for sizes in product((1, 2), repeat=3):
        results = check_laws(*_spaces(sizes), trials=30, seed=seed)
        h.update(io.dumps([res.payload() for res in results.values()]).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "seed, digest",
    [
        (4, "3c4ec5e724a60376fb956f7a2ac9f9ebff7a64f428e11c1b2c8548c2735a4d29"),
        (13, "92c505a48393cec80808801fe78f23a0975328d73322403af48fc5ca56164658"),
    ],
)
def test_sampled_search_payloads_unchanged(seed, digest):
    # every searchable law at every triple in {1,2}^3 and at two 3-point triples
    h = hashlib.sha256()
    for sizes in [*product((1, 2), repeat=3), (3, 2, 2), (2, 3, 3)]:
        for law in SEARCHABLE:
            verdict = search_law(law, *_spaces(sizes), trials=30, seed=seed)
            h.update(io.dumps(verdict).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "seed, digest",
    [
        (2, "30b36f5914f6e025b4b11a49afdd9717f8d0c081822a3bf07578296aa2f48cf5"),
        (9, "3a204a0129c12fdb3831aaa838586f17e2b22a8c61d12b5f0671c393cbdc6e4d"),
        # the first contravariance witness over chain4 at 2,2,2 differs under Lukasiewicz
        (16, "f6636bbb05b136f5d1e807391fa5beeacfd218d29890b76fc03041412cf1efbe"),
    ],
)
def test_sampled_fuzzy_payloads_unchanged(seed, digest):
    # chains run under the meet and Lukasiewicz, the square under the meet
    h = hashlib.sha256()
    for sizes in ((2, 2, 2), (1, 2, 2)):
        for lat in (chain(2), chain(3), chain(4), boolean_square()):
            results = check_fuzzy_laws(*_spaces(sizes), lat, trials=20, seed=seed)
            h.update(io.dumps([res.payload() for res in results.values()]).encode())
    assert h.hexdigest() == digest


GRADES = {"chain2": chain(2), "chain3": chain(3), "chain4": chain(4), "square": boolean_square()}
FUZZY_TRIPLES = [*product((1, 2), repeat=3), (3, 3, 3)]


@pytest.mark.parametrize("grades", GRADES)
@pytest.mark.parametrize("sizes", FUZZY_TRIPLES)
def test_fuzzy_suite_matches_per_instance_loop(sizes, grades):
    # the per-trial memo moves no draw, count or witness.  Seeds 0-4 run
    # at 1 and 7 trials; the one 40-trial run of a case takes its seed
    # from the triple, so 40 trials meet every seed at a fraction of the
    # cost of running all five
    x, y, z = _spaces(sizes)
    runs = [(seed, trials) for seed in range(5) for trials in (1, 7)]
    runs.append((FUZZY_TRIPLES.index(sizes) % 5, 40))
    for seed, trials in runs:
        got = check_fuzzy_laws(x, y, z, GRADES[grades], trials=trials, seed=seed)
        want = oracle.check_fuzzy_laws_per_instance(x, y, z, GRADES[grades], trials, seed)
        assert {name: res.payload() for name, res in got.items()} == {
            name: res.payload() for name, res in want.items()
        }, (seed, trials)


def _log_graded_calls(monkeypatch) -> list[list[tuple]]:
    """Rebind ``fuzzy.sms`` and ``fuzzy.compose`` with wrappers that log
    each call by value, one list per trial; a trial opens at its first
    draw, sampler index ``3i``."""
    trials: list[list[tuple]] = []

    def sampler(seed, lattice, fuzzy_sampler=laws.fuzzy_sampler):
        sample = fuzzy_sampler(seed, lattice)

        def draw(source, target, i):
            if i >= 0 and i % 3 == 0:
                trials.append([])
            return sample(source, target, i)

        return draw

    def logged(*args, name, fn):
        key = tuple(
            (a.source, a.target, a.grades.tobytes()) if isinstance(a, fuzzy.LFuzzyAmbRep) else a
            for a in args
        )
        trials[-1].append((name, *key))
        return fn(*args)

    for module in (laws, oracle):
        monkeypatch.setattr(module, "fuzzy_sampler", sampler)
    for name in ("sms", "compose"):
        monkeypatch.setattr(fuzzy, name, partial(logged, name=name, fn=getattr(fuzzy, name)))
    return trials


@pytest.mark.parametrize("grades", ["chain2", "chain3", "square"])
def test_graded_suite_evaluates_each_operation_once_per_trial(monkeypatch, grades, x2, y2, z2):
    log = _log_graded_calls(monkeypatch)
    want = oracle.check_fuzzy_laws_per_instance(x2, y2, z2, GRADES[grades], trials=6, seed=3)
    distinct = [set(trial) for trial in log]
    # without the memo, some operation runs twice within a trial
    assert any(len(ops) < len(trial) for ops, trial in zip(distinct, log))
    # twice, so that a result kept past its call would show
    for _ in range(2):
        log.clear()
        got = check_fuzzy_laws(x2, y2, z2, GRADES[grades], trials=6, seed=3)
        assert got == want
        # the rebound functions see each distinct operation of a trial once
        assert [set(trial) for trial in log] == distinct
        assert [len(trial) for trial in log] == [len(ops) for ops in distinct]


def test_chain2_composes_under_the_meet_alone(monkeypatch, x2, y2, z2):
    # on two grades Łukasiewicz is the meet's table, so every composition
    # on chain2 is made under the meet; chain3 composes under both
    log = _log_graded_calls(monkeypatch)
    for grades, names in (("chain2", {"meet"}), ("chain3", {"meet", "lukasiewicz"})):
        log.clear()
        check_fuzzy_laws(x2, y2, z2, GRADES[grades], trials=4, seed=0)
        tnorms = {call[-1].name for trial in log for call in trial if call[0] == "compose"}
        assert tnorms == names, grades


def test_graded_memo_keys_hold_the_spaces(x2, y2, z2):
    # X -> Y and Y -> Z tables have one shape at 2,2,2 and can hold the
    # same grade bytes; their pseudo-inverses differ in their spaces
    lat = chain(3)
    r = laws.fuzzy_sampler(0, lat)(x2, y2, 0)
    s = fuzzy.LFuzzyAmbRep(y2, z2, lat, r.grades)
    ops = laws._Graded(meet_tnorm(lat))
    assert ops.sms(r) == fuzzy.sms(r)
    assert ops.sms(s) == fuzzy.sms(s)
    assert (ops.sms(s).source, ops.sms(s).target) == (z2, y2)


def test_graded_namespaces_are_built_per_trial_and_tnorm(monkeypatch, x2, y2, z2):
    # each trial gets fresh namespaces, one per distinct t-norm table: a
    # Łukasiewicz table equal to the meet's (chain2) adds none
    built = []

    class Logged(laws._Graded):
        def __init__(self, tnorm):
            built.append(tnorm.name)
            super().__init__(tnorm)

    monkeypatch.setattr(laws, "_Graded", Logged)
    for grades, names in (("chain2", ["meet"]), ("chain3", ["meet", "lukasiewicz"]),
                          ("square", ["meet"])):
        built.clear()
        check_fuzzy_laws(x2, y2, z2, GRADES[grades], trials=3, seed=1)
        assert built == names * 3, grades


def test_exhaustive_gate_in_python_api(x3, y2, z2):
    with pytest.raises(SpaceTooLarge):
        check_laws(x3, y2, z2, exhaustive=True)
    for law in SEARCHABLE:
        with pytest.raises(SpaceTooLarge):
            search_law(law, y2, x3, z2, exhaustive=True)


def test_exhaustive_suite_calls_rebound_crisp_operations(monkeypatch):
    # a profiler rebinds crisp functions by module attribute, with wrappers
    # that need not keep the name; the tables are built by array kernels,
    # but witnesses are re-evaluated through crisp looked up at call time
    x, y, z = _spaces((1, 2, 2))
    want = {name: res.payload() for name, res in check_laws(x, y, z, exhaustive=True).items()}
    calls = dict.fromkeys(("compose", "join", "meet", "sms"), 0)
    for name in calls:

        def counted(*args, fn=getattr(crisp, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(crisp, name, counted)
    got = {name: res.payload() for name, res in check_laws(x, y, z, exhaustive=True).items()}
    assert got == want
    assert calls["compose"] and calls["meet"] and calls["sms"], calls


@pytest.mark.parametrize("sizes", list(product((1, 2), repeat=3)))
def test_operation_tables_match_per_pair_operations(sizes):
    # every entry of every table, over every hom set between the three spaces
    tables, twin = laws._Tables(*_spaces(sizes)), oracle.OperationTablesPerPair(*_spaces(sizes))
    homs = [a + b for a in "xyz" for b in "xyz"]

    def grid(hom, axis):
        at = np.arange(len(twin.pool(hom)))
        return laws._Grid(hom, at[:, None] if axis == 0 else at)

    for hom in homs:
        assert tables.pool(hom).reps == tuple(twin.pool(hom))
        r, s = grid(hom, 0), grid(hom, 1)
        for op in ("join", "meet", "le"):
            got, want = getattr(tables, op)(r, s), getattr(twin, op)(r, s)
            if op != "le":
                assert got.hom == want.hom
                got, want = got.at, want.at
            np.testing.assert_array_equal(got, want, err_msg=f"{op} on {hom}")
        got, want = tables.sms(s), twin.sms(s)
        assert got.hom == want.hom
        np.testing.assert_array_equal(got.at, want.at, err_msg=f"sms on {hom}")
    for hom_r, hom_s in product(homs, repeat=2):
        if hom_r[1] == hom_s[0]:
            r, s = grid(hom_r, 0), grid(hom_s, 1)
            got, want = tables.compose(r, s), twin.compose(r, s)
            assert got.hom == want.hom
            np.testing.assert_array_equal(got.at, want.at, err_msg=f"compose {hom_r};{hom_s}")
    for point in "xyz":
        got, want = tables.identity(point), twin.identity(point)
        assert got.hom == want.hom and got.at == want.at


def test_pool_index_refuses_rows_outside_the_pool(x2, y2):
    pool = laws._pool(x2, y2)
    assert pool.index(pool.rows).tolist() == list(range(len(pool.reps)))
    with pytest.raises(KeyError):
        pool.index(np.zeros(x2.full, dtype=np.int64))


@pytest.mark.parametrize(
    "run",
    [
        lambda x, y, z: check_laws(x, y, z, trials=0),
        lambda x, y, z: search_law("modular", x, y, z, trials=-5),
        lambda x, y, z: check_fuzzy_laws(x, y, z, chain(3), trials=0),
    ],
    ids=["check_laws", "search_law", "check_fuzzy_laws"],
)
def test_sampled_runs_refuse_trials_below_one(run, x2, y2, z2):
    # zero trials would report a clean verdict over no instances
    with pytest.raises(ValueError, match="trials"):
        run(x2, y2, z2)


def test_exhaustive_runs_do_not_read_trials(x2, y2, z2):
    assert check_laws(x2, y2, z2, trials=0, exhaustive=True)["associativity"].holds
    assert search_law("modular", x2, y2, z2, exhaustive=True, trials=-5)["instances_checked"] > 0
