"""Tests of the benchmark itself (not of ambrel).

Run from the repository root with ``python3 -m pytest bench/tests -q``.
The smoke and percentile-placement tests start real benchmark runs and
take about a minute together.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ambrel.cli
import ambrel.fuzzy
import ambrel.laws
import stats
import tracing
from ambrel import catalog, fuzzy
from ambrel.hyperspace import space

BENCH = Path(__file__).resolve().parent.parent
WORKLOADS = ("encode", "small", "graded", "cli")


def bench(*args) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def record(workload: str, seed: int, trace: int, size: str) -> dict:
    path = BENCH / "out" / "results" / f"{workload}-seed{seed}-trace{trace}-{size}.json"
    return json.loads(path.read_text())


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_has_no_failures(workload, trace):
    code, lines = bench("--workload", workload, "--size", "tiny", "--seconds", "0.2",
                        "--seed", "7", "--trace", str(trace))
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 100
    if trace:
        assert "trace_overhead_frac" in result["metrics"]
        assert set(result["metrics"]) == set(tracing.metric_units())
    else:
        assert set(result["metrics"]) == {
            "items_per_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb"
        }
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_percentiles_sit_inside_an_item_class():
    """At full size, p50 and p90 keep clear of every class boundary."""
    for workload in WORKLOADS:
        code, _ = bench("--workload", workload, "--seconds", "1", "--seed", "5")
        assert code == 0
        margin = record(workload, 5, 0, "full")["class_margin"]
        assert margin["p50"] >= 0.05, (workload, margin)
        assert margin["p90"] >= 0.05, (workload, margin)


# -- the percentile helper ---------------------------------------------------------


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 90)
    value, beyond = stats.percentile(list(range(100)), 90)
    assert (value, beyond) == (89, 10)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(21)), 50) == (10, 10)
    assert stats.min_items_for(90) == 100


def test_class_boundary_margin():
    medians = {"fast": 1.0, "slow": 10.0}
    assert stats.class_boundary_margin({"fast": 0.6, "slow": 0.4}, medians, 0.5) == pytest.approx(0.1)
    assert stats.class_boundary_margin({"fast": 0.5, "slow": 0.5}, medians, 0.5) == 0
    assert stats.class_boundary_margin({"only": 1.0}, {"only": 1.0}, 0.9) == 1.0


# -- spans and self time ----------------------------------------------------------------


def test_self_time_of_a_synthetic_nested_trace():
    # 0 [0,10] holds 1 [1,4] and 3 [5,9]; 1 holds 2 [2,3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    names = ["a", "b", "fuzzy.sms", "crisp.sms", "fuzzy.from_cuts"]
    tot = tracing.span_totals(names, np.array([0, 1, 1, 0]), parent, start, end,
                              np.array([0, 1, 0, 0], dtype=np.int8))
    assert tot["a"] == {"self_s": 7.0, "calls": 2, "raised": 0}
    assert tot["b"] == {"self_s": 3.0, "calls": 2, "raised": 1}


def test_traced_calls_nest_and_count():
    lat = catalog.chain(3)
    x, y = space("x1", "x2"), space("y1", "y2")
    rep = fuzzy.identity(x, lat)
    tracer = tracing.Tracer()
    with tracer:
        fuzzy.sms(rep)
        with pytest.raises(ValueError):
            fuzzy.validate(x, y, lat, np.zeros((3, 3), dtype=int))
    tot = tracer.totals()
    assert tot["fuzzy.sms"]["calls"] == 1
    assert tot["fuzzy.sms"]["crisp_sms_children"] == lat.size
    assert tot["fuzzy.sms"]["from_cuts_children"] == 1
    assert tot["crisp.sms"]["calls"] == lat.size
    # alpha_cut: one per grade inside sms, one per grade inside from_cuts
    assert tot["fuzzy.alpha_cut"]["calls"] == 2 * lat.size
    assert tot["fuzzy.validate"] == {"self_s": tot["fuzzy.validate"]["self_s"], "calls": 1, "raised": 1}
    a = tracer.arrays()
    own = tracing.self_times(a["parent"], a["start"], a["end"])
    assert (own >= 0).all()
    total = a["end"][a["parent"] < 0] - a["start"][a["parent"] < 0]
    assert own.sum() == pytest.approx(total.sum())


def test_generator_span_covers_its_iteration():
    x, y = space("x1", "x2"), space("y1", "y2")
    tracer = tracing.Tracer()
    with tracer:
        reps = list(catalog.all_crisp_reps(x, y))
    assert len(reps) == 25
    tot = tracer.totals()
    assert tot["catalog.all_crisp_reps"]["calls"] == 1
    assert tot["catalog.all_crisp_reps"]["self_s"] > 0


def test_wrappers_are_removed_after_the_traced_run():
    modules = [m for name, m in sys.modules.items() if name == "ambrel" or name.startswith("ambrel.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    tracer = tracing.Tracer()
    with tracer:
        assert ambrel.laws.all_crisp_reps is not before[("ambrel.laws", "all_crisp_reps")]
        assert ambrel.cli.encode is not before[("ambrel.cli", "encode")]
        assert ambrel.fuzzy.crisp.sms is not before[("ambrel.crisp", "sms")]
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
