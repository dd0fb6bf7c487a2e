"""ambrel benchmark: four workloads, end-to-end and per-module metrics.

Usage, from the repository root:

    python3 bench/run.py                              # all four workloads
    python3 bench/run.py --workload encode --seed 3 --seconds 15
    python3 bench/run.py --workload graded --trace 1  # per-module metrics

Each workload runs in a fresh interpreter (``worker.py``).  With
``--trace 0`` the end-to-end metrics are printed; ``setup_s`` is the
median of several set-ups, each in its own interpreter.  With
``--trace 1`` a separate run reports the per-module metrics instead.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record, with the machine and the
sample counts, is written under ``bench/out/results/``.  The exit code
is 1 when any output check fails and 2 when a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("encode", "small", "graded", "cli")
DEFAULT_SEED = 1
SETUP_SAMPLES = {"full": 3, "tiny": 1}
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkloadError(RuntimeError):
    """A workload process failed or printed no record."""


def spawn(args: argparse.Namespace, workload: str, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--workdir", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--spans", str(OUT / "results" / f"spans-{workload}-seed{args.seed}.npz")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES[args.size] - 1):
            samples.append(spawn(args, workload, setup_only=True)["setup_s"])
    record = spawn(args, workload, setup_only=False)
    samples.append(record["setup_s"])
    record["setup_samples_s"] = samples
    record["setup_s"] = statistics.median(samples)

    expected = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        expected = json.loads(GOLDEN.read_text()).get(workload)
        if record["digest"] != expected:
            record["failures"].append(
                f"digest {record['digest']} differs from the recorded {expected}"
            )
            record["failed"] = record["attempted"]
    record["digest_expected"] = expected
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def report(record: dict) -> dict:
    """Print the human summary; return the contract's result object."""
    w = record["workload"]
    out = sys.stdout
    print(f"== {w}  seed={record['seed']}  size={record['size']}  trace={record['trace']}", file=out)
    env = record["env"]
    print(
        f"   machine: {env['nproc']} cpus, {env['cpu_model']}; "
        f"python {env['python']}, numpy {env['numpy']}",
        file=out,
    )
    print(
        f"   deck {record['deck_items']} items x {record['passes']} passes; "
        f"attempted {record['attempted']}, failed {record['failed']} "
        f"(failed_frac {record['failed_frac']:.4f} ratio)",
        file=out,
    )
    print(
        f"   digest {record['digest']}"
        + ("" if record["digest_expected"] is None else
           " (matches recorded)" if record["digest"] == record["digest_expected"] else " (MISMATCH)"),
        file=out,
    )
    for msg in record["failures"]:
        print(f"   FAILED: {msg}", file=out)
    if record["trace"]:
        metrics = record["per_layer"]
        value = {k: m["value"] for k, m in metrics.items()}
        mods = sorted(
            (k for k in value if k.count(".") == 1 and k.endswith(".self_s")),
            key=lambda k: -value[k],
        )
        print(f"   traced passes {record['traced_passes']}; "
              f"trace_overhead_frac {value['trace_overhead_frac']:.3f} ratio", file=out)
        for k in mods:
            calls = value[k.replace(".self_s", ".calls")]
            print(f"   {k:<24} {value[k]:10.5f} s/pass  {calls:10.1f} calls/pass", file=out)
    else:
        metrics = {k: {"value": record[k], "unit": u} for k, u in END_TO_END.items()}
        for k, u in END_TO_END.items():
            print(f"   {k:<14} {record[k]:12.4f} {u}", file=out)
        b = record["samples_beyond"]
        print(
            f"   items {record['items']} (p50: {b['p50']} beyond, p90: {b['p90']} beyond); "
            f"setup samples {len(record['setup_samples_s'])}; "
            f"class margins p50 {record['class_margin']['p50']:.3f}, "
            f"p90 {record['class_margin']['p90']:.3f}",
            file=out,
        )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def save(record: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{record['size']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four, one after another")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0, help="timed phase per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ambrel" / "__init__.py").is_file():
        print(f"error: no ambrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            record = run_workload(args, workload)
        except WorkloadError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        result = report(record)
        save(record)
        print(json.dumps(result))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
