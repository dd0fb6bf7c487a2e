"""One workload in one fresh interpreter.

Started by ``run.py``; prints one JSON record as its last stdout line.
Set-up (imports, inputs, one warm-up call per distinct space and lattice)
runs first; ``setup_s`` is measured from the moment the parent started
this process to the first timed item, on the system-wide monotonic clock.
Then a closed loop with one caller runs the item deck, pass after pass,
until the time is up and enough items have finished for the p90.  With
tracing on, passes alternate untraced and traced, and the ratio of their
medians is the tracing overhead.  Checks run after the timed loop.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import ambrel  # noqa: E402  (the checkout's own copy, never an installed one)
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if SRC not in Path(ambrel.__file__).resolve().parents:
    raise ImportError(f"ambrel imported from {ambrel.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        deck = workloads.build(args.workload, args.seed, args.size, workdir)
        warmed = set()
        for item in deck.items:
            if item.key not in warmed:
                warmed.add(item.key)
                item.warm()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = timed_loop(deck, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = setup_s
    print(json.dumps(record))
    return 0


def timed_loop(deck, args) -> dict:
    items = deck.items
    min_items = stats.min_items_for(90)
    tracer = tracing.Tracer() if args.trace else None
    latencies: list[float] = []
    classes: list[str] = []
    reference: list = [None] * len(items)
    raised: dict[int, str] = {}
    mismatched = [0] * len(items)  # later passes that did not reproduce pass 0
    attempted = 0
    pass_times = {False: [], True: []}
    passes = 0
    # the deck's own objects stay out of the collector's way in the timed loop
    gc.collect()
    gc.freeze()
    began = time.perf_counter()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        busy = 0.0
        try:
            for i, item in enumerate(items):
                if traced:
                    tracer.item_id = i
                t = time.perf_counter()
                try:
                    out = item.run()
                    ok = True
                except Exception as e:  # an item that raises counts as failed
                    out, ok = f"{type(e).__name__}: {e}", False
                dt = time.perf_counter() - t
                busy += dt
                attempted += 1
                if not traced:
                    latencies.append(dt)
                    classes.append(item.cls)
                if passes == 0:
                    reference[i] = out
                    if not ok:
                        raised[i] = out
                elif not ok or out != reference[i]:
                    mismatched[i] += 1
        finally:
            if traced:
                tracer.uninstall()
        pass_times[traced].append(busy)
        passes += 1
        done = time.perf_counter() - began >= args.seconds and len(latencies) >= min_items
        if done and (tracer is None or pass_times[True]):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # checks, outside the timed region
    failures: dict[int, list[str]] = {i: [msg] for i, msg in raised.items()}
    for i, item in enumerate(items):
        if i in failures:
            continue
        try:
            bad = item.check(reference[i])
        except Exception as e:
            bad = [f"check raised {type(e).__name__}: {e}"]
        if bad:
            failures[i] = bad
    digest = hashlib.sha256()
    for i, out in enumerate(reference):
        digest.update(repr(out).encode() if i in raised else workloads.canonical_bytes(out))
    digest = digest.hexdigest()
    # every run of a deck item whose reference output failed counts as failed
    failed = sum(passes if i in failures else mismatched[i] for i in range(len(items)))

    shares = deck.class_shares()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "deck_items": len(items),
        "passes": passes,
        "pass_busy_s": pass_times[False],
        "attempted": attempted,
        "failed": failed,
        "failures": [f"item {i} ({items[i].cls}): {msg}" for i, msgs in failures.items() for msg in msgs][:20],
        "digest": digest,
        "peak_rss_mb": rss_kb / 1024,
        "env": environment(),
        "class_shares": shares,
    }
    if tracer is None:
        busy = sum(latencies)
        p50, beyond50 = stats.percentile(latencies, 50)
        p90, beyond90 = stats.percentile(latencies, 90)
        medians = {
            c: statistics.median(dt for dt, k in zip(latencies, classes) if k == c) for c in shares
        }
        record.update(
            {
                "items": len(latencies),
                "busy_s": busy,
                "items_per_s": len(latencies) / busy,
                "item_p50_ms": p50 * 1e3,
                "item_p90_ms": p90 * 1e3,
                "samples_beyond": {"p50": beyond50, "p90": beyond90},
                "class_median_ms": {c: v * 1e3 for c, v in medians.items()},
                "class_margin": {
                    "p50": stats.class_boundary_margin(shares, medians, 0.5),
                    "p90": stats.class_boundary_margin(shares, medians, 0.9),
                },
            }
        )
    else:
        n_traced = len(pass_times[True])
        overhead = statistics.median(pass_times[True]) / statistics.median(pass_times[False]) - 1
        record["traced_passes"] = n_traced
        record["per_layer"] = tracing.layer_metrics(tracer, n_traced, overhead)
        if args.spans:
            tracer.save(args.spans)
    return record


if __name__ == "__main__":
    sys.exit(main())
