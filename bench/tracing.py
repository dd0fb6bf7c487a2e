"""Spans around the calls into ambrel's modules, recorded from outside.

:class:`Tracer` wraps the public functions listed in ``TRACED`` and
patches each wrapper into every ambrel module that binds the function
(``laws`` binds ``all_crisp_reps``, ``cli`` binds ``encode``, and so on),
so calls between modules are seen as well as calls from the benchmark.
Every call records a span: name, start, end, parent span and item id,
kept in flat arrays in memory and written out when the run ends.  Self
time is a span's duration minus the durations of its direct children;
calls nest on one thread, so children never overlap.

Small helpers (hyperspace tables, ``lattice.le``/``join``) are not
wrapped: they run in microseconds, a wrapper would cost more than they
do, and their time is charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from functools import update_wrapper
from time import perf_counter

import numpy as np

MODULES = (
    "capacity",
    "catalog",
    "cli",
    "crisp",
    "fuzzy",
    "generators",
    "hyperencoding",
    "io",
    "laws",
    "lattice",
)

TRACED = {
    "hyperencoding": (
        "encode",
        "subset_saturate",
        "sup_saturate",
        "plus",
        "is_encoded",
        "decode",
        "family_sup",
    ),
    "crisp": ("sms", "compose", "from_seed", "validate", "unavoidable"),
    "fuzzy": ("validate", "sms", "compose", "alpha_cut", "from_cuts", "join", "meet"),
    "capacity": ("capacities_of", "validate_capacity", "validate_subgraph"),
    "lattice": ("validate_lattice",),
    "catalog": ("all_crisp_reps",),
    "laws": ("check_laws", "check_fuzzy_laws", "search_law"),
    "io": (
        "loads",
        "dumps",
        "crisp_rep_from",
        "fuzzy_rep_from",
        "crisp_rep_payload",
        "fuzzy_rep_payload",
        "hyper_payload",
    ),
    "generators": ("random_fuzzy_rep",),
    "cli": ("main",),
}

# generator functions: the span covers the time spent inside the iteration
GENERATORS = {"catalog.all_crisp_reps"}

FUNCTIONS = tuple(f"{m}.{f}" for m in TRACED for f in TRACED[m])

def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for m in MODULES:
        units[f"{m}.self_s"] = "s"
        units[f"{m}.calls"] = "count"
        units[f"{m}.raised"] = "count"
    for f in FUNCTIONS:
        units[f"{f}.self_s"] = "s"
        units[f"{f}.calls"] = "count"
    units.update(
        {
            "fuzzy.sms.crisp_sms_per_call": "ratio",
            "fuzzy.sms.from_cuts_per_call": "ratio",
            "io.dumps.bytes": "bytes",
            "io.loads.bytes": "bytes",
            "hyperencoding.sup_saturate.cells_out": "count",
            "trace_overhead_frac": "ratio",
        }
    )
    return units


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = list(FUNCTIONS)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.top = -1
        self.item_id = -1
        self.dumps_bytes = 0
        self.loads_bytes = 0
        self.cells_out = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self.top)
        self.item.append(self.item_id)
        self.raised.append(0)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.top = sid
        return sid

    def _wrap(self, qualname: str, fn):
        idx = self._index[qualname]
        tracer = self

        if qualname in GENERATORS:

            def wrapper(*args, **kwargs):
                # time only the stretches spent inside the generator; the
                # span's end is its start plus that total
                inner = fn(*args, **kwargs)
                sid = -1
                spent = 0.0
                while True:
                    if sid < 0:
                        sid = tracer._open(idx)
                        prev = tracer.parent[sid]
                        t = tracer.start[sid]
                    else:
                        prev, tracer.top = tracer.top, sid
                        t = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        spent += perf_counter() - t
                        tracer.end[sid] = tracer.start[sid] + spent
                        tracer.top = prev
                        return
                    except BaseException:
                        spent += perf_counter() - t
                        tracer.end[sid] = tracer.start[sid] + spent
                        tracer.raised[sid] = 1
                        tracer.top = prev
                        raise
                    spent += perf_counter() - t
                    tracer.end[sid] = tracer.start[sid] + spent
                    tracer.top = prev
                    yield value

        else:
            after = {
                "io.dumps": self._count_dumps,
                "io.loads": self._count_loads,
                "hyperencoding.sup_saturate": self._count_cells,
            }.get(qualname)

            def wrapper(*args, **kwargs):
                sid = tracer._open(idx)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    tracer.raised[sid] = 1
                    raise
                finally:
                    tracer.end[sid] = perf_counter()
                    tracer.top = tracer.parent[sid]
                if after is not None:
                    after(args, out)
                return out

        update_wrapper(wrapper, fn)
        return wrapper

    def _count_dumps(self, args, out) -> None:
        self.dumps_bytes += len(out)

    def _count_loads(self, args, out) -> None:
        self.loads_bytes += len(args[0])

    def _count_cells(self, args, out) -> None:
        self.cells_out += int(np.count_nonzero(out.masks))

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch a wrapper over every binding of every traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "ambrel" or name.startswith("ambrel."))
        ]
        for qualname in self.names:
            mod_name, fname = qualname.split(".")
            original = getattr(importlib.import_module(f"ambrel.{mod_name}"), fname)
            wrapper = self._wrap(qualname, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: summed self time, calls, raised; plus the direct
        children counts that the ratio metrics need."""
        a = self.arrays()
        return span_totals(self.names, a["name"], a["parent"], a["start"], a["end"], a["raised"])


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    covered = np.zeros(len(dur))
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def span_totals(names, name, parent, start, end, raised) -> dict[str, dict[str, float]]:
    n = len(names)
    own = self_times(parent, start, end)
    self_s = np.bincount(name, weights=own, minlength=n)
    calls = np.bincount(name, minlength=n)
    fails = np.bincount(name, weights=raised.astype(float), minlength=n)
    out = {
        names[i]: {"self_s": float(self_s[i]), "calls": int(calls[i]), "raised": int(fails[i])}
        for i in range(n)
    }
    # direct children of fuzzy.sms spans, by child name
    idx = {nm: i for i, nm in enumerate(names)}
    child = parent >= 0
    parent_name = np.full(len(name), -1)
    parent_name[child] = name[parent[child]]
    under_sms = parent_name == idx["fuzzy.sms"]
    out["fuzzy.sms"]["crisp_sms_children"] = int(np.sum(under_sms & (name == idx["crisp.sms"])))
    out["fuzzy.sms"]["from_cuts_children"] = int(
        np.sum(under_sms & (name == idx["fuzzy.from_cuts"]))
    )
    return out


def layer_metrics(tracer: Tracer, passes: int, overhead_frac: float) -> dict[str, dict]:
    """Per-layer metrics per pass over the workload's item deck, each as
    ``{"value": ..., "unit": ...}``."""
    tot = tracer.totals()
    m: dict[str, float] = {}
    for mod in MODULES:
        fns = [f"{mod}.{f}" for f in TRACED[mod]]
        m[f"{mod}.self_s"] = sum(tot[f]["self_s"] for f in fns) / passes
        m[f"{mod}.calls"] = sum(tot[f]["calls"] for f in fns) / passes
        m[f"{mod}.raised"] = sum(tot[f]["raised"] for f in fns) / passes
    for f in FUNCTIONS:
        m[f"{f}.self_s"] = tot[f]["self_s"] / passes
        m[f"{f}.calls"] = tot[f]["calls"] / passes
    sms_calls = tot["fuzzy.sms"]["calls"]
    m["fuzzy.sms.crisp_sms_per_call"] = (
        tot["fuzzy.sms"]["crisp_sms_children"] / sms_calls if sms_calls else 0.0
    )
    m["fuzzy.sms.from_cuts_per_call"] = (
        tot["fuzzy.sms"]["from_cuts_children"] / sms_calls if sms_calls else 0.0
    )
    m["io.dumps.bytes"] = tracer.dumps_bytes / passes
    m["io.loads.bytes"] = tracer.loads_bytes / passes
    sat_calls = tot["hyperencoding.sup_saturate"]["calls"]
    m["hyperencoding.sup_saturate.cells_out"] = tracer.cells_out / sat_calls if sat_calls else 0.0
    m["trace_overhead_frac"] = overhead_frac
    units = metric_units()
    return {k: {"value": m[k], "unit": units[k]} for k in units}
