"""In-memory span recorder and the layer boundaries it wraps.

The traced run (``--trace 1``) installs a wrapper around every public
entry point into a layer of the program.  Each call records a span: name,
start, end, parent span and the id of the op (cell, kernel or request) it
belongs to.  Spans stay in memory; at the end of the run they give

* per-layer self time (span time minus the time its child spans cover),
  with the benchmark's own code left over as *unattributed*;
* exact call counts at each boundary;
* a Chrome trace-event file.

A span is named ``<layer>.<what>``; the layer is the program's module
(``frontend``, ``transforms``, ``analysis``, ``ir``, ``gpu``, ``harness``,
``similarity``, ``fuzz``).  Nothing under ``src/`` changes:
wrappers replace attributes at run time and :func:`install` returns the
undo function.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

#: Span record fields (a list per span, for low overhead).
NAME, START, END, PARENT, OP, TID, CHANGED = range(7)

#: Layer of the spans the benchmark itself opens around each op.
BENCH_LAYER = "bench"


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ops = itertools.count(1)
        self.origin = time.perf_counter()
        self.enabled = True

    # -- span stack ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        op = getattr(self._local, "op", 0)
        record = [name, time.perf_counter(), 0.0, parent, op,
                  threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def paused(self):
        """Calls made meanwhile (and in processes forked meanwhile) leave
        no spans and no counts."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def new_op(self) -> int:
        with self._lock:
            return next(self._ops)

    @contextmanager
    def op(self, name: str):
        """One op of the workload: a fresh op id and a ``bench`` span."""
        previous = getattr(self._local, "op", 0)
        self._local.op = self.new_op()
        index = self.begin(f"{BENCH_LAYER}.{name}")
        try:
            yield
        finally:
            self.end(index)
            self._local.op = previous

    def clear(self) -> None:
        """Forget every span and count (call with no span open)."""
        self.spans.clear()
        self.counts.clear()

    # -- reductions ------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (children's time removed)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            own = span[END] - span[START] - child_time[i]
            out[span[NAME]] = out.get(span[NAME], 0.0) + own
        return out

    def inclusive_times(self) -> Dict[str, float]:
        """Seconds inside spans of each name, nested repeats counted once."""
        out: Dict[str, float] = {}
        for span in self.spans:
            if not _under(self, span, span[NAME]):
                out[span[NAME]] = (out.get(span[NAME], 0.0)
                                   + span[END] - span[START])
        return out

    def layer_self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    # -- export ----------------------------------------------------------
    def write_chrome(self, path, pid: int = 1) -> int:
        """Chrome trace-event JSON (complete events, microseconds)."""
        events = []
        for i, span in enumerate(self.spans):
            events.append({
                "name": span[NAME], "cat": span[NAME].split(".", 1)[0],
                "ph": "X", "pid": pid, "tid": span[TID] % 100000,
                "ts": round((span[START] - self.origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "args": {"id": i, "parent": span[PARENT], "op": span[OP]}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------

def _wrap(rec: Recorder, fn: Callable, name, after=None) -> Callable:
    """``fn`` inside a span; ``name`` may be a callable of the arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.begin(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(rec, index, args, result)
        return result

    return wrapper


def _import_all() -> None:
    """Import every ``repro`` module so all name bindings exist."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def rebind(original: Callable, replacement: Callable, undo: List) -> None:
    """Replace ``original`` in every ``repro`` module that binds it."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))


def restore(undo: List) -> None:
    """Undo the replacements recorded in ``undo``."""
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)
    undo.clear()


def _patch_attr(owner, attr: str, replacement, undo: List) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _after_launch(rec, index, args, result) -> None:
    counters = result.counters
    rec.add("gpu.launches")
    rec.add("gpu.warp_insts", counters.inst_executed)
    rec.add("gpu.cycles", counters.cycles)


def _after_pass(rec, index, args, result) -> None:
    rec.spans[index][CHANGED] = bool(result)


def _after_cache_get(rec, index, args, result) -> None:
    rec.add("harness.cache_gets")
    if result is not None:
        rec.add("harness.cache_hits")


def _pass_classes() -> List[type]:
    """Every function-pass class of ``repro.transforms`` (plus the
    nested cleanup manager adapter)."""
    from repro.transforms import pipeline
    found = {pipeline._NestedManager}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.transforms."):
            continue
        for value in vars(module).values():
            if (isinstance(value, type)
                    and value.__module__ == module.__name__
                    and isinstance(getattr(value, "name", None), str)
                    and "run" in value.__dict__):
                found.add(value)
    return sorted(found, key=lambda cls: cls.__qualname__)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function undoing it all."""
    _import_all()
    from repro.analysis.cfg_utils import predecessor_map, reverse_postorder
    from repro.analysis.dominators import DominatorTree, PostDominatorTree
    from repro.analysis.loops import LoopInfo
    from repro.bench.base import Benchmark
    from repro.frontend.lower import lower_kernels
    from repro.fuzz import bisect as fuzz_bisect
    from repro.fuzz import campaign, generator, oracle
    from repro.gpu.machine import SimtMachine
    from repro.harness.cache import CellCache
    from repro.harness.experiment import ExperimentRunner
    from repro.harness.parallel import ParallelRunner
    from repro.ir.parser import parse_module
    from repro.ir.printer import print_module
    from repro.ir.verifier import verify_function, verify_module
    from repro.similarity.index import build_index
    from repro.similarity.predict import predict_bench
    from repro.transforms.pipeline import compile_module

    undo: List = []
    functions = [
        (lower_kernels, "frontend.build", None),
        (parse_module, "frontend.build", None),
        (compile_module, "transforms.compile", None),
        (predecessor_map, "analysis.preds", None),
        (reverse_postorder, "analysis.rpo", None),
        (verify_function, "ir.verify", None),
        (verify_module, "ir.verify_module", None),
        (print_module, "ir.print", None),
        (build_index, "similarity.index_build", None),
        (predict_bench, "similarity.predict", None),
        (generator.generate_kernel, "fuzz.generate", None),
        (campaign.fuzz_one, "fuzz.kernel", None),
        (oracle.run_differential, "fuzz.differential", None),
        (oracle.run_config, "fuzz.config", None),
        (oracle.execute, "fuzz.execute", None),
        (fuzz_bisect.bisect_divergence, "fuzz.bisect", None),
    ]
    for fn, name, after in functions:
        rebind(fn, _wrap(rec, fn, name, after), undo)
    for cls, name in ((DominatorTree, "analysis.domtree"),
                      (PostDominatorTree, "analysis.postdomtree"),
                      (LoopInfo, "analysis.loopinfo")):
        original = cls.__dict__["compute"].__func__
        _patch_attr(cls, "compute",
                    classmethod(_wrap(rec, original, name)), undo)

    methods = [
        (SimtMachine, "launch", "gpu.launch", _after_launch),
        (Benchmark, "run", "gpu.run", None),
        (CellCache, "get", "harness.cache_get", _after_cache_get),
        (CellCache, "put", "harness.cache_put", None),
        (ExperimentRunner, "cell", "harness.cell", None),
        (ParallelRunner, "cell", "harness.cell", None),
        (ParallelRunner, "prefetch", "harness.prefetch", None),
    ]
    for cls, attr, name, after in methods:
        _patch_attr(cls, attr, _wrap(rec, cls.__dict__[attr], name, after),
                    undo)

    for cls in _pass_classes():
        original = cls.__dict__["run"]
        _patch_attr(cls, "run", _wrap(
            rec, original,
            lambda args: f"transforms.pass.{args[0].name}", _after_pass),
            undo)

    return functools.partial(restore, undo)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def pass_names() -> List[str]:
    """Pass names in a stable order (the nested cleanup included)."""
    names = {"cleanup"}
    for cls in _pass_classes():
        if isinstance(getattr(cls, "name", None), str):
            names.add(cls.name)
    return sorted(names)


def layer_metrics(rec: Recorder, wall: float) -> Dict[str, float]:
    """Every per-layer figure the spans and counts give."""
    times = rec.inclusive_times()
    calls = collections.Counter(span[NAME] for span in rec.spans)

    def inc(name: str) -> float:
        return times.get(name, 0.0)

    def outside(name: str, enclosing: str) -> float:
        """Seconds in ``name`` spans not nested in an ``enclosing`` one."""
        return sum(s[END] - s[START] for s in rec.spans
                   if s[NAME] == name and not _under(rec, s, enclosing))

    out: Dict[str, float] = {
        "frontend.build_s": inc("frontend.build"),
        "frontend.builds": calls["frontend.build"],
        "transforms.compile_s": inc("transforms.compile"),
        "analysis.preds_calls": calls["analysis.preds"],
        "analysis.rpo_calls": calls["analysis.rpo"],
        "analysis.domtree_calls": calls["analysis.domtree"],
        "analysis.loopinfo_calls": calls["analysis.loopinfo"],
        "ir.verify_s": inc("ir.verify_module")
        + outside("ir.verify", "ir.verify_module"),
        "ir.verify_calls": calls["ir.verify"],
        "gpu.simulate_s": inc("gpu.run") + outside("gpu.launch", "gpu.run"),
        "gpu.launches": rec.counts.get("gpu.launches", 0),
        "gpu.warp_insts": rec.counts.get("gpu.warp_insts", 0),
        "gpu.cycles": rec.counts.get("gpu.cycles", 0.0),
        "harness.cache_get_s": inc("harness.cache_get"),
        "harness.cache_put_s": inc("harness.cache_put"),
        "similarity.index_build_s": inc("similarity.index_build"),
        "similarity.predict_s": inc("similarity.predict"),
        "fuzz.reference_s": outside("fuzz.execute", "fuzz.config"),
        "fuzz.bisect_s": inc("fuzz.bisect"),
    }
    selfs = rec.self_times()
    out["analysis.s"] = sum(v for k, v in selfs.items()
                            if k.startswith("analysis."))
    gets = rec.counts.get("harness.cache_gets", 0)
    out["harness.cache_hit_ratio"] = (
        rec.counts.get("harness.cache_hits", 0) / gets if gets else 0.0)

    runs: Dict[str, int] = {}
    changes: Dict[str, int] = {}
    cleanup_runs = cleanup_useful = 0
    for span in rec.spans:
        name = span[NAME]
        if not name.startswith("transforms.pass."):
            continue
        short = name[len("transforms.pass."):]
        runs[short] = runs.get(short, 0) + 1
        if span[CHANGED]:
            changes[short] = changes.get(short, 0) + 1
        parent = span[PARENT]
        if parent >= 0 and rec.spans[parent][NAME] == \
                "transforms.pass.cleanup":
            cleanup_runs += 1
            cleanup_useful += bool(span[CHANGED])
    for short in pass_names():
        out[f"transforms.pass_s.{short}"] = inc(f"transforms.pass.{short}")
        out[f"transforms.pass_runs.{short}"] = runs.get(short, 0)
        out[f"transforms.pass_changes.{short}"] = changes.get(short, 0)
    out["transforms.cleanup_useful_ratio"] = (
        cleanup_useful / cleanup_runs if cleanup_runs else 0.0)

    layers = rec.layer_self_times()
    attributed = sum(v for k, v in layers.items() if k != BENCH_LAYER)
    out["trace.unattributed_share"] = (
        max(0.0, wall - attributed) / wall if wall > 0 else 0.0)
    return out


def _under(rec: Recorder, span: list, name: str) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if rec.spans[parent][NAME] == name:
            return True
        parent = rec.spans[parent][PARENT]
    return False
