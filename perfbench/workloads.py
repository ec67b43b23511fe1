"""The benchmark's workloads.

Each workload drives the program only through its public functions and
returns a :class:`Outcome`: per-op latencies, per-pass throughputs, set-up
samples, the deterministic outputs of every op, and report rows.

A run repeats a fixed *pass* of ops as often as ``--seconds`` asks for at
the pass length measured on a 2-core machine, so every run of the same
size does the same work.  The traced run makes exactly one pass at ``-j1``
so its counts repeat exactly.

Why the inputs are what they are:

* ``apps`` — the 16 paper apps x {baseline, uu_heuristic, tuned,
  predicted}, cold one cell at a time through a ``ParallelRunner`` into a
  fresh cell cache and similarity index, then fetched again warm.  The
  seed orders the apps.  The cold cells run in this process, not through
  the -j2 pool: the pool's wall time moved by 0.29 (IQR/median, ten runs)
  with the host's speed, which a probe in this process cannot follow; the
  traced run measures the pool's fan-out efficiency instead.
* ``loop-sweep`` — the per-loop sweep behind Figs 6-8 at ``-j1`` with no
  cell cache, over apps whose every cell finishes within the default 20 s
  compile budget.  An app with a budget-stopped cell (lavaMD ``uu x8``,
  the cheapest) is left out: that one cell takes 20-36 s on a 2-vCPU VM
  and finishes or not depending on machine load, so it moved sweep
  throughput by 43% between runs of the same inputs; it belongs back in
  once the budget is deterministic.  The set is fixed because apps differ
  in sweep cost by 60x, so a per-seed draw of whole apps moves throughput
  by more than any useful bound; the seed orders apps and cells.
* ``fuzz`` — ``fuzz_one`` (the differential oracle with verify after every
  pass, bisect on failure) over a fixed pool of generator seeds; the
  workload seed orders them.  Kernel costs differ by 4x, and a run holds
  only about a dozen, so a per-seed pool would move kernels/s by more than
  any useful bound.

Not a workload: a ``repro serve`` daemon at its default two queue
workers, which race on the use lists of interned IR constants
(``ir/constants.py``) when two jobs compile at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

now = time.perf_counter

APPS_CONFIGS = ("baseline", "uu_heuristic", "tuned", "predicted")
#: Warm re-reads of the apps cell set per pass (fresh runner each time).
APPS_WARM_REPEATS = 10
#: Seconds one pass takes on a 2-core machine (sizes a run's pass count).
APPS_PASS_SECONDS = 12.0
LOOP_SWEEP_PASS_SECONDS = 15.0
FUZZ_PASS_SECONDS = 18.0
LOOP_SWEEP_APPS = ("bspline-vgh", "coordinates", "ccs", "XSBench")
LOOP_SWEEP_CONFIGS = ("uu", "unroll", "unmerge")
#: Generator seeds of the fuzz pool.
FUZZ_POOL = tuple(range(12))
#: Set-up repetitions per run (the reported set-up time is their median).
SETUP_REPEATS = 5
#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: The host-speed probe: a fixed pure-Python loop, timed before every op
#: while the program is idle.  On a shared VM the host's speed swings by up
#: to 1.7x between runs and within one (other tenants' load); an op in this
#: process and the probe next to it slow together.  Every latency and
#: throughput, and each set-up sample (a subprocess started right after a
#: few probes), is scaled to the probe's time at the reference speed (a
#: 2-vCPU VM at its fast state), so that runs at different host speeds
#: compare.  Uncorrected figures are reported beside them.
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 0.0011


@dataclass
class Context:
    root: Path            # checkout root
    work: Path            # per-run scratch directory inside the checkout
    seed: int
    seconds: float
    recorder: object = None     # layers.Recorder in the traced run
    probe_seconds: float = 0.0  # spent in the probe, kept out of walls

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(self.root / "perfbench")])
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def probe(self) -> float:
        """Seconds of one run of the host-speed probe; 0 in the traced run,
        which reports no end-to-end timings."""
        if self.traced:
            return 0.0
        begun = now()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        seconds = now() - begun
        self.probe_seconds += seconds
        return seconds

    def op(self, name: str):
        """Context of one op: a ``bench`` span in the traced run."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.op(name)


@dataclass
class Outcome:
    """What one workload run measured and produced."""

    latencies: List[float] = field(default_factory=list)
    pass_rates: List[float] = field(default_factory=list)
    pass_seconds: List[float] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    #: Host-speed probe seconds (see ``Context.probe``) before each latency
    #: sample, their median over each pass, and the median of five before
    #: each set-up sample.
    latency_probes: List[float] = field(default_factory=list)
    pass_probes: List[float] = field(default_factory=list)
    setup_probes: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: op key -> deterministic output; must be identical in every run.
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Quality figures and workload-specific numbers for the report.
    figures: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers the trace cannot see.
    layers: Dict[str, float] = field(default_factory=dict)
    rows: List[Dict] = field(default_factory=list)
    slowest: List[Dict] = field(default_factory=list)
    generated: Dict[str, object] = field(default_factory=dict)
    measured_seconds: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def record(self, key: str, value) -> None:
        previous = self.outputs.get(key)
        if previous is not None and previous != value:
            self.errors.append(f"{key}: output changed within the run: "
                               f"{previous} != {value}")
        self.outputs[key] = value


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def geomean(values) -> float:
    values = [v for v in values if v > 0 and math.isfinite(v)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: List[float]):
    """(percentile, value, samples beyond) for the highest percentile of
    :data:`TAIL_LADDER` with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= 10:
            return pct, ordered[rank - 1], beyond
    return 50.0, percentile(ordered, 50.0), n - math.ceil(n / 2)


def run_passes(ctx: Context, out: Outcome, one_pass: Callable[[int], None],
               nominal_seconds: float) -> None:
    """Run the fixed number of passes that ``--seconds`` asks for.

    The count comes from the pass length measured on a 2-core machine
    (``nominal_seconds``), not from the clock, so every run of a given
    ``--seconds`` does the same work and a faster program finishes sooner.
    The traced run makes one pass, and its trace covers just that pass.
    """
    passes = 1 if ctx.traced else max(1, round(ctx.seconds /
                                               nominal_seconds))
    if ctx.traced:
        ctx.recorder.clear()    # the trace covers the measured passes only
    start = now()
    for index in range(passes):
        begun = now()
        one_pass(index)
        out.pass_seconds.append(now() - begun)
    out.measured_seconds = now() - start


def _fresh_dir(ctx: Context, name: str) -> Path:
    path = ctx.work / name
    path.mkdir(parents=True, exist_ok=False)
    return path


def _timed_subprocess(ctx: Context, code: str) -> float:
    begun = now()
    subprocess.run([sys.executable, "-c", code], cwd=ctx.root,
                   env=ctx.env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return now() - begun


def setup_once(workload: str, directory: str) -> None:
    """One fresh-process set-up of ``workload`` (timed by the caller)."""
    if workload == "apps":
        from repro.harness import CellCache, ParallelRunner  # noqa: F401
        from repro.similarity.index import SimilarityIndex, build_index
        build_index(index=SimilarityIndex(Path(directory)))
    elif workload == "loop-sweep":
        from repro.bench import benchmark_by_name
        from repro.harness import ExperimentRunner, sweep_specs  # noqa: F401
        for app in LOOP_SWEEP_APPS:
            sweep_specs(benchmark_by_name(app), LOOP_SWEEP_CONFIGS)
    elif workload == "fuzz":
        from repro.fuzz.campaign import fuzz_one  # noqa: F401
        from repro.fuzz.generator import generate_kernel
        from repro.fuzz.oracle import subject_from_kernel
        for seed in FUZZ_POOL:
            subject_from_kernel(generate_kernel(seed), seed=seed).build()


def measure_setup(ctx: Context, out: Outcome, workload: str) -> None:
    for i in range(SETUP_REPEATS):
        directory = _fresh_dir(ctx, f"setup{i}")
        code = ("import workloads; workloads.setup_once("
                f"{workload!r}, {str(directory)!r})")
        out.setup_probes.append(statistics.median(
            ctx.probe() for _ in range(5)))
        out.setup_samples.append(_timed_subprocess(ctx, code))


# ---------------------------------------------------------------------------
# apps
# ---------------------------------------------------------------------------

def _decisions(decisions) -> list:
    """Decisions as plain JSON values."""
    return json.loads(json.dumps(
        [d if isinstance(d, dict) else dataclasses.asdict(d)
         for d in decisions]))


def _cell_output(cell) -> Dict:
    return {"cycles": cell.cycles, "code_size": cell.code_size,
            "decisions": _decisions(cell.heuristic_decisions)}


def _check_cell(out: Outcome, cell, label: str) -> bool:
    if cell.error is not None:
        out.fail(f"{label}: error\n{cell.error}")
        return False
    if not cell.outputs_match_baseline:
        out.fail(f"{label}: outputs differ from the baseline")
        return False
    return True


def run_apps(ctx: Context) -> Outcome:
    from repro.bench import all_benchmarks
    from repro.harness import CellCache, CellSpec, ParallelRunner
    from repro.similarity.index import SimilarityIndex, build_index

    out = Outcome()
    measure_setup(ctx, out, "apps")
    benches = all_benchmarks()
    ctx.rng().shuffle(benches)
    specs = [CellSpec(b.name, c, None, 1) for b in benches
             for c in APPS_CONFIGS]
    by_name = {b.name: b for b in benches}
    out.generated = {"apps": [b.name for b in benches],
                     "configs": list(APPS_CONFIGS)}
    warm_rates: List[float] = []
    index_build: List[float] = []
    verify_s: List[float] = []
    first: Dict = {}
    simulate: Dict[str, float] = {}

    def fresh_runner(base: Path, workers: int):
        begun = now()
        build_index(benches, index=SimilarityIndex(base / "simindex"))
        index_build.append(now() - begun)
        return ParallelRunner(jobs=workers, cache=CellCache(base / "cells"),
                              sim_index_dir=base / "simindex")

    def check_cells(cells) -> None:
        out.attempted += len(cells)
        for spec, cell in zip(specs, cells):
            label = f"{spec.app}/{spec.config}"
            if _check_cell(out, cell, label):
                out.record(f"apps:{label}", _cell_output(cell))
            first.setdefault(label, cell)

    def fan_out(base: Path) -> float:
        """All cells cold through a -j2 prefetch; returns the pool's fan-out
        efficiency, worker busy seconds / (jobs x prefetch wall)."""
        runner = fresh_runner(base, 2)
        begun = now()
        cells = runner.prefetch(benches, specs=specs)
        wall = now() - begun
        check_cells(cells)
        return sum(runner.phase_seconds.values()) / (2 * wall)

    def one_pass(number: int) -> None:
        base = _fresh_dir(ctx, f"apps{number}")
        # One cold cell per op, each after a host-speed probe.
        runner = fresh_runner(base, 1)
        probes, probing = [], ctx.probe_seconds
        begun = now()
        cells = []
        for spec in specs:
            before = runner.phase_seconds["simulate"]
            probes.append(ctx.probe())
            with ctx.op("cell"):
                cells.append(runner.cell(by_name[spec.app], spec.config))
            if number == 0:
                simulate[spec.app] = (simulate.get(spec.app, 0.0)
                                      + runner.phase_seconds["simulate"]
                                      - before)
        wall = now() - begun - (ctx.probe_seconds - probing)
        out.pass_rates.append(len(cells) / wall)
        out.pass_probes.append(statistics.median(probes))
        verify_s.append(runner.phase_seconds["verify"])
        check_cells(cells)

        # A warm op is one app's four cells from the cache: the everyday
        # "what do the heuristic, tuner and predictor do for my app".
        warm_wall = 0.0
        for _ in range(APPS_WARM_REPEATS):
            reader = ParallelRunner(jobs=1, cache=CellCache(base / "cells"),
                                    sim_index_dir=base / "simindex")
            for bench in benches:
                out.latency_probes.append(ctx.probe())
                begun = now()
                with ctx.op("warm-app"):
                    warm = [reader.cell(bench, c) for c in APPS_CONFIGS]
                latency = now() - begun
                out.latencies.append(latency)
                warm_wall += latency
                out.attempted += 1
                for config, cell in zip(APPS_CONFIGS, warm):
                    label = f"{bench.name}/{config}"
                    if _check_cell(out, cell, label + " (warm)"):
                        out.record(f"apps:{label}", _cell_output(cell))
            if reader.cache.hits != len(specs):
                out.fail(f"warm pass hit the cache {reader.cache.hits}"
                         f"/{len(specs)} times")
        warm_rates.append(len(specs) * APPS_WARM_REPEATS / warm_wall)

    run_passes(ctx, out, one_pass, APPS_PASS_SECONDS)
    if ctx.traced:
        # The pool's fan-out, measured once after the traced pass with
        # tracing paused (the pool runs in other processes, which the
        # host-speed probe cannot follow, so it is no end-to-end figure).
        with ctx.recorder.paused():
            out.layers["harness.parallel_efficiency"] = fan_out(
                _fresh_dir(ctx, "fan-out"))
    out.figures["warm_throughput_ops_s"] = statistics.median(warm_rates)
    out.layers["harness.verify_s"] = statistics.median(verify_s)
    out.figures["index_build_s"] = statistics.median(index_build)

    speedups = {c: [] for c in APPS_CONFIGS[1:]}
    sizes = []
    for bench in benches:
        base = first[f"{bench.name}/baseline"]
        row = {"app": bench.name, "compile_s": 0.0,
               "simulate_s": simulate[bench.name],
               "cycles": base.cycles, "code_size": base.code_size,
               "budget": "ok"}
        for config in APPS_CONFIGS:
            cell = first[f"{bench.name}/{config}"]
            row["compile_s"] += cell.compile_seconds
            if cell.timed_out:
                row["budget"] = f"{config} exceeded"
            if config != "baseline":
                speedup = cell.speedup_over(base)
                speedups[config].append(speedup)
                row[f"speedup_{config}"] = speedup
        heuristic = first[f"{bench.name}/uu_heuristic"]
        sizes.append(heuristic.size_ratio_over(base))
        row["code_size_ratio"] = sizes[-1]
        out.rows.append(row)
    out.figures["speedup_geomean"] = geomean(speedups["uu_heuristic"])
    out.figures["tuned_speedup_geomean"] = geomean(speedups["tuned"])
    out.figures["predicted_speedup_geomean"] = geomean(speedups["predicted"])
    out.figures["code_size_ratio_geomean"] = geomean(sizes)
    out.slowest = sorted(
        ({"cell": label, "compile_s": cell.compile_seconds}
         for label, cell in first.items()),
        key=lambda r: -r["compile_s"])[:5]
    return out


# ---------------------------------------------------------------------------
# loop-sweep
# ---------------------------------------------------------------------------

def run_loop_sweep(ctx: Context) -> Outcome:
    from repro.bench import benchmark_by_name
    from repro.harness import ExperimentRunner, sweep_specs

    out = Outcome()
    measure_setup(ctx, out, "loop-sweep")
    rng = ctx.rng()
    apps = list(LOOP_SWEEP_APPS)
    rng.shuffle(apps)
    benches = {app: benchmark_by_name(app) for app in apps}
    order = []
    for app in apps:
        specs = sweep_specs(benches[app], LOOP_SWEEP_CONFIGS)
        rest = specs[1:]
        rng.shuffle(rest)
        order.extend([specs[0]] + rest)       # baseline first per app
    out.generated = {"apps": apps, "cells": len(order)}
    cells: Dict = {}
    timings: Dict = {}
    verify_s: List[float] = []

    def one_pass(number: int) -> None:
        runner = ExperimentRunner()
        done = 0
        probed = len(out.latency_probes)
        probing = ctx.probe_seconds
        begun = now()
        for spec in order:
            before = dict(runner.phase_seconds)
            out.latency_probes.append(ctx.probe())
            started = now()
            with ctx.op("cell"):
                cell = runner.cell(benches[spec.app], spec.config,
                                   spec.loop_id, spec.factor)
            latency = now() - started
            out.attempted += 1
            done += 1
            label = (f"{spec.app}/{spec.config}"
                     + (f"/{spec.loop_id}x{spec.factor}"
                        if spec.loop_id else ""))
            out.latencies.append(latency)
            if _check_cell(out, cell, label) and not cell.timed_out:
                out.record(f"loop:{label}", _cell_output(cell))
            simulate = (runner.phase_seconds["simulate"]
                        - before["simulate"])
            if number == 0:
                cells[label] = cell
                timings[label] = (latency, simulate)
        wall = now() - begun - (ctx.probe_seconds - probing)
        out.pass_rates.append(done / wall)
        out.pass_probes.append(statistics.median(out.latency_probes[probed:]))
        verify_s.append(runner.phase_seconds["verify"])

    run_passes(ctx, out, one_pass, LOOP_SWEEP_PASS_SECONDS)
    out.layers["harness.verify_s"] = statistics.median(verify_s)

    speedups, sizes, exceeded = [], [], 0
    for app in apps:
        base = cells[f"{app}/baseline"]
        row = {"app": app, "compile_s": 0.0, "simulate_s": 0.0,
               "cycles": base.cycles, "code_size": base.code_size,
               "cells": 0, "budget_exceeded": 0}
        app_speedups, app_sizes = [], []
        for label, cell in cells.items():
            if not label.startswith(app + "/"):
                continue
            row["cells"] += 1
            row["compile_s"] += cell.compile_seconds
            row["simulate_s"] += timings[label][1]
            if cell.timed_out:
                row["budget_exceeded"] += 1
                continue
            if cell.config != "baseline":
                app_speedups.append(cell.speedup_over(base))
                app_sizes.append(cell.size_ratio_over(base))
        exceeded += row["budget_exceeded"]
        row["speedup"] = geomean(app_speedups)
        row["code_size_ratio"] = geomean(app_sizes)
        speedups += app_speedups
        sizes += app_sizes
        out.rows.append(row)
    out.figures["speedup_geomean"] = geomean(speedups)
    out.figures["code_size_ratio_geomean"] = geomean(sizes)
    out.figures["budget_exceeded"] = exceeded
    out.slowest = sorted(
        ({"cell": label, "seconds": t[0], "compile_s":
          cells[label].compile_seconds, "budget_exceeded":
          cells[label].timed_out} for label, t in timings.items()),
        key=lambda r: -r["seconds"])[:5]
    return out


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _timed_configs(ctx: Context, out: Outcome):
    """Record the seconds of every ``oracle.run_config`` call (the
    configurations ``fuzz_one`` checks) as latency samples."""
    import layers
    from repro.fuzz import oracle

    original = oracle.run_config

    def timed(*args, **kwargs):
        out.latency_probes.append(ctx.probe())
        begun = now()
        try:
            return original(*args, **kwargs)
        finally:
            out.latencies.append(now() - begun)

    undo: List = []
    layers.rebind(original, timed, undo)
    try:
        yield
    finally:
        layers.restore(undo)


def run_fuzz(ctx: Context) -> Outcome:
    from repro.fuzz.campaign import fuzz_one

    out = Outcome()
    measure_setup(ctx, out, "fuzz")
    seeds = list(FUZZ_POOL)
    ctx.rng().shuffle(seeds)
    out.generated = {"generator_seeds": seeds}
    kernel_seconds: Dict[int, float] = {}
    checked_total = 0

    def one_pass(number: int) -> None:
        nonlocal checked_total
        probed = len(out.latency_probes)
        probing = ctx.probe_seconds
        begun = now()
        for seed in seeds:
            started = now()
            out.attempted += 1
            try:
                with ctx.op("kernel"):
                    checked, failures = fuzz_one(seed)
            except Exception:  # noqa: BLE001 — a harness crash fails the op
                out.fail(f"seed {seed}: crash\n{traceback.format_exc()}")
                continue
            if failures:
                out.failed += 1
                out.errors += [f.describe() for f in failures]
            if number == 0:
                checked_total += checked
                kernel_seconds[seed] = now() - started
            out.record(f"fuzz:{seed}", {"configs_checked": checked})
        wall = now() - begun - (ctx.probe_seconds - probing)
        out.pass_rates.append(len(seeds) / wall)
        out.pass_probes.append(
            statistics.median(out.latency_probes[probed:] or [0.0]))

    # A latency sample is one configuration, so a run holds enough of
    # them for a tail.
    with _timed_configs(ctx, out):
        run_passes(ctx, out, one_pass, FUZZ_PASS_SECONDS)
    out.layers["fuzz.configs_checked"] = checked_total
    out.figures["configs_per_pass"] = checked_total
    out.rows = [{"generator_seed": s, "seconds": kernel_seconds[s],
                 "configs": out.outputs[f"fuzz:{s}"]["configs_checked"]}
                for s in seeds if s in kernel_seconds]
    out.slowest = sorted(out.rows, key=lambda r: -r["seconds"])[:5]
    return out


WORKLOADS = {
    "apps": run_apps,
    "loop-sweep": run_loop_sweep,
    "fuzz": run_fuzz,
}
