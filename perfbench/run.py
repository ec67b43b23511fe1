"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The metric names, units and directions
come from ``BENCHMARK.json``.  ``--trace 0`` measures the end-to-end
metrics, with set-up, throughput and latencies scaled to a reference host
speed by a probe timed before every op (see ``workloads.PROBE_REFERENCE_S``; the
uncorrected figures are printed and kept in the report); ``--trace 1``
makes one traced ``-j1`` pass and reports the per-layer metrics, writing
the spans as a Chrome trace.  Human-readable
rows (provenance, one row per app, the slowest ops, every layer's self
time) come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output was correct.

Each run works in a fresh directory under ``perfbench/.work`` (the cell
cache, similarity index and region cache all point there), reads
``results/tuned`` only, and fails if anything under ``results/`` changed.
Reports go to ``perfbench/.runs``.  The deterministic output of every op
is kept in ``perfbench/.state``, keyed by a digest of the program and
benchmark sources, and must be identical in every later run of the same
code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"


def _tree_digest(*trees: Path) -> str:
    """Hash of every file under ``trees``, hidden and cache dirs left out."""
    digest = hashlib.sha256()
    for tree in trees:
        for path in sorted(tree.rglob("*")):
            rel = path.relative_to(tree.parent)
            if any(part.startswith(".") or part == "__pycache__"
                   for part in rel.parts) or not path.is_file():
                continue
            digest.update(str(rel).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _results_digest() -> str:
    return _tree_digest(ROOT / "results")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _live_children() -> list:
    """Processes whose parent is this one (a leftover is a failure)."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def _check_across_runs(workload: str, source: str, outputs: dict,
                       errors: list) -> None:
    """Outputs of an op must equal those of every earlier run of the same
    program and benchmark code (``source`` is their digest)."""
    state_dir = HERE / ".state"
    state_dir.mkdir(exist_ok=True)
    path = state_dir / f"{workload}-{source[:16]}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for key, value in outputs.items():
        value = json.loads(json.dumps(value))
        if key in known and known[key] != value:
            errors.append(f"{key}: output differs from an earlier run: "
                          f"{known[key]} != {value}")
        known.setdefault(key, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(path)


def _host_corrected(out, reference: float):
    """Set-up samples, pass rates and latencies scaled to the host speed at
    which the probe takes ``reference`` seconds: a set-up sample by the
    probes just before it, a pass rate by its pass's median probe, a
    latency by the median of the five probes around it, so a single
    disturbed probe does not move it."""
    probes = out.latency_probes
    setup = [s * reference / p
             for s, p in zip(out.setup_samples, out.setup_probes)]
    rates = [r * p / reference for r, p in zip(out.pass_rates,
                                                out.pass_probes)]
    latencies = [
        latency * reference / statistics.median(probes[max(0, i - 2):i + 3])
        for i, latency in enumerate(out.latencies)]
    return setup, rates, latencies


def _end_to_end(setup, rates, latencies) -> dict:
    import workloads
    return {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_s": workloads.percentile(latencies, 50.0),
        "latency_tail_s": workloads.tail(latencies)[1],
        "peak_rss_mb": _peak_rss_mb(),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _print_rows(title: str, rows: list) -> None:
    if not rows:
        return
    print(f"# {title}")
    keys = list(rows[0])
    for row in rows[1:]:
        keys += [k for k in row if k not in keys]
    print("  " + "  ".join(keys))
    for row in rows:
        print("  " + "  ".join(_fmt(row.get(k, "-")) for k in keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(names)}", file=sys.stderr)
        return 2

    work = HERE / ".work" / (f"{args.workload}-s{args.seed}-t{args.trace}"
                             f"-{os.getpid()}")
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cellcache")
    os.environ["REPRO_SIMINDEX_DIR"] = str(work / "simindex")
    os.environ["REPRO_REGION_CACHE_DIR"] = str(work / "regioncache")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        return _run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, work: Path) -> int:
    import layers
    import workloads

    from repro.gpu.timing import TIMING_MODEL_VERSION

    results_before = _results_digest()
    # TIMING_MODEL_VERSION lives under src/, so the digest covers it.
    source = _tree_digest(ROOT / "src", Path(__file__).resolve().parent)
    recorder = uninstall = None
    if args.trace:
        recorder = layers.Recorder()
        uninstall = layers.install(recorder)
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed,
                            seconds=args.seconds, recorder=recorder)
    errors = []
    out = None
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    except Exception:  # noqa: BLE001 — reported as an incorrect run
        errors.append(traceback.format_exc())
    finally:
        if uninstall is not None:
            uninstall()

    if out is not None:
        errors += out.errors
        _check_across_runs(args.workload, source, out.outputs, errors)
    if _results_digest() != results_before:
        errors.append("results/ changed during the run")
    leftovers = _live_children()
    if leftovers:
        errors.append(f"processes left running: {leftovers}")

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": _git_commit(),
            "timing_model": TIMING_MODEL_VERSION,
            "source_digest": source,
        },
    }
    metrics = {}
    attempted = failed = 0
    if out is not None:
        attempted, failed = out.attempted, out.failed
        report["generated"] = out.generated
        pct, _, beyond = workloads.tail(out.latencies)
        uncorrected = _end_to_end(out.setup_samples, out.pass_rates,
                                  out.latencies)
        report["latency"] = {"samples": len(out.latencies),
                             "tail_percentile": pct,
                             "beyond_tail": beyond,
                             "values_s": out.latencies,
                             "probes_s": out.latency_probes}
        report["passes"] = out.pass_seconds
        report["figures"] = dict(out.figures,
                                 failed_share=failed / max(1, attempted))
        report["rows"] = out.rows
        report["slowest"] = out.slowest
        if not args.trace:
            measured = _end_to_end(*_host_corrected(
                out, workloads.PROBE_REFERENCE_S))
            report["uncorrected"] = uncorrected
            report["host_speed"] = {
                "probe_reference_s": workloads.PROBE_REFERENCE_S,
                "probe_median_s": statistics.median(out.latency_probes)}
            wanted = spec["end_to_end"]
        else:
            # The traced wall is the measured pass, without set-up probes.
            traced_wall = out.measured_seconds
            measured = layers.layer_metrics(recorder, traced_wall)
            measured.update(out.layers)
            measured["failed_share"] = failed / max(1, attempted)
            report["layer_self_s"] = recorder.layer_self_times()
            report["traced_wall_s"] = traced_wall
            report["traced_throughput_ops_s"] = \
                statistics.median(out.pass_rates)
            untraced = HERE / ".runs" / (f"{args.workload}-s{args.seed}"
                                         "-t0.json")
            earlier = (json.loads(untraced.read_text()).get("uncorrected", {})
                       if untraced.exists() else {})
            if "throughput_ops_s" in earlier:
                report["tracing_overhead"] = (
                    earlier["throughput_ops_s"]
                    / report["traced_throughput_ops_s"] - 1.0)
            wanted = spec["per_layer"]
        report["measured"] = measured
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in wanted}

    correct = not errors and out is not None and failed == 0
    report["errors"] = errors
    runs = HERE / ".runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (runs / f"{stem}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str))
    if recorder is not None:
        recorder.write_chrome(runs / f"{stem}.trace.json")

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} commit={report['provenance']['commit']} "
          f"python={report['provenance']['python']} "
          f"nproc={report['provenance']['nproc']} "
          f"timing={report['provenance']['timing_model']}")
    if out is not None:
        _print_rows("per-app rows" if args.workload != "fuzz"
                    else "per-kernel rows", out.rows)
        _print_rows("slowest ops", out.slowest)
        print("# figures " + " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(report["figures"].items())))
        print(f"# latency tail = p{report['latency']['tail_percentile']:g} "
              f"of {report['latency']['samples']} samples "
              f"({report['latency']['beyond_tail']} beyond)")
        if "host_speed" in report:
            speed = report["host_speed"]
            print(f"# host speed: probe median "
                  f"{speed['probe_median_s'] * 1e3:.3f} ms (reference "
                  f"{speed['probe_reference_s'] * 1e3:.3f} ms); "
                  "uncorrected " + " ".join(
                      f"{k}={_fmt(v)}"
                      for k, v in report["uncorrected"].items()))
        if args.trace:
            shares = report["layer_self_s"]
            print("# layer self time (s, share of traced wall "
                  f"{traced_wall:.3f}s): " + " ".join(
                      f"{k}={v:.3f}({v / traced_wall:.1%})"
                      for k, v in sorted(shares.items())))
            print("# per-layer figures not in BENCHMARK.json: " + " ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(report["measured"].items())
                if k not in metrics))
            if "tracing_overhead" in report:
                print(f"# tracing overhead: untraced throughput is "
                      f"{report['tracing_overhead']:+.1%} over traced "
                      f"(uncorrected; the untraced run is an earlier one of "
                      f"the same seed)")
    for message in errors:
        print("# ERROR " + message.replace("\n", "\n#   "), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
