"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    python3 -m pytest perfbench/tests -q

* every workload, cut down to a few ops, emits exactly the metrics that
  ``BENCHMARK.json`` names, untraced and traced, with correct outputs;
* a fixed delay added to ``SimtMachine.launch`` shows up in
  ``gpu.simulate_s`` and not in the ``transforms`` times;
* the host-speed correction scales set-up, rates and latencies by the
  probe.
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload and keep its files out of the checkout."""
    import repro.bench

    everything = repro.bench.all_benchmarks
    monkeypatch.setattr(repro.bench, "all_benchmarks",
                        lambda: [b for b in everything()
                                 if b.name in ("coordinates", "complex")])
    monkeypatch.setattr(workloads, "APPS_WARM_REPEATS", 1)
    monkeypatch.setattr(workloads, "LOOP_SWEEP_APPS", ("coordinates",))
    monkeypatch.setattr(workloads, "FUZZ_POOL", (7,))
    monkeypatch.setattr(run, "HERE", tmp_path)
    for name in ("REPRO_CACHE_DIR", "REPRO_SIMINDEX_DIR",
                 "REPRO_REGION_CACHE_DIR"):
        monkeypatch.delenv(name, raising=False)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(small, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads((small / ".runs" /
                         f"{workload}-s3-t{trace}.json").read_text())
    assert report["provenance"]["timing_model"]
    assert report["generated"]


def _traced_cells(delay: float):
    """Metrics of a traced heuristic cell, with ``delay`` s per launch."""
    from repro.bench import benchmark_by_name
    from repro.gpu.machine import SimtMachine
    from repro.harness import ExperimentRunner

    original = SimtMachine.launch

    def slow_launch(self, *args, **kwargs):
        time.sleep(delay)
        return original(self, *args, **kwargs)

    SimtMachine.launch = slow_launch
    recorder = layers.Recorder()
    uninstall = layers.install(recorder)
    try:
        begun = time.perf_counter()
        runner = ExperimentRunner()
        bench = benchmark_by_name("coordinates")
        for config in ("baseline", "uu_heuristic"):
            with recorder.op("cell"):
                runner.cell(bench, config)
        wall = time.perf_counter() - begun
    finally:
        uninstall()
        SimtMachine.launch = original
    return layers.layer_metrics(recorder, wall)


def test_delay_in_launch_is_attributed_to_gpu():
    delay = 0.2
    base = _traced_cells(0.0)
    slow = _traced_cells(delay)
    launches = slow["gpu.launches"]
    assert launches == base["gpu.launches"] > 0
    grown = slow["gpu.simulate_s"] - base["gpu.simulate_s"]
    assert grown >= 0.9 * delay * launches
    added = delay * launches
    times = [name for name in slow if name.startswith("transforms.")
             and (name.endswith("_s") or ".pass_s." in name)]
    assert "transforms.compile_s" in times
    for name in times:
        assert slow[name] - base[name] < 0.25 * added, name
    assert slow["trace.unattributed_share"] < 0.1


def test_host_correction_scales_to_the_reference_speed():
    # Probes at twice the reference time: the host ran at half speed.
    out = workloads.Outcome(latencies=[0.2, 0.4], latency_probes=[2e-3] * 2,
                            pass_rates=[5.0], pass_probes=[2e-3],
                            setup_samples=[1.0], setup_probes=[4e-3])
    setup, rates, latencies = run._host_corrected(out, 1e-3)
    assert setup == [0.25]
    assert rates == [10.0]
    assert latencies == [0.1, 0.2]
