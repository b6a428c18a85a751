"""The benchmark's own tests; no wall-clock value is asserted.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The determinism tests make two traced runs per workload (each also
starts its untraced child), so they take several minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading

import pytest

from common import (
    BENCH_DIR, NOMINAL_REFERENCE_MS, OUT_DIR, ROOT, Report, mix_median,
    percentile,
)
from run import _to_nominal
from tracing import Tracer

#: Per-layer metrics that must repeat exactly for one seed.
EXACT = {
    "networks": ["device_us", "graph.groups", "graph.launches",
                 "graph.fused_groups", "tuner.candidates",
                 "tuner.gate_pass_ratio", "fail_frac"],
    "serve-zipf": ["serve.captures", "fail_frac"],
}


def _traced_report(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, timeout=900, cwd=ROOT)
    with open(OUT_DIR / f"report-{workload}-{seed}-1.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_seeded_values_repeat_exactly(workload):
    first = _traced_report(workload, 7)
    second = _traced_report(workload, 7)
    assert first["failed"] == second["failed"] == 0, first["errors"]
    for name in EXACT[workload]:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    # Network device time, graph counts, tuner winners, the fixed-rate
    # request schedule and the signature list.
    assert first["deterministic"] == second["deterministic"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
         "--workload", "networks", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_partition_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap("b.leaf", lambda: sum(range(1000)))
    middle = tracer.wrap("a.middle", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("a.root", lambda: [middle(), leaf()])
    bindings = {}
    tracer.note_request(bindings, 42, due=0.0)
    keyed = tracer.wrap("c.keyed", lambda b: root(), request_arg=0)
    keyed(bindings)

    merged = tracer.merged()
    assert merged["calls"] == {"b.leaf": 4, "a.middle": 1, "a.root": 1,
                               "c.keyed": 1}
    # "a.middle" runs inside "a.root": one layer entry, not two.
    assert merged["entries"]["a.middle"] == 0
    spans = tracer._state().spans
    by_id = {s[0]: s for s in spans}
    (outer,) = [s for s in spans if s[1] == "c.keyed"]
    assert sum(merged["self_s"].values()) == pytest.approx(
        outer[3] - outer[2], rel=1e-9)
    for span in spans:
        assert span[5] == 42, "every nested span carries the request id"
        if span[4] is not None:
            parent = by_id[span[4]]
            assert parent[2] <= span[2] and span[3] <= parent[3]


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    inner = tracer.wrap("x.inner", lambda: None)
    outer = tracer.wrap("x.outer", lambda: [inner() for _ in range(100)])
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    merged = tracer.merged()
    assert merged["calls"]["x.inner"] == 400
    assert merged["entries"]["x.outer"] == 4


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190  # ten samples lie beyond it
    assert percentile([5.0], 95) == 5.0


def test_mix_median_weights_each_kinds_median_by_its_share():
    # Kind "a" (3 of 4 samples) has median 2.0, kind "b" has 10.0.
    values = [1.0, 2.0, 9.0, 10.0]
    kinds = ["a", "a", "a", "b"]
    assert mix_median(values, kinds) == pytest.approx(0.75 * 2.0 + 0.25 * 10.0)
    assert mix_median([4.0], ["x"]) == 4.0


def test_nominal_rescales_the_metrics_that_have_a_speed_factor():
    report = Report(e2e={"setup_s": 2.0, "run_s": 3.0, "mix_p50_ms.low": 10.0,
                         "max_rps": 100.0, "peak_rss_mb": 90.0})
    # The reference work took twice its nominal time: a half-speed machine.
    report.speed.samples_ms = [2 * NOMINAL_REFERENCE_MS] * 3 + [1e9]
    report.scale_since(0, "mix_p50_ms.low", "max_rps")
    report.factors["run_s"] = 0.25
    units = {"setup_s": "s", "run_s": "s", "mix_p50_ms.low": "ms",
             "max_rps": "req/s", "peak_rss_mb": "MB"}
    _to_nominal(report, units)
    assert report.layer["machine.speed"] == pytest.approx(0.5)
    assert report.e2e == pytest.approx({"setup_s": 2.0, "run_s": 0.75,
                                        "mix_p50_ms.low": 5.0,
                                        "max_rps": 200.0,
                                        "peak_rss_mb": 90.0})
    assert report.layer["wall.run_s"] == 3.0
    assert "wall.setup_s" not in report.layer
