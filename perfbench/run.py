"""Repository benchmark: one workload per run, one JSON line of results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload networks --seed 1 --seconds 45 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the same workload untraced in a child process,
then again here with every layer's public callables wrapped in span
recorders (:mod:`tracing`), and reports the per-layer metrics plus the
tracing overhead (traced minus untraced) of each end-to-end time metric.
Spans are written to ``perfbench/out/``.

End-to-end times and rates are nominal: rescaled by the machine's speed
as sampled through the run (:class:`common.Speed`), so that runs on a
shared machine whose speed drifts compare with each other.

The metric names and units come from ``BENCHMARK.json``; the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Workload settings (rates, threads, shapes) live in ``workloads.json``;
``METRICS.md`` maps each per-layer metric to the end-to-end metric it
should move.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import OUT_DIR, ROOT, SRC, Report, median, percentile

WORKLOADS = ("networks", "serve-zipf")

#: Seconds one child (untraced) run may take inside a traced run.
CHILD_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_workload(args, tracer=None) -> Report:
    if args.workload == "networks":
        import networks
        return networks.run(args.seed, args.seconds, tracer)
    import serving
    return serving.run(args.seed, args.seconds, tracer)


def _untraced(args) -> tuple:
    """The result line and the observations of the same run, untraced,
    in a fresh process."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    with open(_report_path(args.workload, args.seed, 0)) as fh:
        layer = json.load(fh)["layer"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), layer


def _report_path(workload: str, seed: int, trace: int):
    return OUT_DIR / f"report-{workload}-{seed}-{trace}.json"


def _to_nominal(report: Report, e2e_units: dict) -> None:
    """Rescale the end-to-end times and rates that have a speed factor
    from wall clock to the nominal machine (:class:`common.Speed`); the
    wall values stay among the run's observations."""
    report.layer["machine.speed"] = report.speed.factor()
    report.layer["machine.reference_ms"] = median(report.speed.samples_ms)
    for name, factor in report.factors.items():
        report.layer[f"wall.{name}"] = report.e2e[name]
        if e2e_units[name] == "req/s":
            report.e2e[name] /= factor
        else:
            report.e2e[name] *= factor


def _ms(values, p: float) -> float:
    """The ``p``-th percentile of ``values`` (seconds) in ms; 0 if none."""
    return percentile(values, p) * 1e3 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(spans: dict, report: Report, e2e_units: dict,
                   untraced: dict, untraced_layer: dict) -> dict:
    """Per-layer metrics from the merged span accumulators; the latency
    percentiles come from the untraced run."""
    self_s, calls, entries = spans["self_s"], spans["calls"], spans["entries"]
    counts, durations = spans["counts"], spans["durations"]
    waits = spans["values"]["serve.queue_wait"]
    det = report.deterministic
    out = {
        "graph.partition_s": self_s["graph.partition"],
        "graph.lower_s": self_s["graph.lower"],
        "graph.reference_s": self_s["graph.reference"],
        "graph.groups": det.get("graph.groups", 0),
        "graph.launches": det.get("graph.launches", 0),
        "graph.fused_groups": det.get("graph.fused_groups", 0),
        "device_us": report.layer.get("device_us", 0.0),
        "kernels.build_s": self_s["kernels.build"],
        "tuner.tune_s": self_s["tuner.tune"],
        "tuner.gate_s": self_s["tuner.gate"],
        "tuner.candidates": counts["tuner.candidates"],
        "tuner.gate_pass_ratio": _ratio(counts["tuner.gate_passed"],
                                        counts["tuner.gated"]),
        "perfmodel.estimate_s": self_s["perfmodel.estimate"],
        "perfmodel.calls": entries["perfmodel.estimate"],
        "specs.match_atomic_s": (self_s["specs.match_atomic"]
                                 + self_s["specs.matches"]),
        "specs.match_atomic.calls": calls["specs.match_atomic"],
        "specs.matches_per_lookup": _ratio(calls["specs.matches"],
                                           calls["specs.match_atomic"]),
        "sim.run_s": self_s["sim.run"],
        "sim.run.calls": calls["sim.run"],
        "sim.plan_compile_s": (self_s["sim.plan_compile"]
                               + self_s["sim.plan_cache"]),
        "sim.plan_cache.hit_ratio": _ratio(
            counts["sim.plan_cache.hits"],
            counts["sim.plan_cache.hits"] + counts["sim.plan_cache.misses"]),
        "sim.replay_s": self_s["sim.replay"],
        "sim.profiler_s": self_s["sim.profiler"],
        "sim.index_compile_s": self_s["sim.index_compile"],
        "serve.graph_key_ms.p50": _ms(durations["serve.graph_key"], 50),
        "serve.queue_wait_ms.p50": _ms(waits, 50),
        "serve.queue_wait_ms.p95": _ms(waits, 95),
        "serve.replay_ms.p50": _ms(durations["serve.replay"], 50),
        "serve.replay_ms.p95": _ms(durations["serve.replay"], 95),
        "serve.trace_frac": _ratio(
            counts["serve.replay.trace"],
            counts["serve.replay.trace"] + counts["serve.replay.exact"]),
        "serve.captures": calls["serve.capture"],
        "p95_ms.low": untraced_layer.get("p95_ms.low", 0.0),
        "p95_ms.high": untraced_layer.get("p95_ms.high", 0.0),
        "fail_frac": _ratio(report.failed, report.attempted),
        "trace.spans": spans["spans"] + spans["dropped"],
    }
    for name in ("serve.resident_share", "serve.cache.hit_ratio",
                 "serve.resident_mb",
                 "serve.batch_size_mean", "serve.backlog_max",
                 "serve.gen_late_ms.p95"):
        out[name] = report.layer.get(name, 0.0)
    for name, unit in e2e_units.items():
        if unit in ("s", "ms"):
            out[f"trace.overhead.{name}"] = report.e2e[name] - untraced[name]
    return out


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"#   {name:32s} {value:16.6f} {units.get(name, '')}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    if args.trace:
        from tracing import Tracer, install

        child, child_layer = _untraced(args)
        untraced = {n: m["value"] for n, m in child["metrics"].items()}
        tracer = Tracer()
        install(tracer)
        try:
            report = _run_workload(args, tracer)
        finally:
            tracer.restore()
        report.speed.close()
        _to_nominal(report, e2e_units)
        report.attempted += child["attempted"]
        report.failed += child["failed"]
        values = _layer_metrics(tracer.merged(), report, e2e_units, untraced,
                                child_layer)
        units = layer_units
        _print_table("end-to-end, untraced child run", untraced, e2e_units)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        report = _run_workload(args)
        report.speed.close()
        _to_nominal(report, e2e_units)
        values = report.e2e
        units = e2e_units

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: {args.workload} measured no {missing}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}

    _print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                 {n: m["value"] for n, m in metrics.items()}, units)
    _print_table("workload observations", report.layer, {})
    for name, values in report.samples.items():
        print(f"#   samples.{name} {len(values)}")
    print(f"#   fail_frac {_ratio(report.failed, report.attempted):.6f} "
          f"({report.failed} of {report.attempted})")
    for error in report.errors:
        print(f"#   error: {error}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(_report_path(args.workload, args.seed, args.trace),
              "w") as fh:
        json.dump({"metrics": metrics, "layer": report.layer,
                   "samples": report.samples,
                   "deterministic": report.deterministic,
                   "attempted": report.attempted, "failed": report.failed,
                   "errors": report.errors}, fh, indent=1, default=str)
    print(json.dumps({"correct": report.failed == 0,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
