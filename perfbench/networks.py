"""The ``networks`` workload: partition → lower → tune → execute → verify.

Three reduced transformer networks are lowered cold, with the autotuner
on and an in-memory tuning cache, then run verified (``check=True``:
every fusion group bit-exact against its numpy mirror) by closed-loop
callers: one caller for the ``low`` load level, and ``threads`` callers
running the same network at once for ``high``.  One operation is one
``Network.run``.
"""

from __future__ import annotations

import threading
import time
from typing import List

import repro
from repro.eval.networks import TransformerConfig
from repro.graph import DecodeConfig, GroupCheckError

from common import (
    ARCH, SETUP_REPEATS, Report, import_seconds, median, mix_median,
    peak_rss_mb, percentile, settle, thread_count, workload_config,
)

#: Fewest rounds, and the seconds one round is budgeted for: a run makes
#: ``max(MIN_ROUNDS, seconds // ROUND_SECONDS)`` rounds.  The count does
#: not depend on how fast the machine runs, so every run does the same
#: work (peak memory grows with the rounds made).
MIN_ROUNDS = 3
ROUND_SECONDS = 8.0


def _config(spec: dict):
    fields = dict(spec)
    kind = fields.pop("kind")
    if kind == "decode":
        return DecodeConfig(**fields)
    return TransformerConfig(**fields)


class _Runs:
    """Latencies and modelled device time of verified network runs."""

    def __init__(self, report: Report, seed: int, collect: bool):
        self.report = report
        self.seed = seed
        #: Collect garbage before each run (one caller only: with several,
        #: a collection would land inside another caller's run).
        self.collect = collect
        self.latencies: List[float] = []
        #: The network of each latency.
        self.kinds: List[str] = []
        self.device_s: dict = {}
        self._lock = threading.Lock()
        self._next_input = 0

    def run(self, net) -> float:
        """One verified run of ``net``; returns its latency."""
        with self._lock:
            input_seed = self.seed * 100_003 + self._next_input
            self._next_input += 1
        if self.collect:
            settle()
        start = time.perf_counter()
        try:
            result = net.run(check=True, seed=input_seed)
            error = None if result.passed else f"{net.name}: not verified"
        except GroupCheckError as exc:
            error = str(exc)
        except Exception as exc:  # a crashed run is a failed operation
            error = f"{net.name}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        with self._lock:
            self.report.attempted += 1
            if error is not None:
                self.report.fail(error)
                return latency
            self.latencies.append(latency)
            self.kinds.append(net.name)
            seen = self.device_s.setdefault(net.name, result.seconds)
            if seen != result.seconds:
                self.report.fail(f"{net.name}: modelled device time changed "
                                 f"between runs ({seen} != {result.seconds})")
        return latency


def _concurrent_pass(nets, runs: _Runs, callers: int) -> float:
    """Each network in turn, run by ``callers`` threads at once; returns
    the wall time of the pass."""
    wall = 0.0
    for net in nets:
        runs.report.speed.sample()
        threads = [threading.Thread(target=runs.run, args=(net,))
                   for _ in range(callers)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall += time.perf_counter() - start
    return wall


def run(seed: int, seconds: float, tracer=None) -> Report:
    cfg = workload_config("networks")
    report = Report()
    configs = [_config(spec) for spec in cfg["networks"]]
    callers = thread_count(cfg)

    speed = report.speed
    imports = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        settle()
        start = time.perf_counter()
        nets = [repro.network(c) for c in configs]
        setups.append(time.perf_counter() - start)
    report.e2e["setup_s"] = imports + median(setups)

    # Rounds of: a cold lower of every network, one pass by one caller
    # (low), and one pass in which ``callers`` concurrent callers run
    # each network at once (high).
    # Every metric is sampled in every round, across the whole run.
    low = _Runs(report, 2 * seed, collect=True)
    high = _Runs(report, 2 * seed + 1, collect=False)
    compile_times = [[] for _ in configs]
    pass_times, high_wall = [], 0.0
    rounds = max(MIN_ROUNDS, int(seconds // ROUND_SECONDS))
    for _ in range(rounds):
        nets = [repro.network(c) for c in configs]
        lowered = []
        for i, net in enumerate(nets):
            speed.sample()
            settle()
            start = time.perf_counter()
            lowered.append(net.lower(ARCH, tune=True, cache=False))
            compile_times[i].append(time.perf_counter() - start)
        report.attempted += len(nets)
        if tracer is not None:
            for l in lowered:
                for group in l.groups:
                    tracer.patch_instance(group, "reference",
                                          "graph.reference")
        pass_time = 0.0
        for net in nets:
            speed.sample()
            pass_time += low.run(net)
        pass_times.append(pass_time)
        settle()
        high_wall += _concurrent_pass(nets, high, callers)

    report.e2e["compile_s"] = sum(median(t) for t in compile_times)
    report.e2e["run_s"] = median(pass_times)
    for level, runs in (("low", low), ("high", high)):
        if runs.latencies:
            report.e2e[f"mix_p50_ms.{level}"] = mix_median(
                runs.latencies, runs.kinds) * 1e3
            for p in (50, 90, 95):
                report.layer[f"p{p}_ms.{level}"] = percentile(
                    runs.latencies, p) * 1e3
        report.samples[level] = runs.latencies
    report.e2e["max_rps"] = len(high.latencies) / high_wall
    report.scale_since(0, "compile_s", "run_s", "mix_p50_ms.low",
                       "mix_p50_ms.high", "max_rps")
    report.e2e["peak_rss_mb"] = peak_rss_mb()

    report.deterministic["graph.groups"] = sum(len(l.groups) for l in lowered)
    report.deterministic["graph.launches"] = sum(
        len(l.launches) for l in lowered)
    report.deterministic["graph.fused_groups"] = sum(
        1 for l in lowered for g in l.groups if g.mode == "fused")
    report.deterministic["tuned"] = {
        l.graph.name: dict(sorted(l.tuned.items())) for l in lowered}
    device = dict(low.device_s)
    for name, seconds_ in high.device_s.items():
        if device.setdefault(name, seconds_) != seconds_:
            report.fail(f"{name}: modelled device time differs between "
                        f"callers")
    report.layer["device_us"] = sum(device.values()) * 1e6
    report.deterministic["device_us"] = report.layer["device_us"]
    report.layer["rounds"] = len(pass_times)
    report.layer["callers.high"] = callers
    return report
