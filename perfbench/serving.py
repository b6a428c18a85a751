"""The ``serve-zipf`` workload: warm serving under an open loop.

One :class:`repro.serve.KernelServer` serves the 12-family
``serve_catalog(seed)`` with a Zipf(1.1) mix.  Every graph is captured
during set-up, so timed requests hit the cache and replay.  Requests are
due at fixed intervals of ``1 / rate`` whatever the server does, and
each is timed from its due time to the completion of its future, so a
stalled server (or a late generator) is charged to every request queued
behind the stall.

Request inputs come from a seeded per-signature pool whose expected
outputs are computed once, outside every timed window, with
``Simulator.run(engine="reference")``; every served output is compared
with them bit for bit.

Rates are nominal: requests per second of the nominal machine of
:class:`common.Speed`.  On a machine running at ``factor`` of its
speed they are offered at ``rate * factor`` per wall second, so the
server is loaded alike in every run, and the latencies (nominal, as
every end-to-end time) compare across runs.  ``max_rps`` is the
throughput of bursts of ``BURST`` requests submitted at once: all their
requests over all their time.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
import threading
import time
from concurrent.futures import wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve import KernelServer, ServeFamily, serve_catalog
from repro.sim import RunOptions, Simulator

from common import (
    SETUP_REPEATS, Report, import_seconds, median, mix_median, peak_rss_mb,
    percentile, settle, thread_count, workload_config,
)

#: Seconds to wait for one phase's stragglers before counting them failed.
DRAIN_TIMEOUT_S = 60.0

#: Seed of the request order; ``--seed`` picks each request's data.
SCHEDULE_SEED = 0

#: Exponent of the ``zipf`` mix.
ZIPF_EXPONENT = 1.1

#: Seeded inputs per signature in the request pool.
POOL_SIZE = 2

#: Share of ``--seconds`` each fixed-rate level is offered for (in
#: nominal seconds, see ``common.Speed``).
PHASE_SHARE = 0.25

#: Rounds of the timed part; each sends a chunk of each fixed-rate level,
#: makes ``PASSES_PER_ROUND`` run passes and sends one burst.
ROUNDS = 12
PASSES_PER_ROUND = 2

#: Requests per burst: all submitted at once, to measure the throughput
#: of a saturated server.
BURST = 50


# -- inputs and oracle ---------------------------------------------------------------
class _Pool:
    """Seeded inputs per signature and their reference outputs."""

    def __init__(self, families: List[ServeFamily], size: int, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [[fam.make_bindings(rng) for _ in range(size)]
                       for fam in families]
        self.expected = [[self._reference(fam, b) for b in bindings]
                         for fam, bindings in zip(families, self.inputs)]

    @staticmethod
    def _reference(fam: ServeFamily, bindings) -> Dict[str, Tuple]:
        arrays = {k: np.array(v, copy=True) for k, v in bindings.items()}
        result = Simulator(fam.arch).run(
            fam.kernel, arrays, symbols=fam.symbols,
            options=RunOptions(engine="reference"))
        return {name: (result.machine.global_array(name).dtype,
                       result.machine.global_array(name).tobytes())
                for name in fam.outputs}

    def check(self, fi: int, pi: int, outputs: Dict[str, np.ndarray]
              ) -> Optional[str]:
        for name, (dtype, raw) in self.expected[fi][pi].items():
            got = outputs.get(name)
            if got is None:
                return f"output {name!r} missing"
            if got.dtype != dtype or got.tobytes() != raw:
                return f"output {name!r} differs from the reference"
        return None


# -- the open-loop generator --------------------------------------------------------
class _Phase:
    """One open-loop phase: the schedule sent and what came back."""

    def __init__(self, name: str, rate: float):
        self.name = name
        self.rate = rate
        self.schedule: List[Tuple[int, int]] = []
        self.latencies: List[float] = []
        #: The signature of each latency.
        self.kinds: List[int] = []
        self.late: List[float] = []
        self.hits = 0
        self.backlog_max = 0
        self.failed = 0


def _send(server, families, pool: _Pool, phase: _Phase, requests,
          report: Report, tracer, first_id: int, speed: float) -> float:
    """Send ``requests`` at ``phase.rate`` nominal requests per second on
    a machine running at ``speed`` (:class:`common.Speed`), wait for
    them, and add what came back to ``phase``.

    Returns the wall seconds from the first due time to the last
    completion."""
    phase.schedule.extend(requests)
    n = len(requests)
    done = [0.0] * n
    completed = [0]
    lock = threading.Lock()

    def finished(i, _future):
        done[i] = time.perf_counter()
        with lock:
            completed[0] += 1

    futures = []
    dues = []
    interval = 1.0 / (phase.rate * speed)
    start = time.perf_counter() + 0.005
    for i, (fi, pi) in enumerate(requests):
        due = start + i * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.late.append(time.perf_counter() - due)
        bindings = dict(pool.inputs[fi][pi])
        if tracer is not None:
            tracer.note_request(bindings, first_id + i, due)
        future = server.submit(families[fi].name, bindings)
        future.add_done_callback(functools.partial(finished, i))
        futures.append(future)
        dues.append(due)
        with lock:
            phase.backlog_max = max(phase.backlog_max, i + 1 - completed[0])
    wait(futures, timeout=DRAIN_TIMEOUT_S)

    for i, ((fi, pi), future) in enumerate(zip(requests, futures)):
        report.attempted += 1
        if not future.done():
            phase.failed += 1
            report.fail(f"{phase.name}: request {i} timed out")
            continue
        try:
            result = future.result()
        except Exception as exc:  # a refused or crashed request
            phase.failed += 1
            report.fail(f"{phase.name}: {type(exc).__name__}: {exc}")
            continue
        error = pool.check(fi, pi, result.outputs)
        if error is not None:
            phase.failed += 1
            report.fail(f"{phase.name}: {families[fi].name}: {error}")
            continue
        phase.latencies.append(done[i] - dues[i])
        phase.kinds.append(fi)
        phase.hits += bool(result.graph_hit)
    return max(done) - start


# -- the workload -------------------------------------------------------------------
class _Schedules:
    """The request trace: (signature, pool entry) per request.

    Each draw holds every signature in its exact Zipf proportion
    (largest remainder), shuffled.  The order comes from the fixed
    ``SCHEDULE_SEED``, so every run replays the same traffic; ``--seed``
    picks the data of each request through the pool.
    """

    def __init__(self, n_families: int):
        self.rng = np.random.default_rng(SCHEDULE_SEED)
        w = 1.0 / np.arange(1, n_families + 1) ** ZIPF_EXPONENT
        self.weights = w / w.sum()
        self.n_families = n_families
        self.drawn: List[Tuple[int, int]] = []

    def draw(self, n: int) -> List[Tuple[int, int]]:
        exact = self.weights * n
        counts = np.floor(exact).astype(int)
        short = n - counts.sum()
        counts[np.argsort(counts - exact, kind="stable")[:short]] += 1
        fams = self.rng.permutation(np.repeat(np.arange(self.n_families),
                                              counts))
        entries = self.rng.integers(0, POOL_SIZE, size=n)
        out = [(int(f), int(p)) for f, p in zip(fams, entries)]
        self.drawn.extend(out)
        return out


def _set_up(seed: int, threads: int, tracer):
    """One set-up: catalog, server, and a cold capture of every graph
    through the server, so that timed requests hit.

    Returns (families, server, setup seconds, the capture seconds of
    each family).  The tracer is paused over the captures, so the serve
    capture metrics count only captures made while serving timed
    requests.
    """
    settle()
    start = time.perf_counter()
    families = serve_catalog(seed)
    server = KernelServer(families, max_workers=threads)
    rng = np.random.default_rng(seed)
    captures = []
    with tracer.paused() if tracer is not None else nullcontext():
        for fam in families:
            bindings = fam.make_bindings(rng)
            begin = time.perf_counter()
            server.request(fam.name, bindings, timeout=DRAIN_TIMEOUT_S)
            captures.append(time.perf_counter() - begin)
    return families, server, time.perf_counter() - start, captures


def _latency_metrics(report: Report, level: str, phase: _Phase) -> None:
    report.e2e[f"mix_p50_ms.{level}"] = mix_median(phase.latencies,
                                                   phase.kinds) * 1e3
    for p in (50, 90, 95):
        report.layer[f"p{p}_ms.{level}"] = percentile(phase.latencies,
                                                      p) * 1e3
    report.samples[level] = phase.latencies


def run(seed: int, seconds: float, tracer=None) -> Report:
    cfg = workload_config("serve-zipf")
    report = Report()
    speed = report.speed
    threads = thread_count(cfg)

    imports = import_seconds()
    setups, compiles, server = [], [], None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.close()
            speed.sample()
            families, server, setup_s, captures = _set_up(
                seed, threads, tracer)
            setups.append(setup_s)
            compiles.append(captures)
        report.e2e["setup_s"] = imports + median(setups)
        report.e2e["compile_s"] = sum(median(family)
                                      for family in zip(*compiles))
        report.scale_since(0, "compile_s")

        with tracer.paused() if tracer is not None else nullcontext():
            pool = _Pool(families, POOL_SIZE, seed)
        schedules = _Schedules(len(families))

        def run_pass() -> float:
            """One caller requesting every signature once, in order."""
            speed.sample()
            settle()
            start = time.perf_counter()
            for fi, fam in enumerate(families):
                pi = (fi + len(pass_times)) % POOL_SIZE
                report.attempted += 1
                try:
                    result = server.request(fam.name, dict(pool.inputs[fi][pi]),
                                            timeout=DRAIN_TIMEOUT_S)
                except Exception as exc:  # refused, crashed or timed out
                    report.fail(f"run pass: {fam.name}: {exc!r}")
                    continue
                error = pool.check(fi, pi, result.outputs)
                if error is not None:
                    report.fail(f"run pass: {fam.name}: {error}")
            return time.perf_counter() - start

        def send(p: _Phase, n: int) -> float:
            speed.sample()
            settle()
            return _send(server, families, pool, p, schedules.draw(n),
                         report, tracer, first_id=len(schedules.drawn) - n,
                         speed=speed.factor(timed))

        # Rounds interleave the fixed-rate levels, the run passes and the
        # bursts, so each is sampled across the whole run.  The request
        # counts do not depend on how fast the machine runs.
        levels = ("low", "high")
        phases = {lv: _Phase(lv, cfg["rates"][lv]) for lv in levels}
        phases["burst"] = _Phase("burst", math.inf)
        per_round = {lv: max(1, round(cfg["rates"][lv] * seconds
                                      * PHASE_SHARE / ROUNDS))
                     for lv in levels}
        pass_times: List[float] = []
        burst_s = 0.0
        timed = speed.mark()
        for _ in range(ROUNDS):
            for lv in levels:
                send(phases[lv], per_round[lv])
            for _ in range(PASSES_PER_ROUND):
                pass_times.append(run_pass())
            burst_s += send(phases["burst"], BURST)
        report.e2e["run_s"] = median(pass_times)
        for lv in levels:
            _latency_metrics(report, lv, phases[lv])
        report.e2e["max_rps"] = ROUNDS * BURST / burst_s
        report.scale_since(timed, "run_s", "mix_p50_ms.low",
                           "mix_p50_ms.high", "max_rps")
        report.e2e["peak_rss_mb"] = peak_rss_mb()

        served = sum(len(p.latencies) for p in phases.values())
        report.layer["serve.resident_share"] = (
            sum(p.hits for p in phases.values()) / served if served else 0.0)
        report.layer["serve.gen_late_ms.p95"] = percentile(
            [x for lv in levels for x in phases[lv].late], 95) * 1e3
        snap = server.metrics.snapshot(server.graph_cache)
        cache = snap["graph_cache"]
        lookups = cache["hits"] + cache["misses"]
        report.layer["serve.cache.hit_ratio"] = (
            cache["hits"] / lookups if lookups else 0.0)
        report.layer["serve.resident_mb"] = cache["resident_bytes"] / 2**20
        report.layer["serve.batch_size_mean"] = (
            (snap["requests_completed"] + snap["requests_failed"])
            / snap["batches"] if snap["batches"] else 0.0)
        report.layer["serve.backlog_max"] = max(
            max(p.backlog_max for p in phases.values()),
            snap["max_queue_depth"])
        report.deterministic["schedule"] = schedules.drawn
        report.deterministic["signatures"] = [f.name for f in families]
    finally:
        if server is not None:
            server.close()
    return report
