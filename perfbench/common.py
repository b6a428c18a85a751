"""Helpers shared by the benchmark's workloads: paths, timing, statistics.

Nothing here imports ``repro``: :mod:`run` checks that the source tree
exists before any workload module (which does import it) is loaded.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: What set-up imports, timed in a fresh interpreter.
IMPORTS = "import repro, repro.graph, repro.serve, repro.tuner, repro.kernels"

#: Set-up is repeated this many times per run, and the fresh-interpreter
#: import timed this many times; ``setup_s`` uses the medians.
SETUP_REPEATS = 5
IMPORT_REPEATS = 9

#: The architecture the networks are lowered for.
ARCH = "ampere"

#: Steps of the reference work that measures the machine's speed, and
#: the milliseconds one timing of it takes on the nominal machine: the
#: 2-core shared machine the benchmark was tuned on, in its usual state
#: (:class:`Speed`).
REFERENCE_STEPS = 4000
NOMINAL_REFERENCE_MS = 9.5



def workload_config(name: str) -> dict:
    """This workload's settings from ``workloads.json``."""
    with open(BENCH_DIR / "workloads.json") as fh:
        return json.load(fh)[name]


def thread_count(cfg: dict) -> int:
    """The configured thread count, capped at the machine's core count."""
    return max(1, min(int(cfg["threads"]), os.cpu_count() or 1))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the sample at rank ceil(p/100 * n))."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values)


def mix_median(values: Sequence[float], kinds: Sequence[object]) -> float:
    """Mean over the kinds of operation, weighted by each kind's share of
    ``values``, of that kind's median.

    A latency mix of fast and slow kinds has separate clusters; a plain
    percentile sits at the edge between two of them and jumps to the
    other when a few samples cross it.  Each kind's median has one
    cluster to itself, and the weights are the mix, so the value moves
    only when some kind's typical latency moves.
    """
    by_kind: Dict[object, List[float]] = {}
    for value, kind in zip(values, kinds):
        by_kind.setdefault(kind, []).append(value)
    if not by_kind:
        raise ValueError("mix median of no samples")
    return sum(len(v) * median(v) for v in by_kind.values()) / len(values)


def settle() -> None:
    """Collect garbage left by earlier work, outside every timed window,
    so that a collection does not land inside the next timed operation."""
    gc.collect()


def import_seconds(repeats: int = IMPORT_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True,
                       timeout=120)
        samples.append(time.perf_counter() - start)
    return median(samples)


def _reference_work() -> float:
    """A fixed mix of interpreter work (calls, attribute and dict access,
    small objects) and small numpy operations, like the simulator's, with
    no code of ``repro`` in it."""
    class Cell:
        __slots__ = ("value",)

        def __init__(self, value):
            self.value = value

    table = {}
    acc = np.ones((8, 8))
    for i in range(REFERENCE_STEPS):
        key = (i & 31, i % 3)
        cell = table.get(key)
        if cell is None:
            cell = table[key] = Cell(0.0)
        cell.value += i * 0.5
        if i & 31 == 0:
            acc = np.tanh(acc @ acc) + acc[::-1]
    return float(acc.sum()) + sum(c.value for c in table.values())


class Speed:
    """How fast the machine runs, sampled between the timed operations
    of a run.

    The shared machine changes speed by up to a factor of two over
    minutes, for every process on it alike.  A sample times the
    reference work run by ``THREADS`` threads at once, which share the
    interpreter lock and the cores as concurrent callers, or a server
    thread and its caller, do; the garbage collector is off meanwhile,
    so the timing does not depend on what the workload keeps alive.  No
    change to ``repro`` can speed the reference up or slow it down.
    ``factor(since)`` is ``NOMINAL_REFERENCE_MS`` over the median timing
    from sample ``since`` on: wall seconds times it are nominal seconds,
    the time the same work takes on a machine that runs the reference
    in ``NOMINAL_REFERENCE_MS``.
    """

    THREADS = 2
    #: Pieces of reference work per thread in one timing, and timings
    #: per sample.
    WORK = 2
    REPEATS = 3

    def __init__(self):
        self.samples_ms: List[float] = []
        self._go = threading.Barrier(self.THREADS + 1)
        self._done = threading.Barrier(self.THREADS + 1)
        self._threads: List[threading.Thread] = []

    def _serve(self) -> None:
        # The same threads run every timing: a new thread would map new
        # memory (stack, allocator arena), and peak memory would then
        # depend on how many of them happened to overlap.
        try:
            while True:
                self._go.wait()
                for _ in range(self.WORK):
                    _reference_work()
                self._done.wait()
        except threading.BrokenBarrierError:
            pass

    def sample(self) -> None:
        if not self._threads:
            self._threads = [threading.Thread(target=self._serve, daemon=True)
                             for _ in range(self.THREADS)]
            for t in self._threads:
                t.start()
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.REPEATS):
                start = time.perf_counter()
                self._go.wait()
                self._done.wait()
                self.samples_ms.append((time.perf_counter() - start) * 1e3)
        finally:
            if collecting:
                gc.enable()

    def close(self) -> None:
        """Stop the reference threads and wait for them."""
        self._go.abort()
        for t in self._threads:
            t.join()

    def mark(self) -> int:
        """The position of the next sample, for :meth:`factor`."""
        return len(self.samples_ms)

    def factor(self, since: int = 0) -> float:
        return NOMINAL_REFERENCE_MS / median(self.samples_ms[since:])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Report:
    """What one workload run measured.

    ``e2e`` holds the end-to-end metrics by name; ``layer`` holds
    per-layer values the workload itself observes (counts, ratios,
    generator lateness); ``deterministic`` holds values that must repeat
    exactly for a given seed.
    """

    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    #: Raw latency samples (seconds) behind the percentile metrics.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    deterministic: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)
    #: The speed factor of each end-to-end metric: that of the samples
    #: taken while it was measured (the whole run's if absent).
    factors: Dict[str, float] = field(default_factory=dict)

    def scale_since(self, mark: int, *names: str) -> None:
        """Rescale ``names`` by the speed sampled from ``mark`` on."""
        factor = self.speed.factor(mark)
        for name in names:
            self.factors[name] = factor

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
