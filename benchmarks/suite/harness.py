"""Timing windows, spans, the host block and the host probe.

Everything here is the benchmark's own: nothing is imported from
``repro``, so the measuring code cannot move with the code it measures.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
OUT_DIR = SUITE_DIR / "out"

#: Warm set-up repetitions behind ``setup_s`` (after one discarded cold pass).
SETUP_REPETITIONS = 3
#: Calls in a ``--smoke`` window, and the least a traced window makes.
SMOKE_CALLS = 3

median = statistics.median


class CheckFailed(Exception):
    """A correctness check did not hold; the run reports ``correct: false``."""


def timed_calls(call, seconds: float, probe: "HostProbe", min_calls: int,
                limit: int | None = None) -> tuple[list[float], float]:
    """Seconds of each ``call(index)``, made back to back (a closed loop
    with one caller) until ``seconds`` have passed *and* ``min_calls`` calls
    are in, never more than ``limit`` calls; and the host's slowdown over
    that window.  The probe is read between calls, never inside one."""
    gc.collect()
    first_reading = len(probe.readings)
    probe.read()
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_calls or time.perf_counter() < deadline:
        if limit is not None and len(times) >= limit:
            break
        if probe.due():
            probe.read()
        started = time.perf_counter()
        call(len(times))
        times.append(time.perf_counter() - started)
    return times, probe.slowdown(first_reading)


class Spans:
    """In-memory span table: ``(name, request, parent, start, end)``.

    ``span()`` nests by call order on one thread — the parent is whatever
    span is open — and ``add()`` takes explicit times for spans measured
    elsewhere (the serve workload stamps them from callbacks).  Nothing
    is written until :meth:`write`, after the workload has ended.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int = 0):
        index = len(self.rows)
        parent = self._open[-1] if self._open else None
        row = [name, request, parent, time.perf_counter(), None]
        self.rows.append(row)
        self._open.append(index)
        try:
            yield index
        finally:
            row[4] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, request: int, start: float, end: float,
            parent: int | None = None) -> int:
        self.rows.append([name, request, parent, start, end])
        return len(self.rows) - 1

    def seconds(self, index: int) -> float:
        return self.rows[index][4] - self.rows[index][3]

    def children_seconds(self) -> dict[int, float]:
        """Per span, the part of it its direct children cover; a span's
        self time is its own seconds minus this."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, start, end in self.rows:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def by_name(self, name: str) -> list[int]:
        return [i for i, row in enumerate(self.rows) if row[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, request, parent, start, end) in enumerate(self.rows):
                out.write(json.dumps({"span": index, "name": name, "request": request,
                                      "parent": parent, "start": start, "end": end}))
                out.write("\n")


class _NoSpans:
    """Stand-in for untraced runs: ``span()`` times nothing."""

    def span(self, name: str, request: int = 0):
        return nullcontext()


NO_SPANS = _NoSpans()


def measure_setup(factory, probe: "HostProbe") -> tuple[object, dict]:
    """A set-up workload, and ``setup_s`` beside ``raw.setup_s``.

    One cold pass is discarded (it pays imports, allocator growth and page
    cache), then the median of :data:`SETUP_REPETITIONS` warm passes is
    reported, each divided by the host's slowdown read around it; each
    pass drops and collects the previous pass's objects first.  The last
    pass's workload is the one measured afterwards.
    """
    passes = []
    workload = None
    for _ in range(1 + SETUP_REPETITIONS):
        if workload is not None:
            workload.close()
        workload = None
        gc.collect()
        first_reading = len(probe.readings)
        probe.read(3)
        started = time.perf_counter()
        workload = factory()
        workload.setup()
        elapsed = time.perf_counter() - started
        probe.read(3)
        passes.append(at_quiet_speed(probe.slowdown(first_reading),
                                     times={"setup_s": elapsed}, rates={}))
    warm = passes[1:]
    return workload, {name: median(one[name] for one in warm) for name in warm[0]}


def at_quiet_speed(slowdown: float, times: dict, rates: dict) -> dict:
    """Each metric restated at the host's quiet speed (a time divided by
    ``slowdown``, a rate multiplied), and beside it, as ``raw.<name>``,
    the value the clock read."""
    metrics = {}
    for name, value in times.items():
        metrics[name], metrics["raw." + name] = value / slowdown, value
    for name, value in rates.items():
        metrics[name], metrics["raw." + name] = value * slowdown, value
    return metrics


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """Two fixed pieces of host work, read between timed calls.

    This host is shared: the same call reads 10 to 30% apart between two
    runs while its CPU time equals its wall time, so a run measures the
    neighbours as much as the program, and no estimator inside one window
    removes that (the fastest call drifts with the median).  The probe
    touches no code under ``src/``: a 1M-element numpy gather (bound by
    the shared cache, like the array engines) and a short interpreter
    loop (like the service and the cycle model); one reading is the
    geometric mean of the two times.  Timings are divided by
    ``slowdown()``, the median reading taken alongside them over
    :data:`REFERENCE_S`: what the probe reads on the builder's host when
    its neighbours are quiet.  The reference is a constant because a run
    cannot find the quiet speed itself: through a noisy ten minutes even
    its fastest reading is slow.  On another host every value shifts by
    one factor; the bounds gate comparisons on one host.  ``AA.md`` lists
    each spread with and without the division.
    """

    REFERENCE_S = 0.0075
    ELEMENTS = 1_000_000
    ITERATIONS = 60_000
    #: Between two timed calls, read again once the last reading is this old.
    MIN_GAP_S = 0.3

    def __init__(self, smoke: bool = False) -> None:
        # A tenth of the work, and of the reference, under --smoke.
        scale = 10 if smoke else 1
        self._reference_s = self.REFERENCE_S / scale
        self._iterations = self.ITERATIONS // scale
        rng = np.random.default_rng(12345)
        self._data = rng.random(self.ELEMENTS // scale)
        self._index = rng.integers(0, self._data.size, size=self._data.size)
        self.readings: list[float] = []
        self._last = 0.0
        self.read()  # first touch of the pages
        self.readings.clear()

    def read(self, count: int = 1) -> float:
        """Take ``count`` readings; returns their median in seconds."""
        for _ in range(count):
            started = time.perf_counter()
            float(self._data[self._index].sum())
            gathered = time.perf_counter()
            table: dict[int, int] = {}
            total = 0
            for i in range(self._iterations):
                table[i & 1023] = i
                total += table.get((i * 7) & 1023, 1)
            self._last = time.perf_counter()
            self.readings.append(math.sqrt((gathered - started) * (self._last - gathered)))
        return median(self.readings[-count:])

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.MIN_GAP_S

    def slowdown(self, first: int = 0) -> float:
        """Median of the readings from ``first`` on, over the reference."""
        return median(self.readings[first:]) / self._reference_s


def host_block() -> dict:
    """What a reader needs to judge whether two records are comparable."""
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": has_numba,
        "platform": sys.platform,
    }


def host_warnings(host: dict, load_end: float, probe_before: float,
                  probe_after: float) -> list[str]:
    """Reasons to distrust this run's timings; warnings, never failures."""
    warnings = []
    busy = host["nproc"] - 0.5
    for label, load in (("start", host["loadavg_1m"]), ("end", load_end)):
        if load > busy:
            warnings.append(f"1-minute load average at {label} {load:.2f} > nproc - 0.5 = {busy}")
    if abs(probe_after - probe_before) > 0.15 * min(probe_before, probe_after):
        warnings.append(
            f"host probe moved {probe_before:.2f} -> {probe_after:.2f} ms (> 15%) during the run"
        )
    return warnings
