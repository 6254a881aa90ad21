"""Closed-loop timing, machine-speed calibration, correctness accounting and span tracing.

The benchmark reaches the library only through ``Op`` objects: one call
into one layer's public function plus a check of its output.  ``Tally``
runs ops in whole blocks, so every run measures the same mix, and counts
a failure for an exception or a wrong answer.  ``Tracer`` keeps spans
(name, operation id, parent, start, end) in memory; an oracle op hands
``membership`` a wrapped ``f`` whose calls become child spans.

Shared machines change speed while a run is going: on a shared 2-core
virtual machine, one fixed oracle verdict ran
14 to 28 times a second within 90 s, in plateaus of 10 s and more.  So
the time of every in-process operation is scaled by ``Calibrator``: a
frozen kernel that does not use the library is timed every 0.1 s, and a
time measured now is multiplied by nominal / (mean of the recent kernel
times).  A change to the library moves the op times and not the kernel,
so the scaled times compare commits; the raw times are printed too.
Child processes (the CLI) are not scaled: their start-up cost tracked
neither this kernel nor a ``python -c "import numpy"`` one, which made
their spread wider, not narrower.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "VARPROJ_SEED"} | {"PYTHONPATH": str(SRC)}
CHILD_TIMEOUT_S = 120
IMPORT_CODE = "import time; t = time.perf_counter(); import varproj; print(time.perf_counter() - t)"


@dataclass(frozen=True)
class Op:
    """One operation: ``call(f)`` for oracle ops (``f`` set), ``call()`` otherwise.

    ``check`` returns None for a right answer and a reason otherwise.
    ``inputs`` feeds the corpus digest.
    """

    id: str
    layer: str
    call: Callable[..., Any]
    check: Callable[[Any], Optional[str]]
    f: Optional[Callable] = None
    f_layer: str = ""
    inputs: Any = ()

    def named(self, op_id: str) -> "Op":
        return replace(self, id=op_id)


def run_cli(argv: Iterable[str]) -> subprocess.CompletedProcess:
    """One fresh ``python -m varproj.cli`` process on the checkout's ``src``."""
    return subprocess.run([sys.executable, "-m", "varproj.cli", *argv], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def child_seconds(code: str) -> float:
    """Run ``python -c code`` on the checkout's ``src``; the child prints a duration in seconds."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


# --- calibration -----------------------------------------------------------

_CAL = np.random.default_rng(20240101)
_CAL_X = _CAL.uniform(0.5, 1.5, 6)
_CAL_Y = _CAL.standard_normal(6)
_CAL_Z = _CAL.standard_normal(6)
_CAL_DIRS = [d / np.linalg.norm(d) for d in _CAL.standard_normal((40, 6))]


def _cal_project(u):
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite calibration input")
    length = float(np.linalg.norm(u))
    return u.copy() if length <= 1.0 else (1.0 / length) * u


def in_process_kernel() -> float:
    """Seconds for a frozen quotient loop shaped like the oracle's (small numpy calls from Python)."""
    start = time.perf_counter()
    best = -math.inf
    for t in (1e-2, 1e-3):
        for d in _CAL_DIRS:
            u = _CAL_X + t * d
            du = u - _CAL_X
            df = _cal_project(u) - _cal_project(_CAL_X)
            q = (float(_CAL_Z @ du) - float(_CAL_Y @ df)) / (float(np.linalg.norm(du)) + float(np.linalg.norm(df)))
            best = max(best, q)
    return time.perf_counter() - start


class Calibrator:
    """Scale factor NOMINAL_S / (mean of the last WINDOW kernel times), resampled every EVERY_S.

    The mean, not the median, because a long operation pays the average
    slowdown, short stalls included.
    """

    NOMINAL_S = 1.5e-3
    EVERY_S = 0.1
    WINDOW = 10

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf
        for _ in range(self.WINDOW):
            self.sample()

    def sample(self) -> None:
        self.samples.append(in_process_kernel())
        self.last = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.sample()

    def scale(self) -> float:
        return self.NOMINAL_S / statistics.fmean(self.samples[-self.WINDOW:])


# --- tracing and execution -------------------------------------------------

class Tracer:
    """Spans kept in memory as (name, op_id, parent, start_ns, end_ns); parent -1 is a root."""

    def __init__(self):
        self.spans: list[tuple] = []

    def open(self, name: str, op_id: str) -> int:
        """Open a root span; ``close`` sets its end."""
        self.spans.append((name, op_id, -1, time.perf_counter_ns(), 0))
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        name, op_id, parent, start, _ = self.spans[index]
        self.spans[index] = (name, op_id, parent, start, time.perf_counter_ns())

    def wrap(self, f: Callable, name: str, op_id: str, parent: int) -> Callable:
        """``f`` with a child span around every call."""
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(u):
            start = clock()
            out = f(u)
            spans.append((name, op_id, parent, start, clock()))
            return out

        return traced

    def write(self, path: Path) -> None:
        """Write the raw spans as gzipped JSON with interned names and ids, times relative to the first span."""
        names: dict[str, int] = {}
        base = self.spans[0][3] if self.spans else 0
        rows = [[names.setdefault(n, len(names)), names.setdefault(o, len(names)), p, s - base, e - base]
                for n, o, p, s, e in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"strings": list(names), "fields": ["name", "op_id", "parent", "start_ns", "end_ns"],
                       "spans": rows}, fh)


def execute(op: Op, tracer: Optional[Tracer] = None) -> tuple[float, Any, Optional[str]]:
    """Run one op: (raw seconds, output, failure reason or None).  Only the call is timed."""
    args = () if op.f is None else (op.f,)
    span = -1
    if tracer is not None:
        span = tracer.open(op.layer, op.id)
        if op.f is not None:
            args = (tracer.wrap(op.f, op.f_layer, op.id, span),)
    error = None
    start = time.perf_counter()
    try:
        out = op.call(*args)
    except Exception as exc:  # an exception is a failed operation, not a benchmark crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:  # a malformed output fails the check
            error = f"check raised {type(exc).__name__}: {exc}"
    return seconds, out, error


class Tally:
    """Scaled and raw latencies, per-block throughput and failures of one measured loop.

    Without a calibrator (child-process workloads) the scaled times are the raw ones.

    Latencies go into preallocated arrays, so the benchmark's own memory
    does not grow with the library's speed; the loop stops when they are full.
    """

    def __init__(self, capacity: int, cal: Optional[Calibrator]):
        self.cal = cal
        self.latency = np.full(capacity, np.nan)
        self.raw = np.full(capacity, np.nan)
        self.count = 0
        self.block_rates: list[float] = []
        self.raw_block_rates: list[float] = []
        self.failures: list[tuple[str, str]] = []

    @property
    def room(self) -> int:
        return self.latency.shape[0] - self.count

    def record(self, op: Op, seconds: float, error: Optional[str]) -> float:
        """Store one op's latency; return it scaled."""
        scaled = seconds * self.cal.scale() if self.cal else seconds
        if self.room > 0:
            self.latency[self.count] = scaled
            self.raw[self.count] = seconds
        self.count += 1
        if error is not None:
            self.failures.append((op.id, error))
        return scaled

    def run_block(self, block: list[Op]) -> None:
        scaled = raw = 0.0
        for op in block:
            if self.cal:
                self.cal.due()
            seconds, _, error = execute(op)
            scaled += self.record(op, seconds, error)
            raw += seconds
        self.block_rates.append(len(block) / scaled)
        self.raw_block_rates.append(len(block) / raw)

    def e2e(self) -> tuple[dict[str, float], dict[str, float]]:
        """(scaled, raw) ops_per_s (median over blocks) and latency percentiles."""
        n = min(self.count, self.latency.shape[0])
        out = []
        for lat, rates in ((self.latency[:n], self.block_rates), (self.raw[:n], self.raw_block_rates)):
            p50, p90 = np.percentile(lat, [50, 90]) * 1e3
            out.append({"ops_per_s": float(np.median(rates)), "latency_p50_ms": float(p50),
                        "latency_p90_ms": float(p90)})
        return out[0], out[1]


def closed_loop(blocks: list[list[Op]], seconds: float, tally: Tally) -> None:
    """One client: run whole blocks back to back until ``seconds`` have passed (at least one block)."""
    deadline = time.perf_counter() + seconds
    for block in itertools.cycle(blocks):
        if len(block) > tally.room:
            break
        tally.run_block(block)
        if time.perf_counter() >= deadline:
            break
