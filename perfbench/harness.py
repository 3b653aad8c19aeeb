"""Run loop, tracing and statistics shared by every workload.

An op is one public call (or a short chain of them) into vortexmoduli, or one
CLI request.  Its ``call`` does the work and returns a result; its ``check``
compares that result with a reference that does not depend on the timed code
and returns a verdict.  Only ``call`` is timed.

Verdicts:
    "ok"      the result matched its reference;
    "failed"  the program raised, refused, or did not reject an invalid
              request (no answer was produced for a valid request);
    "wrong"   the program returned an answer to a valid request that
              contradicts the reference.

A run is correct when no op is "wrong".  ``failed`` in the result line
counts "failed" and "wrong" together.

Machine speed.  The host this benchmark was tuned on runs the same code up
to 1.8 times slower for fractions of a second to minutes at a time, for
reasons outside the program.  A workload may therefore name a gauge kernel:
fixed code that imports nothing from vortexmoduli, timed every 0.1 s while
the ops run.  Each op's latency is scaled by ``reference_s / (mean kernel
time around the op)``, so latencies read as seconds at the speed the gauge
had when its reference was taken.  The program's own speed-ups and
slow-downs are not scaled away: the kernel does not run its code.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Any, Callable, Optional

import numpy as np

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    kind: str
    inputs: Any                      # plain data, compared by the determinism test
    call: Callable[["Tracer"], Any]
    check: Callable[[Any], "Verdict"]


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str = ""


def expect_equal(got, want, what: str) -> Verdict:
    if got == want:
        return Verdict(OK)
    return Verdict(WRONG, "%s: got %r, want %r" % (what, got, want))


@dataclass
class OpRecord:
    kind: str
    latency_s: float                 # scaled by the gauge, if the workload has one
    status: str
    detail: str
    pass_index: int = 0
    start: float = 0.0               # perf_counter at the start and end of the call
    end: float = 0.0
    raw_s: float = 0.0               # wall time of the call, unscaled


# ---------------------------------------------------------------------------
# machine-speed gauge


def fraction_kernel():
    """Sparse bivariate polynomial product over Q in dicts: the kind of work
    the exact ring and genus-0 code does, without its code."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(6)}
    b = {(i, j): Fraction(j - 3, i + 1) for i in range(6) for j in range(7)}
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return out


FRACTION_KERNEL_S = 0.0056   # the kernels' times in the fast regime of the 2-CPU
ARRAY_KERNEL_S = 0.0064      # x86_64 VM described in perfbench/README.md

_GRID = np.random.default_rng(0).random((256, 256))
_SYMBOL = np.add.outer(np.arange(256.0), np.arange(129.0)) + 1.0


def array_kernel():
    """A 5-point stencil by np.roll, an FFT solve and exponentials on a 256^2
    grid: the kind of work the Taubes solver does, without its code."""
    u, total = _GRID, 0.0
    for _ in range(3):
        lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1)
               - 4.0 * u)
        w = np.exp(-u) * lap
        v = np.fft.irfft2(np.fft.rfft2(w) / _SYMBOL, s=u.shape)
        total += float(v.ravel() @ w.ravel())
    return total


class Gauge:
    """Times ``kernel`` every ``INTERVAL_S`` of wall time, from a SIGALRM
    timer, so that samples fall inside long ops too.  A sample taken during
    an op is taken off that op's latency (``busy_between``)."""

    INTERVAL_S = 0.1
    WINDOW_S = 0.25       # an op's factor uses the samples within this, or within
                          # its own duration if longer, of its start and end

    def __init__(self, kernel: Callable[[], Any], reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: list[tuple[float, float]] = []    # (midpoint, duration)
        self._sampling = False
        kernel()                                        # first-call costs

    def sample(self, *_signal) -> None:
        if self._sampling:
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self._sampling = False

    def busy_between(self, start: float, end: float) -> float:
        """Kernel time of the samples taken between ``start`` and ``end``.  A
        sample runs whole between two bytecodes, so it lies on one side of
        each timestamp."""
        total = 0.0
        for mid, duration in reversed(self.samples):
            if mid < start:
                break
            if mid <= end:
                total += duration
        return total

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            self.sample()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """reference_s over the mean kernel time near [start, end]."""
        window = max(self.WINDOW_S, end - start)
        near = [d for t, d in self.samples if start - window <= t <= end + window]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start),
                                                        abs(s[0] - end)))[1]]
        return self.reference_s / statistics.fmean(near)

    def scale(self, records: list["OpRecord"]) -> None:
        for r in records:
            r.latency_s = r.raw_s * self.factor(r.start, r.end)


class NoGauge:
    """Latencies stay wall times."""

    def busy_between(self, start: float, end: float) -> float:
        return 0.0

    def running(self):
        return contextlib.nullcontext()

    def scale(self, records: list["OpRecord"]) -> None:
        pass


# ---------------------------------------------------------------------------
# tracing


class NullTracer:
    """Tracing off: spans and counters cost one attribute lookup."""

    enabled = False
    _null = contextlib.nullcontext()

    def op(self, kind: str):
        return self._null

    def span(self, name: str):
        return self._null

    def count(self, name: str, n=1) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int


class Tracer:
    """Spans kept in memory: one per op, with child spans around each public
    call the op makes.  ``overhead_s`` is the time spent in the tracer's own
    bookkeeping, measured around it."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._op_id = 0

    @contextlib.contextmanager
    def op(self, kind: str):
        self._op_id += 1
        with self.span("op." + kind):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        b0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rec = Span(name, 0.0, 0.0, parent, self._op_id)
        self.spans.append(rec)
        self._stack.append(index)
        b1 = time.perf_counter()
        rec.start = b1
        try:
            yield
        finally:
            e0 = time.perf_counter()
            rec.end = e0
            self._stack.pop()
            self.overhead_s += (b1 - b0) + (time.perf_counter() - e0)

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op_id": s.op_id, "self_s": own}
                for s, own in zip(self.spans, selfs)]


# ---------------------------------------------------------------------------
# running ops


def run_op(op: Op, tracer, gauge=None) -> OpRecord:
    """Time ``op.call`` alone, then check its result outside the timing."""
    gauge = gauge or NoGauge()
    with tracer.op(op.kind):
        t0 = time.perf_counter()
        try:
            result = op.call(tracer)
        except Exception as exc:  # the op's failure is the measurement
            t1 = time.perf_counter()
            raw = t1 - t0 - gauge.busy_between(t0, t1)
            return OpRecord(op.kind, raw, FAILED, "%s: %s" % (type(exc).__name__, exc),
                            start=t0, end=t1, raw_s=raw)
        t1 = time.perf_counter()
        raw = t1 - t0 - gauge.busy_between(t0, t1)
    verdict = op.check(result)
    return OpRecord(op.kind, raw, verdict.status, verdict.detail,
                    start=t0, end=t1, raw_s=raw)


def run_passes(make_pass: Callable[[int], list], first: list, seconds: float,
               tracer, gauge=None) -> tuple[list[OpRecord], int]:
    """Run whole passes for about ``seconds`` of wall time: at least one, and
    another only while the previous pass's duration still fits.

    Every pass has the same composition of op kinds and sizes, so stopping
    only between passes keeps the op mix of a run independent of timing.
    The gauge, if any, samples while the passes run; latencies are scaled at
    the end.
    """
    gauge = gauge or NoGauge()
    records: list[OpRecord] = []
    start = time.perf_counter()
    ops, index = first, 0
    with gauge.running():
        while True:
            pass_start = time.perf_counter()
            for op in ops:
                rec = run_op(op, tracer, gauge)
                rec.pass_index = index
                records.append(rec)
            index += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
            ops = make_pass(index)
    gauge.scale(records)
    return records, index


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _latency_stats(records: list[OpRecord], completed: int, tail_pct: float,
                   attr: str) -> dict:
    """Throughput and latency percentiles, taken per pass, then the median
    over passes.  A run makes one pass or several depending on timing;
    per-pass percentiles read the same op rank either way."""
    passes: dict[int, list] = {}
    for r in records:
        passes.setdefault(r.pass_index, []).append(getattr(r, attr))
    tails = [nearest_rank(lat, tail_pct) for lat in passes.values()]
    return {
        "ops_per_s": completed / sum(getattr(r, attr) for r in records),
        "latency_p50_s": statistics.median(statistics.median(lat) for lat in passes.values()),
        "latency_tail_s": statistics.median(t for t, _ in tails),
        "tail_ops_beyond": min(b for _, b in tails),
    }


def summarize(records: list[OpRecord], tail_pct: float) -> dict:
    """Run totals and latency statistics; ``unscaled`` repeats the latency
    statistics on wall times, before the gauge's scaling."""
    completed = sum(1 for r in records if r.status == OK)
    out = {
        "attempted": len(records),
        "completed": completed,
        "failed": len(records) - completed,
        "wrong": sum(1 for r in records if r.status == WRONG),
        "tail_pct": tail_pct,
        "fail_ratio": (len(records) - completed) / len(records),
    }
    out.update(_latency_stats(records, completed, tail_pct, "latency_s"))
    unscaled = _latency_stats(records, completed, tail_pct, "raw_s")
    del unscaled["tail_ops_beyond"]
    out["unscaled"] = unscaled
    return out


def median_by_kind(records: list[OpRecord]) -> dict:
    kinds: dict[str, list] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r)
    return {k: {"n": len(rs), "ok": sum(1 for r in rs if r.status == OK),
                "p50_s": statistics.median(r.latency_s for r in rs)}
            for k, rs in sorted(kinds.items())}
