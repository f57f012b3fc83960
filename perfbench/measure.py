"""Normalisation, percentiles and spans: the benchmark's arithmetic.

Nothing here imports ``vtcamo``; the tests check the arithmetic on fixed
numbers.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

from refkernel import SLICES, kernel_slice

#: Reference kernel wall time on the nominal host, in seconds. Figures
#: read as seconds on a host where the kernel takes exactly this long.
R_NOMINAL_S = 0.0115

#: Wall seconds between two kernel slices sampled during a job.
SAMPLE_INTERVAL_S = 0.002

#: Span name of a kernel slice sampled inside a traced job.
SLICE_SPAN = "perfbench.slice"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def normalise(wall_s: float, ref_before_s: float, ref_after_s: float,
              slices: list[float] = ()) -> float:
    """Wall time expressed in seconds on the nominal host.

    The host's speed over the job is the mean time of one kernel slice,
    taken over the slices sampled during the job plus the two bracketing
    kernel runs, each of which counts as one sample of its mean slice.
    """
    samples = [ref_before_s / SLICES, ref_after_s / SLICES, *slices]
    return wall_s * (R_NOMINAL_S / SLICES) / (sum(samples) / len(samples))


class SliceSampler:
    """Times one kernel slice every SAMPLE_INTERVAL_S while active.

    An interval timer interrupts the job; the handler runs one slice and
    records its wall time. The host's speed changes within a single long
    job, so these samples track it where the bracketing kernels cannot.
    Used as a context manager; ``samples`` holds the slice times. With a
    tracer, each slice is also a ``SLICE_SPAN`` span, so that it counts
    against no layer's self time.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.samples: list[float] = []
        self._tracer = tracer
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel_slice()
        end = time.perf_counter()
        self.samples.append(end - start)
        if self._tracer is not None:
            self._tracer.record(SLICE_SPAN, start, end)

    def __enter__(self) -> "SliceSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above its nearest-rank position; 50 when there are too few samples."""
    if n < 1:
        raise ValueError("no samples")
    return 100 * (n - beyond) // n if n > beyond else 50


def quantile(values: list[float], pct: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution over [(i-1)/n, i/n], integrated
    by the midpoint rule with ``steps`` points per interval. Unlike a
    single order statistic it does not jump when two jobs with different
    costs swap places near the percentile, which matters when the job
    list has gaps between groups of similar jobs.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    p = pct / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(x)
                              + (b - 1) * math.log1p(-x))
        weights.append(total)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) of the tail percentile."""
    pct = tail_percentile(len(values), beyond)
    rank = max(1, math.ceil(pct * len(values) / 100))
    return quantile(values, pct), pct, len(values) - rank


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Tracer:
    """In-memory spans around the calls a job makes into the program.

    ``call`` runs a function inside a span; a span opened while another
    is open records it as its parent. A span is a list
    ``[name, start, end, parent, job]`` kept in memory until the run ends;
    ``table`` gives them with each parent as an index into the list. Spans
    are built as objects, not indices, because a sampled slice may add a
    span from a signal handler at any point.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._open: list[list] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, time.perf_counter(), None,
                self._open[-1] if self._open else None, self.job]
        self.spans.append(span)
        self._open.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open one."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.job])

    def table(self) -> list[list]:
        """The spans with each parent replaced by its index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [[name, start, end, None if parent is None else index[id(parent)],
                 job] for name, start, end, parent, job in self.spans]

    def wrap_oracle(self, oracle) -> "TracedOracle":
        return TracedOracle(self, oracle)


class TracedOracle:
    """Oracle callable whose every query is an ``attack.oracle`` span."""

    def __init__(self, tracer: Tracer, oracle):
        self._tracer = tracer
        self._oracle = oracle

    def __call__(self, vector):
        return self._tracer.call("attack.oracle", self._oracle, vector)


def self_times(spans: list[list]) -> list[float]:
    """Per span of a ``Tracer.table``: its duration minus the durations of
    its direct children.

    Children run inside their parent one after another, so their
    durations are exactly the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
