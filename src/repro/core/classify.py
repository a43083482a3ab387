"""Request-size classes, burstiness, and concurrency metrics.

The paper's section 6 compares codes along "three dimensions: I/O
request size, I/O parallelism, and I/O access modes".  These helpers
quantify the first two; access-mode usage falls out of the trace's
``mode`` field directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.pablo.records import IOOp
from repro.pablo.tracer import Trace
from repro.units import KB


@dataclass
class RequestClassStats:
    """Counts/bytes split into the paper's small/medium/large classes."""

    small_count: int
    medium_count: int
    large_count: int
    small_bytes: int
    medium_bytes: int
    large_bytes: int
    small_threshold: int
    large_threshold: int

    @property
    def total_count(self) -> int:
        return self.small_count + self.medium_count + self.large_count

    @property
    def total_bytes(self) -> int:
        return self.small_bytes + self.medium_bytes + self.large_bytes

    @property
    def small_count_fraction(self) -> float:
        return self.small_count / self.total_count if self.total_count else 0.0

    @property
    def large_data_fraction(self) -> float:
        return self.large_bytes / self.total_bytes if self.total_bytes else 0.0


def request_classes(
    trace: Trace,
    op: IOOp,
    small_threshold: int = 2 * KB,
    large_threshold: int = 128 * KB,
) -> RequestClassStats:
    """Classify ``op`` requests as small (< small_threshold), large
    (>= large_threshold), or medium.

    Defaults match the paper's language for ESCAT: "small" reads are
    those under 2 KB; "large" are the 128 KB two-stripe reads.
    """
    if small_threshold > large_threshold:
        raise AnalysisError("small threshold exceeds large threshold")
    sizes = trace.by_op(op).column("nbytes")
    if sizes.size == 0:
        return RequestClassStats(0, 0, 0, 0, 0, 0, small_threshold, large_threshold)
    small = sizes < small_threshold
    large = sizes >= large_threshold
    medium = ~small & ~large
    return RequestClassStats(
        small_count=int(small.sum()),
        medium_count=int(medium.sum()),
        large_count=int(large.sum()),
        small_bytes=int(sizes[small].sum()),
        medium_bytes=int(sizes[medium].sum()),
        large_bytes=int(sizes[large].sum()),
        small_threshold=small_threshold,
        large_threshold=large_threshold,
    )


@dataclass
class ConcurrencyStats:
    """How parallel the I/O was."""

    #: Nodes that issued at least one I/O operation.
    active_nodes: int
    #: Maximum number of operations in flight at once.
    peak_concurrency: int
    #: Mean operations in flight over the I/O-active portion.
    mean_concurrency: float
    #: Fraction of all data operations issued by the busiest node
    #: (1/n for perfectly balanced; ~1 for node-zero-funnelled I/O).
    coordinator_share: float


def concurrency_stats(trace: Trace) -> ConcurrencyStats:
    """Concurrency profile of the data operations in ``trace``."""
    data = trace.data_events()
    if not len(data):
        return ConcurrencyStats(0, 0, 0.0, 0.0)
    starts = data.column("start")
    ends = starts + data.column("duration")
    # Sweep: +1 at start, -1 at end.
    times = np.concatenate([starts, ends])
    deltas = np.concatenate([np.ones_like(starts), -np.ones_like(ends)])
    # Ends sort before starts at identical timestamps (delta -1 < +1),
    # so back-to-back operations do not look concurrent.
    order = np.lexsort((deltas, times))
    times, deltas = times[order], deltas[order]
    running = np.cumsum(deltas)
    peak = int(running.max())
    # Time-weighted mean over intervals where at least one op active.
    widths = np.diff(times)
    levels = running[:-1]
    active = levels > 0
    denom = widths[active].sum()
    mean = float((levels[active] * widths[active]).sum() / denom) if denom > 0 else 0.0

    per_node = np.unique(data.column("node"), return_counts=True)[1]
    return ConcurrencyStats(
        active_nodes=len(per_node),
        peak_concurrency=peak,
        mean_concurrency=mean,
        coordinator_share=int(per_node.max()) / len(data),
    )


def burstiness(trace: Trace, op: IOOp, window: float = 1.0) -> float:
    """Coefficient of variation of per-window operation counts.

    ~0 for uniform activity; large for bursty (checkpoint) patterns.
    """
    if window <= 0:
        raise AnalysisError(f"window must be positive, got {window}")
    starts = trace.by_op(op).column("start")
    if starts.size == 0:
        return 0.0
    horizon = starts.max() + window
    bins = np.arange(0.0, horizon + window, window)
    counts, _ = np.histogram(starts, bins=bins)
    mean = counts.mean()
    if mean == 0:
        return 0.0
    return float(counts.std() / mean)
