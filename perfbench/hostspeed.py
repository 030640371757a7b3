"""Host-speed reference: a fixed pure-Python kernel timed between work items.

The benchmark runs on shared machines whose speed drifts by 10-40% over
seconds to minutes as other tenants come and go.  The drift moves every
timing of a run together, so the worker times this kernel before, between
and after the items of each pass.  The host factor of a stretch of time is
the median kernel time of the samples taken in it, or within WINDOW_S of
it, divided by REFERENCE_S.  Every reported time is the measured time
divided by its host factor: the time the work would have taken on a host
where the kernel takes exactly REFERENCE_S.  Raw times are printed beside
them.

The kernel uses no vrlat code, so a change to vrlat cannot move it.  It
exercises what vrlat's hot loops do: tuple-keyed dict inserts and lookups,
big-int XOR and bit_length, and a keyed sort.
"""

import gc
import statistics
from time import perf_counter_ns

# median kernel time on the shared 2-core VM where the baseline was recorded,
# in a quiet spell; only the scale of the reported numbers depends on it
REFERENCE_S = 0.025
# samples taken just before and just after each pass; single samples are
# as bursty as the host, so a few are taken where the pass allows no more
EDGE_SAMPLES = 3
# an item is normalized by the samples within this distance of it; long
# enough to catch a few samples on each side, short next to a slow spell
WINDOW_S = 2.0
# checkpoints between items sample at most this often, which keeps the
# kernel's share of a run near 5%
GAP_S = 0.5


def kernel(n: int = 40_000) -> int:
    table = {}
    for i in range(n):
        table[(i, i ^ 5, i >> 1)] = i
    acc = 0
    for v in table.values():
        acc ^= 1 << (v & 1023)
        if (v, v ^ 5, v >> 1) not in table:
            acc += 1
    ordered = sorted(table, key=lambda t: t[1])
    return acc.bit_length() + ordered[0][0]


class HostClock:
    """Times the kernel on demand and keeps the samples of the current pass."""

    def __init__(self):
        kernel()  # first call pays for growing the heap; not a sample
        self.samples: list[tuple[int, float]] = []  # (start_ns, seconds)
        self.sampling_ns = 0
        self._last_end_ns = 0

    def sample(self) -> None:
        # with the collector on, the kernel's allocations would trigger
        # collections whose cost grows with the workload's live heap
        gc.disable()
        try:
            t0 = perf_counter_ns()
            kernel()
            spent = perf_counter_ns() - t0
        finally:
            gc.enable()
        self.samples.append((t0, spent / 1e9))
        self.sampling_ns += spent
        self._last_end_ns = t0 + spent

    def checkpoint(self) -> None:
        """Sample, unless the last sample ended less than GAP_S ago."""
        if perf_counter_ns() - self._last_end_ns >= GAP_S * 1e9:
            self.sample()

    def _edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def start_pass(self) -> None:
        self.samples = []
        self._edge()
        self.sampling_ns = 0

    def end_pass(self) -> float:
        """Host factor of the whole pass, over all its samples."""
        self._edge()
        return _factor(s for _, s in self.samples)

    def factor_near(self, start_ns: int, end_ns: int) -> float:
        """Host factor of one item, from the samples within WINDOW_S of it.

        Call after end_pass; falls back to the whole pass when no sample is
        near (a traced pass samples only at its edges).
        """
        window = int(WINDOW_S * 1e9)
        near = [s for t, s in self.samples
                if start_ns - window <= t <= end_ns + window]
        return _factor(near or [s for _, s in self.samples])

    def factor(self) -> float:
        """Host factor from a few samples now, outside any pass."""
        self.samples = []
        self._edge()
        return _factor(s for _, s in self.samples)


def _factor(seconds) -> float:
    return statistics.median(seconds) / REFERENCE_S
