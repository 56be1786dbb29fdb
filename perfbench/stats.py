"""Pure helpers of the benchmark: percentiles, seeded schedules, open-loop pacing.

Everything here is stdlib-only and clock-injectable, so the unit tests in
``test_perfbench.py`` pin the arithmetic without touching the program.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: The tail percentile reported when the sample is large enough.
TAIL_TARGET = 90.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float | None:
    """The percentile to report as a sample's tail.

    ``TAIL_TARGET`` (p90) when at least ``TAIL_BEYOND`` samples lie beyond it,
    i.e. with 100 or more samples; otherwise the highest percentile that
    still leaves ``TAIL_BEYOND`` samples beyond it; ``None`` when even that
    is impossible (``TAIL_BEYOND`` samples or fewer).
    """
    if count <= TAIL_BEYOND:
        return None
    highest = 100.0 * (count - TAIL_BEYOND) / count
    return min(TAIL_TARGET, highest)


def arrival_offsets(seed: int, rate: float, count: int) -> list[float]:
    """Seeded Poisson arrivals of exactly ``count`` requests at ``rate`` per s.

    A Poisson process conditioned on ``count`` arrivals in ``[0, count /
    rate)`` places them as sorted independent uniforms over that interval,
    so the schedule fills the run exactly and always yields the same
    sample count, whatever the seed.
    """
    if rate <= 0 or count <= 0:
        raise ValueError("rate and count must be positive")
    horizon = count / rate
    rng = random.Random(f"arrivals:{seed}")
    return sorted(rng.uniform(0.0, horizon) for _ in range(count))


def balanced_stream(seed: int, options: Sequence[str]) -> Iterator[str]:
    """Endless picks spread evenly over ``options``.

    Each consecutive block of ``len(options)`` picks is a seeded
    permutation of ``options``, so every option gets its share (to within
    one block) however short the run.
    """
    rng = random.Random(f"choices:{seed}")
    while True:
        block = list(options)
        rng.shuffle(block)
        yield from block


def open_loop(
    offsets: Sequence[float],
    send: Callable[[int, float], None],
    *,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[float], list[float]]:
    """Send request ``i`` at ``start + offsets[i]``, whatever came before.

    ``send(i, due)`` is called once per request, never earlier than its due
    time; a stall in one send delays the later ones, and that delay is
    recorded, not absorbed.  Returns ``(due times, lateness)``: lateness is
    how long after its due time each send began.  Callers time every request
    from its due time, so the wait a stall imposes counts in latency.
    """
    start = clock()
    dues: list[float] = []
    lateness: list[float] = []
    for index, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        dues.append(due)
        lateness.append(max(0.0, now - due))
        send(index, due)
    return dues, lateness


@dataclass
class Pass:
    """One measured pass of a workload.

    ``latencies_s`` holds one entry per measured operation; ``failed``
    counts failed output checks, error responses and rejections among
    them, since neither is a correct output; ``layer`` holds the per-layer
    metrics a traced pass adds.
    """

    latencies_s: list[float]
    throughput_per_s: float
    attempted: int
    failed: int
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)
