"""Unit tests of the benchmark's own helpers (no program code is run).

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``.
"""

from __future__ import annotations

import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (  # noqa: E402
    arrival_offsets,
    balanced_stream,
    open_loop,
    percentile,
    tail_percentile,
)
from tracing import Span, Tracer, instrument, self_times  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------ percentiles ------------------------------ #
@pytest.mark.parametrize("count", [100, 101, 500, 10_000])
def test_p90_needs_a_hundred_samples(count):
    assert tail_percentile(count) == 90.0


@pytest.mark.parametrize("count", [11, 20, 50, 99])
def test_smaller_samples_report_the_highest_percentile_with_ten_beyond(count):
    q = tail_percentile(count)
    assert q < 90.0
    values = [float(i) for i in range(1, count + 1)]
    cut = percentile(values, q)
    assert sum(v > cut for v in values) == 10


@pytest.mark.parametrize("count", [0, 1, 10])
def test_no_tail_without_more_than_ten_samples(count):
    assert tail_percentile(count) is None


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ------------------------------- self time -------------------------------- #
def test_self_time_subtracts_children():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("child", 1.0, 3.0, parent=0),
        Span("child", 5.0, 6.0, parent=0),
        Span("grandchild", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == [7.0, 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),
        Span("c", 8.0, 12.0, parent=0),
    ]
    # Covered: [1, 5] and [8, 10] -> 6 of 10 seconds.
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_nests_spans_and_sums_within_ancestors():
    clock = FakeClock()
    tracer = Tracer(True, clock=clock)
    with tracer.span("regen"):
        clock.sleep(1.0)
        with tracer.span("experiment"):
            with tracer.span("hash"):
                clock.sleep(0.5)
            clock.sleep(0.25)
        with tracer.span("hash"):
            clock.sleep(0.5)
    assert [span.parent for span in tracer.spans] == [None, 0, 1, 0]
    assert tracer.durations("regen") == [2.25]
    assert tracer.self_durations("regen") == [1.0]
    assert tracer.self_durations("experiment") == [0.25]
    assert tracer.totals_within("hash", "regen") == [1.0]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("anything"):
        tracer.add("interval", 0.0, 1.0)
    assert tracer.spans == []


def test_instrument_wraps_and_restores():
    owner = types.SimpleNamespace(work=lambda: 42)
    clock = FakeClock()
    tracer = Tracer(True, clock=clock)
    original = owner.work
    with instrument(tracer, [(owner, "work", "owner.work")]):
        assert owner.work() == 42
    assert owner.work is original
    assert [span.name for span in tracer.spans] == ["owner.work"]


# ------------------------------- schedules -------------------------------- #
def test_arrival_schedule_is_determined_by_the_seed():
    first = arrival_offsets(7, 5.0, 100)
    assert first == arrival_offsets(7, 5.0, 100)
    assert first != arrival_offsets(8, 5.0, 100)
    assert len(first) == 100
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 100 / 5.0


def test_arrival_schedule_has_the_requested_rate():
    offsets = arrival_offsets(3, 5.0, 2000)
    gaps = [b - a for a, b in itertools.pairwise(offsets)]
    assert sum(gaps) / len(gaps) == pytest.approx(1 / 5.0, rel=0.1)


def test_balanced_stream_is_seeded_and_even():
    options = ("a", "b", "c", "d")
    picks = list(itertools.islice(balanced_stream(1, options), 40))
    assert picks == list(itertools.islice(balanced_stream(1, options), 40))
    assert picks != list(itertools.islice(balanced_stream(2, options), 40))
    for block in range(10):
        assert sorted(picks[4 * block : 4 * block + 4]) == list(options)


# ------------------------------- open loop -------------------------------- #
def test_open_loop_sends_on_time_when_nothing_stalls():
    clock = FakeClock()
    sent = []
    dues, lateness = open_loop(
        [0.0, 0.5, 1.0],
        lambda i, due: sent.append((i, clock())),
        clock=clock,
        sleep=clock.sleep,
    )
    assert dues == [0.0, 0.5, 1.0]
    assert lateness == [0.0, 0.0, 0.0]
    assert sent == [(0, 0.0), (1, 0.5), (2, 1.0)]


def test_open_loop_records_the_lateness_a_stall_causes():
    clock = FakeClock()

    def send(index: int, due: float) -> None:
        if index == 0:
            clock.sleep(0.25)  # the first send stalls the generator

    dues, lateness = open_loop(
        [0.0, 0.1, 0.2, 0.3], send, clock=clock, sleep=clock.sleep
    )
    assert dues == [0.0, 0.1, 0.2, 0.3]
    assert lateness == pytest.approx([0.0, 0.15, 0.05, 0.0])
