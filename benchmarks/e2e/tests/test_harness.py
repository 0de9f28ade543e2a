"""Percentiles and the sample-count rule, span self-time arithmetic,
the open-loop schedule with due-time latency and lateness, and failure
accounting at the operation log."""

import random

import pytest

from harness import (OpLog, SpanRecorder, covered, due_latency_ms, pace,
                     percentile, poisson_schedule, samples_beyond, supported,
                     timed_read, timed_write, zipf_weights)


# --------------------------------------------------------------- percentiles

def test_percentile_interpolates_between_ranks():
    data = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(data, 0.5) == 30.0
    assert percentile(data, 0.25) == 20.0
    assert percentile(reversed(data), 0.9) == pytest.approx(46.0)
    assert percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p95_needs_two_hundred_samples():
    assert samples_beyond(200, 0.95) == 10
    assert supported(200, 0.95)
    assert not supported(199, 0.95)
    assert supported(20, 0.5) and not supported(19, 0.5)
    assert samples_beyond(120, 0.95) == 6


# --------------------------------------------------------------------- spans

class _Clock:
    """Stands in for ``time.perf_counter`` inside the recorder."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        import harness
        monkeypatch.setattr(harness.time, "perf_counter", lambda: self.now)


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = _Clock(monkeypatch)
    rec = SpanRecorder(enabled=True)
    with rec.span("op.read", op=True) as op:
        clock.now = 1.0
        with rec.span("query") as query:
            clock.now = 2.0
            with rec.span("loader.fetch"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 10.0
    own = rec.self_times()
    assert own[op.span_id] == pytest.approx(10.0 - 5.0)
    assert own[query.span_id] == pytest.approx(5.0 - 3.0)
    assert rec.self_time_by_name()["loader.fetch"] == pytest.approx(3.0)
    # every span of the operation shares its identifier
    assert {s.op_id for s in rec.spans} == {op.span_id}
    assert query.parent == op.span_id


def test_overlapping_children_are_not_counted_twice():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(-5.0, 2.0), (8.0, 20.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.0, 3.0)]) == pytest.approx(1.0)


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=False)
    with rec.span("op.read", op=True) as span:
        assert span is None
    assert rec.record("op.read", 0.0, 1.0) is None
    assert rec.spans == []


def test_adopted_program_spans_nest_under_the_operation(monkeypatch):
    class Node:
        def __init__(self, name, start_s, wall_s, children=()):
            self.name, self.start_s, self.wall_s = name, start_s, wall_s
            self.children, self.attrs = list(children), {"goal": "g", "x": []}

    clock = _Clock(monkeypatch)
    rec = SpanRecorder(enabled=True)
    with rec.span("op.read", op=True) as op:
        clock.now = 8.0
    rec.adopt(Node("query", 1.0, 6.0, [Node("loader.fetch", 2.0, 1.5)]), op)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["query"].parent == op.span_id
    assert by_name["loader.fetch"].parent == by_name["query"].span_id
    assert by_name["loader.fetch"].op_id == op.span_id
    assert by_name["query"].attrs == {"goal": "g"}     # JSON-safe only
    own = rec.self_time_by_name()
    assert own["query"] == pytest.approx(4.5)
    assert own["op.read"] == pytest.approx(2.0)


# ----------------------------------------------------------------- open loop

def test_schedule_is_seeded_and_inside_the_window():
    first = poisson_schedule(random.Random(5), 80.0, 10.0)
    again = poisson_schedule(random.Random(5), 80.0, 10.0)
    other = poisson_schedule(random.Random(6), 80.0, 10.0)
    assert first == again != other
    assert first == sorted(first) and 0.0 < first[0] and first[-1] < 10.0
    # the count is fixed by rate x duration, only the spacing is drawn
    assert len(first) == len(other) == 800


def test_latency_counts_from_the_due_time_and_lateness_is_reported():
    """A stall in the generator makes later requests leave late; their
    latency still starts at the time they were due."""
    now = [100.0]
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    fired = []

    def fire(index, due, sent):
        fired.append((index, due, sent))
        if index == 0:
            now[0] += 0.5          # the first send blocks for 500 ms

    late = pace([0.1, 0.2, 0.3, 1.0], 100.0, fire,
                clock=lambda: now[0], sleep=sleep)
    assert [f[1] for f in fired] == pytest.approx([100.1, 100.2, 100.3, 101.0])
    # requests 1 and 2 were due during the stall: sent late, not skipped
    assert late == pytest.approx([0.0, 400.0, 300.0, 0.0])
    assert slept == pytest.approx([0.1, 0.4])
    index, due, sent = fired[1]
    assert due_latency_ms(due, sent, 7.0) == pytest.approx(407.0)


def test_zipf_weights_are_cumulative_and_skewed():
    weights = zipf_weights(200, 1.1)
    assert weights == sorted(weights) and weights[-1] == pytest.approx(1.0)
    assert weights[0] > 0.15 and weights[9] > 0.5


# -------------------------------------------------------- failure accounting

def test_failed_operations_count_and_leave_no_latency_sample():
    log = OpLog()

    def raises():
        raise RuntimeError("boom")

    assert timed_read(log, lambda: iter([1, 2]), lambda a: a == [1, 2]) == [1, 2]
    assert timed_read(log, raises, lambda a: True) is None
    assert timed_read(log, lambda: iter([1]), lambda a: False) == [1]
    assert timed_read(log, raises, lambda a: True,
                      classify=lambda exc: "refused") is None
    assert timed_write(log, lambda: None)
    assert not timed_write(log, raises)
    assert log.attempted == 6
    assert log.failures == {"exception": 2, "wrong": 1, "refused": 1}
    assert log.failed == 4 and log.failed_share == pytest.approx(4 / 6)
    assert len(log.read_ms) == 1 and len(log.first_ms) == 1
    assert len(log.write_ms) == 1
    assert log.completed == 2


def test_first_answer_is_timed_before_the_rest(monkeypatch):
    clock = _Clock(monkeypatch)

    def answers():
        clock.now = 2.0
        yield "a"
        clock.now = 9.0
        yield "b"

    log = OpLog()
    timed_read(log, answers, lambda a: a == ["a", "b"])
    assert log.first_ms == [pytest.approx(2000.0)]
    assert log.read_ms == [pytest.approx(9000.0)]


def test_logs_merge():
    a, b = OpLog(), OpLog()
    a.read(1.0, 0.5)
    b.read(2.0)
    b.fail("deadline", "slow goal")
    a.merge(b)
    assert a.attempted == 3 and a.read_ms == [1.0, 2.0]
    assert a.first_ms == [0.5, 2.0] and a.failures == {"deadline": 1}


# ------------------------------------------------ reference machine speed

def test_times_are_scaled_by_the_probes_around_them():
    from harness import Window, speed_factor
    assert speed_factor(1.0, 1.0) == 1.0
    # the probe loops took a third longer: the machine was slow, times shrink
    slow = speed_factor(4 / 3, 4 / 3)
    assert slow == pytest.approx(0.75)

    fast_round, slow_round = OpLog(), OpLog()
    fast_round.read(3.0, 1.0)
    fast_round.write(0.3)
    slow_round.read(4.0, 2.0)
    slow_round.fail("wrong", "x")
    window = Window(clients=2)
    window.add(fast_round, 1.0, 1.0)
    window.add(slow_round, 1.0, slow)

    everything = window.everything()                  # as measured
    assert everything.read_ms == [3.0, 4.0]
    assert everything.attempted == 4 and everything.failed == 1
    scaled = window.at_reference_speed()
    assert scaled.read_ms == [3.0, pytest.approx(3.0)]
    assert scaled.first_ms == [1.0, pytest.approx(1.5)]
    assert scaled.write_ms == [0.3]
    assert scaled.failed == 1                         # failures never scale
    # two reads in 1 s + 0.75 s of reference time, two clients side by side
    assert window.reads_per_second() == pytest.approx(2 * 2 / 1.75)
    assert window.reads_per_second(scaled=False) == pytest.approx(2.0)
    assert window.mean_factor() == pytest.approx(0.875)


def test_open_loop_tails_are_the_undisturbed_segments():
    """Two stalled slices in five move the pooled p95 and the median of
    the slices' own p95, not their lower quartile; each slice's figure
    is at its own speed."""
    from harness import Window

    def window(by_segment):
        out = Window(tails_by_segment=by_segment)
        for number in range(5):
            log = OpLog()
            stalled = number in (1, 2)
            for index in range(20):
                log.read(300.0 if stalled and index < 8 else 4.0 + index / 10)
                log.write(50.0 if stalled else 1.0 + index / 100)
            out.add(log, 1.0, 0.5 if number == 4 else 1.0)
        return out

    pooled = window(False).latency_figures()
    quiet = window(True).latency_figures()
    assert pooled["query_p95_ms"] > 100.0 and pooled["write_p95_ms"] > 40.0
    # the slices' p95 at reference speed: 5.805 300 300 5.805 2.9025
    assert quiet["query_p95_ms"] == pytest.approx(5.805)
    assert quiet["write_p95_ms"] == pytest.approx(1.1805)
    assert quiet["query_p50_ms"] == pooled["query_p50_ms"]
    raw = window(True).latency_figures(scaled=False)
    assert raw["query_p95_ms"] == pytest.approx(5.805)
    with pytest.raises(ValueError):
        Window().latency_figures()


def test_probe_measures_slowness_relative_to_the_reference_machine():
    import gc
    from harness import SpeedProbe
    slowness = SpeedProbe()()
    assert 0.1 < slowness < 50.0
    assert gc.isenabled()                  # only off inside the probe
