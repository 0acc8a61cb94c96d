"""Bucket-queue edge cases of the event engine, as a fixture-driven contract.

Each case takes the engine from the ``engine`` fixture, whose one param is
the event :class:`~repro.engine.Engine`. The cases pin the corners the
simulator's ordering relies on: same-cycle schedule-during-drain ordering,
``stop()`` mid-bucket preservation, the first-event deadline sample, and
recovery after a raising callback.
"""

import time

import pytest

from repro.engine import DeadlineExceeded, Engine


@pytest.fixture(params=[Engine], ids=["event"])
def engine(request):
    return request.param()


def test_events_run_in_time_order(engine):
    log = []
    engine.schedule(30, lambda: log.append("c"))
    engine.schedule(10, lambda: log.append("a"))
    engine.schedule(20, lambda: log.append("b"))
    engine.run()
    assert log == ["a", "b", "c"]
    assert engine.now == 30


def test_ties_break_by_insertion_order(engine):
    log = []
    for i in range(5):
        engine.schedule(7, lambda i=i: log.append(i))
    engine.run()
    assert log == [0, 1, 2, 3, 4]


def test_schedule_during_drain_runs_after_queued_same_cycle_events(engine):
    # An event scheduled at the *current* cycle while that cycle's bucket
    # is draining must run in this cycle, after the events that were
    # already queued — insertion order, not re-sorted order.
    log = []
    engine.schedule(
        5, lambda: (log.append("a"), engine.schedule(0, lambda: log.append("d")))
    )
    engine.schedule(5, lambda: log.append("b"))
    engine.schedule(5, lambda: log.append("c"))
    engine.run()
    assert log == ["a", "b", "c", "d"]
    assert engine.now == 5


def test_stop_mid_bucket_preserves_remaining_same_cycle_events(engine):
    log = []
    engine.schedule(5, lambda: log.append("a"))
    engine.schedule(5, lambda: (log.append("b"), engine.stop()))
    engine.schedule(5, lambda: log.append("c"))
    engine.run()
    assert log == ["a", "b"]
    assert engine.stopped_early
    assert engine.pending_events == 1
    engine.run()
    assert log == ["a", "b", "c"]


def test_deadline_caught_after_first_slow_event(engine):
    engine.schedule(1, lambda: time.sleep(0.05))
    engine.schedule(2, lambda: None)
    with pytest.raises(DeadlineExceeded) as excinfo:
        engine.run(wall_deadline=time.monotonic() + 0.01)
    assert excinfo.value.pending_events == 1
    assert engine.pending_events == 1


def test_raising_callback_preserves_remaining_events(engine):
    log = []

    def boom():
        raise RuntimeError("injected")

    engine.schedule(5, boom)
    engine.schedule(5, lambda: log.append("same-cycle"))
    engine.schedule(9, lambda: log.append("later"))
    with pytest.raises(RuntimeError):
        engine.run()
    assert engine.pending_events == 2
    engine.run()
    assert log == ["same-cycle", "later"]


def test_run_until_and_empty_queue(engine):
    log = []
    engine.schedule(5, lambda: log.append("early"))
    engine.schedule(10, lambda: log.append("boundary"))
    engine.run(until=10)
    assert log == ["early"]
    assert engine.now == 10
    engine.run(until=1000)
    assert log == ["early", "boundary"]
    assert engine.now == 1000
