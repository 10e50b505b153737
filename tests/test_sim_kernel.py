"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.kernel import Event, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_fifo_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_callback_args_are_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(4.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_cancel_none_is_noop(self):
        Simulator().cancel(None)

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.pending_events == 1


class TestRunUntil:
    def test_run_until_executes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(1.0)
        assert fired == [1]
        assert sim.now == 1.0

    def test_run_until_sets_clock_even_when_queue_empty(self):
        sim = Simulator()
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(3.0)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_later_events_survive_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(1.0)
        assert fired == []
        sim.run_until(5.0)
        assert fired == [1]

    def test_stop_interrupts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        # A subsequent run resumes normally.
        sim.run()
        assert fired == [1, 2]

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]


class TestIntrospection:
    def test_events_executed_counts(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time() == 3.0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_event_ordering_dunder(self):
        a = Event(1.0, 0, lambda: None, ())
        b = Event(1.0, 1, lambda: None, ())
        c = Event(0.5, 2, lambda: None, ())
        assert a < b
        assert c < a


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, maxsize=50)
           if hasattr(st, "maxsize") else
           st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_execution_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=40))
    def test_cancelled_subset_never_fires(self, items):
        sim = Simulator()
        fired = []
        events = []
        for delay, cancel in items:
            ev = sim.schedule(delay, lambda d=delay: fired.append(d))
            events.append((ev, cancel))
        for ev, cancel in events:
            if cancel:
                ev.cancel()
        sim.run()
        expected = sorted(d for (d, c) in items if not c)
        assert sorted(fired) == expected

class TestPendingEventsCounter:
    """The live-event counter behind O(1) ``pending_events``."""

    def test_counts_schedule_cancel_pop(self):
        sim = Simulator()
        a = sim.schedule(1.0, lambda: None)
        b = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.pending_events == 3
        a.cancel()
        assert sim.pending_events == 2
        sim.step()                      # executes b
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert b.cancelled is False

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_execution_is_noop_for_counter(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.step()
        assert sim.pending_events == 1
        ev.cancel()                     # already executed
        assert sim.pending_events == 1

    def test_counter_tracks_scheduling_from_callbacks(self):
        sim = Simulator()

        def chain(depth):
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(1.0, chain, 5)
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_executed == 6

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=50,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=40),
           st.floats(min_value=0, max_value=60, allow_nan=False))
    def test_counter_matches_heap_scan(self, items, horizon):
        sim = Simulator()
        events = []
        for delay, cancel in items:
            events.append((sim.schedule(delay, lambda: None), cancel))
        for ev, cancel in events:
            if cancel:
                ev.cancel()
        sim.run_until(horizon)
        scan = sum(1 for *_, e in sim._queue if not e.cancelled)
        assert sim.pending_events == scan


class TestStopFromCallbackDuringRunUntil:
    """``stop()`` requested by a callback mid-``run_until``: the run
    returns immediately, later events survive, and the clock still
    lands exactly on the requested horizon (periodic observers outside
    the kernel rely on a full interval having elapsed)."""

    def test_stop_abandons_remaining_events_but_sets_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_stopped_flag_resets_for_the_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(3.0)
        # The event at t=2 was abandoned by the stop but stays queued;
        # it is in the past of the stopped clock, so only a plain run
        # (no horizon) may deliver it.
        sim.run()
        assert fired == [2]
        assert sim.pending_events == 0

    def test_stop_at_boundary_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: (fired.append("edge"), sim.stop()))
        sim.run_until(2.0)
        assert fired == ["edge"]
        assert sim.now == 2.0

    def test_stop_from_nested_scheduling_chain(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, second)     # same-instant follow-up

        def second():
            fired.append("second")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(1.5, lambda: fired.append("late"))
        sim.run_until(4.0)
        assert fired == ["first", "second"]
        assert sim.now == 4.0


class TestCancelAfterPop:
    """Cancelling an already-fired event must be inert: the pop cleared
    the back-reference, so a late ``cancel()`` may not corrupt the
    live-event counter or affect later scheduling."""

    def test_cancel_fired_event_marks_but_does_not_uncount(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        ev.cancel()
        assert ev.cancelled is True
        assert sim.pending_events == 0      # not -1

    def test_cancel_fired_event_then_schedule_more(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        sim.run()
        ev.cancel()
        sim.schedule(1.0, lambda: fired.append(2))
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 2]
        assert sim.pending_events == 0

    def test_event_cancelling_itself_from_its_callback(self):
        sim = Simulator()
        holder = {}
        holder["ev"] = sim.schedule(1.0, lambda: holder["ev"].cancel())
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_executed == 2

    def test_cancel_fired_event_repeatedly(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.step()
        ev.cancel()
        ev.cancel()
        assert sim.pending_events == 0


class TestPeekTimeExcluding:
    """The horizon query behind slice coalescing."""

    def test_empty_queue_returns_none(self):
        assert Simulator().peek_time_excluding() is None

    def test_without_exclusion_matches_peek_time(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek_time_excluding() == 1.0

    def test_excluding_non_head_event_returns_head(self):
        sim = Simulator()
        later = sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek_time_excluding(later) == 1.0

    def test_excluding_head_returns_next_live_time(self):
        sim = Simulator()
        head = sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time_excluding(head) == 3.0

    def test_excluding_only_event_returns_none(self):
        sim = Simulator()
        head = sim.schedule(1.0, lambda: None)
        assert sim.peek_time_excluding(head) is None

    def test_excluded_head_is_restored(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.peek_time_excluding(head)       # pops + pushes the head
        sim.run()
        assert fired == ["a", "b"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        head = sim.schedule(1.0, lambda: None)
        doomed = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        doomed.cancel()
        assert sim.peek_time_excluding(head) == 3.0

    def test_category_excludes_tagged_events(self):
        sim = Simulator()
        tagged = sim.schedule(1.0, lambda: None)
        tagged.category = "slice"
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time_excluding(category="slice") == 2.0

    def test_category_collection(self):
        sim = Simulator()
        for t, tag in ((1.0, "slice"), (2.0, "sensor"), (3.0, None)):
            ev = sim.schedule(t, lambda: None)
            ev.category = tag
        assert sim.peek_time_excluding(
            category=("slice", "sensor")) == 3.0

    def test_category_scan_skips_cancelled_and_event(self):
        sim = Simulator()
        doomed = sim.schedule(1.0, lambda: None)
        doomed.cancel()
        mine = sim.schedule(2.0, lambda: None)
        tagged = sim.schedule(3.0, lambda: None)
        tagged.category = "slice"
        sim.schedule(4.0, lambda: None)
        assert sim.peek_time_excluding(mine, category="slice") == 4.0

    def test_category_all_excluded_returns_none(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.category = "slice"
        assert sim.peek_time_excluding(category="slice") is None


class TestCurrentEvent:
    def test_none_outside_execution(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.current_event is None
        sim.run()
        assert sim.current_event is None

    def test_set_to_firing_event_inside_callback(self):
        sim = Simulator()
        seen = []
        ev = sim.schedule(1.0, lambda: seen.append(sim.current_event))
        ev.category = "sensor"
        sim.run()
        assert seen == [ev]
        assert seen[0].category == "sensor"

    def test_uniform_across_step_and_run_until(self):
        # External step() drivers (the lockstep backend) must observe
        # the same current_event a run_until() loop would.
        seen = []
        for drive in ("step", "run_until"):
            sim = Simulator()
            sim.schedule(1.0, lambda s=sim: seen.append(s.current_event))
            if drive == "step":
                sim.step()
            else:
                sim.run_until(1.0)
        assert all(ev is not None for ev in seen)

    def test_restored_after_raising_callback(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.current_event is None


class TestRunUntilHeapDiscipline:
    """``run_until`` touches the heap once per executed event: the head
    inspected is the head executed, instead of ``peek_time()`` +
    ``step()`` independently re-dropping cancelled heads."""

    class CountingSimulator(Simulator):
        def __init__(self):
            super().__init__()
            self.drop_calls = 0

        def _drop_cancelled(self):
            self.drop_calls += 1
            super()._drop_cancelled()

    def test_one_drop_pass_per_iteration(self):
        sim = self.CountingSimulator()
        n = 50
        for i in range(n):
            sim.schedule(0.001 * (i + 1), lambda: None)
        sim.run_until(1.0)
        assert sim.events_executed == n
        # n executing iterations + the final break check.
        assert sim.drop_calls == n + 1

    def test_cancelled_heads_execute_correct_count(self):
        sim = self.CountingSimulator()
        fired = []
        doomed = [sim.schedule(0.001 * (i + 1), lambda: fired.append("x"))
                  for i in range(10)]
        for ev in doomed[::2]:
            ev.cancel()
        sim.run_until(1.0)
        assert sim.events_executed == 5
        assert len(fired) == 5
        assert sim.now == 1.0

    def test_cancelled_head_not_double_dropped(self):
        sim = self.CountingSimulator()
        doomed = sim.schedule(1.0, lambda: None)
        keeper = []
        sim.schedule(2.0, lambda: keeper.append(1))
        doomed.cancel()
        sim.run_until(3.0)
        assert keeper == [1]
        assert sim.events_executed == 1
        # one executing iteration + the final break check, regardless
        # of the cancelled head in front.
        assert sim.drop_calls == 2


class TestTupleHeap:
    """The heap holds ``(time, seq, event)`` entries; the public API
    still deals in :class:`Event` objects and the tie order is the
    scheduling order."""

    def test_equal_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        for tag in range(6):
            sim.schedule_at(1.0, lambda t=tag: fired.append(t))
        sim.schedule(0.5, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", 0, 1, 2, 3, 4, 5, "late"]

    def test_equal_time_scheduled_from_callback_fires_after(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, lambda: fired.append("nested"))

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "nested"]

    def test_peek_event_returns_the_event(self):
        sim = Simulator()
        later = sim.schedule(2.0, lambda: None)
        head = sim.schedule(1.0, lambda: None)
        assert sim.peek_event() is head
        head.cancel()
        assert sim.peek_event() is later
        later.cancel()
        assert sim.peek_event() is None

    def test_cancelled_head_skipped_by_peek_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 2.0

    def test_cancelled_head_skipped_by_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("doomed")).cancel()
        sim.schedule(2.0, lambda: fired.append("live"))
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.now == 2.0
        assert sim.step() is False

    def test_cancelled_head_skipped_by_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("doomed")).cancel()
        sim.schedule(2.0, lambda: fired.append("live"))
        sim.schedule(4.0, lambda: fired.append("later"))
        sim.run_until(3.0)
        assert fired == ["live"]
        assert sim.now == 3.0
        assert sim.pending_events == 1

    def test_peek_time_excluding_head_looks_one_live_event_past(self):
        sim = Simulator()
        head = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time_excluding(event=head) == 3.0
        # The head is back in place and still fires first.
        assert sim.peek_event() is head

    def test_events_are_never_compared(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("heap compared two Events")

        monkeypatch.setattr(Event, "__lt__", refuse)
        sim = Simulator()
        fired = []
        for tag in range(8):
            sim.schedule_at(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == list(range(8))
