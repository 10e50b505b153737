"""Differential tests for the coalesced slice engine.

The coalesced engine (``repro.mpos.scheduler``, ``REPRO_SLICE_COALESCE``)
must be *bit-for-bit* equivalent to the legacy per-quantum engine in
every observable: task cycle accounting, scheduler counters, run-queue
order and all run metrics.  These tests drive mirrored systems — one
per engine — through identical operation sequences (time advances,
frame pushes, gating, DVFS changes) and compare exhaustively after
every step; a hypothesis search generates the sequences.

Observation lands deferred accounting: an open window applies its
plan only at the window event, so the coalesced system's boundaries up
to ``now`` are landed in place (:meth:`CoreScheduler.materialize`,
which keeps the window open) before comparing — exactly the state the
legacy engine holds at that instant.  Each stack also carries a
periodic ``"daemon"``-class observer on the quantum grid: the horizon
looks through it, so it reads inside open windows and ties with
window ends, and its recordings are part of every comparison.
"""

import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpos.daemons import DAEMON_EVENT_CATEGORY
from repro.mpos.queues import MsgQueue
from repro.mpos.system import MPOS
from repro.mpos.task import StreamTask, TaskState
from repro.platform.presets import CONF1_STREAMING, build_chip
from repro.sim.kernel import Simulator

QUANTUM_S = 0.001

#: The observer ticks every four quanta, each next tick time built by
#: the same float additions as four full-quantum slice boundaries, so
#: a rotation started on a tick keeps hitting later ticks exactly.
OBSERVER_QUANTA = 4

#: Each stack's observer recordings, keyed by its simulator.
RECORDINGS = weakref.WeakKeyDictionary()


def build_stack(coalesce, a_cycles=3.7e6):
    """Two tiles: a contended rotation (a, b) on tile 0, a solo
    consumer (c) on tile 1 fed by a's output — cross-tile wake-ups —
    plus the periodic observer (see :data:`RECORDINGS`)."""
    sim = Simulator()
    chip = build_chip(lambda: sim.now, 2, CONF1_STREAMING, sim=sim)
    mpos = MPOS(sim, chip, quantum_s=QUANTUM_S)
    for s in mpos.schedulers:
        s.coalesce = coalesce

    queues = {name: MsgQueue(name, 6) for name in
              ("qa", "qb", "q1", "q2", "q3")}
    for q in queues.values():
        mpos.bind_queue(q)

    # Deliberately non-round cycle counts for a and c: completion
    # boundaries fall off the quantum grid, so virtual boundaries
    # exercise drift.  b is exactly eight quanta at the mapped 266.5
    # MHz, so a rotation started on the grid completes on an observer
    # tick — a window end tied with a pending transparent event.
    a = StreamTask("a", cycles_per_frame=a_cycles, frame_period_s=0.04)
    a.inputs, a.outputs = [queues["qa"]], [queues["q1"]]
    b = StreamTask("b", cycles_per_frame=8 * QUANTUM_S * 266.5e6,
                   frame_period_s=0.04)
    b.inputs, b.outputs = [queues["qb"]], [queues["q2"]]
    c = StreamTask("c", cycles_per_frame=5.3e6, frame_period_s=0.04)
    c.inputs, c.outputs = [queues["q1"]], [queues["q3"]]
    mpos.map_task(a, 0)
    mpos.map_task(b, 0)
    mpos.map_task(c, 1)

    recording = RECORDINGS[sim] = []

    def record():
        # Rescheduled before reading, a full period ahead, like the
        # statistics daemons' ``PeriodicProcess``.
        t = sim.now
        for _ in range(OBSERVER_QUANTA):
            t += QUANTUM_S
        sim.schedule_at(t, record).category = DAEMON_EVENT_CATEGORY
        # A statistics-daemon-class read of every task's live cycles.
        for s in mpos.schedulers:
            s.materialize()
        recording.append((sim.now.hex(),)
                         + tuple(t.total_cycles.hex() for t in (a, b, c)))

    sim.schedule_at(OBSERVER_QUANTA * QUANTUM_S, record).category = \
        DAEMON_EVENT_CATEGORY
    return sim, chip, mpos, queues, (a, b, c)


def observe(sim, chip, mpos, queues, tasks):
    """Full bitwise snapshot; lands open windows' boundaries first so
    deferred accounting is materialized (the legacy-equivalent state)."""
    for s in mpos.schedulers:
        s.materialize()
    snap = {"now": sim.now.hex(), "observer": tuple(RECORDINGS[sim])}
    for t in tasks:
        snap[t.name] = (t.state.name, t.phase.name, t.frames_done,
                        t.remaining_cycles.hex(), t.total_cycles.hex())
    for s in mpos.schedulers:
        snap[f"sched{s.tile_index}"] = (
            s.slices_run, s.context_switches, s.gated,
            s.current.name if s.current else None,
            tuple(t.name for t in s.run_q))
    for name, q in queues.items():
        snap[f"queue.{name}"] = q.level
    for tile in chip.tiles:
        snap[f"tile{tile.index}"] = (tile.active, tile.gated,
                                     tile.opp.frequency_hz.hex())
    return snap


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("run"),
                  st.floats(min_value=1e-4, max_value=0.03,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("push"), st.sampled_from(["qa", "qb"])),
        st.tuples(st.just("drain"), st.sampled_from(["q2", "q3"])),
        st.tuples(st.just("gate"), st.integers(0, 1)),
        st.tuples(st.just("ungate"), st.integers(0, 1)),
        st.tuples(st.just("opp"), st.integers(0, 1), st.integers(0, 3)),
    ),
    min_size=4, max_size=40)


def apply_op(op, sim, chip, mpos, queues, tasks):
    kind = op[0]
    if kind == "run":
        sim.run_until(sim.now + op[1])
    elif kind == "push":
        queues[op[1]].push("frame")
    elif kind == "drain":
        q = queues[op[1]]
        if not q.is_empty:
            q.pop()
    elif kind == "gate":
        mpos.gate_core(op[1])
    elif kind == "ungate":
        mpos.ungate_core(op[1])
    elif kind == "opp":
        core, level = op[1], op[2]
        tile = chip.tile(core)
        chip.set_tile_opp(core, tile.opp_table.points[level])
        mpos.scheduler(core).on_frequency_changed()


class TestDifferentialProperty:
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_engines_bitwise_equal_under_random_ops(self, ops):
        fast = build_stack(coalesce=True)
        slow = build_stack(coalesce=False)
        for op in ops:
            apply_op(op, *fast)
            apply_op(op, *slow)
            assert observe(*fast) == observe(*slow)

    @settings(max_examples=10, deadline=None)
    @given(ops=OPS)
    def test_coalesced_engine_schedules_fewer_events(self, ops):
        fast = build_stack(coalesce=True)
        slow = build_stack(coalesce=False)
        for op in ops:
            apply_op(op, *fast)
            apply_op(op, *slow)
        assert fast[0].events_executed <= slow[0].events_executed


class TestUnwindPaths:
    """Each interruption class unwinds an open window exactly."""

    def fed_pair(self, frames=3):
        fast = build_stack(coalesce=True)
        slow = build_stack(coalesce=False)
        for stack in (fast, slow):
            queues = stack[3]
            for _ in range(frames):
                queues["qa"].push("f")
                queues["qb"].push("f")
        return fast, slow

    def test_external_observation_mid_window(self):
        fast, slow = self.fed_pair()
        for stack in (fast, slow):
            stack[0].run_until(0.0035)   # mid-quantum, mid-window
        assert observe(*fast) == observe(*slow)

    def test_gate_mid_window(self):
        fast, slow = self.fed_pair()
        for stack in (fast, slow):
            sim, chip, mpos = stack[:3]
            sim.run_until(0.0052)
            mpos.gate_core(0)
            sim.run_until(0.009)
            mpos.ungate_core(0)
            sim.run_until(0.02)
        assert observe(*fast) == observe(*slow)

    def test_frequency_change_mid_window(self):
        fast, slow = self.fed_pair()
        for stack in (fast, slow):
            sim, chip, mpos = stack[:3]
            sim.run_until(0.0041)
            tile = chip.tile(0)
            chip.set_tile_opp(0, tile.opp_table.points[1])
            mpos.scheduler(0).on_frequency_changed()
            sim.run_until(0.02)
        assert observe(*fast) == observe(*slow)

    def test_arrival_mid_window_forms_rotation(self):
        # b's first frame arrives while a's solo window is open: the
        # unwound scheduler must pick up the round-robin exactly where
        # the legacy engine would.
        fast = build_stack(coalesce=True)
        slow = build_stack(coalesce=False)
        for stack in (fast, slow):
            sim, chip, mpos, queues, tasks = stack
            queues["qa"].push("f")
            sim.run_until(0.0027)
            queues["qb"].push("f")
            sim.run_until(0.05)
        assert observe(*fast) == observe(*slow)

    def test_rotation_window_coalesces_contended_slices(self):
        sim, chip, mpos, queues, tasks = build_stack(coalesce=True)
        queues["qa"].push("f")
        queues["qb"].push("f")
        sim.run_until(0.04)
        sched = mpos.scheduler(0)
        assert sched.slices_run > 10
        assert sched.slices_coalesced > 0
        # Far fewer kernel events than slices: windows replayed them.
        assert sim.events_executed < sched.slices_run


def spy_window_ends(sim, sched):
    """Record, for every window end of ``sched``, whether a pending
    event tied with it (the tie-end path)."""
    ties = []
    end_coalesced = sched._end_coalesced

    def spy():
        ties.append(sim.peek_time() == sim.now)
        end_coalesced()

    # ``_begin_coalesced`` schedules ``self._end_coalesced``, so the
    # instance attribute intercepts every window planned from here on.
    sched._end_coalesced = spy
    return ties


class TestPlannedWindows:
    """A window is planned once and applied once; reads land in place."""

    def test_materialize_mid_window_keeps_window_open(self):
        fast = build_stack(coalesce=True)
        slow = build_stack(coalesce=False)
        for stack in (fast, slow):
            for _ in range(3):
                stack[3]["qa"].push("f")
                stack[3]["qb"].push("f")
            stack[0].run_until(0.0035)   # mid-quantum, mid-window
        sched = fast[2].scheduler(0)
        window = sched._co_event
        assert window is not None and not window.cancelled
        slices_before = sched.slices_run
        sched.materialize()
        # Boundaries before ``now`` landed; the window is still the
        # same pending event.
        assert sched._co_event is window and not window.cancelled
        assert sched.slices_run > slices_before
        assert observe(*fast) == observe(*slow)
        for stack in (fast, slow):
            stack[0].run_until(window.time)
        assert window.cancelled is False and sched._co_event is not window
        assert observe(*fast) == observe(*slow)

    def test_window_ending_on_a_tied_tick_matches_legacy(self):
        # ``a`` runs solo for exactly eight full quanta from t=0: its
        # window ends on the observer's second tick, rescheduled inside
        # the window and hence still pending behind the window event.
        # (The mapping's DVFS pick for this load is 133.25 MHz.)
        f_hz = 133.25e6
        quantum_cycles = QUANTUM_S * f_hz
        fast = build_stack(coalesce=True, a_cycles=8 * quantum_cycles)
        slow = build_stack(coalesce=False, a_cycles=8 * quantum_cycles)
        sim, chip, mpos, queues, tasks = fast
        assert chip.tile(0).frequency_hz == f_hz
        ties = spy_window_ends(sim, mpos.scheduler(0))
        for stack in (fast, slow):
            stack[3]["qa"].push("f")
            stack[0].run_until(0.02)
        assert observe(*fast) == observe(*slow)
        assert ties and ties[0] is True
        assert tasks[0].frames_done == 1

    def test_rotation_window_ends_on_a_tied_tick(self):
        # The (a, b) rotation starts on the grid at one quantum; b
        # completes after its eighth slice, at 16 quanta — an observer
        # tick — while the observer reads inside the open windows.
        fast = build_stack(coalesce=True)
        slow = build_stack(coalesce=False)
        ties = spy_window_ends(fast[0], fast[2].scheduler(0))
        for stack in (fast, slow):
            for _ in range(4):
                stack[3]["qa"].push("f")
                stack[3]["qb"].push("f")
            stack[0].run_until(0.1)
        assert observe(*fast) == observe(*slow)
        assert ties[0] is True
        assert len(RECORDINGS[fast[0]]) > 20
        assert fast[0].events_executed < slow[0].events_executed


def run_report(mode, policy):
    """Run a short experiment in a subprocess with the engine forced
    via the environment knob (read at scheduler construction)."""
    code = f"""
import json, os, sys
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
r = run_experiment(ExperimentConfig(policy={policy!r}, warmup_s=0.5,
                                    measure_s=1.0)).report
print(json.dumps(r.to_dict()))
"""
    env = dict(os.environ, REPRO_SLICE_COALESCE=mode,
               PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         cwd=os.path.dirname(os.path.dirname(
                             os.path.abspath(__file__))))
    import json
    return json.loads(out.stdout)


@pytest.mark.parametrize("policy", ["energy", "stopgo", "migra"])
def test_full_run_reports_byte_identical(policy):
    on = run_report("1", policy)
    off = run_report("0", policy)
    # Only the event-path diagnostics may differ between engines.
    diagnostic = ("events_executed", "slices_coalesced")
    assert {k: v for k, v in on.items() if k not in diagnostic} \
        == {k: v for k, v in off.items() if k not in diagnostic}
    assert on["slices_run"] == off["slices_run"]
    assert on["events_executed"] < off["events_executed"]
