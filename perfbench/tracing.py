"""Span tracer for the benchmark's traced run.

The benchmark measures end-to-end throughput with tracing off, then
runs one more pass of the workload with :func:`install` in effect.
``install`` wraps the public entry points of each ``repro`` layer —
and every simulator event callback, at ``Simulator.schedule_at`` — in
spans.  The wrapping happens from here, around the calls; nothing in
``src/`` knows it is being traced, and :func:`install` returns the
undo so the process is back to the untraced program afterwards.

A span records its name, start, end and parent.  Spans stay in memory
(compact arrays) and are written out once, as Chrome trace-event JSON,
when the run ends.  A layer's self time is the time its spans cover
minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Layer rows of the self-time table: a span belongs to the longest
#: prefix that matches its name.
LAYERS = (
    "sim",
    "mpos.scheduler", "mpos.queues", "mpos.migration", "mpos.daemons",
    "mpos",
    "platform.chip", "platform.power", "platform.bus", "platform",
    "thermal.build", "thermal.solver", "thermal.sensors",
    "policies", "streaming",
    "experiments", "metrics",
    "campaign.engine", "campaign.lockstep", "campaign.store",
    "campaign.queue",
    "bench",
)

#: Event-callback span name by the module that owns the callback.
#: Callbacks of modules not listed here are traced as ``sim.callback``.
_EVENT_SPANS = (
    ("repro.mpos.scheduler", "mpos.scheduler.slice"),
    ("repro.mpos.migration", "mpos.migration.event"),
    ("repro.mpos.daemons", "mpos.daemons.tick"),
    ("repro.mpos", "mpos.event"),
    ("repro.thermal", "thermal.sensors.tick"),
    ("repro.streaming", "streaming.tick"),
    ("repro.policies", "policies.timer"),
    ("repro.platform.bus", "platform.bus.event"),
)


def layer_of(name: str) -> str:
    """The :data:`LAYERS` row a span name is accounted under."""
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    return best or name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder with per-name self time and counts."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[list] = []
        self._self_s: List[float] = []
        self._calls: List[int] = []
        #: Work counts recorded at span boundaries (e.g. batch columns).
        self.counts: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_s.append(0.0)
            self._calls.append(0)
        return nid

    def enter(self, nid: int) -> list:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, child_s = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        self.span_end[index] = end
        duration = end - self.span_start[index]
        nid = self.span_name[index]
        self._self_s[nid] += duration - child_s
        self._calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace the ``repro`` layers (see :func:`install`) inside the
        ``with`` block; the untraced program is back afterwards."""
        undo = install(self)
        try:
            yield self
        finally:
            undo()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.span_name)

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self._self_s[nid] if nid is not None else 0.0

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return self._calls[nid] if nid is not None else 0

    def span_self_s(self, name: str) -> List[float]:
        """Self time of each span named ``name``, in call order."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        indices = [i for i, n in enumerate(self.span_name) if n == nid]
        child_s = dict.fromkeys(indices, 0.0)
        for parent, start, end in zip(self.span_parent, self.span_start,
                                      self.span_end):
            if parent in child_s:
                child_s[parent] += end - start
        return [self.span_end[i] - self.span_start[i] - child_s[i]
                for i in indices]

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per :data:`LAYERS` row."""
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in zip(self.names, self._self_s):
            out[layer_of(name)] += seconds
        return dict(out)

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, calls in zip(self.names, self._calls):
            out[layer_of(name)] += calls
        return dict(out)

    def write_chrome(self, path: Path) -> None:
        """Write every span as Chrome trace-event JSON (``"X"`` events).

        Events appear in span order, timestamps in microseconds since
        the first span; each carries its parent's position in the event
        list as ``args.parent`` (-1 for a root span).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if self.n_spans else 0.0
        names = [json.dumps(n) for n in self.names]
        with open(path, "w") as out:
            out.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            first = True
            for nid, parent, start, end in zip(
                    self.span_name, self.span_parent,
                    self.span_start, self.span_end):
                out.write(
                    f'{"" if first else ","}{{"name":{names[nid]},'
                    f'"ph":"X","pid":1,"tid":1,'
                    f'"ts":{(start - t0) * 1e6:.3f},'
                    f'"dur":{(end - start) * 1e6:.3f},'
                    f'"args":{{"parent":{parent}}}}}\n')
                first = False
            out.write("]}\n")


class _Span:
    __slots__ = ("_tracer", "_nid", "_frame")

    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.enter(self._nid)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.exit(self._frame)


# ----------------------------------------------------------------------
# instrumentation of the repro layers
# ----------------------------------------------------------------------
def _event_span_name(callback: Callable) -> str:
    """Span name for a kernel event callback, by its owning module.

    Periodic processes and timers schedule their own ``_fire``; the
    layer doing the work is the one owning their inner callback.
    """
    from repro.sim.process import PeriodicProcess, Timer
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, (PeriodicProcess, Timer)):
        callback = owner.callback
    module = getattr(getattr(callback, "__func__", callback),
                     "__module__", "") or ""
    for prefix, name in _EVENT_SPANS:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return "sim.callback"


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced ``repro`` entry point; returns the undo.

    Call sites that imported a function by name hold their own
    reference, so those functions are patched where they are looked
    up (``builder.build_network``, ``sensors.make_solver``).
    """
    from repro.campaign import backends, builder, engine, fabric, lockstep
    from repro.campaign import store as store_mod
    from repro.experiments import runner
    from repro.mpos.migration import MigrationEngine
    from repro.mpos.queues import MsgQueue
    from repro.platform.chip import Chip
    from repro.platform.power import PowerModel
    from repro.policies.base import ThermalPolicy
    from repro.sim.kernel import Simulator
    from repro.thermal import sensors
    from repro.thermal.cache import ArtifactCache
    from repro.thermal.solvers import ThermalSolver

    patched: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patched.append((owner, attr, owner.__dict__[attr]
                        if isinstance(owner, type) else
                        getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(owner, attr: str, name: str) -> None:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    # sim: the run loop, external stepping, and every event callback.
    wrap(Simulator, "run_until", "sim.run_until")
    wrap(Simulator, "step", "sim.step")
    schedule_at = Simulator.schedule_at
    event_names: Dict[object, int] = {}

    def traced_schedule_at(sim, at, callback, *args):
        key = getattr(callback, "__func__", callback)
        owner = getattr(callback, "__self__", None)
        inner = getattr(owner, "callback", None)
        if inner is not None:
            key = (key, getattr(inner, "__func__", inner))
        nid = event_names.get(key)
        if nid is None:
            nid = event_names[key] = tracer.name_id(
                _event_span_name(callback))
        enter, exit_ = tracer.enter, tracer.exit

        def event(*event_args):
            frame = enter(nid)
            try:
                return callback(*event_args)
            finally:
                exit_(frame)

        return schedule_at(sim, at, event, *args)

    patch(Simulator, "schedule_at", traced_schedule_at)

    # mpos
    wrap(MsgQueue, "push", "mpos.queues.push")
    wrap(MsgQueue, "pop", "mpos.queues.pop")
    wrap(MigrationEngine, "request_plan", "mpos.migration.request_plan")

    # platform
    for attr in ("set_tile_opp", "set_tile_active", "set_tile_gated",
                 "update_temperatures", "drain_average_power"):
        wrap(Chip, attr, f"platform.chip.{attr}")
    wrap(PowerModel, "power", "platform.power.power")

    # thermal: network/solver construction, artifact builds, advances.
    wrap(builder, "build_network", "thermal.build.network")
    wrap(sensors, "make_solver", "thermal.build.solver")
    get_or_build = ArtifactCache.get_or_build

    def traced_get_or_build(cache, key, build):
        return get_or_build(cache, key,
                            tracer.wrap("thermal.build.artifact", build))

    patch(ArtifactCache, "get_or_build", traced_get_or_build)
    solver_depth = [0]
    for cls in sorted(_solver_classes(ThermalSolver),
                      key=lambda c: c.__qualname__):
        for attr in ("advance", "advance_batch"):
            if attr in cls.__dict__:
                patch(cls, attr, _solver_wrapper(
                    tracer, f"thermal.solver.{attr}", cls.__dict__[attr],
                    solver_depth))

    # policies
    wrap(ThermalPolicy, "on_temperature_update",
         "policies.on_temperature_update")

    # experiments / metrics
    wrap(runner, "build_system", "experiments.build_system")
    wrap(runner, "finalize_run", "metrics.finalize_run")

    # campaign engine, backends, lockstep group runner, fabric worker
    wrap(engine.CampaignRunner, "run", "campaign.engine.run")
    for backend_cls in _backend_classes(backends):
        wrap(backend_cls, "execute", "campaign.engine.execute")
    wrap(lockstep, "run_lockstep_group",
         "campaign.lockstep.run_lockstep_group")
    wrap(fabric, "run_worker", "campaign.engine.run_worker")

    # campaign store and queue
    put_many = store_mod.ResultStore.put_many
    put_nid = tracer.name_id("campaign.store.put_many")

    def traced_put_many(store, rows, campaign="adhoc"):
        frame = tracer.enter(put_nid)
        try:
            written = put_many(store, rows, campaign=campaign)
        finally:
            tracer.exit(frame)
        tracer.counts["campaign.store.put_rows"] += written
        return written

    patch(store_mod.ResultStore, "put_many", traced_put_many)
    wrap(store_mod.ResultStore, "get", "campaign.store.get")
    wrap(store_mod.ResultStore, "merge_from", "campaign.store.merge_from")
    wrap(fabric.CampaignQueue, "enqueue", "campaign.queue.enqueue")
    lease = fabric.CampaignQueue.lease
    lease_nid = tracer.name_id("campaign.queue.lease")

    def traced_lease(queue, *args, **kwargs):
        frame = tracer.enter(lease_nid)
        try:
            tasks = lease(queue, *args, **kwargs)
        finally:
            tracer.exit(frame)
        tracer.counts["campaign.queue.leased"] += len(tasks)
        tracer.counts["campaign.queue.batches"] += bool(tasks)
        return tasks

    patch(fabric.CampaignQueue, "lease", traced_lease)
    wrap(fabric.CampaignQueue, "complete_many",
         "campaign.queue.complete_many")
    wrap(fabric.CampaignQueue, "status", "campaign.queue.status")

    def undo() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        patched.clear()

    return undo


def _solver_wrapper(tracer: Tracer, name: str, fn: Callable,
                    depth: List[int]) -> Callable:
    """Solver advance wrapper counting calls and advanced columns.

    Only outermost advances count: a default ``advance_batch`` that
    loops over ``advance`` is one call of ``K`` columns, not ``K + 1``.
    """
    nid = tracer.name_id(name)
    counts = tracer.counts

    def traced(solver, temps, *args, **kwargs):
        if depth[0] == 0:
            counts["thermal.solver.calls"] += 1
            counts["thermal.solver.columns"] += (
                temps.shape[1] if getattr(temps, "ndim", 1) == 2 else 1)
        depth[0] += 1
        frame = tracer.enter(nid)
        try:
            return fn(solver, temps, *args, **kwargs)
        finally:
            tracer.exit(frame)
            depth[0] -= 1

    traced.__wrapped__ = fn
    return traced


def _solver_classes(base: type) -> set:
    """Every thermal solver class: ``base`` and its subclasses, plus
    the integrators that implement the interface without subclassing
    it (the paper's dense exact integrator among them)."""
    from repro.thermal.integrator import EulerIntegrator, ExactIntegrator
    classes = {ExactIntegrator, EulerIntegrator}
    pending = [base]
    while pending:
        cls = pending.pop()
        classes.add(cls)
        pending.extend(cls.__subclasses__())
    return classes


def _backend_classes(backends) -> List[type]:
    """Backend classes defining their own ``execute``."""
    seen = []
    for name in backends.backend_registry.names():
        cls = type(backends.backend_registry.resolve(name))
        if "execute" in cls.__dict__ and cls not in seen:
            seen.append(cls)
    return seen


# ----------------------------------------------------------------------
# the per-layer table
# ----------------------------------------------------------------------
def layer_table(tracer: Tracer, wall_s: float) -> Tuple[str, float]:
    """Text table of self time per layer; returns it and the coverage.

    Coverage is the share of ``wall_s`` that some span accounts for;
    the remainder is printed as ``(unattributed)``.
    """
    per_layer = tracer.layer_self_s()
    calls = tracer.layer_calls()
    covered = sum(per_layer.values())
    lines = [f"{'layer':<20}{'self s':>10}{'share':>8}{'calls':>10}"]
    for layer, seconds in sorted(per_layer.items(),
                                 key=lambda item: -item[1]):
        if not calls[layer]:
            continue
        lines.append(f"{layer:<20}{seconds:>10.4f}"
                     f"{100 * seconds / wall_s:>7.1f}%{calls[layer]:>10d}")
    unattributed = max(0.0, wall_s - covered)
    lines.append(f"{'(unattributed)':<20}{unattributed:>10.4f}"
                 f"{100 * unattributed / wall_s:>7.1f}%")
    lines.append(f"{'traced wall':<20}{wall_s:>10.4f}")
    return "\n".join(lines), covered / wall_s
