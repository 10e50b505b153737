"""Pluggable campaign execution backends.

An :class:`ExecutionBackend` turns a list of
:class:`~repro.experiments.config.ExperimentConfig` into the matching
list of :class:`~repro.metrics.report.RunReport` — nothing more.  The
caching, dedup and aggregation around it live in
:class:`~repro.campaign.engine.CampaignRunner`; picking a backend only
changes *how* the simulations are scheduled, never what they compute:
runs are deterministic, so every backend produces byte-identical
reports for the same configs (see the parity tests).

All local execution goes through one engine, :class:`LocalBackend`;
four built-in names, resolved through :data:`backend_registry`,
select its schedule:

* ``serial`` — everything in-process, whatever ``workers`` says; the
  process-wide solver-artifact cache stays warm across all runs.
* ``process-pool`` / ``batched`` (one schedule, two names) — one
  config per pool task, in group order, so a worker's contiguous
  share of the sweep mostly reuses one network's artifacts.
* ``vectorized`` — one lockstep group per unit: at every common
  sensor epoch the group's K thermal advances collapse into one
  :meth:`~repro.thermal.solvers.ThermalSolver.advance_batch` mat-mat
  (see :mod:`repro.campaign.lockstep`).  A single group stays
  in-process; several fan out with one process per group.

``distributed`` wraps the resumable campaign fabric
(:mod:`repro.campaign.fabric`) instead: configs are journaled to a
durable SQLite queue, leased in lockstep-group batches by supervised
worker processes, and merged back idempotently, so a killed campaign
resumes from the journal.

New backends plug in without touching the runner::

    from repro.campaign.backends import ExecutionBackend, register_backend

    @register_backend("my-cluster")
    class ClusterBackend(ExecutionBackend):
        name = "my-cluster"
        def execute(self, configs, workers):
            ...
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.metrics.report import RunReport
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import ExperimentConfig

#: Name -> :class:`ExecutionBackend` instance.
backend_registry = Registry("backend")


def register_backend(name: str):
    """Decorator registering a backend class (instantiated once)."""
    def decorate(cls):
        backend_registry.register(name, cls())
        return cls
    return decorate


def make_backend(name: str) -> "ExecutionBackend":
    """Resolve a backend by name (helpful error on a typo)."""
    return backend_registry.resolve(name)


def pool_context() -> multiprocessing.context.BaseContext:
    """The start method of every child process the campaign spawns.

    Prefers ``fork`` where available: children inherit the parent's
    scenario registries, so even configs referencing components
    registered at runtime (custom policies, ablation variants)
    validate in the child.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def import_scenarios() -> None:
    """Register the in-repo scenarios that live outside the registries'
    own packages, so their names validate in a child process.

    Under a spawn/forkserver start method a child re-imports from
    scratch; fork children inherit the registries and need nothing.
    """
    from repro.experiments import ablation, figure1  # noqa: F401


@dataclass
class ExecutionContext:
    """Optional campaign context the runner offers to backends.

    Most backends are pure functions of ``(configs, workers)`` and
    ignore this entirely; backends with durable state (the
    ``distributed`` fabric's queue journal) implement
    ``execute_in_context(configs, workers, context)`` instead of
    :meth:`ExecutionBackend.execute` and receive the campaign name and
    the runner's ``cache_dir`` — which is where ``queue.sqlite`` lives
    so an interrupted campaign resumes from the same journal.
    """

    cache_dir: Optional[Path] = None
    campaign: str = "adhoc"


class ExecutionBackend:
    """Strategy for executing a batch of simulations.

    Subclasses implement :meth:`execute`; results must align with the
    input order.  Backends hold no per-campaign state, so one instance
    serves every runner.  A backend may additionally implement
    ``execute_in_context(configs, workers, context)`` to receive an
    :class:`ExecutionContext`; the runner prefers it when present.
    """

    #: Registry name (also shown in campaign summaries).
    name: str = "abstract"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        """Reports for ``configs``, in order.  ``workers`` is a hint."""
        raise NotImplementedError


def network_group_key(config: "ExperimentConfig") -> Tuple:
    """Grouping key: configs with equal keys share solver artifacts.

    The network is built from the platform's floorplan/power
    parameters, the package and the core count; the thermal solver
    decides *which* per-network artifacts (dense propagator, sparse
    operator, modal basis) a run warms up.  Together those four fields
    decide whether two runs can share a worker's artifact cache.
    """
    return (config.platform, config.package, config.n_cores,
            config.solver)


def lockstep_group_key(config: "ExperimentConfig") -> Tuple:
    """Grouping key of the local engine and the fabric's leases.

    Extends :func:`network_group_key` with the fields that must match
    for simulators to hit sensor ticks at the same instants: the sensor
    period and the two phase durations.
    """
    return network_group_key(config) + (
        config.sensor_period_s, config.warmup_s, config.measure_s)


def _run_unit(configs: List["ExperimentConfig"],
              lockstep: bool) -> List[RunReport]:
    """Reports for one unit of work, in unit order."""
    if lockstep:
        from repro.campaign.lockstep import run_lockstep_group
        return run_lockstep_group(configs)
    from repro.experiments.runner import run_experiment
    return [run_experiment(config).report for config in configs]


def _run_unit_in_child(config_dicts: List[Dict],
                       lockstep: bool) -> List[Dict]:
    """Pool entry point: :func:`_run_unit` with plain dicts in and out."""
    import_scenarios()
    from repro.experiments.config import ExperimentConfig
    configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
    return [report.to_dict() for report in _run_unit(configs, lockstep)]


class LocalBackend(ExecutionBackend):
    """The one local execution engine.

    Configs are grouped by :func:`lockstep_group_key`, largest group
    first.  A unit of work is a whole group with ``lockstep``, else one
    config in group order.  With one worker or one unit the units run
    in-process; otherwise over a pool of ``min(workers, units)``
    processes.  ``max_workers`` caps the worker hint.
    """

    def __init__(self, name: str, lockstep: bool = False,
                 max_workers: Optional[int] = None):
        self.name = name
        self.lockstep = lockstep
        self.max_workers = max_workers

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        groups: Dict[Tuple, List[int]] = {}
        for i, config in enumerate(configs):
            groups.setdefault(lockstep_group_key(config), []).append(i)
        ordered = sorted(groups.values(), key=len, reverse=True)
        units = ordered if self.lockstep else \
            [[i] for group in ordered for i in group]
        if self.max_workers is not None:
            workers = min(workers, self.max_workers)
        if workers <= 1 or len(units) <= 1:
            results = [_run_unit([configs[i] for i in unit], self.lockstep)
                       for unit in units]
        else:
            with pool_context().Pool(min(workers, len(units))) as pool:
                dicts = pool.map(
                    partial(_run_unit_in_child, lockstep=self.lockstep),
                    [[configs[i].to_dict() for i in unit]
                     for unit in units])
            results = [[RunReport(**d) for d in unit_dicts]
                       for unit_dicts in dicts]
        reports: List[RunReport] = [None] * len(configs)  # type: ignore
        for unit, unit_reports in zip(units, results):
            for i, report in zip(unit, unit_reports):
                reports[i] = report
        return reports


backend_registry.register("serial", LocalBackend("serial", max_workers=1))
backend_registry.register("process-pool", LocalBackend("process-pool"))
backend_registry.register("batched", LocalBackend("batched"))
backend_registry.register("vectorized",
                          LocalBackend("vectorized", lockstep=True))


@register_backend("distributed")
class DistributedBackend(ExecutionBackend):
    """Coordinator + N worker processes over a durable queue.

    Configs are journaled to ``queue.sqlite`` (in
    ``<cache_dir>/queue``, overridable via ``REPRO_QUEUE_DIR``), local
    workers lease lockstep-group batches and stream rows into
    per-worker stores, and the coordinator merges them back
    idempotently.  Every hot path is set-at-a-time SQL — one
    ``executemany`` transaction per enqueue, one row flush per lease,
    one ``ATTACH``-based ``INSERT … SELECT`` per worker-store merge,
    WAL journals on both databases — so the fabric's own I/O keeps up
    at 10^4–10^5 tasks (``BENCH_fleet.json``).  Unlike the local
    engine this backend is *resumable*: kill the whole campaign at any
    point and re-running it completes only the journal's unfinished
    tasks, byte-identical to a serial pass (see
    :mod:`repro.campaign.fabric` and ``tests/test_fabric_faults.py``).
    Without a ``cache_dir`` or ``REPRO_QUEUE_DIR`` the queue lives in a
    temporary directory that is removed once the reports are
    collected: nothing could resume from it.
    """

    name = "distributed"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        return self.execute_in_context(configs, workers, None)

    def execute_in_context(self, configs: List["ExperimentConfig"],
                           workers: int,
                           context: Optional[ExecutionContext],
                           ) -> List[RunReport]:
        from repro.campaign.fabric import Coordinator, collect_reports
        if not configs:
            return []
        env_dir = os.environ.get("REPRO_QUEUE_DIR")
        scratch_dir = None
        if env_dir:
            queue_dir = Path(env_dir)
        elif context is not None and context.cache_dir is not None:
            queue_dir = Path(context.cache_dir) / "queue"
        else:
            queue_dir = scratch_dir = Path(
                tempfile.mkdtemp(prefix="repro-queue-"))
        campaign = context.campaign if context is not None else "adhoc"
        coordinator = Coordinator(queue_dir)
        try:
            coordinator.enqueue(configs, campaign=campaign)
            coordinator.run(workers=workers)
            return collect_reports(coordinator, configs)
        finally:
            coordinator.close()
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)
