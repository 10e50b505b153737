"""What the benchmark measures: workloads, metrics and the layer map.

The single source for ``BENCHMARK.json`` (the fixed-schema file at the
repository root) and for ``perfbench/spec.json``, which holds only what
that schema has no key for: each workload's input and shape, the
deterministic counts, the layer -> end-to-end -> workload map and the
predicted non-effects.  The measured spread lives in
``perfbench/spread.json`` (written by ``spread.py``), which
``spec.json`` names.  Regenerate both after editing this module::

    python3 perfbench/run.py --write-spec

``test_perfbench.py`` fails when either committed file is stale.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    {"name": "sweep-serial",
     "why": "threshold-sweep golden, 24 configs, serial backend, 1 worker: "
            "the ROADMAP reference path, where simulation does almost "
            "all the work (scheduler, chip power, kernel, thermal)",
     "input": "baselines/threshold-sweep.json, config order permuted "
              "by the seed"},
    {"name": "mix-lockstep",
     "why": "workload-mix golden, 10 six-core configs, vectorized backend, "
            "2 workers: one lockstep group of K=10 batched advances; "
            "multi-app, phased and arrival load",
     "input": "baselines/workload-mix.json, config order permuted by "
              "the seed"},
    {"name": "fleet-io",
     "why": "5000 synthetic tasks through CampaignQueue and ResultStore: "
            "enqueue, resubmit, a run_worker drain (lease, buffered "
            "put_many, complete_many), merge_from, status, get",
     "input": "synthetic configs and reports generated from the seed"},
]

END_TO_END = [
    {"name": "configs_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

#: Per-layer metrics, reported by the traced run (``--trace 1``).
#: Every ``*_s`` layer time is self time: span time minus child spans.
PER_LAYER = [
    ("error_rate", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("mpos.slices", "count", "lower"),
    ("mpos.slices_coalesced", "count", "higher"),
    ("mpos.scheduler.self_s", "s", "lower"),
    ("mpos.queues.calls", "count", "lower"),
    ("mpos.queues.self_s", "s", "lower"),
    ("mpos.migrations", "count", "lower"),
    ("mpos.migration.self_s", "s", "lower"),
    ("mpos.daemons.self_s", "s", "lower"),
    ("platform.chip.calls", "count", "lower"),
    ("platform.chip.self_s", "s", "lower"),
    ("platform.power.calls", "count", "lower"),
    ("platform.power.self_s", "s", "lower"),
    ("thermal.build_s", "s", "lower"),
    ("thermal.cache.hit_ratio", "ratio", "higher"),
    ("thermal.cache.lookups", "count", "lower"),
    ("thermal.solver.calls", "count", "lower"),
    ("thermal.solver.columns", "count", "lower"),
    ("thermal.solver.self_s", "s", "lower"),
    ("thermal.sensors.ticks", "count", "lower"),
    ("thermal.sensors.self_s", "s", "lower"),
    ("policies.steps", "count", "lower"),
    ("policies.self_s", "s", "lower"),
    ("streaming.self_s", "s", "lower"),
    ("experiments.build_s", "s", "lower"),
    ("metrics.finalize_s", "s", "lower"),
    ("campaign.engine.self_s", "s", "lower"),
    ("campaign.lockstep.self_s", "s", "lower"),
    ("campaign.cpu_util", "ratio", "higher"),
    ("campaign.store.put_rows", "count", "lower"),
    ("campaign.store.put_s", "s", "lower"),
    ("campaign.store.get_s", "s", "lower"),
    ("campaign.store.merge_s", "s", "lower"),
    ("campaign.queue.enqueue_s", "s", "lower"),
    ("campaign.queue.resubmit_s", "s", "lower"),
    ("campaign.queue.lease_s", "s", "lower"),
    ("campaign.queue.lease_batch", "count", "higher"),
    ("campaign.queue.complete_s", "s", "lower"),
    ("campaign.queue.status_s", "s", "lower"),
    ("campaign.queue.failed", "count", "lower"),
    ("trace.configs_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Counts that repeat exactly across runs and seeds (claimable as-is).
DETERMINISTIC_COUNTS = [
    "sim.events", "mpos.slices", "mpos.slices_coalesced",
    "mpos.migrations", "platform.power.calls", "thermal.solver.calls",
    "thermal.sensors.ticks", "policies.steps",
]

#: Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = [
    {"layer": "sim",
     "wraps": "Simulator.run_until, Simulator.step; every event callback "
              "at Simulator.schedule_at",
     "metrics": ["sim.events", "sim.self_s"],
     "moves": ["configs_per_s"], "on": ["sweep-serial", "mix-lockstep"]},
    {"layer": "mpos",
     "wraps": "CoreScheduler slice callbacks, MsgQueue.push/pop, "
              "MigrationEngine.request_plan, daemon ticks",
     "metrics": ["mpos.slices", "mpos.slices_coalesced",
                 "mpos.scheduler.self_s", "mpos.queues.calls",
                 "mpos.queues.self_s", "mpos.migrations",
                 "mpos.migration.self_s", "mpos.daemons.self_s"],
     "moves": ["configs_per_s"], "on": ["sweep-serial", "mix-lockstep"]},
    {"layer": "platform",
     "wraps": "Chip.set_tile_*, update_temperatures, "
              "drain_average_power, PowerModel.power",
     "metrics": ["platform.chip.calls", "platform.chip.self_s",
                 "platform.power.calls", "platform.power.self_s"],
     "moves": ["configs_per_s"], "on": ["sweep-serial"]},
    {"layer": "thermal",
     "wraps": "build_network, make_solver, artifact-cache builds, solver "
              "advance/advance_batch, sensor ticks",
     "metrics": ["thermal.build_s", "thermal.cache.hit_ratio",
                 "thermal.cache.lookups", "thermal.solver.calls",
                 "thermal.solver.columns", "thermal.solver.self_s",
                 "thermal.sensors.ticks", "thermal.sensors.self_s"],
     "moves": ["configs_per_s"], "on": ["mix-lockstep", "sweep-serial"]},
    {"layer": "policies",
     "wraps": "ThermalPolicy.on_temperature_update, policy timers",
     "metrics": ["policies.steps", "policies.self_s"],
     "moves": ["configs_per_s"], "on": ["sweep-serial"]},
    {"layer": "streaming",
     "wraps": "source/sink ticks and load-model callbacks",
     "metrics": ["streaming.self_s"],
     "moves": ["configs_per_s"], "on": ["mix-lockstep"]},
    {"layer": "experiments/metrics",
     "wraps": "build_system, finalize_run",
     "metrics": ["experiments.build_s", "metrics.finalize_s"],
     "moves": ["configs_per_s"], "on": ["sweep-serial"]},
    {"layer": "campaign engine and backends",
     "wraps": "CampaignRunner.run, backend execute, run_lockstep_group, "
              "run_worker; getrusage over the timed run",
     "metrics": ["campaign.engine.self_s", "campaign.lockstep.self_s",
                 "campaign.cpu_util"],
     "moves": ["configs_per_s", "peak_rss_mb"], "on": ["mix-lockstep"]},
    {"layer": "campaign store and queue",
     "wraps": "ResultStore.put_many/get/merge_from, "
              "CampaignQueue.enqueue/lease/complete_many/status",
     "metrics": ["campaign.store.put_rows", "campaign.store.put_s",
                 "campaign.store.get_s", "campaign.store.merge_s",
                 "campaign.queue.enqueue_s", "campaign.queue.resubmit_s",
                 "campaign.queue.lease_s", "campaign.queue.lease_batch",
                 "campaign.queue.complete_s", "campaign.queue.status_s",
                 "campaign.queue.failed"],
     "moves": ["configs_per_s", "error_rate"], "on": ["fleet-io"]},
]

NON_EFFECTS = [
    "Simulation-layer changes (sim, mpos, platform, thermal, policies, "
    "streaming) leave fleet-io unchanged: it runs no simulation.",
    "Store and queue changes leave sweep-serial unchanged: the store's "
    "share of its time is under 1%.",
    "Backend fan-out changes leave sweep-serial unchanged: it runs the "
    "serial backend with 1 worker.",
]

NOTES = [
    "peak_rss_mb is read after the first 3 timed passes: the process's "
    "memory grows over its first passes, so a reading at the end would "
    "depend on how many passes the host's speed fits in the run.",
    "configs_per_s is reported at the reference host speed: "
    "perfbench/hostspeed.py times a fixed unit of interpreter work every "
    "0.05 s of the timed passes, each pass's wall-clock rate is divided "
    "by the host speed factor sampled during it (reference unit time / "
    "median unit time), and the run reports the median, so the host's "
    "drift within and between runs cancels.  setup_s is scaled the same "
    "way, by the factor each set-up probe samples while it starts.  The "
    "wall-clock rates and factors are printed and kept in "
    ".perfbench/<workload>.json.",
    "error_rate (failed / attempted configs) is 0 on correct code, so it "
    "cannot carry a relative bound; every run reports it through "
    "'attempted' and 'failed', the traced run as a per-layer metric, "
    "and the command exits 1 when it is not 0.",
    "The traced run wraps calls from perfbench/tracing.py; spans inside "
    "pool workers are not recorded (today both simulation workloads "
    "run in the benchmark process).",
]


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json`` (its fixed schema)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def spec_json() -> dict:
    """``perfbench/spec.json``: everything ``BENCHMARK.json`` omits."""
    from workloads import WORKLOADS as CLASSES
    return {
        "workloads": [{"name": w["name"], "input": w["input"],
                       "shape": {"loop": "closed", "callers": 1,
                                 "backend": CLASSES[w["name"]].backend,
                                 "workers": CLASSES[w["name"]].workers}}
                      for w in WORKLOADS],
        "deterministic_counts": DETERMINISTIC_COUNTS,
        "layer_map": LAYER_MAP,
        "predicted_non_effects": NON_EFFECTS,
        "notes": NOTES,
        "measured_spread": "perfbench/spread.json",
    }


def render(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def write_spec(root: Path) -> None:
    """Regenerate ``BENCHMARK.json`` and ``perfbench/spec.json``."""
    (root / "BENCHMARK.json").write_text(render(benchmark_json()))
    (root / "perfbench" / "spec.json").write_text(render(spec_json()))
