"""The repository's benchmark: one workload, timed, checked, reported.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-serial --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec

A run is a closed loop with one caller: passes of the workload run
back to back, the next starting when the previous has finished and
been checked, for ``--seconds`` of wall time.  Every pass's outputs
are checked (golden tolerances, or the fleet store's canonical image).

* ``--trace 0`` reports the end-to-end metrics: ``configs_per_s``,
  the median over the passes of each pass's rate at the reference host
  speed (its wall-clock rate divided by the speed factor
  ``hostspeed.py`` sampled during it), ``setup_s`` (median time, at
  the reference speed too, of fresh interpreters made ready to run,
  see ``setup_probe.py``) and ``peak_rss_mb`` of this process plus its
  children after the first :data:`MIN_PASSES` passes (memory grows
  over the first passes, so a later reading would depend on how many
  passes the host's speed fits in).  The wall-clock rates and the
  speed factors are printed too.
* ``--trace 1`` adds one traced pass after the timed ones and reports
  the per-layer metrics, prints the per-layer self-time table and
  writes the spans as Chrome trace-event JSON to
  ``.perfbench/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result with its provenance goes to ``.perfbench/<workload>.json``.
The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

#: Timed passes per run, at least, however long they take.
MIN_PASSES = 3
#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and "
                             "perfbench/spec.json, then exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def sources_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file() and \
        (ROOT / "baselines").is_dir()


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload, seed: int) -> Dict:
    import numpy
    import scipy
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload.name,
        "seed": seed,
        **workload.describe(),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def timed_passes(workload, seconds: float):
    """Back-to-back passes, each checked, for ``seconds`` of wall time
    (and at least :data:`MIN_PASSES` of them).  No pass starts that the
    median pass so far says would end after the deadline, so a run
    takes ``seconds``, not ``seconds`` plus most of a pass.

    Returns the passes, each with the host's speed factor sampled
    while it ran, their CPU utilisation (process plus children CPU
    seconds per wall second) and :func:`peak_rss_mb` after the first
    :data:`MIN_PASSES` of them.
    """
    passes: List[PassResult] = []
    rss_mb = None
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    deadline = wall0 + seconds
    with HostSpeed() as speed:
        workload.clock = speed.now
        try:
            while len(passes) < MIN_PASSES or time.perf_counter() + \
                    statistics.median(p.wall_s for p in passes) <= deadline:
                first = len(speed.samples)
                speed.sample()
                result = workload.run_pass()
                speed.sample()
                result.host_speed = speed.factor(first)
                passes.append(result)
                if len(passes) == MIN_PASSES:
                    rss_mb = peak_rss_mb()
                if result.error:
                    break
        finally:
            workload.clock = time.perf_counter
    cpu_util = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
    return passes, cpu_util, rss_mb if rss_mb is not None else peak_rss_mb()


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_seconds(workload, scratch: Path) -> List[float]:
    """Launch-to-ready times of fresh interpreters (``setup_probe.py``),
    each at the reference host speed: its wall time, less the time the
    probe spent sampling, times the speed factor the probe sampled."""
    samples = []
    for index in range(SETUP_PROBES):
        directory = scratch / f"setup-{index}"
        shutil.rmtree(directory, ignore_errors=True)
        command = [sys.executable, str(HERE / "setup_probe.py"),
                   "--src", str(ROOT / "src"), "--dir", str(directory),
                   *workload.setup_args()]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=120)
        shutil.rmtree(directory, ignore_errors=True)
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        spent_s, speed = float(fields[1]), float(fields[2])
        samples.append((elapsed - spent_s) * speed)
    return samples


def traced_pass(workload, untraced_cps: float, trace_file: Path):
    """One pass under the tracer; returns (result, metrics, table)."""
    import tracing
    from repro.thermal.cache import cache_stats

    tracer = tracing.Tracer()
    result = workload.run_pass(tracer=tracer)
    cache = cache_stats()
    table, coverage = tracing.layer_table(tracer, result.wall_s)
    tracer.write_chrome(trace_file)

    layer = tracer.layer_self_s()
    layer_calls = tracer.layer_calls()
    counts = tracer.counts
    batches = counts["campaign.queue.batches"]
    # fleet-io enqueues twice: the batch, then its idempotent resubmit.
    enqueue_s = tracer.span_self_s("campaign.queue.enqueue") + [0.0, 0.0]
    traced_cps = result.configs_per_s
    metrics = {
        "sim.self_s": layer.get("sim", 0.0),
        "mpos.scheduler.self_s": layer.get("mpos.scheduler", 0.0),
        "mpos.queues.calls": layer_calls.get("mpos.queues", 0),
        "mpos.queues.self_s": layer.get("mpos.queues", 0.0),
        "mpos.migration.self_s": layer.get("mpos.migration", 0.0),
        "mpos.daemons.self_s": layer.get("mpos.daemons", 0.0),
        "platform.chip.calls": layer_calls.get("platform.chip", 0),
        "platform.chip.self_s": layer.get("platform.chip", 0.0),
        "platform.power.calls": layer_calls.get("platform.power", 0),
        "platform.power.self_s": layer.get("platform.power", 0.0),
        "thermal.build_s": layer.get("thermal.build", 0.0),
        "thermal.cache.hit_ratio": cache.hit_rate,
        "thermal.cache.lookups": cache.hits + cache.misses,
        "thermal.solver.calls": counts["thermal.solver.calls"],
        "thermal.solver.columns": counts["thermal.solver.columns"],
        "thermal.solver.self_s": layer.get("thermal.solver", 0.0),
        "thermal.sensors.ticks": tracer.calls("thermal.sensors.tick"),
        "thermal.sensors.self_s": layer.get("thermal.sensors", 0.0),
        "policies.steps": tracer.calls("policies.on_temperature_update"),
        "policies.self_s": layer.get("policies", 0.0),
        "streaming.self_s": layer.get("streaming", 0.0),
        "experiments.build_s": layer.get("experiments", 0.0),
        "metrics.finalize_s": layer.get("metrics", 0.0),
        "campaign.engine.self_s": layer.get("campaign.engine", 0.0),
        "campaign.lockstep.self_s": layer.get("campaign.lockstep", 0.0),
        "campaign.store.put_rows": counts["campaign.store.put_rows"],
        "campaign.store.put_s": tracer.self_s("campaign.store.put_many"),
        "campaign.store.get_s": tracer.self_s("campaign.store.get"),
        "campaign.store.merge_s": tracer.self_s("campaign.store.merge_from"),
        "campaign.queue.enqueue_s": enqueue_s[0],
        "campaign.queue.resubmit_s": enqueue_s[1],
        "campaign.queue.lease_s": tracer.self_s("campaign.queue.lease"),
        "campaign.queue.lease_batch":
            counts["campaign.queue.leased"] / batches if batches else 0.0,
        "campaign.queue.complete_s":
            tracer.self_s("campaign.queue.complete_many"),
        "campaign.queue.status_s": tracer.self_s("campaign.queue.status"),
        "trace.configs_per_s": traced_cps,
        "trace.overhead": (untraced_cps - traced_cps) / untraced_cps,
        "trace.coverage": coverage,
        "trace.unattributed_s": max(0.0, result.wall_s
                                    - sum(layer.values())),
        "trace.spans": tracer.n_spans,
    }
    return result, metrics, table


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        spec.write_spec(ROOT)
        return 0
    if not sources_present():
        print(f"error: no repro sources under {ROOT} (need src/repro "
              f"and baselines/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    scratch = OUT_DIR / "scratch" / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    # Keep every temporary file (ours, sqlite's, multiprocessing's)
    # inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    import tempfile
    tempfile.tempdir = str(scratch)

    workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)

    passes, cpu_util, rss_mb = timed_passes(workload, args.seconds)
    rates = [p.configs_per_s for p in passes]
    wall_configs_per_s = statistics.median(rates)
    configs_per_s = statistics.median(p.configs_per_s / p.host_speed
                                      for p in passes)

    all_passes = list(passes)
    table = None
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}.json"
        result, metrics, table = traced_pass(
            workload, wall_configs_per_s, trace_file)
        all_passes.append(result)
        metrics.update(result.counts)
        metrics["campaign.cpu_util"] = cpu_util
        declared = [(name, unit) for name, unit, _ in spec.PER_LAYER]
    else:
        setup = setup_seconds(workload, scratch)
        metrics = {"configs_per_s": configs_per_s,
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": rss_mb}
        declared = [(m["name"], m["unit"]) for m in spec.END_TO_END]

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    error_rate = failed / attempted
    metrics["error_rate"] = error_rate
    # Layers a workload does not exercise report 0.
    reported = {name: {"value": metrics.get(name, 0), "unit": unit}
                for name, unit in declared}
    correct = failed == 0 and not any(p.error for p in all_passes)

    detail = {
        "provenance": provenance(workload, args.seed),
        "trace": args.trace,
        "wall_configs_per_s": wall_configs_per_s,
        "passes": [{"wall_s": p.wall_s, "configs_per_s": p.configs_per_s,
                    "host_speed": p.host_speed,
                    "attempted": p.attempted, "failed": p.failed}
                   for p in all_passes],
        "error_rate": error_rate,
        "metrics": reported,
    }
    if not args.trace:
        detail["setup_samples_s"] = setup
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)

    print(f"provenance: {json.dumps(detail['provenance'])}")
    if table is not None:
        print(table)
    print(f"{len(passes)} timed passes: wall-clock configs_per_s "
          + " ".join(f"{rate:.3f}" for rate in rates))
    print("  host speed x reference "
          + " ".join(f"{p.host_speed:.3f}" for p in passes))
    print(f"configs_per_s median {wall_configs_per_s:.4f} wall-clock, "
          f"{configs_per_s:.4f} at reference speed")
    print(f"error_rate {error_rate:.6f} ({failed}/{attempted} configs "
          f"failed a check)")
    for name, entry in sorted(reported.items()):
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
