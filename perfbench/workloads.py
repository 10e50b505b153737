"""The benchmark's workloads: one closed-loop pass each, plus its checks.

Every workload is driven by a single caller that launches one pass
and waits for it; the next pass starts only when the previous one has
finished.  A pass returns the configs it attempted, how many of them
failed an output check, and the host seconds it took.

* ``sweep-serial`` / ``mix-lockstep`` run a committed golden campaign
  (``baselines/*.json``) through :class:`CampaignRunner` into a cold
  on-disk store and gate every row with :meth:`GoldenBaseline.compare`.
* ``fleet-io`` pushes synthetic configs and reports through the
  public :class:`CampaignQueue` / :class:`ResultStore` API — enqueue,
  resubmit, a :func:`run_worker` drain (lease, parse, buffered put,
  complete), merge, status, read-back — and checks the merged store
  against one filled directly by ``put_many``.

``repro`` is imported lazily so the module can be loaded (by the
runner's argument parsing, or by tests) before ``src`` is on the path.
"""

from __future__ import annotations

import random
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Tasks per ``fleet-io`` pass.
FLEET_TASKS = 5_000
FLEET_CAMPAIGN = "fleet-io"
FLEET_WORKER = "bench-worker"
#: Backend the ``fleet-io`` worker executes leased configs with: it
#: returns the pass's synthetic reports instead of simulating.
FLEET_BACKEND = "perfbench-replay"


@dataclass
class PassResult:
    """One closed-loop pass: what was attempted and how it went."""

    wall_s: float
    attempted: int
    failed: int
    #: Program-side counters of the pass (deterministic per workload).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Set when the pass raised; the run stops after such a pass.
    error: Optional[str] = None
    #: Host speed factor sampled while the pass ran (1.0: not sampled).
    host_speed: float = 1.0

    @property
    def configs_per_s(self) -> float:
        return self.attempted / self.wall_s


class Workload:
    """Base: a named pass generator with a per-pass scratch directory."""

    name = "abstract"
    backend = "serial"
    workers = 1

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self._passes = 0
        #: Clock a pass is timed with (``HostSpeed.now`` while the
        #: host's speed is sampled, so sampling is not timed).
        self.clock = time.perf_counter

    def _pass_dir(self) -> Path:
        self._passes += 1
        path = self.scratch / f"pass-{self._passes}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def setup_args(self) -> List[str]:
        """Arguments telling ``setup_probe.py`` what to open."""
        raise NotImplementedError

    def describe(self) -> Dict:
        """Provenance fields: how this workload runs the program."""
        return {"backend": self.backend, "workers": self.workers}


class GoldenWorkload(Workload):
    """A committed golden campaign run end to end into a cold store."""

    golden_file = ""

    def __init__(self, root: Path, seed: int, scratch: Path):
        super().__init__(root, seed, scratch)
        from repro.campaign import GoldenBaseline
        self.golden = GoldenBaseline.load(root / self.golden_file)
        self.configs = self.golden.configs()
        random.Random(seed).shuffle(self.configs)

    def describe(self) -> Dict:
        return {**super().describe(), "solver": self.golden.solver,
                "golden": self.golden_file, "configs": len(self.configs)}

    def setup_args(self) -> List[str]:
        return ["--golden", str(self.root / self.golden_file),
                "--backend", self.backend, "--workers", str(self.workers)]

    def failures(self, result) -> int:
        """Configs that break a golden tolerance, are missing or extra."""
        report = self.golden.compare(result, backend=self.backend)
        bad = {violation.key for violation in report.violations}
        return len(bad | set(report.missing) | set(report.extra))

    def run_pass(self, tracer=None) -> PassResult:
        from repro.campaign import CampaignRunner
        from repro.thermal.cache import clear_artifact_cache
        # Each pass is one `repro campaign` call: a fresh process has
        # no solver artifacts cached and no stored rows.
        clear_artifact_cache()
        cache_dir = self._pass_dir()
        runner = CampaignRunner(workers=self.workers,
                                cache_dir=str(cache_dir),
                                backend=self.backend)
        try:
            with tracer.installed() if tracer else nullcontext():
                start = self.clock()
                result = runner.run(self.configs,
                                    name=self.golden.campaign)
                wall_s = self.clock() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return PassResult(wall_s=1.0, attempted=len(self.configs),
                              failed=len(self.configs),
                              error="campaign raised")
        finally:
            runner.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
        reports = result.reports
        counts = {
            "sim.events": sum(r.events_executed for r in reports),
            "mpos.slices": sum(r.slices_run for r in reports),
            "mpos.slices_coalesced": sum(r.slices_coalesced
                                         for r in reports),
            "mpos.migrations": sum(r.migrations for r in reports),
        }
        return PassResult(wall_s=wall_s, attempted=len(self.configs),
                          failed=self.failures(result), counts=counts)


class SweepSerial(GoldenWorkload):
    name = "sweep-serial"
    golden_file = "baselines/threshold-sweep.json"
    backend = "serial"
    workers = 1


class MixLockstep(GoldenWorkload):
    name = "mix-lockstep"
    golden_file = "baselines/workload-mix.json"
    backend = "vectorized"
    workers = 2


# ----------------------------------------------------------------------
# fleet-io
# ----------------------------------------------------------------------
def fleet_inputs(seed: int, n_tasks: int):
    """Synthetic configs and reports for ``fleet-io``, from ``seed``.

    Configs are real :class:`ExperimentConfig` objects (two packages,
    so two lockstep groups interleave in the queue); reports carry
    random metric values.  Nothing here is simulated.
    """
    from repro.campaign.spec import SWEEP_POLICIES
    from repro.experiments.config import ExperimentConfig
    from repro.metrics.report import RunReport
    rng = random.Random(seed)
    base = ExperimentConfig()
    configs, reports = [], {}
    for index in range(n_tasks):
        config = base.variant(
            package=rng.choice(("mobile", "highperf")),
            policy=rng.choice(SWEEP_POLICIES),
            threshold_c=round(rng.uniform(1.0, 4.0), 3),
            seed=index)            # unique: no two configs collide
        key = config.config_hash()
        configs.append(config)
        reports[key] = RunReport(
            policy=config.policy, package=config.package,
            threshold_c=config.threshold_c, duration_s=config.measure_s,
            pooled_std_c=rng.uniform(0.5, 6.0),
            spatial_std_c=rng.uniform(0.5, 6.0),
            temporal_std_c=rng.uniform(0.1, 2.0),
            combined_std_c=rng.uniform(0.5, 6.0),
            peak_c=rng.uniform(55.0, 95.0),
            max_spread_c=rng.uniform(0.0, 15.0),
            mean_spread_c=rng.uniform(0.0, 10.0),
            deadline_misses=rng.randrange(20),
            miss_rate=rng.random() * 0.05,
            migrations=rng.randrange(100),
            migrations_per_s=rng.uniform(0.0, 4.0),
            energy_j=rng.uniform(20.0, 40.0),
            avg_power_w=rng.uniform(0.8, 1.6),
            core_mean_c=[rng.uniform(50.0, 80.0) for _ in range(3)],
            frames_played=rng.randrange(500, 700))
    return configs, reports


class FleetIO(Workload):
    """Queue and store I/O at fleet scale, no simulation."""

    name = "fleet-io"
    backend = "queue+store"
    workers = 1

    def __init__(self, root: Path, seed: int, scratch: Path,
                 n_tasks: int = FLEET_TASKS):
        super().__init__(root, seed, scratch)
        self.configs, self.reports = fleet_inputs(seed, n_tasks)
        self._reference: Optional[bytes] = None

    def describe(self) -> Dict:
        return {**super().describe(), "solver": None,
                "tasks": len(self.configs), "worker": "run_worker",
                "worker_backend": FLEET_BACKEND}

    def setup_args(self) -> List[str]:
        return ["--queue"]

    def reference_bytes(self) -> bytes:
        """``canonical_bytes`` of a store filled directly by ``put_many``."""
        if self._reference is None:
            from repro.campaign import ResultStore
            path = self.scratch / "reference.sqlite"
            path.unlink(missing_ok=True)
            with ResultStore(path) as store:
                store.put_many([(c.config_hash(), c.to_dict(),
                                 self.reports[c.config_hash()])
                                for c in self.configs],
                               campaign=FLEET_CAMPAIGN)
                self._reference = store.canonical_bytes()
        return self._reference

    def run_pass(self, tracer=None) -> PassResult:
        from repro.campaign import CampaignQueue, ResultStore, fabric
        from repro.campaign.backends import backend_registry
        directory = self._pass_dir()
        queue_dir = directory / "queue"
        queue = CampaignQueue(queue_dir, lease_timeout_s=600.0)
        store = ResultStore(directory / "results.sqlite")
        keys = [config.config_hash() for config in self.configs]
        try:
            with tracer.installed() if tracer else nullcontext(), \
                    backend_registry.temporarily(
                        FLEET_BACKEND, _ReplayBackend(self.reports)):
                start = self.clock()
                with tracer.span("bench.fleet") if tracer \
                        else nullcontext():
                    added = queue.enqueue(self.configs,
                                          campaign=FLEET_CAMPAIGN)
                    resubmitted = queue.enqueue(self.configs,
                                                campaign=FLEET_CAMPAIGN)
                    # Looked up at call time, so a traced pass runs
                    # the traced worker loop.
                    completed = fabric.run_worker(queue_dir, FLEET_WORKER,
                                                  backend=FLEET_BACKEND)
                    with ResultStore(fabric.worker_store_path(
                            queue_dir, FLEET_WORKER)) as worker_store:
                        store.merge_from(worker_store)
                    status = queue.status()
                    fetched = [store.get(key) for key in keys]
                wall_s = self.clock() - start
            failed = self.failures(added, resubmitted, completed, status,
                                   fetched, store.canonical_bytes())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return PassResult(wall_s=1.0, attempted=len(keys),
                              failed=len(keys), error="fleet pass raised")
        finally:
            queue.close()
            store.close()
        shutil.rmtree(directory, ignore_errors=True)
        counts = {"campaign.queue.failed":
                  status.counts["failed"] + status.counts["torn"]}
        return PassResult(wall_s=wall_s, attempted=len(keys),
                          failed=failed, counts=counts)

    def failures(self, added: int, resubmitted: int, completed: int,
                 status, fetched, merged: bytes) -> int:
        """Tasks not completed, not ``done`` or ending ``failed``/
        ``torn``, rows read back wrong, and a merged store whose
        canonical image differs from the direct ``put_many``
        reference."""
        n = len(self.configs)
        bad = max(n - completed, n - status.counts["done"],
                  status.counts["failed"] + status.counts["torn"])
        wrong = sum(1 for config, report in zip(self.configs, fetched)
                    if report != self.reports[config.config_hash()])
        bad = max(bad, wrong)
        if merged != self.reference_bytes():
            bad = max(bad, 1)
        if added != n or resubmitted != 0:
            bad = max(bad, abs(n - added) + resubmitted, 1)
        return min(bad, n)


class _ReplayBackend:
    """Execution backend for the ``fleet-io`` worker: hands back each
    config's synthetic report, so the drain does no simulation."""

    name = FLEET_BACKEND

    def __init__(self, reports: Dict):
        self.reports = reports

    def execute(self, configs, workers: int) -> List:
        return [self.reports[config.config_hash()] for config in configs]


WORKLOADS = {cls.name: cls for cls in (SweepSerial, MixLockstep, FleetIO)}
