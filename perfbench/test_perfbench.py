"""Tests of the benchmark itself: its output checks, tracer and spec.

Fast by construction: the golden checks run on the goldens' own rows,
the fleet workload on a few dozen tasks, and the traced simulation on
two configs.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.campaign import CampaignResult, CampaignRun  # noqa: E402
from repro.metrics.report import RunReport  # noqa: E402


def _golden_result(workload, drop: int = 0, tamper: int = 0):
    """A CampaignResult holding the golden's own rows, optionally with
    ``drop`` rows removed and ``tamper`` reports altered."""
    golden = workload.golden
    runs = [CampaignRun(config=config,
                        report=RunReport.from_record(row.metrics))
            for row, config in zip(golden.rows.values(), golden.configs())]
    runs = runs[drop:]
    for run_ in runs[:tamper]:
        run_.report = dataclasses.replace(
            run_.report, peak_c=run_.report.peak_c + 1.0)
    return CampaignResult(name=golden.campaign, runs=runs, workers=1,
                          elapsed_s=1.0)


@pytest.mark.parametrize("cls", [workloads.SweepSerial,
                                 workloads.MixLockstep])
def test_golden_check_counts_tampered_and_missing_configs(cls, tmp_path):
    workload = cls(ROOT, seed=3, scratch=tmp_path)
    assert workload.failures(_golden_result(workload)) == 0
    assert workload.failures(_golden_result(workload, tamper=2)) == 2
    assert workload.failures(_golden_result(workload, drop=1)) == 1


def test_seed_permutes_config_order(tmp_path):
    a = workloads.SweepSerial(ROOT, seed=1, scratch=tmp_path)
    b = workloads.SweepSerial(ROOT, seed=2, scratch=tmp_path)
    again = workloads.SweepSerial(ROOT, seed=1, scratch=tmp_path)
    assert [c.config_hash() for c in a.configs] == \
        [c.config_hash() for c in again.configs]
    assert [c.config_hash() for c in a.configs] != \
        [c.config_hash() for c in b.configs]
    assert sorted(c.config_hash() for c in a.configs) == \
        sorted(c.config_hash() for c in b.configs)


def test_fleet_pass_is_correct_and_seeded(tmp_path):
    workload = workloads.FleetIO(ROOT, seed=5, scratch=tmp_path, n_tasks=40)
    result = workload.run_pass()
    assert (result.attempted, result.failed, result.error) == (40, 0, None)
    assert result.counts == {"campaign.queue.failed": 0}
    same, _ = workloads.fleet_inputs(5, 40)
    other, _ = workloads.fleet_inputs(6, 40)
    keys = [c.config_hash() for c in workload.configs]
    assert keys == [c.config_hash() for c in same]
    assert keys != [c.config_hash() for c in other]


def test_fleet_tampered_report_fails_the_canonical_check(tmp_path):
    workload = workloads.FleetIO(ROOT, seed=5, scratch=tmp_path, n_tasks=40)
    workload.reference_bytes()
    key = workload.configs[7].config_hash()
    workload.reports[key] = dataclasses.replace(workload.reports[key],
                                                peak_c=0.0)
    result = workload.run_pass()
    assert result.failed >= 1


class _TamperedFleet(workloads.FleetIO):
    """A fleet workload whose worker writes one wrong report."""

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch, n_tasks=30)
        self.reference_bytes()
        key = self.configs[0].config_hash()
        self.reports[key] = dataclasses.replace(self.reports[key],
                                                migrations=-1)


def test_tampered_report_raises_error_rate_and_exit_code(
        tmp_path, monkeypatch, capsys):
    import tempfile
    monkeypatch.setitem(run.WORKLOADS, "fleet-io", _TamperedFleet)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # main() points temporary files into its scratch directory; undo
    # that for the tests that follow.
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    code = run.main(["--workload", "fleet-io", "--seed", "1",
                     "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["error_rate"]["value"] > 0
    assert set(result["metrics"]) == {name for name, _, _ in spec.PER_LAYER}


def test_traced_pass_changes_no_result(tmp_path):
    from repro.sim.kernel import Simulator
    original = Simulator.schedule_at
    workload = workloads.SweepSerial(ROOT, seed=0, scratch=tmp_path)
    keys = list(workload.golden.rows)[:2]
    workload.golden = dataclasses.replace(
        workload.golden, rows={k: workload.golden.rows[k] for k in keys})
    workload.configs = workload.golden.configs()

    plain = workload.run_pass()
    tracer = tracing.Tracer()
    traced = workload.run_pass(tracer=tracer)
    assert Simulator.schedule_at is original
    assert plain.failed == traced.failed == 0
    assert plain.counts == traced.counts
    assert traced.counts["sim.events"] > 0
    per_layer = tracer.layer_self_s()
    for layer in ("sim", "mpos.scheduler", "mpos.queues", "platform.chip",
                  "platform.power", "thermal.solver", "thermal.sensors",
                  "policies", "streaming", "experiments", "metrics",
                  "campaign.engine", "campaign.store"):
        assert per_layer.get(layer, 0.0) > 0, layer
    assert tracer.calls("thermal.sensors.tick") == \
        tracer.counts["thermal.solver.calls"]
    covered = sum(per_layer.values())
    assert 0.9 * traced.wall_s <= covered <= traced.wall_s * 1.01


def test_host_speed_clock_leaves_out_sampling_time():
    import signal
    import statistics
    import time

    import hostspeed
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(period_s=0.01) as speed:
        start, wall_start = speed.now(), time.perf_counter()
        while time.perf_counter() < wall_start + 0.3:
            sum(range(1000))
        timed = speed.now() - start
        wall = time.perf_counter() - wall_start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.samples) >= 5
    assert 0 < speed.spent_s < wall
    assert timed == pytest.approx(wall - speed.spent_s, abs=0.005)
    assert speed.factor(2) == \
        hostspeed.REFERENCE_UNIT_S / statistics.median(speed.samples[2:])


def test_self_time_subtracts_children(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("campaign.engine.run"):
        with tracer.span("sim.run_until"):
            with tracer.span("platform.power.power"):
                pass
        with tracer.span("sim.run_until"):
            pass
    root_s = tracer.span_end[0] - tracer.span_start[0]
    layers = tracer.layer_self_s()
    assert sum(layers.values()) == pytest.approx(root_s, rel=1e-9)
    assert tracer.calls("sim.run_until") == 2
    first, second = tracer.span_self_s("sim.run_until")
    assert first == pytest.approx(
        tracer.span_end[1] - tracer.span_start[1]
        - (tracer.span_end[2] - tracer.span_start[2]), rel=1e-9)
    assert second == pytest.approx(
        tracer.span_end[3] - tracer.span_start[3], rel=1e-9)
    assert tracer.span_self_s("no.such.span") == []
    assert list(tracer.span_parent) == [-1, 0, 1, 0]
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == [
        "campaign.engine.run", "sim.run_until", "platform.power.power",
        "sim.run_until"]
    assert [e["args"]["parent"] for e in events] == [-1, 0, 1, 0]


def test_layer_of_prefers_the_longest_prefix():
    assert tracing.layer_of("mpos.queues.push") == "mpos.queues"
    assert tracing.layer_of("mpos.event") == "mpos"
    assert tracing.layer_of("campaign.queue.enqueue") == "campaign.queue"
    assert tracing.layer_of("thermal.build.artifact") == "thermal.build"


def test_committed_spec_files_are_current():
    assert (ROOT / "BENCHMARK.json").read_text() == \
        spec.render(spec.benchmark_json())
    assert (HERE / "spec.json").read_text() == \
        spec.render(spec.spec_json())


def test_benchmark_json_shape():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in data["workloads"]] + \
        [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in data["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in data["end_to_end"])}]
    assert sorted(w["name"] for w in data["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_exits_nonzero_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""
