"""Measure the benchmark's run-to-run spread on this machine.

Runs ``run.py`` ``--runs`` times per workload, each with another seed,
and reports for every end-to-end metric the median of the runs and the
distance between their first and third quartiles as a share of that
median (``statistics.quantiles(values, n=4)``).  Exits 1 when a spread
is wider than the metric's bound.

With ``--write`` the figures are appended to ``perfbench/spread.json``
as one more set; every earlier set is kept.  When the file then holds
two or more sets, the last two are compared if their times were taken
the same way (``scaling``): a median worse than the previous set's by
more than the metric's bound also exits 1.

Usage (from the repository root)::

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--write]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: How the times were taken: at the reference host speed
#: (``hostspeed.py``).  Sets without the key were taken on the wall
#: clock, and sets taken differently are not compared.
SCALING = "host-speed"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    out = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                         text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec.WORKLOADS]
    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    result = {"runs": args.runs, "seconds": args.seconds,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "scaling": SCALING, "workloads": {}}
    steady = True
    for name in names:
        samples = {metric: [] for metric in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics = run_once(name, seed, args.seconds)["metrics"]
            for metric in bounds:
                samples[metric].append(metrics[metric]["value"])
        result["workloads"][name] = {m: spread(v)
                                     for m, v in samples.items()}
        for metric, entry in result["workloads"][name].items():
            ok = entry["iqr_share"] <= bounds[metric]
            steady &= ok
            print(f"{name:<14}{metric:<16}median {entry['median']:>10.4f}"
                  f"  iqr/median {entry['iqr_share']:.4f}"
                  f"  bound {bounds[metric]}  {'ok' if ok else 'WIDE'}",
                  flush=True)
    if args.write:
        path = HERE / "spread.json"
        sets = json.loads(path.read_text())["sets"] \
            if path.exists() else []
        sets.append(result)
        path.write_text(json.dumps({"sets": sets}, indent=2) + "\n")
        if len(sets) >= 2 and \
                sets[-2].get("scaling", "wall-clock") == SCALING:
            steady &= agree(sets[-2], sets[-1], bounds)
    return 0 if steady else 1


def agree(before: dict, after: dict, bounds: dict) -> bool:
    """Whether no median of ``after`` is worse than ``before``'s by
    more than the metric's bound (workloads in both sets)."""
    better = {m["name"]: m["better"] for m in spec.END_TO_END}
    ok = True
    for name in sorted(set(before["workloads"]) & set(after["workloads"])):
        for metric, bound in bounds.items():
            old = before["workloads"][name][metric]["median"]
            new = after["workloads"][name][metric]["median"]
            worse = (old - new if better[metric] == "higher"
                     else new - old) / old
            ok &= worse <= bound
            print(f"{name:<14}{metric:<16}median {old:>10.4f} -> "
                  f"{new:>10.4f}  worse by {worse:+.4f}  bound {bound}  "
                  f"{'ok' if worse <= bound else 'SHIFTED'}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
