"""Set-up probe: a fresh interpreter made ready to run one workload.

Run by ``perfbench/run.py`` as a child process; it prints ``ready``
the moment it could start the campaign, and the parent times the
interval from launch to that line.  That covers what every ``repro
campaign`` call pays before simulating: interpreter start, ``import
repro`` with the CLI's registries, config expansion, and opening the
runner with its store (or the queue and store for ``fleet-io``).

The probe samples the host's speed while it sets up (``hostspeed.py``)
and prints, after ``ready``, the seconds it spent sampling and the
speed factor, so the parent can take the one out and scale by the
other.

Usage::

    python3 perfbench/setup_probe.py --src SRC --dir DIR \\
        (--golden FILE --backend NAME --workers N | --queue)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import HostSpeed  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--golden")
    parser.add_argument("--backend")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--queue", action="store_true")
    args = parser.parse_args(argv)

    with HostSpeed() as speed:
        speed.sample()
        sys.path.insert(0, args.src)
        import repro.cli  # noqa: F401  (the registries `repro campaign` loads)
        from repro.campaign import (CampaignQueue, CampaignRunner,
                                    GoldenBaseline, ResultStore)

        if args.queue:
            opened = [CampaignQueue(f"{args.dir}/queue"),
                      ResultStore(f"{args.dir}/results.sqlite")]
        else:
            GoldenBaseline.load(args.golden).configs()
            opened = [CampaignRunner(workers=args.workers,
                                     cache_dir=args.dir,
                                     backend=args.backend)]
        speed.sample()
    print(f"ready {speed.spent_s!r} {speed.factor()!r}", flush=True)
    for thing in opened:
        thing.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
