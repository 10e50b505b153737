"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper with the
full experimental protocol (12.5 s warm-up + 25 s measured, Sec. 5.2)
and prints the series it produced, so ``pytest benchmarks/
--benchmark-only -s`` doubles as the reproduction log.  Runs are cached
across benchmarks (Figs. 7/8 share the mobile matrix, Figs. 9/10 the
high-performance one, Fig. 11 reuses both), so the whole suite performs
each simulation once.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import pytest

from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="session")
def paper_protocol() -> ExperimentConfig:
    """The full-length configuration used by all figure benchmarks."""
    return ExperimentConfig(warmup_s=12.5, measure_s=25.0)


def write_artifact(env_var: str, artifact: dict) -> Optional[str]:
    """Write ``artifact`` as JSON to the path named by ``env_var``.

    Returns that path, or ``None`` when the variable is unset: a plain
    test run leaves the working tree untouched, and CI names the
    committed ``BENCH_*.json`` file to refresh and upload it.
    """
    path = os.environ.get(env_var)
    if path:
        Path(path).write_text(json.dumps(artifact, indent=2, sort_keys=True)
                              + "\n")
    return path


def emit(text: str) -> None:
    """Print a reproduced artifact with a visible delimiter."""
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)
