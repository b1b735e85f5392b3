"""Shared benchmark fixtures.

Every benchmark regenerates one paper table/figure.  The experiment
scale is selected with the ``REPRO_SCALE`` environment variable
(``tiny`` / ``small`` / ``paper``; default ``small``).  Each benchmark
prints its rows and also writes them under ``results/`` so a tee'd run
keeps the artefacts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import SCALES, ExperimentContext

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")


def scale_name() -> str:
    name = os.environ.get("REPRO_SCALE", "small")
    if name not in SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(SCALES)}, got {name!r}")
    return name


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """One shared context per benchmark session (worlds are cached)."""
    return ExperimentContext(SCALES[scale_name()])


def publish(name: str, text: str) -> None:
    """Print a result block and persist it under results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.{scale_name()}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")


def update_bench(sections: dict) -> None:
    """Merge top-level sections into ``BENCH_hotpath.json``.

    Benchmarks own disjoint sections of the JSON (the hot-path timings,
    the fault-tolerance sweep, ...), so each writer merges over what is
    already on disk instead of clobbering the other benchmarks' data.
    An unreadable file raises rather than being replaced, since
    rewriting it would drop every other benchmark's sections.
    """
    report: dict = {}
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as handle:
            try:
                report = json.load(handle)
            except ValueError as exc:
                raise ValueError(
                    f"{os.path.abspath(BENCH_PATH)} is not valid JSON ({exc}); "
                    "repair or remove it before re-running the benchmark"
                ) from exc
    report.update(sections)
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
