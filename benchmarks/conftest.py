"""Shared fixtures for the benchmark harness.

Every benchmark prints the rows of the table/figure it regenerates (captured
with ``pytest benchmarks/ --benchmark-only -s``) in addition to the
pytest-benchmark timing output, so the ``BENCH_*.json`` summaries can be
refreshed from a single run.
"""

import pytest

from repro.ontologies import build_unified_ontology


def pytest_configure(config):
    config.addinivalue_line("markers", "benchmark: benchmark harness tests")


@pytest.fixture(scope="session")
def wall_clock_thresholds(request):
    """Whether this run enforces the benchmarks' wall-clock thresholds.

    Only a dedicated timed run does: ``--benchmark-only``, or
    ``--benchmark-enable`` to also time the self-timed comparisons —
    pytest-benchmark skips tests that never call its fixture under
    ``--benchmark-only``.  Everywhere else — tier-1 collects
    ``benchmarks/`` before ``tests/`` and runs with ``-x``, next to
    whatever else the box is doing — the structural checks of each
    benchmark still run, but a slow machine cannot stop the suite before a
    unit test has executed.
    """
    option = request.config.getoption
    return bool(option("benchmark_only", False) or option("benchmark_enable", False))


@pytest.fixture
def benchmark(benchmark, wall_clock_thresholds):
    """pytest-benchmark's fixture, timing only in a dedicated timed run.

    Everywhere else each benchmarked callable runs exactly once — what
    ``--benchmark-disable`` does, and what CI's ``bench-smoke`` leg asks
    for: a rotted benchmark still fails, but plain tier-1 pays for no
    calibration and no timing rounds.
    """
    if not wall_clock_thresholds:
        benchmark.disabled = True
    return benchmark


@pytest.fixture(scope="session")
def ontology_library():
    """One shared ontology library for all benchmarks (building is cheap but
    repeated builds would dominate the timings of small benchmarks)."""
    return build_unified_ontology(materialize=True)


def print_table(title, rows):
    """Print a list-of-dicts table in a compact aligned form."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{key:>18}" for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(f"{str(row.get(key, '')):>18}" for key in keys))
