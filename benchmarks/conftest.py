"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures and
writes the paper-vs-measured report to ``results/<name>.txt`` (stdout is
captured by pytest, files persist).  Tuned cells are kept in the process
cell store across benchmark files; set ``REPRO_BENCH_CACHE=1`` to also
persist them between invocations in a :class:`~repro.exec.ResultStore`
directory (``.cell_store/``), and ``REPRO_BENCH_SCALE=quick`` to trim the
grids for a fast smoke run.  ``--jobs N`` (or ``$REPRO_JOBS``) shards
cell evaluation over worker processes; results are identical to serial
runs (see :mod:`repro.exec`).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.runner import PROCESS_STORE
from repro.exec import ResultStore

RESULTS_DIR = Path(__file__).parent / "results"
CELL_STORE = Path(__file__).parent / ".cell_store"


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=None,
        help="worker processes for cell evaluation (0 = all cores)",
    )


def pytest_configure(config):
    jobs = config.getoption("--jobs", default=None)
    if jobs is not None:
        # The drivers read $REPRO_JOBS through repro.exec.default_jobs;
        # the env var keeps worker processes and helpers in agreement.
        os.environ["REPRO_JOBS"] = str(jobs)


@pytest.fixture(scope="session", autouse=True)
def _disk_cache():
    if os.environ.get("REPRO_BENCH_CACHE", "0") != "1":
        yield
        return
    disk = ResultStore(CELL_STORE)
    restored = disk.cells()
    for cell in restored:
        PROCESS_STORE.put(cell)
    if restored:
        print(f"[bench] restored {len(restored)} tuned cells from {CELL_STORE}")
    yield
    for cell in PROCESS_STORE.cells():
        disk.put(cell)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def report_writer(results_dir):
    """Write (and echo) a named experiment report."""

    def write(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}]\n{text}")
        return path

    return write
