"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The formatted
output of each experiment is written to ``benchmarks/results/`` so that the
numbers can be compared side by side with the published tables (see
EXPERIMENTS.md), in addition to the timing statistics pytest-benchmark
collects about the harness itself.

The tuning database is session-scoped *and* persistent: it lives in an
:class:`repro.api.Optimizer`-layout cache directory
(``benchmarks/.tuning_cache/``), is loaded at session start and saved at
session end, so repeated benchmark runs skip the local search entirely
instead of re-tuning every workload from scratch.  Delete the directory to
force a cold run.
"""

from pathlib import Path

# First import: `repro` pins BLAS to one thread before numpy loads, so tier-1
# runs the way `python -m repro.cli serve` does.
import repro  # noqa: F401
import pytest

from repro.api import deployment

RESULTS_DIR = Path(__file__).parent / "results"
TUNING_CACHE_DIR = Path(__file__).parent / ".tuning_cache"


@pytest.fixture(scope="session")
def tuning_cache_dir():
    """The on-disk cache directory shared by every benchmark session.

    Uses the :class:`~repro.api.Optimizer` cache layout, so pointing an
    Optimizer at it (``Optimizer(target, cache_dir=tuning_cache_dir)``)
    shares the same persisted state.
    """
    TUNING_CACHE_DIR.mkdir(parents=True, exist_ok=True)
    return TUNING_CACHE_DIR


@pytest.fixture(scope="session")
def tuning_db(tuning_cache_dir):
    """One tuning database shared by every benchmark in the session.

    The paper (section 3.3.1) stores local-search results per workload and CPU
    so that models sharing convolution workloads do not repeat the search —
    sharing the database across benchmarks exercises exactly that reuse, and
    persisting it across sessions (ROADMAP item) makes re-runs start warm.
    """
    database = deployment.load_tuning_database(tuning_cache_dir)
    yield database
    database.save(tuning_cache_dir / deployment.TUNING_DB_FILENAME)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a formatted experiment table and echo it to stdout."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
