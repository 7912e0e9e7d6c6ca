"""Root pytest configuration shared by ``tests/`` and ``benchmarks/``."""

from __future__ import annotations

from pathlib import Path

import pytest

PLANBENCH_DIR = Path(__file__).resolve().parent / "planbench"


def pytest_collection_modifyitems(items):
    """Auto-tier: anything not in the `sim` tier is tier-1.

    Makes ``pytest -m tier1`` equivalent to the default ``-m "not sim"``
    run without every test having to carry an explicit marker.
    """
    for item in items:
        if item.get_closest_marker("sim") is None:
            item.add_marker(pytest.mark.tier1)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="refresh tests/goldens/ from the current benchmarks/results/ "
        "reports instead of diffing against them",
    )


@pytest.fixture(scope="session")
def update_goldens(request) -> bool:
    """True when the golden snapshots should be rewritten, not compared."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(autouse=True)
def _cold_planner_caches_for_planbench(request):
    """Give every test under ``planbench/`` cold planner caches.

    Each benchmark pass starts from cleared memoization
    (``planbench.drivers.reset_process``), and planbench's tests count the
    work a search does, so a pass-1 table or workload an earlier test of the
    session memoized must not hide that work from them.
    """
    if PLANBENCH_DIR in request.node.path.resolve().parents:
        from repro.core.execution import clear_caches

        clear_caches()
