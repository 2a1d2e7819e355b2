"""Shared fixtures for the suite.

The tiny sweep grids and the lease-test clock used to be duplicated per
module (test_faults.py, test_paper.py and test_determinism.py each grew
their own copies); they are consolidated here so every suite exercises
the *same* grids and a golden artifact stays pinned to one definition.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.grid import SweepSpec

#: One cell -- the cheapest real simulation the harness can run.
TINY_SPEC = SweepSpec(schemes=("isrb",), workloads=("move_chain",),
                      max_ops=800)

#: Two cells across two workloads -- the chaos suite's sweep.
CHAOS_SPEC = SweepSpec(schemes=("isrb",),
                       workloads=("move_chain", "spill_reload"), max_ops=800)


class FakeClock:
    """A manually-advanced clock for lease-TTL tests (no sleeps)."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def fake_clock() -> FakeClock:
    return FakeClock()


@pytest.fixture(scope="session")
def tiny_spec() -> SweepSpec:
    return TINY_SPEC


@pytest.fixture()
def tiny_jobs():
    """The expanded job list of :data:`TINY_SPEC` (a single cell)."""
    return TINY_SPEC.expand()


@pytest.fixture(scope="session")
def chaos_spec() -> SweepSpec:
    return CHAOS_SPEC


@pytest.fixture(scope="session")
def small_spec() -> SweepSpec:
    """Two schemes x two workloads -- the determinism suite's golden grid."""
    return SweepSpec(
        schemes=("isrb", "refcount_checkpoint"),
        workloads=("spill_reload", "move_chain"),
        max_ops=2_000,
        seed=1,
    )


@pytest.fixture(scope="session")
def golden_regenerate():
    """``golden/regenerate.py`` as a module (``tests`` is not a package), so
    tests recompute golden files with the code that writes them."""
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
