"""Synthetic workload suite standing in for the paper's SPEC benchmarks.

The public surface is small:

* :func:`list_workloads` -- names of every registered workload.
* :func:`workload_specs` -- full :class:`~repro.workloads.base.WorkloadSpec`
  metadata (category, description, SPEC behaviour analog).
* :func:`build_workload` -- construct the program + initial state for a
  workload.
* :func:`generate_trace` -- functionally execute a workload into the dynamic
  micro-op trace consumed by the core model.
* ``DEFAULT_SUITE`` -- the ordered list of workloads the benchmark harness
  sweeps by default (integer first, then floating point, as in the paper's
  figures).
"""

from __future__ import annotations

# Importing the workload modules populates the registry (and the dynamic
# workload families: fuzz:, riscv:, trace:).
from repro.workloads import floating as _floating  # noqa: F401
from repro.workloads import fuzz as _fuzz  # noqa: F401
from repro.workloads import integer as _integer  # noqa: F401
from repro.workloads import riscv as _riscv  # noqa: F401
from repro.workloads.base import (
    WorkloadImage,
    WorkloadSpec,
    get_workload,
    register_workload,
    register_workload_family,
    workload_families,
    workload_registry,
)
from repro.isa.executor import Trace


def list_workloads(category: str | None = None) -> list[str]:
    """Return the registered workload names, optionally filtered by category."""
    specs = workload_registry()
    names = [name for name, spec in specs.items()
             if category is None or spec.category == category]
    # Keep a stable, paper-like ordering: integer workloads first.
    names.sort(key=lambda name: (specs[name].category != "int", name))
    return names


def workload_specs() -> list[WorkloadSpec]:
    """Return every registered workload spec in suite order."""
    registry = workload_registry()
    return [registry[name] for name in list_workloads()]


def build_workload(name: str, seed: int = 1) -> WorkloadImage:
    """Build the program and initial architectural state for workload ``name``."""
    return get_workload(name).build(seed)


def generate_trace(name: str, max_ops: int = 20_000, seed: int = 1) -> Trace:
    """Functionally execute workload ``name`` and return its dynamic trace.

    Traces are deterministic in ``(name, max_ops, seed)``, which is what
    makes the experiment harness's on-disk cache sound.
    """
    return materialize_trace(name, max_ops=max_ops, seed=seed)


def materialize_trace(name: str, max_ops: int = 20_000, seed: int = 1) -> Trace:
    """Materialise the trace of workload ``name``.

    For ordinary workloads this functionally executes the image; for
    imported-trace workloads (``trace:<path>``) it reads the trace file.
    The trace cache and the sweep runner build every trace through it.
    """
    return get_workload(name).trace(max_ops, seed=seed)


def workload_cache_token(name: str) -> str:
    """Filesystem-safe token identifying ``name`` in trace-cache keys.

    Plainly registered workloads keep their name (so existing cache entries
    stay valid); family-resolved workloads (``riscv:...``, ``trace:...``,
    ``fuzz:...``) carry a sanitised token, content-hashed for file-backed
    families so cache entries invalidate when the file changes.

    Unregistered *plain* names key by themselves -- cache-key construction
    never required registry membership, and the real lookup error surfaces
    when the trace is materialised.  Unresolvable *family* names still
    raise: their tokens carry sanitisation/content hashes a fallback
    cannot fake.
    """
    try:
        spec = get_workload(name)
    except KeyError:
        prefix, sep, _rest = name.partition(":")
        if sep and prefix in workload_families():
            raise
        return name
    return spec.cache_token if spec.cache_token is not None else spec.name


#: Workloads swept by the benchmark harness, in presentation order.
DEFAULT_SUITE: tuple[str, ...] = tuple(list_workloads())

__all__ = [
    "WorkloadImage",
    "WorkloadSpec",
    "register_workload",
    "register_workload_family",
    "workload_registry",
    "workload_families",
    "get_workload",
    "list_workloads",
    "workload_specs",
    "build_workload",
    "generate_trace",
    "materialize_trace",
    "workload_cache_token",
    "DEFAULT_SUITE",
]
