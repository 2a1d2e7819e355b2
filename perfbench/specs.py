"""Workload inputs of the repo benchmark, generated from ``--seed``.

Pure data: nothing here imports the simulator.  Every input the program
sees is a wire-form sweep spec (the dict ``POST /sweeps`` and
``repro.service.schemas.spec_from_dict`` accept), built from the
benchmark seed and a scale.

The seed picks the workload trace seed from :data:`TRACE_SEEDS`, whose
cells are pinned in ``reference.json``, so every run's simulated results
can be checked exactly.  On the batch grids it also picks which
workloads the queries filter on.

``--seconds`` sizes a run by a fixed calibration, never by the host's
speed: ``rounds = max(1, round(seconds / nominal_round_s))``.  The same
seed and seconds therefore always do the same work, so two commits are
compared on identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Trace seeds whose cells reference.json pins (1 is the repo's default).
PINNED_TRACE_SEEDS = tuple(range(1, 11))
#: Trace seeds runs use: ``--seed n`` runs ``TRACE_SEEDS[n % 8]``.  Trace
#: seeds 2 and 8 are left out: their detailed grids simulate 6% and 10%
#: more cycles than the median seed's, which the spread over seeds would
#: show as noise.  The others are within 3% of it.
TRACE_SEEDS = (1, 3, 4, 5, 6, 7, 9, 10)

#: Figure 7's tracker schemes; every sweep adds the implicit baseline.
FIGURE7_SCHEMES = ("isrb", "refcount_checkpoint", "rda", "mit", "unlimited")

#: The two service clients' scheme sets: four of six are shared, so about
#: a third of the deliveries come from the store.
CLIENT_SCHEMES = {
    "a": ("isrb", "rda", "mit", "refcount_checkpoint", "unlimited", "refcount"),
    "b": ("isrb", "rda", "refcount_checkpoint", "unlimited", "matrix", "battle"),
}
SERVICE_ENTRIES = (8, 16, 32)
#: Seconds between the queries of a batch round's reader, which queries
#: from the first record until the sweep ends.
READER_PACE_S = 0.05

#: ``repro list`` order of the default suite at the time the benchmark was
#: defined; pinned here so later suite changes do not change the inputs.
SUITE = (
    "alias_trap", "branchy", "call_ret", "deep_recursion", "fuzz_branch",
    "fuzz_mem", "fuzz_mix", "hash_update", "list_traverse", "load_load",
    "long_phase_mix", "long_reuse", "move_chain", "partial_moves",
    "spill_reload", "stack_args", "stream_reduce", "fp_blocked_mm",
    "fp_gather_alias", "fp_mixed", "fp_moves", "fp_recurrence", "fp_stencil",
    "long_stride_drift", "stride_stream",
)


@dataclass(frozen=True)
class Scale:
    """Size of one workload's round at one scale."""

    traces: tuple[str, ...]
    schemes: tuple[str, ...]
    max_ops: int
    nominal_round_s: float
    #: Queries per service client round, or the batch query filters that
    #: a round's reader cycles through.
    queries_per_round: int
    sampling: dict | None = None
    #: Workloads each service client sweeps first in a round.
    workloads_per_sweep: int = 0


#: Full scale is the benchmark; tiny is for the benchmark's own tests.
SCALES: dict[str, dict[str, Scale]] = {
    "full": {
        "detailed_grid": Scale(
            traces=("move_chain", "spill_reload", "branchy", "list_traverse",
                    "fp_stencil"),
            schemes=FIGURE7_SCHEMES, max_ops=20_000, nominal_round_s=22.0,
            queries_per_round=50),
        "sampled_sparse": Scale(
            traces=("long_phase_mix", "long_stride_drift"),
            schemes=FIGURE7_SCHEMES, max_ops=1_000_000, nominal_round_s=7.0,
            queries_per_round=48,
            sampling={"sample_period": 250_000, "sample_window": 800,
                      "sample_warmup": 250, "sample_cooldown": 150}),
        "service_mix": Scale(
            traces=SUITE, schemes=(), max_ops=400, nominal_round_s=3.6,
            queries_per_round=12, workloads_per_sweep=2),
    },
    "tiny": {
        "detailed_grid": Scale(
            traces=("move_chain", "spill_reload"), schemes=("isrb", "unlimited"),
            max_ops=2_000, nominal_round_s=1.0, queries_per_round=8),
        "sampled_sparse": Scale(
            traces=("long_phase_mix",), schemes=("isrb",), max_ops=50_000,
            nominal_round_s=1.0, queries_per_round=4,
            sampling={"sample_period": 25_000, "sample_window": 800,
                      "sample_warmup": 250, "sample_cooldown": 150}),
        "service_mix": Scale(
            traces=SUITE, schemes=(), max_ops=200, nominal_round_s=1.0,
            queries_per_round=3, workloads_per_sweep=2),
    },
}

WORKLOADS = tuple(SCALES["full"])


def trace_seed(seed: int, scale: str = "full") -> int:
    """The pinned trace seed a benchmark seed runs (tiny pins seed 1 only)."""
    return 1 if scale == "tiny" else TRACE_SEEDS[seed % len(TRACE_SEEDS)]


def rounds(workload: str, seconds: int, scale: str = "full") -> int:
    """Rounds of ``workload`` one run does for ``--seconds seconds``."""
    return max(1, round(seconds / SCALES[scale][workload].nominal_round_s))


def batch_spec(workload: str, seed: int, scale: str = "full") -> dict:
    """Wire-form spec of a batch grid: every scheme on every trace."""
    size = SCALES[scale][workload]
    spec = {"schemes": list(size.schemes), "workloads": list(size.traces),
            "max_ops": size.max_ops, "seed": trace_seed(seed, scale)}
    spec.update(size.sampling or {})
    return spec


def batch_plan(workload: str, seed: int,
               scale: str = "full") -> tuple[dict, list[str]]:
    """The ``(spec, query filters)`` of every round of a batch workload.

    A round sweeps the whole grid with one ``run_sweep``, as a
    ``repro paper`` slice does, while queries filter on the grid's traces.
    """
    size = SCALES[scale][workload]
    rng = random.Random(f"{workload}-{seed}")
    return (batch_spec(workload, seed, scale),
            [rng.choice(size.traces) for _ in range(size.queries_per_round)])


def service_plan(seed: int, round_count: int, scale: str = "full") -> dict:
    """Per client: one ``(spec, query filters)`` pair per round.

    Rounds walk through the suite.  In each round each client sweeps the
    next workloads of the walk, which nobody has swept yet, together with
    those the other client swept first in the round before: the cells of
    their shared schemes come back from the store, and the two clients'
    sweeps are alike, so neither waits on the other's leases.  The store
    and the lease file grow during the run.  At full scale six rounds make
    one pass through all but the last workload of the suite; a further
    pass runs the next trace seed.  (The benchmark runs seven rounds: with
    an odd number of rounds, whose queries see the store at as many
    sizes, the median query falls inside a round instead of between two.)  The seed picks the trace seed, so
    every seed simulates other traces of the same workloads, at nearly the
    same cost.  Each client's queries filter, in turn, on the workloads it
    just swept first.
    """
    size = SCALES[scale]["service_mix"]
    per = size.workloads_per_sweep
    clients = list(CLIENT_SCHEMES)
    pass_rounds = max(1, len(size.traces) // (len(clients) * per))
    plan: dict[str, list[tuple[dict, list[str]]]] = {client: [] for client in clients}
    for index in range(round_count):
        number, step = divmod(index, pass_rounds)

        def first(at_step: int, position: int) -> list[str]:
            start = (at_step * len(clients) + position) * per
            return list(size.traces[start:start + per])

        for position, client in enumerate(clients):
            names = first(step, position)
            if step:
                names += first(step - 1, (position + 1) % len(clients))
            spec = {"schemes": list(CLIENT_SCHEMES[client]), "workloads": names,
                    "entries": list(SERVICE_ENTRIES), "max_ops": size.max_ops,
                    "seed": trace_seed(seed + number, scale)}
            queries = [names[i % per] for i in range(size.queries_per_round)]
            plan[client].append((spec, queries))
    return plan


def reference_specs(grid: str, scale: str = "full") -> list[dict]:
    """Specs whose cells ``reference.json`` pins for ``grid``, one per seed.

    The service grid pins the union of both clients' variants on every
    suite workload, which covers every round of every seed.
    """
    seeds = [1] if scale == "tiny" else PINNED_TRACE_SEEDS
    specs = []
    for seed in seeds:
        if grid == "service_mix":
            union = list(dict.fromkeys(CLIENT_SCHEMES["a"] + CLIENT_SCHEMES["b"]))
            specs.append({"schemes": union, "workloads": list(SUITE),
                          "entries": list(SERVICE_ENTRIES),
                          "max_ops": SCALES[scale][grid].max_ops, "seed": seed})
        else:
            specs.append(batch_spec(grid, seed - 1, scale))
    return specs
