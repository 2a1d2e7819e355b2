"""Host-speed meter: a fixed pure-Python kernel, timed at a steady pace.

Usage: ``python meter.py OUT STOP``.  Prints ``ready``, then every
:data:`PACE_S` seconds runs :func:`kernel` once and records when it
started (``time.monotonic()``, one clock for every process) and the CPU
time it took (time spent waiting for the CPU does not count), until the
file ``STOP`` appears; then writes the ``[start, seconds]`` pairs to
``OUT`` as a JSON list.

The benchmark runs a meter on each CPU it uses.  The host this benchmark
runs on is shared, and its speed drifts by a quarter or more over
minutes.  The kernel mixes the kinds of work the program does (data
access far outside the caches, JSON parsing, bytecode dispatch), so it
slows down with the program: the ratio of the two stays put while both
drift.  The kernel never imports the program, so a change to the
program cannot move it.  It runs about a fortieth of the time, so it
hardly slows the program or its readers down.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

#: Seconds between kernel starts.
PACE_S = 0.1
#: Entries of the table the kernel reads: tens of MB, far more than the
#: host's caches hold, like the simulator's heap.
TABLE_SIZE = 300_000
#: Table lookups, JSON documents parsed and additions per kernel run:
#: about 2.5 ms in all on the host that defined the benchmark.
LOOKUPS, DOCUMENTS, ADDITIONS = 500, 30, 10_000


def inputs() -> tuple[dict[int, list], list[int], list[str]]:
    """The kernel's input: a large dict, a fixed random order of its keys,
    and small JSON documents like the results store's records."""
    rng = random.Random(0)
    keys = list(range(TABLE_SIZE))
    rng.shuffle(keys)
    documents = [json.dumps({"cycles": rng.randrange(10**6),
                             "ipc": rng.random(),
                             "stats": {f"s{i}": rng.random() for i in range(20)},
                             "trace": [rng.randrange(1000) for _ in range(20)]})
                 for _ in range(DOCUMENTS)]
    return {key: [key, str(key)] for key in range(TABLE_SIZE)}, keys, documents


def kernel(entries: dict[int, list], keys: list[int], documents: list[str]) -> int:
    """Look ``keys`` up in ``entries`` (cache misses, dict and list access),
    parse ``documents`` (C-level parsing and allocation, as a store read
    does) and add integers in a loop (bytecode dispatch).  Each part
    alone follows the simulator's slowdown less closely than the three
    together."""
    total = 0
    for key in keys:
        value = entries[key]
        total += value[0] + len(value[1])
    for document in documents:
        total += len(json.loads(document))
    for number in range(ADDITIONS):
        total += number
    return total


def main(out: str, stop: str) -> int:
    entries, order, documents = inputs()
    samples = []
    print("ready", flush=True)
    due = time.perf_counter()
    while not os.path.exists(stop):
        # Fresh keys each run, so none is still cached from the last pass.
        start = len(samples) * LOOKUPS % TABLE_SIZE
        keys = order[start:start + LOOKUPS]
        at, begin = time.monotonic(), time.process_time()
        kernel(entries, keys, documents)
        samples.append((at, time.process_time() - begin))
        due += PACE_S
        time.sleep(max(due - time.perf_counter(), 0))
    with open(out, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
