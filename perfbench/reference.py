"""Reference kernel: fixed work, independent of glpsim, timed between operations.

On a shared VM the speed of the cores drifts with what other tenants of the
host run: the same pass can take 1.6 times as long a few minutes later.  That
moves absolute timings from one run to the next by more than any useful
bound.  The benchmark therefore times this kernel before the first operation
and after every operation, and reports each operation's CPU time in units of
the kernel's, timed on the same cores just before and just after it.

The kernel is the generator's kind of work at a cache-resident size: numpy
draws, pointer-doubling gathers, cumsum and bincount over 2**13 slots, plus
a little pure-Python arithmetic, repeated.  A workload whose time goes to
arrays larger than the last-level cache adds random gathers from a 64 MB
table, because DRAM-bound code slows down less than cache-resident code
when the host is busy.  The kernel allocates nothing after its first call,
so page faults do not add noise to it, and it never calls glpsim, so no
change to glpsim can move it.
"""

from __future__ import annotations

import time

import numpy as np

SLOTS = 1 << 13  # 64 KB per int64 array: the kernel stays in L2
ROUNDS = 120
# The kernel's CPU time (without the DRAM part) on the 2-core VM this
# benchmark was sized on, in its usual stretches; ``setup_s`` is reported at
# this speed.
NOMINAL_S = 0.05
TABLE_SLOTS = 1 << 23  # 64 MB, beyond the last-level cache
GATHER_SLOTS = 1 << 22

_tables: list[np.ndarray] = []


def kernel() -> int:
    """Small pointer-doubling resolutions plus interpreter work, over and over."""
    rng = np.random.default_rng(20150916)
    bounds = np.arange(1, SLOTS + 1, dtype=np.int64)
    acc = 0
    for _ in range(ROUNDS):
        ptr = rng.integers(0, bounds)
        for _ in range(4):
            ptr = ptr[ptr]
        ids = np.cumsum(rng.random(SLOTS) < 0.5)
        acc += int(np.bincount(ptr).max()) + int(ids[-1])
        acc += sum(i * i % 7 for i in range(300))
    return acc


def dram_kernel() -> None:
    """Random gathers from a table larger than the last-level cache.

    The arrays are made on the first call and kept, so later calls take no
    page faults, whose cost varies with the host's memory state.
    """
    if not _tables:
        rng = np.random.default_rng(1509)
        _tables.extend((rng.integers(0, 1 << 40, size=TABLE_SLOTS),
                        rng.integers(0, TABLE_SLOTS, size=GATHER_SLOTS),
                        np.empty(GATHER_SLOTS, dtype=np.int64)))
    table, index, out = _tables
    np.take(table, index, out=out)


def cpu_seconds() -> float:
    """CPU time of this process, user and system.  Unlike wall time it leaves
    out the time the host gave the VM's cores to someone else."""
    return time.process_time()


def timed(dram: bool) -> float:
    """CPU seconds of one run of the kernel, with its DRAM-bound part if
    ``dram``."""
    t0 = cpu_seconds()
    kernel()
    if dram:
        dram_kernel()
    return cpu_seconds() - t0
