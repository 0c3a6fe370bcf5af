"""Block mapping and per-row streams shared by the replicate engines.

The bootstrap (:mod:`survfrac.inference`) and the Monte Carlo study
(:mod:`survfrac.sim`) both evaluate replicates in blocks of rows: a block
function takes a ``(start, stop)`` span of replicate indices and returns
that span's results.  Every replicate draws from its own counter-based
stream, so a block's results do not depend on which blocks run with it or
where.
"""

from __future__ import annotations

import os
import sys

import numpy as np

# Cells (replicate rows x draws per row) evaluated at once.  Bounds the
# engines' working arrays to a few MiB whatever the replicate count is.
_BLOCK_CELLS = 1 << 16


def _philox_rows(streams):
    """The Generator at the start of the Philox stream of each ``(key,
    counter)`` of ``streams``, in order.

    Keys are pairs of integers, each word taken mod 2**64, so that any
    integer seed keys a stream; counters are quadruples of integers in
    [0, 2**64).  One generator serves every row, its key and counter reset
    before it is yielded, which gives the same draws as a fresh generator
    per row: use each before taking the next.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for (key0, key1), counter in streams:
        state["state"]["key"] = (key0 % 2**64, key1 % 2**64)
        state["state"]["counter"] = counter
        bitgen.state = state
        yield rng


def _usable_cpus() -> int:
    """The CPUs this process may run on, and at most 61 on Windows, where
    ``ProcessPoolExecutor`` takes no more workers."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, 61) if sys.platform == "win32" else cpus


def _map_blocks(work, total: int, row_cells: int, workers: int) -> list:
    """``work(span)`` for consecutive spans of [0, total), each of as many
    rows of ``row_cells`` cells as fit ``_BLOCK_CELLS``, and at least one.

    Results come back in span order.  With ``workers > 1`` the spans are
    mapped over a process pool started by the platform's default method;
    its start-up outweighed the work on small inputs under ``spawn``.  The
    pool holds at most one worker per span and per usable CPU, since under
    ``fork`` every worker is started at the first submit, busy or not; a
    single span or CPU maps in this process.  Each worker gets one run of
    consecutive spans, so ``work`` is pickled once per worker, not once
    per span.  The results do not depend on the worker count.
    """
    block = max(1, _BLOCK_CELLS // row_cells)
    spans = [(s, min(s + block, total)) for s in range(0, total, block)]
    workers = min(workers, len(spans), _usable_cpus())
    if workers <= 1:
        return [work(span) for span in spans]
    # imported here, so that a command without a pool never loads it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, spans, chunksize=-(-len(spans) // workers)))
