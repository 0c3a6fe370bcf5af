"""Block mapping shared by the replicate engines.

The bootstrap (:mod:`survfrac.inference`) and the Monte Carlo study
(:mod:`survfrac.sim`) both evaluate replicates in blocks of rows: a block
function takes a ``(start, stop)`` span of replicate indices and returns
that span's results.  Every replicate draws from its own counter-based
stream, so a block's results do not depend on which blocks run with it or
where.
"""

from __future__ import annotations

# Cells (replicate rows x draws per row) evaluated at once.  Bounds the
# engines' working arrays to a few MiB whatever the replicate count is.
_BLOCK_CELLS = 1 << 16


def _map_blocks(work, total: int, block: int, workers: int) -> list:
    """``work(span)`` for consecutive spans of ``block`` indices in [0, total).

    Results come back in span order.  With ``workers > 1`` the spans are
    mapped over a process pool started by the platform's default method;
    its start-up outweighed the work on small inputs under ``spawn``.  The
    pool holds at most one worker per span, since under ``fork`` every
    worker is started at the first submit, busy or not; a single span is
    mapped in this process.
    """
    spans = [(s, min(s + block, total)) for s in range(0, total, block)]
    workers = min(workers, len(spans))
    if workers <= 1:
        return [work(span) for span in spans]
    # imported here, so that a command without a pool never loads it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, spans))
