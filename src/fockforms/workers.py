"""The one process fan-out of the parallel front ends, `verify` and `theta`."""

from __future__ import annotations

import os


def worker_count(jobs, tasks):
    """Workers worth starting for `tasks` independent tasks at --jobs `jobs`.

    At most min(jobs, tasks, cpu count), and at least 1; a result of 1 means
    run serially without creating a pool.
    """
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def ordered_map(fn, items, jobs):
    """Yield fn(item) for each item of the sequence `items`, in order.

    With one worker this is the built-in map: no pool is made and no pool
    module imported, since start-up is a large share of a short command.
    Otherwise the items go one at a time to a process pool; closing the
    generator early cancels the tasks not yet started.
    """
    workers = worker_count(jobs, len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            yield from pool.map(fn, items, chunksize=1)
        finally:
            pool.shutdown(cancel_futures=True)
