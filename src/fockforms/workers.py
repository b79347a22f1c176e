"""Process-pool sizing shared by the parallel front ends."""

from __future__ import annotations

import os


def worker_count(jobs, tasks):
    """Workers worth starting for `tasks` independent tasks at --jobs `jobs`.

    At most min(jobs, tasks, cpu count), and at least 1; a result of 1 means
    run serially without creating a pool.
    """
    return max(1, min(jobs, tasks, os.cpu_count() or 1))
