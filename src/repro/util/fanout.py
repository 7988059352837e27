"""The one process-pool fan-out, and the ambient ``--jobs`` setting.

Figure cells, load sweep points and chaos suite cells all fan out
through :func:`ordered_map`.  Each task carries its own seed and
results come back in submission order, so a ``--jobs N`` run folds
exactly like the serial run.  With the sanitizer armed, each pool task
ships back the draws and violations its worker recorded, so a
``--sanitize --jobs N`` run reports what the serial run reports.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Sequence

from repro.lint import sanitizer

_JOBS = 1


def default_jobs() -> int:
    """One worker per core, the ``--jobs 0`` meaning."""
    return os.cpu_count() or 1


def get_jobs() -> int:
    """The ambient fan-out width (1 = serial, the default)."""
    return _JOBS


@contextmanager
def using_jobs(jobs: int | None) -> Iterator[int]:
    """Install an ambient jobs setting for the duration of the block."""
    global _JOBS
    previous = _JOBS
    _JOBS = max(1, jobs if jobs else 1)
    try:
        yield _JOBS
    finally:
        _JOBS = previous


def _run_seeded_task(fn: Callable, task):
    """Worker side: run one task; with the sanitizer armed, also return
    the draws and violations it recorded here."""
    if not sanitizer.enabled():
        return fn(task), None
    sanitizer.drain_worker_state()  # a forked worker starts with the parent's
    result = fn(task)
    return result, sanitizer.drain_worker_state()


def ordered_map(
    fn: Callable, tasks: Sequence, jobs: int | None = None, *, label: str
) -> list:
    """``[fn(task) for task in tasks]``, over a process pool when the
    width (``None`` = ambient) is above 1 and there are two or more
    tasks.  *fn* must be module-level and each task picklable and
    self-seeded; *label* names the merge point for the sanitizer."""
    width = get_jobs() if jobs is None else max(1, jobs)
    if width <= 1 or len(tasks) < 2:
        results = [fn(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(width, len(tasks))) as pool:
            shipped = list(pool.map(partial(_run_seeded_task, fn), tasks, chunksize=1))
        results = []
        for result, worker_state in shipped:
            if worker_state is not None:
                sanitizer.merge_worker_state(worker_state)
            results.append(result)
    return sanitizer.checked_merge(results, label)
