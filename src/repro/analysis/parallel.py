"""Deterministic process-pool fan-out for embarrassingly parallel runs.

Monte-Carlo populations and fault campaigns evaluate independent
(seed / fault) work items, so they parallelise trivially -- but the
*results* must be indistinguishable from the serial loop: same values,
same failure records, same ordering, same exceptions.  The helpers here
guarantee that by

* submitting work items in their canonical order and collecting the
  futures in that same submission order (never completion order), and
* shipping library errors back as *data* -- workers catch
  :class:`~repro.errors.ReproError` and return the exception object, so
  the parent loop applies exactly the same ``on_error`` policy it would
  apply serially.

Workers run in separate processes, so everything shipped to them must
pickle.  :func:`ensure_picklable` turns the obscure mid-pool pickling
failure into an actionable error before any process is spawned (the
usual culprit: a lambda or closure metric function -- use a
module-level function with ``functools.partial`` instead).
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from ..errors import AnalysisError


def ensure_picklable(obj: Any, role: str) -> None:
    """Raise an actionable :class:`AnalysisError` when ``obj`` cannot be
    shipped to worker processes."""
    try:
        pickle.dumps(obj)
    except Exception as error:
        raise AnalysisError(
            f"{role} cannot be sent to worker processes ({error}); "
            f"parallel execution pickles its work items -- use a "
            f"module-level function (functools.partial is fine) instead "
            f"of a lambda or closure, or drop n_workers") from None


def validate_workers(n_workers: int | None) -> int:
    """Normalise an ``n_workers`` option: None -> 1, reject < 1."""
    if n_workers is None:
        return 1
    if n_workers < 1:
        raise AnalysisError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)


def default_chunksize(n_tasks: int, n_workers: int) -> int:
    """How many tasks one pool submission should carry.

    One submission per task maximises scheduling freedom but pays the
    full pickle-and-IPC round trip per item -- for a Monte-Carlo seed
    that solves in ten milliseconds, that overhead is a measurable
    fraction of the work.  Chunks amortise it.  Four chunks per worker
    (the heuristic ``multiprocessing.pool.Pool.map`` uses) keeps enough
    slack for load balancing when chunk durations vary.
    """
    if n_tasks <= 0:
        return 1
    return max(1, -(-n_tasks // (n_workers * 4)))


def _run_chunk(worker: Callable[..., Any],
               chunk: Sequence[tuple]) -> list[Any]:
    """Evaluate one chunk of tasks inside a worker process.

    Module-level so it pickles; results keep the chunk's task order.
    """
    return [worker(*task) for task in chunk]


def run_ordered(worker: Callable[..., Any],
                tasks: Sequence[tuple],
                n_workers: int,
                chunksize: int | None = None) -> list[Any]:
    """Map ``worker(*task)`` over ``tasks`` in a process pool.

    Results come back in **task order** regardless of which worker
    finishes first, so downstream reductions see the exact sequence the
    serial loop would have produced.  Tasks ship in chunks of
    ``chunksize`` (default: :func:`default_chunksize`) to amortise the
    per-submission pickle/IPC cost; chunking only regroups submissions,
    the result list is identical element-for-element to the unchunked
    pool.  The worker and every task must be picklable; preflight them
    with :func:`ensure_picklable` for a clear error message.
    """
    if chunksize is None:
        chunksize = default_chunksize(len(tasks), n_workers)
    elif chunksize < 1:
        raise AnalysisError(f"chunksize must be >= 1, got {chunksize}")
    chunks = [tasks[k:k + chunksize]
              for k in range(0, len(tasks), chunksize)]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(_run_chunk, worker, chunk)
                   for chunk in chunks]
        return [result for future in futures
                for result in future.result()]

