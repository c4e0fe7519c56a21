"""The package's one process-parallel path, used by ``verify`` for its
suites and by ``simulate`` for its path chunks."""

from __future__ import annotations

import os


def fork_map(fn, calls):
    """Yield ``fn(*args)`` for each tuple in ``calls``, in order.

    The calls run in ``fork``-context worker processes, one per usable CPU
    and at most one per call; with one CPU, one call or no ``fork`` start
    method they run here, each when its result is asked for.  fork carries
    the loaded package and any patched module attribute, so ``fn`` should
    be a module-level function that looks up what it runs at call time.  A
    call's exception is raised in its place in the order, after every
    earlier result, and calls not started by then never start.  A worker
    that dies raises ``BrokenProcessPool`` rather than waiting for it.
    """
    calls = list(calls)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(len(calls), cpus)
    if workers > 1:
        # imported here so that importing the package, or a run that never
        # forks, does not pay for them
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # the executor forks every worker before it starts any thread
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                # map hands over each result without keeping it
                yield from pool.map(fn, *zip(*calls))
            finally:
                pool.shutdown(cancel_futures=True)
            return
    for args in calls:
        yield fn(*args)
