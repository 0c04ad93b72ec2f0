"""One thread pool for the process.

Threads pay only where the work releases the interpreter lock, as numpy's
sampling and ufuncs, ``zlib.crc32`` and ``hashlib`` do.  Every caller
splits its work so that no result depends on which thread ran which part,
so its output is the same at any thread count:

- the simulator draws each chunk of trials from that chunk's own stream;
- ``gf256.combine``, on long payloads, works in stripes; each makes every
  output row of its stripe, and every output byte comes from the same bytes
  of the sources, whichever thread runs the stripe;
- a long encode (``linear.encode``) hashes the object id and CRCs each
  fragment on worker threads while ``combine`` makes the parity rows, and
  frames every fragment on the calling thread from those finished values.

The pool starts on first use, with a thread per CPU the process may run on
(its affinity mask, counted once at import); a forked child starts its own.
``deal`` hands the simulator's chunks and ``combine``'s stripes to the
calling thread, which would otherwise only wait, and to pool jobs; on one
CPU every job runs on the calling thread.  No job waits on another, so
callers share the pool safely.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

_affinity = getattr(os, "sched_getaffinity", None)
_CPUS = len(_affinity(0)) if _affinity else os.cpu_count() or 1
_pool: ThreadPoolExecutor | None = None
_lock = threading.Lock()


def _forget_pool() -> None:  # in a forked child, where the pool's threads are gone
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def worker_count(threads: int, chunks: int) -> int:
    """Jobs worth running at once: no more than asked for, than chunks, or than CPUs."""
    return min(threads, chunks, _CPUS)


def submit(fn, *args) -> Future:
    """``fn(*args)`` on the process's pool; with one CPU, run now on the calling thread."""
    global _pool
    if _CPUS == 1:
        done = Future()
        done.set_result(fn(*args))
        return done
    with _lock:
        _pool = _pool or ThreadPoolExecutor(max_workers=_CPUS)
    return _pool.submit(fn, *args)


def deal(fn, count: int, threads: int, scratch) -> list:
    """``[fn(index, own) for index in range(count)]``, in index order, on at
    most ``threads`` workers: the calling thread and pool jobs.

    Each worker owns one ``scratch()``, made here on the calling thread:
    made on the workers, it would come from per-thread arenas and raise peak
    memory.  Each takes the next index from one shared counter until none is
    left, so a worker that starts late takes fewer.  When a call fails, or
    the wait for the jobs is interrupted (Ctrl-C), every worker stops at its
    next index: the interpreter waits for pool threads at exit.
    """
    # one C call per index, so no two workers take the same one
    take = itertools.count().__next__
    results = [None] * count
    stop = threading.Event()

    def run(own) -> None:
        try:
            while not stop.is_set() and (index := take()) < count:
                results[index] = fn(index, own)
        except BaseException:
            stop.set()
            raise

    # ``run`` must not refer to itself: a cycle would keep ``fn``, and the
    # buffers it holds, until the garbage collector next runs
    first, *others = [scratch() for _ in range(worker_count(threads, count))]
    try:
        jobs = [submit(run, other) for other in others]
        run(first)
        for job in jobs:
            job.result()
    except BaseException:
        stop.set()
        raise
    return results
