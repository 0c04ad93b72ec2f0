"""One thread pool for the process.

Threads pay only where the work releases the interpreter lock, as numpy's
sampling and ufuncs, ``zlib.crc32`` and ``hashlib`` do.  Every caller
splits its work so that no result depends on which thread ran which part,
so its output is the same at any thread count:

- the simulator draws each chunk of trials from that chunk's own stream;
- ``gf256.combine``, on long payloads, deals stripes to threads; each
  thread makes every output row of its stripes, and every output byte comes
  from the same bytes of the sources, whichever thread runs the stripe;
- a long encode (``linear.encode``) hashes the object id and CRCs each
  fragment on worker threads while ``combine`` makes the parity rows, and
  frames every fragment on the calling thread from those finished values.

The pool starts on first use, with a thread per CPU the process may run on
(its affinity mask, counted once at import); a forked child starts its own.
``map_chunks`` runs its first chunk on the calling thread, which would
otherwise only wait, and the rest on the pool; on one CPU every job runs on
the calling thread.  No job waits on another, so callers share the pool
safely.
"""

from __future__ import annotations

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


def map_chunks(fn, chunks) -> list:
    """``[fn(c) for c in chunks]``, in order: the first chunk on the calling
    thread, each other one a pool job submitted before it starts."""
    first, *rest = chunks
    jobs = [submit(fn, chunk) for chunk in rest]
    return [fn(first), *(job.result() for job in jobs)]
