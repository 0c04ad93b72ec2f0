"""Work spread over a bounded thread pool.

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

On one CPU, every job runs inline on the calling thread.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager


def worker_count(threads: int, chunks: int) -> int:
    """Threads worth starting: no more than asked for, than chunks, or than CPUs."""
    return min(threads, chunks, os.cpu_count() or 1)


class _Inline:
    """An executor stand-in that runs each job as it is submitted."""

    @staticmethod
    def submit(fn, *args) -> Future:
        done = Future()
        done.set_result(fn(*args))
        return done


@contextmanager
def executor(threads: int) -> Iterator:
    """A pool of ``threads`` threads, shut down on exit; for one thread, or
    none, a stand-in that runs each job inline as it is submitted."""
    if threads <= 1:
        yield _Inline()
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool


def map_chunks(fn, chunks, threads: int) -> list:
    """``[fn(c) for c in chunks]``, run on up to ``worker_count`` threads, in order."""
    chunks = list(chunks)
    with executor(worker_count(threads, len(chunks))) as pool:
        jobs = [pool.submit(fn, chunk) for chunk in chunks]
        return [job.result() for job in jobs]
