"""Fixed-size chunks of work spread over a bounded thread pool.

The simulator and the GF(256) payload kernel both split their work into
chunks whose results do not depend on which thread ran them, so their
output is the same at any thread count.  Threads pay only where the work
releases the interpreter lock (numpy sampling and gathers do).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count(threads: int, chunks: int) -> int:
    """Threads worth starting: no more than asked for, than chunks, or than CPUs."""
    return min(threads, chunks, os.cpu_count() or 1)


def map_chunks(fn, chunks, threads: int) -> list:
    """``[fn(c) for c in chunks]``, run on up to ``worker_count`` threads, in order."""
    chunks = list(chunks)
    workers = worker_count(threads, len(chunks))
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))
