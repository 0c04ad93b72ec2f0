"""One thread pool for the process: started on first use, sized once from the
CPUs the process may run on, shared by every caller, and forgotten by a
forked child."""

import os
import random
import subprocess
import sys
import threading
import time

import pytest

from durakit import parallel
from durakit.codec import gf256
from durakit.codec.fragments import fragment_from_bytes, fragment_to_bytes
from durakit.codec.linear import code_of, encode, solve
from durakit.probability import ErasureScheme
from durakit.simulate import CHUNK_TRIALS, simulate_loss

RS_8_3 = code_of(ErasureScheme(8, 3))
# shards of two full stripes and a byte, so a long combine is split in two
LONG = 8 * (2 * gf256.STRIPE_BYTES + 1)


def random_bytes(seed: int, length: int = LONG) -> bytes:
    return random.Random(seed).randbytes(length)


def run_script(script: str) -> None:
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_cpus_are_the_affinity_mask():
    assert parallel._CPUS == len(os.sched_getaffinity(0))


def test_one_pool_for_every_long_operation(pools):
    pools.reset(2)
    first = encode(RS_8_3, random_bytes(1), None)
    encode(RS_8_3, random_bytes(2), None)
    decoded, used = solve(RS_8_3, first[3:])  # data fragments 0-2 lost
    assert decoded == random_bytes(1) and not set(used) & {0, 1, 2}
    trials = 3 * CHUNK_TRIALS
    runs = [simulate_loss(0.2, 2, 1, trials, seed=3, threads=2) for _ in range(2)]
    assert runs[0] == runs[1] == simulate_loss(0.2, 2, 1, trials, seed=3, threads=1)
    assert pools.sizes == [2]
    # the calling thread takes the first stripe job and the first worker's
    # share of a simulation: per encode, the object id, 11 CRCs and 1 stripe
    # job; 1 for the solve's stripes; 1 per two-thread simulation
    assert len(pools.started[0].jobs) == 2 * 13 + 1 + 2 * 1


def test_no_pool_for_short_or_single_thread_work(pools):
    pools.reset(1)  # the long frames, made on the calling thread
    fragments = encode(RS_8_3, random_bytes(4), None)
    pools.reset(2)
    assert [fragment_from_bytes(fragment_to_bytes(f)) for f in fragments] == fragments
    short = encode(RS_8_3, random_bytes(5, 4096), None)
    assert solve(RS_8_3, short[3:])[0] == random_bytes(5, 4096)
    simulate_loss(0.2, 2, 1, 3 * CHUNK_TRIALS, seed=3, threads=1)
    simulate_loss(0.2, 2, 1, CHUNK_TRIALS, seed=3, threads=2)  # one chunk
    assert pools.sizes == []


def test_one_cpu_runs_every_job_on_the_calling_thread(pools):
    pools.reset(1)
    data = random_bytes(6)
    assert solve(RS_8_3, encode(RS_8_3, data, None)[3:])[0] == data
    simulate_loss(0.2, 2, 1, 3 * CHUNK_TRIALS, seed=3, threads=2)
    assert pools.sizes == []
    ran = parallel.map_chunks(lambda chunk: (chunk, threading.get_ident()), range(3))
    assert ran == [(chunk, threading.get_ident()) for chunk in range(3)]


def test_map_chunks_keeps_order_on_the_pool(pools):
    pools.reset(2)
    assert parallel.map_chunks(lambda chunk: chunk * chunk, range(5)) == [0, 1, 4, 9, 16]
    assert pools.sizes == [2] and pools.started[0].jobs == [(1,), (2,), (3,), (4,)]


def test_map_chunks_runs_the_first_chunk_on_the_calling_thread(pools):
    pools.reset(2)
    caller = threading.get_ident()
    ran = parallel.map_chunks(lambda chunk: (chunk, threading.get_ident()), range(5))
    assert [chunk for chunk, _ in ran] == list(range(5))
    assert ran[0][1] == caller and all(ident != caller for _, ident in ran[1:])


@pytest.mark.parametrize("race", range(10))
def test_callers_racing_to_first_use_start_one_pool(pools, race):
    pools.reset(2)
    results, start = [], threading.Barrier(8)

    def call():
        start.wait(timeout=30)
        results.append(parallel.map_chunks(abs, [-1, -2]))

    callers = [threading.Thread(target=call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [[1, 2]] * 8 and pools.sizes == [2]


def test_no_pool_or_thread_at_import():
    run_script(
        "import threading\n"
        "import durakit, durakit.cli\n"
        "from durakit import parallel\n"
        "assert parallel._pool is None and threading.active_count() == 1\n"
    )


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
def test_a_process_pinned_to_one_cpu_uses_one_thread():
    # pinned before durakit is imported, as ``taskset -c 0`` pins a command
    run_script(
        "import os, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from durakit import parallel\n"
        "from durakit.codec.linear import code_of, encode, solve\n"
        "from durakit.probability import ErasureScheme\n"
        "from durakit.simulate import simulate_loss\n"
        "code = code_of(ErasureScheme(8, 3))\n"
        "data = os.urandom(8 << 20)\n"
        "assert solve(code, encode(code, data, None)[3:])[0] == data\n"
        "simulate_loss(0.2, 2, 1, 1 << 18, seed=1, threads=2)\n"
        "assert parallel._CPUS == 1 and parallel.worker_count(8, 8) == 1\n"
        "assert parallel._pool is None and threading.active_count() == 1\n"
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_a_forked_child_starts_its_own_pool(pools):
    pools.reset(2)
    data = random_bytes(7)
    expected = encode(RS_8_3, data, None)
    assert pools.sizes == [2]
    pid = os.fork()
    if pid == 0:  # the child: the parent's pool threads are not here
        try:
            os._exit(0 if encode(RS_8_3, data, None) == expected else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
