"""One thread pool for the process: started on first use, sized once from the
CPUs the process may run on, shared by every caller, and forgotten by a
forked child."""

import gc
import os
import random
import subprocess
import sys
import threading
import time
import weakref

import pytest

from durakit import parallel, simulate
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
    # the calling thread is one of the two workers of each dealt run, so per
    # encode the object id, 11 CRCs and 1 stripe worker; 1 stripe worker for
    # the solve; 1 chunk worker per two-thread simulation
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
    ran = parallel.deal(lambda index, own: (index, own, threading.get_ident()), 3, 3, object)
    assert [index for index, _, _ in ran] == [0, 1, 2]
    assert {(own, ident) for _, own, ident in ran} == {(ran[0][1], threading.get_ident())}


def test_worker_count_clamped_to_chunks_and_cpus(pools):
    pools.reset(3)
    assert parallel.worker_count(1, 100) == 1
    assert parallel.worker_count(10**9, 2) == 2
    assert parallel.worker_count(10**9, 10**9) == 3
    assert parallel.worker_count(2, 10**9) == 2


def test_deal_keeps_order_on_the_pool(pools):
    pools.reset(2)
    made = []

    def scratch():
        made.append((object(), threading.get_ident()))
        return made[-1][0]

    # each call sleeps, so the two workers' indices interleave
    squares = parallel.deal(lambda index, own: time.sleep(0.001) or index * index, 20, 8, scratch)
    assert squares == [index * index for index in range(20)]
    # two workers, each with scratch made on the calling thread: one pool job
    # is handed the second
    assert [ident for _, ident in made] == [threading.get_ident()] * 2
    assert pools.sizes == [2] and pools.started[0].jobs == [(made[1][0],)]


def test_deal_runs_indices_on_the_calling_thread(pools):
    # a pool worker's index waits for one on the calling thread, so the run
    # ends only if the calling thread takes indices rather than wait
    pools.reset(2)
    caller, caller_ran = threading.get_ident(), threading.Event()

    def fn(index, own):
        if threading.get_ident() == caller:
            caller_ran.set()
        else:
            assert caller_ran.wait(10)
        return index, threading.get_ident()

    ran = parallel.deal(fn, 50, 2, object)
    assert [index for index, _ in ran] == list(range(50))
    assert caller in {ident for _, ident in ran}


def test_deal_frees_its_work_without_the_garbage_collector(pools):
    # the collector runs by object counts, not bytes, so a cycle through
    # ``fn`` would keep what it holds, a long combine's 8-64 MiB sources and
    # output, for a long while
    pools.reset(2)

    class Held:
        pass

    held = Held()
    freed = weakref.ref(held)
    collecting = gc.isenabled()
    gc.disable()
    try:
        parallel.deal(lambda index, own, held=held: index, 4, 2, object)
        pools.started[0].shutdown(wait=True)  # a pool thread drops its job after it ends
        del held
        assert freed() is None
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("race", range(10))
def test_callers_racing_to_first_use_start_one_pool(pools, race):
    pools.reset(2)
    results, start = [], threading.Barrier(8)

    def call():
        start.wait(timeout=30)
        results.append(parallel.deal(lambda index, own: -index, 2, 2, object))

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
    assert results == [[0, -1]] * 8 and pools.sizes == [2]


#: long runs of 64 indices each, calling ``each`` once per index on the
#: thread that runs it: a combine of 64 stripes whose one row doubles once
#: per stripe, and a simulation of 64 chunks
LONG_RUNS = {
    "combine": lambda each, monkeypatch: (
        monkeypatch.setattr(gf256, "_double", lambda acc, carry: each()),
        gf256.combine([[2]], [bytes(64 * gf256.STRIPE_BYTES)]),
    ),
    "sample": lambda each, monkeypatch: simulate._sample(
        64 * CHUNK_TRIALS, 0, 2, lambda uniforms: each()),
}


@pytest.mark.parametrize("failure", ["call raises", "wait interrupted"])
@pytest.mark.parametrize("run", LONG_RUNS)
def test_a_failed_run_stops_every_worker_within_an_index(run, failure, pools, monkeypatch):
    # the interpreter waits for pool threads at exit, so a worker that went
    # on after Ctrl-C would hold the process until the run's last index.
    # "call raises": the first call fails, on whichever thread.  "wait
    # interrupted": Ctrl-C reaches the calling thread once a pool worker runs
    pools.reset(2)
    caller, pool_ran, lock = threading.get_ident(), threading.Event(), threading.Lock()
    failed, late = False, 0

    def each():
        nonlocal failed, late
        on_caller = threading.get_ident() == caller
        if not on_caller:
            pool_ran.set()
        elif failure == "wait interrupted" and not failed:
            assert pool_ran.wait(10)
        with lock:
            late += failed
            fails = not failed and (failure == "call raises" or on_caller)
            failed = failed or fails
        if fails:
            raise RuntimeError("index failed") if failure == "call raises" else KeyboardInterrupt
        time.sleep(0.001)

    with pytest.raises(RuntimeError if failure == "call raises" else KeyboardInterrupt):
        LONG_RUNS[run](each, monkeypatch)
    pools.started[0].shutdown(wait=True)
    # the other worker may be inside its index as the failure comes, and ends it
    assert failed and late <= 1, late


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
