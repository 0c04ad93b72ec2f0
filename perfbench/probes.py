"""Per-module numbers from direct calls, run after the traced pass.

Every workload's traced run reports the same set, so each module has a
number on each workload; inputs are shaped like the workloads' (64 MiB and
4 KiB objects, the simulator scenarios, the planning stream).  Timings use
the uninstrumented functions.  Throughput of a 64 MiB call is one call; a
microsecond figure is the median over many calls.
"""

from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter

import numpy as np

import durakit as dk
import durakit.codec as dkc
from durakit.codec import gf256
from durakit.codec import lrc as dk_lrc
from durakit.codec import rs as dk_rs
from tracer import Tracer, instrument
from workloads import (
    MIB,
    MonteCarlo,
    OpLog,
    Planning,
    counted_events,
    event_rate,
    metric,
    stream_rng,
)

BIG = 64 * MIB
SMALL = 4096


def median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def once_s(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def mibps(nbytes: int, seconds: float) -> dict:
    return metric(nbytes / MIB / seconds, "MiB/s")


def us(seconds: float) -> dict:
    return metric(seconds * 1e6, "us")


def extra_peak_mib(fn) -> float:
    """tracemalloc peak above the memory already traced when fn starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
        del result
    finally:
        tracemalloc.stop()
    return (peak - base) / MIB


def rs_survivor_rows(m: int, n: int, rng) -> list[list[int]]:
    """The m generator rows rs_decode inverts after n data fragments are lost."""
    lost = {int(i) for i in rng.choice(m, size=n, replace=False)}
    rows = dk_rs.generator_matrix(m, n)
    return [rows[i] for i in range(m + n) if i not in lost][:m]


def probe_gf256(rng) -> dict:
    data = np.frombuffer(rng.bytes(BIG), dtype=np.uint8)
    acc = np.zeros_like(data)
    coeff = int(rng.integers(2, 256))
    lrc_rows = dk_lrc.generator_rows()
    lost = {int(i) for i in rng.choice(10, size=4, replace=False)}
    lrc_survivors = [lrc_rows[i] for i in range(10) if i not in lost]
    rows8, rows10 = rs_survivor_rows(8, 3, rng), rs_survivor_rows(10, 4, rng)
    return {
        "codec.gf256.addmul_MiBps": mibps(
            BIG, median_s(lambda: gf256.addmul_bytes(acc, coeff, data), 3)),
        "codec.gf256.xor_MiBps": mibps(
            BIG, median_s(lambda: gf256.addmul_bytes(acc, 1, data), 3)),
        "codec.gf256.invert_us": us(median_s(lambda: gf256.matrix_invert(rows8), 200)),
        "codec.gf256.invert_10x10_us": us(
            median_s(lambda: gf256.matrix_invert(rows10), 200)),
        "codec.gf256.rank_us": us(
            median_s(lambda: gf256.matrix_rank(lrc_survivors, 6), 500)),
    }


def probe_rs(rng) -> tuple[dict, list]:
    big = rng.bytes(BIG)
    small = rng.bytes(SMALL)
    lost = {int(i) for i in rng.choice(8, size=3, replace=False)}
    t_enc, fragments = once_s(lambda: dk.rs_encode(big, 8, 3))
    solve_set = [f for f in fragments if f.index not in lost]
    t_copy, out_copy = once_s(lambda: dk.rs_decode(fragments))
    t_solve, out_solve = once_s(lambda: dk.rs_decode(solve_set))
    if out_copy != big or out_solve != big:
        raise AssertionError("rs_decode probe did not return the original object")
    del out_copy, out_solve
    small_frags = dk.rs_encode(small, 8, 3)
    small_solve = [f for f in small_frags if f.index not in lost]
    metrics = {
        "codec.rs.encode_MiBps": mibps(BIG, t_enc),
        "codec.rs.decode_copy_MiBps": mibps(BIG, t_copy),
        "codec.rs.decode_solve_MiBps": mibps(BIG, t_solve),
        "codec.rs.encode_us": us(median_s(lambda: dk.rs_encode(small, 8, 3), 300)),
        "codec.rs.decode_copy_us": us(median_s(lambda: dk.rs_decode(small_frags), 300)),
        "codec.rs.decode_solve_us": us(median_s(lambda: dk.rs_decode(small_solve), 300)),
        "codec.rs.encode_peak_mib": metric(
            extra_peak_mib(lambda: dk.rs_encode(big, 8, 3)), "MiB"),
        "codec.rs.decode_peak_mib": metric(
            extra_peak_mib(lambda: dk.rs_decode(solve_set)), "MiB"),
    }
    return metrics, fragments


def probe_lrc(rng) -> dict:
    big = rng.bytes(BIG)
    small = rng.bytes(SMALL)
    lost = {int(rng.choice(g)) for g in dk_lrc.LOCAL_GROUPS}
    lost.add(int(rng.choice(dk_lrc.GLOBAL_PARITY_INDICES)))
    t_enc, fragments = once_s(lambda: dk.lrc_encode(big))
    t_healthy, out_healthy = once_s(lambda: dk.lrc_decode(fragments))
    degraded = [f for f in fragments if f.index not in lost]
    t_degraded, out_degraded = once_s(lambda: dk.lrc_decode(degraded))
    if out_healthy != big or out_degraded != big:
        raise AssertionError("lrc_decode probe did not return the original object")
    del fragments, degraded, out_healthy, out_degraded
    small_frags = dk.lrc_encode(small)
    # the small-objects mix: a pattern of 0..3 losses per get
    patterns = [
        {int(i) for i in rng.choice(10, size=int(rng.integers(0, 4)), replace=False)}
        for _ in range(64)
    ]
    cases = iter([[f for f in small_frags if f.index not in p] for p in patterns] * 5)
    four = [int(i) for i in rng.choice(10, size=4, replace=False)]
    return {
        "codec.lrc.encode_MiBps": mibps(BIG, t_enc),
        "codec.lrc.decode_healthy_MiBps": mibps(BIG, t_healthy),
        "codec.lrc.decode_degraded_MiBps": mibps(BIG, t_degraded),
        "codec.lrc.encode_us": us(median_s(lambda: dk.lrc_encode(small), 300)),
        "codec.lrc.decode_us": us(median_s(lambda: dk.lrc_decode(next(cases)), 320)),
        "codec.lrc.recoverable_us": us(median_s(lambda: dk.lrc_recoverable(four), 500)),
    }


def probe_fragments(rng, fragments, workdir) -> dict:
    payload = sum(f.payload_len for f in fragments)
    t_to, blobs = once_s(lambda: [dkc.fragment_to_bytes(f) for f in fragments])
    t_from, parsed = once_s(lambda: [dkc.fragment_from_bytes(b) for b in blobs])
    if parsed != fragments:
        raise AssertionError("fragment_from_bytes(fragment_to_bytes(f)) != f")
    del parsed, blobs
    paths = [workdir / f"probe.f{f.index:03d}.ecfr" for f in fragments]
    t_write, _ = once_s(lambda: [dkc.write_fragment(f, p) for f, p in zip(fragments, paths)])
    t_read, _ = once_s(lambda: [dkc.read_fragment(p) for p in paths])
    for path in paths:
        path.unlink()
    small_blob = dkc.fragment_to_bytes(dk.rs_encode(rng.bytes(SMALL), 8, 3)[0])
    return {
        "codec.fragments.to_bytes_MiBps": mibps(payload, t_to),
        "codec.fragments.from_bytes_MiBps": mibps(payload, t_from),
        # page-cache figures: the files are written and read back at once
        "codec.fragments.write_MiBps": mibps(payload, t_write),
        "codec.fragments.read_MiBps": mibps(payload, t_read),
        "codec.fragments.parse_us": us(
            median_s(lambda: dkc.fragment_from_bytes(small_blob), 2000)),
    }


def probe_planning(seed, workdir) -> dict:
    """Direct timings of the planning modules, and exact counts over the stream."""
    lrc_placement = dk.Placement(dk.LRC_6_2_2, dk_lrc.DEFAULT_DC_ASSIGNMENT)
    six_dcs = dk.Topology(6, 0.01)
    rs_six = dk.balanced_placement(dk.ErasureScheme(8, 3), six_dcs)
    model = dk.DiskFailureModel(p_dead=0.0, p_unavail=0.01)
    profile = dk.LatencyProfile((1, 20, 100))
    planning = Planning(seed, workdir, Tracer())
    compare_args = ["--format", "json", "compare", "--p", "0.005", "--scheme", "rep:3",
                    "--scheme", "ec:8+3", "--dcs", "3", "--q", "0.01",
                    "--latencies", "1,100"]

    def compare():
        result = planning.runner.invoke(planning.cli.main, compare_args)
        if result.exit_code != 0:
            raise AssertionError(f"compare exited {result.exit_code}")

    metrics = {
        "codec.repair.plan_local_us": us(
            median_s(lambda: dk.repair_plan(lrc_placement, 0), 1000)),
        "codec.repair.plan_degraded_us": us(
            median_s(lambda: dk.repair_plan(lrc_placement, 0, (1,)), 300)),
        "codec.repair.report_ms": metric(
            median_s(lambda: dk.recoverability_report(dk.LRC_6_2_2, 4), 5) * 1e3, "ms"),
        "probability.parity_needed_us": us(
            median_s(lambda: dk.parity_needed(1e-6, 0.005, 8), 500)),
        "probability.parity_needed_m200_ms": metric(
            median_s(lambda: dk.parity_needed(1e-12, 0.005, 200), 5) * 1e3, "ms"),
        "probability.binomial_tail_us": us(
            median_s(lambda: dk.binomial_tail(0.005, 11, 3), 2000)),
        "placement.unavailability_us": us(
            median_s(lambda: dk.placement_unavailability(model, six_dcs, rs_six), 300)),
        "latency.expected_us": us(
            median_s(lambda: dk.expected_latency_replication(profile, 0.05), 2000)),
        "cli.compare_ms": metric(median_s(compare, 20) * 1e3, "ms"),
    }

    # Exact counts: replay the first Planning.PREFIX requests of this seed's
    # stream with every public function counted.
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        log = OpLog(Planning.CALIBRATION)
        counts = Planning(seed, workdir, tracer).replay_prefix(log)
    finally:
        undo()
    if log.failed:
        raise AssertionError(f"planning replay failed: {log.errors[0]}")
    tail_calls = sum(1 for s in tracer.spans if s and s[0] == "probability.binomial_tail")
    metrics.update({
        "codec.repair.remote_transfers": metric(counts["remote_transfers"], "count"),
        "probability.binomial_tail_calls": metric(tail_calls, "count"),
        "placement.outage_states": metric(counts["outage_states"], "count"),
    })
    return metrics


def probe_simulate(seed, workdir) -> dict:
    mc = MonteCarlo(seed, workdir, Tracer())
    metrics = {}
    totals = {"t1": 0.0, "t2": 0.0}
    events, expected = 0, 0.0
    max_z = 0.0
    for name in MonteCarlo.SCENARIOS:
        results = {}
        for tag, threads in zip(("t1", "t2"), mc.threads):
            elapsed, results[tag] = once_s(
                lambda: mc.scenario(name, MonteCarlo.TRIALS, seed, threads))
            totals[tag] += elapsed
            metrics[f"simulate.{name}_ns_per_trial_{tag}"] = metric(
                elapsed / MonteCarlo.TRIALS * 1e9, "ns")
        result = results["t1"]
        if result != results["t2"]:
            raise AssertionError(f"{name}: threads=2 result differs from threads=1")
        events += counted_events(result)
        expected += event_rate(name, result) * result.trials
        max_z = max(max_z, abs(result.z_score))
    metrics.update({
        "simulate.thread_speedup": metric(totals["t1"] / totals["t2"], "ratio"),
        "simulate.events": metric(events, "count"),
        "simulate.events_ratio": metric(events / expected, "ratio"),
        "simulate.max_abs_z": metric(max_z, "z"),
    })
    return metrics


def probe_all(seed: int, workdir) -> dict:
    rng = stream_rng(seed, 7)
    metrics = probe_gf256(rng)
    rs_metrics, fragments = probe_rs(rng)
    metrics.update(rs_metrics)
    metrics.update(probe_fragments(rng, fragments, workdir))
    del fragments
    metrics.update(probe_lrc(rng))
    metrics.update(probe_planning(seed, workdir))
    metrics.update(probe_simulate(seed, workdir))
    return metrics
