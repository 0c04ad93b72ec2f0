"""Monte Carlo engine cross-checking the analytic loss, availability, and latency models.

Each trial samples the steady state: the per-disk probabilities already fold
failure and replacement rates into one number, so there is no time axis.

Determinism contract: identical (seed, trials, scenario parameters) produce
identical results under any thread count.  Trials are processed in fixed
65536-trial chunks, each driven by its own counter-based Philox stream keyed
by (seed, chunk index), and per-chunk partials are reduced in chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec.linear import code_of
from .errors import RareEventError
from .latency import LatencyProfile, expected_latency_replication
from .parallel import map_chunks
from .placement import Placement, Topology, placement_unavailability
from .probability import (
    DiskFailureModel,
    ErasureScheme,
    binomial_tail,
    prob_loss_ec,
)

CHUNK_TRIALS = 1 << 16

#: Refuse probability estimates expecting fewer than this many events.
MIN_EXPECTED_EVENTS = 10


@dataclass(frozen=True)
class SimulationResult:
    """Point estimate with its standard error and analytic counterpart."""

    trials: int
    events: int | None
    point_estimate: float
    standard_error: float
    analytic: float
    z_score: float
    unserved_trials: int | None = None


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64))
    )


def _check_run_params(trials: int, seed: int, threads: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def _run_chunks(trials: int, threads: int, worker):
    """Apply worker(chunk_index, chunk_size) to every chunk, in chunk order."""
    sizes = _chunk_sizes(trials)
    return map_chunks(lambda i: worker(i, sizes[i]), range(len(sizes)), threads)


def _guard_rare_event(analytic: float, trials: int) -> None:
    if analytic == 0.0:
        return
    if analytic * trials < MIN_EXPECTED_EVENTS:
        needed = math.ceil(MIN_EXPECTED_EVENTS / analytic)
        raise RareEventError(
            f"analytic probability {analytic:.3g} implies under "
            f"{MIN_EXPECTED_EVENTS} events in {trials} trials; increase "
            f"trials to >= {needed} or validate at an inflated probability "
            "where the analytic formulas are equally exact"
        )


def _bernoulli_result(
    trials: int, events: int, analytic: float
) -> SimulationResult:
    estimate = events / trials
    se = math.sqrt(estimate * (1.0 - estimate) / trials)
    z = _z_score(estimate, analytic, se)
    return SimulationResult(
        trials=trials,
        events=events,
        point_estimate=estimate,
        standard_error=se,
        analytic=analytic,
        z_score=z,
    )


def _z_score(estimate: float, analytic: float, se: float) -> float:
    diff = estimate - analytic
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / se


def simulate_loss(
    p: float, m: int, n: int, trials: int, seed: int = 0, threads: int = 1
) -> SimulationResult:
    """Estimate the m+n data loss probability by sampling every disk's state.

    Each trial draws m+n independent dead/alive states; the loss event is
    more than n dead disks.  Converges to prob_loss_ec(p, m, n).
    """
    _check_run_params(trials, seed, threads)
    analytic = prob_loss_ec(p, m, n)
    _guard_rare_event(analytic, trials)
    total = m + n

    def worker(chunk: int, size: int) -> int:
        rng = _chunk_rng(seed, chunk)
        dead = rng.random((size, total)) < p
        return int((dead.sum(axis=1) > n).sum())

    events = sum(_run_chunks(trials, threads, worker))
    return _bernoulli_result(trials, events, analytic)


def simulate_availability(
    model: DiskFailureModel,
    topology: Topology,
    placement: Placement,
    trials: int,
    seed: int = 0,
    threads: int = 1,
) -> SimulationResult:
    """Estimate unavailability: DC outages first, then per-disk state in up DCs.

    The event is fewer than m reachable fragments (one reachable replica for
    replication placements).  Converges to placement_unavailability, and to
    ec_unavailability / replication_unavailability for the layouts those
    cover.
    """
    _check_run_params(trials, seed, threads)
    # raises TypeError for any scheme that is not an MDS code, and ValueError
    # for a placement outside the topology
    analytic = placement_unavailability(model, topology, placement)
    need = code_of(placement.scheme).k
    _guard_rare_event(analytic, trials)

    qs = np.array(topology.outage_probs)
    assignment = np.array(placement.assignment)
    fragment_total = len(placement.assignment)
    p_u = model.p_unavail

    def worker(chunk: int, size: int) -> int:
        rng = _chunk_rng(seed, chunk)
        dc_up = rng.random((size, topology.dc_count)) >= qs
        disk_up = rng.random((size, fragment_total)) >= p_u
        reachable = (dc_up[:, assignment] & disk_up).sum(axis=1)
        return int((reachable < need).sum())

    events = sum(_run_chunks(trials, threads, worker))
    return _bernoulli_result(trials, events, analytic)


def ec_read_latency_expectation(
    profile: LatencyProfile, p: float, scheme: ErasureScheme
) -> float:
    """Exact mean of the simulated erasure coded read latency model.

    All m data fragments sit at the nearest site; with no local failure the
    read costs L1, with 1..n failures the missing shards are fetched remotely
    in parallel for L2, and with more than n failures the request cannot be
    served (contributing zero, reported separately by the simulator).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p!r}")
    if profile.site_count < 2:
        raise ValueError("EC latency needs a two-site profile (local, remote)")
    l1, l2 = profile.latencies[0], profile.latencies[1]
    p_none = (1.0 - p) ** scheme.m
    p_unserved = binomial_tail(p, scheme.m, scheme.n)
    return p_none * l1 + (1.0 - p_none - p_unserved) * l2


def simulate_latency(
    profile: LatencyProfile,
    p: float,
    trials: int,
    seed: int = 0,
    threads: int = 1,
    ec: ErasureScheme | None = None,
) -> SimulationResult:
    """Estimate expected read latency under failover.

    Replication mode walks the profile nearest-first until an available
    replica answers; trials with no replica available count zero latency and
    are reported in unserved_trials, matching the unconditional analytic sum.
    EC mode (pass the scheme) draws the local failure count among m local
    fragments: zero failures read at L1, up to n failures fetch remotely at
    L2, and more than n cannot be served.
    """
    _check_run_params(trials, seed, threads)
    # the analytic values check p and, for EC, the two-site profile
    if ec is None:
        analytic = expected_latency_replication(profile, p)
        latencies = np.array(profile.latencies)
        sites = profile.site_count

        def worker(chunk: int, size: int):
            rng = _chunk_rng(seed, chunk)
            available = rng.random((size, sites)) >= p
            served = available.any(axis=1)
            first = available.argmax(axis=1)
            lat = np.where(served, latencies[first], 0.0)
            return float(lat.sum()), float((lat * lat).sum()), int((~served).sum())

    else:
        analytic = ec_read_latency_expectation(profile, p, ec)
        l1, l2 = profile.latencies[0], profile.latencies[1]
        m, n = ec.m, ec.n

        def worker(chunk: int, size: int):
            rng = _chunk_rng(seed, chunk)
            failures = (rng.random((size, m)) < p).sum(axis=1)
            lat = np.where(failures == 0, l1, np.where(failures <= n, l2, 0.0))
            return float(lat.sum()), float((lat * lat).sum()), int((failures > n).sum())

    partials = _run_chunks(trials, threads, worker)
    total = math.fsum(part[0] for part in partials)
    total_sq = math.fsum(part[1] for part in partials)
    unserved = sum(part[2] for part in partials)

    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - total * total / trials) / (trials - 1))
    else:
        variance = 0.0
    se = math.sqrt(variance / trials)
    return SimulationResult(
        trials=trials,
        events=None,
        point_estimate=mean,
        standard_error=se,
        analytic=analytic,
        z_score=_z_score(mean, analytic, se),
        unserved_trials=unserved,
    )
