"""Monte Carlo engine cross-checking the analytic loss, availability, and latency models.

Each trial samples the steady state: the per-disk probabilities already fold
failure and replacement rates into one number, so there is no time axis.

Determinism contract: identical (seed, trials, scenario parameters) produce
identical results under any thread count.  Trials are processed in fixed
65536-trial chunks, each driven by its own counter-based Philox stream keyed
by (seed, chunk index).  Per-chunk partials are reduced exactly (integer
sums and ``math.fsum``), so the order in which chunks finish cannot matter.
Each scenario is one ``draw(rng, size)`` over an event-rate or a mean estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RareEventError
from .latency import LatencyProfile, ec_read_latency_expectation, expected_latency_replication
from .parallel import map_chunks, worker_count
from .placement import Placement, Topology, placement_unavailability
from .probability import DiskFailureModel, ErasureScheme, prob_loss_ec

CHUNK_TRIALS = 1 << 16

#: Refuse runs of more trials: 262,144 chunks, about 50 minutes of 8+3 loss
#: on one core.  Larger requests end in a usage error, not a huge allocation.
MAX_TRIALS = 1 << 34

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


def _check_run_params(trials: int, seed: int, threads: int) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, MAX_TRIALS = {MAX_TRIALS}], got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _sample(trials: int, seed: int, threads: int, draw) -> list:
    """``draw(rng, size)`` for every chunk, each on its own Philox stream.

    Chunk indices are dealt round-robin to the workers, so the pool gets one
    work item per worker.  Partials come back worker by worker, not in chunk
    order; callers reduce them exactly.
    """
    chunks = -(-trials // CHUNK_TRIALS)
    workers = worker_count(threads, chunks)

    def run(first: int) -> list:
        parts = []
        for chunk in range(first, chunks, workers):
            key = np.array([seed, chunk], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            parts.append(draw(rng, min(CHUNK_TRIALS, trials - chunk * CHUNK_TRIALS)))
        return parts

    return [part for parts in map_chunks(run, range(workers), workers) for part in parts]


def _result(trials, estimate, se, analytic, z_se=None, **counts) -> SimulationResult:
    """``z_se``, when given, stands in for ``se`` as the z-score's denominator."""
    diff = estimate - analytic
    z_se = se if z_se is None else z_se
    z = diff / z_se if z_se else (0.0 if diff == 0.0 else math.copysign(math.inf, diff))
    return SimulationResult(trials=trials, point_estimate=estimate, standard_error=se,
                            analytic=analytic, z_score=z, **counts)


def _event_rate(analytic, trials, seed, threads, draw) -> SimulationResult:
    """Bernoulli estimate of how often draw's per-trial event flags are set."""
    if analytic != 0.0 and analytic * trials < MIN_EXPECTED_EVENTS:
        needed = math.ceil(MIN_EXPECTED_EVENTS / analytic)
        advice = (
            f"increase trials to >= {needed} or validate" if needed <= MAX_TRIALS
            else f"the {needed} trials needed exceed MAX_TRIALS = {MAX_TRIALS}; validate"
        )
        raise RareEventError(
            f"analytic probability {analytic:.3g} implies under "
            f"{MIN_EXPECTED_EVENTS} events in {trials} trials; {advice} at an "
            "inflated probability where the analytic formulas are equally exact"
        )
    events = sum(_sample(trials, seed, threads,
                         lambda rng, size: int(draw(rng, size).sum())))
    estimate = events / trials
    se = math.sqrt(estimate * (1.0 - estimate) / trials)
    # with no events or only events the estimate's own error is zero; the
    # one under the analytic value keeps z finite
    z_se = se or math.sqrt(analytic * (1.0 - analytic) / trials)
    return _result(trials, estimate, se, analytic, z_se, events=events)


def _mean(analytic, trials, seed, threads, draw) -> SimulationResult:
    """Mean of draw's per-trial values; draw also flags the unserved trials."""

    def moments(rng, size):
        values, unserved = draw(rng, size)
        return float(values.sum()), float((values * values).sum()), int(unserved.sum())

    partials = _sample(trials, seed, threads, moments)
    total = math.fsum(part[0] for part in partials)
    total_sq = math.fsum(part[1] for part in partials)
    mean = total / trials
    variance = 0.0 if trials == 1 else max(
        0.0, (total_sq - total * total / trials) / (trials - 1))
    return _result(trials, mean, math.sqrt(variance / trials), analytic, events=None,
                   unserved_trials=sum(part[2] for part in partials))


def simulate_loss(
    p: float, m: int, n: int, trials: int, seed: int = 0, threads: int = 1
) -> SimulationResult:
    """Estimate the m+n data loss probability by sampling every disk's state.

    Each trial draws m+n independent dead/alive states; the loss event is
    more than n dead disks.  Converges to prob_loss_ec(p, m, n).
    """
    _check_run_params(trials, seed, threads)
    analytic = prob_loss_ec(p, m, n)

    def draw(rng, size):
        return (rng.random((size, m + n)) < p).sum(axis=1) > n

    return _event_rate(analytic, trials, seed, threads, draw)


def simulate_availability(
    model: DiskFailureModel, topology: Topology, placement: Placement,
    trials: int, seed: int = 0, threads: int = 1,
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
    need = placement.scheme.data_fragments
    qs = np.array(topology.outage_probs)
    assignment = np.array(placement.assignment)

    def draw(rng, size):
        dc_up = rng.random((size, topology.dc_count)) >= qs
        disk_up = rng.random((size, len(assignment))) >= model.p_unavail
        return (dc_up[:, assignment] & disk_up).sum(axis=1) < need

    return _event_rate(analytic, trials, seed, threads, draw)


def simulate_latency(
    profile: LatencyProfile, p: float, trials: int, seed: int = 0, threads: int = 1,
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

        def draw(rng, size):
            available = rng.random((size, profile.site_count)) >= p
            served = available.any(axis=1)
            return np.where(served, latencies[available.argmax(axis=1)], 0.0), ~served

    else:
        analytic = ec_read_latency_expectation(profile, p, ec)
        l1, l2 = profile.latencies[0], profile.latencies[1]

        def draw(rng, size):
            failures = (rng.random((size, ec.m)) < p).sum(axis=1)
            unserved = failures > ec.n
            return np.where(failures == 0, l1, np.where(unserved, 0.0, l2)), unserved

    return _mean(analytic, trials, seed, threads, draw)
