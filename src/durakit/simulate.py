"""Monte Carlo engine cross-checking the analytic loss, availability, and latency models.

Each trial samples the steady state: the per-disk probabilities already fold
failure and replacement rates into one number, so there is no time axis.
Every scenario turns on a count, not on which disks are down: the failed
fragments of a stripe, the first available site, the reachable fragments of
each data center.  So a trial draws that count directly, one uniform per
count mapped through the inverse CDF of a table of its probabilities.  Each
run builds its tables from the model's per-count pmf (binomial ones in log
space), sharing no code with the analytic formulas the result is compared
against.  A count of probability zero owns an empty interval and is never
drawn; one below 2**-53 may not be drawn either.

Determinism contract: identical (seed, trials, scenario parameters) produce
identical results under any thread count.  Trials are processed in fixed
65536-trial chunks, each driven by its own counter-based Philox stream keyed
by (seed, chunk index), of which only ``random()`` is used.  Per-chunk
partials are reduced exactly (integer sums and ``math.fsum``), so the order
in which chunks finish cannot matter.  Each scenario is one
``draw(rng, size)`` over an event-rate estimator, or a count table and the
value of each count over a mean estimator.
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

#: Refuse runs of more trials: 262,144 chunks, about ten minutes of 8+3 loss
#: on one core.  Larger requests end in a usage error, not a huge allocation.
MAX_TRIALS = 1 << 34

#: Refuse probability estimates expecting fewer than this many events.
MIN_EXPECTED_EVENTS = 10

#: Largest count a table ranges over, fragments or sites: 8 MiB per table.
#: Larger schemes end in a usage error, not a huge allocation.
MAX_TABLE_COUNT = 1 << 20


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

    @property
    def expected_events(self) -> float | None:
        """Events the analytic probability predicts; None for latency means."""
        return None if self.events is None else self.analytic * self.trials

    @property
    def relative_standard_error(self) -> float | None:
        """Standard error over the estimate; None when the estimate is zero."""
        return self.standard_error / abs(self.point_estimate) if self.point_estimate else None


def _check_run_params(trials: int, seed: int, threads: int, counts: int) -> None:
    """Refuse bad run sizes before any table or analytic value is computed."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, MAX_TRIALS = {MAX_TRIALS}], got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if counts > MAX_TABLE_COUNT:
        raise ValueError(f"a count table over {counts} fragments or sites exceeds "
                         f"MAX_TABLE_COUNT = {MAX_TABLE_COUNT}")


def _sample(trials: int, seed: int, threads: int, draw) -> list:
    """``draw(rng, size)`` for every chunk, each on its own Philox stream.

    Chunk indices are dealt round-robin to the workers, one pool job each, so
    ``threads`` caps the jobs in flight.  Partials come back worker by worker,
    not in chunk order; callers reduce them exactly.
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

    return [part for parts in map_chunks(run, range(workers)) for part in parts]


def _binomial_pmf(total: int, p: float) -> np.ndarray:
    """P[X = k] for k = 0..total, X ~ Binomial(total, p), formed in log space.

    log C(total, k) is the running sum of log((total - i + 1) / i), so no
    coefficient or power is formed outside log space and no total overflows.
    """
    k = np.arange(total + 1)
    if p == 0.0 or p == 1.0:
        return (k == (0 if p == 0.0 else total)).astype(float)
    log_comb = np.zeros(total + 1)
    np.cumsum(np.log((total - k[1:] + 1) / k[1:]), out=log_comb[1:])
    return np.exp(log_comb + k * math.log(p) + (total - k) * math.log1p(-p))


def _first_available_pmf(sites: int, p: float) -> np.ndarray:
    """P[the nearest available of ``sites`` sites is i]; i = sites: none is.

    Each site is independently unavailable with probability p, so the index
    is geometric, p**i * (1 - p), and all sites are down with p**sites.
    """
    pmf = p ** np.arange(sites + 1.0)
    pmf[:-1] *= 1.0 - p
    return pmf


def _reachable_pmf(count: int, q: float, p_unavail: float) -> np.ndarray:
    """P[r of a data center's ``count`` fragments are reachable], r = 0..count.

    The DC is out with probability q, leaving none; otherwise each fragment
    is unavailable with p_unavail.  The unavailable count is binomial;
    reversing its table, rather than building one at 1 - p_unavail, keeps a
    small p_unavail from rounding away.
    """
    pmf = (1.0 - q) * _binomial_pmf(count, p_unavail)[::-1]
    pmf[0] += q
    return pmf


def _count_sampler(pmf: np.ndarray):
    """``draw(rng, size)``: counts k with probability pmf[k], one uniform each.

    A uniform u in [0, 1) draws the least k with u < cdf[k].  The cdf is
    scaled by its own last entry, so the trailing counts of probability zero
    sit exactly at 1 and, like every count of probability zero, own an empty
    interval.
    """
    cdf = np.cumsum(pmf)
    edges = cdf[:-1] / cdf[-1]
    return lambda rng, size: np.searchsorted(edges, rng.random(size), side="right")


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


def _mean(analytic, trials, seed, threads, pmf, values) -> SimulationResult:
    """Mean of ``values[count]`` over counts drawn from ``pmf``.

    Each chunk returns its histogram of counts; integer sums of those are
    exact, so the moments follow from the totals.  A value of 0 marks an
    unserved trial (every latency is positive).
    """
    draw = _count_sampler(pmf)
    histogram = sum(_sample(trials, seed, threads, lambda rng, size: np.bincount(
        draw(rng, size), minlength=len(values))))
    # centred on the most frequent value, a one-valued sample's mean is that
    # value exactly and its variance exactly zero
    shift = float(values[histogram.argmax()])
    mean = shift + math.fsum(histogram * (values - shift)) / trials
    variance = 0.0 if trials == 1 else math.fsum(
        histogram * (values - mean) ** 2) / (trials - 1)
    # when every trial read the same latency the sample's variance is zero;
    # the model's own, sum of pmf * (v - E[v])**2, keeps z finite
    model_mean = math.fsum(pmf * values)
    model_variance = math.fsum(pmf * (values - model_mean) ** 2)
    se = math.sqrt(variance / trials)
    return _result(trials, mean, se, analytic, se or math.sqrt(model_variance / trials),
                   events=None, unserved_trials=int(histogram[values == 0.0].sum()))


def simulate_loss(
    p: float, m: int, n: int, trials: int, seed: int = 0, threads: int = 1
) -> SimulationResult:
    """Estimate the m+n data loss probability by drawing each trial's failure count.

    Each trial draws the number of dead disks among m+n from the
    Binomial(m+n, p) table; the loss event is more than n of them.
    Converges to prob_loss_ec(p, m, n).
    """
    _check_run_params(trials, seed, threads, m + n)
    analytic = prob_loss_ec(p, m, n)
    draw = _count_sampler(_binomial_pmf(m + n, p))
    return _event_rate(analytic, trials, seed, threads, lambda rng, size: draw(rng, size) > n)


def simulate_availability(
    model: DiskFailureModel, topology: Topology, placement: Placement,
    trials: int, seed: int = 0, threads: int = 1,
) -> SimulationResult:
    """Estimate unavailability from each data center's count of reachable fragments.

    Each trial draws, for every data center holding fragments, how many of
    them are reachable: none when the DC is out, else each fragment is up
    with probability 1 - p_unavail.  The event is fewer than m reachable in
    total (one reachable replica for replication placements).  Converges to
    placement_unavailability, and to replication_unavailability for one
    replica per DC.
    """
    _check_run_params(trials, seed, threads, len(placement.assignment))
    # raises TypeError for any scheme that is not an MDS code, and ValueError
    # for a placement outside the topology
    analytic = placement_unavailability(model, topology, placement)
    need = placement.scheme.data_fragments
    draws = [
        _count_sampler(_reachable_pmf(count, topology.outage_probs[dc], model.p_unavail))
        for dc, count in placement.dc_counts().items()
    ]

    def draw(rng, size):
        return sum(dc_draw(rng, size) for dc_draw in draws) < need

    return _event_rate(analytic, trials, seed, threads, draw)


def simulate_latency(
    profile: LatencyProfile, p: float, trials: int, seed: int = 0, threads: int = 1,
    ec: ErasureScheme | None = None,
) -> SimulationResult:
    """Estimate expected read latency under failover.

    Replication mode draws the index of the nearest available replica;
    trials with no replica available count zero latency and are reported
    in unserved_trials, matching the unconditional analytic sum.
    EC mode (pass the scheme) draws the local failure count among m local
    fragments: zero failures read at L1, up to n failures fetch remotely at
    L2, and more than n cannot be served.
    """
    _check_run_params(trials, seed, threads, profile.site_count if ec is None else ec.m)
    # the analytic values check p and, for EC, the two-site profile
    if ec is None:
        analytic = expected_latency_replication(profile, p)
        pmf = _first_available_pmf(profile.site_count, p)
        values = np.array((*profile.latencies, 0.0))
    else:
        analytic = ec_read_latency_expectation(profile, p, ec)
        pmf = _binomial_pmf(ec.m, p)
        values = np.zeros(ec.m + 1)
        values[: ec.n + 1] = profile.latencies[1]
        values[0] = profile.latencies[0]
    return _mean(analytic, trials, seed, threads, pmf, values)
