"""Monte Carlo engine cross-checking the analytic loss, availability, and latency models.

Each trial samples the steady state: the per-disk probabilities already fold
failure and replacement rates into one number, so there is no time axis.
Every scenario turns on a count, not on which disks are down: the failed
fragments of a stripe, the unreachable fragments of a placement, the first
available site.  So a trial draws that count from one uniform u and the
edges of a table of the count's probabilities, its cdf: the count is the
number of edges at or below u (inversion by sequential search, Devroye,
"Non-Uniform Random Variate Generation", 1986, ch. III.2).  Loss and
availability need no count: a count of at least t is u at or above edge
t - 1, one comparison per trial.  The latency scenarios need only how many
trials drew each value: adjacent counts of one latency merge into a level,
and only the edges where the latency changes are tallied, so EC latency
compares 2 edges at any m.  Within ``MAX_COMPARE_EDGES`` edges the tally is
the differences of the per-edge totals of uniforms at or above each edge;
beyond it, which only a replication profile of more than 64 distinct
latencies reaches, a binary search per uniform and a bincount.  Each run
builds its tables from the model's per-count pmf (binomial ones in log
space), sharing no code with the analytic formulas the result is compared
against.  A count of probability zero owns an empty interval and is never
drawn; one below 2**-53 may not be drawn either.

Determinism contract: identical (seed, trials, scenario parameters) produce
identical results under any thread count.  Trials are processed in fixed
65536-trial chunks, each driven by its own SFC64 stream, seeded from
``SeedSequence(seed, spawn_key=(chunk index,))``: the chunk-th child of the
run's seed, built directly.  ``_sample`` draws each chunk's uniforms by one
``random()`` call, the only use of a stream, and a scenario's count reads
those uniforms alone.  Per-chunk partials are reduced exactly (integer sums
and ``math.fsum``), so the order in which chunks finish cannot matter.  Each
scenario is a count table and either the least count that is an event, over
an event-rate estimator, or the value of each count, over a mean estimator.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import RareEventError
from .latency import LatencyProfile, ec_read_latency_expectation, expected_latency_replication
from .parallel import deal
from .placement import Placement, Topology, placement_unavailability
from .probability import MAX_TABLE_COUNT, DiskFailureModel, ErasureScheme, prob_loss_ec

CHUNK_TRIALS = 1 << 16

#: Refuse runs of more trials: 262,144 chunks, about 45 s of 8+3 loss or of
#: 8+3 availability over three data centers on one core (2.5 and 2.6 ns a
#: trial on a 2-vCPU Xeon VM).  Larger requests end in a usage error, not a
#: huge allocation.
MAX_TRIALS = 1 << 34

#: Refuse probability estimates expecting fewer than this many events.
MIN_EXPECTED_EVENTS = 10

#: Tally a latency histogram of at most this many edges, one per change of
#: latency along the count table (2 for EC latency at any m), by one
#: comparison and one total per edge, a larger one, which only a replication
#: profile of more than 64 distinct latencies makes, by binary search and
#: ``np.bincount``; both give the same histogram, so the bound changes no
#: output.  Per 65536-trial chunk, comparing took 0.20 / 0.77 / 0.78 /
#: 1.52 ms at 16 / 64 / 65 / 128 edges, about 12 us an edge on any table;
#: searching 0.80-1.40 / 0.89-1.95 / 0.92-2.01 / 0.92-2.37 ms on binomial
#: and first-available tables (p 0.05 and 0.5), least where the mass sits at
#: one end, and at 128 edges it won on the first-available ones.
MAX_COMPARE_EDGES = 64


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


def _sample(trials: int, seed: int, threads: int, count) -> list:
    """``count(uniforms)`` for every chunk, in chunk order, its uniforms one
    ``random()`` call.

    A chunk's stream is seeded by ``SeedSequence(seed, spawn_key=(chunk,))``,
    the child ``SeedSequence(seed).spawn(chunk + 1)[chunk]``, built without
    the ones before it.  The spawn key is hashed apart from the entropy:
    ``SeedSequence([seed, chunk])`` would not do, because it zero-pads short
    entropy, so (5 + 3 * 2**32, 0) and (5, 3) would share a stream.

    ``durakit.parallel.deal`` hands the chunks to at most ``threads``
    workers, and each worker fills one buffer of its own with the uniforms of
    every chunk it takes; ``count`` must therefore not keep its argument.
    """

    def draw(chunk: int, buffer: np.ndarray):
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(chunk,))))
        size = min(CHUNK_TRIALS, trials - chunk * CHUNK_TRIALS)
        return count(rng.random(out=buffer[:size]))

    return deal(draw, -(-trials // CHUNK_TRIALS), threads,
                lambda: np.empty(min(CHUNK_TRIALS, trials)))


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


def _cut(pmf: np.ndarray, cut: int) -> np.ndarray:
    """X's pmf made min(X, cut)'s: the mass at ``cut`` and above moved into the last bin."""
    return pmf if len(pmf) <= cut + 1 else np.append(pmf[:cut], pmf[cut:].sum())


def _unreachable_pmf(count: int, copies: int, q: float, p_unavail: float,
                     cut: int) -> np.ndarray:
    """P[min(U, cut) = u], u = 0..cut at most, U the unreachable fragments of
    ``copies`` alike data centers of ``count`` fragments each.

    A DC is out with probability q, leaving all its fragments unreachable;
    otherwise each is unreachable with p_unavail.  So one DC's table is
    (1 - q) * Binomial(count, p_unavail) plus q at count, and the sum over
    ``copies`` independent DCs is its ``copies``-fold ``np.convolve`` power,
    formed by repeated squaring (the convolution method, Devroye, 1986,
    ch. XIV).  Since min(a + b, cut) = min(min(a, cut) + min(b, cut), cut),
    every factor and product is cut at ``cut``: no table has more than
    cut + 1 entries, and the work is O(cut**2 log copies).
    """
    base = (1.0 - q) * _binomial_pmf(count, p_unavail)
    base[count] += q
    base = _cut(base, cut)
    pmf = np.ones(1)
    while True:
        if copies & 1:
            pmf = _cut(np.convolve(pmf, base), cut)
        copies >>= 1
        if not copies:
            return pmf
        base = _cut(np.convolve(base, base), cut)


def _placement_unreachable_pmf(topology: Topology, placement: Placement, p_unavail: float,
                               cut: int) -> np.ndarray:
    """P[min(U, cut) = u], U the unreachable fragments of the whole placement.

    The data centers holding fragments are grouped by (fragment count,
    outage probability), in the order of each group's first DC; the groups'
    ``_unreachable_pmf`` tables are convolved in that order, each product cut
    at ``cut`` by the same identity.
    """
    groups = Counter((count, topology.outage_probs[dc])
                     for dc, count in placement.dc_counts().items())
    pmf = np.ones(1)
    for (count, q), copies in groups.items():
        pmf = _cut(np.convolve(pmf, _unreachable_pmf(count, copies, q, p_unavail, cut)), cut)
    return pmf


def _edges(pmf: np.ndarray) -> np.ndarray:
    """cdf[k] for k = 0..len(pmf) - 2, scaled by the cdf's own last entry.

    A uniform u in [0, 1) draws count k when edges[k - 1] <= u < edges[k]:
    the number of edges at or below u.  The trailing counts of probability
    zero sit exactly at 1 and, like every count of probability zero, own an
    empty interval.
    """
    cdf = np.cumsum(pmf)
    return cdf[:-1] / cdf[-1]


def _histogram_sampler(edges: np.ndarray):
    """``count(uniforms)``: how many of the uniforms are at or above exactly k
    of the non-decreasing ``edges``, for each k in 0..len(edges).

    Up to ``MAX_COMPARE_EDGES`` edges no count is made: as many uniforms
    reach level k or above as are at or above edge k - 1, so one comparison
    and one total per edge give the histogram as differences.  Beyond, each
    uniform's level is the number of edges at or below it, found by binary
    search, and the levels are tallied by ``np.bincount``.  For the same
    uniforms both give the same histogram.
    """
    if len(edges) > MAX_COMPARE_EDGES:
        return lambda uniforms: np.bincount(
            np.searchsorted(edges, uniforms, side="right"), minlength=len(edges) + 1)

    def count(uniforms):
        at_least = np.array(
            [len(uniforms), *(np.count_nonzero(uniforms >= edge) for edge in edges), 0])
        return at_least[:-1] - at_least[1:]

    return count


def _result(trials, estimate, se, analytic, z_se=None, **counts) -> SimulationResult:
    """``z_se``, when given, stands in for ``se`` as the z-score's denominator."""
    diff = estimate - analytic
    z_se = se if z_se is None else z_se
    z = diff / z_se if z_se else (0.0 if diff == 0.0 else math.copysign(math.inf, diff))
    return SimulationResult(trials=trials, point_estimate=estimate, standard_error=se,
                            analytic=analytic, z_score=z, **counts)


def _event_rate(analytic, trials, seed, threads, pmf, first) -> SimulationResult:
    """Bernoulli estimate of P[count >= first], the count drawn from ``pmf``.

    A trial's count is at least ``first`` exactly when its uniform is at or
    above the table's edge ``first - 1``, so each trial is one comparison
    and no count is made.
    """
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
    threshold = _edges(pmf)[first - 1]
    events = sum(_sample(trials, seed, threads,
                         lambda uniforms: int(np.count_nonzero(uniforms >= threshold))))
    estimate = events / trials
    se = math.sqrt(estimate * (1.0 - estimate) / trials)
    # with no events or only events the estimate's own error is zero; the
    # one under the analytic value keeps z finite
    z_se = se or math.sqrt(analytic * (1.0 - analytic) / trials)
    return _result(trials, estimate, se, analytic, z_se, events=events)


def _mean(analytic, trials, seed, threads, pmf, values) -> SimulationResult:
    """Mean of ``values[count]`` over counts drawn from ``pmf``.

    Adjacent counts of equal value form one level, and a trial needs only
    its level: the edges of ``pmf``'s full table where the value changes
    split the uniforms into levels, so each trial lands in the level of the
    count it would draw, and a level's tally is the sum of its counts'.
    EC latency has three levels (L1, L2, unserved) and so 2 edges at any m.
    Each chunk returns its histogram of levels; integer sums of those are
    exact, so the moments follow from the totals.  A value of 0 marks an
    unserved trial (every latency is positive).  The moments are taken on
    the values scaled by a power of two into [0, 1), so no sum or square
    overflows however large a finite value is.  The scaling is exact while no
    value lies 2**1021 or more below the largest, and the mean and standard
    errors, which cannot exceed the largest value, scale back exactly.
    """
    # values[k] != values[k + 1] puts a level's edge at the table's edge k:
    # a uniform draws a count above k exactly when it is at or above it
    changes = np.flatnonzero(values[1:] != values[:-1])
    histogram = sum(_sample(trials, seed, threads, _histogram_sampler(_edges(pmf)[changes])))
    levels = values[np.append(0, changes + 1)]
    # counted before scaling, which may round a tiny latency down to 0
    unserved = int(histogram[levels == 0.0].sum())
    exponent = math.frexp(values.max())[1]
    values, levels = np.ldexp(values, -exponent), np.ldexp(levels, -exponent)
    # centred on the most frequent level, a one-valued sample's mean is that
    # value exactly and its variance exactly zero
    shift = float(levels[histogram.argmax()])
    mean = shift + math.fsum(histogram * (levels - shift)) / trials
    variance = 0.0 if trials == 1 else math.fsum(
        histogram * (levels - mean) ** 2) / (trials - 1)
    se = math.sqrt(variance / trials)
    z_se = se
    if se == 0.0:
        # every trial read the same latency; the model's own variance, sum of
        # pmf * (v - E[v])**2, keeps z finite
        model_mean = math.fsum(pmf * values)
        z_se = math.sqrt(math.fsum(pmf * (values - model_mean) ** 2) / trials)
    return _result(trials, math.ldexp(mean, exponent), math.ldexp(se, exponent), analytic,
                   math.ldexp(z_se, exponent), events=None, unserved_trials=unserved)


def simulate_loss(
    p: float, m: int, n: int, trials: int, seed: int = 0, threads: int = 1
) -> SimulationResult:
    """Estimate the m+n data loss probability by drawing each trial's failure count.

    The loss event is more than n of m+n disks dead, Binomial(m+n, p): a
    count of at least n + 1 from that table.  Converges to
    prob_loss_ec(p, m, n).
    """
    _check_run_params(trials, seed, threads, m + n)
    analytic = prob_loss_ec(p, m, n)
    return _event_rate(analytic, trials, seed, threads, _binomial_pmf(m + n, p), n + 1)


def simulate_availability(
    model: DiskFailureModel, topology: Topology, placement: Placement,
    trials: int, seed: int = 0, threads: int = 1,
) -> SimulationResult:
    """Estimate unavailability by drawing each trial's unreachable fragment count.

    A fragment is unreachable when its data center is out, else with
    p_unavail.  The event is fewer than k of the N fragments reachable
    (k = m, or one replica for replication placements): at least
    T = N - k + 1 unreachable, a count of at least T from the table of
    min(U, T) that ``_placement_unreachable_pmf`` convolves from the groups
    of alike data centers.  Converges to placement_unavailability, and to
    replication_unavailability for one replica per DC.
    """
    _check_run_params(trials, seed, threads, len(placement.assignment))
    # raises TypeError for any scheme that is not an MDS code, and ValueError
    # for a placement outside the topology
    analytic = placement_unavailability(model, topology, placement)
    cut = len(placement.assignment) - placement.scheme.data_fragments + 1
    pmf = _placement_unreachable_pmf(topology, placement, model.p_unavail, cut)
    return _event_rate(analytic, trials, seed, threads, pmf, cut)


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
