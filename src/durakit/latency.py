"""Expected read latency under nearest-first failover."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .probability import ErasureScheme, binomial_tail


def _check_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p!r}")


@dataclass(frozen=True)
class LatencyProfile:
    """Per-site read latencies, nearest first (non-decreasing, positive, finite)."""

    latencies: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "latencies", tuple(float(v) for v in self.latencies)
        )
        if not self.latencies:
            raise ValueError("latency profile must not be empty")
        for v in self.latencies:
            if not 0.0 < v < math.inf:
                raise ValueError(f"latencies must be positive and finite, got {v!r}")
        for a, b in zip(self.latencies, self.latencies[1:]):
            if b < a:
                raise ValueError("latencies must be non-decreasing (nearest first)")

    @property
    def site_count(self) -> int:
        return len(self.latencies)


def expected_latency_replication(
    profile: LatencyProfile, p: float, *, conditional: bool = False
) -> float:
    """Expected failover latency with one replica per site.

    The request tries sites nearest-first and each replica is independently
    unavailable with probability p, giving sum of p**(i-1) * (1-p) * L_i.
    The weights total 1 - p**k, i.e. the all-replicas-down event contributes
    zero latency; pass conditional=True to renormalize to the expected
    latency given that some replica answered.
    """
    _check_p(p)
    terms = [
        p**i * (1.0 - p) * latency
        for i, latency in enumerate(profile.latencies)
    ]
    total = math.fsum(terms)
    if conditional:
        total /= 1.0 - p ** profile.site_count
    return total


def approx_latency_replication(l1: float, l2: float, p: float) -> float:
    """Two-term replication latency (1-p)*L1 + p*L2, dropping p**2 terms."""
    _check_p(p)
    return (1.0 - p) * l1 + p * l2


def approx_latency_ec(l1: float, l2: float, p: float, m: int) -> float:
    """Erasure coded read latency (1-p)*L1 + m*p*L2 with m fragments local.

    Any of the m local fragments failing forces a remote fetch, so the
    remote term is m times more likely than for replication.  Only defined
    for the at-least-m-fragments-local layout; multi-failure terms are
    dropped the same way the replication approximation drops p**2.
    """
    _check_p(p)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m * p >= 1.0:
        warnings.warn(
            f"m*p = {m * p:.3g} >= 1: the single-local-failure approximation "
            "is unreliable here",
            stacklevel=2,
        )
    return (1.0 - p) * l1 + m * p * l2


def ec_read_latency_expectation(
    profile: LatencyProfile, p: float, scheme: ErasureScheme
) -> float:
    """Exact mean of the simulated erasure coded read latency model.

    All m data fragments sit at the nearest site; with no local failure the
    read costs L1, with 1..n failures the missing shards are fetched remotely
    in parallel for L2, and with more than n failures the request cannot be
    served (contributing zero, reported separately by the simulator).
    """
    _check_p(p)
    if profile.site_count < 2:
        raise ValueError("EC latency needs a two-site profile (local, remote)")
    l1, l2 = profile.latencies[0], profile.latencies[1]
    p_none = (1.0 - p) ** scheme.m
    p_unserved = binomial_tail(p, scheme.m, scheme.n)
    return p_none * l1 + (1.0 - p_none - p_unserved) * l2
