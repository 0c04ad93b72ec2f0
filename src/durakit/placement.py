"""Allocation of replicas/fragments to data centers and availability under DC outages.

Data centers fail independently of one another (each with its own outage
probability), and disks inside a reachable DC are independently unavailable
with the model's p_unavail.  The DC outage probability is the one knob that
introduces correlated unavailability between co-located fragments.  The
exact answer folds over the data centers that hold fragments one at a time,
so it costs O(fragments**2) however many data centers hold none.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .probability import DiskFailureModel, _check_prob, binomial_tail, check_scheme


@dataclass(frozen=True, init=False)
class Topology:
    """A set of data centers with independent outage probabilities."""

    dc_count: int
    outage_probs: tuple[float, ...]

    def __init__(self, dc_count: int, outage_prob: float | Sequence[float] = 0.0):
        if dc_count < 1:
            raise ValueError(f"dc_count must be >= 1, got {dc_count}")
        if isinstance(outage_prob, (int, float)):
            probs = (float(outage_prob),) * dc_count
        else:
            probs = tuple(float(q) for q in outage_prob)
            if len(probs) != dc_count:
                raise ValueError(
                    f"expected {dc_count} outage probabilities, got {len(probs)}"
                )
        for q in probs:
            _check_prob("outage probability", q)
        object.__setattr__(self, "dc_count", dc_count)
        object.__setattr__(self, "outage_probs", probs)


@dataclass(frozen=True)
class Placement:
    """Assignment of every fragment (by index) to a data center id."""

    scheme: object
    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        check_scheme(self.scheme)
        expected = self.scheme.fragment_count
        if len(self.assignment) != expected:
            raise ValueError(
                f"assignment covers {len(self.assignment)} fragments, "
                f"scheme has {expected}"
            )
        for dc in self.assignment:
            if not isinstance(dc, int) or dc < 0:
                raise ValueError(f"dc ids must be non-negative integers, got {dc!r}")

    def dc_counts(self) -> dict[int, int]:
        """Fragment count of each data center that holds any, in dc order."""
        return dict(sorted(Counter(self.assignment).items()))


def balanced_placement(scheme, topology: Topology | int) -> Placement:
    """Round-robin fragments across the topology's data centers."""
    d = topology.dc_count if isinstance(topology, Topology) else int(topology)
    if d < 1:
        raise ValueError(f"need at least one data center, got {d}")
    count = scheme.fragment_count
    return Placement(scheme, tuple(i % d for i in range(count)))


def min_overhead_for_availability(dc_count: int) -> float:
    """Minimum storage overhead so any single DC outage leaves all data readable.

    With d data centers each holding an equal share plus enough redundancy
    to cover one missing DC, the overhead is 1/(d-1): 100% for 2 DCs, 50%
    for 3, and so on.  A single DC cannot survive its own outage.
    """
    if dc_count < 2:
        raise ValueError(
            f"need at least 2 data centers to survive a DC outage, got {dc_count}"
        )
    return 1.0 / (dc_count - 1)


def replication_unavailability(
    model: DiskFailureModel, topology: Topology, replicas: int
) -> float:
    """Probability no replica is reachable, one replica in each of the first k DCs.

    A replica is unreachable when its DC is out, or the DC is up but the
    disk itself is unavailable: q + (1-q) * p_unavail per DC.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if replicas > topology.dc_count:
        raise ValueError(
            f"cannot place {replicas} one-per-DC replicas in "
            f"{topology.dc_count} data centers"
        )
    product = 1.0
    for q in topology.outage_probs[:replicas]:
        product *= q + (1.0 - q) * model.p_unavail
    return product


def ec_unavailability(
    model: DiskFailureModel,
    topology: Topology,
    placement: Placement,
) -> float:
    """Probability fewer than m fragments are reachable, exact over DC outage states.

    The same fold as ``placement_unavailability``: a replication placement
    is answered as RS 1+(k-1), and a code that is not MDS raises
    ``TypeError``.  Co-locating fragments can only raise this number
    relative to the uncorrelated m+n tail.
    """
    return placement_unavailability(model, topology, placement)


def placement_unavailability(
    model: DiskFailureModel,
    topology: Topology,
    placement: Placement,
) -> float:
    """Unavailability of an arbitrary placement: EC needs m reachable, replication 1.

    Any k fragments of an MDS code (k = m, or 1 for replication) serve a
    read; codes without that property are refused.  For a one-replica-per-DC
    replication placement this agrees with replication_unavailability;
    unlike that operation it also covers co-located replicas exactly.
    """
    scheme = placement.scheme
    if not getattr(scheme, "mds", False):
        raise TypeError(f"unavailability needs an MDS code, got {scheme!r}")
    d = topology.dc_count
    max_dc = max(placement.assignment)
    if max_dc >= d:
        raise ValueError(
            f"placement references dc {max_dc} outside topology of {d} data centers"
        )

    # up[u]: probability that the DCs which are up hold u fragments; each DC
    # is either out (up stays put) or up (up shifts by its fragment count)
    up = [1.0]
    for dc, count in placement.dc_counts().items():
        q = topology.outage_probs[dc]
        pad = [0.0] * count
        up = [q * out + (1.0 - q) * held for out, held in zip(up + pad, pad + up)]

    need = scheme.data_fragments
    p_u = model.p_unavail
    # fewer than need reachable <=> more than u - need of the u up fragments unavailable
    total = math.fsum(up[:need]) + math.fsum(
        up[u] * binomial_tail(p_u, u, u - need) for u in range(need, len(up)) if up[u]
    )
    return min(1.0, total)
