"""A scheme's analytic answers as one row: the rows plan, compare and curve print.

Each value is one call of the library operation that defines it.  The codec,
which loads numpy, is imported only when a topology asks for repair traffic.
"""

from __future__ import annotations

from .latency import LatencyProfile, approx_latency_ec
from .placement import Topology, balanced_placement, placement_unavailability
from .probability import (
    DiskFailureModel,
    _check_prob,
    meets_target,
    prob_any_failure,
    prob_loss_ec,
    redundancy_factor,
)


def scheme_answers(scheme, p: float, epsilon: float | None = None,
                   topology: Topology | None = None, p_unavail: float | None = None,
                   profile: LatencyProfile | None = None) -> dict:
    """Every analytic answer for a replication or m+n scheme, keyed by column.

    ``p`` is the per-disk dead probability; ``p_unavail`` defaults to it.  A
    column whose input is not given (a topology for unavailability and repair,
    a profile for latency) is ``None``, and ``meets_target`` needs ``epsilon``.
    A scheme that is not MDS, a one-site profile, or an ``epsilon`` or
    ``p_unavail`` out of range, asked for or not, raises ``ValueError``.
    """
    if not scheme.mds:
        raise ValueError("only replication and m+n schemes can be compared, "
                         f"got {scheme.label}")
    if epsilon is not None:
        _check_prob("epsilon", epsilon, exclusive=True)
    p_u = p_unavail if p_unavail is not None else p
    # replication is the RS 1+(k-1) code with k = 1, so one formula serves both
    k = scheme.data_fragments
    loss = prob_loss_ec(p, k, scheme.fragment_count - k)
    # unavailability reads only p_unavail, which the model checks
    model = DiskFailureModel(p_dead=0.0, p_unavail=p_u)

    unavailability = repair_remote = latency = None
    if topology is not None:
        placement = balanced_placement(scheme, topology)
        unavailability = placement_unavailability(model, topology, placement)
        if scheme.fragment_count > 1:
            from .codec import repair_plan

            repair_remote = repair_plan(placement, 0).remote_transfers
    if profile is not None:
        if profile.site_count < 2:
            raise ValueError("latency profiles need at least two sites")
        latency = approx_latency_ec(profile.latencies[0], profile.latencies[1], p_u, k)

    row = {
        "scheme": scheme.label,
        "redundancy_factor": redundancy_factor(scheme),
        "loss": loss,
        "unavailability": unavailability,
        "recoverable_failure": prob_any_failure(p, scheme.fragment_count),
        "expected_latency": latency,
        "repair_remote": repair_remote,
    }
    if epsilon is not None:
        row["meets_target"] = meets_target(loss, epsilon)
    return row
