"""``answers.scheme_answers``: each column is one call of its library operation."""

import itertools
import re

import pytest

from durakit.answers import scheme_answers
from durakit.latency import LatencyProfile, approx_latency_ec
from durakit.placement import Topology, balanced_placement, placement_unavailability
from durakit.probability import (
    LRC_6_2_2,
    DiskFailureModel,
    ErasureScheme,
    ReplicationScheme,
    meets_target,
    prob_any_failure,
    prob_loss_ec,
    redundancy_factor,
)

COLUMNS = ["scheme", "redundancy_factor", "loss", "unavailability",
           "recoverable_failure", "expected_latency", "repair_remote"]
SCHEMES = [ReplicationScheme(1), ReplicationScheme(3), ErasureScheme(8, 3),
           ErasureScheme(6, 3)]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
@pytest.mark.parametrize("with_topology, with_profile, with_epsilon",
                         list(itertools.product((False, True), repeat=3)))
@pytest.mark.parametrize("p_unavail", [None, 0.02])
def test_each_column_is_its_library_call(scheme, with_topology, with_profile,
                                         with_epsilon, p_unavail):
    from durakit.codec import repair_plan

    p = 0.005
    p_u = p if p_unavail is None else p_unavail
    topology = Topology(3, 0.01) if with_topology else None
    profile = LatencyProfile((1.0, 100.0)) if with_profile else None
    epsilon = 1e-6 if with_epsilon else None
    row = scheme_answers(scheme, p, epsilon, topology, p_unavail, profile)

    assert list(row) == COLUMNS + (["meets_target"] if with_epsilon else [])
    k = scheme.data_fragments
    loss = prob_loss_ec(p, k, scheme.fragment_count - k)
    assert row["scheme"] == scheme.label
    assert row["redundancy_factor"] == redundancy_factor(scheme)
    assert row["loss"] == loss
    assert row["recoverable_failure"] == prob_any_failure(p, scheme.fragment_count)
    if with_topology:
        placement = balanced_placement(scheme, topology)
        model = DiskFailureModel(p_dead=0.0, p_unavail=p_u)
        assert row["unavailability"] == placement_unavailability(model, topology, placement)
        assert row["repair_remote"] == (
            repair_plan(placement, 0).remote_transfers if scheme.fragment_count > 1
            else None
        )
    else:
        assert row["unavailability"] is None and row["repair_remote"] is None
    assert row["expected_latency"] == (
        approx_latency_ec(1.0, 100.0, p_u, k) if with_profile else None
    )
    if with_epsilon:
        assert row["meets_target"] == meets_target(loss, epsilon)


def test_replication_row_is_the_rs_1_plus_k_minus_1_row():
    conditions = dict(p=0.005, epsilon=1e-6, topology=Topology(3, 0.01),
                      p_unavail=0.02, profile=LatencyProfile((1.0, 100.0)))
    rep = scheme_answers(ReplicationScheme(3), **conditions)
    ec = scheme_answers(ErasureScheme(1, 2), **conditions)
    assert (rep.pop("scheme"), ec.pop("scheme")) == ("rep:3", "ec:1+2")
    assert rep == ec


def test_a_code_that_is_not_mds_is_refused():
    with pytest.raises(ValueError, match="only replication and m\\+n schemes"):
        scheme_answers(LRC_6_2_2, 0.005)


def test_a_one_site_profile_is_refused():
    with pytest.raises(ValueError, match="at least two sites"):
        scheme_answers(ErasureScheme(8, 3), 0.005, profile=LatencyProfile((5.0,)))


@pytest.mark.parametrize("condition, message", [
    (dict(epsilon=0.0), "epsilon must be strictly between 0 and 1, got 0.0"),
    (dict(epsilon=float("nan")), "epsilon must be strictly between 0 and 1, got nan"),
    (dict(p_unavail=1.5), "p_unavail must be within [0, 1], got 1.5"),
    (dict(p_unavail=-0.1), "p_unavail must be within [0, 1], got -0.1"),
], ids=["epsilon 0", "epsilon nan", "p_unavail 1.5", "p_unavail -0.1"])
def test_an_input_out_of_range_is_refused_without_its_column(condition, message):
    # no topology or profile asks for a column p_unavail feeds
    with pytest.raises(ValueError, match=re.escape(message)):
        scheme_answers(ErasureScheme(8, 3), 0.005, **condition)
