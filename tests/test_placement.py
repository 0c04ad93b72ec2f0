import itertools

import pytest

from durakit.placement import (
    Placement,
    Topology,
    balanced_placement,
    ec_unavailability,
    min_overhead_for_availability,
    placement_unavailability,
    replication_unavailability,
)
from durakit.probability import (
    LRC_6_2_2,
    DiskFailureModel,
    ErasureScheme,
    ReplicationScheme,
    binomial_tail,
    prob_loss_ec,
)

from oracles import enumerate_unavailability


class TestMinOverhead:
    @pytest.mark.parametrize(
        "dcs,expected", [(2, 1.0), (3, 0.5), (4, 1 / 3), (5, 0.25)]
    )
    def test_table(self, dcs, expected):
        assert min_overhead_for_availability(dcs) == expected

    def test_single_dc_rejected(self):
        with pytest.raises(ValueError):
            min_overhead_for_availability(1)


class TestReplicationUnavailability:
    def test_no_outages_reduces_to_power(self):
        model = DiskFailureModel(p_dead=0.001, p_unavail=0.01)
        topo = Topology(3, 0.0)
        assert replication_unavailability(model, topo, 3) == pytest.approx(
            0.01**3, rel=1e-12
        )

    def test_outage_only(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.0)
        topo = Topology(2, 0.01)
        assert replication_unavailability(model, topo, 2) == pytest.approx(
            1e-4, rel=1e-12
        )

    def test_mixed(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.001)
        topo = Topology(2, 0.01)
        expected = (0.01 + 0.99 * 0.001) ** 2
        assert replication_unavailability(model, topo, 2) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(1.21e-4, rel=5e-3)

    def test_more_replicas_than_dcs_rejected(self):
        model = DiskFailureModel(0.001)
        with pytest.raises(ValueError):
            replication_unavailability(model, Topology(2, 0.0), 3)

    def test_agrees_with_placement_enumeration(self):
        model = DiskFailureModel(p_dead=0.001, p_unavail=0.02)
        topo = Topology(3, 0.05)
        placement = balanced_placement(ReplicationScheme(3), topo)
        assert replication_unavailability(model, topo, 3) == pytest.approx(
            placement_unavailability(model, topo, placement), rel=1e-12
        )


class TestEcUnavailability:
    def test_no_outages_reduces_to_loss_tail(self):
        model = DiskFailureModel(p_dead=0.001, p_unavail=0.01)
        topo = Topology(3, 0.0)
        placement = balanced_placement(ErasureScheme(8, 3), topo)
        assert ec_unavailability(model, topo, placement) == prob_loss_ec(0.01, 8, 3)

    def test_8_4_split_across_two_dcs(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.0)
        topo = Topology(2, 0.01)
        placement = balanced_placement(ErasureScheme(8, 4), topo)  # 6 and 6
        value = ec_unavailability(model, topo, placement)
        assert value == pytest.approx(1 - 0.99**2, rel=1e-12)
        assert value == pytest.approx(0.0199, rel=1e-10)

    def test_everything_in_one_dc(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.0)
        topo = Topology(2, 0.03)
        placement = Placement(ErasureScheme(4, 2), (0,) * 6)
        assert ec_unavailability(model, topo, placement) == pytest.approx(
            0.03, rel=1e-12
        )

    def test_one_fragment_per_dc_is_binomial_in_q(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.0)
        topo = Topology(5, 0.07)
        placement = Placement(ErasureScheme(3, 2), (0, 1, 2, 3, 4))
        assert ec_unavailability(model, topo, placement) == pytest.approx(
            binomial_tail(0.07, 5, 2), rel=1e-12
        )

    @pytest.mark.parametrize(
        "m,n,assignment,q,p_u",
        [
            (2, 2, (0, 0, 1, 1), 0.05, 0.02),
            (3, 2, (0, 1, 2, 0, 1), 0.1, 0.05),
            (4, 2, (0, 0, 0, 1, 1, 1), 0.02, 0.1),
            (2, 1, (0, 1, 1), 0.3, 0.2),
            (5, 3, (0, 1, 0, 1, 0, 1, 0, 1), 0.01, 0.005),
        ],
    )
    def test_joint_enumeration_oracle(self, m, n, assignment, q, p_u):
        model = DiskFailureModel(p_dead=0.0, p_unavail=p_u)
        dcs = max(assignment) + 1
        topo = Topology(dcs, q)
        placement = Placement(ErasureScheme(m, n), assignment)
        expected = enumerate_unavailability(p_u, topo.outage_probs, assignment, m)
        assert ec_unavailability(model, topo, placement) == pytest.approx(
            expected, rel=1e-9
        )

    def test_per_dc_outage_probabilities(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.04)
        topo = Topology(3, (0.01, 0.1, 0.3))
        assignment = (0, 1, 2, 0, 1)
        placement = Placement(ErasureScheme(3, 2), assignment)
        expected = enumerate_unavailability(0.04, topo.outage_probs, assignment, 3)
        assert ec_unavailability(model, topo, placement) == pytest.approx(
            expected, rel=1e-9
        )

    def test_invariant_under_dc_relabeling(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.03)
        topo = Topology(3, 0.05)
        scheme = ErasureScheme(4, 2)
        base = (0, 0, 1, 1, 2, 2)
        reference = ec_unavailability(model, topo, Placement(scheme, base))
        for perm in itertools.permutations(range(3)):
            relabeled = tuple(perm[dc] for dc in base)
            assert ec_unavailability(
                model, topo, Placement(scheme, relabeled)
            ) == pytest.approx(reference, rel=1e-12)

    def test_invariant_under_fragment_shuffle_within_dcs(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.03)
        topo = Topology(2, 0.05)
        scheme = ErasureScheme(4, 2)
        a = ec_unavailability(model, topo, Placement(scheme, (0, 0, 0, 1, 1, 1)))
        b = ec_unavailability(model, topo, Placement(scheme, (1, 0, 1, 0, 1, 0)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_colocation_only_hurts(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.02)
        scheme = ErasureScheme(4, 2)
        baseline = prob_loss_ec(0.02, 4, 2)
        for dcs, assignment in [
            (2, (0, 0, 0, 1, 1, 1)),
            (3, (0, 0, 1, 1, 2, 2)),
            (1, (0, 0, 0, 0, 0, 0)),
        ]:
            topo = Topology(dcs, 0.01)
            value = ec_unavailability(model, topo, Placement(scheme, assignment))
            assert value >= baseline

    def test_balanced_spread_survives_one_dc_as_q_vanishes(self):
        # per-DC load <= n means a single outage cannot block reads
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.0)
        for m, n, dcs in [(6, 3, 3), (8, 4, 3), (4, 2, 3)]:
            scheme = ErasureScheme(m, n)
            load = -(-(m + n) // dcs)
            assert load <= n
            for q in (1e-3, 1e-4):
                topo = Topology(dcs, q)
                value = ec_unavailability(model, topo, balanced_placement(scheme, topo))
                assert value < dcs**2 * q**2  # second order: one outage is survivable

    @pytest.mark.parametrize(
        "m,n,qs,p_u",
        [
            (4, 3, (0.01, 0.2, 0.05, 0.3, 0.001, 0.1, 0.07), 0.03),
            (5, 3, (0.15, 0.002, 0.04, 0.25, 0.09, 0.01, 0.3, 0.06), 0.1),
        ],
        ids=["rs4+3-d7", "rs5+3-d8"],
    )
    def test_beyond_six_dcs_matches_joint_enumeration(self, m, n, qs, p_u):
        model = DiskFailureModel(p_dead=0.0, p_unavail=p_u)
        topo = Topology(len(qs), qs)
        assignment = tuple(range(m + n))  # one fragment per DC
        expected = enumerate_unavailability(p_u, qs, assignment, m)
        assert ec_unavailability(
            model, topo, Placement(ErasureScheme(m, n), assignment)
        ) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dcs", range(1, 11))
    def test_no_outages_is_the_loss_tail_bit_for_bit(self, dcs):
        topo = Topology(dcs, 0.0)
        for m, n in [(8, 3), (4, 2), (10, 4), (1, 2)]:
            for p_u in (1e-12, 1e-4, 0.05):
                model = DiskFailureModel(p_dead=0.0, p_unavail=p_u)
                placement = balanced_placement(ErasureScheme(m, n), topo)
                assert placement_unavailability(model, topo, placement) == prob_loss_ec(
                    p_u, m, n
                )

    def test_empty_dcs_change_nothing(self):
        # fragments in DCs 0, 5 and 9 of 12 against the same layout in 0..2
        for scheme, base in [(ErasureScheme(8, 3), (0, 1, 2) * 3 + (0, 1)),
                             (ReplicationScheme(3), (0, 0, 1))]:
            spread = tuple((0, 5, 9)[dc] for dc in base)
            for q in (0.001, 0.01, 0.03, 0.1, 0.3):
                for p_u in (1e-4, 0.01):
                    model = DiskFailureModel(p_dead=0.0, p_unavail=p_u)
                    assert placement_unavailability(
                        model, Topology(12, q), Placement(scheme, spread)
                    ) == placement_unavailability(
                        model, Topology(3, q), Placement(scheme, base)
                    )

    def test_placement_outside_topology_rejected(self):
        model = DiskFailureModel(0.001)
        placement = Placement(ErasureScheme(2, 1), (0, 1, 2))
        with pytest.raises(ValueError, match="outside topology"):
            ec_unavailability(model, Topology(2, 0.01), placement)

    def test_replication_folds_and_lrc_is_refused(self):
        # a replication placement is RS 1+(k-1) to the fold; the LRC is not MDS
        model = DiskFailureModel(0.001)
        topo = Topology(3, 0.01)
        placement = Placement(ReplicationScheme(3), (0, 0, 1))
        assert ec_unavailability(model, topo, placement) == placement_unavailability(
            model, topo, placement
        )
        one_per_dc = balanced_placement(ReplicationScheme(3), topo)
        assert ec_unavailability(model, topo, one_per_dc) == pytest.approx(
            replication_unavailability(model, topo, 3), rel=1e-12
        )
        with pytest.raises(TypeError, match="MDS"):
            ec_unavailability(model, topo, balanced_placement(LRC_6_2_2, topo))


class TestPlacementType:
    def test_assignment_must_cover_scheme(self):
        with pytest.raises(ValueError):
            Placement(ErasureScheme(2, 1), (0, 1))

    def test_negative_dc_rejected(self):
        with pytest.raises(ValueError):
            Placement(ErasureScheme(2, 1), (0, 1, -1))

    def test_balanced_round_robin(self):
        placement = balanced_placement(ErasureScheme(8, 4), 2)
        assert placement.assignment == (0, 1) * 6

    def test_scheme_without_fragment_count_rejected(self):
        with pytest.raises(TypeError):
            Placement("rep:3", (0, 0, 0))


class TestTopology:
    def test_uniform_expansion(self):
        assert Topology(3, 0.01).outage_probs == (0.01, 0.01, 0.01)

    def test_sequence_length_checked(self):
        with pytest.raises(ValueError):
            Topology(3, (0.1, 0.2))

    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            Topology(2, 1.5)

    def test_dc_count_positive(self):
        with pytest.raises(ValueError):
            Topology(0, 0.1)
