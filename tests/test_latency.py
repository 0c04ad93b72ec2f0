import math

import pytest

from durakit.latency import (
    LatencyProfile,
    approx_latency_ec,
    approx_latency_replication,
    expected_latency_replication,
)

from oracles import enumerate_failover_latency


class TestExpectedLatency:
    def test_two_site_worked_example(self):
        profile = LatencyProfile((1.0, 100.0))
        value = expected_latency_replication(profile, 0.001)
        assert value == pytest.approx(1.0989, abs=5e-5)
        assert round(value, 4) == 1.0989

    def test_zero_p_is_nearest_site(self):
        profile = LatencyProfile((3.0, 10.0, 50.0))
        assert expected_latency_replication(profile, 0.0) == 3.0

    def test_constant_profile_exposes_unnormalized_mass(self):
        profile = LatencyProfile((7.0, 7.0, 7.0, 7.0))
        for p in (0.0, 0.01, 0.4):
            assert expected_latency_replication(profile, p) == pytest.approx(
                7.0 * (1 - p**4), rel=1e-12
            )

    def test_conditional_variant_renormalizes(self):
        profile = LatencyProfile((7.0, 7.0, 7.0))
        assert expected_latency_replication(
            profile, 0.3, conditional=True
        ) == pytest.approx(7.0, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.001, 0.05, 0.3, 0.7])
    @pytest.mark.parametrize(
        "latencies", [(1.0, 100.0), (1.0, 2.0, 5.0), (0.5, 0.5, 8.0, 9.0)]
    )
    def test_enumeration_oracle(self, p, latencies):
        profile = LatencyProfile(latencies)
        assert expected_latency_replication(profile, p) == pytest.approx(
            enumerate_failover_latency(latencies, p), rel=1e-12
        )

    def test_monotone_in_p_for_increasing_profile(self):
        profile = LatencyProfile((1.0, 10.0, 100.0))
        values = [
            expected_latency_replication(profile, p)
            for p in (0.0, 0.01, 0.05, 0.1, 0.2)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_each_latency(self):
        base = expected_latency_replication(LatencyProfile((1.0, 10.0, 50.0)), 0.1)
        assert (
            expected_latency_replication(LatencyProfile((2.0, 10.0, 50.0)), 0.1) > base
        )
        assert (
            expected_latency_replication(LatencyProfile((1.0, 12.0, 50.0)), 0.1) > base
        )
        assert (
            expected_latency_replication(LatencyProfile((1.0, 10.0, 60.0)), 0.1) > base
        )

    def test_rejects_p_of_one(self):
        with pytest.raises(ValueError):
            expected_latency_replication(LatencyProfile((1.0, 2.0)), 1.0)


class TestApproximations:
    def test_replication_worked_example(self):
        value = approx_latency_replication(1.0, 100.0, 0.001)
        assert round(value, 3) == 1.099
        assert value == pytest.approx(1.099, rel=1e-9)

    def test_ec_worked_example(self):
        value = approx_latency_ec(1.0, 100.0, 0.001, 8)
        assert round(value, 3) == 1.799
        assert value == pytest.approx(1.799, rel=1e-9)

    def test_zero_p(self):
        assert approx_latency_replication(1.0, 100.0, 0.0) == 1.0
        assert approx_latency_ec(1.0, 100.0, 0.0, 8) == 1.0

    def test_m_of_one_matches_replication(self):
        for p in (0.0, 0.001, 0.2):
            assert approx_latency_ec(2.0, 30.0, p, 1) == approx_latency_replication(
                2.0, 30.0, p
            )

    def test_ec_penalty_is_exactly_extra_remote_mass(self):
        for p in (0.0, 0.001, 0.05):
            for m in (1, 2, 8):
                gap = approx_latency_ec(1.0, 100.0, p, m) - approx_latency_replication(
                    1.0, 100.0, p
                )
                assert gap == pytest.approx((m - 1) * p * 100.0, rel=1e-9, abs=1e-12)
                assert gap >= 0.0

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.05, 0.2])
    @pytest.mark.parametrize(
        "latencies",
        [(1.0, 100.0), (1.0, 2.0, 5.0), (0.5, 3.0, 8.0, 9.0), (2.0, 2.0, 2.0)],
    )
    def test_exact_vs_approx_bounded_by_p_squared(self, p, latencies):
        profile = LatencyProfile(latencies)
        exact = expected_latency_replication(profile, p)
        approx = approx_latency_replication(
            latencies[0], latencies[min(1, len(latencies) - 1)], p
        )
        assert abs(exact - approx) <= p**2 * latencies[-1] + 1e-15

    def test_two_site_gap_is_exactly_p_squared_l2(self):
        p = 0.03
        exact = expected_latency_replication(LatencyProfile((1.0, 100.0)), p)
        approx = approx_latency_replication(1.0, 100.0, p)
        assert approx - exact == pytest.approx(p**2 * 100.0, rel=1e-9)

    def test_warns_when_mp_saturates(self):
        with pytest.warns(UserWarning, match="unreliable"):
            approx_latency_ec(1.0, 100.0, 0.2, 8)


class TestLatencyProfile:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LatencyProfile(())

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            LatencyProfile((5.0, 3.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LatencyProfile((0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LatencyProfile((1.0, bad))

    def test_site_count(self):
        assert LatencyProfile((1.0, 2.0, 3.0)).site_count == 3
