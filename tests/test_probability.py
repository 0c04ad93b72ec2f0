
import math
import random
import sys

import pytest

from durakit.codec import LRC_6_2_2
from durakit.errors import SolverBoundError
from durakit.probability import (
    DEFAULT_PARITY_CAP,
    DiskFailureModel,
    ErasureScheme,
    ReplicationScheme,
    binomial_tail,
    gaussian_parity_estimate,
    gaussian_tail_loss,
    meets_target,
    parity_needed,
    prob_any_failure,
    prob_loss_ec,
    prob_loss_replication,
    redundancy_factor,
    replicas_needed,
)

from oracles import enumerate_loss, exact_binomial_tail


class TestReplicationLoss:
    def test_worked_example(self):
        value = prob_loss_replication(0.005, 3)
        assert value == 0.005**3
        assert value == pytest.approx(1.25e-7, rel=1e-12)

    def test_single_copy_is_p(self):
        assert prob_loss_replication(0.37, 1) == 0.37

    def test_perfect_disks(self):
        assert prob_loss_replication(0.0, 5) == 0.0

    @pytest.mark.parametrize("p,k", [(-0.1, 3), (1.5, 3)])
    def test_rejects_bad_probability(self, p, k):
        with pytest.raises(ValueError):
            prob_loss_replication(p, k)

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            prob_loss_replication(0.1, 0)


class TestErasureLoss:
    def test_worked_example_8_3(self):
        value = prob_loss_ec(0.005, 8, 3)
        # frozen from the exact rational sum over Binomial(11, 0.005)
        assert value == pytest.approx(2.0054667412485277e-07, rel=1e-12, abs=0.0)
        assert value == pytest.approx(1.99e-7, rel=0.01)

    def test_no_parity_any_failure_fatal(self):
        for p in (0.0, 1e-3, 0.2, 1.0):
            assert prob_loss_ec(p, 5, 0) == pytest.approx(
                prob_any_failure(p, 5), rel=1e-12, abs=0.0
            )

    def test_enumeration_oracle_2_1(self):
        value = prob_loss_ec(0.1, 2, 1)
        assert value == pytest.approx(0.028, rel=1e-12)
        assert value == pytest.approx(enumerate_loss(0.1, 2, 1), rel=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1), (4, 2), (2, 4)])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
    def test_enumeration_oracle_grid(self, m, n, p):
        assert prob_loss_ec(p, m, n) == pytest.approx(
            enumerate_loss(p, m, n), rel=1e-10, abs=1e-300
        )

    def test_extreme_probabilities(self):
        assert prob_loss_ec(0.0, 8, 3) == 0.0
        assert prob_loss_ec(1.0, 8, 3) == 1.0

    def test_matches_replication_exactly(self):
        # replication is the m=1 special case, bit for bit
        for p in (1e-6, 1e-4, 0.005, 0.3, 0.99):
            for k in (1, 2, 3, 5, 8):
                assert prob_loss_ec(p, 1, k - 1) == prob_loss_replication(p, k)

    def test_exact_oracle_small_p_large_total(self):
        # robustness floor: p = 1e-6 with 64 disks
        value = prob_loss_ec(1e-6, 48, 16)
        expected = float(exact_binomial_tail(1e-6, 64, 16))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "p,total,threshold", [(0.5, 1030, 500), (0.25, 1100, 300)]
    )
    def test_exact_oracle_past_float_binomials(self, p, total, threshold):
        # C(total, total // 2) no longer fits a float from total = 1030 on
        value = binomial_tail(p, total, threshold)
        expected = float(exact_binomial_tail(p, total, threshold))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "p,total,threshold", [(2.67e-4, 213, 93), (0.002711, 182, 123)]
    )
    def test_exact_oracle_below_float_factors(self, p, total, threshold):
        # p**i leaves the normal float range although the tail does not:
        # summed directly, these came out as 0.0 and 2.8e-6 relative off
        value = binomial_tail(p, total, threshold)
        expected = float(exact_binomial_tail(p, total, threshold))
        assert expected > 1e-300
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,total,threshold", [
        (0.01, 1130, 30),
        (0.005, 11, 3),
        (0.5, 100, 50),
        (0.5, 16000, 8400),
    ])
    def test_exact_oracle_saddle_point_top_term(self, p, total, threshold):
        # totals up to 16,000: a largest term formed in log space would lose
        # digits as the total grows
        value = binomial_tail(p, total, threshold)
        expected = float(exact_binomial_tail(p, total, threshold))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_exact_oracle_sampled_domain(self):
        # m+n up to the field size, p from 1e-12 to 1 - 1e-12
        rng = random.Random(5)
        for _ in range(60):
            total = rng.randint(2, 255)
            p = 10 ** rng.uniform(-12, -1e-12)
            if rng.random() < 0.2:
                p = 1.0 - p
            threshold = rng.randint(0, total - 1)
            expected = float(exact_binomial_tail(p, total, threshold))
            value = binomial_tail(p, total, threshold)
            if expected < sys.float_info.min:
                assert value < 2 * sys.float_info.min, (p, total, threshold)
            else:
                assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (
                    p, total, threshold,
                )

    @pytest.mark.parametrize("p", [1e-4, 1e-3, 1e-2, 0.1])
    def test_exact_oracle_medium_grid(self, p):
        for total in range(2, 13):
            for m in range(1, total + 1):
                n = total - m
                expected = exact_binomial_tail(p, total, n)
                if expected == 0:
                    assert prob_loss_ec(p, m, n) == 0.0
                else:
                    assert prob_loss_ec(p, m, n) == pytest.approx(
                        float(expected), rel=1e-12, abs=0.0
                    )

    def test_monotone_in_n(self):
        for p in (0.001, 0.05, 0.3):
            values = [prob_loss_ec(p, 5, n) for n in range(9)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_m(self):
        for p in (0.001, 0.05, 0.3):
            values = [prob_loss_ec(p, m, 3) for m in range(1, 9)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestScalingProperty:
    def test_proportional_growth_never_hurts(self):
        # all desk-scale shapes, scaled up to 8x
        for total in range(2, 9):
            for m in range(1, total):
                n = total - m
                for p in (0.001, 0.01, 0.05):
                    if not p < n / (m + n):
                        continue
                    values = [prob_loss_ec(p, k * m, k * n) for k in range(1, 9)]
                    assert all(
                        b <= a for a, b in zip(values, values[1:])
                    ), (m, n, p, values)

    def test_4_2_beats_2_1_at_equal_redundancy(self):
        for p in (0.001, 0.01, 0.05):
            assert prob_loss_ec(p, 4, 2) < prob_loss_ec(p, 2, 1)


class TestReplicasNeeded:
    def test_worked_example(self):
        assert replicas_needed(1e-6, 0.005) == 3

    def test_epsilon_equal_p(self):
        assert replicas_needed(0.005, 0.005) == 1

    def test_exact_log_ratio(self):
        assert replicas_needed(1e-9, 1e-3) == 3

    def test_near_integer_ratios_settled_by_powering(self):
        for k in (2, 7, 23, 40):
            assert replicas_needed(0.37**k, 0.37) == k

    def test_minimality(self):
        for epsilon in (1e-3, 1e-7, 0.4):
            for p in (0.001, 0.1, 0.9):
                k = replicas_needed(epsilon, p)
                assert p**k <= epsilon
                assert k == 1 or p ** (k - 1) > epsilon

    @pytest.mark.parametrize("epsilon,p", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_rejects_degenerate_inputs(self, epsilon, p):
        with pytest.raises(ValueError):
            replicas_needed(epsilon, p)


class TestParityNeeded:
    def test_worked_example(self):
        assert parity_needed(1e-6, 0.005, 8) == 3

    def test_single_data_disk_consistent_with_replication(self):
        # m=1 loss is p**(n+1); two parities match triple replication
        assert parity_needed(1e-6, 0.005, 1) == 2

    def test_first_candidate_passes(self):
        assert parity_needed(0.5, 1e-12, 4) == 1

    def test_cap_exceeded(self):
        with pytest.raises(SolverBoundError):
            parity_needed(1e-30, 0.5, 8, cap=4)

    def test_solver_correctness_property(self):
        for epsilon in (1e-3, 1e-6, 1e-10):
            for p in (0.001, 0.01, 0.1):
                for m in (1, 4, 8, 12):
                    n = parity_needed(epsilon, p, m)
                    assert prob_loss_ec(p, m, n) <= epsilon
                    assert n == 1 or prob_loss_ec(p, m, n - 1) > epsilon


class TestOneTargetRule:
    P_VALUES = [10.0**-e for e in range(1, 7)] + [0.5, 0.25, 0.2, 0.05, 0.005]
    EPSILON_VALUES = [10.0**-e for e in range(1, 16)] + [0.125, 0.25]

    def test_meets_target_admits_equality(self):
        assert meets_target(1e-6, 1e-6)
        assert meets_target(0.0, 1e-6)
        assert not meets_target(math.nextafter(1e-6, 1.0), 1e-6)

    def test_one_parity_code_sized_like_replication(self):
        # RS 1+n is rep:(n+1) bit for bit, so both solvers agree on all
        # 187 round (p, epsilon) pairs wherever replication needs 2..65 copies
        checked = 0
        for p in self.P_VALUES:
            for epsilon in self.EPSILON_VALUES:
                k = replicas_needed(epsilon, p)
                if 2 <= k <= DEFAULT_PARITY_CAP + 1:
                    assert parity_needed(epsilon, p, 1) == k - 1, (p, epsilon, k)
                    checked += 1
        assert len(self.P_VALUES) * len(self.EPSILON_VALUES) == 187
        assert checked > 100


class TestRedundancyFactor:
    def test_erasure_8_3(self):
        assert redundancy_factor(ErasureScheme(8, 3)) == 1.375

    def test_replication_equals_degenerate_erasure(self):
        for k in range(1, 7):
            assert redundancy_factor(ReplicationScheme(k)) == redundancy_factor(
                ErasureScheme(1, k - 1)
            )

    def test_lrc_6_2_2(self):
        assert redundancy_factor(LRC_6_2_2) == 10 / 6

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            redundancy_factor("rep:3")


class TestAnyFailure:
    def test_single_disk(self):
        assert prob_any_failure(0.37, 1) == 0.37

    def test_two_disks(self):
        assert prob_any_failure(0.1, 2) == pytest.approx(0.19, rel=1e-12)

    def test_approximation_small_p(self):
        assert prob_any_failure(0.005, 11) == pytest.approx(0.055, rel=5e-2)

    def test_recoverable_failure_ratio_is_nearly_four(self):
        exact = prob_any_failure(0.005, 11) / prob_any_failure(0.005, 3)
        assert 3.5 < exact < 11 / 3

    def test_small_p_precision(self):
        # 1 - (1-p)**m loses everything if computed naively at p = 1e-12
        assert prob_any_failure(1e-12, 10) == pytest.approx(1e-11, rel=1e-9)


class TestGaussianTail:
    def test_mean_threshold_gives_half(self):
        # n = (m+n)*p exactly: standardized threshold is zero
        assert gaussian_tail_loss(0.5, 1, 1, scale=1) == 0.5

    def test_decreases_with_scale(self):
        values = [gaussian_tail_loss(0.005, 8, 3, scale=k) for k in range(1, 7)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-60

    def test_rejects_p_above_bound(self):
        with pytest.raises(ValueError):
            gaussian_tail_loss(0.6, 1, 1)

    def test_zero_p(self):
        assert gaussian_tail_loss(0.0, 8, 3) == 0.0

    def test_unreliable_at_small_fragment_counts(self):
        exact = prob_loss_ec(0.005, 8, 3)
        approx = gaussian_tail_loss(0.005, 8, 3)
        assert exact / approx > 10

    def test_underestimates_parity_requirement(self):
        claimed = gaussian_parity_estimate(1e-6, 0.005, 8)
        assert claimed == 2
        assert claimed < parity_needed(1e-6, 0.005, 8)


class TestBinomialTail:
    def test_threshold_at_or_above_total(self):
        assert binomial_tail(0.3, 5, 5) == 0.0
        assert binomial_tail(0.3, 5, 9) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_tail(0.3, 0, 0)
        with pytest.raises(ValueError):
            binomial_tail(0.3, 5, -1)
        with pytest.raises(ValueError):
            binomial_tail(1.0001, 5, 2)


class TestDomainTypes:
    def test_model_defaults_unavailability_to_dead(self):
        model = DiskFailureModel(0.001)
        assert model.p_unavail == 0.001

    def test_model_rejects_dead_above_unavail(self):
        with pytest.raises(ValueError):
            DiskFailureModel(p_dead=0.01, p_unavail=0.001)

    def test_model_admits_equality(self):
        DiskFailureModel(p_dead=0.01, p_unavail=0.01)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_model_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            DiskFailureModel(bad)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            ReplicationScheme(0)
        with pytest.raises(ValueError):
            ErasureScheme(0, 3)
        with pytest.raises(ValueError):
            ErasureScheme(4, -1)

    def test_labels_and_counts(self):
        assert ErasureScheme(8, 3).label == "ec:8+3"
        assert ErasureScheme(8, 3).fragment_count == 11
        assert ReplicationScheme(3).fragment_count == 3

    def test_redundancy_factor_at_least_one(self):
        assert redundancy_factor(ErasureScheme(9, 0)) == 1.0
