import math
import os
import tracemalloc

import numpy as np
import pytest

from durakit import latency, simulate
from durakit.errors import RareEventError
from durakit.latency import LatencyProfile, expected_latency_replication
from durakit.parallel import worker_count
from durakit.placement import Topology, balanced_placement, placement_unavailability
from durakit.probability import (
    DiskFailureModel,
    ErasureScheme,
    ReplicationScheme,
    prob_loss_ec,
)
from durakit.simulate import (
    ec_read_latency_expectation,
    simulate_availability,
    simulate_latency,
    simulate_loss,
)

from oracles import exact_binomial_pmf, exact_first_available_pmf, exact_reachable_pmf


class TestDeterminism:
    def test_identical_config_identical_result(self):
        a = simulate_loss(0.1, 2, 1, 200_000, seed=42)
        b = simulate_loss(0.1, 2, 1, 200_000, seed=42)
        assert a == b

    def test_thread_count_does_not_change_results(self):
        for threads in (2, 3, 8):
            assert simulate_loss(0.1, 4, 2, 300_000, seed=7, threads=threads) == (
                simulate_loss(0.1, 4, 2, 300_000, seed=7, threads=1)
            )

    def test_thread_count_does_not_change_latency_mean(self):
        profile = LatencyProfile((1.0, 100.0))
        base = simulate_latency(profile, 0.05, 300_000, seed=3, threads=1)
        for threads in (2, 5):
            assert simulate_latency(profile, 0.05, 300_000, seed=3, threads=threads) == base

    def test_thread_count_does_not_change_availability(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.1)
        topo = Topology(3, 0.05)
        placement = balanced_placement(ErasureScheme(4, 2), topo)
        base = simulate_availability(model, topo, placement, 200_000, seed=13)
        for threads in (2, 4):
            rerun = simulate_availability(
                model, topo, placement, 200_000, seed=13, threads=threads
            )
            assert rerun == base

    def test_different_seeds_differ(self):
        a = simulate_loss(0.1, 2, 1, 100_000, seed=1)
        b = simulate_loss(0.1, 2, 1, 100_000, seed=2)
        assert a.events != b.events

    def test_worker_count_clamped_to_chunks_and_cpus(self, pools):
        pools.reset(3)
        assert worker_count(1, 100) == 1
        assert worker_count(10**9, 2) == 2
        assert worker_count(10**9, 10**9) == 3
        assert worker_count(2, 10**9) == 2

    def test_partial_final_chunk(self):
        # trials deliberately not a multiple of the chunk size
        result = simulate_loss(0.2, 2, 1, 65_537, seed=5)
        assert result.trials == 65_537


class TestLossScenario:
    def test_trivial_zero_p(self):
        result = simulate_loss(0.0, 2, 1, 10_000, seed=0)
        assert result.events == 0
        assert result.point_estimate == 0.0
        assert result.standard_error == 0.0
        assert result.z_score == 0.0  # matches the analytic zero exactly

    def test_trivial_certain_loss(self):
        result = simulate_loss(1.0, 2, 1, 10_000, seed=0)
        assert result.events == 10_000
        assert result.analytic == 1.0
        assert result.z_score == 0.0

    def test_calibrated_against_analytic(self):
        result = simulate_loss(0.1, 2, 1, 1_000_000, seed=42)
        assert result.analytic == prob_loss_ec(0.1, 2, 1)
        assert abs(result.z_score) < 3
        assert result.point_estimate == pytest.approx(0.028, rel=0.05)

    def test_standard_error_formula(self):
        result = simulate_loss(0.3, 2, 2, 50_000, seed=9)
        p_hat = result.events / result.trials
        assert result.standard_error == math.sqrt(p_hat * (1 - p_hat) / result.trials)

    def test_calibration_grid_of_twelve_points(self):
        points = [
            (0.05, 2, 1), (0.1, 2, 1), (0.2, 2, 1), (0.1, 4, 2),
            (0.2, 4, 2), (0.3, 4, 2), (0.1, 8, 3), (0.2, 8, 3),
            (0.3, 2, 2), (0.15, 6, 3), (0.25, 3, 2), (0.05, 4, 1),
        ]
        z_scores = []
        for p, m, n in points:
            result = simulate_loss(p, m, n, 1_000_000, seed=7)
            assert result.analytic >= 1e-4
            z_scores.append(result.z_score)
        assert all(abs(z) < 4 for z in z_scores), z_scores
        assert sum(abs(z) > 3 for z in z_scores) <= 1, z_scores

    def test_rare_event_guard(self):
        with pytest.raises(RareEventError, match="increase"):
            simulate_loss(0.005, 8, 3, 1_000, seed=0)

    def test_guard_spares_exact_zero(self):
        simulate_loss(0.0, 8, 3, 100, seed=0)  # nothing to estimate; allowed

    @pytest.mark.parametrize("kwargs", [
        {"trials": 0}, {"seed": -1}, {"seed": 2**64}, {"threads": 0},
    ])
    def test_run_parameter_validation(self, kwargs):
        defaults = {"trials": 100, "seed": 0, "threads": 1}
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            simulate_loss(0.5, 2, 1, defaults["trials"], seed=defaults["seed"],
                          threads=defaults["threads"])


class TestAvailabilityScenario:
    def test_no_outages_reduces_to_loss(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.1)
        topo = Topology(3, 0.0)
        placement = balanced_placement(ErasureScheme(4, 2), topo)
        result = simulate_availability(model, topo, placement, 500_000, seed=11)
        assert result.analytic == prob_loss_ec(0.1, 4, 2)
        assert abs(result.z_score) < 4

    def test_certain_outage(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.0)
        topo = Topology(2, 1.0)
        placement = balanced_placement(ErasureScheme(2, 1), topo)
        result = simulate_availability(model, topo, placement, 5_000, seed=0)
        assert result.events == 5_000

    def test_split_8_4_example(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.0)
        topo = Topology(2, 0.01)
        placement = balanced_placement(ErasureScheme(8, 4), topo)
        result = simulate_availability(model, topo, placement, 1_000_000, seed=13)
        assert result.analytic == pytest.approx(0.0199, rel=1e-8)
        assert abs(result.z_score) < 3

    def test_replication_placement(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.05)
        topo = Topology(3, 0.02)
        placement = balanced_placement(ReplicationScheme(3), topo)
        result = simulate_availability(model, topo, placement, 1_000_000, seed=17)
        assert result.analytic == placement_unavailability(model, topo, placement)
        assert abs(result.z_score) < 4

    def test_replication_two_dc_example_cross_checked(self):
        # (q + (1-q) * p_unavail)**2 with q=0.01, p_unavail=0.001
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.001)
        topo = Topology(2, 0.01)
        placement = balanced_placement(ReplicationScheme(2), topo)
        result = simulate_availability(model, topo, placement, 1_000_000, seed=19)
        assert result.analytic == pytest.approx((0.01 + 0.99 * 0.001) ** 2, rel=1e-12)
        assert result.analytic == pytest.approx(1.21e-4, rel=5e-3)
        assert abs(result.z_score) < 3

    def test_heterogeneous_outage_probabilities(self):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.02)
        topo = Topology(3, (0.01, 0.1, 0.25))
        placement = balanced_placement(ErasureScheme(4, 2), topo)
        result = simulate_availability(model, topo, placement, 1_000_000, seed=41)
        assert result.analytic == placement_unavailability(model, topo, placement)
        assert abs(result.z_score) < 4

    @pytest.mark.parametrize("dcs", [7, 8, 9, 10])
    def test_beyond_six_dcs_cross_checked(self, dcs):
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.1)
        topo = Topology(dcs, tuple(0.02 + 0.01 * i for i in range(dcs)))
        placement = balanced_placement(ErasureScheme(8, 4), topo)
        result = simulate_availability(model, topo, placement, 200_000, seed=dcs)
        assert result.analytic == placement_unavailability(model, topo, placement)
        assert result.events > 1_000
        assert abs(result.z_score) < 4

    def test_unknown_scheme_rejected(self):
        model = DiskFailureModel(0.0)
        topo = Topology(2, 0.0)
        with pytest.raises(TypeError):
            placement = balanced_placement(ErasureScheme(2, 1), topo)
            object.__setattr__(placement, "scheme", "weird")
            simulate_availability(model, topo, placement, 100, seed=0)


class TestLatencyScenario:
    def test_zero_p_always_nearest(self):
        profile = LatencyProfile((2.0, 10.0))
        result = simulate_latency(profile, 0.0, 10_000, seed=0)
        assert result.point_estimate == 2.0
        assert result.standard_error == 0.0
        assert result.unserved_trials == 0
        assert result.z_score == 0.0

    @pytest.mark.parametrize("ec", [None, ErasureScheme(8, 3)])
    def test_one_valued_sample_takes_z_from_the_model_variance(self, ec):
        # every trial reads L1, so the sample variance is zero; the model's
        # variance under p keeps z finite and small on a correct run
        profile = LatencyProfile((1.0, 100.0))
        result = simulate_latency(profile, 1e-9, 1_000, seed=0, ec=ec)
        assert result.point_estimate == 1.0
        assert result.standard_error == 0.0
        assert result.analytic > 1.0
        assert abs(result.z_score) < 0.1

    def test_replication_calibrated(self):
        profile = LatencyProfile((1.0, 100.0))
        result = simulate_latency(profile, 0.001, 1_000_000, seed=23)
        assert result.analytic == expected_latency_replication(profile, 0.001)
        assert abs(result.z_score) < 3

    def test_worked_example_means_within_three_standard_errors(self):
        profile = LatencyProfile((1.0, 100.0))
        rep = simulate_latency(profile, 0.001, 1_000_000, seed=23)
        assert abs(rep.point_estimate - 1.099) < 3 * rep.standard_error

        scheme = ErasureScheme(8, 3)
        ec = simulate_latency(profile, 0.001, 1_000_000, seed=31, ec=scheme)
        # allow the terms the two-term approximation drops
        approximation_gap = abs(ec.analytic - 1.799)
        assert abs(ec.point_estimate - 1.799) < 3 * ec.standard_error + approximation_gap

    def test_unserved_trials_counted(self):
        profile = LatencyProfile((1.0,))
        result = simulate_latency(profile, 0.5, 100_000, seed=29)
        assert result.unserved_trials == pytest.approx(50_000, rel=0.05)
        # unserved trials contribute zero, matching the unconditional sum
        assert result.analytic == 0.5
        assert abs(result.z_score) < 4

    def test_ec_mode_calibrated(self):
        profile = LatencyProfile((1.0, 100.0))
        scheme = ErasureScheme(8, 3)
        result = simulate_latency(profile, 0.001, 1_000_000, seed=31, ec=scheme)
        assert result.analytic == ec_read_latency_expectation(profile, 0.001, scheme)
        assert abs(result.z_score) < 4

    def test_ec_unserved_beyond_parity(self):
        profile = LatencyProfile((1.0, 100.0))
        scheme = ErasureScheme(2, 0)
        result = simulate_latency(profile, 0.5, 200_000, seed=37, ec=scheme)
        # any local failure is unservable with n=0
        assert result.unserved_trials == pytest.approx(150_000, rel=0.02)
        assert result.analytic == pytest.approx(0.25, rel=1e-12)
        assert abs(result.z_score) < 4

    def test_ec_expectation_approaches_two_term_approximation(self):
        profile = LatencyProfile((1.0, 100.0))
        exact = ec_read_latency_expectation(profile, 0.001, ErasureScheme(8, 3))
        assert exact == pytest.approx(1.799, abs=0.011)

    def test_ec_requires_two_sites(self):
        with pytest.raises(ValueError):
            simulate_latency(LatencyProfile((1.0,)), 0.1, 100, seed=0,
                             ec=ErasureScheme(4, 2))

    def test_rejects_p_of_one(self):
        with pytest.raises(ValueError):
            simulate_latency(LatencyProfile((1.0, 2.0)), 1.0, 100, seed=0)


SCENARIOS = {
    "loss": lambda trials, seed, threads: simulate_loss(
        0.2, 4, 2, trials, seed=seed, threads=threads),
    "availability": lambda trials, seed, threads: simulate_availability(
        DiskFailureModel(p_dead=0.0, p_unavail=0.05), Topology(3, (0.01, 0.05, 0.1)),
        balanced_placement(ErasureScheme(4, 2), Topology(3, (0.01, 0.05, 0.1))),
        trials, seed=seed, threads=threads),
    "latency-replication": lambda trials, seed, threads: simulate_latency(
        LatencyProfile((1.0, 20.0, 100.0)), 0.05, trials, seed=seed, threads=threads),
    "latency-ec": lambda trials, seed, threads: simulate_latency(
        LatencyProfile((1.0, 100.0)), 0.05, trials, seed=seed, threads=threads,
        ec=ErasureScheme(8, 3)),
}


class TestEngine:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_scenario_identical_at_any_thread_count(self, name):
        trials = 3 * simulate.CHUNK_TRIALS + 17  # three full chunks and a partial one
        base = SCENARIOS[name](trials, 11, 1)
        assert base.trials == trials
        for threads in (2, os.cpu_count() or 1):
            assert SCENARIOS[name](trials, 11, threads) == base

    def test_one_work_item_per_worker(self, pools):
        pools.reset(2)
        trials = 20 * simulate.CHUNK_TRIALS + 1  # 21 chunks
        result = simulate_loss(0.2, 2, 1, trials, seed=1, threads=2)
        assert pools.sizes == [2] and pools.started[0].jobs == [(0,), (1,)]
        assert result == simulate_loss(0.2, 2, 1, trials, seed=1, threads=1)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_too_many_trials_rejected_before_any_draw(self, name, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew trials for a refused run")

        monkeypatch.setattr(simulate.np.random, "Philox", no_draws)
        with pytest.raises(ValueError, match="MAX_TRIALS"):
            SCENARIOS[name](simulate.MAX_TRIALS + 1, 0, 1)

    def test_guard_names_the_trial_cap_when_it_is_out_of_reach(self):
        # prob_loss_ec(1e-4, 1, 2) = 1e-12 needs 1e13 trials, beyond MAX_TRIALS
        assert prob_loss_ec(1e-4, 1, 2) == pytest.approx(1e-12)
        with pytest.raises(RareEventError, match="exceed MAX_TRIALS") as info:
            simulate_loss(1e-4, 1, 2, 1_000_000, seed=0)
        assert "increase trials" not in str(info.value)

    def test_large_m_chunk_allocates_linear_memory(self):
        # one chunk of per-disk draws would hold CHUNK_TRIALS x (m+n) uniforms,
        # about 5.2 GB here; count draws need a uniform and a count per trial
        # plus a table of m+n+1 entries
        m, n = 10_000, 10
        tracemalloc.start()
        try:
            result = simulate_loss(0.5, m, n, simulate.CHUNK_TRIALS, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.events == simulate.CHUNK_TRIALS
        assert peak < 64 * (simulate.CHUNK_TRIALS + m + n)

    def test_oversized_table_is_refused_before_the_analytic_value(self, monkeypatch):
        def no_analytic(*args, **kwargs):
            raise AssertionError("computed the analytic value of a refused run")

        monkeypatch.setattr(simulate, "prob_loss_ec", no_analytic)
        with pytest.raises(ValueError, match="MAX_TABLE_COUNT"):
            simulate_loss(0.5, simulate.MAX_TABLE_COUNT, 1, 100, seed=0)

    def test_result_explains_its_numbers(self):
        loss = simulate_loss(0.3, 2, 2, 50_000, seed=9)
        assert loss.expected_events == loss.analytic * loss.trials
        assert loss.relative_standard_error == loss.standard_error / loss.point_estimate
        latency_mean = simulate_latency(LatencyProfile((1.0, 100.0)), 0.05, 10_000, seed=0)
        assert latency_mean.expected_events is None
        assert simulate_loss(0.0, 2, 1, 100, seed=0).relative_standard_error is None

    def test_ec_expectation_lives_with_the_latency_formulas(self):
        assert simulate.ec_read_latency_expectation is latency.ec_read_latency_expectation


def drawn_histogram(pmf, seed, chunks=4):
    """Counts drawn from ``pmf`` over a few chunks of the engine's streams."""
    draw = simulate._count_sampler(pmf)
    return sum(simulate._sample(chunks * simulate.CHUNK_TRIALS, seed, 1,
                                lambda rng, size: np.bincount(draw(rng, size),
                                                              minlength=len(pmf))))


def assert_histogram_matches(histogram, exact):
    """Per-bin z against the exact pmf; counts of probability zero never drawn."""
    trials = int(histogram.sum())
    for count, (seen, prob) in enumerate(zip(histogram, exact)):
        prob = float(prob)
        if prob == 0.0:
            assert seen == 0, (count, seen)
        elif prob == 1.0:
            assert seen == trials, (count, seen)
        else:
            z = (seen - trials * prob) / math.sqrt(trials * prob * (1.0 - prob))
            assert abs(z) < 5, (count, seen, trials * prob)


TABLES = {
    # the loss table: failures among m+n
    "loss 8+3": (lambda: simulate._binomial_pmf(11, 0.05),
                 lambda: exact_binomial_pmf(0.05, 11)),
    "loss 4+2": (lambda: simulate._binomial_pmf(6, 0.3),
                 lambda: exact_binomial_pmf(0.3, 6)),
    # the EC latency table: failures among the m local fragments
    "latency ec m=8": (lambda: simulate._binomial_pmf(8, 0.01),
                       lambda: exact_binomial_pmf(0.01, 8)),
    # the replication latency table: the nearest available site
    "latency rep 3 sites": (lambda: simulate._first_available_pmf(3, 0.05),
                            lambda: exact_first_available_pmf(0.05, 3)),
    "latency rep 5 sites": (lambda: simulate._first_available_pmf(5, 0.4),
                            lambda: exact_first_available_pmf(0.4, 5)),
    # the availability table: reachable fragments of one data center
    "availability 4 in a DC": (lambda: simulate._reachable_pmf(4, 0.01, 0.02),
                               lambda: exact_reachable_pmf(4, 0.01, 0.02)),
    "availability 3 in a DC": (lambda: simulate._reachable_pmf(3, 0.2, 0.3),
                               lambda: exact_reachable_pmf(3, 0.2, 0.3)),
}

DEGENERATE_TABLES = {
    "binomial p=0": (lambda: simulate._binomial_pmf(6, 0.0),
                     lambda: exact_binomial_pmf(0.0, 6)),
    "binomial p=1": (lambda: simulate._binomial_pmf(6, 1.0),
                     lambda: exact_binomial_pmf(1.0, 6)),
    "first available p=0": (lambda: simulate._first_available_pmf(3, 0.0),
                            lambda: exact_first_available_pmf(0.0, 3)),
    "first available p=1": (lambda: simulate._first_available_pmf(3, 1.0),
                            lambda: exact_first_available_pmf(1.0, 3)),
    "reachable q=0": (lambda: simulate._reachable_pmf(4, 0.0, 0.1),
                      lambda: exact_reachable_pmf(4, 0.0, 0.1)),
    "reachable q=1": (lambda: simulate._reachable_pmf(4, 1.0, 0.1),
                      lambda: exact_reachable_pmf(4, 1.0, 0.1)),
    "reachable p_u=0": (lambda: simulate._reachable_pmf(4, 0.3, 0.0),
                        lambda: exact_reachable_pmf(4, 0.3, 0.0)),
    "reachable p_u=1": (lambda: simulate._reachable_pmf(4, 0.3, 1.0),
                        lambda: exact_reachable_pmf(4, 0.3, 1.0)),
    "reachable q=0 p_u=0": (lambda: simulate._reachable_pmf(4, 0.0, 0.0),
                            lambda: exact_reachable_pmf(4, 0.0, 0.0)),
}


class TestCountTables:
    @pytest.mark.parametrize("name", TABLES)
    def test_table_matches_exact_pmf(self, name):
        table, exact = TABLES[name]
        np.testing.assert_allclose(table(), [float(v) for v in exact()], rtol=1e-13)

    @pytest.mark.parametrize("name", TABLES)
    def test_drawn_counts_follow_exact_pmf(self, name):
        table, exact = TABLES[name]
        assert_histogram_matches(drawn_histogram(table(), seed=5), exact())

    @pytest.mark.parametrize("name", DEGENERATE_TABLES)
    def test_degenerate_table_is_exact_and_never_draws_impossible_counts(self, name):
        table, exact = DEGENERATE_TABLES[name]
        pmf = table()
        exact_floats = [float(v) for v in exact()]
        np.testing.assert_allclose(pmf, exact_floats, rtol=1e-13)
        assert [v == 0.0 for v in pmf] == [v == 0.0 for v in exact_floats]
        assert_histogram_matches(drawn_histogram(pmf, seed=6, chunks=2), exact())

    def test_large_total_neither_overflows_nor_drifts(self):
        # C(10010, k) * p**k * q**(10010-k) overflows a float when formed directly
        total = 10_010
        pmf = simulate._binomial_pmf(total, 0.5)
        assert np.all(np.isfinite(pmf))
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-9)
        counts = (4_600, 5_005, 5_500)
        for k, exact in zip(counts, exact_binomial_pmf(0.5, total, counts)):
            assert pmf[k] == pytest.approx(float(exact), rel=1e-9)


class TestSeededStreams:
    """One seeded run per scenario, pinned: the streams use only Philox's
    ``random()``, so these hold on every supported numpy."""

    def test_loss(self):
        assert simulate_loss(0.2, 4, 2, 200_000, seed=2026).events == 19_991

    def test_availability(self):
        topo = Topology(3, (0.01, 0.05, 0.1))
        result = simulate_availability(
            DiskFailureModel(p_dead=0.0, p_unavail=0.05), topo,
            balanced_placement(ErasureScheme(4, 2), topo), 200_000, seed=2026)
        assert result.events == 6_894

    def test_latency_replication(self):
        result = simulate_latency(LatencyProfile((1.0, 20.0, 100.0)), 0.05, 200_000,
                                  seed=2026)
        assert result.unserved_trials == 18

    def test_latency_ec(self):
        result = simulate_latency(LatencyProfile((1.0, 100.0)), 0.05, 200_000, seed=2026,
                                  ec=ErasureScheme(8, 3))
        assert result.unserved_trials == 74
