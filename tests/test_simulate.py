import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from durakit import latency, parallel, simulate
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

from oracles import (
    exact_binomial_pmf,
    exact_cut_sum_pmf,
    exact_first_available_pmf,
    exact_unreachable_pmf,
)

#: five DCs at two q; ec:8+4 puts 3, 3, 2, 2, 2 fragments on them, three groups
FIVE_DCS = Topology(5, (0.01, 0.01, 0.05, 0.01, 0.05))


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

    def test_multi_group_table_past_the_compare_bound(self):
        # ec:5+300 over 305 data centers, one fragment and a distinct q each:
        # 305 groups convolved into one table cut at T = 301, so 301 edges,
        # past MAX_COMPARE_EDGES; an event is a uniform at or above the last
        topo = Topology(305, tuple(0.001 + 1e-5 * dc for dc in range(305)))
        placement = balanced_placement(ErasureScheme(5, 300), topo)
        assert 301 > simulate.MAX_COMPARE_EDGES
        result = simulate_availability(DiskFailureModel(p_dead=0.0, p_unavail=0.98), topo,
                                       placement, 200_000, seed=3)
        assert result.events == 54_337
        assert abs(result.z_score) < 4

    @pytest.mark.parametrize("scheme, topo", [
        # 305 alike one-fragment DCs: one group
        (ErasureScheme(300, 5), Topology(305, 0.005)),
        # 3, 3, 2, 2, 2 fragments: groups (3, 0.01) x 2, (2, 0.05) x 2, (2, 0.01)
        (ErasureScheme(8, 4), FIVE_DCS),
        # 305 one-fragment DCs, no two alike: 305 groups
        (ErasureScheme(300, 5), Topology(305, tuple(0.005 + 1e-5 * dc for dc in range(305)))),
    ], ids=["ec:300+5 over 305 DCs", "ec:8+4 over 5 DCs at two q",
            "ec:300+5 over 305 DCs at distinct q"])
    def test_one_uniform_per_trial(self, scheme, topo, monkeypatch):
        calls = []

        class CountingRng:
            def __init__(self, bits):
                self.rng = real_generator(bits)

            def random(self, size):
                calls.append(size)
                return self.rng.random(size)

        real_generator = simulate.np.random.Generator
        monkeypatch.setattr(simulate.np.random, "Generator", CountingRng)
        model = DiskFailureModel(p_dead=0.0, p_unavail=0.02)
        placement = balanced_placement(scheme, topo)
        result = simulate_availability(model, topo, placement, simulate.CHUNK_TRIALS, seed=43)
        assert calls == [simulate.CHUNK_TRIALS]
        assert result.analytic == placement_unavailability(model, topo, placement)
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

    @pytest.mark.parametrize("failure", ["draw raises", "wait interrupted"])
    def test_a_failed_run_stops_every_job_within_a_chunk(self, failure, pools, monkeypatch):
        # the interpreter waits for pool threads at exit, so a job that drew
        # on after Ctrl-C would hold the process until the run's last chunk
        pools.reset(2)
        draws, first_draw = [], threading.Event()
        lock = threading.Lock()

        def count(uniforms):
            with lock:
                draws.append(len(uniforms))
                first = len(draws) == 1
            first_draw.set()
            if failure == "draw raises" and first:
                raise RuntimeError("chunk failed")
            time.sleep(0.001)
            return 0

        def interrupted_wait(fn, chunks):
            jobs = [parallel.submit(fn, chunk) for chunk in chunks]
            assert first_draw.wait(10) and len(jobs) == 2
            raise KeyboardInterrupt

        if failure == "wait interrupted":
            monkeypatch.setattr(simulate, "map_chunks", interrupted_wait)
        with pytest.raises(RuntimeError if failure == "draw raises" else KeyboardInterrupt):
            simulate._sample(400 * simulate.CHUNK_TRIALS, 0, 2, count)
        pools.started[0].shutdown(wait=True)
        assert len(draws) <= 10, len(draws)  # of 400

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_too_many_trials_rejected_before_any_draw(self, name, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew trials for a refused run")

        monkeypatch.setattr(simulate.np.random, "SFC64", no_draws)
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
        # about 5.2 GB here; the loss draw needs a uniform and a flag per
        # trial plus a table of m+n+1 entries
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
    return sum(simulate._sample(chunks * simulate.CHUNK_TRIALS, seed, 1,
                                simulate._histogram_sampler(simulate._edges(pmf))))


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
    # the availability tables: unreachable fragments of a group of alike
    # data centers, cut at T = N - k + 1
    "availability 2 DCs x 4, cut binds": (lambda: simulate._unreachable_pmf(4, 2, 0.01, 0.02, 4),
                                          lambda: exact_unreachable_pmf(4, 2, 0.01, 0.02, 4)),
    "availability 1 DC x 3, uncut": (lambda: simulate._unreachable_pmf(3, 1, 0.2, 0.3, 4),
                                     lambda: exact_unreachable_pmf(3, 1, 0.2, 0.3, 4)),
    "availability 3 DCs x 1": (lambda: simulate._unreachable_pmf(1, 3, 0.01, 0.02, 3),
                               lambda: exact_unreachable_pmf(1, 3, 0.01, 0.02, 3)),
    "availability 5 DCs x 2, cut binds": (lambda: simulate._unreachable_pmf(2, 5, 0.1, 0.2, 6),
                                          lambda: exact_unreachable_pmf(2, 5, 0.1, 0.2, 6)),
    # the availability event's table: the groups' tables convolved, cut at T
    "availability 8+4 over 5 DCs at two q, T = 5": (
        lambda: simulate._placement_unreachable_pmf(
            FIVE_DCS, balanced_placement(ErasureScheme(8, 4), FIVE_DCS), 0.02, 5),
        lambda: exact_cut_sum_pmf([exact_unreachable_pmf(3, 2, 0.01, 0.02, 5),
                                   exact_unreachable_pmf(2, 2, 0.05, 0.02, 5),
                                   exact_unreachable_pmf(2, 1, 0.01, 0.02, 5)], 5)),
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
    "unreachable q=0": (lambda: simulate._unreachable_pmf(4, 2, 0.0, 0.1, 5),
                        lambda: exact_unreachable_pmf(4, 2, 0.0, 0.1, 5)),
    "unreachable q=1": (lambda: simulate._unreachable_pmf(4, 2, 1.0, 0.1, 5),
                        lambda: exact_unreachable_pmf(4, 2, 1.0, 0.1, 5)),
    "unreachable p_u=0": (lambda: simulate._unreachable_pmf(4, 2, 0.3, 0.0, 5),
                          lambda: exact_unreachable_pmf(4, 2, 0.3, 0.0, 5)),
    "unreachable p_u=1": (lambda: simulate._unreachable_pmf(4, 2, 0.3, 1.0, 5),
                          lambda: exact_unreachable_pmf(4, 2, 0.3, 1.0, 5)),
    "unreachable q=0 p_u=0": (lambda: simulate._unreachable_pmf(4, 2, 0.0, 0.0, 5),
                              lambda: exact_unreachable_pmf(4, 2, 0.0, 0.0, 5)),
    "unreachable q=1 p_u=1": (lambda: simulate._unreachable_pmf(4, 2, 1.0, 1.0, 5),
                              lambda: exact_unreachable_pmf(4, 2, 1.0, 1.0, 5)),
}


# every table above, binomial tables of the histogram's compare bound's
# edges and one more, either side of the switch to binary search, and a
# group table beyond the bound
AGREEMENT_TABLES = {
    **{name: table for name, (table, _) in {**TABLES, **DEGENERATE_TABLES}.items()},
    **{f"binomial {edges} edges p={p}": lambda edges=edges, p=p: simulate._binomial_pmf(edges, p)
       for edges in (simulate.MAX_COMPARE_EDGES, simulate.MAX_COMPARE_EDGES + 1)
       for p in (0.05, 0.5)},
    # a group of 80 one-fragment DCs cut at 70: 70 edges, drawn by binary search
    "unreachable 80 DCs x 1, cut 70": lambda: simulate._unreachable_pmf(1, 80, 0.01, 0.3, 70),
}


#: name -> latencies, EC scheme (None for replication), p, and the level of
#: each count of the table: the index of its value among the distinct ones
LEVEL_CASES = {
    "ec m=8 n=3": ((1.0, 100.0), ErasureScheme(8, 3), 0.05, [0] + [1] * 3 + [2] * 5),
    "ec m=200 n=20": ((1.0, 100.0), ErasureScheme(200, 20), 0.05,
                      [0] + [1] * 20 + [2] * 180),
    # no count is unserved: one edge, L1 or L2
    "ec n >= m": ((1.0, 100.0), ErasureScheme(4, 6), 0.3, [0] + [1] * 4),
    # one value everywhere: a single level and no edge
    "ec L1 == L2, n >= m": ((5.0, 5.0), ErasureScheme(4, 4), 0.3, [0] * 5),
    "rep 1,7,7,7,9": ((1.0, 7.0, 7.0, 7.0, 9.0), None, 0.3, [0, 1, 1, 1, 2, 3]),
}


class StubRng:
    """Hands out chosen uniforms, repeated to whatever size is asked for."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        return np.resize(self.uniforms, size)


def edge_uniforms(edges):
    """0, the largest double below 1, every edge and its neighbours in [0, 1)."""
    below, above = np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)
    uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, below, above])
    return uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]


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

    @pytest.mark.parametrize("name", AGREEMENT_TABLES)
    def test_histogram_equals_bincount_of_binary_search(self, name):
        # per-edge totals within the bound, the sampler's own search beyond:
        # both must be the histogram of each uniform's count of edges at or
        # below it, on uniforms at, just below and just above every edge
        table = AGREEMENT_TABLES[name]()
        cdf = np.cumsum(table)
        edges = cdf[:-1] / cdf[-1]
        uniforms = edge_uniforms(edges)
        histogram = simulate._histogram_sampler(simulate._edges(table))(uniforms)
        np.testing.assert_array_equal(histogram, np.bincount(
            np.searchsorted(edges, uniforms, side="right"), minlength=len(table)))
        assert histogram.sum() == len(uniforms)

    @pytest.mark.parametrize("name", AGREEMENT_TABLES)
    def test_event_comparison_equals_binary_search_count_at_every_threshold(
            self, name, monkeypatch):
        # the one comparison per trial that loss and availability make must
        # count exactly the uniforms whose count of edges at or below them is
        # at least ``first``, for every ``first`` the table can ask about
        table = AGREEMENT_TABLES[name]()
        cdf = np.cumsum(table)
        edges = cdf[:-1] / cdf[-1]
        uniforms = edge_uniforms(edges)
        counts = np.searchsorted(edges, uniforms, side="right")
        monkeypatch.setattr(simulate.np.random, "Generator", lambda bits: StubRng(uniforms))
        for first in range(1, len(table)):
            result = simulate._event_rate(0.0, len(uniforms), 0, 1, table, first)
            assert result.events == np.count_nonzero(counts >= first), first

    @pytest.mark.parametrize("p, m, n",[(0.3, 4, 2), (0.05, 8, 3), (0.4, 2, 0), (0.6, 60, 30)])
    def test_loss_threshold_equals_binary_search_count_for_count(self, p, m, n, monkeypatch):
        cdf = np.cumsum(simulate._binomial_pmf(m + n, p))
        edges = cdf[:-1] / cdf[-1]
        uniforms = np.resize(edge_uniforms(edges), simulate.CHUNK_TRIALS)
        monkeypatch.setattr(simulate.np.random, "Generator", lambda bits: StubRng(uniforms))
        result = simulate_loss(p, m, n, simulate.CHUNK_TRIALS, seed=0)
        assert result.events == np.count_nonzero(
            np.searchsorted(edges, uniforms, side="right") > n)

    def test_table_above_the_bound_keeps_its_seeded_stream(self):
        # 301 counts, past the compare bound, but three latency levels (L1,
        # L2, unserved): tallied by 2 edges of the full table, each trial in
        # the level of the count the binary search over all 300 drew
        scheme = ErasureScheme(300, 20)
        assert scheme.m > simulate.MAX_COMPARE_EDGES
        result = simulate_latency(LatencyProfile((1.0, 100.0)), 0.05, 200_000, seed=2026,
                                  ec=scheme)
        assert result.unserved_trials == 15_633
        assert result.point_estimate == 92.1835

    @pytest.mark.parametrize("name", LEVEL_CASES)
    def test_level_tally_sums_the_count_histogram(self, name, monkeypatch):
        # on uniforms at, just below and just above every edge of the full
        # table, each level's tally is the sum of its counts' bins
        latencies, ec, p, level_of_count = LEVEL_CASES[name]
        pmf = (simulate._first_available_pmf(len(latencies), p) if ec is None
               else simulate._binomial_pmf(ec.m, p))
        edges = simulate._edges(pmf)
        uniforms = edge_uniforms(edges)
        bins = np.bincount(np.searchsorted(edges, uniforms, side="right"), minlength=len(pmf))
        tallies = []
        real = simulate._histogram_sampler

        def recording(level_edges):
            count = real(level_edges)
            return lambda chunk: tallies.append(count(chunk)) or tallies[-1]

        monkeypatch.setattr(simulate, "_histogram_sampler", recording)
        monkeypatch.setattr(simulate.np.random, "Generator", lambda bits: StubRng(uniforms))
        result = simulate_latency(LatencyProfile(latencies), p, len(uniforms), seed=0, ec=ec)
        levels = np.zeros(max(level_of_count) + 1, int)
        np.add.at(levels, level_of_count, bins)
        np.testing.assert_array_equal(tallies, [levels])
        unserved = bins[len(latencies):].sum() if ec is None else bins[ec.n + 1:].sum()
        assert result.unserved_trials == unserved

    @pytest.mark.parametrize("latencies, ec, edges", [
        ((1.0, 100.0), ErasureScheme(8, 3), 2),
        ((1.0, 100.0), ErasureScheme(300, 20), 2),
        ((1.0, 100.0), ErasureScheme(1000, 3), 2),
        ((1.0, 20.0, 100.0), None, 3),
    ], ids=["ec m=8", "ec m=300", "ec m=1000", "rep 1,20,100"])
    def test_latency_tallies_one_edge_per_change_of_value(self, latencies, ec, edges,
                                                         monkeypatch):
        tallied = []
        real = simulate._histogram_sampler
        monkeypatch.setattr(simulate, "_histogram_sampler",
                            lambda level_edges: tallied.append(len(level_edges))
                            or real(level_edges))
        simulate_latency(LatencyProfile(latencies), 0.05, 1_000, seed=0, ec=ec)
        assert tallied == [edges]

    def test_large_total_neither_overflows_nor_drifts(self):
        # C(10010, k) * p**k * q**(10010-k) overflows a float when formed directly
        total = 10_010
        pmf = simulate._binomial_pmf(total, 0.5)
        assert np.all(np.isfinite(pmf))
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-9)
        counts = (4_600, 5_005, 5_500)
        for k, exact in zip(counts, exact_binomial_pmf(0.5, total, counts)):
            assert pmf[k] == pytest.approx(float(exact), rel=1e-9)


def first_uniforms(uniforms):
    """A chunk's count that returns the first uniforms of its stream."""
    return uniforms[:4]


class TestSeededStreams:
    """One seeded run per scenario, pinned: each chunk's stream is SFC64
    seeded by ``SeedSequence(seed, spawn_key=(chunk,))``, of which only
    ``random()`` is used, so these hold on every supported numpy."""

    def test_loss(self):
        assert simulate_loss(0.2, 4, 2, 200_000, seed=2026).events == 19_790

    def test_availability(self):
        topo = Topology(3, (0.01, 0.05, 0.1))
        result = simulate_availability(
            DiskFailureModel(p_dead=0.0, p_unavail=0.05), topo,
            balanced_placement(ErasureScheme(4, 2), topo), 200_000, seed=2026)
        assert result.events == 7_183

    def test_latency_replication(self):
        result = simulate_latency(LatencyProfile((1.0, 20.0, 100.0)), 0.05, 200_000,
                                  seed=2026)
        assert result.unserved_trials == 28
        assert result.point_estimate == 2.1418299999999997

    def test_latency_ec(self):
        result = simulate_latency(LatencyProfile((1.0, 100.0)), 0.05, 200_000, seed=2026,
                                  ec=ErasureScheme(8, 3))
        assert result.unserved_trials == 74
        assert result.point_estimate == 34.419555

    def test_latency_replication_past_the_compare_bound(self):
        # 70 distinct latencies and the unserved level: 70 edges, past the
        # compare bound, so tallied by binary search
        profile = LatencyProfile(tuple(range(1, 71)))
        assert profile.site_count > simulate.MAX_COMPARE_EDGES
        result = simulate_latency(profile, 0.9, 200_000, seed=2026)
        assert result.unserved_trials == 121
        assert result.point_estimate == 9.96819

    def test_chunk_streams_are_the_seeds_spawned_children(self):
        chunks = simulate._sample(4 * simulate.CHUNK_TRIALS, 5, 1, first_uniforms)
        for chunk, uniforms in enumerate(chunks):
            child = np.random.SeedSequence(5).spawn(chunk + 1)[chunk]
            np.testing.assert_array_equal(
                uniforms, np.random.Generator(np.random.SFC64(child)).random(4))

    def test_seed_and_chunk_index_do_not_alias(self):
        # zero-padded entropy would make [5 + 3 * 2**32, 0] and [5, 3] one
        # stream; the spawn key is hashed apart from the seed
        [wide_seed] = simulate._sample(simulate.CHUNK_TRIALS, 5 + 3 * 2**32, 1, first_uniforms)
        chunk_3 = simulate._sample(4 * simulate.CHUNK_TRIALS, 5, 1, first_uniforms)[3]
        assert not np.array_equal(wide_seed, chunk_3)
