"""Acceptance suite: every criterion runs at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest
from click.testing import CliRunner

from durakit.cli import main
from durakit.codec.lrc import (
    DEFAULT_DC_ASSIGNMENT,
    LRC_6_2_2,
    lrc_decode,
    lrc_encode,
    lrc_recoverable,
)
from durakit.codec.repair import repair_plan
from durakit.codec.rs import rs_decode, rs_encode
from durakit.errors import UnrecoverableError
from durakit.latency import (
    LatencyProfile,
    approx_latency_ec,
    approx_latency_replication,
    expected_latency_replication,
)
from durakit.placement import (
    Placement,
    Topology,
    balanced_placement,
    min_overhead_for_availability,
)
from durakit.probability import (
    DiskFailureModel,
    ErasureScheme,
    ReplicationScheme,
    gaussian_parity_estimate,
    gaussian_tail_loss,
    parity_needed,
    prob_loss_ec,
    prob_loss_replication,
    redundancy_factor,
)
from durakit.simulate import simulate_availability, simulate_latency, simulate_loss

from oracles import exact_binomial_tail

MiB = 1024**2
GRID_SEED = 2026


@contextmanager
def criterion(number: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({title}): FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"[acceptance] criterion {number:2d} ({title}): PASS ({elapsed:.2f}s)")


def test_criterion_01_worked_example_reproduction():
    with criterion(1, "worked-example reproduction"):
        started = time.monotonic()
        replication = prob_loss_replication(0.005, 3)
        assert replication == 0.005**3
        assert math.isclose(replication, 1.25e-7, rel_tol=1e-12)
        ec = prob_loss_ec(0.005, 8, 3)
        assert abs(ec - 1.99e-7) / 1.99e-7 <= 0.01
        assert parity_needed(1e-6, 0.005, 8) == 3
        assert time.monotonic() - started < 0.5  # milliseconds of real work


def test_criterion_02_storage_accounting():
    with criterion(2, "storage accounting"):
        started = time.monotonic()
        assert redundancy_factor(ErasureScheme(8, 3)) == 1.375
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["compare", "--p", "0.005", "--scheme", "rep:3", "--scheme", "ec:8+3"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert "46%" in result.output  # 1.375 / 3: less than half the space
        payload = json.loads(
            runner.invoke(
                main,
                ["--format", "json", "compare", "--p", "0.005",
                 "--scheme", "rep:3", "--scheme", "ec:8+3"],
                catch_exceptions=False,
            ).output
        )
        assert payload["rows"][1]["space_ratio"] == pytest.approx(
            1.375 / 3, rel=1e-12
        )
        assert time.monotonic() - started < 2.0


def test_criterion_03_minimum_overhead_table():
    with criterion(3, "minimum-overhead table"):
        assert min_overhead_for_availability(2) == 1.0
        assert min_overhead_for_availability(3) == 0.5
        assert min_overhead_for_availability(4) == 1 / 3
        assert min_overhead_for_availability(5) == 0.25


def test_criterion_04_latency_examples():
    with criterion(4, "latency examples"):
        rep = approx_latency_replication(1.0, 100.0, 0.001)
        assert round(rep, 3) == 1.099
        ec = approx_latency_ec(1.0, 100.0, 0.001, 8)
        assert round(ec, 3) == 1.799
        exact = expected_latency_replication(LatencyProfile((1.0, 100.0)), 0.001)
        assert round(exact, 4) == 1.0989


def test_criterion_05_lrc_recoverability():
    with criterion(5, "LRC recoverability enumeration"):
        started = time.monotonic()
        data = random.Random(5).randbytes(313)
        fragments = lrc_encode(data)

        three = list(combinations(range(10), 3))
        assert len(three) == 120
        for pattern in three:
            assert lrc_recoverable(pattern)
            survivors = [f for f in fragments if f.index not in pattern]
            assert lrc_decode(survivors) == data

        four = list(combinations(range(10), 4))
        assert len(four) == 210
        recoverable = 0
        for pattern in four:
            ok = lrc_recoverable(pattern)
            survivors = [f for f in fragments if f.index not in pattern]
            if ok:
                recoverable += 1
                assert lrc_decode(survivors) == data
            else:
                with pytest.raises(UnrecoverableError):
                    lrc_decode(survivors)
        fraction = recoverable / 210
        assert abs(fraction - 0.86) <= 0.01
        assert time.monotonic() - started < 30  # seconds, not minutes


def test_criterion_06_repair_traffic():
    with criterion(6, "repair traffic"):
        rs = repair_plan(
            Placement(ErasureScheme(6, 3), (0, 0, 0, 1, 1, 1, 2, 2, 2)), 0
        )
        assert rs.remote_transfers == 4

        lrc_plan = repair_plan(Placement(LRC_6_2_2, DEFAULT_DC_ASSIGNMENT), 0)
        assert lrc_plan.remote_transfers == 0

        rep = repair_plan(Placement(ReplicationScheme(3), (0, 1, 2)), 0)
        assert rep.local_transfers + rep.remote_transfers == 1
        assert rep.remote_transfers == 1


def test_criterion_07_scaling_property():
    with criterion(7, "proportional-scaling property"):
        started = time.monotonic()
        checked = 0
        for total in range(2, 9):
            for m in range(1, total):
                n = total - m
                for p in (0.001, 0.01, 0.05):
                    if not p < n / (m + n):
                        continue
                    values = [prob_loss_ec(p, k * m, k * n) for k in range(1, 9)]
                    assert all(
                        later <= earlier
                        for earlier, later in zip(values, values[1:])
                    ), (m, n, p)
                    checked += 1
        assert checked == 84  # every admissible desk-scale shape
        for p in (0.001, 0.01, 0.05):
            assert prob_loss_ec(p, 4, 2) < prob_loss_ec(p, 2, 1)
        assert time.monotonic() - started < 30


def test_criterion_08_gaussian_critique():
    with criterion(8, "normal-approximation critique"):
        exact = prob_loss_ec(0.005, 8, 3)
        approx = gaussian_tail_loss(0.005, 8, 3, scale=1)
        assert max(exact / approx, approx / exact) > 10
        implied = gaussian_parity_estimate(1e-6, 0.005, 8)
        assert implied < parity_needed(1e-6, 0.005, 8)


def test_criterion_09_codec_round_trip(tmp_path):
    with criterion(9, "codec round-trip"):
        rng = random.Random(99)
        for total in range(2, 13):
            for m in range(1, total + 1):
                n = total - m
                length = rng.randint(1, 4096)
                if length % m == 0 and length < 4096:
                    length += 1  # force a padded, non-multiple length sometimes
                data = rng.randbytes(length)
                fragments = rs_encode(data, m, n)
                for subset in combinations(range(total), m):
                    assert rs_decode([fragments[i] for i in subset]) == data

        # CLI flow at realistic size: an 8 MiB object becomes 1 MiB shards
        runner = CliRunner()
        source = tmp_path / "object.bin"
        source.write_bytes(random.Random(1).randbytes(8 * MiB))
        out_dir = tmp_path / "frags"
        started = time.monotonic()
        encode = runner.invoke(
            main,
            ["--format", "json", "codec", "encode", str(source),
             "--scheme", "rs:8+3", "--out-dir", str(out_dir)],
            catch_exceptions=False,
        )
        files = [row["file"] for row in json.loads(encode.output)["rows"]]
        assert len(files) == 11
        kept = files[:2] + files[5:]  # delete any three fragment files
        restored = tmp_path / "restored.bin"
        decode = runner.invoke(
            main,
            ["codec", "decode", *kept, "--out", str(restored)],
            catch_exceptions=False,
        )
        elapsed = time.monotonic() - started
        assert decode.exit_code == 0
        assert restored.read_bytes() == source.read_bytes()
        assert elapsed < 10


def test_criterion_10_monte_carlo_calibration():
    with criterion(10, "Monte Carlo calibration"):
        started = time.monotonic()
        trials = 1_000_000
        z_scores = []

        for p, m, n in [
            (0.05, 2, 1), (0.1, 2, 1), (0.1, 4, 2),
            (0.2, 4, 2), (0.1, 8, 3), (0.3, 2, 2),
        ]:
            result = simulate_loss(p, m, n, trials, seed=GRID_SEED)
            assert result.analytic >= 1e-4
            z_scores.append(result.z_score)

        for q, p_u, scheme, dcs in [
            (0.05, 0.1, ErasureScheme(4, 2), 3),
            (0.1, 0.0, ErasureScheme(8, 4), 2),
            (0.02, 0.05, ReplicationScheme(3), 3),
        ]:
            topology = Topology(dcs, q)
            placement = balanced_placement(scheme, topology)
            model = DiskFailureModel(p_dead=0.0, p_unavail=p_u)
            result = simulate_availability(
                model, topology, placement, trials, seed=GRID_SEED
            )
            assert result.analytic >= 1e-4
            z_scores.append(result.z_score)

        for profile, p, ec in [
            (LatencyProfile((1.0, 100.0)), 0.05, None),
            (LatencyProfile((1.0, 2.0, 5.0)), 0.1, None),
            (LatencyProfile((1.0, 100.0)), 0.01, ErasureScheme(8, 3)),
        ]:
            result = simulate_latency(profile, p, trials, seed=GRID_SEED, ec=ec)
            z_scores.append(result.z_score)

        assert len(z_scores) == 12
        assert all(abs(z) < 4 for z in z_scores), z_scores
        assert sum(abs(z) > 3 for z in z_scores) <= 1, z_scores

        # identical seeds, byte-identical output, any thread count
        runner = CliRunner()
        args = ["--format", "json", "--seed", "42", "simulate", "--scenario",
                "loss", "--p", "0.1", "--m", "2", "--n", "1",
                "--trials", "200000"]
        single = runner.invoke(main, ["--threads", "1", *args],
                               catch_exceptions=False).output
        for threads in ("2", "4"):
            rerun = runner.invoke(main, ["--threads", threads, *args],
                                  catch_exceptions=False).output
            assert rerun == single

        assert time.monotonic() - started < 60


def test_criterion_11_exact_oracle_agreement():
    with criterion(11, "exact-oracle agreement"):
        for p in (1e-4, 1e-3, 1e-2, 0.1):
            for total in range(2, 21):
                for m in range(1, total + 1):
                    n = total - m
                    expected = exact_binomial_tail(p, total, n)
                    actual = prob_loss_ec(p, m, n)
                    if expected == 0:
                        assert actual == 0.0
                    else:
                        error = abs(actual - float(expected)) / float(expected)
                        assert error <= 1e-12, (p, m, n, error)
