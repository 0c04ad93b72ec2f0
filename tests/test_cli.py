import csv
import gc
import io
import json
import math
import time
import tracemalloc
import warnings

import pytest
from click.testing import CliRunner

from durakit.cli import main, parse_scheme
from durakit.latency import approx_latency_ec, approx_latency_replication
from durakit.probability import (
    ErasureScheme,
    ReplicationScheme,
    prob_any_failure,
    prob_loss_ec,
    prob_loss_replication,
)
from durakit.simulate import SimulationResult


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


class TestSchemeGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("rep:3", ReplicationScheme(3)),
        ("replication-5", ReplicationScheme(5)),
        ("ec:8+3", ErasureScheme(8, 3)),
        ("rs-6-3", ErasureScheme(6, 3)),
        ("EC:12+4", ErasureScheme(12, 4)),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_scheme(text) == expected

    def test_lrc_forms(self):
        assert parse_scheme("lrc").label == "lrc:6+2+2"
        assert parse_scheme("lrc-6-2-2").label == "lrc:6+2+2"
        assert parse_scheme("lrc:6+2+2").label == "lrc:6+2+2"

    @pytest.mark.parametrize("bad", [
        "rep", "ec:8", "lrc:5+2+2", "raid:5", "ec:8+3+1", "8+3", "ec:1048576+1",
        "rep:-3", "ec:8+-3", "ec:8+3abc", "ec:8 + 3", "lrc:6+2+2x",
    ])
    def test_rejected_forms(self, bad):
        with pytest.raises(Exception):
            parse_scheme(bad)

    def test_negative_count_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["compare", "--scheme", "rep:-3",
                                      "--scheme", "ec:8+3", "--p", "0.01"])
        assert result.exit_code == 2
        assert "rep:-3" in result.output


class TestPlan:
    def test_ec_worked_example(self, runner):
        result = invoke(runner, ["--format", "json", "plan", "--mode", "ec",
                                 "--epsilon", "1e-6", "--p", "0.005", "--m", "8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 3
        assert payload["loss"] == prob_loss_ec(0.005, 8, 3)
        assert payload["loss"] == pytest.approx(1.99e-7, rel=0.01)
        assert payload["redundancy_factor"] == 1.375

    def test_replication_worked_example(self, runner):
        result = invoke(runner, ["--format", "json", "plan", "--mode", "replication",
                                 "--epsilon", "1e-6", "--p", "0.005"])
        payload = json.loads(result.output)
        assert payload["k"] == 3
        assert payload["loss"] == prob_loss_replication(0.005, 3)

    def test_solver_cap_exits_3(self, runner):
        result = runner.invoke(main, ["plan", "--mode", "ec", "--epsilon", "1e-30",
                                      "--p", "0.5", "--m", "8", "--max-n", "4"])
        assert result.exit_code == 3
        assert "error" in result.output or result.exit_code == 3

    def test_ec_past_float_binomials(self, runner):
        # 1100 + n disks: the binomial coefficients outgrow a float
        result = invoke(runner, ["--format", "json", "plan", "--mode", "ec",
                                 "--epsilon", "1e-6", "--p", "0.01", "--m", "1100"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 30
        assert payload["loss"] == prob_loss_ec(0.01, 1100, 30)

    def test_million_fragments_exit_3_within_seconds(self, runner):
        # 64 tails at about 2**20 fragments, none of which meets the target
        start = time.perf_counter()
        result = runner.invoke(main, ["plan", "--mode", "ec", "--epsilon", "1e-6",
                                      "--p", "0.5", "--m", "1000000"])
        assert result.exit_code == 3
        assert time.perf_counter() - start < 10.0

    def test_loss_equal_to_epsilon_meets_the_target_everywhere(self, runner):
        # 0.001**2 == 1e-6 exactly: rep:2, RS 1+1, is tolerable in all three
        args = ["--format", "json", "plan", "--epsilon", "1e-6", "--p", "0.001"]
        rep = json.loads(invoke(runner, [*args, "--mode", "replication"]).output)
        ec = json.loads(invoke(runner, [*args, "--mode", "ec", "--m", "1"]).output)
        assert (rep["k"], ec["n"]) == (2, 1)
        assert rep["loss"] == ec["loss"] == 1e-6
        result = invoke(runner, ["--format", "json", "compare", "--p", "0.001",
                                 "--epsilon", "1e-6",
                                 "--scheme", "rep:2", "--scheme", "ec:1+1"])
        rows = json.loads(result.output)["rows"]
        assert [row["meets_target"] for row in rows] == [True, True]

    def test_in_process_runs_retain_no_stream_wrappers(self, runner):
        args = ["--format", "json", "plan", "--mode", "ec", "--epsilon", "1e-6",
                "--p", "0.005", "--m", "8"]
        for _ in range(50):
            runner.invoke(main, args)
        runs = 500
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(runs):
                runner.invoke(main, args)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / runs < 100

    def test_missing_m_is_usage_error(self, runner):
        result = runner.invoke(main, ["plan", "--mode", "ec", "--epsilon", "1e-6",
                                      "--p", "0.005"])
        assert result.exit_code == 2

    def test_invalid_probability_is_usage_error(self, runner):
        result = runner.invoke(main, ["plan", "--mode", "replication",
                                      "--epsilon", "1e-6", "--p", "1.5"])
        assert result.exit_code == 2


class TestCompare:
    ARGS = ["compare", "--p", "0.005", "--scheme", "rep:3", "--scheme", "ec:8+3"]

    def test_values_come_from_library_calls(self, runner):
        from durakit.placement import (
            Topology,
            balanced_placement,
            placement_unavailability,
        )
        from durakit.probability import DiskFailureModel

        result = invoke(runner, ["--format", "json", *self.ARGS,
                                 "--dcs", "3", "--q", "0.01", "--latencies", "1,100"])
        rows = json.loads(result.output)["rows"]
        rep, ec = rows
        assert rep["loss"] == prob_loss_replication(0.005, 3)
        assert ec["loss"] == prob_loss_ec(0.005, 8, 3)
        assert rep["recoverable_failure"] == prob_any_failure(0.005, 3)
        assert ec["recoverable_failure"] == prob_any_failure(0.005, 11)
        assert rep["expected_latency"] == approx_latency_replication(1, 100, 0.005)
        assert ec["expected_latency"] == approx_latency_ec(1, 100, 0.005, 8)
        topo = Topology(3, 0.01)
        model = DiskFailureModel(p_dead=0.005, p_unavail=0.005)
        for row, scheme in ((rep, ReplicationScheme(3)), (ec, ErasureScheme(8, 3))):
            expected = placement_unavailability(
                model, topo, balanced_placement(scheme, topo)
            )
            assert row["unavailability"] == expected
        assert rep["repair_remote"] == 1
        assert ec["repair_remote"] == 5  # balanced over 3 DCs: 3 local of 8 sources

    def test_replication_row_is_the_rs_1_plus_k_minus_1_row(self, runner):
        result = invoke(runner, ["--format", "json", "compare", "--p", "0.005",
                                 "--scheme", "rep:3", "--scheme", "ec:1+2",
                                 "--dcs", "3", "--q", "0.01", "--latencies", "1,100"])
        rep, ec = json.loads(result.output)["rows"]
        assert rep.pop("scheme") == "rep:3"
        assert ec.pop("scheme") == "ec:1+2"
        assert rep == ec

    def test_storage_note_states_the_ratio(self, runner):
        result = invoke(runner, self.ARGS)
        assert "46%" in result.output
        payload = json.loads(invoke(runner, ["--format", "json", *self.ARGS]).output)
        ec_row = payload["rows"][1]
        assert ec_row["space_ratio"] == pytest.approx(1.375 / 3, rel=1e-12)

    def test_recoverable_failure_ratio_nearly_four(self, runner):
        result = invoke(runner, ["--format", "json", *self.ARGS])
        rows = json.loads(result.output)["rows"]
        ratio = rows[1]["recoverable_failure"] / rows[0]["recoverable_failure"]
        assert 3.5 < ratio < 11 / 3

    def test_identical_schemes_identical_rows(self, runner):
        result = invoke(runner, ["--format", "json", "compare", "--p", "0.01",
                                 "--scheme", "ec:6+3", "--scheme", "ec:6+3"])
        rows = json.loads(result.output)["rows"]
        assert rows[0] == rows[1]

    def test_meets_target_column(self, runner):
        result = invoke(runner, ["--format", "json", "compare", "--p", "0.005",
                                 "--epsilon", "1e-6",
                                 "--scheme", "rep:2", "--scheme", "ec:8+3"])
        rows = json.loads(result.output)["rows"]
        assert rows[0]["meets_target"] is False  # 0.005**2 = 2.5e-5
        assert rows[1]["meets_target"] is True

    def test_table_renders_meets_target_as_yes_or_no(self, runner):
        table = invoke(runner, ["compare", "--p", "0.005", "--epsilon", "1e-6",
                                "--scheme", "rep:2", "--scheme", "ec:8+3"]).output
        header, *rows = [line.split() for line in table.splitlines()[:3]]
        column = header.index("meets_target")
        assert [row[column] for row in rows] == ["no", "yes"]

    def test_one_site_latency_profile_is_usage_error(self, runner):
        result = runner.invoke(main, [*self.ARGS, "--latencies", "5"])
        assert result.exit_code == 2
        assert "at least two sites" in result.output

    def test_one_scheme_is_usage_error(self, runner):
        result = runner.invoke(main, ["compare", "--p", "0.01", "--scheme", "rep:3"])
        assert result.exit_code == 2

    def test_bad_p_unavail_is_named_as_p_unavail(self, runner):
        # the model's p_dead is no option, so an error must not name it
        result = runner.invoke(main, ["compare", "--p", "0.01", "--p-unavail", "-0.1",
                                      "--scheme", "rep:3", "--scheme", "ec:8+3",
                                      "--dcs", "3"])
        assert result.exit_code == 2
        assert "p_unavail must be within [0, 1], got -0.1" in result.stderr
        assert "p_dead" not in result.stderr

    @pytest.mark.parametrize("option, value, message", [
        ("--p-unavail", "5", "p_unavail must be within [0, 1], got 5.0"),
        ("--q", "7", "q must be within [0, 1], got 7.0"),
        ("--epsilon", "-1", "epsilon must be strictly between 0 and 1, got -1.0"),
        ("--epsilon", "nan", "epsilon must be strictly between 0 and 1, got nan"),
        ("--epsilon", "2", "epsilon must be strictly between 0 and 1, got 2.0"),
    ], ids=["p_unavail 5", "q 7", "epsilon -1", "epsilon nan", "epsilon 2"])
    def test_a_value_out_of_range_is_refused_without_its_column(
            self, runner, option, value, message):
        # no --dcs or --latencies asks for the columns p_unavail and q feed
        result = runner.invoke(main, ["compare", "--p", "0.01", "--scheme", "rep:3",
                                      "--scheme", "ec:8+3", option, value])
        assert result.exit_code == 2
        assert message in result.stderr

    def test_nine_dcs_are_exact(self, runner):
        from durakit.placement import (
            Topology,
            balanced_placement,
            placement_unavailability,
        )
        from durakit.probability import DiskFailureModel

        result = runner.invoke(main, ["--format", "json", *self.ARGS,
                                      "--dcs", "9", "--q", "0.01"])
        assert result.exit_code == 0
        topo = Topology(9, 0.01)
        model = DiskFailureModel(p_dead=0.005, p_unavail=0.005)
        rows = json.loads(result.output)["rows"]
        for row, scheme in zip(rows, (ReplicationScheme(3), ErasureScheme(8, 3))):
            assert row["unavailability"] == placement_unavailability(
                model, topo, balanced_placement(scheme, topo)
            )

    def test_lrc_not_comparable(self, runner):
        result = runner.invoke(main, ["compare", "--p", "0.01",
                                      "--scheme", "rep:3", "--scheme", "lrc"])
        assert result.exit_code == 2


class TestFormats:
    ARGS = ["compare", "--p", "0.005", "--scheme", "rep:3", "--scheme", "ec:8+3"]

    def test_json_and_csv_carry_identical_values(self, runner):
        payload = json.loads(invoke(runner, ["--format", "json", *self.ARGS]).output)
        csv_text = invoke(runner, ["--format", "csv", *self.ARGS]).output
        reader = list(csv.DictReader(io.StringIO(csv_text)))
        assert len(reader) == len(payload["rows"])
        for parsed, row in zip(reader, payload["rows"]):
            assert parsed["scheme"] == row["scheme"]
            assert float(parsed["loss"]) == row["loss"]
            assert float(parsed["redundancy_factor"]) == row["redundancy_factor"]
            assert parsed["unavailability"] == ""  # no topology given
            assert row["unavailability"] is None

    def test_csv_of_a_scalar_payload_is_one_header_and_one_row(self, runner):
        args = ["plan", "--mode", "ec", "--epsilon", "1e-6", "--p", "0.005", "--m", "8"]
        payload = json.loads(invoke(runner, ["--format", "json", *args]).output)
        rows = list(csv.reader(io.StringIO(invoke(runner, ["--format", "csv", *args]).output)))
        assert rows[0] == list(payload)
        assert rows[1] == [v if isinstance(v, str) else repr(v) for v in payload.values()]

    def test_table_applies_display_precision(self, runner):
        out3 = invoke(runner, self.ARGS).output
        assert "1.25e-07" in out3
        out5 = invoke(runner, ["--precision", "5", *self.ARGS]).output
        assert "2.0055e-07" in out5

    def test_json_round_trips(self, runner):
        text = invoke(runner, ["--format", "json", *self.ARGS]).output
        payload = json.loads(text)
        assert json.loads(json.dumps(payload)) == payload


class TestSimulateCommand:
    ARGS = ["simulate", "--scenario", "loss", "--p", "0.1", "--m", "2", "--n", "1",
            "--trials", "100000"]

    def test_reproducible_byte_identical(self, runner):
        a = invoke(runner, ["--seed", "42", *self.ARGS]).output
        b = invoke(runner, ["--seed", "42", *self.ARGS]).output
        assert a == b

    def test_thread_count_does_not_change_output(self, runner):
        a = invoke(runner, ["--seed", "42", "--threads", "1", *self.ARGS]).output
        b = invoke(runner, ["--seed", "42", "--threads", "4", *self.ARGS]).output
        assert a == b

    def test_seed_changes_output(self, runner):
        a = invoke(runner, ["--seed", "1", *self.ARGS]).output
        b = invoke(runner, ["--seed", "2", *self.ARGS]).output
        assert a != b

    def test_reports_estimate_and_z(self, runner):
        payload = json.loads(invoke(runner, ["--format", "json", "--seed", "42",
                                             *self.ARGS]).output)
        assert payload["analytic"] == prob_loss_ec(0.1, 2, 1)
        assert payload["estimate"] == pytest.approx(0.028, rel=0.1)
        assert abs(payload["z_score"]) < 4
        assert payload["events"] == round(payload["estimate"] * payload["trials"])

    def test_every_trial_an_event_keeps_z_finite(self, runner):
        # 1000/1000 losses against an analytic value just under 1: z is taken
        # with the standard error under the analytic value, not the zero one
        result = runner.invoke(main, ["--format", "json", "--check", "simulate",
                                      "--scenario", "loss", "--p", "0.5", "--m", "60",
                                      "--n", "10", "--trials", "1000"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["events"] == 1000
        assert payload["standard_error"] == 0.0
        assert abs(payload["z_score"]) < 4

    def test_reports_expected_events_and_relative_error(self, runner):
        payload = json.loads(invoke(runner, ["--format", "json", "--seed", "42",
                                             *self.ARGS]).output)
        assert payload["expected_events"] == payload["analytic"] * payload["trials"]
        assert payload["relative_standard_error"] == (
            payload["standard_error"] / payload["estimate"])

    def test_one_valued_latency_run_passes_check(self, runner):
        # every trial reads L1 = 1: the z-score's error comes from the model
        result = runner.invoke(main, ["--format", "json", "--check", "simulate",
                                      "--scenario", "latency", "--p", "1e-9",
                                      "--latencies", "1,100", "--trials", "1000"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["standard_error"] == 0.0
        assert payload["expected_events"] is None
        assert math.isfinite(payload["z_score"])

    def test_large_m_loss_runs(self, runner):
        # per-disk draws would need CHUNK_TRIALS x 10,010 uniforms per worker
        result = runner.invoke(main, ["--format", "json", "--check", "simulate",
                                      "--scenario", "loss", "--p", "0.5", "--m", "10000",
                                      "--n", "10", "--trials", "100000"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["events"] == 100_000
        assert math.isfinite(payload["z_score"])

    def test_rare_event_guard_exits_3(self, runner):
        result = runner.invoke(main, ["simulate", "--scenario", "loss", "--p", "1e-6",
                                      "--m", "8", "--n", "3", "--trials", "1000"])
        assert result.exit_code == 3

    def test_availability_scenario(self, runner):
        payload = json.loads(invoke(runner, [
            "--format", "json", "--seed", "9", "simulate", "--scenario",
            "availability", "--dcs", "2", "--q", "0.01", "--m", "8", "--n", "4",
            "--trials", "200000",
        ]).output)
        assert payload["analytic"] == pytest.approx(0.0199, rel=1e-8)
        assert abs(payload["z_score"]) < 4

    def test_availability_with_colocated_replicas(self, runner):
        # more replicas than DCs: the balanced placement co-locates and the
        # analytic counterpart is still exact
        payload = json.loads(invoke(runner, [
            "--format", "json", "--seed", "3", "simulate", "--scenario",
            "availability", "--dcs", "2", "--q", "0.05", "--p-unavail", "0.1",
            "--replicas", "3", "--trials", "200000",
        ]).output)
        assert payload["analytic"] is not None
        assert abs(payload["z_score"]) < 4

    def test_latency_scenario(self, runner):
        payload = json.loads(invoke(runner, [
            "--format", "json", "--seed", "5", "simulate", "--scenario", "latency",
            "--latencies", "1,100", "--p", "0.01", "--trials", "200000",
        ]).output)
        assert payload["mode"] == "replication"
        assert abs(payload["z_score"]) < 4

    def test_check_flag_passes_calibrated_run(self, runner):
        result = runner.invoke(main, ["--check", "--seed", "42", *self.ARGS])
        assert result.exit_code == 0

    def test_check_flag_fails_on_large_z(self, runner, monkeypatch):
        fake = SimulationResult(trials=10, events=5, point_estimate=0.5,
                                standard_error=0.01, analytic=0.4, z_score=10.0)
        monkeypatch.setattr("durakit.simulate.simulate_loss",
                            lambda *args, **kwargs: fake)
        result = runner.invoke(main, ["--check", *self.ARGS])
        assert result.exit_code == 3
        result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 0  # reporting only without --check

    def test_check_flag_fails_on_nan_z(self, runner, monkeypatch):
        # abs(nan) > limit is False; a z that is not a number fails the check
        fake = SimulationResult(trials=10, events=None, point_estimate=math.inf,
                                standard_error=math.inf, analytic=1.0, z_score=math.nan)
        monkeypatch.setattr("durakit.simulate.simulate_loss",
                            lambda *args, **kwargs: fake)
        result = runner.invoke(main, ["--check", *self.ARGS])
        assert result.exit_code == 3
        assert "|z| = nan is not within 4.0" in result.stderr

    @pytest.mark.parametrize("args", [
        ["--latencies", "1e308,1e308", "--m", "8", "--n", "3"],
        ["--latencies", "1e300,1e308"],
        ["--latencies", "1e308"],
    ])
    def test_largest_finite_latencies_give_finite_estimates(self, runner, args):
        # unscaled, the moments' sums and squares overflow: the EC run printed
        # an estimate of -inf and a z of nan, the replication run one of inf
        result = runner.invoke(main, ["--format", "json", "--check", "simulate",
                                      "--scenario", "latency", "--p", "0.05", *args,
                                      "--trials", "100000"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        for key in ("estimate", "standard_error", "analytic", "z_score"):
            assert math.isfinite(payload[key]), (key, payload[key])
        assert payload["estimate"] == pytest.approx(payload["analytic"], rel=0.05)

    def test_missing_params_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--scenario", "loss", "--p", "0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args,message", [
        (["--scenario", "availability", "--replicas", "3"], "needs --dcs"),
        (["--scenario", "availability", "--dcs", "3", "--m", "4"],
         "needs --replicas or both --m and --n"),
        (["--scenario", "latency", "--p", "0.01"], "needs --latencies and --p"),
        (["--scenario", "latency", "--latencies", "1,100"], "needs --latencies and --p"),
        (["--scenario", "latency", "--p", "0.01", "--latencies", "1,100", "--m", "4"],
         "needs both --m and --n"),
        (["--scenario", "latency", "--p", "0.01", "--latencies", "1,100", "--n", "3"],
         "needs both --m and --n"),
        (["--scenario", "availability", "--dcs", "3", "--replicas", "3", "--m", "8",
          "--n", "3"], "--replicas conflicts with --m and --n"),
    ])
    def test_incomplete_scenario_is_usage_error(self, runner, args, message):
        result = runner.invoke(main, ["simulate", *args])
        assert result.exit_code == 2
        assert message in result.output


class TestCodecCommands:
    def encode(self, runner, tmp_path, scheme="rs:8+3", size=100_000, seed=0):
        import random

        data = random.Random(seed).randbytes(size)
        source = tmp_path / "object.bin"
        source.write_bytes(data)
        out_dir = tmp_path / "frags"
        result = invoke(runner, ["--format", "json", "codec", "encode",
                                 str(source), "--scheme", scheme,
                                 "--out-dir", str(out_dir)])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        return data, [row["file"] for row in rows]

    def test_round_trip_with_three_fragments_deleted(self, runner, tmp_path):
        data, files = self.encode(runner, tmp_path)
        assert len(files) == 11
        survivors = files[1:4] + files[6:]  # drop indices 0, 4, 5
        out = tmp_path / "restored.bin"
        result = invoke(runner, ["codec", "decode", *survivors, "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == data

    def test_fragments_used_counts_distinct_fragments_read(self, runner, tmp_path):
        data, files = self.encode(runner, tmp_path, size=10_000)
        out = tmp_path / "restored.bin"
        # all eleven fragments plus a duplicate: only the eight data shards are read
        result = invoke(runner, ["--format", "json", "codec", "decode", *files,
                                 files[0], "--out", str(out)])
        assert json.loads(result.output)["fragments_used"] == 8
        assert out.read_bytes() == data
        # data shard 0 lost, so one parity row is read in its place
        result = invoke(runner, ["--format", "json", "codec", "decode", *files[1:],
                                 files[9], "--out", str(out)])
        assert json.loads(result.output)["fragments_used"] == 8
        assert out.read_bytes() == data

    def test_insufficient_fragments_exit_4(self, runner, tmp_path):
        _, files = self.encode(runner, tmp_path)
        out = tmp_path / "restored.bin"
        result = runner.invoke(main, ["codec", "decode", *files[:7],
                                      "--out", str(out)])
        assert result.exit_code == 4

    def test_corrupt_fragment_exit_5(self, runner, tmp_path):
        from pathlib import Path

        _, files = self.encode(runner, tmp_path, size=5_000)
        victim = Path(files[2])
        raw = bytearray(victim.read_bytes())
        raw[100] ^= 0xFF
        victim.write_bytes(bytes(raw))
        result = runner.invoke(main, ["codec", "decode", *files[:9],
                                      "--out", str(tmp_path / "x.bin")])
        assert result.exit_code == 5

    def test_wrong_recorded_checksum_exit_5(self, runner, tmp_path):
        import dataclasses

        from durakit.codec import read_fragment, write_fragment

        _, files = self.encode(runner, tmp_path, size=5_000)
        fragment = read_fragment(files[2])  # verified on read
        write_fragment(
            dataclasses.replace(fragment, checksum=fragment.checksum ^ 1), files[2]
        )
        result = runner.invoke(main, ["codec", "decode", *files[:9],
                                      "--out", str(tmp_path / "x.bin")])
        assert result.exit_code == 5

    def test_malformed_fragment_exit_6(self, runner, tmp_path):
        from pathlib import Path

        _, files = self.encode(runner, tmp_path, size=5_000)
        Path(files[0]).write_bytes(b"garbage, not a fragment")
        result = runner.invoke(main, ["codec", "decode", *files,
                                      "--out", str(tmp_path / "x.bin")])
        assert result.exit_code == 6

    def test_lrc_round_trip(self, runner, tmp_path):
        data, files = self.encode(runner, tmp_path, scheme="lrc-6-2-2", size=33_333)
        assert len(files) == 10
        survivors = files[2:]  # two failures, always recoverable
        out = tmp_path / "restored.bin"
        result = invoke(runner, ["codec", "decode", *survivors, "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == data

    def test_replication_encode_produces_copies(self, runner, tmp_path):
        from durakit.codec import read_fragment

        data, files = self.encode(runner, tmp_path, scheme="rep:3", size=1_000)
        assert len(files) == 3
        for path in files:
            assert read_fragment(path).payload == data

    @pytest.mark.parametrize("scheme, lost", [("rs:8+3", 3), ("lrc", 3), ("rep:3", 2)])
    def test_long_shards_match_the_library_and_decode(self, runner, tmp_path, scheme,
                                                       lost):
        from pathlib import Path

        from durakit.codec import fragment_to_bytes, gf256
        from durakit.codec.linear import code_of, encode

        data, files = self.encode(runner, tmp_path, scheme=scheme, size=600_003)
        fragments = encode(code_of(parse_scheme(scheme)), data, None)
        # every shard takes the pair path, whose fragments keep their frames
        assert min(f.payload_len for f in fragments) >= gf256.LONG_MIN_BYTES
        assert [Path(path).read_bytes() for path in files] == [
            fragment_to_bytes(f) for f in fragments
        ]
        out = tmp_path / "restored.bin"
        # the first ``lost`` fragments are data, so the decode has to solve
        result = invoke(runner, ["--format", "json", "codec", "decode", *files[lost:],
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == data

    def test_report_lrc(self, runner):
        result = invoke(runner, ["--format", "json", "codec", "report",
                                 "--scheme", "lrc-6-2-2", "--max-t", "4"])
        payload = json.loads(result.output)
        by_t = {row["failures"]: row for row in payload["rows"]}
        assert by_t[3]["fraction"] == 1.0
        assert by_t[4]["fraction"] == pytest.approx(0.86, abs=0.01)
        assert by_t[4]["recoverable"] == 180
        assert by_t[4]["total_patterns"] == 210

    def test_missing_output_directory_is_one_line_exit_2(self, runner, tmp_path):
        _, files = self.encode(runner, tmp_path)
        out = tmp_path / "nodir" / "x.bin"
        result = invoke(runner, ["codec", "decode", *files, "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"error: [Errno 2] No such file or directory: {str(out)!r}"
        ]

    def test_output_directory_under_a_file_is_one_line_exit_2(self, runner, tmp_path):
        source = tmp_path / "obj.bin"
        source.write_bytes(b"some object bytes")
        (tmp_path / "afile").write_bytes(b"")
        result = invoke(runner, ["codec", "encode", str(source), "--scheme", "rs:4+2",
                                 "--out-dir", str(tmp_path / "afile" / "sub")])
        assert result.exit_code == 2
        [line] = result.stderr.splitlines()
        assert line.startswith("error: [Errno 20] Not a directory")

    def test_empty_input_is_usage_error(self, runner, tmp_path):
        source = tmp_path / "empty.bin"
        source.write_bytes(b"")
        result = runner.invoke(main, ["codec", "encode", str(source),
                                      "--scheme", "rs:4+2",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_report_hybrid_is_usage_error(self, runner):
        result = runner.invoke(main, ["codec", "report", "--scheme", "hybrid:2x4+2"])
        assert result.exit_code == 2
        assert "unknown scheme kind" in result.output

    def test_report_default_max_t_clamps_to_fragment_count(self, runner):
        result = invoke(runner, ["--format", "json", "codec", "report",
                                 "--scheme", "rep:3"])
        fractions = [row["fraction"] for row in json.loads(result.output)["rows"]]
        assert fractions == [1.0, 1.0, 1.0, 0.0]
        explicit = runner.invoke(main, ["codec", "report", "--scheme", "rep:3",
                                        "--max-t", "4"])
        assert explicit.exit_code == 2
        assert "max_t must be within 0..3, got 4" in explicit.output

    def test_report_rs_threshold(self, runner):
        result = invoke(runner, ["--format", "json", "codec", "report",
                                 "--scheme", "rs:6+3", "--max-t", "4"])
        payload = json.loads(result.output)
        fractions = [row["fraction"] for row in payload["rows"]]
        assert fractions == [1.0, 1.0, 1.0, 1.0, 0.0]


class TestCurve:
    def test_loss_monotone_in_p(self, runner):
        result = invoke(runner, ["curve", "--x", "p",
                                 "--values", "0.001,0.005,0.01,0.05,0.1",
                                 "--scheme", "rep:3", "--scheme", "ec:8+3"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        for label in ("rep:3", "ec:8+3"):
            losses = [float(r["loss"]) for r in rows if r["scheme"] == label]
            assert losses == sorted(losses)

    def test_first_sufficient_parity_is_three(self, runner):
        result = invoke(runner, ["curve", "--x", "n", "--values", "1,2,3,4,5",
                                 "--p", "0.005", "--scheme", "ec:8+1"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        first = next(r for r in rows if float(r["loss"]) < 1e-6)
        assert first["x"] == "3"

    def test_scale_sweep_non_increasing(self, runner):
        result = invoke(runner, ["curve", "--x", "scale",
                                 "--values", "1,2,3,4,5,6,7,8",
                                 "--p", "0.01", "--scheme", "ec:2+1"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        losses = [float(r["loss"]) for r in rows]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert rows[-1]["scheme"] == "ec:16+8"

    @pytest.mark.parametrize("axis, swept", [
        ("m", [ErasureScheme(4, 3), ErasureScheme(8, 3)]),
        ("n", [ErasureScheme(8, 4), ErasureScheme(8, 8)]),
        ("scale", [ErasureScheme(32, 12), ErasureScheme(64, 24)]),
    ], ids=["m", "n", "scale"])
    def test_sweep_replaces_the_fields_of_erasure_schemes_only(self, runner, axis,
                                                               swept):
        # replication has no m or n, so every axis leaves rep:3 as it is
        result = invoke(runner, ["curve", "--x", axis, "--values", "4,8", "--p", "0.01",
                                 "--scheme", "ec:8+3", "--scheme", "rep:3"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [(r["x"], r["scheme"]) for r in rows] == [
            ("4", swept[0].label), ("4", "rep:3"), ("8", swept[1].label), ("8", "rep:3")
        ]
        assert float(rows[0]["loss"]) == prob_loss_ec(0.01, swept[0].m, swept[0].n)
        assert float(rows[1]["loss"]) == float(rows[3]["loss"])

    def test_default_format_is_csv_with_documented_columns(self, runner):
        result = invoke(runner, ["curve", "--x", "p", "--values", "0.01",
                                 "--scheme", "rep:3", "--scheme", "ec:4+2"])
        header = result.output.splitlines()[0]
        assert header == ("x,scheme,redundancy_factor,loss,unavailability,"
                          "recoverable_failure,expected_latency,repair_remote")

    def test_shares_the_comparison_options_with_compare(self, runner):
        curve_help = invoke(runner, ["curve", "--help"]).output
        compare_help = invoke(runner, ["compare", "--help"]).output
        for text in ("Loss target to annotate", "Repeatable; e.g. --scheme",
                     "Data center count.", "Per-DC outage probability.",
                     "Per-disk unavailability", "Per-site latencies"):
            assert text in curve_help and text in compare_help

    def test_meets_target_column_with_epsilon(self, runner):
        result = invoke(runner, ["curve", "--x", "n", "--values", "1,2,3",
                                 "--p", "0.005", "--epsilon", "1e-6",
                                 "--scheme", "ec:8+1"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [r["meets_target"] for r in rows] == ["False", "False", "True"]

    def test_q_sweep_needs_dcs(self, runner):
        result = invoke(runner, ["curve", "--x", "q", "--values", "0.001,0.01,0.1",
                                 "--p", "0.005", "--dcs", "3",
                                 "--scheme", "ec:6+3"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        unavail = [float(r["unavailability"]) for r in rows]
        assert unavail == sorted(unavail)

    def test_a_swept_q_out_of_range_is_refused_without_dcs(self, runner):
        result = runner.invoke(main, ["curve", "--x", "q", "--values", "0.01,7",
                                      "--p", "0.01", "--scheme", "rep:3",
                                      "--scheme", "ec:8+3"])
        assert result.exit_code == 2
        assert "q must be within [0, 1], got 7.0" in result.stderr

    def test_missing_fixed_p_usage_error(self, runner):
        result = runner.invoke(main, ["curve", "--x", "n", "--values", "1,2",
                                      "--scheme", "ec:8+1"])
        assert result.exit_code == 2

    def test_bad_values_usage_error(self, runner):
        result = runner.invoke(main, ["curve", "--x", "p", "--values", "a,b",
                                      "--scheme", "rep:3", "--scheme", "ec:4+2"])
        assert result.exit_code == 2


class TestHostileInput:
    LOSS = ["simulate", "--scenario", "loss", "--p", "0.1", "--m", "2", "--n", "1"]

    def test_huge_trials_is_usage_error(self, runner):
        result = runner.invoke(main, [*self.LOSS, "--trials", "1000000000000000"])
        assert result.exit_code == 2
        assert "MAX_TRIALS" in result.stderr

    def test_oversized_count_table_is_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--scenario", "loss", "--p", "0.5",
                                      "--m", "2000000", "--n", "1"])
        assert result.exit_code == 2
        assert "MAX_TABLE_COUNT" in result.stderr

    @pytest.mark.parametrize("args", [
        ["compare", "--p", "0.01", "--scheme", "ec:100000000000000+3", "--scheme", "rep:3"],
        ["curve", "--x", "scale", "--values", "1,1000000", "--p", "0.01",
         "--scheme", "ec:8+3"],
        ["plan", "--mode", "ec", "--epsilon", "1e-9", "--p", "0.005",
         "--m", "100000000000000", "--max-n", "2"],
        ["plan", "--mode", "ec", "--epsilon", "1e-9", "--p", "0.005", "--m", "8",
         "--max-n", "100000000000000"],
        ["compare", "--p", "0.01", "--scheme", "ec:8+3", "--scheme", "rep:3",
         "--dcs", "100000000000000"],
        ["curve", "--x", "p", "--values", "0.01", "--scheme", "ec:8+3",
         "--dcs", "100000000000000"],
        ["simulate", "--scenario", "availability", "--m", "8", "--n", "3",
         "--dcs", "100000000000000", "--trials", "1000"],
        ["simulate", "--scenario", "availability", "--replicas", "100000000000000",
         "--dcs", "3", "--trials", "1000"],
    ], ids=["scheme", "curve-sweep", "plan-m", "plan-max-n", "compare-dcs",
            "curve-dcs", "simulate-dcs", "simulate-scheme"])
    def test_counts_above_the_table_limit_exit_2_promptly(self, runner, args):
        started = time.monotonic()
        result = invoke(runner, args)
        assert time.monotonic() - started < 1.0
        assert result.exit_code == 2
        assert "1048576" in result.stderr

    def test_negative_precision_is_usage_error(self, runner):
        result = runner.invoke(main, ["--precision", "-1", "plan", "--mode", "replication",
                                      "--epsilon", "1e-6", "--p", "0.01"])
        assert result.exit_code == 2
        assert "Invalid value for '--precision'" in result.stderr

    def test_zero_trials_is_usage_error_not_the_guard(self, runner):
        result = runner.invoke(main, [*self.LOSS, "--trials", "0"])
        assert result.exit_code == 2

    def test_non_numeric_latencies_is_usage_error(self, runner):
        result = runner.invoke(main, ["compare", "--p", "0.01", "--scheme", "rep:3",
                                      "--scheme", "ec:8+3", "--latencies", "1,far"])
        assert result.exit_code == 2
        assert "latencies must be numbers" in result.stderr

    def test_infinite_latency_is_usage_error(self, runner):
        result = runner.invoke(main, ["--format", "json", "compare", "--p", "0.01",
                                      "--scheme", "rep:3", "--scheme", "ec:8+3",
                                      "--latencies", "1,inf"])
        assert result.exit_code == 2
        assert "finite" in result.stderr
        assert "Infinity" not in result.stdout


class TestWarnings:
    ARGS = ["--format", "json", "compare", "--p", "0.3", "--p-unavail", "0.4",
            "--scheme", "rep:4", "--scheme", "ec:10+4", "--scheme", "ec:20+10",
            "--dcs", "4", "--q", "0.05", "--latencies", "2,80"]

    def test_library_warnings_are_one_plain_line_each(self, runner):
        result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 0
        lines = result.stderr.splitlines()
        # m*p = 4 for ec:10+4 and 8 for ec:20+10; rep:4 lowers to m = 1
        assert len(lines) == 2
        assert all(line.startswith("warning: m*p = ") for line in lines)
        assert "UserWarning" not in result.stderr
        assert "cli.py" not in result.stderr
        assert len(json.loads(result.stdout)["rows"]) == 3

    def test_warnings_never_escape_as_errors(self, runner):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 0
        assert "warning:" in result.stderr
