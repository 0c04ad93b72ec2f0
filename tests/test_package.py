"""The package root's public surface, and what starting the analytic commands loads.

``durakit/__init__.py`` binds the codec's and the simulator's names on first
access, so ``import durakit`` and the analytic commands never load numpy;
the surface stays the one the package has always exported.
"""

import subprocess
import sys

import pytest

import durakit

#: every name the package root exports; ``from durakit import *`` binds these
EXPORTS = {
    "ChecksumError", "CodecError", "DiskFailureModel", "DurakitError", "ErasureScheme",
    "Fragment", "FragmentRole", "InconsistentFragmentsError",
    "InsufficientFragmentsError", "LRC_6_2_2", "LatencyProfile", "LrcScheme",
    "MalformedFragmentError", "Placement", "RareEventError", "RecoverabilityReport",
    "RepairPlan", "ReplicationScheme", "SimulationResult", "SolverBoundError", "Topology",
    "UnrecoverableError", "answers", "approx_latency_ec", "approx_latency_replication",
    "balanced_placement", "binomial_tail", "codec", "ec_read_latency_expectation",
    "ec_unavailability", "errors", "expected_latency_replication",
    "gaussian_parity_estimate", "gaussian_tail_loss", "latency", "lrc_decode",
    "lrc_encode", "lrc_recoverable", "meets_target", "min_overhead_for_availability",
    "parallel", "parity_needed", "placement", "placement_unavailability",
    "prob_any_failure", "prob_loss_ec", "prob_loss_replication", "probability",
    "read_fragment", "recoverability_report", "redundancy_factor", "repair_plan",
    "replicas_needed", "replication_unavailability", "rs_decode", "rs_encode",
    "scheme_answers", "simulate", "simulate_availability", "simulate_latency", "simulate_loss",
    "write_fragment",
}


def test_star_import_yields_every_export():
    namespace = {}
    exec("from durakit import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert set(durakit.__all__) == EXPORTS
    assert EXPORTS <= set(dir(durakit))


@pytest.mark.parametrize("name", sorted(durakit._LAZY))
def test_lazy_name_is_its_home_object_and_bound_on_first_access(name, monkeypatch):
    monkeypatch.delitem(vars(durakit), name, raising=False)
    value = getattr(durakit, name)
    home = sys.modules[f"durakit.{durakit._LAZY[name]}"]
    assert value is (home if name == durakit._LAZY[name] else getattr(home, name))
    # one binding, which a tool that patches module attributes finds
    assert vars(durakit)[name] is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'rs_encoder'"):
        getattr(durakit, "rs_encoder")


def test_analytic_commands_start_without_numpy():
    script = """
import sys
from click.testing import CliRunner

def loaded():
    return {m for m in ("numpy", "durakit.codec", "durakit.simulate", "durakit.parallel")
            if m in sys.modules}

import durakit
assert loaded() == set(), ("import durakit", loaded())
import durakit.cli
assert loaded() == set(), ("import durakit.cli", loaded())
runner = CliRunner()
schemes = ["--scheme", "rep:3", "--scheme", "ec:8+3"]
for args in (
    ["plan", "--mode", "ec", "--epsilon", "1e-9", "--p", "0.01", "--m", "8"],
    ["plan", "--mode", "replication", "--epsilon", "1e-9", "--p", "0.01"],
    ["compare", "--p", "0.01", *schemes, "--latencies", "1,100", "--epsilon", "1e-9"],
    ["curve", "--x", "m", "--values", "4,8", "--p", "0.01", *schemes, "--q", "0.01"],
):
    for fmt in ("table", "json", "csv"):
        result = runner.invoke(durakit.cli.main, ["--format", fmt, *args])
        assert result.exit_code == 0, (args, result.output)
        assert loaded() == set(), (args, loaded())
# --dcs asks the codec's repair search, which still loads numpy
result = runner.invoke(durakit.cli.main, ["compare", "--p", "0.01", *schemes, "--dcs", "3"])
assert result.exit_code == 0, result.output
assert "numpy" in sys.modules
"""
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)
