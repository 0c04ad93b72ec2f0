"""durakit: cost/performance planning for replicated vs erasure coded storage.

Analytic loss, availability, and latency models, a working Reed-Solomon and
6+2+2 local-reconstruction codec over GF(256), and a deterministic Monte
Carlo simulator that cross-checks every formula.

The analytic models load with the package and need no numpy.  The codec and
the simulator, which do, load on first use: the first access to one of their
names here imports its home module and binds the name in this module, so
``import durakit`` and the ``plan``, ``compare`` and ``curve`` commands
without ``--dcs`` never load numpy.
"""

from importlib import import_module as _import_module

from .answers import scheme_answers
from .errors import (
    ChecksumError,
    CodecError,
    DurakitError,
    InconsistentFragmentsError,
    InsufficientFragmentsError,
    MalformedFragmentError,
    RareEventError,
    SolverBoundError,
    UnrecoverableError,
)
from .latency import (
    LatencyProfile,
    approx_latency_ec,
    approx_latency_replication,
    ec_read_latency_expectation,
    expected_latency_replication,
)
from .placement import (
    Placement,
    Topology,
    balanced_placement,
    ec_unavailability,
    min_overhead_for_availability,
    placement_unavailability,
    replication_unavailability,
)
from .probability import (
    LRC_6_2_2,
    DiskFailureModel,
    ErasureScheme,
    LrcScheme,
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

__version__ = "0.1.0"

#: name bound on first access -> its home module; a submodule is its own home
_LAZY = {
    "Fragment": "codec",
    "FragmentRole": "codec",
    "RecoverabilityReport": "codec",
    "RepairPlan": "codec",
    "lrc_decode": "codec",
    "lrc_encode": "codec",
    "lrc_recoverable": "codec",
    "read_fragment": "codec",
    "recoverability_report": "codec",
    "repair_plan": "codec",
    "rs_decode": "codec",
    "rs_encode": "codec",
    "write_fragment": "codec",
    "SimulationResult": "simulate",
    "simulate_availability": "simulate",
    "simulate_latency": "simulate",
    "simulate_loss": "simulate",
    "codec": "codec",
    "parallel": "parallel",
    "simulate": "simulate",
}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _LAZY[name]
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
