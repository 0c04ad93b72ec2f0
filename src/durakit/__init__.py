"""durakit: cost/performance planning for replicated vs erasure coded storage.

Analytic loss, availability, and latency models, a working Reed-Solomon and
6+2+2 local-reconstruction codec over GF(256), and a deterministic Monte
Carlo simulator that cross-checks every formula.
"""

from .codec import (
    LRC_6_2_2,
    Fragment,
    FragmentRole,
    LrcScheme,
    RecoverabilityReport,
    RepairPlan,
    lrc_decode,
    lrc_encode,
    lrc_recoverable,
    read_fragment,
    recoverability_report,
    repair_plan,
    rs_decode,
    rs_encode,
    write_fragment,
)
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
from .simulate import (
    SimulationResult,
    simulate_availability,
    simulate_latency,
    simulate_loss,
)

__version__ = "0.1.0"
