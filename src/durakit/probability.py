"""Loss probabilities and sizing solvers for replicated and erasure coded storage.

All functions here are pure and operate on plain floats/ints.  The scheme
dataclasses describe redundancy layouts and are shared with every other
layer: each states its fragment count, its data fragment count k, its label,
and whether any k of its fragments determine the data (``mds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SolverBoundError

#: Largest parity count the sizing solver will consider before giving up.
DEFAULT_PARITY_CAP = 64

# Terms this far below the largest one cannot move the sum.
_NEGLIGIBLE_TERM = 1e-20
# Below this a term is subnormal, and subnormal products can round to themselves.
_SMALLEST_NORMAL = 2.0**-1022


def _check_prob(name: str, value: float, *, exclusive: bool = False) -> None:
    if exclusive:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be strictly between 0 and 1, got {value!r}")
    elif not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class DiskFailureModel:
    """Steady-state per-disk probabilities.

    ``p_dead`` is the chance a disk is permanently unreadable at any moment
    (mean life and replacement time folded into one number).  ``p_unavail``
    is the chance it cannot be reached at all, dead or not, so it can never
    be smaller than ``p_dead``.  Omitting ``p_unavail`` pins it to ``p_dead``.
    """

    p_dead: float
    p_unavail: float | None = None

    def __post_init__(self):
        if self.p_unavail is None:
            object.__setattr__(self, "p_unavail", self.p_dead)
        _check_prob("p_dead", self.p_dead)
        _check_prob("p_unavail", self.p_unavail)
        if self.p_dead > self.p_unavail:
            raise ValueError(
                f"p_dead ({self.p_dead!r}) cannot exceed p_unavail ({self.p_unavail!r})"
            )


@dataclass(frozen=True)
class ReplicationScheme:
    """Whole-object copies, one per disk."""

    mds = True
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"replica count must be >= 1, got {self.k}")

    @property
    def fragment_count(self) -> int:
        return self.k

    @property
    def data_fragments(self) -> int:
        """One: every copy is the whole object, as in RS 1+(k-1)."""
        return 1

    @property
    def label(self) -> str:
        return f"rep:{self.k}"


@dataclass(frozen=True)
class ErasureScheme:
    """m data fragments plus n parity fragments; any m of them reconstruct."""

    mds = True
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"data fragment count must be >= 1, got {self.m}")
        if self.n < 0:
            raise ValueError(f"parity fragment count must be >= 0, got {self.n}")

    @property
    def fragment_count(self) -> int:
        return self.m + self.n

    @property
    def data_fragments(self) -> int:
        return self.m

    @property
    def label(self) -> str:
        return f"ec:{self.m}+{self.n}"


@dataclass(frozen=True)
class LrcScheme:
    """The fixed 6+2+2 local reconstruction code.

    Six data fragments in two local groups of three, one local parity per
    group and two global parities; some four-fragment losses are fatal, so
    it is not MDS.  Its shape is class data, not init fields, and
    ``durakit.codec.lrc`` builds its generator rows from it.
    """

    mds = False
    local_groups = ((0, 1, 2), (3, 4, 5))
    global_parities = 2
    data_fragments = sum(map(len, local_groups))
    fragment_count = data_fragments + len(local_groups) + global_parities
    label = f"lrc:{data_fragments}+{len(local_groups)}+{global_parities}"


LRC_6_2_2 = LrcScheme()

#: Largest count a table ranges over, fragments or sites: 8 MiB per table.
#: Larger schemes end in a usage error, not a huge allocation.
MAX_TABLE_COUNT = 1 << 20


def binomial_tail(p: float, total: int, threshold: int) -> float:
    """P[X > threshold] for X ~ Binomial(total, p).

    Walks outward from the mode, floor((total + 1) * p), forming each term
    from its neighbour by their ratio, in units of the mode's term, so none
    exceeds 1 and none is formed in log space; the tail is the sum of the
    terms above ``threshold`` over the sum of all of them.  A walk stops
    once a term is negligible beside the largest it is summed with; the
    upward walk always reaches threshold + 1 unless its terms underflow.

    Within 1e-12 relative of the exact value wherever that is a normal
    float; measured against an exact rational oracle, at most 2.1e-14 over
    3,000 random inputs with total up to 255 and p down to 1e-12, and
    2.2e-16 at (p, total, threshold) = (0.5, 16000, 8400).  A walk is as
    long as the spread, or the distance from the mode to the threshold: a
    call at total 2**20 and p = 0.5 takes 2-5 ms on a 2-vCPU Xeon VM.
    """
    _check_prob("p", p)
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if threshold >= total:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    if threshold == total - 1:
        # single-term tail; also keeps the replication special case m=1,
        # n=k-1 bit-identical to p**k
        return p**total

    mode = min(total, math.floor((total + 1) * p))
    odds = p / (1.0 - p)
    tail, rest = [], []  # terms above the threshold and at or below it
    (tail if mode > threshold else rest).append(1.0)
    term = 1.0
    for i in range(mode + 1, total + 1):
        term *= (total - i + 1) / i * odds
        # past the mode the terms fall, so tail[0] is the tail's largest, and
        # a term below the normal range before the tail leaves the tail there
        if term <= (_NEGLIGIBLE_TERM * tail[0] if tail else _SMALLEST_NORMAL):
            break
        (tail if i > threshold else rest).append(term)
    term = 1.0
    for i in range(mode - 1, -1, -1):
        term *= (i + 1) / ((total - i) * odds)
        if term < _NEGLIGIBLE_TERM:
            break
        (tail if i > threshold else rest).append(term)
    return math.fsum(tail) / math.fsum(tail + rest)


def prob_loss_replication(p_dead: float, copies: int) -> float:
    """Probability that all ``copies`` replicas are dead at once: p_dead**copies."""
    _check_prob("p_dead", p_dead)
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    return p_dead**copies


def prob_loss_ec(p: float, m: int, n: int) -> float:
    """Probability of data loss for an m+n code: more than n of m+n disks dead."""
    ErasureScheme(m, n)  # the scheme owns the m >= 1, n >= 0 rule
    return binomial_tail(p, m + n, n)


def meets_target(loss: float, epsilon: float) -> bool:
    """Whether a loss probability is tolerable under the target: loss <= epsilon."""
    return loss <= epsilon


def replicas_needed(epsilon: float, p: float) -> int:
    """Smallest replica count k whose loss p**k meets the target epsilon.

    Starts from the ceiling of log(epsilon)/log(p) and settles the answer by
    direct powering, so a misrounded ceiling cannot shift the result.
    """
    _check_prob("epsilon", epsilon, exclusive=True)
    _check_prob("p", p, exclusive=True)
    k = max(1, math.ceil(math.log(epsilon) / math.log(p)))
    while not meets_target(p**k, epsilon):
        k += 1
    while k > 1 and meets_target(p ** (k - 1), epsilon):
        k -= 1
    return k


def _parity_search(epsilon, p, m, cap, loss, target: str) -> int:
    """Smallest n in 1..cap whose loss(n) meets epsilon, else SolverBoundError.

    The loss falls as n grows, so n doubles from 1 (capped at ``cap``) until
    it meets the target, and the answer is bisected between the last n that
    missed and the first that met: at most about 2*log2(cap) + 2 losses.
    """
    _check_prob("epsilon", epsilon, exclusive=True)
    _check_prob("p", p, exclusive=True)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    missed, met = 0, 1
    while not meets_target(loss(met), epsilon):
        if met == cap:
            raise SolverBoundError(
                f"no parity count n <= {cap} {target} {epsilon!r} for m={m}, p={p!r}"
            )
        missed, met = met, min(2 * met, cap)
    while met - missed > 1:
        mid = (missed + met) // 2
        if meets_target(loss(mid), epsilon):
            met = mid
        else:
            missed = mid
    return met


def parity_needed(
    epsilon: float, p: float, m: int, cap: int = DEFAULT_PARITY_CAP
) -> int:
    """Smallest parity count n >= 1 whose prob_loss_ec(p, m, n) meets epsilon.

    The search starts at n=1; n=0 is expressible in prob_loss_ec but never
    returned here.  Raises SolverBoundError once n exceeds ``cap``.
    """
    return _parity_search(
        epsilon, p, m, cap, lambda n: prob_loss_ec(p, m, n),
        "achieves loss probability at most",
    )


def check_scheme(scheme) -> None:
    """Raise ``TypeError`` unless the scheme's class states the shape every layer reads."""
    for name in ("fragment_count", "data_fragments", "label", "mds"):
        if not hasattr(type(scheme), name):
            raise TypeError(f"unsupported scheme type: {type(scheme).__name__}")


def redundancy_factor(scheme) -> float:
    """Storage multiplier of a scheme: fragments stored per data fragment."""
    check_scheme(scheme)
    return scheme.fragment_count / scheme.data_fragments


def prob_any_failure(p: float, disks: int) -> float:
    """Exact probability that at least one of ``disks`` disks has failed."""
    _check_prob("p", p)
    if disks < 1:
        raise ValueError(f"disks must be >= 1, got {disks}")
    if disks == 1:
        return p
    if p == 1.0:
        return 1.0
    return -math.expm1(disks * math.log1p(-p))


def gaussian_tail_loss(p: float, m: int, n: int, scale: int = 1) -> float:
    """Normal-approximation stand-in for the exact m+n loss tail.

    Approximates P[X > scale*n] for X ~ Binomial(scale*(m+n), p) by the
    upper tail of a normal with matching mean and variance.  Useful for
    convergence arguments at large scale, and for demonstrating how badly
    the approximation can miss at small m+n.  Requires p <= n/(m+n); the
    convergence-to-zero guarantee additionally needs strict inequality.
    """
    ErasureScheme(m, n)  # the scheme owns the m >= 1, n >= 0 rule
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    _check_prob("p", p)
    bound = n / (m + n)
    if p > bound:
        raise ValueError(
            f"normal approximation requires p <= n/(m+n) = {bound!r}, got p={p!r}"
        )
    if p == 0.0:
        return 0.0
    total = scale * (m + n)
    mean = total * p
    std = math.sqrt(total * p * (1.0 - p))
    z = (scale * n - mean) / std
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gaussian_parity_estimate(
    epsilon: float, p: float, m: int, cap: int = DEFAULT_PARITY_CAP
) -> int:
    """Parity count the normal approximation claims is sufficient.

    Runs the same search as parity_needed but against gaussian_tail_loss.
    At the small fragment counts real systems use, this under-estimates the
    parity requirement of the exact solver.
    """
    # for p above n/(m+n) the approximation is undefined, and its tail would
    # not be below 0.5 anyway; 1.0 never meets an epsilon below 1
    return _parity_search(
        epsilon, p, m, cap,
        lambda n: gaussian_tail_loss(p, m, n) if p <= n / (m + n) else 1.0,
        "satisfies the normal-approximation target",
    )
