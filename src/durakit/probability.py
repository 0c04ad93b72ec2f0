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
    it is not MDS.  ``durakit.codec.lrc`` holds its generator rows.
    """

    mds = False
    fragment_count = 10
    data_fragments = 6
    label = "lrc:6+2+2"


LRC_6_2_2 = LrcScheme()


# Stirling's error log(x!) - log(sqrt(2 pi x) (x/e)**x) for x = 1..15; above
# 15 its asymptotic series is exact to double precision.
_STIRLING_ERROR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirling_error(x: int) -> float:
    if x <= len(_STIRLING_ERROR):
        return _STIRLING_ERROR[x - 1]
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * xx)) / xx) / xx) / xx) / x


def _deviance(x: int, mean: float) -> float:
    """x*log(x/mean) + mean - x, summed as a series when x is near the mean."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total = (x - mean) * v
    term = 2 * x * v
    # |v| < 0.1, so each term is at most 1% of the last
    for odd in range(3, 1000, 2):
        term *= v * v
        following = total + term / odd
        if following == total:
            break
        total = following
    return total


def binomial_tail(p: float, total: int, threshold: int) -> float:
    """P[X > threshold] for X ~ Binomial(total, p).

    The tail is its largest term times a sum of term ratios.  That term, at
    the mode or at threshold + 1, is the only one formed in log space, by
    Loader's saddle-point expansion (as in R's ``dbinom``): Stirling errors
    plus the deviances of both counts from their means.  None of these
    cancel, so its error does not grow with ``total``, and a call at total
    2**20 takes milliseconds.  The other terms follow from it by the ratio
    of neighbouring terms, so every ratio is at most 1 and the walk away
    from it stops once the ratios are negligible.

    The result stays within 1e-12 relative of the exact value wherever that
    value is a normal float.  Measured against an exact rational oracle:
    8e-16 at total 16,000 and 3e-16 at total 50,000 (p = 0.5); at most
    2e-13 over 1,000 random inputs with total up to 255, the worst where
    the tail is near 1e-292 and its log is large.
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

    top = min(total, max(threshold + 1, math.floor((total + 1) * p)))
    if top == total:
        log_top = total * math.log(p)
    else:
        rest = total - top
        log_top = (
            _stirling_error(total) - _stirling_error(top) - _stirling_error(rest)
            - _deviance(top, total * p) - _deviance(rest, total * (1.0 - p))
            - 0.5 * (math.log(2 * math.pi * top) + math.log1p(-top / total))
        )
    odds = p / (1.0 - p)
    ratios = [1.0]
    ratio = 1.0
    for i in range(top + 1, total + 1):
        ratio *= (total - i + 1) / i * odds
        if ratio < _NEGLIGIBLE_TERM:
            break
        ratios.append(ratio)
    ratio = 1.0
    for i in range(top, threshold + 1, -1):
        ratio *= i / ((total - i + 1) * odds)
        if ratio < _NEGLIGIBLE_TERM:
            break
        ratios.append(ratio)
    return min(1.0, math.exp(log_top + math.log(math.fsum(ratios))))


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
    """Smallest n in 1..cap whose loss(n) meets epsilon, else SolverBoundError."""
    _check_prob("epsilon", epsilon, exclusive=True)
    _check_prob("p", p, exclusive=True)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    for n in range(1, cap + 1):
        if meets_target(loss(n), epsilon):
            return n
    raise SolverBoundError(
        f"no parity count n <= {cap} {target} {epsilon!r} for m={m}, p={p!r}"
    )


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


def redundancy_factor(scheme) -> float:
    """Storage multiplier of a scheme: fragments stored per data fragment."""
    try:
        return scheme.fragment_count / scheme.data_fragments
    except AttributeError:
        raise TypeError(f"unsupported scheme type: {type(scheme).__name__}") from None


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
