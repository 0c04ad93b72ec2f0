"""Independent reference computations the test suite checks the library against.

Everything here is deliberately brute force: exact rational sums and
exhaustive state enumeration, sharing no code path with the library.
"""

from fractions import Fraction
from itertools import product
from math import comb


def exact_binomial_tail(p: float, total: int, threshold: int) -> Fraction:
    """P[X > threshold] for X ~ Binomial(total, p), in exact rational arithmetic.

    The float p is converted to its exact binary value a/d so the comparison
    isolates summation error, not input rounding.  The tail is the integer
    sum of C(total, i) a**i (d-a)**(total-i) over d**total, summed by Horner's
    rule in a from the last term down, with one reduction at the end; total
    16,000 at p = 0.5 takes about 0.1 s.
    """
    a, d = Fraction(p).as_integer_ratio()
    b = d - a
    acc, coef, b_pow = 0, 1, 1
    for i in range(total, threshold, -1):
        acc = acc * a + coef * b_pow
        coef = coef * i // (total - i + 1)
        b_pow *= b
    return Fraction(acc * a ** (threshold + 1), d**total)


def enumerate_loss(p: float, m: int, n: int) -> float:
    """Loss probability by enumerating all 2**(m+n) disk states."""
    total = m + n
    acc = 0.0
    for states in product((0, 1), repeat=total):
        dead = sum(states)
        if dead > n:
            acc += p**dead * (1.0 - p) ** (total - dead)
    return acc


def enumerate_unavailability(
    p_unavail: float,
    outage_probs: tuple[float, ...],
    assignment: tuple[int, ...],
    need: int,
) -> float:
    """Unavailability by enumerating every joint DC-outage and disk state."""
    dcs = len(outage_probs)
    fragments = len(assignment)
    acc = 0.0
    for dc_out in product((0, 1), repeat=dcs):
        p_dc = 1.0
        for q, out in zip(outage_probs, dc_out):
            p_dc *= q if out else (1.0 - q)
        if p_dc == 0.0:
            continue
        for disk_down in product((0, 1), repeat=fragments):
            p_disk = 1.0
            reachable = 0
            for f, down in enumerate(disk_down):
                p_disk *= p_unavail if down else (1.0 - p_unavail)
                if not down and not dc_out[assignment[f]]:
                    reachable += 1
            if reachable < need:
                acc += p_dc * p_disk
    return acc


def enumerate_failover_latency(latencies: tuple[float, ...], p: float) -> float:
    """Expected nearest-first failover latency over every replica state.

    Trials where every replica is down contribute zero, matching the
    unconditional analytic sum.
    """
    acc = 0.0
    for states in product((0, 1), repeat=len(latencies)):
        prob = 1.0
        for down in states:
            prob *= p if down else (1.0 - p)
        first_up = next((i for i, down in enumerate(states) if not down), None)
        if first_up is not None:
            acc += prob * latencies[first_up]
    return acc


def exact_binomial_pmf(p: float, total: int, counts=None) -> list[Fraction]:
    """P[X = k] for each k in ``counts`` (default 0..total), X ~ Binomial(total, p),
    as exact rationals."""
    pf = Fraction(p)
    qf = 1 - pf
    counts = range(total + 1) if counts is None else counts
    return [comb(total, k) * pf**k * qf ** (total - k) for k in counts]


def exact_first_available_pmf(p: float, sites: int) -> list[Fraction]:
    """P[the nearest available site is i], i = sites meaning none, by
    enumerating every joint site state in exact arithmetic."""
    pf = Fraction(p)
    pmf = [Fraction(0)] * (sites + 1)
    for states in product((0, 1), repeat=sites):
        prob = Fraction(1)
        for down in states:
            prob *= pf if down else 1 - pf
        pmf[next((i for i, down in enumerate(states) if not down), sites)] += prob
    return pmf


def exact_reachable_pmf(count: int, q: float, p_unavail: float) -> list[Fraction]:
    """P[r of one data center's ``count`` fragments are reachable], r = 0..count,
    by enumerating the DC's state and every fragment's in exact arithmetic."""
    qf = Fraction(q)
    pu = Fraction(p_unavail)
    pmf = [Fraction(0)] * (count + 1)
    pmf[0] += qf  # the DC is out: nothing in it is reachable
    for states in product((0, 1), repeat=count):
        prob = 1 - qf
        for down in states:
            prob *= pu if down else 1 - pu
        pmf[count - sum(states)] += prob
    return pmf
