"""Independent reference computations the test suite checks the library against.

Everything here is deliberately brute force: exact rational sums and
exhaustive state enumeration, sharing no code path with the library.
"""

from fractions import Fraction
from functools import lru_cache
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


def exact_unreachable_pmf(count: int, copies: int, q: float, p_unavail: float,
                          cut: int) -> list[Fraction]:
    """P[min(U, cut) = u], U the unreachable fragments of ``copies`` data
    centers of ``count`` fragments each, in exact arithmetic.

    One DC's pmf enumerates its state and every fragment's; the sum over the
    DCs is ``copies`` plain convolutions, one DC at a time, uncut; the mass at
    ``cut`` and above is gathered once, at the end.  The table is as long as
    the uncut one allows, at most cut + 1 entries.
    """
    qf = Fraction(q)
    pu = Fraction(p_unavail)
    one = [Fraction(0)] * (count + 1)
    one[count] += qf  # the DC is out: everything in it is unreachable
    for states in product((0, 1), repeat=count):
        prob = 1 - qf
        for down in states:
            prob *= pu if down else 1 - pu
        one[sum(states)] += prob
    total = [Fraction(1)]
    for _ in range(copies):
        total = [sum(total[i] * one[u - i]
                     for i in range(max(0, u - count), min(u, len(total) - 1) + 1))
                 for u in range(len(total) + count)]
    return total[:cut] + [sum(total[cut:])] if len(total) > cut + 1 else total


def exact_cut_sum_pmf(pmfs, cut: int) -> list[Fraction]:
    """P[min(X_1 + ... + X_g, cut) = u] for independent X_i of the exact ``pmfs``.

    Plain convolutions, one table at a time, uncut; the mass at ``cut`` and
    above is gathered once, at the end.
    """
    total = [Fraction(1)]
    for pmf in pmfs:
        total = [sum(total[i] * pmf[u - i]
                     for i in range(max(0, u - len(pmf) + 1), min(u, len(total) - 1) + 1))
                 for u in range(len(total) + len(pmf) - 1)]
    return total[:cut] + [sum(total[cut:])] if len(total) > cut + 1 else total


def _gf256_mul(a: int, b: int) -> int:
    """a * b in GF(2^8) modulo x^8 + x^4 + x^3 + x^2 + 1, by shift and add."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return acc


def gf256_rank(rows, cols: int) -> int:
    """Rank over GF(2^8) of the first ``cols`` columns of ``rows``.

    Plain Gaussian elimination that never divides: a row is cleared against
    the pivot row by cross-multiplying, a * row ^ b * pivot, which keeps the
    row space of the rows below the pivot.
    """
    work = [list(row[:cols]) for row in rows]
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                a, b = top[c], work[i][c]
                work[i] = [_gf256_mul(a, x) ^ _gf256_mul(b, y) for x, y in zip(work[i], top)]
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _subset_rank(rows, indices: frozenset, cols: int) -> int:
    return gf256_rank([rows[i] for i in sorted(indices)], cols)


def scalar_repair_sources(code, placement, failed: int, unavailable) -> list[int] | None:
    """Rebuild sources for ``failed`` by the original scalar search; None if none.

    An intact declared local set is used whole; otherwise survivors are taken
    same-DC-first, an MDS code reads its first k of them, and any other code
    accumulates survivors until one scalar rank test per step says the failed
    row lies in their span, then drops, in order, each source whose removal
    keeps it there.
    """
    gone = {failed, *unavailable}
    if code.local_sets and gone.isdisjoint(code.local_sets[failed]):
        return list(code.local_sets[failed])
    failed_dc = placement.assignment[failed]
    survivors = sorted(
        (i for i in range(code.count) if i not in gone),
        key=lambda i: (placement.assignment[i] != failed_dc, i),
    )
    if code.mds:
        return survivors[: code.k] if len(survivors) >= code.k else None

    def covers(indices):
        base = _subset_rank(code.rows, frozenset(indices), code.k)
        return _subset_rank(code.rows, frozenset([*indices, failed]), code.k) == base

    chosen: list[int] = []
    for index in survivors:
        chosen.append(index)
        if covers(chosen):
            break
    else:
        return None
    for index in list(chosen):
        trimmed = [i for i in chosen if i != index]
        if trimmed and covers(trimmed):
            chosen = trimmed
    return chosen


def first_meeting(loss, epsilon: float, cap: int):
    """Smallest n in 1..cap with loss(n) <= epsilon, trying every n in turn; None if none."""
    return next((n for n in range(1, cap + 1) if loss(n) <= epsilon), None)
