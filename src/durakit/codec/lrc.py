"""The 6+2+2 local reconstruction code.

Ten fragments per object: six data shards in two groups of three, one XOR
parity per group, and two global parities over all six data shards.  The
intended layout puts each group (with its local parity) in its own data
center and both globals in a third, so the most common repair, a single
data or local-parity loss, moves no bytes between data centers.

Global parity coefficients are consecutive generator powers (a_j = g**j,
b_j = g**2j).  Exhaustive enumeration shows this choice recovers every
pattern of up to three failures and 180 of the 210 four-failure patterns
(85.7%), which is the maximum any coefficient choice can reach for this
structure: the remaining 30 patterns are information-theoretically lost.
"""

from __future__ import annotations

from collections.abc import Iterable

# the descriptor lives with the other schemes; re-exported for callers here
from ..probability import LRC_6_2_2, LrcScheme
from . import gf256, linear
from .fragments import Fragment

DATA_COUNT = LRC_6_2_2.data_fragments
TOTAL_FRAGMENTS = LRC_6_2_2.fragment_count
LOCAL_GROUPS = LRC_6_2_2.local_groups
GLOBAL_PARITY_INDICES = tuple(range(DATA_COUNT + len(LOCAL_GROUPS), TOTAL_FRAGMENTS))

GLOBAL_COEFFS = tuple(
    tuple(gf256.EXP[t * j] for j in range(DATA_COUNT))
    for t in range(1, LRC_6_2_2.global_parities + 1)
)

#: Group -> DC, globals -> a third DC (fragments 0..9 in index order).
DEFAULT_DC_ASSIGNMENT = (0, 0, 0, 1, 1, 1, 0, 1, 2, 2)


def generator_rows() -> list[list[int]]:
    """All ten fragment rows as combinations of the six data shards."""
    rows = [[int(i == j) for j in range(DATA_COUNT)] for i in range(DATA_COUNT)]
    for group in LOCAL_GROUPS:
        rows.append([int(j in group) for j in range(DATA_COUNT)])
    for coeffs in GLOBAL_COEFFS:
        rows.append(list(coeffs))
    return rows


#: Per fragment, the fragments that rebuild it without a general solve: the
#: rest of its group, or all six data shards for a global parity.
LOCAL_REPAIR_SETS = (
    (1, 2, 6), (0, 2, 6), (0, 1, 6), (4, 5, 7), (3, 5, 7), (3, 4, 7),
    (0, 1, 2), (3, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5),
)


def lrc_encode(data: bytes, object_id: bytes | None = None) -> list[Fragment]:
    """Encode an object into the ten 6+2+2 fragments."""
    return linear.encode(linear.code_of(LRC_6_2_2), data, object_id)


def lrc_recoverable(failure_set: Iterable[int]) -> bool:
    """Whether the fragments outside ``failure_set`` determine all six data shards."""
    return linear.recoverable(linear.code_of(LRC_6_2_2), failure_set)


def lrc_decode(fragments: Iterable[Fragment]) -> bytes:
    """Reconstruct the object from any recoverable set of surviving fragments."""
    return linear.decode(fragments, mds=False)
