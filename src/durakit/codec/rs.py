"""Systematic Reed-Solomon erasure codec over GF(256).

The generator stacks an m x m identity over an n x m Cauchy block, so the
first m fragments are the object split into equal shards and any m of the
m+n fragments reconstruct it (every square submatrix of a Cauchy matrix is
invertible).  Parity rows are scaled so their first column is 1, which makes
the m=1 code produce literal replicas.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..probability import ErasureScheme
from . import gf256, linear
from .fragments import MAX_TOTAL_FRAGMENTS, Fragment


def parity_matrix(m: int, n: int) -> list[list[int]]:
    """n x m Cauchy block with rows scaled so column 0 is all ones.

    Data points are 0..m-1 and parity points m..m+n-1; the two sets are
    disjoint field elements, so 1/(x ^ y) is defined everywhere.
    """
    if m + n > MAX_TOTAL_FRAGMENTS:
        raise ValueError(
            f"m+n must be <= {MAX_TOTAL_FRAGMENTS} over GF(256), got {m + n}"
        )
    rows = []
    for i in range(n):
        x = m + i
        rows.append([gf256.mul(x, gf256.inv(x ^ j)) for j in range(m)])
    return rows


def generator_matrix(m: int, n: int) -> list[list[int]]:
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    rows.extend(parity_matrix(m, n))
    return rows


def rs_encode(
    data: bytes, m: int, n: int, object_id: bytes | None = None
) -> list[Fragment]:
    """Split ``data`` into m shards and add n parity shards of the same size."""
    return linear.encode(linear.code_of(ErasureScheme(m, n)), data, object_id)


def rs_decode(fragments: Iterable[Fragment]) -> bytes:
    """Reconstruct the original object from any m distinct fragments."""
    return linear.decode(fragments, mds=True)
