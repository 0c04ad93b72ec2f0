"""GF(256) arithmetic with reduction polynomial 0x11D.

Tables are built once at import and never mutated, so everything here is
safe to call concurrently.  Scalar helpers back the matrix algebra; bulk
payload math goes through numpy gathers, in ``combine``, which applies a
whole coefficient matrix to a set of equal-length sources:

- Payloads shorter than ``PAIR_MIN_BYTES`` take a packed-lane gather, where
  per-call cost dominates.  ``lane_tables`` packs each group of up to
  ``LANES`` output rows into one uint32 table, whose entry j*256 + b holds
  matrix[i][j] * b in row i's own byte lane (the split-table idea of Plank,
  Greenan and Miller, FAST 2013, with rows for lanes).  One index per source byte
  then serves every group: one gather and one XOR reduction over the
  sources per group.  The tables are built per call (k KiB per group) or,
  for an encoder's fixed parity rows, once per code by the caller.  The
  gather works in fixed blocks of at most ``GATHER_ITEMS`` source bytes, so
  its index buffer stays bounded whatever the code's size.
- Longer payloads are read as little-endian byte pairs, one output row at a
  time.  Each coefficient of 2 or more in a row gets a 65,536-entry uint16
  pair table, another split table, so one gather multiplies two bytes; an
  odd last byte takes the byte table.  The tables take about 20 us each to
  build and are dropped when the row is done; caching one per coefficient
  costs more memory than it saves time.
- That path works in fixed ``STRIPE_BYTES`` stripes, dealt round-robin to
  up to ``os.cpu_count()`` threads (numpy's gathers release the interpreter
  lock).  Every output byte depends only on the same bytes of the sources,
  so the result is identical at any thread count.  It is one of the
  long-path passes that run on worker threads; the others, the object-id
  hash and the CRC-32s beside it, are listed in ``durakit.parallel``.
"""

from __future__ import annotations

import numpy as np

from ..parallel import map_chunks, worker_count

ORDER = 256
POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1, primitive

_exp = [0] * 510
_log = [0] * 256
_x = 1
for _i in range(255):
    _exp[_i] = _x
    _log[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= POLY
for _i in range(255, 510):
    _exp[_i] = _exp[_i - 255]

EXP = tuple(_exp)
LOG = tuple(_log)

# MUL_TABLE[a, b] = a*b in the field; row/column 0 forced to zero since
# LOG[0] is meaningless.
_exp_arr = np.array(_exp, dtype=np.uint8)
_log_arr = np.array(_log, dtype=np.int64)
MUL_TABLE = _exp_arr[_log_arr[:, None] + _log_arr[None, :]]
MUL_TABLE[0, :] = 0
MUL_TABLE[:, 0] = 0
MUL_TABLE.setflags(write=False)

INV_TABLE = tuple(EXP[255 - LOG[a]] if a else 0 for a in range(256))


def mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return INV_TABLE[a]


def mul_bytes(coeff: int, data: np.ndarray) -> np.ndarray:
    """coeff * data elementwise over uint8 arrays."""
    if coeff == 0:
        return np.zeros_like(data)
    if coeff == 1:
        return data.copy()
    return MUL_TABLE[coeff][data]


def addmul_bytes(acc: np.ndarray, coeff: int, data: np.ndarray) -> None:
    """acc ^= coeff * data, in place."""
    if coeff == 0:
        return
    if coeff == 1:
        np.bitwise_xor(acc, data, out=acc)
    else:
        np.bitwise_xor(acc, MUL_TABLE[coeff][data], out=acc)


#: Shortest payload that ``combine`` reads as byte pairs, in stripes.
PAIR_MIN_BYTES = 64 * 1024
#: Stripe length; even, so only the last stripe can end on an odd byte.
STRIPE_BYTES = 256 * 1024
#: Source bytes per gather below ``PAIR_MIN_BYTES``: bounds the call's intp
#: index buffer at 1 MiB, while a 4 KiB object under RS 8+3, RS 10+4 or the
#: LRC still takes one block.
GATHER_ITEMS = 1 << 17
#: Output rows packed into one uint32 lane-table entry.
LANES = 4

_PAIR = np.dtype("<u2")
_LANE = np.dtype("<u4")


def _pair_table(coeff: int) -> np.ndarray:
    """coeff * (lo | hi << 8) for every byte pair, indexed by lo | hi << 8."""
    row = MUL_TABLE[coeff].astype(_PAIR)
    return ((row[:, None] << 8) | row[None, :]).ravel()


def lane_tables(matrix) -> np.ndarray:
    """Row g is the lane table of rows 4g..4g+3 of ``matrix``.

    Entry j*256 + b of a table holds matrix[i][j] * b in byte lane i - 4g of
    a little-endian uint32; lanes past the last row hold zero.
    """
    products = MUL_TABLE.take(np.asarray(matrix, dtype=np.uint8), axis=0)
    rows, count = products.shape[:2]
    tables = np.zeros((-(-rows // LANES), count, ORDER, LANES), dtype=np.uint8)
    # one strided copy per lane, over every group at once
    for lane in range(min(LANES, rows)):
        lane_rows = products[lane::LANES]
        tables[: len(lane_rows), :, :, lane] = lane_rows
    return tables.view(_LANE).reshape(len(tables), -1)


def combine(matrix, sources, lanes: np.ndarray | None = None) -> np.ndarray:
    """Row i of the result is the sum of matrix[i][j] * sources[j].

    ``sources`` are equal-length byte buffers (``bytes`` or uint8 arrays);
    the result is a (rows, length) uint8 array, with no rows for an empty
    matrix.  ``lanes``, when given, is ``lane_tables(matrix)``, kept by a
    caller that applies the same matrix again and again.
    """
    length = len(sources[0])
    if length >= PAIR_MIN_BYTES:
        out = np.zeros((len(matrix), length), dtype=np.uint8)
        arrays = [np.frombuffer(source, dtype=np.uint8) for source in sources]
        for coeffs, acc in zip(matrix, out):
            _combine_pairs(coeffs, arrays, acc)
        return out

    if not len(matrix):
        return np.empty((0, length), dtype=np.uint8)
    if lanes is None:
        lanes = lane_tables(matrix)
    out = np.empty((len(matrix), length), dtype=np.uint8)
    count = len(sources)
    offsets = np.arange(0, count * ORDER, ORDER, dtype=np.intp)[:, None]
    cols = max(1, GATHER_ITEMS // count)
    for start in range(0, length, cols):
        # slicing costs more than the join itself when one block is the call
        parts = sources if cols >= length else [
            memoryview(source)[start : start + cols] for source in sources
        ]
        low = np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(count, -1)
        index = offsets | low
        for first, table in zip(range(0, len(out), LANES), lanes):
            packed = np.bitwise_xor.reduce(table.take(index), axis=0)
            part = out[first : first + LANES, start : start + cols]
            part[...] = packed.view(np.uint8).reshape(-1, LANES)[:, : len(part)].T
    return out


def _combine_pairs(coeffs, sources, acc: np.ndarray) -> None:
    """acc ^= sum of coeffs[i] * sources[i], through pair tables, in stripes."""
    length = len(acc)
    terms = [(coeff, source) for coeff, source in zip(coeffs, sources) if coeff]
    tables = {coeff: _pair_table(coeff) for coeff, _ in terms if coeff > 1}
    starts = range(0, length, STRIPE_BYTES)
    workers = worker_count(len(starts), len(starts))

    def run(job) -> None:
        first, index, product = job
        for start in starts[first::workers]:
            stop = min(start + STRIPE_BYTES, length)
            even = stop - (stop - start) % 2
            out = acc[start:stop]
            pairs = acc[start:even].view(_PAIR)
            n = len(pairs)
            for coeff, source in terms:
                if coeff == 1:
                    np.bitwise_xor(out, source[start:stop], out=out)
                    continue
                # every uint16 indexes the table, so "clip" never fires; unlike
                # the default mode it lets take write straight into ``product``
                np.copyto(index[:n], source[start:even].view(_PAIR))
                np.take(tables[coeff], index[:n], out=product[:n], mode="clip")
                np.bitwise_xor(pairs, product[:n], out=pairs)
                if even < stop:
                    acc[even] ^= MUL_TABLE[coeff, source[even]]

    # each worker gets its index and product buffers from here, so no stripe
    # allocates; per-stripe temporaries made this loop up to twice as slow
    half = STRIPE_BYTES // 2
    jobs = [(w, np.empty(half, np.intp), np.empty(half, _PAIR)) for w in range(workers)]
    map_chunks(run, jobs, threads=workers)


def row_reduce(rows, cols: int) -> list[list[int]]:
    """Gauss-Jordan elimination on the first ``cols`` columns; later ones ride along.

    Returns the pivot rows in pivot-column order, each scaled to a leading 1
    and zero in every other pivot column.  Their count is the rank of the
    first ``cols`` columns.
    """
    work = [list(r) for r in rows]
    rank = 0
    for c in range(cols):
        if rank == len(work):
            break
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        scale = inv(work[rank][c])
        work[rank] = [mul(v, scale) for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [v ^ mul(f, w) for v, w in zip(work[i], work[rank])]
        rank += 1
    return work[:rank]


def matrix_rank(rows: list[list[int]], cols: int) -> int:
    """Rank of a matrix over GF(256)."""
    return len(row_reduce(rows, cols))


def matrix_invert(rows: list[list[int]]) -> list[list[int]]:
    """Inverse of a square matrix over GF(256); raises on singular input."""
    size = len(rows)
    reduced = row_reduce(
        [list(r) + [int(i == j) for j in range(size)] for i, r in enumerate(rows)], size
    )
    if len(reduced) < size:
        raise ValueError("matrix is singular over GF(256)")
    return [r[size:] for r in reduced]
