"""GF(256) arithmetic with reduction polynomial 0x11D.

Tables are built once at import and never mutated, so everything here is
safe to call concurrently.  Scalar helpers back the matrix algebra; bulk
payload math goes through ``combine``, which applies a whole coefficient
matrix to a set of equal-length sources:

- Payloads shorter than ``LONG_MIN_BYTES`` take a packed-lane gather, where
  per-call cost dominates.  ``lane_tables`` packs each group of up to
  ``LANES`` output rows into one uint32 table, whose entry j*256 + b holds
  matrix[i][j] * b in row i's own byte lane (the split-table idea of Plank,
  Greenan and Miller, FAST 2013, with rows for lanes).  One index per source byte
  then serves every group: one gather and one XOR reduction over the
  sources per group.  The tables are built per call (k KiB per group) or,
  for an encoder's fixed parity rows, once per code by the caller.  The
  gather works in fixed blocks of at most ``GATHER_ITEMS`` source bytes, so
  its index buffer stays bounded whatever the code's size.
- Longer payloads use no table.  They are read as little-endian 64-bit
  words, eight bytes at a time, and each output row is built by bit planes:
  the sources whose coefficient has the row's top bit set, then the
  accumulator doubled (``_double``: every byte multiplied by x at once,
  after Anvin, "The mathematics of RAID-6", 2004), then the next plane's
  sources, down to bit 0.  A row costs one doubling
  per bit below its top one and one XOR per set coefficient bit, so a row
  of 0s and 1s is XORs alone.  The bit-plane kernel makes about 70 numpy
  calls per dense row, which is why short payloads keep the gather.
- That path works in fixed ``STRIPE_BYTES`` stripes, dealt round-robin to
  up to ``os.cpu_count()`` threads (numpy's ufuncs release the interpreter
  lock); every row of a stripe is made before the next stripe.  Every
  output byte depends only on the same bytes of the sources, so the result
  is identical at any thread count.  It is one of the long-path passes that
  run on worker threads; the others, the object-id hash and the CRC-32s
  beside it, are listed in ``durakit.parallel``.
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


#: Shortest payload that ``combine`` takes on its long path, the bit-plane
#: kernel in stripes; from here up a fragment's payload is a view of its frame.
LONG_MIN_BYTES = 64 * 1024
#: Stripe length; a multiple of the word size, so only the last stripe can end
#: inside a word.
STRIPE_BYTES = 256 * 1024
#: Source bytes per gather below ``LONG_MIN_BYTES``: bounds the call's intp
#: index buffer at 1 MiB, while a 4 KiB object under RS 8+3, RS 10+4 or the
#: LRC still takes one block.
GATHER_ITEMS = 1 << 17
#: Output rows packed into one uint32 lane-table entry.
LANES = 4

_LANE = np.dtype("<u4")
_WORD = np.dtype("<u8")
# each scalar operand of the doubling has its array's dtype, so numpy types
# it alike with and without NEP 50's promotion rules
_ZERO = np.int8(0)
_REDUCE = np.uint8(POLY & 0xFF)


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
    if not len(matrix):
        return np.empty((0, length), dtype=np.uint8)
    if length >= LONG_MIN_BYTES:
        return _combine_planes(matrix, sources, length)
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


def _double(acc: np.ndarray, carry: np.ndarray) -> None:
    """acc = 2 * acc in every byte of every word, in place; ``carry`` is scratch.

    Each byte shifts left by one, and a byte whose top bit fell off takes
    the low byte of the reduction polynomial (Anvin's xtime).  The byte-wide
    steps run on byte views of the words: four passes, where the same on
    whole words with shifts and masks takes six, and ``combine`` on RS rows
    ran 12-22% slower.
    """
    flags = carry.view(np.uint8)
    np.less(acc.view(np.int8), _ZERO, out=flags.view(np.bool_))  # top bit set
    np.multiply(flags, _REDUCE, out=flags)
    octets = acc.view(np.uint8)
    np.add(octets, octets, out=octets)  # wraps: the top bit falls off
    np.bitwise_xor(acc, carry, out=acc)


def _planes(row) -> list[list[int]]:
    """For each bit of ``row``'s coefficients, top bit first, the sources
    whose coefficient has it set; no planes for an all-zero row."""
    coeffs = [int(coeff) for coeff in row]  # a numpy row's scalars lack bit_length
    top = max(coeffs, default=0).bit_length()
    return [
        [j for j, coeff in enumerate(coeffs) if coeff >> bit & 1]
        for bit in range(top - 1, -1, -1)
    ]


def _combine_planes(matrix, sources, length: int) -> np.ndarray:
    """``combine`` on 64-bit words: row i is the sum over bits b of 2**b times
    the XOR of the sources whose coefficient has bit b set, by Horner's rule
    from the top bit down, in stripes on worker threads."""
    rows = [_planes(row) for row in matrix]
    word = _WORD.itemsize
    # whole words per row, so every row's stripe is word-aligned; the result
    # is the first ``length`` columns
    out = np.empty((len(rows), -(-length // word) * word), dtype=np.uint8)
    words = out.view(_WORD)
    arrays = [np.frombuffer(source, dtype=np.uint8) for source in sources]
    # a stripe of a source that starts inside a word, or the last stripe when
    # it ends inside one, is copied into scratch, which is faster to read;
    # any other stripe is read in place.  Bytes never mix, so what the last
    # word holds past the end reaches only the padding of the result.
    unaligned = [array.ctypes.data % word != 0 for array in arrays]
    starts = range(0, length, STRIPE_BYTES)
    workers = worker_count(len(starts), len(starts))

    def run(job) -> None:
        first, spare, scratch = job
        for start in starts[first::workers]:
            stop = min(start + STRIPE_BYTES, length)
            size = -(-(stop - start) // word)
            short = (stop - start) % word != 0
            stripe = []
            for array, offset, buffer in zip(arrays, unaligned, scratch):
                part = array[start:stop]
                if offset or short:
                    buffer.view(np.uint8)[: len(part)] = part
                    part = buffer[:size]
                else:
                    part = part.view(_WORD)
                stripe.append(part)
            carry = spare[:size]
            column = start // word
            for planes, acc in zip(rows, words[:, column : column + size]):
                if not planes:
                    acc.fill(0)
                    continue
                np.copyto(acc, stripe[planes[0][0]])
                for j in planes[0][1:]:
                    np.bitwise_xor(acc, stripe[j], out=acc)
                for plane in planes[1:]:
                    _double(acc, carry)
                    for j in plane:
                        np.bitwise_xor(acc, stripe[j], out=acc)

    # each worker's buffers are allocated here, on the calling thread: made
    # on the workers, they come from per-thread arenas and raise peak memory
    stripe_words = STRIPE_BYTES // word
    jobs = [
        (w, np.empty(stripe_words, _WORD),
         [np.empty(stripe_words, _WORD) if offset or length % word else None
          for offset in unaligned])
        for w in range(workers)
    ]
    map_chunks(run, jobs, threads=workers)
    return out[:, :length]


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
