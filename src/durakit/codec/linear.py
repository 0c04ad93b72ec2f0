"""The one codec core: every scheme as a systematic linear code over GF(256).

Replication, Reed-Solomon and the 6+2+2 LRC differ only in their generator
rows and in two declared facts: whether any k fragments determine the data
(MDS, which the scheme itself states), and which fragments rebuild a given
one on their own (local repair sets).  ``code_of`` lowers a scheme to that
description; encode, solve, the rank test and the repair search then work
from it alone.
"""

from __future__ import annotations

import hashlib
import zlib
from collections.abc import Callable, Iterable, Sequence, Set
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from math import comb

import numpy as np

from .. import parallel
from ..errors import (
    InconsistentFragmentsError,
    InsufficientFragmentsError,
    UnrecoverableError,
)
from ..probability import ErasureScheme, check_scheme
from . import gf256
from .fragments import Fragment


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A systematic code: fragment i holds rows[i] applied to the k data shards.

    Rows 0..k-1 are the identity.  ``scheme`` is what the fragments carry,
    and it states k, the fragment count and whether the code is MDS;
    ``local_sets[i]``, when the code declares them, lists the fragments that
    rebuild fragment i without a general solve.
    """

    scheme: object
    local_sets: tuple[tuple[int, ...], ...]
    build_rows: Callable[[], list[list[int]]] = field(repr=False)

    # cached: the repair search asks for a rank many times per plan
    @cached_property
    def k(self) -> int:
        return self.scheme.data_fragments

    @cached_property
    def count(self) -> int:
        return self.scheme.fragment_count

    @cached_property
    def mds(self) -> bool:
        return self.scheme.mds

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        # built on first use: MDS planning needs only k, and RS schemes past
        # the field size can still be planned, just not encoded
        return tuple(tuple(row) for row in self.build_rows())

    def rank(self, survivors: Set[int]) -> int:
        """Rank of the rows of the fragments in ``survivors``, a set of indices.

        Any k rows of an MDS code are independent, so its rank is the survivor
        count capped at k; any other code looks the set up in its rank table.
        """
        if self.mds:
            return min(len(survivors), self.k)
        return int(self._ranks[sum(1 << index for index in survivors)])

    def spanning_prefix(self, order: Sequence[int], target: int) -> list[int] | None:
        """Fragments of ``order`` that determine fragment ``target``, none to spare.

        Any k rows of an MDS code span every row, so it takes the first k.  Any
        other code takes fragments in order until ``target``'s row is in their
        span, then drops, in order, each one it can spare.  None when all of
        ``order`` leaves ``target`` undetermined.
        """
        if self.mds:
            return list(order[: self.k]) if len(order) >= self.k else None
        chosen: set[int] = set()

        def covers() -> bool:
            # the target row is in the span of ``chosen`` when adding it leaves
            # the rank as it is; the set is changed in place, so that each test
            # costs the same however many fragments the code has
            rank = self.rank(chosen)
            chosen.add(target)
            spanned = self.rank(chosen) == rank
            chosen.remove(target)
            return spanned

        for taken, index in enumerate(order, 1):
            chosen.add(index)
            if covers():
                break
        else:
            return None
        prefix = order[:taken]
        for index in prefix:
            chosen.remove(index)
            if not covers():
                chosen.add(index)
        return [index for index in prefix if index in chosen]

    def unrecoverable(self, lost: int) -> int:
        """U_t for t = ``lost``: how many t-fragment losses leave the data undetermined."""
        if self.mds:
            return comb(self.count, lost) if lost > self.count - self.k else 0
        return self.failure_profile[lost]

    @cached_property
    def _ranks(self) -> np.ndarray:
        # built on first use, by one batched pass over all 2**count masks
        return _rank_table(self)

    @cached_property
    def parity_lanes(self) -> np.ndarray | None:
        """``gf256.lane_tables`` of the parity rows, which every encode applies."""
        # ceil((N - k) / 4) * k KiB, kept with the code; an RS m+0 code has none
        return gf256.lane_tables(self.rows[self.k :]) if self.count > self.k else None

    @cached_property
    def failure_profile(self) -> tuple[int, ...]:
        """U_t for t = 0..count, from the rank table: a histogram of lost counts."""
        lost = self.count - _mask_bits(self.count).sum(axis=1)
        counts = np.bincount(lost[self._ranks < self.k], minlength=self.count + 1)
        return tuple(counts.tolist())


@lru_cache(maxsize=256)
def code_of(scheme) -> LinearCode:
    """Lower a scheme to its generator rows and local repair sets.

    It reads the scheme's stated shape, not its class.  An MDS scheme with
    k of N fragments is Reed-Solomon k+(N-k), to which another MDS form
    lowers: k replicas are RS 1+(k-1), whose all-ones parity rows make
    literal replicas.  A scheme that is not MDS is the LRC, whose rows
    ``lrc`` builds from its local groups and global parities.
    """
    from . import lrc, rs  # deferred: both build on this module

    check_scheme(scheme)
    if not scheme.mds:
        return LinearCode(
            scheme, local_sets=lrc.LOCAL_REPAIR_SETS, build_rows=lrc.generator_rows,
        )
    k, parities = scheme.data_fragments, scheme.fragment_count - scheme.data_fragments
    rs_form = ErasureScheme(k, parities)
    if scheme != rs_form:
        return code_of(rs_form)
    return LinearCode(
        scheme, local_sets=(), build_rows=lambda: rs.generator_matrix(k, parities),
    )


def derive_object_id(data: bytes) -> bytes:
    """Content-addressed 16-byte object id."""
    return hashlib.sha256(data).digest()[:16]


def shard_length(object_length: int, k: int) -> int:
    return -(-object_length // k)


def encode(code: LinearCode, data: bytes, object_id: bytes | None) -> list[Fragment]:
    """Split ``data``, any buffer read as its bytes, into k zero-padded shards
    and add one fragment per parity row."""
    rows = code.rows
    view = memoryview(data).cast("B")
    if not view:
        raise ValueError("cannot encode an empty object")
    if object_id is not None and len(object_id) != 16:
        raise ValueError(f"object_id must be 16 bytes, got {len(object_id)}")

    k, length = code.k, len(view)
    size = shard_length(length, k)
    long = size >= gf256.LONG_MIN_BYTES
    # each fragment is written once, straight into its wire frame.  A long
    # data shard is read in place from the caller's buffer (so that can
    # change afterwards); a short one is copied out, which costs less than a
    # view, and its fragment keeps the ``bytes`` beside its frame.  A shard
    # that runs past the object's end is copied either way, to pad it.
    shards = [view[j * size : (j + 1) * size] for j in range(k)]
    shards = [
        b"".join((shard, bytes(size - len(shard)))) if len(shard) < size
        else shard if long else shard.tobytes()
        for shard in shards
    ]
    # a long object's id and CRCs run on the pool beside ``combine``, a short
    # one's here; frames are joined here from the finished values, so no
    # byte depends on threads
    derive = partial(parallel.submit, derive_object_id) if long else derive_object_id
    crc32 = partial(parallel.submit, zlib.crc32) if long else zlib.crc32
    derived = object_id or derive(view)
    # keyed by source: a source framed twice, as a replica's shard is, shares one CRC
    crcs = {id(shard): crc32(shard) for shard in shards}
    sources = [*shards, *_combine(rows[k:], shards, code.parity_lanes)]
    for source in sources[k:]:
        if id(source) not in crcs:
            crcs[id(source)] = crc32(source)
    if long:
        derived = object_id or derived.result()
        crcs = {key: job.result() for key, job in crcs.items()}
    return Fragment._framed(
        derived, code.scheme, length, enumerate(sources),
        (crcs[id(source)] for source in sources),
    )


def _combine(matrix, sources, lanes=None) -> Sequence:
    """The rows of ``gf256.combine(matrix, sources, lanes)``.  A replica, a
    row of one source with coefficient 1, is that source itself at any size:
    no field work and no copy, for an encode or a shard solved from one."""
    if len(sources) == 1 and all(row[0] == 1 for row in matrix):
        return [sources[0]] * len(matrix)
    return gf256.combine(matrix, sources, lanes)


def _collect(code: LinearCode, fragments: list[Fragment]) -> dict[int, Fragment]:
    """Index fragments after consistency and checksum validation."""
    first = fragments[0]
    size = len(first.payload)
    by_index: dict[int, Fragment] = {}
    for frag in fragments:
        if frag.object_id != first.object_id:
            raise InconsistentFragmentsError("fragments from different objects")
        # parsed fragments share the scheme object, so ``is`` settles most
        if frag.scheme is not code.scheme and frag.scheme != code.scheme:
            raise InconsistentFragmentsError("fragments from different schemes")
        if frag.original_length != first.original_length:
            raise InconsistentFragmentsError("fragments disagree on object length")
        if len(frag.payload) != size:
            raise InconsistentFragmentsError(
                f"fragment {frag.index} has length {len(frag.payload)}, expected {size}"
            )
        frag.verify_checksum()
        by_index.setdefault(frag.index, frag)
    if shard_length(first.original_length, code.k) != size:
        raise InconsistentFragmentsError(
            f"shard length {size} does not match an object of "
            f"{first.original_length} bytes split {code.k} ways"
        )
    return by_index


@lru_cache(maxsize=1024)
def _reduction(
    code: LinearCode, missing: tuple[int, ...], parity: tuple[int, ...]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """How the missing data shards follow from the surviving ones.

    Returns one coefficient row per missing shard, over the known data shards
    and then the parities it reads, and those parities in ``parity`` order.
    It depends only on its arguments, and small objects keep meeting the
    same survivor sets, so it is cached.
    """
    rows, e = code.rows, len(missing)
    known = [j for j in range(code.k) if j not in missing]
    # parity_i = A_i x_missing + C_i x_known, so reducing [A | C | I] on
    # the A block gives x_missing = C' x_known + U' parity (char 2)
    system = [
        [rows[i][j] for j in missing]
        + [rows[i][j] for j in known]
        + [int(i == t) for t in parity]
        for i in parity
    ]
    reduced = gf256.row_reduce(system, e)
    if len(reduced) < e:
        raise UnrecoverableError(
            f"surviving fragments leave {e - len(reduced)} data shard(s) undetermined"
        )
    units = [row[e + len(known) :] for row in reduced]
    read = [t for t in range(len(parity)) if any(u[t] for u in units)]
    matrix = np.array(
        [r[e : e + len(known)] + [u[t] for t in read] for r, u in zip(reduced, units)],
        dtype=np.uint8,
    )
    matrix.setflags(write=False)  # the cache hands the same array to every caller
    return matrix, tuple(parity[t] for t in read)


def solve(
    code: LinearCode, fragments: Iterable[Fragment]
) -> tuple[bytes, tuple[int, ...]]:
    """Reconstruct the object; also return the fragment indices actually read.

    Surviving data shards are used as read.  Only the e missing data columns
    are solved for, by one row reduction over the candidate parity rows: for
    an MDS code the first e survivors, otherwise all of them.  The parities
    it gives a nonzero coefficient are the ones read.
    """
    fragments = list(fragments)
    if not fragments:
        raise InsufficientFragmentsError("no fragments supplied")
    by_index = _collect(code, fragments)
    k = code.k
    if len(by_index) < k:
        raise InsufficientFragmentsError(
            f"need {k} distinct fragments to decode, have {len(by_index)}"
        )

    shards = {j: by_index[j].payload for j in range(k) if j in by_index}
    used = tuple(shards)
    missing = tuple(j for j in range(k) if j not in by_index)
    if missing:
        parity = tuple(i for i in sorted(by_index) if i >= k)
        if code.mds:
            parity = parity[: len(missing)]  # any e parity rows of an MDS code will do
        matrix, read = _reduction(code, missing, parity)
        used += read
        sources = [by_index[i].payload for i in used]
        shards.update(zip(missing, _combine(matrix, sources)))
    # the join copies each data shard once, from its payload or from the
    # solve's output, into the result; a lone ``bytes`` shard, a short
    # replica, is returned as it is
    length, size = fragments[0].original_length, len(fragments[0].payload)
    data = b"".join(
        shards[j] if length >= (j + 1) * size
        else memoryview(shards[j])[: max(0, length - j * size)]
        for j in range(k)
    )
    return data, used


def decode(fragments: Iterable[Fragment], mds: bool) -> bytes:
    """``solve`` for a caller that takes only MDS (or only non-MDS) fragment sets."""
    fragments = list(fragments)
    if not fragments:
        raise InsufficientFragmentsError("no fragments supplied")
    code = code_of(fragments[0].scheme)
    if code.mds != mds:
        kind = "MDS" if mds else "locally repairable"
        raise InconsistentFragmentsError(
            f"expected {kind} fragments, got {code.scheme.label}"
        )
    return solve(code, fragments)[0]


def _mask_bits(count: int) -> np.ndarray:
    """Row s holds the ``count`` bits of mask s, lowest first, as booleans."""
    return ((np.arange(1 << count)[:, None] >> np.arange(count)) & 1).astype(bool)


def _rank_table(code: LinearCode) -> np.ndarray:
    """The rank of every survivor mask, by one batched elimination.

    Mask s stands for the generator with the rows of its lost fragments
    zeroed, which leaves the rank of the rest unchanged.  All 2**N of those
    N x k matrices are eliminated together, one column at a time: each takes
    its first unused row that is nonzero there as the pivot, scales it to a
    leading 1 and subtracts it from its other unused rows.  Only a pivot
    actually found is marked used, and a mask's rank is the number it
    found.  The temporaries hold 2**N * N * k entries: under 1 MiB for the
    10-fragment LRC.
    """
    n, k = code.count, code.k
    work = _mask_bits(n)[:, :, None] * np.array(code.rows, dtype=np.uint8)
    inverse = np.array(gf256.INV_TABLE, dtype=np.uint8)
    products = gf256.MUL_TABLE.ravel()
    each = np.arange(len(work))
    used = np.zeros((len(work), n), dtype=bool)
    ranks = np.zeros(len(work), dtype=np.int64)
    for c in range(k):
        nonzero = (work[:, :, c] != 0) & ~used
        pivot = nonzero.argmax(axis=1)  # the first unused nonzero, if any
        found = nonzero[each, pivot]
        ranks += found
        used[each, pivot] |= found
        # with no pivot found, every unused row is zero in column c, so the
        # update below clears nothing, whatever row argmax fell back to
        scale = inverse[work[each, pivot, c]].astype(np.intp) << 8
        pivot_row = products.take(scale[:, None] | work[each, pivot, c + 1 :])
        factor = np.where(used, 0, work[:, :, c]).astype(np.intp) << 8
        work[:, :, c + 1 :] ^= products.take(factor[:, :, None] | pivot_row[:, None, :])
    ranks.setflags(write=False)  # every caller of the code shares it
    return ranks


def recoverable(code: LinearCode, failed: Iterable[int]) -> bool:
    """Whether the fragments outside ``failed`` determine all k data shards:
    whether their rows have rank k."""
    failed = set(failed)
    for index in failed:
        if not 0 <= index < code.count:
            raise ValueError(f"index {index} outside 0..{code.count - 1}")
    return code.rank(set(range(code.count)) - failed) == code.k


def repair_sources(
    code: LinearCode, placement, failed: int, unavailable: Iterable[int]
) -> list[int]:
    """Fragments to read to rebuild ``failed``, in the order they are chosen.

    A declared local repair set is used whole when all of it survives.
    Otherwise the code picks survivors in same-DC-first order until they
    determine the failed fragment, with none to spare: for an MDS code the
    first k.
    """
    gone = {failed, *unavailable}
    if code.local_sets and gone.isdisjoint(code.local_sets[failed]):
        return list(code.local_sets[failed])

    dcs = placement.assignment
    failed_dc = dcs[failed]
    order = [i for i, dc in enumerate(dcs) if dc == failed_dc and i not in gone]
    order += [i for i, dc in enumerate(dcs) if dc != failed_dc and i not in gone]
    sources = code.spanning_prefix(order, failed)
    if sources is None:
        raise UnrecoverableError(f"fragment {failed} cannot be rebuilt from the survivors")
    return sources
