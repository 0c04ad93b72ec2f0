"""Fragment objects and their on-disk container format.

Wire layout (little-endian), bit-exact round-trip required:

    magic           4 bytes  b"ECFR"
    version         u8       1
    scheme_tag      u8       1 = RS(m,n), 2 = LRC 6+2+2
    param1          u8       RS: m      LRC: data fragment count
    param2          u8       RS: n      LRC: (local groups << 4) | global parities
    index           u8
    reserved        u8       0
    object_id       16 bytes
    original_length u64      byte length of the encoded object before padding
    payload_len     u64
    payload         payload_len bytes
    crc32           u32      CRC-32 of the payload
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from ..errors import ChecksumError, MalformedFragmentError
from ..parallel import map_chunks, worker_count
from ..probability import LRC_6_2_2, ErasureScheme, check_scheme
from . import gf256

MAGIC = b"ECFR"
FORMAT_VERSION = 1
SCHEME_TAG_RS = 1
SCHEME_TAG_LRC = 2

_HEADER = struct.Struct("<4sBBBBBB16sQQ")
_TRAILER = struct.Struct("<I")

#: Field-size bound: an RS code over GF(256) supports at most 255 fragments.
MAX_TOTAL_FRAGMENTS = 255


class FragmentRole(enum.Enum):
    DATA = "data"
    LOCAL_PARITY = "local-parity"
    GLOBAL_PARITY = "global-parity"
    REPLICA = "replica"


@dataclass(frozen=True)
class Fragment:
    """One codec unit: a shard of an object plus identifying metadata.

    ``payload`` is ``bytes``, or a read-only memoryview over ``bytes``.  A
    fragment that ``linear.encode`` or ``fragment_from_bytes`` makes with a
    payload of ``gf256.PAIR_MIN_BYTES`` or more keeps its whole wire frame,
    and its payload is a view into that frame, so no payload byte is copied
    between the frame and the codec.  Shorter payloads are copies, which
    cost less than a view at that size.

    ``Fragment(...)`` checks every field.  ``Fragment._trusted`` checks
    nothing: ``linear.encode`` and ``fragment_from_bytes`` use it for fields
    they have already checked themselves.
    """

    object_id: bytes
    scheme: object  # ErasureScheme or LrcScheme
    index: int
    payload: bytes | memoryview = field(repr=False)
    original_length: int
    checksum: int | None = None
    # set once an immutable payload has matched its checksum, or had it
    # computed here; it cannot change afterwards, so decoding does not
    # compute the CRC again
    _verified: bool = field(default=False, init=False, repr=False, compare=False)
    # the wire frame ``payload`` is a view into, which ``fragment_to_bytes``
    # returns as it is; ``dataclasses.replace`` drops it with the old fields
    _frame: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.object_id) != 16:
            raise ValueError(f"object_id must be 16 bytes, got {len(self.object_id)}")
        check_scheme(self.scheme)
        _check_fields(ValueError, self.scheme, self.index, self.payload,
                      self.original_length)
        if self.checksum is None:
            object.__setattr__(self, "checksum", crc32(self.payload))
            if _immutable(self.payload):
                object.__setattr__(self, "_verified", True)

    @classmethod
    def _trusted(
        cls, object_id, scheme, index, payload, original_length, checksum, verified,
        frame=None,
    ) -> Fragment:
        """A fragment from fields its caller vouches for, with no check at all.

        ``verified`` says the checksum was computed from ``payload`` here and
        now, and that the payload is immutable (``_immutable``).  ``frame``,
        when given, is the fragment's wire frame, with ``payload`` a view
        into it.
        """
        fragment = object.__new__(cls)
        # the instance dict whole, in one frozen-safe set: cheaper than a
        # set per field, and this runs once per fragment encoded or parsed
        object.__setattr__(fragment, "__dict__", {
            "object_id": object_id, "scheme": scheme, "index": index,
            "payload": payload, "original_length": original_length,
            "checksum": checksum, "_verified": verified, "_frame": frame,
        })
        return fragment

    @classmethod
    def _framed(
        cls, object_id, scheme, index, source, original_length, checksum
    ) -> Fragment:
        """A verified fragment written straight into its wire frame.

        ``checksum`` is the CRC-32 of ``source``, which the caller has just
        computed.  ``source``'s bytes are copied once, into the frame, and
        the payload is a view of them there.
        """
        header = _wire_header(scheme, index, object_id, original_length, len(source))
        frame = b"".join((header, source, _TRAILER.pack(checksum)))
        payload = memoryview(frame)[_HEADER.size : -_TRAILER.size]
        return cls._trusted(
            object_id, scheme, index, payload, original_length, checksum, True, frame
        )

    def __eq__(self, other):
        # the generated comparison, but with the payloads compared last, and
        # by one memcmp when either is a view into its frame: comparing a
        # memoryview goes item by item, about 25 times slower
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.object_id, self.scheme, self.index, self.original_length,
                self.checksum) != (other.object_id, other.scheme, other.index,
                                   other.original_length, other.checksum):
            return False
        framed, plain = (self, other) if self._frame is not None else (other, self)
        if framed._frame is not None and (
            plain._frame is not None or isinstance(plain.payload, bytes)
        ):
            # a frame holds its payload right after the header
            return len(framed.payload) == len(plain.payload) and (
                framed._frame.startswith(plain.payload, _HEADER.size)
            )
        return self.payload == other.payload

    def __reduce__(self):
        # a memoryview cannot be pickled, but the frame it views can, and it
        # parses back to an equal fragment
        if self._frame is None:
            return super().__reduce__()
        return fragment_from_bytes, (self._frame,)

    @property
    def payload_len(self) -> int:
        return len(self.payload)

    @property
    def role(self) -> FragmentRole:
        """The first k rows are data.  A parity row of a one-shard code is a
        whole copy; otherwise a parity row with a zero is local, else global."""
        from .linear import code_of  # deferred: the codec core builds on Fragment

        code = code_of(self.scheme)
        if self.index < code.k:
            return FragmentRole.DATA
        if code.k == 1:
            return FragmentRole.REPLICA
        if all(code.rows[self.index]):
            return FragmentRole.GLOBAL_PARITY
        return FragmentRole.LOCAL_PARITY

    def verify_checksum(self) -> None:
        """Raise ``ChecksumError`` unless the payload matches its CRC-32.

        An immutable payload is checked once per fragment; any other buffer
        may have changed since, so it is checked on every call.
        """
        if self._verified:
            return
        _check_crc(self.index, self.payload, self.checksum)
        if _immutable(self.payload):
            object.__setattr__(self, "_verified", True)


#: Shortest part of a CRC-32 that ``crc32`` hands to a worker thread.  On a
#: 2-vCPU Xeon guest (Python 3.11, zlib 1.2.13), two parts took 1.0-1.5
#: times as long as one ``zlib.crc32`` over 8 MiB, 0.7-1.0 times over 16 MiB
#: and 0.6-0.8 times over 64 MiB: a thread pool costs about 0.4 ms, and two
#: threads gain most on buffers that do not sit in cache.
CRC_PART_BYTES = 8 << 20

_CRC_POLY = 0xEDB88320  # CRC-32's polynomial, bit-reversed as zlib keeps it


def _multmodp(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial, both bit-reversed (zlib's multmodp)."""
    product, bit = 0, 1 << 31
    while a:
        if a & bit:
            product ^= b
            a ^= bit
        bit >>= 1
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return product


# x^(2^n) modulo the polynomial, for n = 0..31 (zlib's x2n_table)
_X2N = [1 << 30]
for _ in range(31):
    _X2N.append(_multmodp(_X2N[-1], _X2N[-1]))


def crc32_combine(crc1: int, crc2: int, length2: int) -> int:
    """``zlib.crc32(a + b)`` from ``crc1 = zlib.crc32(a)``, ``crc2 = zlib.crc32(b)``
    and ``length2 = len(b)``, by zlib's method: shift ``crc1`` past ``b``'s
    8 * length2 bits by multiplying it by x^(8 * length2), one power of two
    at a time, and add ``crc2``."""
    shift, n = 1 << 31, 3  # x^0; 8 * length2 = 2^3 * length2
    while length2:
        if length2 & 1:
            shift = _multmodp(_X2N[n & 31], shift)
        length2 >>= 1
        n += 1
    return _multmodp(shift, crc1) ^ crc2


def crc32(data) -> int:
    """``zlib.crc32(data)``, of a buffer of bytes.

    A long buffer is cut into one part per CPU, none shorter than
    ``CRC_PART_BYTES``.  The parts are CRC'd on worker threads (zlib releases
    the interpreter lock) and joined in order by ``crc32_combine``, so the
    result is the same for any number of parts.  One part is one
    ``zlib.crc32`` call.
    """
    if len(data) < 2 * CRC_PART_BYTES:
        # one part, without asking for the CPU count: that alone costs about
        # 4 us, eight times a short CRC
        return zlib.crc32(data)
    view = memoryview(data).cast("B")
    wanted = len(view) // CRC_PART_BYTES
    parts = worker_count(wanted, wanted)
    bounds = [len(view) * part // parts for part in range(parts + 1)]
    spans = list(zip(bounds, bounds[1:]))
    crcs = map_chunks(lambda span: zlib.crc32(view[span[0] : span[1]]), spans, parts)
    crc = crcs[0]
    for (start, stop), part in zip(spans[1:], crcs[1:]):
        crc = crc32_combine(crc, part, stop - start)
    return crc


def _check_crc(index, payload, checksum) -> None:
    # below the pair path zlib is called directly: a short parse costs
    # about 3 us, and the call through ``crc32`` adds 0.3 us to it
    if len(payload) < gf256.PAIR_MIN_BYTES:
        actual = zlib.crc32(payload)
    else:
        actual = crc32(payload)
    if actual != checksum:
        raise ChecksumError(
            f"fragment {index}: payload CRC {actual:#010x} does not "
            f"match recorded {checksum:#010x}",
            index=index,
        )


def _immutable(payload) -> bool:
    """Whether ``payload`` can never change: ``bytes``, or a view over ``bytes``.

    A view over a bytearray, an mmap or an array can, so its CRC is checked
    on every use.
    """
    return isinstance(payload, bytes) or (
        isinstance(payload, memoryview) and isinstance(payload.obj, bytes)
    )


def _check_fields(error, scheme, index, payload, original_length) -> None:
    """Raise ``error``, the caller's class, on a bad field; ``payload`` may be a length."""
    count = scheme.fragment_count
    if not 0 <= index < count:
        raise error(f"index {index} outside 0..{count - 1}")
    if not payload:
        raise error("fragment payload must not be empty")
    if original_length < 1:
        raise error("original_length must be >= 1")


def _scheme_wire_params(scheme) -> tuple[int, int, int]:
    """(tag, p1, p2): any MDS scheme as RS k+(N-k), any other as LRC by its groups."""
    k, count = scheme.data_fragments, scheme.fragment_count
    if not scheme.mds:
        return SCHEME_TAG_LRC, k, (len(scheme.local_groups) << 4) | scheme.global_parities
    if count > MAX_TOTAL_FRAGMENTS:
        raise ValueError(f"m+n must be <= {MAX_TOTAL_FRAGMENTS}, got {count}")
    return SCHEME_TAG_RS, k, count - k


LRC_GROUP_DESCRIPTOR = _scheme_wire_params(LRC_6_2_2)[2]


def _wire_header(scheme, index, object_id, original_length, payload_len) -> bytes:
    tag, p1, p2 = _scheme_wire_params(scheme)
    return _HEADER.pack(
        MAGIC, FORMAT_VERSION, tag, p1, p2, index, 0, object_id, original_length,
        payload_len,
    )


def fragment_to_bytes(fragment: Fragment) -> bytes:
    """The fragment's wire frame: the one it keeps, or else a new one, which
    copies the payload once."""
    if fragment._frame is not None:
        return fragment._frame
    header = _wire_header(fragment.scheme, fragment.index, fragment.object_id,
                          fragment.original_length, fragment.payload_len)
    return b"".join((header, fragment.payload, _TRAILER.pack(fragment.checksum)))


@lru_cache(maxsize=1024)  # a stream repeats a few headers; hostile ones stay bounded
def _scheme_from_wire(tag: int, p1: int, p2: int):
    if tag == SCHEME_TAG_RS:
        if p1 < 1 or p1 + p2 > MAX_TOTAL_FRAGMENTS:
            raise MalformedFragmentError(f"invalid RS parameters m={p1}, n={p2}")
        return ErasureScheme(p1, p2)
    if tag == SCHEME_TAG_LRC:
        if (tag, p1, p2) != _scheme_wire_params(LRC_6_2_2):
            raise MalformedFragmentError(
                f"invalid LRC descriptor ({p1}, {p2:#04x})"
            )
        return LRC_6_2_2
    raise MalformedFragmentError(f"unknown scheme tag {tag}")


def fragment_from_bytes(data: bytes) -> Fragment:
    """Parse one wire frame, checking every header field and the payload CRC.

    A ``bytes`` frame with a payload of ``gf256.PAIR_MIN_BYTES`` or more is
    kept whole, and the payload is a read-only view into it; a shorter
    payload, or one from any other buffer, is sliced as that buffer slices.
    """
    if len(data) < _HEADER.size + _TRAILER.size:
        raise MalformedFragmentError(
            f"fragment truncated: {len(data)} bytes is below the minimum "
            f"{_HEADER.size + _TRAILER.size}"
        )
    magic, version, tag, p1, p2, index, reserved, object_id, original_length, payload_len = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise MalformedFragmentError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise MalformedFragmentError(f"unsupported format version {version}")
    if reserved != 0:
        raise MalformedFragmentError(f"reserved byte must be 0, got {reserved}")
    if len(data) != _HEADER.size + payload_len + _TRAILER.size:
        raise MalformedFragmentError(
            f"payload length field says {payload_len} but "
            f"{len(data) - _HEADER.size - _TRAILER.size} bytes are present"
        )

    scheme = _scheme_from_wire(tag, p1, p2)
    _check_fields(MalformedFragmentError, scheme, index, payload_len, original_length)
    end = _HEADER.size + payload_len
    (stored_crc,) = _TRAILER.unpack_from(data, end)
    if payload_len >= gf256.PAIR_MIN_BYTES and isinstance(data, bytes):
        payload, frame = memoryview(data)[_HEADER.size : end], data
    else:
        payload, frame = data[_HEADER.size : end], None
    _check_crc(index, payload, stored_crc)
    return Fragment._trusted(
        object_id, scheme, index, payload, original_length, stored_crc,
        _immutable(payload), frame,
    )


def write_fragment(fragment: Fragment, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(fragment_to_bytes(fragment))
    return path


def read_fragment(path: str | Path) -> Fragment:
    return fragment_from_bytes(Path(path).read_bytes())
