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

A ``Fragment`` is held as its frame: ``fragment_to_bytes`` returns the frame
it keeps, and ``fragment_from_bytes`` keeps the bytes it parses.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from ..errors import ChecksumError, MalformedFragmentError
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


@dataclass(frozen=True, eq=False)
class Fragment:
    """One codec unit: a shard of an object plus identifying metadata.

    Every fragment holds its wire frame, which states every field, however
    it was made: ``Fragment(...)`` writes the frame when the fragment is
    built, copying the payload once; ``linear.encode`` writes each fragment
    straight into its frame; ``fragment_from_bytes`` keeps the ``bytes`` it
    parses.  ``fragment_to_bytes``, ``==``, ``hash`` and pickling read the
    frame alone.  ``scheme`` is the scheme the frame states, so k replicas
    are RS 1+(k-1), as they are encoded.

    ``payload`` is ``bytes`` below ``gf256.LONG_MIN_BYTES``, where a copy
    costs less than a view, and a read-only view into the frame from there
    up.  Either way it cannot change, so its CRC is checked once.

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
    # every instance also holds ``_frame``, its wire frame, and
    # ``_verified``, set once the payload has matched its checksum or had
    # it computed here, so decoding does not compute the CRC again

    def __post_init__(self):
        if len(self.object_id) != 16:
            raise ValueError(f"object_id must be 16 bytes, got {len(self.object_id)}")
        check_scheme(self.scheme)
        payload = self.payload
        if not isinstance(payload, bytes):
            payload = memoryview(payload).cast("B")  # any buffer, as its bytes
        _check_fields(ValueError, self.scheme, self.index, payload, self.original_length)
        given = self.checksum
        (framed,) = Fragment._framed(
            self.object_id, _scheme_from_wire(*_scheme_wire_params(self.scheme)),
            self.original_length, [(self.index, payload)],
            [zlib.crc32(payload) if given is None else given],
        )
        # the fields as the frame states them; a given checksum is checked
        # at first use
        self.__dict__.update(framed.__dict__, _verified=given is None)

    @classmethod
    def _trusted(
        cls, object_id, scheme, index, payload, original_length, checksum, verified,
        frame,
    ) -> Fragment:
        """A fragment from fields its caller vouches for, with no check at all.

        ``frame`` is the fragment's wire frame and ``payload`` its payload
        there, as ``bytes`` or a view.  ``verified`` says the checksum matches
        that payload.
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
        cls, object_id, scheme, original_length, sources, checksums
    ) -> list[Fragment]:
        """Verified fragments of one object, each written straight into its
        wire frame, in the order of ``sources``.

        ``sources`` yields (index, source) pairs, and ``checksums`` the CRC-32
        of each source in turn, which the caller has just computed.  Each
        source's bytes are copied once, into its frame.  A short ``bytes``
        source is kept as the payload; any other payload is taken from the
        frame.
        """
        tag, p1, p2 = _scheme_wire_params(scheme)  # once per object, not per frame
        fragments = []
        for (index, source), checksum in zip(sources, checksums):
            header = _HEADER.pack(MAGIC, FORMAT_VERSION, tag, p1, p2, index, 0,
                                  object_id, original_length, len(source))
            frame = b"".join((header, source, _TRAILER.pack(checksum)))
            if len(source) >= gf256.LONG_MIN_BYTES:
                payload = memoryview(frame)[_HEADER.size : -_TRAILER.size]
            elif isinstance(source, bytes):
                payload = source
            else:
                payload = frame[_HEADER.size : -_TRAILER.size]
            fragments.append(cls._trusted(
                object_id, scheme, index, payload, original_length, checksum, True,
                frame,
            ))
        return fragments

    def __eq__(self, other):
        # the frame states every field, and two bytes compare by one memcmp
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._frame == other._frame

    def __hash__(self):
        return hash(self._frame)

    def __reduce__(self):
        # a memoryview cannot be pickled, but the frame it views can; a
        # verified fragment is checked again as it loads, an unverified one
        # at its first decode
        return _parse, (self._frame, self._verified)

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

        The payload cannot change, so it is checked once per fragment.
        """
        if not self._verified:
            _check_crc(self.index, self.payload, self.checksum)
            self.__dict__["_verified"] = True


def _check_crc(index, payload, checksum) -> None:
    actual = zlib.crc32(payload)
    if actual != checksum:
        raise ChecksumError(
            f"fragment {index}: payload CRC {actual:#010x} does not "
            f"match recorded {checksum:#010x}",
            index=index,
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


def fragment_to_bytes(fragment: Fragment) -> bytes:
    """The fragment's wire frame, which it keeps."""
    return fragment._frame


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

    The fragment keeps a ``bytes`` frame as it is given.  Any other buffer
    is copied to ``bytes`` once, so later writes to it do not reach the
    fragment.
    """
    return _parse(data if isinstance(data, bytes) else bytes(data), True)


def _parse(frame: bytes, check: bool) -> Fragment:
    """The fragment ``frame`` states, after a check of every header field
    and, if ``check``, of the payload CRC; an unchecked payload is checked
    at its first decode.

    The payload is ``bytes`` below ``gf256.LONG_MIN_BYTES`` and a read-only
    view into ``frame`` from there up.
    """
    if len(frame) < _HEADER.size + _TRAILER.size:
        raise MalformedFragmentError(
            f"fragment truncated: {len(frame)} bytes is below the minimum "
            f"{_HEADER.size + _TRAILER.size}"
        )
    magic, version, tag, p1, p2, index, reserved, object_id, original_length, payload_len = (
        _HEADER.unpack_from(frame)
    )
    if magic != MAGIC:
        raise MalformedFragmentError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise MalformedFragmentError(f"unsupported format version {version}")
    if reserved != 0:
        raise MalformedFragmentError(f"reserved byte must be 0, got {reserved}")
    if len(frame) != _HEADER.size + payload_len + _TRAILER.size:
        raise MalformedFragmentError(
            f"payload length field says {payload_len} but "
            f"{len(frame) - _HEADER.size - _TRAILER.size} bytes are present"
        )

    scheme = _scheme_from_wire(tag, p1, p2)
    _check_fields(MalformedFragmentError, scheme, index, payload_len, original_length)
    end = _HEADER.size + payload_len
    (stored_crc,) = _TRAILER.unpack_from(frame, end)
    if payload_len >= gf256.LONG_MIN_BYTES:
        payload = memoryview(frame)[_HEADER.size : end]
    else:
        payload = frame[_HEADER.size : end]
    if check:
        _check_crc(index, payload, stored_crc)
    return Fragment._trusted(
        object_id, scheme, index, payload, original_length, stored_crc, check, frame,
    )


def write_fragment(fragment: Fragment, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(fragment_to_bytes(fragment))
    return path


def read_fragment(path: str | Path) -> Fragment:
    return fragment_from_bytes(Path(path).read_bytes())
