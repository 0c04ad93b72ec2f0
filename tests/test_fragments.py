import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from durakit.codec import lrc
from durakit.codec.fragments import (
    LRC_GROUP_DESCRIPTOR,
    MAGIC,
    Fragment,
    FragmentRole,
    fragment_from_bytes,
    fragment_to_bytes,
    read_fragment,
    write_fragment,
)
from durakit.codec.linear import code_of, solve
from durakit.codec.rs import rs_decode, rs_encode
from durakit.errors import ChecksumError, DurakitError, MalformedFragmentError
from durakit.probability import ErasureScheme

OID = bytes(range(16))


def rs_fragment(index=0, payload=b"abcdef", m=3, n=2):
    return Fragment(OID, ErasureScheme(m, n), index, payload, 17)


class TestRoundTrip:
    def test_bytes_round_trip_is_identity(self):
        frag = rs_fragment(index=4, payload=bytes(range(64)))
        assert fragment_from_bytes(fragment_to_bytes(frag)) == frag

    def test_lrc_round_trip(self):
        frag = Fragment(OID, lrc.LRC_6_2_2, 9, b"\x00\xff" * 8, 91)
        restored = fragment_from_bytes(fragment_to_bytes(frag))
        assert restored == frag
        assert restored.scheme == lrc.LRC_6_2_2

    def test_file_round_trip(self, tmp_path):
        frag = rs_fragment(payload=b"payload bytes here")
        path = write_fragment(frag, tmp_path / "x.ecfr")
        assert read_fragment(path) == frag

    def test_more_than_255_fragments_cannot_be_serialized(self):
        frag = Fragment(OID, ErasureScheme(200, 56), 0, b"x", 1)
        with pytest.raises(ValueError, match=r"m\+n must be <= 255, got 256"):
            fragment_to_bytes(frag)

    def test_wire_layout_is_frozen(self):
        # independently re-pack the documented layout
        frag = rs_fragment(index=1, payload=b"xyz")
        expected = struct.pack(
            "<4sBBBBBB16sQQ", b"ECFR", 1, 1, 3, 2, 1, 0, OID, 17, 3
        ) + b"xyz" + struct.pack("<I", zlib.crc32(b"xyz"))
        assert fragment_to_bytes(frag) == expected

    def test_lrc_descriptor_bytes(self):
        frag = Fragment(OID, lrc.LRC_6_2_2, 0, b"q", 1)
        raw = fragment_to_bytes(frag)
        assert raw[5] == 2      # scheme tag
        assert raw[6] == 6      # data fragments
        assert raw[7] == 0x22   # two local groups, two globals


class TestCorruptionDetection:
    def test_flipped_payload_byte(self):
        raw = bytearray(fragment_to_bytes(rs_fragment(payload=b"hello world")))
        raw[50] ^= 0x01  # inside payload
        with pytest.raises(ChecksumError) as info:
            fragment_from_bytes(bytes(raw))
        assert info.value.index == 0

    def test_flipped_crc(self):
        raw = bytearray(fragment_to_bytes(rs_fragment()))
        raw[-1] ^= 0xFF
        with pytest.raises(ChecksumError):
            fragment_from_bytes(bytes(raw))


class TestChecksumOnce:
    """A bytes payload's CRC is computed once; anything else is checked each time."""

    @staticmethod
    def count_crcs(monkeypatch):
        calls = []
        real = zlib.crc32

        def counting(data, *args):
            calls.append(len(data))
            return real(data, *args)

        monkeypatch.setattr(zlib, "crc32", counting)
        return calls

    def test_parse_then_decode_computes_each_crc_once(self, monkeypatch):
        blobs = [fragment_to_bytes(f) for f in rs_encode(bytes(range(200)) * 5, 4, 2)]
        calls = self.count_crcs(monkeypatch)
        parsed = [fragment_from_bytes(blob) for blob in blobs]
        assert rs_decode(parsed) == bytes(range(200)) * 5
        assert rs_decode(parsed[2:]) == bytes(range(200)) * 5
        assert len(calls) == len(blobs)

    def test_wrong_checksum_still_raises(self):
        fragments = rs_encode(b"payload under test" * 10, 3, 2)
        fragments[1].verify_checksum()
        bad = dataclasses.replace(fragments[1], checksum=fragments[1].checksum ^ 1)
        with pytest.raises(ChecksumError) as info:
            rs_decode([fragments[0], bad, fragments[2]])
        assert info.value.index == 1

    def test_bytearray_payload_checked_on_every_decode(self, monkeypatch):
        data = b"mutable payload!" * 4
        fragments = rs_encode(data, 2, 1)
        payload = bytearray(fragments[0].payload)
        mutable = dataclasses.replace(fragments[0], payload=payload)
        calls = self.count_crcs(monkeypatch)
        assert rs_decode([mutable, fragments[1]]) == data
        assert rs_decode([mutable, fragments[1]]) == data
        assert len(calls) == 3  # the bytearray twice, the bytes payload once
        payload[0] ^= 0xFF
        with pytest.raises(ChecksumError):
            rs_decode([mutable, fragments[1]])


class TestMalformedInput:
    def good(self):
        return bytearray(fragment_to_bytes(rs_fragment()))

    def test_truncated(self):
        with pytest.raises(MalformedFragmentError, match="truncated"):
            fragment_from_bytes(b"ECFR")

    def test_bad_magic(self):
        raw = self.good()
        raw[0:4] = b"NOPE"
        with pytest.raises(MalformedFragmentError, match="magic"):
            fragment_from_bytes(bytes(raw))

    def test_bad_version(self):
        raw = self.good()
        raw[4] = 9
        with pytest.raises(MalformedFragmentError, match="version"):
            fragment_from_bytes(bytes(raw))

    def test_unknown_scheme_tag(self):
        raw = self.good()
        raw[5] = 7
        with pytest.raises(MalformedFragmentError, match="scheme tag"):
            fragment_from_bytes(bytes(raw))

    def test_reserved_byte(self):
        raw = self.good()
        raw[9] = 1
        with pytest.raises(MalformedFragmentError, match="reserved"):
            fragment_from_bytes(bytes(raw))

    def test_trailing_garbage(self):
        raw = self.good() + b"junk"
        with pytest.raises(MalformedFragmentError, match="length"):
            fragment_from_bytes(bytes(raw))

    def test_index_out_of_range(self):
        raw = self.good()
        raw[8] = 5  # scheme is 3+2, valid indices 0..4
        with pytest.raises(MalformedFragmentError, match="index"):
            fragment_from_bytes(bytes(raw))

    def test_invalid_rs_parameters(self):
        raw = self.good()
        raw[6] = 0  # m = 0
        with pytest.raises(MalformedFragmentError, match="RS parameters"):
            fragment_from_bytes(bytes(raw))

    def test_invalid_lrc_descriptor(self):
        raw = self.good()
        raw[5] = 2   # LRC tag
        raw[6] = 6
        raw[7] = 0x33
        with pytest.raises(MalformedFragmentError, match="LRC descriptor"):
            fragment_from_bytes(bytes(raw))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.ecfr"
        path.write_bytes(b"this is not a fragment file at all........")
        with pytest.raises(MalformedFragmentError):
            read_fragment(path)

    def test_single_byte_corruptions_never_escape_codec_errors(self):
        import random

        from durakit.errors import CodecError

        good = fragment_to_bytes(rs_fragment(payload=b"some payload bytes"))
        rng = random.Random(0)
        for _ in range(300):
            raw = bytearray(good)
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            try:
                fragment_from_bytes(bytes(raw))
            except CodecError:
                pass  # detected; the specific subclass depends on the field hit

    def test_truncations_never_escape_codec_errors(self):
        from durakit.errors import CodecError

        good = fragment_to_bytes(rs_fragment(payload=b"some payload bytes"))
        for cut in range(len(good)):
            with pytest.raises(CodecError):
                fragment_from_bytes(good[:cut])


def _mostly(draw, likely, anything):
    return draw(anything if draw(st.integers(0, 3)) == 3 else likely)


@st.composite
def ecfr_frames(draw):
    """Well-framed ECFR bytes with any tag, parameters, index, length, payload
    and CRC; each field is drawn from plausible values three times in four."""
    byte = st.integers(0, 255)
    tag = _mostly(draw, st.sampled_from([1, 2]), byte)
    if tag == 2:
        p1 = _mostly(draw, st.just(6), byte)
        p2 = _mostly(draw, st.just(LRC_GROUP_DESCRIPTOR), byte)
    else:
        p1 = _mostly(draw, st.integers(1, 8), byte)
        p2 = _mostly(draw, st.integers(0, 3), byte)
    index = _mostly(draw, st.integers(0, 10), byte)
    payload = _mostly(draw, st.binary(min_size=1, max_size=64), st.just(b""))
    k = max(p1, 1)
    original_length = _mostly(
        draw,
        st.integers((k - 1) * len(payload) + 1, max(k * len(payload), 1)),
        st.integers(0, 2**64 - 1),
    )
    crc = _mostly(draw, st.just(zlib.crc32(payload)), st.integers(0, 2**32 - 1))
    header = struct.pack(
        "<4sBBBBBB16sQQ", MAGIC, 1, tag, p1, p2, index, 0,
        draw(st.binary(min_size=16, max_size=16)), original_length, len(payload),
    )
    return header + payload + struct.pack("<I", crc)


class TestArbitraryFrames:
    @seed(20240531)
    @settings(max_examples=400, deadline=None, database=None)
    @given(ecfr_frames())
    def test_parse_and_solve_raise_only_durakit_errors(self, raw):
        try:
            frag = fragment_from_bytes(raw)
            solve(code_of(frag.scheme), [frag])
        except DurakitError:
            pass


class TestFragmentType:
    def test_checksum_defaults_to_payload_crc(self):
        frag = rs_fragment(payload=b"abc")
        assert frag.checksum == zlib.crc32(b"abc")
        frag.verify_checksum()

    def test_roles_rs(self):
        assert rs_fragment(index=2).role is FragmentRole.DATA
        assert rs_fragment(index=3).role is FragmentRole.GLOBAL_PARITY

    def test_roles_lrc(self):
        def lf(i):
            return Fragment(OID, lrc.LRC_6_2_2, i, b"x", 1)

        assert lf(0).role is FragmentRole.DATA
        assert lf(6).role is FragmentRole.LOCAL_PARITY
        assert lf(7).role is FragmentRole.LOCAL_PARITY
        assert lf(8).role is FragmentRole.GLOBAL_PARITY

    def test_object_id_length_checked(self):
        with pytest.raises(ValueError):
            Fragment(b"short", ErasureScheme(2, 1), 0, b"x", 1)

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            Fragment(OID, ErasureScheme(2, 1), 3, b"x", 1)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            Fragment(OID, ErasureScheme(2, 1), 0, b"", 1)
