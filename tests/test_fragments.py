import array
import dataclasses
import random
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from durakit.codec import gf256, lrc
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
from durakit.codec.linear import code_of, encode, solve
from durakit.codec.rs import rs_decode, rs_encode
from durakit.errors import ChecksumError, DurakitError, MalformedFragmentError
from durakit.probability import ErasureScheme, ReplicationScheme

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
        # a fragment is its frame, so one that cannot be written is not built
        with pytest.raises(ValueError, match=r"m\+n must be <= 255, got 256"):
            Fragment(OID, ErasureScheme(200, 56), 0, b"x", 1)

    def test_replication_serializes_as_rs_1_plus_k_minus_1(self):
        data = b"three whole copies"
        frag = Fragment(OID, ReplicationScheme(3), 2, data, len(data))
        raw = fragment_to_bytes(frag)
        assert raw == fragment_to_bytes(rs_encode(data, 1, 2, object_id=OID)[2])
        parsed = fragment_from_bytes(raw)
        assert parsed.scheme == ErasureScheme(1, 2)
        assert (parsed.index, parsed.payload) == (2, data)

    def test_replication_fragments_built_by_hand_decode(self):
        data = b"three whole copies"
        built = [Fragment(OID, ReplicationScheme(3), i, data, len(data)) for i in range(3)]
        encoded = rs_encode(data, 1, 2, object_id=OID)
        assert built == encoded
        assert all(frag.scheme == ErasureScheme(1, 2) for frag in built)
        assert rs_decode(built[1:]) == data

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
    """A payload's CRC is computed once, whatever buffer it came from."""

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

    def test_encode_then_decode_computes_each_crc_once(self, monkeypatch):
        data = bytes(range(256)) * 16
        calls = self.count_crcs(monkeypatch)
        fragments = rs_encode(data, 8, 3)
        assert len(calls) == 11
        assert rs_decode(fragments) == data
        assert rs_decode(fragments[3:]) == data
        assert len(calls) == 11

    def test_wrong_checksum_still_raises(self):
        fragments = rs_encode(b"payload under test" * 10, 3, 2)
        fragments[1].verify_checksum()
        bad = dataclasses.replace(fragments[1], checksum=fragments[1].checksum ^ 1)
        with pytest.raises(ChecksumError) as info:
            rs_decode([fragments[0], bad, fragments[2]])
        assert info.value.index == 1

    @pytest.mark.parametrize("size", [1_000, 8 * gf256.LONG_MIN_BYTES],
                             ids=["short", "long"])
    def test_view_over_bytes_is_not_checked_again_at_decode(self, monkeypatch, size):
        data = random.Random(size).randbytes(size)
        blobs = [fragment_to_bytes(f) for f in rs_encode(data, 4, 2)]
        calls = self.count_crcs(monkeypatch)
        parsed = [fragment_from_bytes(memoryview(blob)) for blob in blobs]
        assert rs_decode(parsed) == data
        assert rs_decode(parsed[2:]) == data
        assert len(calls) == len(blobs)

    def test_bytearray_payload_is_copied_and_checked_once(self, monkeypatch):
        data = b"mutable payload!" * 4
        fragments = rs_encode(data, 2, 1)
        payload = bytearray(fragments[0].payload)
        calls = self.count_crcs(monkeypatch)
        computed = dataclasses.replace(fragments[0], payload=payload, checksum=None)
        given = dataclasses.replace(fragments[0], payload=payload)
        payload[0] ^= 0xFF
        for copied in (computed, given):
            assert copied == fragments[0] and type(copied.payload) is bytes
            assert rs_decode([copied, fragments[1]]) == data
            assert rs_decode([copied, fragments[1]]) == data
        # one at construction, where none was given, and one at the first
        # decode, where one was
        assert len(calls) == 2


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

    @pytest.mark.parametrize("scheme", [ReplicationScheme(3), ErasureScheme(1, 2)],
                             ids=lambda scheme: scheme.label)
    def test_roles_replication(self, scheme):
        roles = [Fragment(OID, scheme, i, b"x", 1).role for i in range(3)]
        assert roles == [FragmentRole.DATA, FragmentRole.REPLICA, FragmentRole.REPLICA]
        assert FragmentRole.REPLICA.value == "replica"

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

    def test_multi_byte_buffer_payload_is_read_as_its_bytes(self):
        items = array.array("H", [1, 2])
        frag = Fragment(OID, ErasureScheme(1, 1), 0, memoryview(items), 4)
        assert frag.payload == items.tobytes() and frag.payload_len == 4
        assert frag.checksum == zlib.crc32(items)
        assert fragment_from_bytes(fragment_to_bytes(frag)) == frag


class TestTrustedFraming:
    """Encode and parse skip ``Fragment``'s constructor but keep its contract."""

    @staticmethod
    def frame(index=0, original_length=17, payload=b"abcdef"):
        header = struct.pack(
            "<4sBBBBBB16sQQ", MAGIC, 1, 1, 3, 2, index, 0, OID, original_length,
            len(payload),
        )
        return header + payload + struct.pack("<I", zlib.crc32(payload))

    @pytest.mark.parametrize("fields, message", [
        ({"index": 5}, "index 5 outside 0..4"),
        ({"index": 255}, "index 255 outside 0..4"),
        ({"payload": b""}, "fragment payload must not be empty"),
        ({"original_length": 0}, "original_length must be >= 1"),
    ])
    def test_hostile_headers_keep_the_constructor_messages(self, fields, message):
        with pytest.raises(MalformedFragmentError) as info:
            fragment_from_bytes(self.frame(**fields))
        assert str(info.value) == message
        checked = {"index": 0, "payload": b"abcdef", "original_length": 17, **fields}
        with pytest.raises(ValueError) as info:
            Fragment(OID, ErasureScheme(3, 2), **checked)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_parsed_bytearray_is_copied_and_checked_once(self, monkeypatch):
        data = b"a mutable parse" * 8
        blobs = [fragment_to_bytes(f) for f in rs_encode(data, 2, 1)]
        buffer = bytearray(blobs[0])
        calls = TestChecksumOnce.count_crcs(monkeypatch)
        parsed = fragment_from_bytes(buffer)
        buffer[50] ^= 0xFF  # a payload byte, past the 42-byte header
        assert type(parsed.payload) is bytes
        assert fragment_to_bytes(parsed) == blobs[0]
        other = fragment_from_bytes(blobs[1])
        assert rs_decode([parsed, other]) == data
        assert rs_decode([parsed, other]) == data
        assert len(calls) == 2  # one per parse

    def test_parsed_memoryview_is_copied_and_checked_once(self, monkeypatch):
        data = b"a borrowed parse" * 8
        blobs = [fragment_to_bytes(f) for f in rs_encode(data, 2, 1)]
        buffer = bytearray(blobs[1])
        calls = TestChecksumOnce.count_crcs(monkeypatch)
        parsed = fragment_from_bytes(memoryview(buffer))
        buffer[50] ^= 0xFF
        assert fragment_to_bytes(parsed) == blobs[1]
        other = fragment_from_bytes(blobs[0])
        assert rs_decode([other, parsed]) == data
        assert rs_decode([other, parsed]) == data
        assert len(calls) == 2

    @pytest.mark.parametrize("scheme", [ErasureScheme(8, 3), lrc.LRC_6_2_2],
                             ids=lambda scheme: scheme.label)
    def test_encoded_fragments_equal_checked_ones(self, scheme):
        data = bytes(range(256)) * 3
        code = code_of(scheme)
        for frag in encode(code, data, None):
            checked = Fragment(frag.object_id, frag.scheme, frag.index, frag.payload,
                               frag.original_length)
            assert frag == checked
            assert frag.checksum == checked.checksum == zlib.crc32(frag.payload)
            assert frag._verified and checked._verified

    def test_encode_still_checks_a_given_object_id(self):
        with pytest.raises(ValueError, match="object_id must be 16 bytes, got 5"):
            rs_encode(b"data", 2, 1, object_id=b"short")


class TestWireFrames:
    """A long fragment's bytes are written once, into its frame, and never
    copied out of it: encode keeps the frame it writes, and a parse keeps the
    bytes it was given."""

    LONG = 4 * 1024 * 1024  # RS 8+3 shards of 512 KiB, past gf256.LONG_MIN_BYTES

    @staticmethod
    def long_blob(size=LONG):
        data = random.Random(size).randbytes(size)
        return fragment_to_bytes(rs_encode(data, 1, 1, object_id=OID)[1])

    def test_parsing_bytes_makes_no_copy(self):
        blob = self.long_blob()
        parsed = fragment_from_bytes(blob)
        assert isinstance(parsed.payload, memoryview) and parsed.payload.readonly
        assert parsed.payload.obj is blob
        assert fragment_to_bytes(parsed) is blob
        assert parsed._verified

    def test_parsing_short_bytes_keeps_them_as_the_frame(self):
        blob = self.long_blob(4096)
        assert fragment_to_bytes(fragment_from_bytes(blob)) is blob

    def test_short_payloads_are_copies(self):
        frag = rs_encode(bytes(range(256)) * 16, 8, 3)[9]
        assert type(frag.payload) is bytes
        assert type(fragment_from_bytes(fragment_to_bytes(frag)).payload) is bytes

    @pytest.mark.parametrize("scheme", [ErasureScheme(8, 3), lrc.LRC_6_2_2,
                                        ReplicationScheme(3)],
                             ids=lambda scheme: scheme.label)
    def test_encoded_fragments_keep_their_frames(self, scheme):
        data = random.Random(2).randbytes(600_003)
        for frag in encode(code_of(scheme), data, None):
            frame = fragment_to_bytes(frag)
            assert fragment_to_bytes(frag) is frame
            assert frag.payload.obj is frame and frag._verified
            rebuilt = Fragment(frag.object_id, frag.scheme, frag.index,
                               bytes(frag.payload), frag.original_length)
            assert rebuilt == frag and hash(rebuilt) == hash(frag)
            assert fragment_to_bytes(rebuilt) == frame

    def test_replace_writes_a_new_frame(self):
        frag = rs_encode(random.Random(3).randbytes(self.LONG), 8, 3)[4]
        bad = dataclasses.replace(frag, checksum=frag.checksum ^ 1)
        raw = fragment_to_bytes(bad)
        assert raw[:-4] == fragment_to_bytes(frag)[:-4]
        assert struct.unpack("<I", raw[-4:]) == (frag.checksum ^ 1,)
        with pytest.raises(ChecksumError):
            fragment_from_bytes(raw)

    @staticmethod
    def traced_peak(action):
        tracemalloc.start()
        try:
            return action(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_encode_writes_each_fragment_byte_once(self):
        code = code_of(ErasureScheme(8, 3))
        data = random.Random(4).randbytes(self.LONG)
        shard = self.LONG // 8
        shards = [data[j * shard : (j + 1) * shard] for j in range(8)]
        # what the kernel holds to make the parity rows: the rows, their
        # tables and its per-thread buffers
        _, kernel = self.traced_peak(lambda: gf256.combine(code.rows[8:], shards))
        blobs, peak = self.traced_peak(
            lambda: [fragment_to_bytes(f) for f in encode(code, data, None)]
        )
        stored = sum(map(len, blobs))
        # the kernel runs first; then every frame sits beside the parity
        # rows: no shard is copied out of the object, and no fragment is
        # copied out of its frame
        assert stored <= peak < max(kernel, stored + 3 * shard) + 256 * 1024

    def test_parse_allocates_no_payload(self):
        blob = self.long_blob()
        parsed, peak = self.traced_peak(lambda: fragment_from_bytes(blob))
        assert parsed.payload_len == self.LONG
        assert peak < 64 * 1024

    @pytest.mark.parametrize("size", [1_000, 600_003], ids=["short", "long"])
    def test_encode_does_not_alias_the_caller_buffer(self, size):
        original = random.Random(size).randbytes(size)
        buffer = bytearray(original)
        code = code_of(ErasureScheme(8, 3))
        fragments = encode(code, buffer, OID)
        frames = [bytes(fragment_to_bytes(f)) for f in fragments]
        buffer[:] = bytes(size)
        assert frames == [fragment_to_bytes(f) for f in encode(code, original, OID)]
        assert [fragment_to_bytes(f) for f in fragments] == frames
        assert solve(code, fragments[3:])[0] == original

    def test_long_fragments_pickle_and_copy(self):
        import copy
        import pickle

        frag = rs_encode(random.Random(5).randbytes(self.LONG), 8, 3)[9]
        parsed = fragment_from_bytes(self.long_blob())
        short = rs_fragment()
        for original in (frag, parsed, short):
            for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
                assert clone == original and clone._verified == original._verified
                assert fragment_to_bytes(clone) == fragment_to_bytes(original)

    def test_unverified_fragment_pickles_unverified(self):
        import copy
        import pickle

        fragments = rs_encode(b"checked at decode" * 8, 2, 1, object_id=OID)
        bad = dataclasses.replace(fragments[0], checksum=fragments[0].checksum ^ 1)
        for clone in (pickle.loads(pickle.dumps(bad)), copy.deepcopy(bad)):
            assert clone == bad and not clone._verified
            with pytest.raises(ChecksumError) as info:
                rs_decode([clone, fragments[1]])
            assert info.value.index == 0

    def test_repr_leaves_the_payload_out(self):
        parsed = fragment_from_bytes(self.long_blob(gf256.LONG_MIN_BYTES))
        text = repr(parsed)
        assert "payload" not in text and "memory" not in text
        assert text == repr(dataclasses.replace(parsed, payload=bytes(parsed.payload)))


class TestSplitCrc:
    """A long payload's CRC-32 is one ``zlib.crc32`` call over the whole
    payload, on the calling thread, and a flipped byte anywhere in it is
    caught."""

    def test_long_parse_is_one_crc_call_and_no_pool(self, monkeypatch, pools):
        long = (16 << 20) + 1
        blob = fragment_to_bytes(Fragment(OID, ErasureScheme(1, 2), 1, bytes(long), long))
        pools.reset(2)
        calls = TestChecksumOnce.count_crcs(monkeypatch)
        assert fragment_from_bytes(blob).payload_len == long
        assert calls == [long] and pools.sizes == []

    @pytest.mark.parametrize("where", [0.1, 0.9], ids=["first-part", "second-part"])
    def test_flipped_byte_in_either_part_raises(self, where):
        # a byte near the start or near the end of a long payload
        data = random.Random(8).randbytes(2 * (2 * gf256.LONG_MIN_BYTES + 1))
        frag = rs_encode(data, 2, 1, object_id=OID)[1]
        blob = fragment_to_bytes(frag)
        start = len(blob) - 4 - frag.payload_len
        raw = bytearray(blob)
        raw[start + int(where * frag.payload_len)] ^= 0x40
        with pytest.raises(ChecksumError) as info:
            fragment_from_bytes(bytes(raw))
        assert info.value.index == 1
        recorded = struct.unpack("<I", blob[-4:])[0]
        actual = zlib.crc32(raw[start:-4])
        assert str(info.value) == (
            f"fragment 1: payload CRC {actual:#010x} does not match recorded {recorded:#010x}"
        )


class TestEquality:
    """``==`` and ``hash`` compare the frames, which state every field, so
    they compare every field whatever held the payload."""

    @staticmethod
    def variants(payload):
        """The same fragment three ways: framed by encode, parsed, and built
        from a ``bytes`` payload."""
        scheme = ErasureScheme(1, 1)
        encoded = encode(code_of(scheme), payload, OID)[1]
        parsed = fragment_from_bytes(fragment_to_bytes(encoded))
        return [encoded, parsed, Fragment(OID, scheme, 1, bytes(payload), len(payload))]

    @pytest.mark.parametrize("size", [1_000, 3 * gf256.LONG_MIN_BYTES + 1],
                             ids=["short", "long"])
    def test_equal_fields_are_equal_and_hash_alike(self, size):
        payload = random.Random(size).randbytes(size)
        same = self.variants(payload)
        for a in same:
            for b in same:
                assert a == b and hash(a) == hash(b)
                assert not a != b

    @pytest.mark.parametrize("size", [1_000, 3 * gf256.LONG_MIN_BYTES + 1],
                             ids=["short", "long"])
    def test_any_differing_field_is_unequal(self, size):
        payload = random.Random(size).randbytes(size)
        last = payload[:-1] + bytes([payload[-1] ^ 1])
        base = self.variants(payload)
        checksum = base[0].checksum
        others = [
            *self.variants(last),
            *(dataclasses.replace(f, checksum=checksum ^ 1) for f in base),
            *(dataclasses.replace(f, index=0) for f in base),
            *(dataclasses.replace(f, object_id=bytes(16)) for f in base),
            *(dataclasses.replace(f, original_length=size - 1) for f in base),
        ]
        for a in base:
            for b in others:
                assert a != b and b != a

    def test_bytes_payload_equals_a_view_of_the_same_bytes(self):
        payload = random.Random(9).randbytes(3 * gf256.LONG_MIN_BYTES)
        as_bytes = Fragment(OID, ErasureScheme(2, 1), 0, payload, 7)
        as_view = Fragment(OID, ErasureScheme(2, 1), 0, memoryview(payload), 7)
        assert as_bytes == as_view and hash(as_bytes) == hash(as_view)

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                             ids=["bytearray", "writable-memoryview"])
    def test_mutable_payload_is_hashable(self, wrap):
        frag = Fragment(OID, ErasureScheme(1, 1), 1, wrap(b"xy"), 2)
        plain = Fragment(OID, ErasureScheme(1, 1), 1, b"xy", 2)
        assert hash(frag) == hash(plain) and frag == plain

    def test_other_types_are_not_equal(self):
        frag = rs_fragment()
        assert frag != (frag.object_id, frag.scheme, frag.index, frag.payload)
        assert frag.__eq__(object()) is NotImplemented
