import array
import random
from itertools import combinations

import pytest

from durakit.codec import gf256
from durakit.codec.fragments import fragment_from_bytes, fragment_to_bytes
from durakit.codec.linear import derive_object_id, shard_length
from durakit.codec.rs import generator_matrix, rs_decode, rs_encode
from durakit.errors import (
    ChecksumError,
    InconsistentFragmentsError,
    InsufficientFragmentsError,
)

MiB = 1024**2


def make_object(length, seed=0):
    return random.Random(seed).randbytes(length)


class TestEncodeShape:
    def test_storage_accounting_at_8mib(self):
        data = make_object(8 * MiB, seed=1)
        fragments = rs_encode(data, 8, 3)
        assert len(fragments) == 11
        assert all(f.payload_len == MiB for f in fragments)
        total = sum(f.payload_len for f in fragments)
        assert total == int(1.375 * 8 * MiB)

    def test_replication_special_case_produces_copies(self):
        data = b"copy me exactly, please"
        fragments = rs_encode(data, 1, 3)
        assert len(fragments) == 4
        for frag in fragments:
            assert frag.payload == data

    def test_no_parity_is_plain_split(self):
        data = bytes(range(100))
        fragments = rs_encode(data, 4, 0)
        assert b"".join(f.payload for f in fragments)[:100] == data
        assert rs_decode(fragments) == data

    def test_non_multiple_lengths_pad_with_zeros(self):
        data = b"0123456789a"  # 11 bytes over m=4 -> shards of 3
        fragments = rs_encode(data, 4, 1)
        assert shard_length(11, 4) == 3
        assert fragments[3].payload == b"9a\x00"
        assert rs_decode(fragments) == data

    def test_object_id_is_content_addressed(self):
        data = b"same content"
        a = rs_encode(data, 2, 1)
        b = rs_encode(data, 2, 1)
        assert a[0].object_id == b[0].object_id == derive_object_id(data)

    def test_custom_object_id(self):
        oid = bytes(16)
        fragments = rs_encode(b"x", 1, 1, object_id=oid)
        assert fragments[0].object_id == oid

    # 300 items take the short path; 300,000 make 75,000-byte shards
    @pytest.mark.parametrize("count", [300, 300_000])
    def test_multi_byte_buffer_is_encoded_as_its_bytes(self, count):
        items = array.array("H", (i % 65536 for i in range(count)))
        fragments = rs_encode(memoryview(items), 8, 3)
        assert fragments[0].original_length == 2 * count
        assert fragments == rs_encode(items.tobytes(), 8, 3)
        assert rs_decode(fragments[3:]) == items.tobytes()

    def test_rejects_empty_object(self):
        with pytest.raises(ValueError, match="empty"):
            rs_encode(b"", 4, 2)

    def test_rejects_oversized_code(self):
        with pytest.raises(ValueError, match="255"):
            rs_encode(b"x", 200, 56)

    def test_field_size_boundary_accepted(self):
        fragments = rs_encode(bytes(255), 200, 55)
        assert len(fragments) == 255


class TestGeneratorMatrix:
    def test_every_m_subset_invertible(self):
        for m, n in [(4, 3), (1, 5), (5, 5)]:
            rows = generator_matrix(m, n)
            for subset in combinations(range(m + n), m):
                gf256.matrix_invert([rows[i] for i in subset])  # must not raise

    def test_parity_rows_normalized_for_replication(self):
        rows = generator_matrix(1, 4)
        assert rows == [[1]] * 5


class TestDecode:
    def test_every_subset_of_8_3(self):
        data = make_object(1000, seed=2)
        fragments = rs_encode(data, 8, 3)
        subsets = list(combinations(range(11), 8))
        assert len(subsets) == 165
        for subset in subsets:
            assert rs_decode([fragments[i] for i in subset]) == data

    def test_all_fragments_present(self):
        data = make_object(333, seed=3)
        fragments = rs_encode(data, 6, 3)
        assert rs_decode(fragments) == data

    def test_insufficient_fragments(self):
        fragments = rs_encode(make_object(100), 8, 3)
        with pytest.raises(InsufficientFragmentsError):
            rs_decode(fragments[:7])

    def test_duplicate_indices_do_not_count_twice(self):
        fragments = rs_encode(make_object(64), 3, 2)
        with pytest.raises(InsufficientFragmentsError):
            rs_decode([fragments[0], fragments[0], fragments[1]])
        assert (
            rs_decode([fragments[0], fragments[0], fragments[1], fragments[2]])
            == make_object(64)
        )

    @pytest.mark.slow
    def test_every_subset_exhaustive_13_to_16(self):
        # the 2..12 range is enumerated in the acceptance suite; this
        # completes the exhaustive sweep (~122k decodes, ~30s)
        rng = random.Random(1616)
        for total in range(13, 17):
            for m in range(1, total + 1):
                n = total - m
                length = rng.randint(1, 4096)
                data = rng.randbytes(length)
                fragments = rs_encode(data, m, n)
                for subset in combinations(range(total), m):
                    assert rs_decode([fragments[i] for i in subset]) == data

    @pytest.mark.parametrize("seed", range(5))
    def test_random_lengths_random_subsets_up_to_16(self, seed):
        rng = random.Random(seed)
        total = rng.randint(13, 16)
        m = rng.randint(1, total - 1)
        n = total - m
        length = rng.randint(1, 4096)
        data = rng.randbytes(length)
        fragments = rs_encode(data, m, n)
        for _ in range(25):
            subset = rng.sample(range(total), m)
            assert rs_decode([fragments[i] for i in subset]) == data

    @pytest.mark.parametrize("seed", range(8))
    def test_random_codes_random_subsets_up_to_the_field_size(self, seed):
        rng = random.Random(255 + seed)
        total = 255 if seed < 2 else rng.randint(17, 254)
        m = rng.randint(1, total - 1)
        data = rng.randbytes(rng.randint(1, 8192))
        fragments = rs_encode(data, m, total - m)
        for _ in range(2):
            subset = rng.sample(range(total), m)
            assert rs_decode([fragments[i] for i in subset]) == data

    def test_random_subsets_of_65535_byte_shards(self):
        # the largest shard below the striped path, on a mid-size code
        rng = random.Random(2012)
        data = rng.randbytes(20 * 65535 - 7)
        fragments = rs_encode(data, 20, 12)
        assert fragments[0].payload_len == 65535
        for _ in range(3):
            subset = rng.sample(range(32), 20)
            assert rs_decode([fragments[i] for i in subset]) == data

    def test_parity_only_decode(self):
        data = make_object(97, seed=4)
        fragments = rs_encode(data, 3, 3)
        assert rs_decode(fragments[3:]) == data


class TestDecodeValidation:
    def test_corrupt_payload_detected(self):
        import dataclasses

        fragments = rs_encode(make_object(64), 3, 2)
        bad = dataclasses.replace(
            fragments[1], payload=b"\x00" * fragments[1].payload_len
        )
        with pytest.raises(ChecksumError) as info:
            rs_decode([fragments[0], bad, fragments[2]])
        assert info.value.index == 1

    def test_mixed_objects_rejected(self):
        a = rs_encode(b"object one!", 2, 1)
        b = rs_encode(b"object two!", 2, 1)
        with pytest.raises(InconsistentFragmentsError, match="different objects"):
            rs_decode([a[0], b[1]])

    def test_mixed_schemes_rejected(self):
        oid = bytes(16)
        a = rs_encode(b"same bytes", 2, 1, object_id=oid)
        b = rs_encode(b"same bytes", 2, 2, object_id=oid)
        with pytest.raises(InconsistentFragmentsError, match="schemes"):
            rs_decode([a[0], b[1]])

    def test_unequal_object_lengths_rejected(self):
        import dataclasses

        fragments = rs_encode(make_object(64), 3, 2)
        bad = dataclasses.replace(fragments[1], original_length=63)
        with pytest.raises(InconsistentFragmentsError, match="object length"):
            rs_decode([fragments[0], bad, fragments[2]])

    def test_unequal_payload_lengths_rejected(self):
        import dataclasses

        fragments = rs_encode(make_object(64), 3, 2)
        bad = dataclasses.replace(fragments[1], payload=bytes(fragments[1].payload) + b"x")
        with pytest.raises(InconsistentFragmentsError, match="length"):
            rs_decode([fragments[0], bad, fragments[2]])

    def test_no_fragments(self):
        with pytest.raises(InsufficientFragmentsError):
            rs_decode([])

    def test_lrc_fragments_rejected(self):
        from durakit.codec.lrc import lrc_encode

        with pytest.raises(InconsistentFragmentsError):
            rs_decode(lrc_encode(b"some data for the lrc"))


class TestThreadCountIdentity:
    # four full stripes and a one-byte tail, so the long-path combine is
    # split whenever there is a second CPU
    SHARD = 4 * gf256.STRIPE_BYTES + 1

    @pytest.mark.parametrize("kind", ["rs:8+3", "lrc:6+2+2", "rep:3"])
    def test_fragments_and_decodes_same_at_any_cpu_count(self, kind, monkeypatch):
        from durakit import parallel
        from durakit.codec.linear import code_of, encode, solve
        from durakit.probability import LRC_6_2_2, ErasureScheme, ReplicationScheme

        scheme, lost = {"rs:8+3": (ErasureScheme(8, 3), {0, 1, 2}),
                        "lrc:6+2+2": (LRC_6_2_2, {0, 1, 3}),
                        "rep:3": (ReplicationScheme(3), {0, 1})}[kind]
        code = code_of(scheme)
        # the last of several shards is padded
        data = make_object(code.k * self.SHARD - code.k + 1, seed=91)

        def run():
            fragments = encode(code, data, None)
            frames = [fragment_to_bytes(f) for f in fragments]
            parsed = [fragment_from_bytes(frames[i]) for i in range(code.count)
                      if i not in lost]
            return fragments, frames, solve(code, parsed)

        runs = []
        for cpus in (1, 2, None):
            with monkeypatch.context() as patch:
                if cpus is not None:
                    patch.setattr(parallel.os, "cpu_count", lambda: cpus)
                runs.append(run())
        fragments, frames, (decoded, used) = runs[0]
        assert fragments[0].payload_len == self.SHARD
        assert decoded == data and not set(used) & lost
        assert all(other == runs[0] for other in runs[1:])
