import random
from itertools import combinations

import pytest

from durakit.codec import gf256
from durakit.codec.lrc import (
    DATA_COUNT,
    DEFAULT_DC_ASSIGNMENT,
    GLOBAL_COEFFS,
    GLOBAL_PARITY_INDICES,
    LOCAL_GROUPS,
    LOCAL_REPAIR_SETS,
    LRC_6_2_2,
    TOTAL_FRAGMENTS,
    generator_rows,
    lrc_decode,
    lrc_encode,
    lrc_recoverable,
)
from durakit.codec.repair import recoverability_report
from durakit.errors import InsufficientFragmentsError, UnrecoverableError
from durakit.probability import ErasureScheme


def encode_sample(length=300, seed=0):
    data = random.Random(seed).randbytes(length)
    return data, lrc_encode(data)


class TestEncodeStructure:
    def test_ten_fragments_with_equal_payloads(self):
        data, fragments = encode_sample(601)
        assert len(fragments) == TOTAL_FRAGMENTS
        sizes = {f.payload_len for f in fragments}
        assert sizes == {-(-601 // 6)}

    def test_local_parity_is_group_xor(self):
        _, fragments = encode_sample()
        for group_index, group in enumerate(LOCAL_GROUPS):
            parity = fragments[6 + group_index].payload
            acc = bytes(len(parity))
            for j in group:
                acc = bytes(a ^ b for a, b in zip(acc, fragments[j].payload))
            assert parity == acc

    def test_global_parity_matches_coefficients(self):
        _, fragments = encode_sample(60)
        for g, coeffs in enumerate(GLOBAL_COEFFS):
            expected = bytearray(fragments[0].payload_len)
            for j, coeff in enumerate(coeffs):
                for pos, byte in enumerate(fragments[j].payload):
                    expected[pos] ^= gf256.mul(coeff, byte)
            assert fragments[8 + g].payload == bytes(expected)

    def test_literal_tables_follow_the_local_groups(self):
        # a fragment's repair set is the rest of its group plus the group's
        # parity, a global's is every data shard; group g lives in DC g and
        # the globals in DC l, after the l groups
        groups = LRC_6_2_2.local_groups
        repair_sets, dcs = {}, {}
        for g, group in enumerate(groups):
            parity = DATA_COUNT + g
            for i in (*group, parity):
                repair_sets[i] = tuple(sorted({*group, parity} - {i}))
                dcs[i] = g
        for i in GLOBAL_PARITY_INDICES:
            repair_sets[i] = tuple(range(DATA_COUNT))
            dcs[i] = len(groups)
        assert LOCAL_REPAIR_SETS == tuple(repair_sets[i] for i in range(TOTAL_FRAGMENTS))
        assert DEFAULT_DC_ASSIGNMENT == tuple(dcs[i] for i in range(TOTAL_FRAGMENTS))

    def test_storage_overhead(self):
        data, fragments = encode_sample(600)
        stored = sum(f.payload_len for f in fragments)
        assert stored / 600 == pytest.approx(10 / 6, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lrc_encode(b"")


class TestRecoverability:
    def test_zero_failures_round_trip(self):
        data, fragments = encode_sample(1001)
        assert lrc_decode(fragments) == data

    def test_any_single_or_double_failure(self):
        data, fragments = encode_sample(77)
        for pattern in list(combinations(range(10), 1)) + list(
            combinations(range(10), 2)
        ):
            assert lrc_recoverable(pattern)
            survivors = [f for f in fragments if f.index not in pattern]
            assert lrc_decode(survivors) == data

    def test_every_three_failure_pattern_decodes(self):
        data, fragments = encode_sample(300)
        patterns = list(combinations(range(10), 3))
        assert len(patterns) == 120
        for pattern in patterns:
            assert lrc_recoverable(pattern)
            survivors = [f for f in fragments if f.index not in pattern]
            assert lrc_decode(survivors) == data

    def test_four_failure_fraction_is_maximal(self):
        count = sum(lrc_recoverable(p) for p in combinations(range(10), 4))
        assert count == 180
        assert count / 210 == pytest.approx(0.86, abs=0.01)

    def test_rank_oracle_agrees_with_decode_for_all_small_patterns(self):
        data, fragments = encode_sample(123)
        for t in range(5):
            for pattern in combinations(range(10), t):
                survivors = [f for f in fragments if f.index not in pattern]
                if lrc_recoverable(pattern):
                    assert lrc_decode(survivors) == data
                else:
                    with pytest.raises(UnrecoverableError):
                        lrc_decode(survivors)

    def test_five_failures_never_recoverable(self):
        for pattern in combinations(range(10), 5):
            assert not lrc_recoverable(pattern)

    def test_fewer_than_six_survivors_is_insufficient(self):
        _, fragments = encode_sample()
        with pytest.raises(InsufficientFragmentsError):
            lrc_decode(fragments[:5])

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            lrc_recoverable({10})

    def test_shard_length_consistency_checked(self):
        import dataclasses

        from durakit.errors import InconsistentFragmentsError

        _, fragments = encode_sample(60)
        tampered = [
            dataclasses.replace(f, original_length=2 * 60) for f in fragments
        ]
        with pytest.raises(InconsistentFragmentsError, match="shard length"):
            lrc_decode(tampered)

    def test_known_dead_pattern(self):
        # two data shards of one group plus its local parity and one global:
        # only one surviving equation sees the two unknowns
        assert not lrc_recoverable({0, 1, 6, 8})
        assert lrc_recoverable({0, 1, 6})


class TestGeneratorRows:
    def test_shapes(self):
        rows = generator_rows()
        assert len(rows) == TOTAL_FRAGMENTS
        assert all(len(r) == DATA_COUNT for r in rows)


class TestReportOrdering:
    def test_lrc_sits_between_6_3_and_6_4(self):
        lrc_report = recoverability_report(LRC_6_2_2, 5)
        rs63 = recoverability_report(ErasureScheme(6, 3), 5)
        rs64 = recoverability_report(ErasureScheme(6, 4), 5)
        for t in range(6):
            low = rs63.rows[t].fraction
            high = rs64.rows[t].fraction
            mid = lrc_report.rows[t].fraction
            assert low <= mid <= high, t

    def test_mds_rows_are_threshold(self):
        report = recoverability_report(ErasureScheme(6, 3), 4)
        assert [r.fraction for r in report.rows] == [1.0, 1.0, 1.0, 1.0, 0.0]
