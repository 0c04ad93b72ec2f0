"""The one solve over every scheme's generator rows."""

import random
import subprocess
import sys
import tracemalloc
import zlib
from itertools import combinations
from math import comb

import pytest

from durakit.codec import gf256, linear
from durakit.codec.fragments import Fragment, fragment_from_bytes, fragment_to_bytes
from durakit.codec.linear import code_of, encode, solve
from durakit.codec.lrc import LRC_6_2_2, generator_rows, lrc_recoverable
from durakit.codec.repair import recoverability_report
from durakit.errors import UnrecoverableError
from durakit.placement import Placement
from durakit.probability import ErasureScheme, ReplicationScheme, redundancy_factor

from oracles import gf256_rank


def check_solve(code, data, fragments):
    """Solve from ``fragments`` and check the data and the indices it read."""
    supplied = [f.index for f in fragments]
    restored, used = solve(code, fragments)
    assert restored == data
    known = sorted(i for i in supplied if i < code.k)
    assert len(used) == len(set(used)) == code.k
    assert set(used) <= set(supplied)
    assert list(used[: len(known)]) == known
    assert all(i >= code.k for i in used[len(known):])


def test_lrc_every_loss_pattern_up_to_four():
    code = code_of(LRC_6_2_2)
    data = random.Random(3).randbytes(601)
    fragments = encode(code, data, None)
    for size in range(5):
        for lost in combinations(range(code.count), size):
            survivors = [f for f in fragments if f.index not in lost]
            if lrc_recoverable(lost):
                check_solve(code, data, survivors)
            else:
                with pytest.raises(UnrecoverableError):
                    solve(code, survivors)


def test_rs_8_3_every_eight_subset():
    code = code_of(ErasureScheme(8, 3))
    data = random.Random(4).randbytes(1001)
    fragments = encode(code, data, None)
    for kept in combinations(fragments, 8):
        check_solve(code, data, list(kept))


@pytest.mark.parametrize("build", [
    lambda: Fragment(bytes(16), "rep:3", 0, b"x", 1),
    lambda: Placement("rep:3", (0, 0, 0)),
    lambda: redundancy_factor("rep:3"),
    lambda: code_of("rep:3"),
], ids=["Fragment", "Placement", "redundancy_factor", "code_of"])
def test_every_layer_refuses_a_non_scheme_alike(build):
    with pytest.raises(TypeError, match="^unsupported scheme type: str$"):
        build()


def test_surviving_replica_is_copied_once():
    # a long replica is parsed as a view into its frame, so a get copies the
    # object once, into the solve's result, not once per replica it parses
    code = code_of(ReplicationScheme(3))
    data = random.Random(4).randbytes(1 << 20)
    blobs = [fragment_to_bytes(f) for f in encode(code, data, None)]
    tracemalloc.start()
    try:
        parsed = [fragment_from_bytes(blob) for blob in blobs]
        restored, used = solve(code, parsed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(restored) is bytes and restored == data and used == (0,)
    assert len(data) <= peak < 1.25 * len(data)
    restored, used = solve(code, parsed[2:])
    assert restored == data and used == (2,)


class TestReductionCache:
    """``solve`` reduces once per (code, survivor set) and reuses the result."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        linear._reduction.cache_clear()
        calls = []
        real = gf256.row_reduce

        def counting(rows, cols):
            calls.append(cols)
            return real(rows, cols)

        monkeypatch.setattr(gf256, "row_reduce", counting)
        yield calls
        linear._reduction.cache_clear()

    def test_same_survivor_set_reduces_once(self, reductions):
        code = code_of(ErasureScheme(8, 3))
        data = random.Random(5).randbytes(4096)
        survivors = encode(code, data, None)[3:]
        first = solve(code, survivors)
        assert solve(code, survivors) == first
        assert first == (data, (3, 4, 5, 6, 7, 8, 9, 10))
        assert reductions == [3]

    def test_codes_with_the_same_indices_are_separate_entries(self, reductions):
        for scheme in (ErasureScheme(8, 3), ErasureScheme(10, 4)):
            code = code_of(scheme)
            data = random.Random(scheme.m).randbytes(4096)
            survivors = encode(code, data, None)[3:]
            assert solve(code, survivors)[0] == data
        assert reductions == [3, 3]
        assert linear._reduction.cache_info().currsize == 2

    def test_unrecoverable_pattern_raises_every_time(self, reductions):
        code = code_of(LRC_6_2_2)
        lost = next(
            lost for lost in combinations(range(code.count), 4)
            if not lrc_recoverable(lost)
        )
        fragments = encode(code, random.Random(6).randbytes(600), None)
        survivors = [f for f in fragments if f.index not in lost]
        for _ in range(2):
            with pytest.raises(UnrecoverableError):
                solve(code, survivors)
        # lrc_recoverable reads the rank table, so both reductions are solve's
        assert len(reductions) == 2


def surviving_rows(code, mask):
    return [row for i, row in enumerate(code.rows) if mask >> i & 1]


def indices_of(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


class TestRankPass:
    """``LinearCode.rank``: a count rule for MDS codes, one batched rank pass otherwise."""

    LRC_PROFILE = (0, 0, 0, 0, 30, 252, 210, 120, 45, 10, 1)

    def test_lrc_table_matches_scalar_rank_on_every_mask(self):
        code = code_of(LRC_6_2_2)
        assert code._ranks.shape == (1024,)
        ranks = set()
        for mask in range(1024):
            rows = surviving_rows(code, mask)
            rank = gf256_rank(rows, code.k)
            assert gf256.matrix_rank(rows, code.k) == rank
            assert code.rank(indices_of(mask)) == rank, mask
            ranks.add(rank)
        assert ranks == set(range(7))

    def test_lrc_failure_profile(self):
        assert code_of(LRC_6_2_2).failure_profile == self.LRC_PROFILE

    def test_lrc_report_counts_every_pattern(self):
        code = code_of(LRC_6_2_2)
        expected = [
            (t, comb(10, t), sum(
                gf256_rank([code.rows[i] for i in range(10) if i not in lost], 6) == 6
                for lost in combinations(range(10), t)
            ))
            for t in range(11)
        ]
        assert [good for _, total, good in expected] == [
            comb(10, t) - u for t, u in enumerate(self.LRC_PROFILE)
        ]
        for t in range(11):
            report = recoverability_report(LRC_6_2_2, t)
            assert report.scheme_label == "lrc:6+2+2"
            got = [(r.failures, r.total_patterns, r.recoverable) for r in report.rows]
            assert got == expected[: t + 1]

    @pytest.mark.parametrize(
        "scheme", [ReplicationScheme(3), ErasureScheme(4, 2), ErasureScheme(3, 3)],
        ids=lambda scheme: scheme.label,
    )
    def test_mds_count_rule_agrees_with_rank(self, scheme):
        code = code_of(scheme)
        # the batched pass is exact for any code, so it checks the count rule too
        table = linear._rank_table(code)
        for mask in range(1 << code.count):
            failed = [i for i in range(code.count) if not mask >> i & 1]
            rank = gf256_rank(surviving_rows(code, mask), code.k)
            assert code.rank(indices_of(mask)) == rank == table[mask], failed
            assert linear.recoverable(code, failed) == (rank == code.k), failed
        assert "_ranks" not in vars(code)

    def test_mds_report_builds_no_table(self):
        code = code_of(ErasureScheme(300, 3))
        report = recoverability_report(ErasureScheme(300, 3), 303)
        assert [r.recoverable for r in report.rows[:4]] == [comb(303, t) for t in range(4)]
        assert {r.recoverable for r in report.rows[4:]} == {0}
        assert "_ranks" not in vars(code) and "failure_profile" not in vars(code)

    def test_built_on_first_use_then_cached(self, monkeypatch):
        code = linear.LinearCode(LRC_6_2_2, (), generator_rows)
        assert "_ranks" not in vars(code)
        calls = []
        real = linear._rank_table
        monkeypatch.setattr(
            linear, "_rank_table", lambda c: calls.append(c) or real(c)
        )
        assert not linear.recoverable(code, {0, 1, 6, 8})
        assert linear.recoverable(code, [0, 1, 6, 6])
        assert code.failure_profile == self.LRC_PROFILE
        assert calls == [code]
        with pytest.raises(ValueError, match="outside 0..9"):
            linear.recoverable(code, {10})

    def test_nothing_enumerated_at_import(self):
        script = (
            "import durakit, durakit.cli\n"
            "from durakit.codec import linear\n"
            "assert '_ranks' not in vars(linear.code_of(durakit.LRC_6_2_2))\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)


class TestReplicas:
    """A replica, a row of one source with coefficient 1, is that source itself
    at any size: an encode frames each replica from the shard it copies, and a
    shard solved from one replica is that replica's payload."""

    @pytest.fixture
    def combined_rows(self, monkeypatch):
        rows = []
        real = gf256.combine

        def recording(matrix, sources, lanes=None):
            rows.extend(list(row) for row in matrix)
            return real(matrix, sources, lanes)

        monkeypatch.setattr(gf256, "combine", recording)
        return rows

    @pytest.fixture
    def crc_lengths(self, monkeypatch):
        lengths = []
        real = zlib.crc32

        def recording(buffer, *args):
            lengths.append(len(buffer))
            return real(buffer, *args)

        monkeypatch.setattr(zlib, "crc32", recording)
        return lengths

    @pytest.mark.parametrize("size", [1_000, 4_096, gf256.LONG_MIN_BYTES + 1])
    def test_replicas_cost_no_field_work(self, size, combined_rows, crc_lengths):
        code = code_of(ReplicationScheme(3))
        data = random.Random(5).randbytes(size)
        fragments = encode(code, data, None)
        assert combined_rows == []
        assert crc_lengths == [len(data)]  # one CRC for the shard all three frame
        assert all(f.payload == data and f.checksum == zlib.crc32(data) for f in fragments)
        assert [f.index for f in fragments] == [0, 1, 2]

    @pytest.mark.parametrize("size", [4_096, 8 * gf256.LONG_MIN_BYTES])
    def test_distinct_sources_take_one_crc_each(self, size, crc_lengths):
        fragments = encode(code_of(ErasureScheme(8, 3)), random.Random(8).randbytes(size), None)
        assert len(crc_lengths) == len(fragments) == 11

    @pytest.mark.parametrize("size", [1_000, gf256.LONG_MIN_BYTES + 1])
    def test_a_shard_solved_from_one_replica_is_its_payload(self, size, combined_rows):
        code = code_of(ReplicationScheme(3))
        data = random.Random(6).randbytes(size)
        parsed = [fragment_from_bytes(fragment_to_bytes(f))
                  for f in encode(code, data, None)]
        assert solve(code, parsed[2:]) == (data, (2,))
        assert combined_rows == []

    def test_other_rows_still_combine(self, combined_rows):
        code = code_of(ErasureScheme(4, 2))
        data = random.Random(7).randbytes(4 * gf256.LONG_MIN_BYTES)
        fragments = encode(code, data, None)
        assert combined_rows == [list(row) for row in code.rows[4:]]
        assert solve(code, fragments[2:])[0] == data
        assert len(combined_rows) == 4


def unit(row) -> bool:
    """Whether ``row`` is a single 1: one nonzero coefficient, and that 1."""
    return [int(coeff) for coeff in row if coeff] == [1]


def solve_systems(code):
    """The (missing, parity) arguments of every reduction ``solve`` asks for:
    one per loss of at most N - k fragments that leaves a data shard out."""
    systems = set()
    for lost in range(code.count - code.k + 1):
        for gone in combinations(range(code.count), lost):
            missing = tuple(j for j in range(code.k) if j in gone)
            parity = tuple(i for i in range(code.k, code.count) if i not in gone)
            if missing:
                systems.add((missing, parity[: len(missing)] if code.mds else parity))
    return systems


@pytest.mark.parametrize("scheme", [
    ErasureScheme(1, 2), ErasureScheme(2, 1), ErasureScheme(6, 3), ErasureScheme(8, 3),
    ErasureScheme(10, 4), LRC_6_2_2,
], ids=lambda scheme: scheme.label)
def test_only_replicas_have_single_one_rows(scheme):
    # so the replica rule of ``_combine``, one source with coefficient 1,
    # meets every single-1 row that encode or solve ever hands it
    code = code_of(scheme)
    if code.k > 1:
        assert not any(unit(row) for row in code.rows[code.k :])
    solved = 0
    for missing, parity in solve_systems(code):
        try:
            matrix, _ = linear._reduction.__wrapped__(code, missing, parity)
        except UnrecoverableError:
            continue
        solved += 1
        if matrix.shape[1] > 1:
            assert not any(unit(row) for row in matrix), (missing, parity)
    assert solved
