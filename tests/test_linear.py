"""The one solve over every scheme's generator rows."""

import random
from itertools import combinations

import pytest

from durakit.codec import gf256, linear
from durakit.codec.linear import code_of, encode, solve
from durakit.codec.lrc import LRC_6_2_2, lrc_recoverable
from durakit.errors import UnrecoverableError
from durakit.probability import ErasureScheme, ReplicationScheme


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


def test_surviving_replica_is_returned_without_a_copy():
    code = code_of(ReplicationScheme(3))
    data = random.Random(4).randbytes(70_000)
    fragments = encode(code, data, None)
    restored, used = solve(code, fragments)
    assert restored is fragments[0].payload
    assert used == (0,)
    restored, used = solve(code, fragments[2:])
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
        reductions.clear()  # lrc_recoverable's rank tests reduce too
        for _ in range(2):
            with pytest.raises(UnrecoverableError):
                solve(code, survivors)
        assert len(reductions) == 2
