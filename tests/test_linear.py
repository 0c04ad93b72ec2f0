"""The one solve over every scheme's generator rows."""

import random
from itertools import combinations

import pytest

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
