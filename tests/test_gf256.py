import tracemalloc

import numpy as np
import pytest

from durakit import parallel
from durakit.codec import gf256
from durakit.codec.rs import parity_matrix


ALL = np.arange(256, dtype=np.uint8)


class TestFieldAxioms:
    def test_addition_is_xor_and_self_inverse(self):
        xor = np.bitwise_xor.outer(ALL, ALL)
        assert np.array_equal(xor, xor.T)  # commutative
        assert np.all(np.bitwise_xor(ALL, ALL) == 0)  # x + x = 0

    def test_multiplication_commutes(self):
        assert np.array_equal(gf256.MUL_TABLE, gf256.MUL_TABLE.T)

    def test_multiplicative_identity_and_zero(self):
        assert np.array_equal(gf256.MUL_TABLE[1], ALL)
        assert np.all(gf256.MUL_TABLE[0] == 0)

    def test_every_nonzero_element_has_inverse(self):
        for a in range(1, 256):
            assert gf256.mul(a, gf256.inv(a)) == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf256.inv(0)

    def test_mul_div_round_trip_exhaustive(self):
        for b in range(1, 256):
            products = gf256.MUL_TABLE[:, b]
            recovered = gf256.MUL_TABLE[gf256.INV_TABLE[b]][products]
            assert np.array_equal(recovered, ALL)

    def test_associativity_exhaustive(self):
        # a*(b*c) == (a*b)*c for all 256**3 triples, chunked over a
        table = gf256.MUL_TABLE
        for a in range(256):
            left = table[a][table]            # [b, c] -> a*(b*c)
            right = table[table[a]][:, :]     # rows indexed by a*b
            assert np.array_equal(left, right), f"associativity broken at a={a}"

    def test_distributivity_exhaustive(self):
        table = gf256.MUL_TABLE
        xor = np.bitwise_xor.outer(ALL, ALL)
        for a in range(256):
            left = table[a][xor]                               # a*(b+c)
            right = np.bitwise_xor.outer(table[a], table[a])   # a*b + a*c
            assert np.array_equal(left, right), f"distributivity broken at a={a}"

    def test_table_matches_scalar_path(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = int(rng.integers(256)), int(rng.integers(256))
            assert gf256.MUL_TABLE[a, b] == gf256.mul(a, b)


class TestVectorHelpers:
    def test_mul_bytes_scalar_cases(self):
        data = np.array([0, 1, 7, 200, 255], dtype=np.uint8)
        assert np.all(gf256.mul_bytes(0, data) == 0)
        assert np.array_equal(gf256.mul_bytes(1, data), data)
        expected = np.array([gf256.mul(3, int(v)) for v in data], dtype=np.uint8)
        assert np.array_equal(gf256.mul_bytes(3, data), expected)

    def test_addmul_accumulates(self):
        acc = np.zeros(4, dtype=np.uint8)
        data = np.array([1, 2, 3, 4], dtype=np.uint8)
        gf256.addmul_bytes(acc, 5, data)
        gf256.addmul_bytes(acc, 5, data)
        assert np.all(acc == 0)  # adding twice cancels

    def test_mul_table_is_immutable(self):
        with pytest.raises(ValueError):
            gf256.MUL_TABLE[0, 0] = 1


class TestCombine:
    """``combine`` against the byte-table loop, on both sides of ``LONG_MIN_BYTES``."""

    LENGTHS = (1, 65535, 65536, 65537, 3 * 256 * 1024 + 1)
    COEFFS = (0, 1, 2, 255)

    @staticmethod
    def reference(coeffs, sources):
        acc = np.zeros(len(sources[0]), dtype=np.uint8)
        for coeff, source in zip(coeffs, sources):
            gf256.addmul_bytes(acc, coeff, source)
        return acc

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_matches_byte_table_loop(self, monkeypatch, length, cpus):
        pools = []

        class RecordingPool(parallel.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
        rng = np.random.default_rng(length)
        sources = [rng.integers(0, 256, length, dtype=np.uint8) for _ in self.COEFFS]
        expected = self.reference(self.COEFFS, sources)
        assert np.array_equal(gf256.combine([self.COEFFS], sources), expected[None])
        for coeff, source in zip(self.COEFFS, sources):
            alone = gf256.combine([[coeff]], [source])
            assert np.array_equal(alone, self.reference([coeff], [source])[None])
        stripes = -(-length // gf256.STRIPE_BYTES)
        if cpus == 2 and length >= gf256.LONG_MIN_BYTES and stripes > 1:
            assert pools and set(pools) == {2}
        else:
            assert pools == []

    # 512 is the RS 8+3 shard of a 4 KiB object; 65,535 takes several blocks
    @pytest.mark.parametrize("length", (1, 511, 512, 4096, 65535))
    def test_matrix_matches_per_row_loop(self, length):
        rng = np.random.default_rng(length)
        sources = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(8)]
        matrix = [
            [0, 1, 2, 255, 0, 1, 2, 255],
            [255, 2, 1, 0, 255, 2, 1, 0],
            [0] * 8,
            [int(c) for c in rng.integers(0, 256, 8)],
        ]
        result = gf256.combine(matrix, sources)
        assert result.shape == (4, length) and result.dtype == np.uint8
        for row, got in zip(matrix, result):
            assert np.array_equal(got, self.reference(row, sources))
        single = gf256.combine([[0], [1], [2], [255]], sources[:1])
        for coeff, got in zip((0, 1, 2, 255), single):
            assert np.array_equal(got, self.reference([coeff], sources[:1]))
        # an RS m+0 code has no parity rows
        assert gf256.combine([], sources).shape == (0, length)

    # rows 1-9 cross the edges of the 4-row lane groups
    @pytest.mark.parametrize("rows", range(1, 10))
    @pytest.mark.parametrize("length", (1, 511, 512, 4096, 65535))
    def test_every_row_count_matches_the_loop(self, rows, length):
        rng = np.random.default_rng(rows * 100_000 + length)
        sources = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(7)]
        matrix = [[int(c) for c in rng.integers(0, 256, 7)] for _ in range(rows)]
        matrix[0][:3] = [0, 1, 255]
        expected = np.array([self.reference(row, sources) for row in matrix])
        assert np.array_equal(gf256.combine(matrix, sources), expected)
        lanes = gf256.lane_tables(matrix)
        assert lanes.shape == (-(-rows // gf256.LANES), 7 * 256)
        assert np.array_equal(gf256.combine(matrix, sources, lanes), expected)

    def test_lane_table_layout(self):
        matrix = [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]
        lanes = gf256.lane_tables(matrix)
        for row, coeffs in enumerate(matrix):
            group, lane = divmod(row, gf256.LANES)
            for j, coeff in enumerate(coeffs):
                for b in (0, 1, 2, 0x80, 0xFF):
                    entry = int(lanes[group, j * 256 + b])
                    assert entry >> (8 * lane) & 0xFF == gf256.mul(coeff, b)
        # the lanes past row 4 of the second group are empty
        assert not (lanes[1] >> 8).any()

    def test_matrix_gather_memory_is_bounded(self):
        # unblocked, the lane gather's index of RS 200+55 over 65,535-byte
        # shards would be 200 * 65535 * 8 bytes, about 105 MB
        rng = np.random.default_rng(255)
        sources = [rng.integers(0, 256, 65535, dtype=np.uint8) for _ in range(200)]
        matrix = parity_matrix(200, 55)
        tracemalloc.start()
        try:
            result = gf256.combine(matrix, sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.shape == (55, 65535)
        assert peak < 3 * result.nbytes
        assert np.array_equal(result[7], self.reference(matrix[7], sources))


class TestBitPlanes:
    """The long path, 64-bit words by bit planes, against the byte-table loop."""

    reference = staticmethod(TestCombine.reference)

    def check(self, matrix, sources):
        result = gf256.combine(matrix, sources)
        assert result.shape == (len(matrix), len(sources[0]))
        for row, got in zip(matrix, result):
            assert np.array_equal(got, self.reference(row, sources))

    # the last word of the first stripe, or of a one-word tail past a stripe
    # edge, is part padding
    @pytest.mark.parametrize("tail", range(1, 8))
    def test_lengths_that_end_inside_a_word(self, monkeypatch, tail):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        stripe = gf256.STRIPE_BYTES
        rng = np.random.default_rng(tail)
        for length in (gf256.LONG_MIN_BYTES + tail, stripe - 8 + tail, 2 * stripe + tail):
            assert length % 8 == tail
            sources = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(3)]
            self.check([[3, 0, 255], [1, 1, 0], [128, 7, 1]], sources)

    def test_sources_at_every_byte_offset(self):
        length = gf256.STRIPE_BYTES + 3
        stride = -(-length // 8) * 8 + 8
        buffer = np.random.default_rng(8).integers(0, 256, 8 * stride, dtype=np.uint8)
        assert buffer.ctypes.data % 8 == 0
        view = memoryview(buffer)
        sources = [view[j * stride + j : j * stride + j + length] for j in range(8)]
        self.check([[j + 1 for j in range(8)], [255 - j for j in range(8)]], sources)

    def test_one_row_with_every_coefficient(self):
        rng = np.random.default_rng(256)
        length = gf256.LONG_MIN_BYTES + 5
        sources = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(256)]
        self.check([list(range(256))], sources)

    def test_rows_of_zeros_and_ones(self):
        rng = np.random.default_rng(2)
        sources = [rng.integers(0, 256, gf256.STRIPE_BYTES + 9, dtype=np.uint8)
                   for _ in range(4)]
        self.check([[1, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 0]], sources)
        assert not gf256.combine([[0, 0, 0, 0]], sources).any()

    def test_read_only_numpy_matrix(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 256, (3, 5), dtype=np.uint8)
        matrix[0, 0] = 0x80
        matrix.setflags(write=False)
        sources = [rng.integers(0, 256, gf256.LONG_MIN_BYTES, dtype=np.uint8)
                   for _ in range(5)]
        self.check(matrix, sources)


class TestMatrixAlgebra:
    def test_invert_round_trip(self):
        rng = np.random.default_rng(2)
        for size in (1, 2, 4, 6):
            while True:
                matrix = [
                    [int(v) for v in rng.integers(0, 256, size)] for _ in range(size)
                ]
                if gf256.matrix_rank(matrix, size) == size:
                    break
            inverse = gf256.matrix_invert(matrix)
            for i in range(size):
                for j in range(size):
                    acc = 0
                    for t in range(size):
                        acc ^= gf256.mul(matrix[i][t], inverse[t][j])
                    assert acc == int(i == j)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            gf256.matrix_invert([[1, 2], [1, 2]])

    def test_rank(self):
        assert gf256.matrix_rank([[1, 0], [0, 1], [1, 1]], 2) == 2
        assert gf256.matrix_rank([[1, 1], [1, 1]], 2) == 1
        assert gf256.matrix_rank([[0, 0]], 2) == 0

    def test_row_reduce_rank_deficient_with_carried_columns(self):
        # rows 1 and 2 are 2x and 3x row 0 on the first two columns, so those
        # columns have rank 1 and the third column supplies the second pivot;
        # a carried identity block records how each result row was formed
        head = [[1, 2, 5], [2, 4, 7], [3, 6, 7]]
        rows = [r + [int(i == j) for j in range(3)] for i, r in enumerate(head)]
        assert len(gf256.row_reduce(rows, 2)) == 1 == gf256.matrix_rank(head, 2)
        reduced = gf256.row_reduce(rows, 3)
        assert len(reduced) == 2 == gf256.matrix_rank(head, 3)
        assert [r[0] for r in reduced] == [1, 0]  # pivot columns 0 and 2, in order
        assert [r[2] for r in reduced] == [0, 1]
        assert reduced[1][1] == 0
        for row in reduced:
            recombined = [0, 0, 0]
            for coeff, source in zip(row[3:], head):
                for t, w in enumerate(source):
                    recombined[t] ^= gf256.mul(coeff, w)
            assert recombined == row[:3]
