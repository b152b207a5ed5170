import numpy as np
import pytest

from sheetcharge.haar import haar_matrix

from oracles import haar_matrix_entry


class TestMatrix:
    def test_base_case(self):
        assert haar_matrix(1).tolist() == [[1, 1], [1, -1]]

    def test_order_four_rows(self):
        assert haar_matrix(2).tolist() == [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]

    @pytest.mark.parametrize("d", range(1, 7))
    def test_symmetric_involution(self, d):
        m = haar_matrix(d).astype(np.int64)
        assert np.array_equal(m, m.T)
        assert np.array_equal(m @ m, (1 << d) * np.eye(1 << d, dtype=np.int64))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_entry_formula_agrees_with_dense(self, d):
        m = haar_matrix(d)
        for r in range(1 << d):
            for l in range(1 << d):
                assert haar_matrix_entry(d, r, l) == m[r, l]

    def test_block_recursion(self):
        for d in range(1, 5):
            prev, cur = haar_matrix(d), haar_matrix(d + 1)
            half = 1 << d
            assert np.array_equal(cur[:half, :half], prev)
            assert np.array_equal(cur[:half, half:], prev)
            assert np.array_equal(cur[half:, :half], prev)
            assert np.array_equal(cur[half:, half:], -prev)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            haar_matrix(0)
        with pytest.raises(ValueError):
            haar_matrix(17)
