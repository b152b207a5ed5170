from fractions import Fraction

import numpy as np
import pytest

from sheetcharge.exact import Rad2
from sheetcharge.haar import haar_amplitude, haar_matrix

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


class TestAmplitude:
    @pytest.mark.parametrize("e", range(8))
    def test_exact_amplitude_squares_to_power_of_two(self, e):
        exact = haar_amplitude(e, exact=True)
        assert type(exact) is (Rad2 if e % 2 else Fraction)
        assert exact * exact == 1 << e
        assert float(exact) == pytest.approx(haar_amplitude(e), rel=1e-15)

    def test_float_amplitude_is_l2_normalising(self):
        # a generation-n Haar function is +-2^(nd/2) on a cube of volume 2^(-nd)
        for d in (1, 2, 3):
            for n in range(4):
                assert haar_amplitude(n * d) ** 2 * 2.0 ** (-n * d) == pytest.approx(1.0)
