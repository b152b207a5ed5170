"""The multidimensional Haar sign matrix and amplitudes.

The order-2^d sign matrix is the d-fold Kronecker power of [[1,1],[1,-1]].
A Haar function of generation n, cube k, type r is supported on cube
(n, k) and takes the value 2^(nd/2) * M[r, child] on each child cube.
The amplitude 2^(nd/2) is float64 or exact (Fraction, or Rad2 when nd is
odd).  The Haar functions themselves, their Gram matrix and primitives,
are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exact import Rad2, pow2_half

__all__ = [
    "haar_matrix",
    "haar_amplitude",
]

MAX_DENSE_ORDER_EXP = 16


def haar_matrix(d: int) -> np.ndarray:
    """Dense d-fold Kronecker power of [[1,1],[1,-1]], entries +-1 (int8), d <= 16."""
    if not 1 <= d <= MAX_DENSE_ORDER_EXP:
        raise ValueError(f"d must be in [1, {MAX_DENSE_ORDER_EXP}], got {d}")
    m = np.array([[1, 1], [1, -1]], dtype=np.int8)
    out = m
    for _ in range(d - 1):
        out = np.kron(out, m)
    return out


def haar_amplitude(e: int, exact: bool = False) -> float | Fraction | Rad2:
    """The amplitude 2^(e/2): exact (Fraction or Rad2) or float64."""
    return pow2_half(e) if exact else 2.0 ** (e / 2.0)
