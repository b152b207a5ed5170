"""The multidimensional Haar sign matrix.

The order-2^d sign matrix is the d-fold Kronecker power of [[1,1],[1,-1]].
A Haar function of generation n, cube k, type r is supported on cube
(n, k) and takes the value 2^(nd/2) * M[r, child] on each child cube; the
coefficient engine applies the amplitude as the float64 ``2.0 ** (n*d/2)``.
The Haar functions themselves, their Gram matrix and primitives, and the
exact amplitudes are test oracles (``tests/oracles.py``, ``tests/exact.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "haar_matrix",
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
