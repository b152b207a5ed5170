"""Multidimensional Haar system on dyadic cubes.

The order-2^d sign matrix is the d-fold Kronecker power of [[1,1],[1,-1]].
A Haar function of generation n, cube k, type r is supported on cube
(n, k) and takes the value 2^(nd/2) * M[r, child] on each child cube.
The exceptional function (type index -1) is identically 1.

Amplitudes are kept as (integer sign pattern, half-exponent of 2), so
inner products, norms, and reconstruction identities can be checked in
exact arithmetic even when n*d is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Rad2, pow2_half
from .dyadic import DyadicCube

__all__ = [
    "HaarIndex",
    "StepFunction",
    "haar_matrix",
    "haar_matrix_entry",
    "haar_amplitude",
    "haar_cube_weight",
    "haar_child_values",
    "haar_child_pattern",
    "haar_step",
    "integrate_haar_step",
    "haar_inner_product",
    "indicator_expansion",
    "haar_primitive_grid",
]

MAX_DENSE_ORDER_EXP = 16


def haar_matrix(d: int) -> np.ndarray:
    """Dense d-fold Kronecker power of [[1,1],[1,-1]], entries +-1 (int8).

    Capped at d <= 16; use :func:`haar_matrix_entry` beyond that.
    """
    if not 1 <= d <= MAX_DENSE_ORDER_EXP:
        raise ValueError(f"d must be in [1, {MAX_DENSE_ORDER_EXP}], got {d}")
    m = np.array([[1, 1], [1, -1]], dtype=np.int8)
    out = m
    for _ in range(d - 1):
        out = np.kron(out, m)
    return out


def haar_matrix_entry(d: int, r: int, l: int) -> int:
    """Entry (r, l) of the order-2^d sign matrix without building it.

    The Kronecker structure collapses to a parity of shared bits.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (0 <= r < 1 << d and 0 <= l < 1 << d):
        raise ValueError("row/column out of range")
    return -1 if bin(r & l).count("1") % 2 else 1


def haar_amplitude(e: int, exact: bool = False) -> float | Fraction | Rad2:
    """The amplitude 2^(e/2): exact (Fraction or Rad2) or float64."""
    return pow2_half(e) if exact else 2.0 ** (e / 2.0)


def haar_cube_weight(cube: DyadicCube, n: int, r: int, exact: bool = False) -> float | Fraction:
    """Sign of ``cube``'s generation-(n+1) child digit under type r, times |cube|.

    The (n, k, r) Haar function is that sign times 2^(nd/2) on such a cube in cube k.
    """
    sign = haar_matrix_entry(cube.dim, r, cube.ancestor(n + 1).child_digit())
    return sign * (cube.volume() if exact else 2.0 ** (-cube.gen * cube.dim))


@dataclass(frozen=True)
class HaarIndex:
    """Index into the Haar system: exceptional (gen == -1) or (gen, cube, type).

    The type number ranges over 1..2^d-1; type 0 would duplicate the
    parent indicator and is excluded.
    """

    dim: int
    gen: int
    cube: int = 0
    type: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.gen == -1:
            if self.cube != 0 or self.type != 0:
                raise ValueError("exceptional index carries no cube/type")
            return
        if self.gen < 0:
            raise ValueError("gen must be >= 0 or the exceptional -1")
        if not 0 <= self.cube < 1 << (self.gen * self.dim):
            raise ValueError("cube number out of range")
        if not 1 <= self.type < 1 << self.dim:
            raise ValueError("type number must be in [1, 2^d-1]")

    @classmethod
    def exceptional(cls, dim: int) -> "HaarIndex":
        return cls(dim, -1)

    @property
    def is_exceptional(self) -> bool:
        return self.gen == -1

    def support(self) -> DyadicCube:
        if self.is_exceptional:
            return DyadicCube(self.dim, 0, 0)
        return DyadicCube(self.dim, self.gen, self.cube)


def haar_child_pattern(idx: HaarIndex) -> tuple[np.ndarray, int]:
    """Signs on the 2^d child cells plus the half-exponent e with amplitude 2^(e/2)."""
    if idx.is_exceptional:
        raise ValueError("the exceptional function has no child pattern")
    d = idx.dim
    row = np.array(
        [haar_matrix_entry(d, idx.type, l) for l in range(1 << d)], dtype=np.int64
    )
    return row, idx.gen * d


def haar_child_values(idx: HaarIndex) -> list[float]:
    """Values of the Haar function on the 2^d children of its support cube."""
    row, e = haar_child_pattern(idx)
    return [float(v) * haar_amplitude(e) for v in row]


@dataclass(frozen=True)
class StepFunction:
    """Function constant on the generation-``gen`` cells, Morton-ordered values."""

    dim: int
    gen: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.shape != (1 << (self.gen * self.dim),):
            raise ValueError(
                f"expected {1 << (self.gen * self.dim)} cell values, got {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def refine(self, gen: int) -> "StepFunction":
        """Re-express on a finer generation; Morton children are contiguous."""
        if gen < self.gen:
            raise ValueError("can only refine to a finer generation")
        reps = 1 << (self.dim * (gen - self.gen))
        return StepFunction(self.dim, gen, np.repeat(self.values, reps))

    def cell_volume(self) -> Fraction:
        return Fraction(1, 1 << (self.gen * self.dim))


def _integer_pattern(idx: HaarIndex, gen: int) -> tuple[np.ndarray, int]:
    """Integer signs on the generation-``gen`` cells plus the half-exponent of the amplitude.

    The one (ancestor, child digit, sign) rule: cell c takes row[child digit]
    inside the support cube and 0 outside it.
    """
    d = idx.dim
    n_cells = 1 << (gen * d)
    if idx.is_exceptional:
        return np.ones(n_cells, dtype=np.int64), 0
    if gen < idx.gen + 1:
        raise ValueError(f"generation {gen} cannot resolve Haar generation {idx.gen}")
    row, e = haar_child_pattern(idx)
    cells = np.arange(n_cells, dtype=np.int64)
    anc = cells >> (d * (gen - idx.gen))
    child = (cells >> (d * (gen - idx.gen - 1))) & ((1 << d) - 1)
    return np.where(anc == idx.cube, row[child], 0), e


def haar_step(idx: HaarIndex, gen: int, exact: bool = False) -> StepFunction:
    """Sample a Haar function as a StepFunction at generation ``gen`` >= n+1.

    With ``exact`` the values are Fraction/Rad2 objects, otherwise float64.
    """
    pattern, e = _integer_pattern(idx, gen)
    scale = haar_amplitude(e, exact)
    if exact:
        return StepFunction(idx.dim, gen, np.array([int(p) * scale for p in pattern], dtype=object))
    return StepFunction(idx.dim, gen, pattern.astype(float) * scale)


def integrate_haar_step(idx: HaarIndex, u: StepFunction) -> float | Fraction | Rad2:
    """Integral of (Haar function) * u over [0,1]^d.

    Exact when ``u`` holds exact values; float otherwise.  Requires the
    step resolution to resolve the Haar children.
    """
    if u.dim != idx.dim:
        raise ValueError("dimension mismatch")
    cell_vol = Fraction(1, 1 << (u.gen * idx.dim))
    if idx.is_exceptional:
        if u.values.dtype == object:
            return sum(u.values.tolist()) * cell_vol
        return float(np.sum(u.values)) * float(cell_vol)
    pattern, e = _integer_pattern(idx, u.gen)
    if u.values.dtype == object:
        dot = sum((int(p) * v for p, v in zip(pattern, u.values) if p), Fraction(0))
        return haar_amplitude(e, True) * cell_vol * dot
    return haar_amplitude(e) * float(cell_vol) * float(pattern @ u.values)


def haar_inner_product(a: HaarIndex, b: HaarIndex) -> Fraction | Rad2:
    """Exact L^2 inner product of two Haar functions."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    gen = max(a.gen, b.gen) + 1
    ua = haar_step(a, gen, exact=True)
    ub = haar_step(b, gen, exact=True)
    cell_vol = Fraction(1, 1 << (gen * a.dim))
    total = sum((x * y for x, y in zip(ua.values, ub.values)), Fraction(0))
    return total * cell_vol


def haar_indices_up_to(d: int, max_gen: int) -> list[HaarIndex]:
    """The exceptional index followed by all (n, k, r) with n <= max_gen."""
    out = [HaarIndex.exceptional(d)]
    for n in range(max_gen + 1):
        for k in range(1 << (n * d)):
            for r in range(1, 1 << d):
                out.append(HaarIndex(d, n, k, r))
    return out


def haar_gram_exact(d: int, max_gen: int) -> np.ndarray:
    """Exact Gram matrix of the Haar functions with generation <= max_gen.

    Integer sign patterns are correlated with a single int64 matmul; the
    exact amplitude 2^((e_i+e_j)/2 - N d) is applied per entry.  An odd
    combined exponent can only produce an exact rational when the integer
    correlation vanishes, which the orthogonality argument guarantees.
    """
    indices = haar_indices_up_to(d, max_gen)
    gen = max_gen + 1
    pats = np.empty((len(indices), 1 << (gen * d)), dtype=np.int64)
    half = np.empty(len(indices), dtype=np.int64)
    for i, idx in enumerate(indices):
        pats[i], half[i] = _integer_pattern(idx, gen)
    dots = pats @ pats.T
    out = np.empty(dots.shape, dtype=object)
    vol_exp = gen * d
    for i in range(len(indices)):
        for j in range(len(indices)):
            e = int(half[i] + half[j]) - 2 * vol_exp
            dij = int(dots[i, j])
            out[i, j] = dij * pow2_half(e) if dij else Fraction(0)
    return out


def indicator_expansion(cube: DyadicCube) -> dict[HaarIndex, Fraction | Rad2]:
    """Coefficients writing the cube indicator in the Haar system.

    Only the exceptional function and Haar functions on ancestor cubes
    appear.  The system is orthonormal, so each coefficient is the Haar
    function's integral over the cube: |cube| for the exceptional one,
    the cube weight times the amplitude 2^(nd/2) for an ancestor's.
    """
    d = cube.dim
    coeffs: dict[HaarIndex, Fraction | Rad2] = {HaarIndex.exceptional(d): cube.volume()}
    for n in range(cube.gen):
        k, scale = cube.ancestor(n).index, haar_amplitude(n * d, True)
        for r in range(1, 1 << d):
            coeffs[HaarIndex(d, n, k, r)] = haar_cube_weight(cube, n, r, True) * scale
    return coeffs


def haar_primitive_grid(
    idx: HaarIndex, grid_gen: int, exact: bool = False
) -> np.ndarray:
    """Values of x -> integral of the Haar function over [0, x] on the dyadic grid.

    Returns a (2^N+1,)^d array (lexicographic axes).  The integral is
    separable across axes within each child cell, so it is assembled from
    per-axis overlap lengths.
    """
    d = idx.dim
    n_pts = (1 << grid_gen) + 1
    ts = [Fraction(j, 1 << grid_gen) for j in range(n_pts)]

    def overlaps(lo: Fraction, hi: Fraction) -> list[Fraction]:
        return [max(Fraction(0), min(t, hi) - lo) for t in ts]

    if idx.is_exceptional:
        axes = [np.array(overlaps(Fraction(0), Fraction(1)), dtype=object)] * d
        out = axes[0]
        for ax in axes[1:]:
            out = np.multiply.outer(out, ax)
        return out if exact else out.astype(float)

    row, e = haar_child_pattern(idx)
    total = np.zeros((n_pts,) * d, dtype=object)
    total[...] = Fraction(0)
    for l in range(1 << d):
        child = DyadicCube(d, idx.gen + 1, (idx.cube << d) + l)
        box = child.box()
        axes = [
            np.array(overlaps(a, b), dtype=object)
            for a, b in zip(box.lower, box.upper)
        ]
        term = axes[0]
        for ax in axes[1:]:
            term = np.multiply.outer(term, ax)
        total = total + int(row[l]) * term
    total = total * pow2_half(e)
    return total if exact else total.astype(float)
