"""Exact and brute-force oracles that no subcommand reaches.

The package computes chargeability from coefficient tables and cube
increments; the tests check those against independent constructions:

- the Haar system as explicit (generation, cube, type) indices, its exact
  Gram matrix and the exact Haar primitives sampled on the dyadic grid;
- increments read off the grid corners of rectangles, figures and whole
  generations, and the closed-form covariance of two rectangle increments;
- the exact coefficient table of a grid of exact numbers, from the
  corner sums, the sign-matrix entries and the exact amplitudes alone;
- the truncated Haar-primitive expansion evaluated on a figure;
- polynomial vector fields and the midpoint-rule flux through a figure's
  exposed faces, checked against the exact divergence integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from sheetcharge.dyadic import (
    DyadicCube,
    Figure,
    Rectangle,
    _face_steps,
    _occupancy,
    lex_to_morton,
)
from sheetcharge.increments import CoefficientTable
from sheetcharge.sampler import HurstVector

from exact import pow2_half


def haar_matrix_entry(d: int, r: int, l: int) -> int:
    """Entry (r, l) of the order-2^d sign matrix: the Kronecker power collapses
    to the parity of the bits r and l share."""
    return -1 if bin(r & l).count("1") % 2 else 1


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
        if self.gen == -1:
            if self.cube != 0 or self.type != 0:
                raise ValueError("exceptional index carries no cube/type")
            return
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


def haar_child_pattern(idx: HaarIndex) -> tuple[np.ndarray, int]:
    """Signs on the 2^d child cells plus the half-exponent e with amplitude 2^(e/2)."""
    d = idx.dim
    row = np.array([haar_matrix_entry(d, idx.type, l) for l in range(1 << d)], dtype=np.int64)
    return row, idx.gen * d


def haar_indices_up_to(d: int, max_gen: int) -> list[HaarIndex]:
    """The exceptional index followed by all (n, k, r) with n <= max_gen."""
    out = [HaarIndex.exceptional(d)]
    for n in range(max_gen + 1):
        for k in range(1 << (n * d)):
            for r in range(1, 1 << d):
                out.append(HaarIndex(d, n, k, r))
    return out


def _integer_pattern(idx: HaarIndex, gen: int) -> tuple[np.ndarray, int]:
    """Integer signs on the generation-``gen`` Morton cells plus the half-exponent
    of the amplitude: cell c takes row[child digit] inside the support cube, else 0."""
    d = idx.dim
    n_cells = 1 << (gen * d)
    if idx.is_exceptional:
        return np.ones(n_cells, dtype=np.int64), 0
    row, e = haar_child_pattern(idx)
    cells = np.arange(n_cells, dtype=np.int64)
    anc = cells >> (d * (gen - idx.gen))
    child = (cells >> (d * (gen - idx.gen - 1))) & ((1 << d) - 1)
    return np.where(anc == idx.cube, row[child], 0), e


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


def haar_primitive_grid(idx: HaarIndex, grid_gen: int, exact: bool = False) -> np.ndarray:
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
        box = DyadicCube(d, idx.gen + 1, (idx.cube << d) + l).box()
        axes = [np.array(overlaps(a, b), dtype=object) for a, b in zip(box.lower, box.upper)]
        term = axes[0]
        for ax in axes[1:]:
            term = np.multiply.outer(term, ax)
        total = total + int(row[l]) * term
    total = total * pow2_half(e)
    return total if exact else total.astype(float)


def _grid_gen(values: np.ndarray) -> int:
    """N of a (2^N+1,)*d grid of points."""
    return (values.shape[0] - 1).bit_length() - 1


def rectangle_increment(values: np.ndarray, rect: Rectangle):
    """Alternating corner sum of the grid ``values`` over ``rect``; corners must be grid points."""
    if rect.dim != values.ndim:
        raise ValueError("dimension mismatch")
    gen = _grid_gen(values)
    total = None
    for corner, sign in rect.corners():
        ij = []
        for x in corner:
            j = x * (1 << gen)
            if j.denominator != 1:
                raise ValueError(f"corner coordinate {x} is not on the 2^-{gen} grid")
            ij.append(int(j))
        term = sign * values[tuple(ij)]
        total = term if total is None else total + term
    return total


def figure_increment(values: np.ndarray, fig: Figure):
    """Increment of the grid ``values`` over a figure: sum of the member-cube increments."""
    if fig.dim != values.ndim:
        raise ValueError("dimension mismatch")
    if fig.finest_generation() > _grid_gen(values):
        raise ValueError("figure is finer than the sample grid")
    total = None
    for cube in fig.cubes:
        term = rectangle_increment(values, cube.box())
        total = term if total is None else total + term
    if total is None:
        return Fraction(0) if values.dtype == object else 0.0
    return total


def corner_sum_cells(values: np.ndarray, n: int) -> np.ndarray:
    """Generation-n cube increments of a grid by the 2^d-corner alternating sum, lexicographic."""
    d = values.ndim
    step = (values.shape[0] - 1) >> n
    total = 0
    for corner in itertools.product((0, 1), repeat=d):
        term = values[tuple(slice(step, None, step) if c else slice(0, -1, step) for c in corner)]
        total = total + term if (d - sum(corner)) % 2 == 0 else total - term
    return total


@dataclass(frozen=True)
class ExactTable:
    """A coefficient table of exact numbers: ``levels[n]`` as ``CoefficientTable.level(n)``."""

    dim: int
    max_gen: int
    a_minus1: object
    levels: tuple[np.ndarray, ...]

    def level(self, n: int) -> np.ndarray:
        return self.levels[n]


def exact_coefficient_table(values: np.ndarray, max_gen: int) -> ExactTable:
    """The Haar-primitive coefficients of the exact grid ``values`` up to ``max_gen``.

    ``values`` is an object array of ints or Fractions.  Row k, column
    r - 1 of level n is 2^(nd/2) * sum_l M[r, l] * (increment of child l
    of generation-n cube k): the children's increments are the
    generation-(n+1) corner sums in Morton order, so cube k's children
    are rows 2^d k .. 2^d k + 2^d - 1, M[r, l] is
    :func:`haar_matrix_entry` and 2^(nd/2) is ``pow2_half(n d)``, a
    Fraction or a Rad2.  Nothing of the coefficient engine is used.
    """
    if values.dtype != object:
        raise TypeError(f"need an object array of exact numbers, got dtype {values.dtype}")
    d, gen = values.ndim, _grid_gen(values)
    if not 0 <= max_gen < gen:
        raise ValueError(f"need 0 <= max_gen < {gen}, got {max_gen}")
    signs = np.array(
        [[haar_matrix_entry(d, r, l) for r in range(1, 1 << d)] for l in range(1 << d)],
        dtype=object,
    )
    levels = []
    for n in range(max_gen + 1):
        kids = lex_to_morton(corner_sum_cells(values, n + 1)).reshape(-1, 1 << d)
        levels.append(kids.dot(signs) * pow2_half(n * d))
    whole = corner_sum_cells(values, 0).reshape(-1)[0]  # the increment over [0, 1]^d
    return ExactTable(d, max_gen, whole, tuple(levels))


def increment_covariance(
    H: HurstVector | Sequence[float], rect_a: Rectangle, rect_b: Rectangle
) -> float:
    """Closed-form covariance of the increments over two rectangles.

    Per axis: (|b'-a|^2h + |b-a'|^2h - |a'-a|^2h - |b-b'|^2h) / 2, the
    four-term expansion of the kernel over corner pairs.
    """
    H = HurstVector.of(H)
    if rect_a.dim != H.dim or rect_b.dim != H.dim:
        raise ValueError("rectangle dimension does not match the Hurst vector")
    out = 1.0
    for h, a, b, ap, bp in zip(
        H.components, rect_a.lower, rect_a.upper, rect_b.lower, rect_b.upper
    ):
        a, b, ap, bp = (float(x) for x in (a, b, ap, bp))
        out *= 0.5 * (
            abs(bp - a) ** (2 * h)
            + abs(b - ap) ** (2 * h)
            - abs(ap - a) ** (2 * h)
            - abs(b - bp) ** (2 * h)
        )
    return out


def haar_cube_weight(cube: DyadicCube, n: int, r: int, exact: bool = False) -> float | Fraction:
    """Sign of ``cube``'s generation-(n+1) child digit under type r, times |cube|.

    The (n, k, r) Haar function is that sign times 2^(nd/2) on such a cube in cube k.
    """
    sign = haar_matrix_entry(cube.dim, r, cube.ancestor(n + 1).child_digit())
    return sign * (cube.volume() if exact else 2.0 ** (-cube.gen * cube.dim))


REPORT_STATS = ("criterion_a", "b_terms", "b_partial_sums", "t_stats", "s_stats")


def exact_report(tab: ExactTable) -> dict[str, list]:
    """The statistics of a criterion report of ``tab``, per generation, in exact arithmetic.

    With c the generation-n coefficients: criterion A is
    2^(-n(d+2)/2) max_r sum_k |c[k, r]|, the b-term 2^(n(d-2)/2) max |c|,
    T = 2^(-nd) sum_k |c[k, 1]| and S = 2^(n(d-2)/2) T; the b-terms'
    partial sums complete them.
    """
    d, out = tab.dim, {name: [] for name in REPORT_STATS}
    partial = 0
    for n in range(tab.max_gen + 1):
        lam = np.abs(tab.level(n))
        b = pow2_half(n * (d - 2)) * max(lam.reshape(-1))
        t = Fraction(1, 1 << (n * d)) * lam[:, 0].sum()
        partial = partial + b
        out["criterion_a"].append(pow2_half(-n * (d + 2)) * max(lam.sum(axis=0)))
        out["b_terms"].append(b)
        out["b_partial_sums"].append(partial)
        out["t_stats"].append(t)
        out["s_stats"].append(pow2_half(n * (d - 2)) * t)
    return out


def schauder_partial_apply(tab: CoefficientTable | ExactTable, max_gen: int, fig: Figure):
    """Truncated Haar-primitive expansion evaluated on a figure.

    constant-term * |figure| plus the coefficient-weighted Haar integrals
    over the figure for generations 0..max_gen.  Member cubes must not be
    finer than generation max_gen + 1.
    """
    if fig.dim != tab.dim:
        raise ValueError("dimension mismatch")
    if max_gen > tab.max_gen:
        raise ValueError(f"table only holds generations up to {tab.max_gen}")
    if fig.cubes and fig.finest_generation() > max_gen + 1:
        raise ValueError(
            f"figure generation {fig.finest_generation()} exceeds horizon {max_gen + 1}"
        )
    d = tab.dim
    exact = tab.level(0).dtype == object
    total = tab.a_minus1 * (fig.volume() if exact else float(fig.volume()))
    # group by Haar support: only ancestors of member cubes can contribute
    for cube in fig.cubes:
        for n in range(min(max_gen, cube.gen - 1) + 1):
            lam = tab.level(n)[cube.ancestor(n).index]
            scale = pow2_half(n * d) if exact else 2.0 ** (n * d / 2)
            for r in range(1, 1 << d):
                if lam[r - 1]:
                    total = total + lam[r - 1] * scale * haar_cube_weight(cube, n, r, exact)
    return total


@dataclass(frozen=True)
class PolynomialField:
    """Vector field with polynomial components.

    ``components[i]`` is a tuple of (coefficient, exponent-tuple) monomials
    for the i-th component; coefficients are exact Fractions so divergence
    volume integrals over rational boxes are exact.
    """

    dim: int
    components: tuple[tuple[tuple[Fraction, tuple[int, ...]], ...], ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.dim:
            raise ValueError("need one component per axis")
        comps = []
        for comp in self.components:
            terms = []
            for coef, exps in comp:
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.dim or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps}")
                terms.append((Fraction(coef), exps))
            comps.append(tuple(terms))
        object.__setattr__(self, "components", tuple(comps))

    def component(self, i: int, points: np.ndarray) -> np.ndarray:
        """Evaluate component i at an (m, d) array of points."""
        out = np.zeros(points.shape[0])
        for coef, exps in self.components[i]:
            term = np.full(points.shape[0], float(coef))
            for axis, e in enumerate(exps):
                if e:
                    term *= points[:, axis] ** e
            out += term
        return out

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.stack([self.component(i, points) for i in range(self.dim)], axis=1)

    def divergence_integral(self, box: Rectangle) -> Fraction:
        """Exact integral of the divergence over a rational box."""
        total = Fraction(0)
        for i, comp in enumerate(self.components):
            for coef, exps in comp:
                if exps[i] == 0:
                    continue
                dcoef = coef * exps[i]
                dexps = tuple(e - 1 if axis == i else e for axis, e in enumerate(exps))
                term = dcoef
                for axis, e in enumerate(dexps):
                    a, b = box.lower[axis], box.upper[axis]
                    term *= (b ** (e + 1) - a ** (e + 1)) / (e + 1)
                total += term
        return total

    def divergence_integral_figure(self, fig: Figure) -> Fraction:
        return sum((self.divergence_integral(c.box()) for c in fig.cubes), Fraction(0))


def exposed_faces(fig: Figure) -> tuple[int, list[tuple[int, int, int, tuple[int, ...]]]]:
    """Boundary faces of the figure at its finest generation.

    Returns (h, faces) where each face is (axis, sign, plane, transverse):
    the face lies in the hyperplane x_axis = plane / 2^h, spans the unit
    transverse cell with lower corner transverse / 2^h, and has outward
    normal sign * e_axis.  Interior faces shared by two cells never appear.
    Faces come by axis, then plane, normal +e_axis first, then transverse.
    """
    occ, h = _occupancy(fig)
    faces: list[tuple[int, int, int, tuple[int, ...]]] = []
    for axis, step in enumerate(_face_steps(occ)):
        step = np.moveaxis(step, axis, 0)
        hits = np.argwhere(np.stack([step < 0, step > 0], axis=1)).tolist()
        faces += [(axis, 1 - 2 * s, plane, tuple(trans)) for plane, s, *trans in hits]
    return h, faces


def flux(field: PolynomialField, fig: Figure, quad_level: int) -> float:
    """Outward flux of a polynomial field through the figure boundary.

    Composite midpoint rule with 2^quad_level nodes per transverse axis on
    each exposed face; each geometric face is evaluated once with a signed
    outward normal, so shared faces of a split figure cancel node-for-node.
    """
    if quad_level < 0:
        raise ValueError("quad_level must be >= 0")
    if not fig.cubes:
        return 0.0
    h, faces = exposed_faces(fig)
    d = fig.dim
    cell = 1.0 / (1 << h)
    n_sub = 1 << quad_level
    # midpoint offsets within one face cell, per transverse axis
    offs = (np.arange(n_sub) + 0.5) / n_sub * cell
    weight = (cell / n_sub) ** (d - 1)
    total = 0.0
    for axis, sign, plane, trans in sorted(faces):
        if d == 1:
            pts = np.array([[plane * cell]])
        else:
            grids = np.meshgrid(*([offs] * (d - 1)), indexing="ij")
            pts = np.empty((n_sub ** (d - 1), d))
            pts[:, axis] = plane * cell
            other_axes = [a for a in range(d) if a != axis]
            for j, a in enumerate(other_axes):
                pts[:, a] = trans[j] * cell + grids[j].reshape(-1)
        total += sign * float(field.component(axis, pts).sum()) * weight
    return total
