"""Computable strong-charge machinery: step-function pairings, truncated
Haar-primitive expansions evaluated on figures, and boundary flux of
continuous vector fields through figure boundaries.

Vector fields come from a small declared catalog (linear, polynomial,
grid-tabulated) so that flux runs are reproducible from JSON configs
rather than from arbitrary callables.  Polynomial entries know the exact
volume integral of their divergence, which provides the independent
oracle for the quadrature side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dyadic import Figure, Rectangle, exposed_faces
from .haar import HaarIndex, StepFunction, haar_amplitude, haar_cube_weight
from .increments import CoefficientTable

__all__ = [
    "step_inner_product",
    "integrate_haar_over_figure",
    "schauder_partial_apply",
    "flux",
    "PolynomialField",
    "GridField",
    "linear_field",
    "field_from_json",
]


def step_inner_product(f: StepFunction, u: StepFunction):
    """Integral of f*u over [0,1]^d for step functions; refines the coarser."""
    if f.dim != u.dim:
        raise ValueError("dimension mismatch")
    gen = max(f.gen, u.gen)
    f, u = f.refine(gen), u.refine(gen)
    cell_vol = Fraction(1, 1 << (gen * f.dim))
    if f.values.dtype == object or u.values.dtype == object:
        return sum((a * b for a, b in zip(f.values, u.values)), Fraction(0)) * cell_vol
    return float(f.values @ u.values) * float(cell_vol)


def integrate_haar_over_figure(
    dim: int, n: int, k: int, r: int, fig: Figure, exact: bool = False
):
    """Integral of the (n, k, r) Haar function over a dyadic figure.

    Constant on generation n+1 cubes and mean-zero on its support, so a
    member cube of the figure contributes only when it sits inside a
    single child of cube (n, k); a coarser member swallows the support
    whole and contributes zero.
    """
    if fig.dim != dim:
        raise ValueError("dimension mismatch")
    if HaarIndex(dim, n, k, r).is_exceptional:  # HaarIndex rejects an index out of range
        raise ValueError("the exceptional function has no (n, k, r) index")
    total = Fraction(0) if exact else 0.0
    for cube in fig.cubes:
        if cube.gen > n and cube.ancestor(n).index == k:
            total += haar_cube_weight(cube, n, r, exact)
    return haar_amplitude(n * dim, exact) * total


def schauder_partial_apply(tab: CoefficientTable, max_gen: int, fig: Figure):
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
            scale = haar_amplitude(n * d, exact)
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
        return sum(
            (self.divergence_integral(c.box()) for c in fig.cubes), Fraction(0)
        )

    def to_json(self) -> dict:
        return {
            "kind": "polynomial",
            "components": [
                [[str(c), list(e)] for c, e in comp] for comp in self.components
            ],
        }


def linear_field(matrix: Sequence[Sequence[float]], offset: Sequence[float] | None = None) -> PolynomialField:
    """Affine field v(x) = offset + matrix @ x as a polynomial catalog entry."""
    d = len(matrix)
    offset = offset if offset is not None else [0.0] * d
    comps = []
    for i in range(d):
        terms = []
        if offset[i]:
            terms.append((Fraction(offset[i]), (0,) * d))
        for j in range(d):
            if matrix[i][j]:
                exps = tuple(1 if axis == j else 0 for axis in range(d))
                terms.append((Fraction(matrix[i][j]), exps))
        comps.append(tuple(terms))
    return PolynomialField(d, tuple(comps))


@dataclass(frozen=True)
class GridField:
    """Vector field tabulated on grid vertices, multilinear interpolation."""

    dim: int
    gen: int
    values: np.ndarray  # shape (d, (2^g+1), ..., (2^g+1))

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        n_pts = (1 << self.gen) + 1
        if vals.shape != (self.dim,) + (n_pts,) * self.dim:
            raise ValueError("tabulated values have the wrong shape")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def component(self, i: int, points: np.ndarray) -> np.ndarray:
        scale = float(1 << self.gen)
        coords = np.clip(points * scale, 0.0, scale)
        base = np.minimum(coords.astype(int), (1 << self.gen) - 1)
        frac = coords - base
        out = np.zeros(points.shape[0])
        for corner in range(1 << self.dim):
            weight = np.ones(points.shape[0])
            idx = []
            for axis in range(self.dim):
                if (corner >> axis) & 1:
                    weight *= frac[:, axis]
                    idx.append(base[:, axis] + 1)
                else:
                    weight *= 1.0 - frac[:, axis]
                    idx.append(base[:, axis])
            out += weight * self.values[i][tuple(idx)]
        return out

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.stack([self.component(i, points) for i in range(self.dim)], axis=1)

    def to_json(self) -> dict:
        return {
            "kind": "grid",
            "generation": self.gen,
            "values": self.values.tolist(),
        }


def field_from_json(obj: dict):
    """Instantiate a catalog vector field from its JSON description."""
    kind = obj.get("kind")
    if kind == "linear":
        return linear_field(obj["matrix"], obj.get("offset"))
    if kind == "polynomial":
        raw = obj.get("components", obj.get("coeffs"))
        if raw is None:
            raise ValueError("polynomial field needs 'components' (or 'coeffs')")
        comps = tuple(
            tuple((Fraction(c), tuple(e)) for c, e in comp) for comp in raw
        )
        return PolynomialField(len(comps), comps)
    if kind == "grid":
        values = np.asarray(obj["values"], dtype=float)
        return GridField(values.shape[0], int(obj["generation"]), values)
    raise ValueError(f"unknown vector-field kind {kind!r}")


def flux(field, fig: Figure, quad_level: int) -> float:
    """Outward flux of a catalog field through the figure boundary.

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
