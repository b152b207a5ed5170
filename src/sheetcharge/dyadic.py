"""Exact combinatorics and geometry of dyadic cubes, rectangles, and figures.

Cubes in [0,1]^d are addressed by (generation n, index k) with the child
rule: child l of (n, k) is (n+1, 2^d k + l).  Index bits are interleaved
Morton-style, bit i of the child digit selecting the upper half of axis i,
so parent/child arithmetic is pure bit shifting.  All geometry is exact:
coordinates, volumes, and perimeters are Fractions with power-of-two
denominators; floating point never enters this module.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "DyadicCube",
    "Rectangle",
    "Figure",
    "figure_perimeter",
    "morton_decode",
    "morton_encode",
    "lex_to_morton",
]


def morton_decode(k: int, dim: int, gen: int) -> tuple[int, ...]:
    """Per-axis integer coordinates of cube index ``k`` at generation ``gen``.

    Bit ``t*dim + i`` of ``k`` is bit ``t`` of the axis-``i`` coordinate.
    """
    coords = [0] * dim
    for t in range(gen):
        digit = (k >> (t * dim)) & ((1 << dim) - 1)
        for i in range(dim):
            coords[i] |= ((digit >> i) & 1) << t
    return tuple(coords)


def morton_encode(coords: Sequence[int], gen: int) -> int:
    """Inverse of :func:`morton_decode`."""
    dim = len(coords)
    k = 0
    for t in range(gen):
        for i, m in enumerate(coords):
            k |= ((m >> t) & 1) << (t * dim + i)
    return k


def _morton_encode_rows(coords: np.ndarray, dim: int, gen: int) -> np.ndarray:
    """:func:`morton_encode` of each row of the integer array ``coords``, as int64.

    Row j holds the coordinates of the first ``coords.shape[1]`` axes of
    a ``dim``-dimensional generation-``gen`` cube, whose other
    coordinates are 0.  Bit t of axis i is moved to bit t*dim + i of the
    index, one (t, i) at a time for every row at once.  An index has
    gen * dim bits, so gen * dim < 63 keeps it in int64; rows of no
    coordinate (the bottom cubes at d = 1) are all index 0.
    """
    k = np.zeros(len(coords), dtype=np.int64)
    for i in range(coords.shape[1]):
        for t in range(gen):
            k |= ((coords[:, i] >> t) & 1) << (t * dim + i)
    return k


def _morton_decode_rows(k: np.ndarray, dim: int, gen: int) -> np.ndarray:
    """:func:`morton_decode` of each int64 index of ``k``: an array of shape (len(k), dim)."""
    coords = np.zeros((len(k), dim), dtype=np.int64)
    for t in range(gen):
        for i in range(dim):
            coords[:, i] |= ((k >> (t * dim + i)) & 1) << t
    return coords


def _morton_axes(dim: int, n: int) -> list[int]:
    """Morton bit axis of each lexicographic bit axis of a (2^n,)*dim cell array.

    Bit t of axis i (most significant first), lexicographic bit axis i*n + t,
    is Morton bit axis t*dim + dim-1-i, as child-digit bit i is axis i.
    """
    return [t * dim + dim - 1 - i for i in range(dim) for t in range(n)]


@functools.lru_cache(maxsize=None)
def _lex_axes(dim: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`_morton_axes`, worked out once per (dim, n)."""
    return tuple(sorted(range(n * dim), key=_morton_axes(dim, n).__getitem__))


def lex_to_morton(arr: np.ndarray) -> np.ndarray:
    """Flatten a (2^n,)*d lexicographic cell array into Morton cube order.

    Pure reshape/transpose, so it works for float and object dtypes alike.
    """
    dim = arr.ndim
    n = (arr.shape[0]).bit_length() - 1
    if arr.shape != (1 << n,) * dim:
        raise ValueError(f"expected shape (2^n,)*{dim}, got {arr.shape}")
    return arr.reshape((2,) * (n * dim)).transpose(_lex_axes(dim, n)).reshape(-1)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box prod_i [lower_i, upper_i] inside [0,1]^d, exact corners."""

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        lo = tuple(Fraction(x) for x in self.lower)
        hi = tuple(Fraction(x) for x in self.upper)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lower/upper must be nonempty and of equal length")
        for a, b in zip(lo, hi):
            if not (0 <= a < b <= 1):
                raise ValueError(f"need 0 <= a < b <= 1 per axis, got [{a}, {b}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def side_lengths(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    def volume(self) -> Fraction:
        v = Fraction(1)
        for s in self.side_lengths():
            v *= s
        return v

    def corners(self) -> Iterator[tuple[tuple[Fraction, ...], int]]:
        """All 2^d corners with the alternating sign (-1)^{#lower coordinates}."""
        d = self.dim
        for mask in range(1 << d):
            corner = tuple(
                self.upper[i] if (mask >> i) & 1 else self.lower[i] for i in range(d)
            )
            n_lower = d - bin(mask).count("1")
            yield corner, -1 if n_lower % 2 else 1


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube of side 2^-gen, Morton-indexed within generation gen."""

    dim: int
    gen: int
    index: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.gen < 0:
            raise ValueError("gen must be >= 0")
        if not 0 <= self.index < 1 << (self.gen * self.dim):
            raise ValueError(
                f"index {self.index} out of range for generation {self.gen}"
            )

    def coords(self) -> tuple[int, ...]:
        return morton_decode(self.index, self.dim, self.gen)

    def box(self) -> Rectangle:
        side = Fraction(1, 1 << self.gen)
        m = self.coords()
        return Rectangle(
            tuple(mi * side for mi in m), tuple((mi + 1) * side for mi in m)
        )

    def children(self) -> list["DyadicCube"]:
        base = self.index << self.dim
        return [
            DyadicCube(self.dim, self.gen + 1, base + l)
            for l in range(1 << self.dim)
        ]

    def child_digit(self) -> int:
        """Which child of its parent this cube is (0 for generation 0)."""
        return self.index & ((1 << self.dim) - 1) if self.gen > 0 else 0

    def ancestor(self, gen: int) -> "DyadicCube":
        if not 0 <= gen <= self.gen:
            raise ValueError("ancestor generation out of range")
        return DyadicCube(self.dim, gen, self.index >> (self.dim * (self.gen - gen)))

    def contains(self, other: "DyadicCube") -> bool:
        return (
            self.dim == other.dim
            and self.gen <= other.gen
            and other.ancestor(self.gen) == self
        )

    def volume(self) -> Fraction:
        return Fraction(1, 1 << (self.gen * self.dim))


@dataclass(frozen=True)
class Figure:
    """Finite union of pairwise almost-disjoint dyadic cubes, mixed generations."""

    dim: int
    cubes: tuple[DyadicCube, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        cubes = tuple(self.cubes)
        object.__setattr__(self, "cubes", cubes)
        seen: set[tuple[int, int]] = set()
        for c in cubes:
            if c.dim != self.dim:
                raise ValueError("all cubes must share the figure dimension")
            if (c.gen, c.index) in seen:
                raise ValueError(f"duplicate cube {(c.gen, c.index)}")
            seen.add((c.gen, c.index))
        # two dyadic cubes overlap iff one is an ancestor of the other
        for c in cubes:
            for g in range(c.gen):
                if (g, c.index >> (self.dim * (c.gen - g))) in seen:
                    raise ValueError(f"cube {(c.gen, c.index)} nested inside another")

    def finest_generation(self) -> int:
        return max((c.gen for c in self.cubes), default=0)

    def volume(self) -> Fraction:
        """Exact: the cubes counted in cells of the finest generation h, over 2^(h d)."""
        h = self.finest_generation()
        cells = sum(1 << ((h - c.gen) * self.dim) for c in self.cubes)
        return Fraction(cells, 1 << (h * self.dim))

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "cubes": [[c.gen, c.index] for c in self.cubes]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Figure":
        obj = json.loads(text)
        return cls(
            obj["dim"], tuple(DyadicCube(obj["dim"], g, k) for g, k in obj["cubes"])
        )


def _occupancy(fig: Figure) -> tuple[np.ndarray, int]:
    """Boolean cell grid at the figure's finest generation h, lexicographic axes.

    Filled one generation g at a time: the cubes of generation g are
    decoded all at once and set in the view of the grid that splits each
    axis into 2^g cubes of 2^(h-g) cells.  The grid, of 2^(h d) cells, is
    made first, so every index decoded has h d < 63 bits.
    """
    d, h = fig.dim, fig.finest_generation()
    by_gen: dict[int, list[int]] = {}
    for c in fig.cubes:
        by_gen.setdefault(c.gen, []).append(c.index)
    occ = np.zeros((1 << h,) * d, dtype=bool)
    for g, index in by_gen.items():
        view = occ.reshape((1 << g, 1 << (h - g)) * d)
        coords = _morton_decode_rows(np.array(index, dtype=np.int64), d, g)
        view[tuple(x for m in coords.T for x in (m, slice(None)))] = True
    return occ, h


def _face_steps(occ: np.ndarray) -> Iterator[np.ndarray]:
    """Per axis, the signed step of the zero-padded occupancy ``occ`` along it.

    Entry ``plane`` is -1 on a face with outward normal +e_axis, +1 on one with -e_axis, else 0.
    """
    for axis in range(occ.ndim):
        pad = [(0, 0)] * occ.ndim
        pad[axis] = (1, 1)
        yield np.diff(np.pad(occ.view(np.int8), pad), axis=axis)


def figure_perimeter(fig: Figure) -> Fraction:
    """(d-1)-dimensional boundary measure, exact.

    Counts faces of the refined cell grid belonging to exactly one cell and
    multiplies by the exact face area 2^(-h(d-1)).
    """
    occ, h = _occupancy(fig)
    count = sum(np.count_nonzero(step) for step in _face_steps(occ))
    return count * Fraction(1, 1 << (h * (fig.dim - 1)))
