from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetcharge.dyadic import (
    DyadicCube,
    Figure,
    Rectangle,
    children,
    cube_box,
    exposed_faces,
    figure_perimeter,
    figure_volume,
    lex_to_morton,
    morton_decode,
    morton_encode,
    morton_to_lex,
)
from helpers import brute_force_faces, random_dyadic_figure


class TestAddressing:
    def test_root_children_follow_shift_rule(self):
        kids = children(DyadicCube(2, 0, 0))
        assert [(c.gen, c.index) for c in kids] == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_interval_bisection(self):
        kids = children(DyadicCube(1, 1, 1))
        assert [(c.gen, c.index) for c in kids] == [(2, 2), (2, 3)]
        assert kids[0].box().lower == (Fraction(1, 2),)
        assert kids[0].box().upper == (Fraction(3, 4),)
        assert kids[1].box().lower == (Fraction(3, 4),)
        assert kids[1].box().upper == (Fraction(1),)

    def test_decode_examples(self):
        box = cube_box(DyadicCube(2, 1, 3))
        assert box.lower == (Fraction(1, 2), Fraction(1, 2))
        assert box.upper == (Fraction(1), Fraction(1))
        child0 = children(DyadicCube(2, 1, 3))[0]
        assert child0.box().lower == (Fraction(1, 2), Fraction(1, 2))
        assert child0.box().upper == (Fraction(3, 4), Fraction(3, 4))
        # bits of 5 = (1,0,1) select upper/lower/upper halves
        box3 = cube_box(DyadicCube(3, 1, 5))
        assert box3.lower == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
        assert box3.upper == (Fraction(1), Fraction(1, 2), Fraction(1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_decode_against_direct_interval_arithmetic(self, d):
        # independent oracle: recursively bisect boxes following child digits
        for gen in range(4):
            for k in range(1 << (gen * d)):
                lo = [Fraction(0)] * d
                hi = [Fraction(1)] * d
                digits = [(k >> (t * d)) & ((1 << d) - 1) for t in range(gen)]
                for digit in reversed(digits):  # most significant digit first
                    for i in range(d):
                        mid = (lo[i] + hi[i]) / 2
                        if (digit >> i) & 1:
                            lo[i] = mid
                        else:
                            hi[i] = mid
                box = cube_box(DyadicCube(d, gen, k))
                assert box.lower == tuple(lo) and box.upper == tuple(hi)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_children_partition_parent(self, d):
        for gen in range(5):
            for k in range(1 << (gen * d)):
                parent = DyadicCube(d, gen, k)
                kids = children(parent)
                assert len(kids) == 1 << d
                assert sum(c.volume() for c in kids) == parent.volume()
                pbox = parent.box()
                for c in kids:
                    b = c.box()
                    assert all(
                        pl <= cl and cu <= pu
                        for pl, cl, cu, pu in zip(pbox.lower, b.lower, b.upper, pbox.upper)
                    )
                # lower corners are pairwise distinct, so interiors are disjoint
                corners = {c.box().lower for c in kids}
                assert len(corners) == 1 << d

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.integers(0, 4).flatmap(
                    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * d)) - 1))
                ),
            )
        )
    )
    def test_morton_roundtrip(self, args):
        d, (gen, k) = args
        coords = morton_decode(k, d, gen)
        assert all(0 <= m < 1 << gen for m in coords)
        assert morton_encode(coords, gen) == k

    def test_ancestor_contains(self):
        c = DyadicCube(2, 3, 37)
        assert c.ancestor(3) == c
        for g in range(3):
            assert c.ancestor(g).contains(c)
        assert not c.contains(c.ancestor(2))


class TestLexMorton:
    @pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_against_encode(self, d, n):
        shape = (1 << n,) * d
        arr = np.arange(np.prod(shape)).reshape(shape)
        flat = lex_to_morton(arr)
        for k in range(flat.size):
            coords = morton_decode(k, d, n)
            assert flat[k] == arr[coords]
        assert np.array_equal(morton_to_lex(flat, d), arr)

    def test_trivial_sizes(self):
        arr = np.array([[7.0]])
        assert lex_to_morton(arr).tolist() == [7.0]


class TestRectangle:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rectangle((Fraction(1, 2),), (Fraction(1, 2),))
        with pytest.raises(ValueError):
            Rectangle((Fraction(0),), (Fraction(3, 2),))

    def test_corner_signs_alternate(self):
        r = Rectangle((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
        signs = dict((c, s) for c, s in r.corners())
        assert signs[(Fraction(1), Fraction(1))] == 1
        assert signs[(Fraction(0), Fraction(1))] == -1
        assert signs[(Fraction(1), Fraction(0))] == -1
        assert signs[(Fraction(0), Fraction(0))] == 1


class TestFigure:
    def test_volume_examples(self):
        assert figure_volume(Figure(2, (DyadicCube(2, 0, 0),))) == 1
        two = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 1, 1)))
        assert figure_volume(two) == Fraction(1, 2)
        assert figure_volume(Figure(2)) == 0

    def test_perimeter_examples(self):
        assert figure_perimeter(Figure(2, (DyadicCube(2, 0, 0),))) == 4
        for n in range(4):
            single = Figure(2, (DyadicCube(2, n, 0),))
            assert figure_perimeter(single) == Fraction(4, 1 << n)
        strip = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 1, 1)))
        assert figure_perimeter(strip) == 3  # [0,1] x [0,1/2]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Figure(2, (DyadicCube(2, 0, 0), DyadicCube(2, 1, 0)))
        with pytest.raises(ValueError):
            Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 1, 0)))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            Figure(2, (DyadicCube(1, 1, 0),))

    @pytest.mark.parametrize("seed", range(5))
    def test_exposed_faces_against_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        picks = rng.choice(16, size=5, replace=False)
        fig = Figure(2, tuple(DyadicCube(2, 2, int(k)) for k in picks))
        _, faces = exposed_faces(fig)
        assert set(faces) == brute_force_faces(fig)

    @pytest.mark.parametrize("d,gen,count", [(1, 4, 5), (2, 3, 9), (2, 4, 40), (3, 2, 20)])
    def test_perimeter_counts_exposed_faces(self, d, gen, count):
        rng = np.random.default_rng(100 * d + gen)
        for _ in range(5):
            cubes = list(random_dyadic_figure(rng, d, gen, count).cubes)
            # mixed generations: some children of one member replace it
            kids = cubes.pop(int(rng.integers(len(cubes)))).children()
            cubes += [k for k in kids if rng.random() < 0.5] or kids[:1]
            fig = Figure(d, tuple(cubes))
            h, faces = exposed_faces(fig)
            assert figure_perimeter(fig) == len(faces) * Fraction(1, 1 << (h * (d - 1)))
        assert figure_perimeter(Figure(d)) == 0

    def test_exposed_faces_oracle_3d(self):
        rng = np.random.default_rng(3)
        picks = rng.choice(64, size=9, replace=False)
        fig = Figure(3, tuple(DyadicCube(3, 2, int(k)) for k in picks))
        _, faces = exposed_faces(fig)
        assert set(faces) == brute_force_faces(fig)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_perimeter_refinement_invariant(self, data):
        d = data.draw(st.sampled_from([1, 2, 3]))
        gen = data.draw(st.integers(1, 2))
        count = data.draw(st.integers(1, min(4, 1 << (gen * d))))
        picks = data.draw(
            st.lists(
                st.integers(0, (1 << (gen * d)) - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        cubes = tuple(DyadicCube(d, gen, k) for k in picks)
        fig = Figure(d, cubes)
        split_at = data.draw(st.integers(0, len(cubes) - 1))
        refined = tuple(
            c for i, cube in enumerate(cubes) for c in ([cube] if i != split_at else cube.children())
        )
        fig2 = Figure(d, refined)
        assert figure_perimeter(fig2) == figure_perimeter(fig)
        assert figure_volume(fig2) == figure_volume(fig)

    def test_rectangle_figure_matches_closed_form(self):
        # [0,1] x [0,1/4] from four generation-2 cubes
        cubes = tuple(
            DyadicCube(2, 2, morton_encode((m, 0), 2)) for m in range(4)
        )
        fig = Figure(2, cubes)
        sides = (Fraction(1), Fraction(1, 4))
        expected = 2 * sum(
            np.prod([s for j, s in enumerate(sides) if j != i])
            for i in range(2)
        )
        assert figure_perimeter(fig) == expected

    def test_json_roundtrip(self):
        fig = Figure(2, (DyadicCube(2, 1, 2), DyadicCube(2, 2, 1)))
        assert Figure.from_json(fig.to_json()) == fig
