import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetcharge.dyadic import (
    DyadicCube,
    Figure,
    Rectangle,
    figure_perimeter,
    lex_to_morton,
    morton_decode,
    morton_encode,
)
from helpers import random_dyadic_figure
from oracles import exposed_faces


class TestAddressing:
    def test_root_children_follow_shift_rule(self):
        kids = DyadicCube(2, 0, 0).children()
        assert [(c.gen, c.index) for c in kids] == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_interval_bisection(self):
        kids = DyadicCube(1, 1, 1).children()
        assert [(c.gen, c.index) for c in kids] == [(2, 2), (2, 3)]
        assert kids[0].box().lower == (Fraction(1, 2),)
        assert kids[0].box().upper == (Fraction(3, 4),)
        assert kids[1].box().lower == (Fraction(3, 4),)
        assert kids[1].box().upper == (Fraction(1),)

    def test_decode_examples(self):
        box = DyadicCube(2, 1, 3).box()
        assert box.lower == (Fraction(1, 2), Fraction(1, 2))
        assert box.upper == (Fraction(1), Fraction(1))
        child0 = DyadicCube(2, 1, 3).children()[0]
        assert child0.box().lower == (Fraction(1, 2), Fraction(1, 2))
        assert child0.box().upper == (Fraction(3, 4), Fraction(3, 4))
        # bits of 5 = (1,0,1) select upper/lower/upper halves
        box3 = DyadicCube(3, 1, 5).box()
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
                box = DyadicCube(d, gen, k).box()
                assert box.lower == tuple(lo) and box.upper == tuple(hi)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_children_partition_parent(self, d):
        for gen in range(5):
            for k in range(1 << (gen * d)):
                parent = DyadicCube(d, gen, k)
                kids = parent.children()
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

    @pytest.mark.parametrize(
        "dim, gen, index",
        [(0, 0, 0), (2, -1, 0), (2, 1, -1), (2, 1, 4), (3, 2, 64)],
        ids=["dim-zero", "gen-negative", "index-negative", "index-past-gen-1", "index-past-gen-2"],
    )
    def test_invalid_cube_rejected(self, dim, gen, index):
        with pytest.raises(ValueError):
            DyadicCube(dim, gen, index)

    @pytest.mark.parametrize("gen", [-1, 4])
    def test_ancestor_outside_own_generations_rejected(self, gen):
        with pytest.raises(ValueError, match="ancestor generation out of range"):
            DyadicCube(2, 3, 37).ancestor(gen)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_child_digit_is_position_among_siblings(self, d):
        assert DyadicCube(d, 0, 0).child_digit() == 0
        for k in range(1 << d):
            parent = DyadicCube(d, 1, k)
            for l, child in enumerate(parent.children()):
                assert child.child_digit() == l
                assert child.ancestor(1) == parent

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_volume_is_box_volume(self, d):
        for gen in range(3):
            for k in range(1 << (gen * d)):
                cube = DyadicCube(d, gen, k)
                assert cube.volume() == cube.box().volume() == Fraction(1, 1 << (gen * d))

    def test_contains_needs_same_dimension_and_nesting(self):
        assert not DyadicCube(1, 0, 0).contains(DyadicCube(2, 1, 0))
        assert not DyadicCube(2, 1, 0).contains(DyadicCube(2, 1, 1))
        assert not DyadicCube(2, 1, 0).contains(DyadicCube(2, 2, 4))
        assert DyadicCube(2, 1, 1).contains(DyadicCube(2, 2, 4))


class TestLexMorton:
    @pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_against_encode(self, d, n):
        shape = (1 << n,) * d
        arr = np.arange(np.prod(shape)).reshape(shape)
        flat = lex_to_morton(arr)
        for k in range(flat.size):
            coords = morton_decode(k, d, n)
            assert flat[k] == arr[coords]

    def test_trivial_sizes(self):
        arr = np.array([[7.0]])
        assert lex_to_morton(arr).tolist() == [7.0]

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 2, 4), (6, 6)])
    def test_non_dyadic_or_unequal_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected shape"):
            lex_to_morton(np.zeros(shape))

    def test_object_cells_move_like_float_cells(self):
        arr = np.arange(16).reshape(4, 4)
        exact = np.array([[Fraction(int(v), 3) for v in row] for row in arr], dtype=object)
        assert lex_to_morton(exact).tolist() == [Fraction(int(v), 3) for v in lex_to_morton(arr)]


class TestRectangle:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rectangle((Fraction(1, 2),), (Fraction(1, 2),))
        with pytest.raises(ValueError):
            Rectangle((Fraction(0),), (Fraction(3, 2),))

    @pytest.mark.parametrize(
        "lower, upper", [((), ()), ((0,), (1, 1)), ((0, 0), (1,))], ids=["empty", "short-lower", "short-upper"]
    )
    def test_axes_must_be_nonempty_and_paired(self, lower, upper):
        with pytest.raises(ValueError, match="nonempty and of equal length"):
            Rectangle(lower, upper)

    def test_volume_is_product_of_side_lengths(self):
        r = Rectangle((Fraction(1, 4), 0), (Fraction(3, 4), Fraction(1, 8)))
        assert r.dim == 2
        assert r.side_lengths() == (Fraction(1, 2), Fraction(1, 8))
        assert r.volume() == Fraction(1, 16)
        assert all(type(x) is Fraction for x in r.lower + r.upper)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_corner_signs_cancel(self, d):
        # the increment of a constant over any box is zero
        r = Rectangle((Fraction(1, 4),) * d, (Fraction(1, 2),) * d)
        corners = list(r.corners())
        assert len({c for c, _ in corners}) == 1 << d
        assert sum(s for _, s in corners) == 0
        assert dict(corners)[r.upper] == 1

    def test_corner_signs_alternate(self):
        r = Rectangle((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
        signs = dict((c, s) for c, s in r.corners())
        assert signs[(Fraction(1), Fraction(1))] == 1
        assert signs[(Fraction(0), Fraction(1))] == -1
        assert signs[(Fraction(1), Fraction(0))] == -1
        assert signs[(Fraction(0), Fraction(0))] == 1


class TestFigure:
    def test_volume_examples(self):
        assert Figure(2, (DyadicCube(2, 0, 0),)).volume() == 1
        two = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 1, 1)))
        assert two.volume() == Fraction(1, 2)
        assert Figure(2).volume() == 0

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

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dimension_below_one_rejected(self, dim):
        # with no cubes there is nothing else to check the dimension against
        with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
            Figure(dim)

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
        assert fig2.volume() == fig.volume()

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

    def test_to_json_lists_generation_index_pairs(self):
        fig = Figure(2, (DyadicCube(2, 1, 2), DyadicCube(2, 2, 1)))
        assert json.loads(fig.to_json()) == {"dim": 2, "cubes": [[1, 2], [2, 1]]}

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2, "cubes": [[1, 4]]}',
            '{"dim": 2, "cubes": [[-1, 0]]}',
            '{"dim": 2, "cubes": [[1, 0], [2, 3]]}',
            '{"dim": 2, "cubes": [[1, 1], [1, 1]]}',
            '{"dim": 0, "cubes": []}',
            '{"dim": -2, "cubes": []}',
        ],
        ids=["index-out-of-range", "gen-negative", "nested", "duplicate", "dim-0", "dim-negative"],
    )
    def test_from_json_validates_like_the_constructor(self, text):
        obj = json.loads(text)
        with pytest.raises(ValueError):
            Figure(obj["dim"], tuple(DyadicCube(obj["dim"], g, k) for g, k in obj["cubes"]))
        with pytest.raises(ValueError):
            Figure.from_json(text)

    def test_finest_generation(self):
        assert Figure(2).finest_generation() == 0
        fig = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 3, 63), DyadicCube(2, 2, 4)))
        assert fig.finest_generation() == 3
