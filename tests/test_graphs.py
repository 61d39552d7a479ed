"""Data model: parsing, induced subgraphs, containment, membership, Hamming
distance and densities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edk
from edk import (
    BIEDGE,
    ColoredGraph,
    DensityVector,
    DiGraph,
    DirDensity,
    PropertyFamily,
    PropertyFormatError,
)
from edk.catalog import (
    cyclic_triangle,
    k5_two_cycles,
    mono_triangle,
    rainbow_triangle_family,
    triangle,
)
from edk.files import format_graph_block
from edk.graphs import (
    BWD,
    FWD,
    MIRROR,
    NONEDGE,
    PALETTES,
    find_induced,
    neighborhood_masks,
    pair_count,
    pair_index,
)
from oracles import (
    brute_all_copies,
    brute_contains_induced,
    brute_first_copy,
    brute_is_member,
    entrywise_graph_block,
)

EX2_TEXT = """
# one forbidden triangle with colors 1,1,2
multicolor r=3

graph n=3
1 1
2
"""

TOURN_TEXT = """
directed palette=tourn
graph n=3
> <
>
"""


def random_colored(rng, n, r):
    return ColoredGraph(n, r, tuple(rng.randint(1, r) for _ in range(n * (n - 1) // 2)))


def random_digraph(rng, n, codes=(0, 1, 2, 3)):
    return DiGraph(n, tuple(rng.choice(codes) for _ in range(n * (n - 1) // 2)))


class TestParsing:
    def test_multicolor_family(self):
        fam = edk.parse_property(EX2_TEXT)
        assert not fam.is_directed
        assert fam.r == 3
        assert fam.forbidden == (triangle(3, 1, 1, 2),)

    def test_directed_tournament_family(self):
        fam = edk.parse_property(TOURN_TEXT)
        assert fam.is_directed
        assert fam.palette.kind == "tourn"
        assert fam.forbidden == (cyclic_triangle(),)

    def test_color_out_of_range(self):
        text = "multicolor r=2\ngraph n=3\n1 3\n2\n"
        with pytest.raises(PropertyFormatError, match="color out of range"):
            edk.parse_property(text)

    def test_palette_violation(self):
        text = "directed palette=orien\ngraph n=2\n-\n"
        with pytest.raises(PropertyFormatError, match="palette violation"):
            edk.parse_property(text)

    def test_syntax_error_carries_line_number(self):
        text = "multicolor r=2\ngraph n=3\n1 2\n"
        with pytest.raises(PropertyFormatError) as err:
            edk.parse_property(text)
        assert err.value.lineno is not None

    def test_roundtrip(self):
        fam = edk.parse_property(EX2_TEXT)
        again = edk.parse_property(edk.format_property(fam))
        assert again == fam
        fam = edk.parse_property(TOURN_TEXT)
        assert edk.parse_property(edk.format_property(fam)) == fam

    def test_graph_file_roundtrip(self):
        rng = random.Random(5)
        g = random_colored(rng, 6, 3)
        assert edk.parse_graph(edk.format_graph(g)) == g
        d = random_digraph(rng, 6)
        assert edk.parse_graph(edk.format_graph(d, "full")) == d


@st.composite
def graph_and_header(draw):
    """A graph with at most 30 vertices of either arity, with the palette
    its file names: r = 2..4, or any of the five palettes."""
    n = draw(st.integers(0, 30))
    kind = draw(st.sampled_from([2, 3, 4] + sorted(PALETTES)))
    if isinstance(kind, int):
        colors = st.integers(1, kind)
        make, pal = (lambda n, cs: ColoredGraph(n, kind, cs)), None  # noqa: E731
    else:
        colors, make, pal = st.sampled_from(PALETTES[kind].sorted_codes()), DiGraph, kind
    return make(n, tuple(draw(st.lists(colors, min_size=pair_count(n),
                                       max_size=pair_count(n))))), pal


class TestGraphFiles:
    """Graph blocks written and read a row at a time, against an
    entry-at-a-time writer, and the errors of malformed files."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(graph_and_header())
    def test_rows_match_the_entrywise_writer_and_read_back(self, case):
        g, pal = case
        assert format_graph_block(g) == entrywise_graph_block(g)
        if g.n:  # a graph file holds at least one vertex
            assert edk.parse_graph(edk.format_graph(g, pal)) == g

    @pytest.mark.parametrize("text, lineno, message", [
        ("directed palette=full\ngraph n=3\n> x\n<\n", 3,
         "bad pair symbol 'x', expected one of o - > <"),
        ("directed palette=compl\ngraph n=2\nO\n", 3,
         "bad pair symbol 'O', expected one of o - > <"),
        ("directed palette=tourn\ngraph n=2\n>>\n", 3,
         "bad pair symbol '>>', expected one of o - > <"),
        ("directed palette=orien\n\n# a comment\ngraph n=3\no >\n-\n", 6,
         "palette violation: '-' not allowed under orien"),
        ("multicolor r=2\ngraph n=3\n1 3\n2\n", 3, "color out of range: 3 not in 1..2"),
        ("multicolor r=3\ngraph n=3\n1 2\n0\n", 4, "color out of range: 0 not in 1..3"),
        ("multicolor r=3\ngraph n=3\n1 2  # note\n1_0\n", 4,
         "color out of range: 10 not in 1..3"),
        ("multicolor r=3\ngraph n=3\n1 a\n2\n", 3, "bad color 'a'"),
        ("multicolor r=3\ngraph n=3\n1 2 3\n2\n", 3, "row 0 has 3 entries, expected 2"),
        ("multicolor r=3\ngraph n=3\n1 2\n\n# gap\n2 1\n", 6,
         "row 1 has 2 entries, expected 1"),
        ("multicolor r=3\ngraph n=4\n1 2 3\n1 1\n", 2,
         "graph block ended early, expected row 2"),
    ])
    def test_malformed_rows_name_the_line(self, text, lineno, message):
        with pytest.raises(PropertyFormatError) as err:
            edk.parse_graph(text)
        assert err.value.lineno == lineno
        assert str(err.value) == f"line {lineno}: {message}"

    def test_tokens_int_reads_are_colors(self):
        text = "multicolor r=3\ngraph n=3\n01 +2\n3\n"
        assert edk.parse_graph(text) == ColoredGraph(3, 3, (1, 2, 3))

    @pytest.mark.parametrize("make, message", [
        (lambda: ColoredGraph(3, 2, (1, 3, 0)), "color 3 out of range 1..2"),
        (lambda: ColoredGraph(3, 3, (2, 0, 4)), "color 0 out of range 1..3"),
        (lambda: DiGraph(3, (0, 5, 7)), "bad digraph pair code 5"),
        (lambda: DiGraph(3, (2, 3, -1)), "bad digraph pair code -1"),
        (lambda: DiGraph(2, ("x",)), "bad digraph pair code 'x'"),
    ])
    def test_bad_states_name_the_first(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


class TestInduced:
    def test_full_subset_is_identity(self):
        g = mono_triangle(3)
        assert edk.induced(g, range(3)) == g

    def test_mono_k4_to_k3(self):
        g = ColoredGraph.complete(4, 2, 1)
        assert edk.induced(g, [0, 2, 3]) == ColoredGraph.complete(3, 2, 1)

    def test_k5_every_4_subset_sees_both_colors(self):
        g = k5_two_cycles()
        for subset in itertools.combinations(range(5), 4):
            sub = edk.induced(g, subset)
            assert set(sub.colors) == {1, 2}

    def test_nested_subsets_compose(self):
        rng = random.Random(1)
        g = random_colored(rng, 8, 3)
        s = [0, 2, 3, 5, 7]
        t = [1, 2, 4]
        once = edk.induced(edk.induced(g, s), t)
        composed = edk.induced(g, [sorted(s)[i] for i in t])
        assert once == composed


@st.composite
def graph_and_relabeling(draw):
    """A multicolor graph (r = 2, 3) or a digraph on at most 6 vertices, and
    a sequence of distinct vertices of it (a permutation or shorter)."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        r = draw(st.sampled_from((2, 3)))
        colors, make = st.integers(1, r), (lambda n, cs: ColoredGraph(n, r, cs))  # noqa: E731
    else:
        colors, make = st.sampled_from((0, 1, 2, 3)), DiGraph
    g = make(n, tuple(draw(st.lists(colors, min_size=pair_count(n), max_size=pair_count(n)))))
    perm = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return g, perm


class TestGraphBody:
    """Both graph classes read, relabel and write pairs through ``far``,
    checked against the definitions pair by pair."""

    @staticmethod
    def far_end(g, state):
        """The state seen from a pair's larger end, written out per arity."""
        if isinstance(g, DiGraph):
            return {FWD: BWD, BWD: FWD}.get(state, state)
        return state

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(graph_and_relabeling(), st.data())
    def test_color_permuted_induced_recolored(self, case, data):
        g, perm = case
        for i, j in itertools.combinations(range(g.n), 2):
            assert g.color(i, j) == g.colors[pair_index(g.n, i, j)]
            assert g.color(j, i) == self.far_end(g, g.color(i, j)) == g.far[g.color(i, j)]
        h = g.permuted(perm)
        assert h.n == len(perm) and type(h) is type(g) and h.r == g.r
        for a, b in itertools.permutations(range(h.n), 2):
            assert h.color(a, b) == g.color(perm[a], perm[b])
        sub = sorted(perm)
        h = g.induced(perm)
        assert h.n == len(sub)
        for a, b in itertools.permutations(range(h.n), 2):
            assert h.color(a, b) == g.color(sub[a], sub[b])
        if g.n >= 2:
            i, j = sorted(data.draw(st.permutations(range(g.n)))[:2], reverse=True)
            state = data.draw(st.sampled_from(g.far[g.first_state:]))
            h = g.recolored(i, j, state)
            assert h.color(i, j) == state and h.color(j, i) == self.far_end(g, state)
            assert edk.hamming(g, h) == (g.color(i, j) != state)

    def test_digraph_recolored_from_the_larger_end_stores_the_mirror(self):
        g = DiGraph(3, (NONEDGE,) * 3)
        for code in (NONEDGE, edk.BIEDGE, FWD, BWD):
            assert g.recolored(2, 0, code).colors[pair_index(3, 0, 2)] == MIRROR[code]
        assert g.recolored(2, 0, FWD).colors == (NONEDGE, BWD, NONEDGE)

    def test_recolored_refuses_unknown_states_from_either_end(self):
        for g in (ColoredGraph.complete(3, 2, 1), DiGraph(3, (NONEDGE,) * 3)):
            for i, j in ((0, 2), (2, 0)):
                for state in (-1, 7):
                    with pytest.raises(ValueError):
                        g.recolored(i, j, state)

    @pytest.mark.parametrize("g", [ColoredGraph(3, 3, (1, 2, 3)), DiGraph(3, (NONEDGE, FWD, BWD))])
    @pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (2, 2), (-1, 2), (2, -1), (0, 3), (0, 5)])
    def test_refuses_what_is_not_a_pair(self, g, i, j):
        """A vertex paired with itself or off the graph names the pair."""
        message = rf"no pair \({i}, {j}\) on 3 vertices"
        with pytest.raises(ValueError, match=message):
            g.color(i, j)
        with pytest.raises(ValueError, match=message):
            g.recolored(i, j, g.first_state)


class TestContainment:
    def test_mono_k3_in_mono_k4(self):
        assert edk.contains_induced(ColoredGraph.complete(4, 3, 1), mono_triangle(3))

    def test_missing_color(self):
        assert not edk.contains_induced(ColoredGraph.complete(4, 3, 1), triangle(3, 1, 1, 2))

    def test_k5_has_no_mono_triangle(self):
        g = k5_two_cycles()
        for c in (1, 2):
            assert not edk.contains_induced(g, ColoredGraph.complete(3, 2, c))

    def test_against_exhaustive_injections(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_colored(rng, 6, 2)
            h = random_colored(rng, rng.randint(2, 4), 2)
            assert edk.contains_induced(g, h) == brute_contains_induced(g, h)

    def test_directed_against_exhaustive(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_digraph(rng, 5)
            h = random_digraph(rng, 3)
            assert edk.contains_induced(g, h) == brute_contains_induced(g, h)

    def test_isomorphism_invariance(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_colored(rng, 6, 3)
            h = random_colored(rng, 3, 3)
            perm = list(range(6))
            rng.shuffle(perm)
            assert edk.contains_induced(g, h) == edk.contains_induced(g.permuted(perm), h)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            edk.contains_induced(ColoredGraph.complete(3, 2, 1), mono_triangle(3))

    def test_membership_refuses_graphs_outside_the_palette(self):
        fam = PropertyFamily.directed("tourn", [cyclic_triangle()])
        two_way = DiGraph(3, (BIEDGE,) * 3)
        assert not fam.matches(two_way)
        with pytest.raises(ValueError, match="outside palette tourn"):
            edk.is_member(two_way, fam)


MATCHER_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def big_and_small(draw):
    """A multicolor graph (r = 2, 3) or a digraph on some palette with at most
    6 vertices, and a graph on at most 4: half the time an induced subgraph of
    the big one in shuffled vertex order, so that copies are common."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        r = draw(st.sampled_from((2, 3)))
        codes = range(1, r + 1)
        make = lambda k, colors: ColoredGraph(k, r, colors)  # noqa: E731
    else:
        codes = PALETTES[draw(st.sampled_from(sorted(PALETTES)))].sorted_codes()
        make = DiGraph
    colors = st.sampled_from(codes)
    big = make(n, tuple(draw(st.lists(colors, min_size=pair_count(n), max_size=pair_count(n)))))
    if n and draw(st.booleans()):
        verts = draw(st.permutations(range(n)))[:draw(st.integers(1, min(n, 4)))]
        return big, big.induced(verts).permuted(draw(st.permutations(range(len(verts)))))
    h = draw(st.integers(0, 4))
    return big, make(h, tuple(draw(st.lists(colors, min_size=pair_count(h),
                                              max_size=pair_count(h)))))


class TestMatcher:
    @MATCHER_SETTINGS
    @given(big_and_small())
    def test_first_copy_matches_brute_force(self, graphs):
        big, small = graphs
        image = find_induced(neighborhood_masks(big), small)
        assert (image is not None) == brute_contains_induced(big, small)
        assert image == brute_first_copy(big, small)

    @MATCHER_SETTINGS
    @given(big_and_small(), st.data())
    def test_banned_pairs_match_filtered_brute_force(self, graphs, data):
        big, small = graphs
        chosen, banned = draw_banned(data, big.n)
        expected = brute_first_copy(big, small, chosen)
        assert find_induced(neighborhood_masks(big), small, banned) == expected

    @MATCHER_SETTINGS
    @given(big_and_small(), st.data())
    def test_every_copy_matches_filtered_brute_force(self, graphs, data):
        big, small = graphs
        chosen, banned = draw_banned(data, big.n) if data.draw(st.booleans()) else (set(), None)
        every = []
        assert find_induced(neighborhood_masks(big), small, banned, every) is None
        assert every == brute_all_copies(big, small, chosen)

    # automorphic forbidden graphs: each vertex set holds several images
    @pytest.mark.parametrize("big, small", [
        (ColoredGraph.complete(5, 2, 1), mono_triangle(2, 1)),
        (DiGraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2)]), cyclic_triangle()),
    ])
    def test_every_copy_of_an_automorphic_graph(self, big, small):
        every = []
        find_induced(neighborhood_masks(big), small, every=every)
        assert every == brute_all_copies(big, small)
        assert len(every) > len({frozenset(v) for v in every})


def draw_banned(data, n):
    """Up to six pairs of n vertices, as a set of pairs and as the matcher's
    per-vertex masks of banned partners."""
    all_pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), max_size=6)) if all_pairs else []
    banned = [0] * n
    for x, y in chosen:
        banned[x] |= 1 << y
        banned[y] |= 1 << x
    return {frozenset(p) for p in chosen}, banned


class TestMembership:
    def test_small_graph_vacuous(self):
        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(4, 2, 1)])
        assert edk.is_member(ColoredGraph.complete(3, 2, 1), fam)

    def test_forbidden_itself(self):
        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        assert not edk.is_member(ColoredGraph.complete(3, 2, 1), fam)

    def test_against_double_loop(self):
        rng = random.Random(10)
        fams = [
            rainbow_triangle_family(),
            PropertyFamily.multicolor(3, [triangle(3, 1, 1, 2), mono_triangle(3, 2)]),
        ]
        for fam in fams:
            for _ in range(25):
                g = random_colored(rng, 5, 3)
                assert edk.is_member(g, fam) == brute_is_member(g, fam)


class TestHamming:
    def test_equal_graphs(self):
        g = mono_triangle(3)
        assert edk.hamming(g, g) == 0

    def test_single_recolor(self):
        g = mono_triangle(3)
        assert edk.hamming(g, g.recolored(0, 1, 2)) == 1
        assert edk.hamming_normalized(g, g.recolored(0, 1, 2)) == Fraction(1, 3)

    def test_metric_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b, c = (random_colored(rng, 6, 3) for _ in range(3))
            assert edk.hamming(a, b) == edk.hamming(b, a) >= 0
            assert edk.hamming(a, c) <= edk.hamming(a, b) + edk.hamming(b, c)
            assert (edk.hamming(a, b) == 0) == (a == b)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            edk.hamming(mono_triangle(3), ColoredGraph.complete(4, 3, 1))


class TestDensities:
    def test_mono_k4(self):
        assert edk.color_density(ColoredGraph.complete(4, 3, 2)) == DensityVector.of(0, 1, 0)

    def test_k5_half_half(self):
        assert edk.color_density(k5_two_cycles()) == DensityVector.of(
            Fraction(1, 2), Fraction(1, 2)
        )

    def test_digraph_arc_directions_counted_apart(self):
        g = DiGraph(3, (FWD, FWD, NONEDGE))
        third = Fraction(1, 3)
        assert edk.color_density(g) == (third, 0, 2 * third, 0)
        assert edk.color_density(g.permuted([2, 1, 0])) == (third, 0, 0, 2 * third)

    def test_all_biedge_digraph(self):
        g = DiGraph(4, (BIEDGE,) * 6)
        d = edk.dir_density(g, "undir")
        assert (d.p, d.q) == (1, 0)

    def test_sums_to_one(self):
        rng = random.Random(12)
        for _ in range(20):
            g = random_colored(rng, 7, 3)
            assert sum(edk.color_density(g).entries) == 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            edk.color_density(ColoredGraph(1, 2, ()))


class TestDensityTypes:
    def test_density_vector_validates(self):
        with pytest.raises(ValueError):
            DensityVector.of(Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(ValueError):
            DensityVector.of(Fraction(3, 2), Fraction(-1, 2))

    def test_dir_density_palette_constraints(self):
        DirDensity.of(0, Fraction(1, 2), "tourn")
        with pytest.raises(ValueError, match="^tourn palette needs zero density on o$"):
            DirDensity.of(0, Fraction(1, 3), "tourn")
        with pytest.raises(ValueError, match="^compl palette needs zero density on o$"):
            DirDensity.of(Fraction(1, 4), Fraction(1, 4), "compl")
        DirDensity.of(Fraction(1, 2), Fraction(1, 4), "compl")
        with pytest.raises(ValueError, match="^orien palette needs zero density on -$"):
            DirDensity.of(Fraction(1, 4), Fraction(1, 4), "orien")
        with pytest.raises(ValueError, match="^undir palette needs zero density on > and <$"):
            DirDensity.of(Fraction(1, 4), Fraction(1, 4), "undir")

    def test_family_validation(self):
        with pytest.raises(ValueError):
            PropertyFamily.multicolor(2, [])
        with pytest.raises(ValueError):
            PropertyFamily.directed("orien", [DiGraph(2, (BIEDGE,))])

    def test_palette_arrow_pairing(self):
        from edk.graphs import FWD, Palette

        with pytest.raises(ValueError):
            Palette("tourn", frozenset({FWD}))
        assert edk.palette("orien").kind == "orien"
        with pytest.raises(ValueError):
            edk.palette("sideways")

    def test_tiny_graphs_are_members(self):
        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        assert edk.is_member(ColoredGraph(0, 2, ()), fam)
        assert edk.is_member(ColoredGraph(1, 2, ()), fam)
