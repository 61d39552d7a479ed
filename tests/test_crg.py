"""Types: embeddings, admissibility, enumeration, canonical forms."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import edk
from edk import ColoredGraph, DiGraph, DirType, PropertyFamily, RType
from edk.catalog import (
    bichromatic_triangles_family,
    cyclic_triangle,
    cyclic_triangle_family,
    mono_triangle,
    mono_triangle_family,
    transitive_tournament,
    triangle,
)
from edk.crg import (
    _first_ranked,
    _scores,
    canonical_key,
    canonicalize,
    color_set_mask,
    dir_set_mask,
)
from edk.errors import EnumerationGuardError
from edk.graphs import BWD, FWD, PALETTES, pair_count
from oracles import brute_canonical_key, brute_embeds


def vmask(*colors):
    return color_set_mask(colors)


class TestEmbeds:
    def test_mono_triangle_needs_its_color(self):
        k = RType(3, (vmask(2, 3),), ())
        assert not edk.embeds(mono_triangle(3, 1), k)
        assert edk.embeds(mono_triangle(3, 2), k)

    def test_rainbow_never_fits_one_vertex(self):
        rainbow = triangle(3, 1, 2, 3)
        for colors in itertools.combinations((1, 2, 3), 2):
            assert not edk.embeds(rainbow, RType(3, (vmask(*colors),), ()))
        for c in (1, 2, 3):
            assert not edk.embeds(rainbow, RType(3, (vmask(c),), ()))

    def test_rainbow_into_two_vertex_type(self):
        rainbow = triangle(3, 1, 2, 3)
        k = RType(3, (vmask(1, 2), vmask(3)), (vmask(1, 2, 3),))
        assert edk.embeds(rainbow, k)
        assert brute_embeds(rainbow, k)

    def test_against_exhaustive_maps(self):
        rng = random.Random(21)
        full = 7
        for _ in range(60):
            n = rng.randint(2, 4)
            h = ColoredGraph(n, 3, tuple(rng.randint(1, 3) for _ in range(pair_count(n))))
            k = rng.randint(1, 3)
            vsets = tuple(rng.randint(1, full - 1) for _ in range(k))
            esets = tuple(rng.randint(1, full) for _ in range(pair_count(k)))
            t = RType(3, vsets, esets)
            assert edk.embeds(h, t) == brute_embeds(h, t)

    def test_permutation_invariance(self):
        rng = random.Random(22)
        for _ in range(30):
            h = ColoredGraph(4, 2, tuple(rng.randint(1, 2) for _ in range(6)))
            t = RType(2, (1, 2, 1), tuple(rng.randint(1, 3) for _ in range(3)))
            perm_h = list(range(4))
            perm_t = list(range(3))
            rng.shuffle(perm_h)
            rng.shuffle(perm_t)
            base = edk.embeds(h, t)
            assert base == edk.embeds(h.permuted(perm_h), t)
            assert base == edk.embeds(h, t.permuted(perm_t))

    def test_monotone_in_color_sets(self):
        rng = random.Random(23)
        for _ in range(30):
            h = ColoredGraph(3, 3, tuple(rng.randint(1, 3) for _ in range(3)))
            vsets = (rng.randint(1, 6),)
            t = RType(3, vsets, ())
            if edk.embeds(h, t):
                bigger = vsets[0] | (1 << rng.randrange(3))
                if bigger < 7:
                    assert edk.embeds(h, RType(3, (bigger,), ()))


class TestEmbedsDir:
    def test_cyclic_triangle_one_arrow(self):
        one_arrow = DirType(edk.palette("tourn"), (1 << FWD,), ())
        assert not edk.embeds(cyclic_triangle(), one_arrow)
        assert edk.embeds(transitive_tournament(3), one_arrow)

    def test_cyclic_triangle_both_arrows(self):
        both = DirType(edk.palette("full"), (dir_set_mask((FWD, BWD)),), ())
        assert edk.embeds(cyclic_triangle(), both)

    def test_cross_pair_orientation_matters(self):
        pal = edk.palette("tourn")
        fwd_only = DirType(pal, (1 << FWD, 1 << FWD), (1 << FWD,))
        # both orders of a 2-0 split must respect the single allowed direction
        t3 = transitive_tournament(2)
        assert edk.embeds(t3, fwd_only)
        rev = DiGraph.from_arcs(2, [(1, 0)])
        assert edk.embeds(rev, fwd_only)  # swap the classes

    def test_reversal_asymmetric_case(self):
        # arcs may only run from the two-way class toward the no-arc class
        pal = edk.palette("full")
        t = DirType(pal, (1 << 1, 1 << 0), (1 << FWD,))
        h = DiGraph.from_color_map(3, {(0, 1): 1, (0, 2): FWD, (1, 2): FWD})
        assert edk.embeds(h, t)
        reverse = DiGraph.from_color_map(3, {(0, 1): 1, (0, 2): BWD, (1, 2): BWD})
        assert not edk.embeds(reverse, t)

    def test_against_exhaustive_dir_maps(self):
        from oracles import brute_embeds_dir

        rng = random.Random(24)
        pal = edk.palette("full")
        for _ in range(80):
            n = rng.randint(2, 4)
            h = DiGraph(n, tuple(rng.randint(0, 3) for _ in range(pair_count(n))))
            k = rng.randint(1, 3)
            vsets = tuple(rng.randint(1, 14) for _ in range(k))
            esets = tuple(rng.randint(1, 15) for _ in range(pair_count(k)))
            t = DirType(pal, vsets, esets)
            assert edk.embeds(h, t) == brute_embeds_dir(h, t)

    def test_dir_type_permutation_invariance(self):
        rng = random.Random(25)
        pal = edk.palette("full")
        for _ in range(30):
            h = DiGraph(3, tuple(rng.randint(0, 3) for _ in range(3)))
            t = DirType(
                pal,
                tuple(rng.randint(1, 14) for _ in range(3)),
                tuple(rng.randint(1, 15) for _ in range(3)),
            )
            perm = [0, 1, 2]
            rng.shuffle(perm)
            assert edk.embeds(h, t) == edk.embeds(h, t.permuted(perm))


class TestAdmissibility:
    def test_single_vertex_examples(self):
        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        assert edk.in_admissible_set(RType(2, (vmask(2),), ()), fam)
        assert not edk.in_admissible_set(RType(2, (vmask(1),), ()), fam)

    def test_tournament_one_arrow_vertex(self):
        fam = cyclic_triangle_family("tourn")
        assert edk.in_admissible_set(DirType(edk.palette("tourn"), (1 << FWD,), ()), fam)

    def test_mono_type_against_bichromatic(self):
        fam = bichromatic_triangles_family()
        mono = RType(3, (vmask(1), vmask(1)), (vmask(1),))
        assert edk.in_admissible_set(mono, fam)
        mixed = RType(3, (vmask(1), vmask(2)), (vmask(1),))
        assert not edk.in_admissible_set(mixed, fam)


class TestEnumeration:
    def test_single_vertex_level_r2(self):
        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        types = list(edk.enumerate_types(fam, 1))
        assert [t.vertex_sets for t in types] == [(vmask(2),)]

    def test_candidate_count_r2(self):
        # two proper nonempty subsets exist before filtering
        from edk.crg import _choices

        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        vertex, edge = _choices(fam)
        assert len(vertex) == 2
        assert len(edge) == 3

    def test_no_duplicates_up_to_permutation(self):
        fam = mono_triangle_family()
        types = list(edk.enumerate_types(fam, 2))
        keys = [canonical_key(t) for t in types]
        assert len(keys) == len(set(keys))
        for t in types:
            assert canonical_key(t) == t.encoding()  # canonical labeling

    def test_matches_direct_enumeration(self):
        # brute force over every labeled type on at most 2 vertices
        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        expected = set()
        for vs in (1, 2):
            t = RType(2, (vs,), ())
            if edk.in_admissible_set(t, fam):
                expected.add(canonical_key(t))
        for v1 in (1, 2):
            for v2 in (1, 2):
                for e in (1, 2, 3):
                    t = RType(2, (v1, v2), (e,))
                    if edk.in_admissible_set(t, fam):
                        expected.add(canonical_key(t))
        got = {canonical_key(t) for t in edk.enumerate_types(fam, 2)}
        assert got == expected

    def test_matches_direct_enumeration_k3(self):
        fam = PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        expected = set()
        for k in (1, 2, 3):
            for vs in itertools.product((1, 2), repeat=k):
                for es in itertools.product((1, 2, 3), repeat=pair_count(k)):
                    t = RType(2, vs, es)
                    if edk.in_admissible_set(t, fam):
                        expected.add(canonical_key(t))
        got = {canonical_key(t) for t in edk.enumerate_types(fam, 3)}
        assert got == expected

    def test_directed_enumeration_matches_direct(self):
        fam = cyclic_triangle_family("tourn")
        pal = edk.palette("tourn")
        expected = set()
        choices = (1 << FWD, 1 << BWD)
        for vs in choices:
            t = DirType(pal, (vs,), ())
            if edk.in_admissible_set(t, fam):
                expected.add(canonical_key(t))
        for v1 in choices:
            for v2 in choices:
                for e in (1 << FWD, 1 << BWD, (1 << FWD) | (1 << BWD)):
                    t = DirType(pal, (v1, v2), (e,))
                    if edk.in_admissible_set(t, fam):
                        expected.add(canonical_key(t))
        got = {canonical_key(t) for t in edk.enumerate_types(fam, 2)}
        assert got == expected

    def test_order_is_by_size_then_encoding(self):
        fam = mono_triangle_family()
        types = list(edk.enumerate_types(fam, 2))
        sizes = [t.k for t in types]
        assert sizes == sorted(sizes)
        for k in (1, 2):
            level = [t.encoding() for t in types if t.k == k]
            assert level == sorted(level)

    def test_resource_guard(self):
        fam = mono_triangle_family()
        with pytest.raises(EnumerationGuardError) as err:
            list(edk.enumerate_types(fam, 3, candidate_ceiling=50))
        assert err.value.candidates > 50

    def test_heredity_of_admissibility(self):
        fam = mono_triangle_family()
        for t in edk.enumerate_types(fam, 2):
            if t.k < 2:
                continue
            for drop in range(t.k):
                rest = [x for x in range(t.k) if x != drop]
                assert edk.in_admissible_set(t.sub_type(rest), fam)


class TestSubType:
    def test_identity(self):
        t = RType(3, (1, 2), (7,))
        assert t.sub_type([0, 1]) == t

    def test_single_vertex_restriction(self):
        t = RType(3, (1, 2), (7,))
        assert t.sub_type([1]) == RType(3, (2,), ())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RType(3, (1,), ()).sub_type([])


@st.composite
def tied_types(draw):
    """A type with k <= 5, multicolor with r = 2 or 3 or directed on any
    palette, whose vertex sets come from a pool of one or two and edge sets
    from a pool of up to three, so that vertex sets tie and tied vertices
    often look alike; and a vertex permutation."""
    if draw(st.booleans()):
        r = draw(st.sampled_from((2, 3)))
        full, make = (1 << r) - 1, lambda v, e: RType(r, v, e)  # noqa: E731
    else:
        pal = PALETTES[draw(st.sampled_from(sorted(PALETTES)))]
        full, make = pal.mask, lambda v, e: DirType(pal, v, e)  # noqa: E731
    choices = [m for m in range(1, full + 1) if not m & ~full]
    k = draw(st.integers(1, 5))
    vertex_pool = draw(st.lists(st.sampled_from(choices[:-1]), min_size=1, max_size=2))
    edge_pool = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3))
    vsets = draw(st.lists(st.sampled_from(vertex_pool), min_size=k, max_size=k))
    esets = draw(st.lists(st.sampled_from(edge_pool), min_size=pair_count(k),
                          max_size=pair_count(k)))
    return make(tuple(vsets), tuple(esets)), draw(st.permutations(range(k)))


class TestCanonicalKey:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(tied_types())
    def test_against_every_permutation(self, case):
        t, perm = case
        key = brute_canonical_key(t)
        assert canonical_key(t) == key
        assert canonicalize(t).encoding() == key
        assert canonical_key(t.permuted(perm)) == key


class TestFirstRankedVertex:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tied_types().filter(lambda case: case[0].k > 1))
    def test_filter_against_the_child_scores(self, case):
        # enumeration keeps a row from the parent's scores and the row alone;
        # it must keep it exactly when the new vertex scores at least as high,
        # in the whole child, as each vertex with its vertex set
        t, _ = case
        k, vs = t.k, t.vertex_sets[-1]
        tied = k - t.vertex_sets.count(vs)  # the first parent vertex with set vs
        assume(tied < k - 1)
        child = t.permuted(sorted(range(k - 1), key=lambda x: t.vertex_sets[x] == vs) + [k - 1])
        power = [k ** m for m in range(16)]
        scores = _scores(child.table, power)
        row = tuple(child.table[x][k - 1] for x in range(k - 1))
        parent = child.sub_type(range(k - 1))
        kept = _first_ranked([(row, child.table[k - 1][:k - 1])],
                             _scores(parent.table, power)[tied:], power)
        assert bool(kept) == (scores[-1] >= max(scores[tied:-1]))
        seen = [sorted(m for y, m in enumerate(child.table[x]) if y != x) for x in range(k)]
        for x, y in itertools.combinations(range(k), 2):  # a score is that multiset
            assert (scores[x] == scores[y]) == (seen[x] == seen[y])


class TestFactOne:
    def test_graphs_built_on_admissible_types_are_members(self):
        # color every pair by something its image allows; membership follows
        rng = random.Random(30)
        fam = mono_triangle_family()
        types = [t for t in edk.enumerate_types(fam, 2) if t.k == 2]
        from edk.crg import mask_colors

        for t in types[:10]:
            for trial in range(5):
                parts = tuple(rng.randrange(t.k) for _ in range(6))
                colors = []
                for i, j in itertools.combinations(range(6), 2):
                    allowed = mask_colors(t.phi(parts[i], parts[j]))
                    colors.append(rng.choice(allowed))
                g = ColoredGraph(6, 3, tuple(colors))
                assert edk.is_member(g, fam)
