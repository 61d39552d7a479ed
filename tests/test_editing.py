"""Randomized editing algorithms and the expected-changes formula."""

import random
import statistics
from fractions import Fraction

import pytest

import edk
from edk import ColoredGraph, DensityVector, DiGraph, DirDensity, DirType, RType
from edk.catalog import (
    cyclic_triangle_family,
    mono_triangle_family,
    transitive_tournament,
    two_triangle_family,
)
from edk.editing import (
    balanced_partition,
    edit_with_partition,
    sample_partition,
    spectrum_tuple_type,
)
from edk.graphs import FWD, pair_count
from edk.oracle import sample_digraph, sample_rgraph

F = Fraction
TOURN_POINT = DirDensity.of(0, F(1, 2), "tourn")
ONE_ARROW = DirType(edk.palette("tourn"), (1 << FWD,), ())


class TestEditByType:
    def test_no_changes_when_colors_allowed(self):
        g = ColoredGraph.complete(4, 3, 2)
        k = RType(3, (2,), ())  # single vertex allowing color 2
        edited, changes = edk.edit_by_type(g, k, (F(1),), seed=0)
        assert changes == 0 and edited == g

    def test_recolors_exactly_within_part_pairs(self):
        g = ColoredGraph.complete(4, 2, 1)
        k = RType(2, (2, 2), (3,))
        seed = 5
        edited, changes = edk.edit_by_type(g, k, (F(1, 2), F(1, 2)), seed=seed)
        parts = sample_partition(4, (F(1, 2), F(1, 2)), random.Random(seed))
        within = sum(1 for i in range(4) for j in range(i + 1, 4) if parts[i] == parts[j])
        assert changes == within
        assert edk.hamming(g, edited) == changes

    def test_membership_on_random_graphs(self):
        fam = mono_triangle_family()
        k = RType(3, (6, 6), (7,))
        for seed in range(60):
            g = sample_rgraph(12, DensityVector.uniform(3), seed)
            edited, _ = edk.edit_by_type(g, k, (F(1, 2), F(1, 2)), seed=seed)
            assert edk.is_member(edited, fam)

    def test_deterministic_per_seed(self):
        g = sample_rgraph(10, DensityVector.uniform(3), 3)
        k = RType(3, (6, 6), (7,))
        a = edk.edit_by_type(g, k, (F(1, 3), F(2, 3)), seed=99)
        b = edk.edit_by_type(g, k, (F(1, 3), F(2, 3)), seed=99)
        assert a == b

    def test_weight_validation(self):
        g = ColoredGraph.complete(3, 2, 1)
        k = RType(2, (2,), ())
        with pytest.raises(ValueError):
            edk.edit_by_type(g, k, (F(1, 2), F(1, 2)), seed=0)


class TestEditByDirtype:
    def test_tournament_becomes_acyclic(self):
        for seed in range(30):
            g = sample_digraph(9, TOURN_POINT, seed)
            edited, _ = edk.edit_by_dirtype(g, ONE_ARROW, (F(1),), seed=seed)
            assert edk.is_acyclic(edited)
            assert edk.is_member(edited, cyclic_triangle_family("tourn"))

    def test_transitive_input_has_zero_change_seed(self):
        g = transitive_tournament(4)
        changes = {}
        for seed in range(60):
            _, ch = edk.edit_by_dirtype(g, ONE_ARROW, (F(1),), seed=seed)
            changes[seed] = ch
        assert 0 in changes.values()  # some order agrees with the input

    def test_mean_changes_near_half(self):
        n = 10
        vals = []
        for seed in range(200):
            g = sample_digraph(n, TOURN_POINT, 1000 + seed)
            _, ch = edk.edit_by_dirtype(g, ONE_ARROW, (F(1),), seed=seed)
            vals.append(ch)
        expected = float(edk.expected_changes(ONE_ARROW, (F(1),), TOURN_POINT, n))
        mean = statistics.mean(vals)
        se = statistics.pstdev(vals) / len(vals) ** 0.5
        assert abs(mean - expected) <= 3 * se

    def test_undir_palette_matches_two_colors(self):
        # biedge plays color 1, nonedge plays color 2; same seeds, same edits
        pal = edk.palette("undir")
        to_mc = {1: 2, 2: 1, 3: 3}
        rng = random.Random(50)
        for _ in range(20):
            n = 8
            codes = tuple(rng.choice((0, 1)) for _ in range(pair_count(n)))
            dg = DiGraph(n, codes)
            cg = ColoredGraph(n, 2, tuple(1 if c == 1 else 2 for c in codes))
            vs = rng.choice((1, 2))
            es = rng.randint(1, 3)
            td = DirType(pal, (vs, vs), (es,))
            tm = RType(2, (to_mc[vs], to_mc[vs]), (to_mc[es],))
            seed = rng.randint(0, 10**6)
            ed, chd = edk.edit_by_dirtype(dg, td, (F(1, 2), F(1, 2)), seed=seed)
            em, chm = edk.edit_by_type(cg, tm, (F(1, 2), F(1, 2)), seed=seed)
            assert chd == chm
            assert tuple(1 if c == 1 else 2 for c in ed.colors) == em.colors


class TestSimpleEdit:
    def test_singleton_parts_change_nothing(self):
        fam = two_triangle_family()
        g = sample_rgraph(2, DensityVector.uniform(3), 7)
        edited, changes = edk.simple_edit(g, fam, (0, 1, 0))
        assert changes in (0, 1)  # one part of one pair
        g1 = sample_rgraph(1, DensityVector.uniform(3), 7)
        fam2 = mono_triangle_family()
        _, ch = edk.simple_edit(g1, fam2, (2, 0, 0))
        assert ch == 0

    def test_mono_k4_counts(self):
        fam = edk.PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        g = ColoredGraph.complete(4, 2, 1)
        _, two_parts = edk.simple_edit(g, fam, (2, 0))
        assert two_parts == 2
        _, one_part = edk.simple_edit(g, fam, (1, 0))
        assert one_part == 6

    def test_result_is_member(self):
        fam = two_triangle_family()
        for seed in range(20):
            g = sample_rgraph(11, DensityVector.uniform(3), seed)
            edited, _ = edk.simple_edit(g, fam, (0, 1, 0))
            assert edk.is_member(edited, fam)

    def test_directed_simple_edit(self):
        fam = cyclic_triangle_family("tourn")
        for seed in range(10):
            g = sample_digraph(10, TOURN_POINT, seed)
            edited, _ = edk.simple_edit(g, fam, (0, 1, 0))
            assert edk.is_member(edited, fam)
            assert edk.is_acyclic(edited)

    def test_graph_outside_the_palette_is_refused(self):
        fam = cyclic_triangle_family("tourn")
        with pytest.raises(ValueError, match="outside palette tourn"):
            edk.simple_edit(DiGraph(3, (edk.BIEDGE,) * 3), fam, (0, 1, 0))

    def test_normalized_cost_near_one_over_parts(self):
        fam = edk.PropertyFamily.multicolor(2, [ColoredGraph.complete(3, 2, 1)])
        g = ColoredGraph.complete(60, 2, 1)
        _, changes = edk.simple_edit(g, fam, (2, 0))
        assert changes / pair_count(60) <= 1 / 2 + 0.05

    def test_rejects_good_tuple(self):
        fam = mono_triangle_family()
        with pytest.raises(ValueError):
            edk.simple_edit(ColoredGraph.complete(4, 3, 1), fam, (0, 1, 0))

    def test_equals_type_edit_through_shared_partition(self):
        fam = two_triangle_family()
        k = spectrum_tuple_type(fam, (0, 1, 0))
        for seed in range(10):
            g = sample_rgraph(9, DensityVector.uniform(3), seed)
            direct = edk.simple_edit(g, fam, (0, 1, 0))
            via_type = edit_with_partition(g, k, balanced_partition(9, 1))
            assert direct == via_type


class TestExpectedChanges:
    def test_uniform_weights_give_f(self):
        k = RType(2, (2, 2), (3,))
        p = DensityVector.of(F(1, 4), F(3, 4))
        m = edk.m_matrix(k, p)
        w = (F(1, 2), F(1, 2))
        assert edk.expected_changes(k, w, p, 10) == edk.f_value(m) * 45

    def test_vertex_weight_gives_diagonal(self):
        k = RType(2, (2, 1), (3,))
        p = DensityVector.of(F(1, 3), F(2, 3))
        m = edk.m_matrix(k, p)
        assert edk.expected_changes(k, (F(1), F(0)), p, 6) == m[0][0] * 15

    def test_monte_carlo_three_sigma(self):
        k = RType(3, (6, 6), (7,))
        w = (F(1, 3), F(2, 3))
        n = 20
        g = sample_rgraph(n, DensityVector.uniform(3), 123)
        p = edk.color_density(g)
        expected = float(edk.expected_changes(k, w, p, n))
        vals = [edk.edit_by_type(g, k, w, seed=seed)[1] for seed in range(400)]
        mean = statistics.mean(vals)
        se = statistics.pstdev(vals) / len(vals) ** 0.5
        assert abs(mean - expected) <= 3 * se
