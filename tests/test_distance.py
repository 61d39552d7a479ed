"""Penalty matrices, the exact quadratic program, and the distance bounds."""

import random
from fractions import Fraction

import pytest

import edk
from edk import DensityVector, DirDensity, DirType, RType
from edk.catalog import (
    bichromatic_triangles_family,
    cyclic_triangle_family,
    k5_family,
    mono_triangle_family,
    qr7_family,
    rainbow_triangle_family,
    transitive_triangle_family,
    triangle_112_family,
    two_mono_triangles_family,
    two_triangle_family,
)
from edk.crg import color_set_mask, dir_set_mask
from edk.errors import AsymmetricFamilyError, TrivialPropertyError
from edk.graphs import BWD, FWD, pair_count
from oracles import grid_quadratic_min

F = Fraction
HALF = F(1, 2)


def random_symmetric_matrix(rng, k, denom=60):
    m = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = F(rng.randint(0, denom), denom)
    return tuple(tuple(row) for row in m)


class TestMMatrix:
    def test_single_vertex(self):
        t = RType(2, (color_set_mask([1]),), ())
        p = DensityVector.of(F(1, 3), F(2, 3))
        assert edk.m_matrix(t, p) == ((F(2, 3),),)

    def test_two_vertex_mono_family_type(self):
        # vertices allow only color 2, the edge allows both
        t = RType(2, (2, 2), (3,))
        p = DensityVector.of(F(1, 4), F(3, 4))
        m = edk.m_matrix(t, p)
        assert m == ((F(1, 4), F(0)), (F(0), F(1, 4)))

    def test_zero_entry_iff_full_set(self):
        rng = random.Random(41)
        p = DensityVector.of(F(1, 3), F(1, 3), F(1, 3))
        for _ in range(20):
            vs = rng.randint(1, 6)
            e = rng.randint(1, 7)
            t = RType(3, (vs, vs), (e,))
            m = edk.m_matrix(t, p)
            assert (m[0][1] == 0) == (e == 7)

    def test_directed_tournament_vertex(self):
        t = DirType(edk.palette("tourn"), (1 << FWD,), ())
        d = DirDensity.of(0, HALF, "tourn")
        assert edk.m_matrix(t, d) == ((HALF,),)

    def test_both_arrows_vertex_is_zero(self):
        # under tourn the both-arrow set would be the whole palette, which a
        # vertex may not carry; the full palette shows the zero diagonal
        t = DirType(edk.palette("full"), (dir_set_mask((FWD, BWD)),), ())
        d = DirDensity.of(0, HALF, "full")
        assert edk.m_matrix(t, d) == ((F(0),),)

    def test_arity_mismatch_is_a_value_error(self):
        with pytest.raises(ValueError):
            edk.m_matrix(DirType(edk.palette("tourn"), (1 << FWD,), ()), DensityVector.uniform(2))
        with pytest.raises(ValueError):
            edk.m_matrix(RType(2, (1,), ()), DirDensity.of(0, HALF, "tourn"))
        with pytest.raises(ValueError):
            edk.m_matrix(DirType(edk.palette("full"), (1 << FWD,), ()),
                         DirDensity.of(0, HALF, "tourn"))

    def test_undir_collapses_to_two_colors(self):
        # biedge as color 1, nonedge as color 2
        rng = random.Random(42)
        pal = edk.palette("undir")
        for _ in range(20):
            vmask_dir = rng.choice((1, 2))  # {nonedge} or {biedge}
            emask_dir = rng.randint(1, 3)
            td = DirType(pal, (vmask_dir, vmask_dir), (emask_dir,))
            to_mc = {1: 2, 2: 1, 3: 3}  # nonedge bit -> color-2 bit, biedge -> color-1
            tm = RType(2, (to_mc[vmask_dir], to_mc[vmask_dir]), (to_mc[emask_dir],))
            p = F(rng.randint(0, 8), 8)
            d = DirDensity.of(p, 0, "undir")
            pv = DensityVector.of(p, 1 - p)
            assert edk.m_matrix(td, d) == edk.m_matrix(tm, pv)


class TestFG:
    def test_f_single_entry(self):
        assert edk.f_value(((F(3, 4),),)) == F(3, 4)

    def test_f_two_by_two(self):
        p1 = F(2, 5)
        m = ((p1, F(0)), (F(0), p1))
        assert edk.f_value(m) == p1 / 2

    def test_f_tournament_clique_structure(self):
        # k vertices with one arrow each, every edge both arrows
        pal = edk.palette("tourn")
        d = DirDensity.of(0, HALF, "tourn")
        for k in (2, 3):
            vsets = (1 << FWD,) * k
            esets = (dir_set_mask((FWD, BWD)),) * pair_count(k)
            m = edk.m_matrix(DirType(pal, vsets, esets), d)
            assert edk.f_value(m) == F(1, 2 * k)

    def test_g_identity(self):
        val, w = edk.g_value(((F(1), F(0)), (F(0), F(1))))
        assert val == HALF
        assert w == (HALF, HALF)

    def test_g_matches_grid_search(self):
        rng = random.Random(43)
        for _ in range(25):
            m = random_symmetric_matrix(rng, rng.randint(1, 4))
            val, _ = edk.g_value(m)
            assert abs(float(val) - grid_quadratic_min(m)) < 1e-6

    def test_g_at_most_f(self):
        rng = random.Random(44)
        for _ in range(40):
            m = random_symmetric_matrix(rng, rng.randint(1, 5))
            assert edk.g_value(m)[0] <= edk.f_value(m)

    def test_stationarity_exact(self):
        rng = random.Random(45)
        for _ in range(40):
            k = rng.randint(1, 5)
            m = random_symmetric_matrix(rng, k)
            val, w = edk.g_value(m)
            for i in range(k):
                if w[i] > 0:
                    assert sum(m[i][j] * w[j] for j in range(k)) == val
            assert sum(w) == 1 and all(x >= 0 for x in w)


class TestDistUpper:
    def test_triangle_point_values(self):
        assert edk.dist_upper(mono_triangle_family(), DensityVector.of(1, 0, 0), 2).value == HALF
        assert edk.dist_upper(
            triangle_112_family(), DensityVector.of(HALF, HALF, 0), 2
        ).value == HALF
        assert edk.dist_upper(
            two_mono_triangles_family(), DensityVector.of(HALF, HALF, 0), 2
        ).value == HALF

    def test_rainbow_point(self):
        bound = edk.dist_upper(
            rainbow_triangle_family(), DensityVector.of(HALF, F(1, 4), F(1, 4)), 2
        )
        assert bound.value == F(1, 4)

    def test_certificate_recomputes(self):
        bound = edk.dist_upper(mono_triangle_family(), DensityVector.of(1, 0, 0), 2)
        assert bound.certificate.recompute() == bound.value

    def test_monotone_in_kmax(self):
        fam = two_triangle_family()
        p = DensityVector.uniform(3)
        values = [edk.dist_upper(fam, p, k).value for k in (1, 2, 3)]
        assert values[0] >= values[1] >= values[2]

    def test_directed_point(self):
        fam = cyclic_triangle_family("orien")
        d = DirDensity.of(0, F(1, 3), "orien")
        assert edk.dist_upper(fam, d, 1).value == F(1, 3)

    def test_density_arity_checked(self):
        with pytest.raises(ValueError):
            edk.dist_upper(mono_triangle_family(), DensityVector.of(1, 0), 1)


class TestLowerTuran:
    def test_two_triangle_family(self):
        bound = edk.dist_lower_turan(two_triangle_family())
        assert bound.value == F(1, 3)  # 1/(r (chi_strong - 1)) with chi_strong 2

    def test_tournament(self):
        assert edk.dist_lower_turan(cyclic_triangle_family("tourn")).value == HALF

    def test_two_colors(self):
        assert edk.dist_lower_turan(k5_family()).value == F(1, 4)

    def test_palette_factors(self):
        fam = cyclic_triangle_family("full")
        chi = edk.chromatic_number(fam, "strong")
        assert edk.dist_lower_turan(fam).value == F(1, 4 * (chi - 1))
        fam = cyclic_triangle_family("orien")
        chi = edk.chromatic_number(fam, "strong")
        assert edk.dist_lower_turan(fam).value == F(1, 3 * (chi - 1))

    def test_trivial_rejected(self):
        with pytest.raises(TrivialPropertyError):
            edk.dist_lower_turan(transitive_triangle_family("tourn"))


class TestMaxUpper:
    def test_bichromatic(self):
        bound, dens = edk.dist_max_upper(bichromatic_triangles_family(), 2)
        assert bound.value == F(2, 3)
        assert dens == DensityVector.uniform(3)

    def test_rainbow(self):
        bound, dens = edk.dist_max_upper(rainbow_triangle_family(), 1)
        assert bound.value == F(1, 3)
        assert dens == DensityVector.uniform(3)

    def test_mono_triangle(self):
        bound, dens = edk.dist_max_upper(mono_triangle_family(), 2)
        assert bound.value == HALF
        assert dens == DensityVector.of(1, 0, 0)

    def test_tie_break_is_lexicographic(self):
        bound, dens = edk.dist_max_upper(two_mono_triangles_family(), 2)
        assert bound.value == HALF
        assert dens == DensityVector.of(0, 1, 0)  # the whole p3=0 edge is optimal

    def test_tournament_singleton_domain(self):
        bound, dens = edk.dist_max_upper(qr7_family(), 2)
        assert (dens.p, dens.q) == (0, HALF)
        assert bound.value == F(1, 4)

    def test_value_equals_min_f_at_argmax(self):
        fam = triangle_112_family()
        bound, dens = edk.dist_max_upper(fam, 2)
        assert bound.value == HALF
        assert dens == DensityVector.of(HALF, HALF, 0)
        from edk.distance import dist_upper_f

        assert dist_upper_f(fam, dens, 2).value == bound.value
        assert bound.certificate.recompute() == bound.value


class TestSymmetricBound:
    def test_k5(self):
        assert edk.symmetric_bound(k5_family()) == F(1, 4)

    def test_rainbow(self):
        assert edk.symmetric_bound(rainbow_triangle_family()) == F(1, 3)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricFamilyError):
            edk.symmetric_bound(triangle_112_family())


class TestGrid:
    def test_bichromatic_grid(self):
        rows = edk.distfn_grid(bichromatic_triangles_family(), 1, F(1, 6))
        assert rows
        for dens, value in rows:
            assert value == 1 - max(dens.entries)

    def test_rainbow_degenerate_corner(self):
        rows = dict(edk.distfn_grid(rainbow_triangle_family(), 1, F(1, 2)))
        corner = DensityVector.of(1, 0, 0)
        assert rows[corner] == 0
        # single-color graphs already avoid the rainbow triangle
        from edk.oracle import exact_dist
        from edk.graphs import ColoredGraph

        edits, _ = exact_dist(ColoredGraph.complete(6, 3, 1), rainbow_triangle_family())
        assert edits == 0

    def test_bad_step(self):
        with pytest.raises(ValueError):
            edk.distfn_grid(rainbow_triangle_family(), 1, F(2, 5))

    def test_directed_grid_domains(self):
        rows = edk.distfn_grid(cyclic_triangle_family("orien"), 1, F(1, 4))
        assert [(d.p, d.q) for d, _ in rows] == [(0, 0), (0, F(1, 4)), (0, HALF)]


class TestAffineForms:
    def test_forms_evaluate_to_f(self):
        # the linear program's affine descriptions must reproduce f exactly
        from edk.distance import _affine_forms, _shapes, m_matrix

        rng = random.Random(77)
        fam = mono_triangle_family()
        for _ in range(40):
            k = rng.randint(1, 3)
            t = RType(
                3,
                tuple(rng.randint(1, 6) for _ in range(k)),
                tuple(rng.randint(1, 7) for _ in range(pair_count(k))),
            )
            ((c0, cf),) = _affine_forms(fam, _shapes(fam, [t]))
            parts = [rng.randint(0, 6) for _ in range(3)]
            if sum(parts) == 0:
                continue
            p = DensityVector(tuple(F(x, sum(parts)) for x in parts))
            val = c0 + sum(a * b for a, b in zip(cf, p.entries[:2]))
            assert val == edk.f_value(m_matrix(t, p))

    def test_directed_forms_evaluate_to_f(self):
        from edk.catalog import transitive_tournament
        from edk.distance import _affine_forms, _shapes, m_matrix
        from edk.graphs import DiGraph

        rng = random.Random(78)
        for kind, dens_list in (
            ("full", [DirDensity.of(F(1, 4), F(1, 4), "full"), DirDensity.of(0, F(1, 2), "full")]),
            ("compl", [DirDensity.of(F(1, 2), F(1, 4), "compl")]),
            ("orien", [DirDensity.of(0, F(3, 8), "orien")]),
            ("undir", [DirDensity.of(F(5, 8), 0, "undir")]),
            ("tourn", [DirDensity.of(0, HALF, "tourn")]),
        ):
            pal = edk.palette(kind)
            full = pal.mask
            vchoices = [m for m in range(1, full) if not m & ~full]
            echoices = [m for m in range(1, full + 1) if not m & ~full]
            forbidden = transitive_tournament(2) if kind != "undir" else DiGraph(2, (1,))
            fam = edk.PropertyFamily.directed(pal, [forbidden])
            for _ in range(20):
                k = rng.randint(1, 3)
                t = DirType(
                    pal,
                    tuple(rng.choice(vchoices) for _ in range(k)),
                    tuple(rng.choice(echoices) for _ in range(pair_count(k))),
                )
                ((c0, cf),) = _affine_forms(fam, _shapes(fam, [t]))
                for dens in dens_list:
                    if kind == "full":
                        y = (dens.p, dens.q)
                    elif kind in ("compl", "orien"):
                        y = (dens.q,)
                    elif kind == "undir":
                        y = (dens.p,)
                    else:
                        y = ()
                    val = c0 + sum(a * b for a, b in zip(cf, y))
                    assert val == edk.f_value(m_matrix(t, dens))


class TestSandwich:
    def test_fixed_families(self):
        for fam in (two_triangle_family(), k5_family(), rainbow_triangle_family()):
            chi_w = edk.chromatic_number(fam, "weak")
            lower = edk.dist_lower_turan(fam).value
            upper, _ = edk.dist_max_upper(fam, chi_w - 1)
            assert lower <= upper.value <= F(1, chi_w - 1)


class TestConcavity:
    def test_mixtures(self):
        fam = rainbow_triangle_family()
        types = list(edk.enumerate_types(fam, 1))
        rng = random.Random(46)
        for _ in range(20):
            a = [rng.randint(0, 12) for _ in range(3)]
            b = [rng.randint(0, 12) for _ in range(3)]
            if sum(a) == 0 or sum(b) == 0:
                continue
            pa = DensityVector(tuple(F(x, sum(a)) for x in a))
            pb = DensityVector(tuple(F(x, sum(b)) for x in b))
            va = edk.dist_upper(fam, pa, 1, types).value
            vb = edk.dist_upper(fam, pb, 1, types).value
            for t in (F(1, 4), HALF, F(3, 4)):
                mix = DensityVector(tuple(t * x + (1 - t) * y for x, y in zip(pa, pb)))
                vmix = edk.dist_upper(fam, mix, 1, types).value
                assert vmix >= t * va + (1 - t) * vb
