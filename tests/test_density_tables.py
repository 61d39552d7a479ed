"""The exact bounds on integer density tables: dist_upper, dist_upper_f and
the affine forms of f against the Fraction-matrix references in
tests/oracles.py, dist_upper's skipped types against solving every type, a
digest of the bounds recorded before the tables, and a digest of the
density domain of every arity and palette."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edk
from edk import catalog
from edk.crg import _MIRROR
from edk.distance import _affine_forms, _scaled_entries, _shapes, dist_upper_f
from edk.graphs import BIEDGE, FWD, NONEDGE, PALETTES, DiGraph
from oracles import (
    brute_affine_forms,
    brute_dist_upper,
    brute_dist_upper_f,
    brute_full_support_upper,
)
from test_exact_bounds import CEILING, interior_points, small_families
from test_type_model import catalog_families

# Masses with mixed, large denominators; zero is drawn often so that
# boundary densities, where some colour or pair state has no mass, occur.
RAW_MASS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(1, 10 ** 6),
              st.sampled_from((1, 7, 97, 1000, 1009, 65536, 999983))),
)


@st.composite
def densities(draw, family):
    """A density of the family's arity: drawn masses, normalised to sum 1."""
    if not family.is_directed:
        raw = draw(st.lists(RAW_MASS, min_size=family.r, max_size=family.r))
        if not any(raw):
            raw[draw(st.integers(0, family.r - 1))] = Fraction(1)
        return edk.DensityVector(tuple(x / sum(raw) for x in raw))
    codes = family.palette.codes
    if family.palette.kind == "tourn":
        return edk.DirDensity(Fraction(0), Fraction(1, 2), family.palette)
    # masses of no arc, both arcs and the two single arcs together
    raw = [draw(RAW_MASS) if code in codes else Fraction(0) for code in (NONEDGE, BIEDGE, FWD)]
    if not any(raw):
        raw[[NONEDGE, BIEDGE, FWD].index(min(codes))] = Fraction(1)
    total = sum(raw)
    return edk.DirDensity(raw[1] / total, raw[2] / (2 * total), family.palette)


def _types(family, kmax):
    """The admissible types at kmax, or at kmax 2 when the guard refuses."""
    try:
        return list(edk.enumerate_types(family, kmax, candidate_ceiling=CEILING))
    except edk.EnumerationGuardError:
        return list(edk.enumerate_types(family, 2))


class TestAgainstFractionMatrices:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_families_and_densities(self, data):
        family, kmax = data.draw(small_families())
        types = _types(family, kmax)
        if not types:
            return
        assert _affine_forms(family, _shapes(family, types)) == brute_affine_forms(family, types)
        for _ in range(3):
            dens = data.draw(densities(family))
            bound = edk.dist_upper(family, dens, kmax, types)
            cert = bound.certificate
            assert (bound.value, cert.crg_type, cert.weights) == brute_dist_upper(dens, types)
            edk.check_certificate(family, bound)
            f_bound = dist_upper_f(family, dens, kmax, types)
            assert (f_bound.value, f_bound.certificate.crg_type) == brute_dist_upper_f(dens, types)

    def test_catalog_families_at_boundary_densities(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [
            (catalog.mono_triangle_family(), 3,
             [(1, 0, 0), (half, half, 0), (0, third, 2 * third)]),
            (catalog.rainbow_triangle_family(), 2,
             [(0, 0, 1), (Fraction(1, 999983), 0, Fraction(999982, 999983))]),
            (catalog.cyclic_triangle_family("full"), 2,
             [(0, 0), (1, 0), (0, half), (Fraction(1, 97), Fraction(3, 1009))]),
            (catalog.both_triangles_family("orien"), 3,
             [(0, 0), (0, half), (0, Fraction(1, 65536))]),
            (catalog.cyclic_triangle_family("tourn"), 3, [(0, half)]),
            (catalog.transitive_triangle_family("compl"), 3,
             [(1, 0), (0, half), (Fraction(2, 7), Fraction(5, 14))]),
        ]
        for family, kmax, points in cases:
            types = list(edk.enumerate_types(family, kmax))
            for point in points:
                if family.is_directed:
                    dens = edk.DirDensity(Fraction(point[0]), Fraction(point[1]), family.palette)
                else:
                    dens = edk.DensityVector(tuple(map(Fraction, point)))
                bound = edk.dist_upper(family, dens, kmax, types)
                cert = bound.certificate
                assert (bound.value, cert.crg_type, cert.weights) == brute_dist_upper(dens, types)
                f_bound = dist_upper_f(family, dens, kmax, types)
                assert ((f_bound.value, f_bound.certificate.crg_type)
                        == brute_dist_upper_f(dens, types))
            assert (_affine_forms(family, _shapes(family, types))
                    == brute_affine_forms(family, types))


def _least_g(dens, types):
    """The least g over ``types``: ``g_value`` of each type's Fraction
    penalty matrix, skipping a type whose least entry, a lower bound on its
    g, cannot beat the least so far."""
    least = None
    for t in types:
        m = edk.m_matrix(t, dens)
        if least is None or min(map(min, m)) < least:
            value = edk.g_value(m)[0]
            least = value if least is None else min(least, value)
    return least


class TestFullSupport:
    """dist_upper solves each type on its full support only, which is exact
    on a type list closed under sub-types (the p-core reduction)."""

    # That the result equals brute_dist_upper on these lists is
    # TestAgainstFractionMatrices.test_random_families_and_densities.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_the_winner_is_a_p_core_type(self, data):
        family, kmax = data.draw(small_families())
        types = _types(family, kmax)
        if not types:
            return
        for _ in range(3):
            dens = data.draw(densities(family))
            bound = edk.dist_upper(family, dens, kmax, types)
            cert = bound.certificate
            assert all(w > 0 for w in cert.weights)
            first = types.index(cert.crg_type)
            if first:  # no earlier type reaches the value
                assert brute_dist_upper(dens, types[:first])[0] > bound.value

    def test_a_list_not_closed_under_sub_types_still_gives_a_certified_bound(self):
        family = catalog.mono_triangle_family()
        types = list(edk.enumerate_types(family, 3))
        triples = [t for t in types if t.k == 3]
        points = interior_points(family, 12)[:30]
        assert len(points) == 30
        for i, dens in enumerate(points):
            bound = edk.dist_upper(family, dens, 3, triples)
            edk.check_certificate(family, bound)
            assert bound.value >= _least_g(dens, triples)
            if i % 15 == 0:  # the bounds golden below covers every point
                bound = edk.dist_upper(family, dens, 3, types)
                cert = bound.certificate
                assert (bound.value, cert.crg_type, cert.weights) == brute_dist_upper(dens, types)

    def test_a_list_without_a_full_support_solution_is_refused(self):
        # a constant penalty matrix: the system is singular, and the minimum
        # is on the one-vertex sub-type the list leaves out
        family = catalog.mono_triangle_family()
        dens = edk.DensityVector.of(Fraction(1, 12), Fraction(1, 12), Fraction(5, 6))
        with pytest.raises(ValueError, match="not closed under sub-types"):
            edk.dist_upper(family, dens, 2, [edk.RType(3, (2, 2), (2,))])


class _Unbuilt:
    """A type whose mask table must not be read: its vertex and edge sets
    alone rule it out."""

    def __init__(self, k_type):
        self.k, self.vertex_sets, self.edge_sets = k_type.k, k_type.vertex_sets, k_type.edge_sets

    @property
    def table(self):
        raise AssertionError("the table of a type whose every entry reaches the best was read")


class TestRuledOutUnsolved:
    """dist_upper rules a type out by lower bounds on its stationary value
    before building or solving its matrix; the result is that of solving
    every type's full support, on every list."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_any_list_against_solving_every_type(self, data):
        family, kmax = data.draw(small_families())
        types = _types(family, kmax)
        if not types:
            return
        for _ in range(3):
            dens = data.draw(densities(family))
            # the closed list, then a sublist in another order, closed or not
            picks = data.draw(st.lists(st.integers(0, len(types) - 1), min_size=1,
                                       max_size=min(len(types), 40), unique=True))
            for given_types in (types, [types[i] for i in picks]):
                expected = brute_full_support_upper(dens, given_types)
                if expected is None:
                    with pytest.raises(ValueError, match="not closed under sub-types"):
                        edk.dist_upper(family, dens, kmax, given_types)
                    continue
                bound = edk.dist_upper(family, dens, kmax, given_types)
                cert = bound.certificate
                assert (bound.value, cert.crg_type, cert.weights) == expected
                edk.check_certificate(family, bound)

    def test_a_type_with_every_entry_at_least_the_best_is_not_built(self):
        family = catalog.mono_triangle_family()
        dens = edk.DensityVector.uniform(3)
        single = edk.RType(3, (1,), ())  # g = 2/3
        high = edk.RType(3, (1, 2), (1,))  # entries 2/3
        bound = edk.dist_upper(family, dens, 2, [single, _Unbuilt(high)])
        assert bound.value == Fraction(2, 3)

    def test_a_type_below_the_best_only_on_its_edges_is_solved(self):
        family = catalog.mono_triangle_family()
        dens = edk.DensityVector.uniform(3)
        single = edk.RType(3, (1,), ())  # g = 2/3
        pair = edk.RType(3, (1, 1), (7,))  # entries 2/3 on the diagonal, 0 off it
        bound = edk.dist_upper(family, dens, 2, [single, pair])
        assert (bound.value, bound.certificate.crg_type) == (Fraction(1, 3), pair)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_a_mask_seen_from_the_other_end_has_the_same_entry(self, data):
        kind = data.draw(st.sampled_from(sorted(PALETTES)))
        code = PALETTES[kind].sorted_codes()[0]
        family = edk.PropertyFamily.directed(kind, [DiGraph(3, (code,) * 3)])
        dens = data.draw(densities(family))
        _, entries = _scaled_entries(dens.masses)
        assert [entries[m] for m in _MIRROR] == list(entries)


# The six families of the benchmark's bounds workload, with its kmax.
BOUNDS_FAMILIES = {
    "qr7": (catalog.qr7_family, 3),
    "cyclic-full": (lambda: catalog.cyclic_triangle_family("full"), 2),
    "rainbow": (catalog.rainbow_triangle_family, 3),
    "mono": (catalog.mono_triangle_family, 3),
    "both-orien": (lambda: catalog.both_triangles_family("orien"), 4),
    "two-mono": (catalog.two_mono_triangles_family, 4),
}


def _point(dens):
    return dens.entries if isinstance(dens, edk.DensityVector) else (dens.p, dens.q)


def bounds_results():
    """Per bounds family: dist_upper (value, type, weights) and dist_upper_f
    (value, type) at every interior density with denominator 12, then
    dist_max_upper, the affine forms of f, and distfn_grid at steps 1/4 and
    1/6."""
    out = []
    for name, (make, kmax) in BOUNDS_FAMILIES.items():
        family = make()
        types = list(edk.enumerate_types(family, kmax))
        for dens in interior_points(family, 12):
            bound = edk.dist_upper(family, dens, kmax, types)
            cert = bound.certificate
            out.append(("dist_upper", name, _point(dens), bound.value,
                        cert.crg_type.encoding(), cert.weights))
            bound = dist_upper_f(family, dens, kmax, types)
            out.append(("dist_upper_f", name, _point(dens), bound.value,
                        bound.certificate.crg_type.encoding()))
        bound, argmax = edk.dist_max_upper(family, kmax, types)
        out.append(("dist_max_upper", name, bound.value, _point(argmax),
                    bound.certificate.crg_type.encoding()))
        out.append(("affine_forms", name, _affine_forms(family, _shapes(family, types))))
        for step in (Fraction(1, 4), Fraction(1, 6)):
            rows = edk.distfn_grid(family, kmax, step, types)
            out.append(("distfn_grid", name, step, [(_point(d), v) for d, v in rows]))
    return out


# Recorded with the Fraction penalty matrix per type: the count and the
# sha256 of the repr of ``bounds_results()``.
BOUNDS_GOLDEN = (416, "f673413d91388f58705b1df8a0484f0da701ef7837aa233f7b1cba33d8c49cd2")


def test_bounds_golden():
    results = bounds_results()
    assert (len(results), hashlib.sha256(repr(results).encode()).hexdigest()) == BOUNDS_GOLDEN


def domain_results():
    """Per family at kmax 2: the affine forms of f, dist_max_upper (value,
    argmax, certificate type) and distfn_grid at steps 1/4, 1/6 and 1/7.
    The families are the 20 catalog families, the monochromatic triangle at
    r=2 and r=4, the empty triangle under the undir palette, and a compl
    family whose maximum is reached on a segment, so that the tie-break
    decides the argmax; every palette and three multicolour arities are
    read.  A family without types is recorded as such."""
    families = catalog_families()
    families["mono-r2"] = catalog.mono_triangle_family(2)
    families["mono-r4"] = catalog.mono_triangle_family(4)
    families["empty-undir"] = edk.PropertyFamily.directed("undir", [DiGraph(3, (NONEDGE,) * 3)])
    # both-way triangle, and a both-way pair whose ends each send an arc to a third vertex
    families["compl-tie"] = edk.PropertyFamily.directed(
        "compl", [DiGraph(3, (BIEDGE,) * 3), DiGraph(3, (BIEDGE, FWD, FWD))])
    out = []
    for name, family in families.items():
        types = list(edk.enumerate_types(family, 2))
        if not types:
            out.append(("no types", name))
            continue
        out.append(("affine_forms", name, _affine_forms(family, _shapes(family, types))))
        bound, argmax = edk.dist_max_upper(family, 2, types)
        out.append(("dist_max_upper", name, bound.value, _point(argmax),
                    bound.certificate.crg_type.encoding()))
        for step in (Fraction(1, 4), Fraction(1, 6), Fraction(1, 7)):
            rows = edk.distfn_grid(family, 2, step, types)
            out.append(("distfn_grid", name, step, [(_point(d), v) for d, v in rows]))
    return out


# Recorded while each arity and palette spelled out its own variables, domain
# and grid: the count and the sha256 of the repr of ``domain_results()``.
DOMAIN_GOLDEN = (112, "70d2a39cda71dbe9a5412371cc77d9e96f53d2fb8ed3bf76969c99f26fbb6e49")


def test_domain_golden():
    results = domain_results()
    assert (len(results), hashlib.sha256(repr(results).encode()).hexdigest()) == DOMAIN_GOLDEN


def test_types_of_another_arity_are_refused():
    mono, two_colors = catalog.mono_triangle_family(), catalog.k5_family()
    dens = edk.DensityVector.uniform(3)
    types = list(edk.enumerate_types(two_colors, 2))
    for bound in (edk.dist_upper, dist_upper_f):
        with pytest.raises(ValueError, match="family's colors"):
            bound(mono, dens, 2, types)
    tourn = list(edk.enumerate_types(catalog.cyclic_triangle_family("tourn"), 2))
    with pytest.raises(ValueError, match="family's colors"):
        edk.dist_max_upper(catalog.cyclic_triangle_family("orien"), 2, tourn)
