"""The exact bounds pass: integer support enumeration for g and the lower
bounds on a stationary value that let it skip a support, incremental
admissibility in the type enumeration, its extension needs and free rows,
the type shapes and the simplex of the maximum, each against the reference
it replaced in tests/oracles.py, plus the certificate check."""

import hashlib
import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edk
from edk import CertificateError, ColoredGraph, DiGraph, RType, catalog
from edk.crg import _ClassFits, _choices, _extension_needs, _free_rows, _images, canonical_key
from edk.distance import _cannot_beat, _shapes, _stationary
from edk.graphs import ARROW_MASK, BWD, FWD, PALETTES, pair_count
from edk.ratlin import simplex_max_lex, solve_int
from oracles import (
    brute_enumerate_types,
    brute_extension_needs,
    brute_fits_class,
    brute_free_maps,
    brute_free_rows,
    brute_g_value,
    brute_shapes,
    dense_simplex_max_lex,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices with k <= 5: negative entries, mixed
    denominators, and repeated rows or constant blocks, whose supports have
    singular stationarity systems."""
    k = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 5, 12)))
    m = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = draw(entry)
    if k > 1 and draw(st.booleans()):  # vertex b repeats vertex a
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        for i in range(k):
            m[b][i] = m[i][b] = m[a][i]
        m[b][b] = m[a][a] = m[a][b]
    if draw(st.booleans()):  # one constant value somewhere
        c = draw(entry)
        m = [[c if draw(st.booleans()) else e for e in row] for row in m]
        m = [[m[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    return tuple(map(tuple, m))


class TestGAgainstFractions:
    @SETTINGS
    @given(symmetric_matrices())
    def test_value_and_weights(self, m):
        value, weights = edk.g_value(m)
        assert (value, weights) == brute_g_value(m)
        assert all(type(w) is Fraction for w in weights)

    def test_constant_matrix_keeps_the_first_vertex(self):
        m = ((Fraction(1, 3),) * 3,) * 3
        assert edk.g_value(m) == (Fraction(1, 3), (1, 0, 0))

    def test_solve_int_is_exact_and_flags_singular_systems(self):
        assert solve_int([[2, 1, 3], [1, 3, 5]]) == (5, [4, 7])  # x = 4/5, y = 7/5
        assert solve_int([[0, 2, 4], [-3, 0, 3]]) == (6, [-6, 12])  # x = -1, y = 2
        assert solve_int([[1, 2, 1], [2, 4, 2]]) is None

    @pytest.mark.parametrize("name, kmax", [("mono", 3), ("rainbow", 2), ("qr7", 2),
                                            ("cyclic-full", 2), ("both-orien", 2)])
    def test_enumerated_types_at_interior_densities(self, name, kmax):
        family = {
            "mono": catalog.mono_triangle_family(),
            "rainbow": catalog.rainbow_triangle_family(),
            "qr7": catalog.qr7_family(),
            "cyclic-full": catalog.cyclic_triangle_family("full"),
            "both-orien": catalog.both_triangles_family("orien"),
        }[name]
        types = list(edk.enumerate_types(family, kmax))
        points = interior_points(family, 6)
        assert points
        for dens in points:
            for t in types[::7]:
                m = edk.m_matrix(t, dens)
                assert edk.g_value(m) == brute_g_value(m)
            edk.check_certificate(family, edk.dist_upper(family, dens, kmax, types))


@st.composite
def integer_matrices(draw):
    """Square integer matrices with k <= 5, not symmetric; in about half of
    them a stationary point with weights >= 0, some of them zero, is
    planted: the last column is set so that A w is constant for integer
    weights w whose last entry is 1."""
    k = draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k)) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        w = draw(st.lists(st.integers(0, 4), min_size=k - 1, max_size=k - 1)) + [1]
        c = draw(st.integers(-20, 40))
        for row in rows:
            row[-1] = c - sum(a * x for a, x in zip(row, w[:-1]))
    return rows


class TestLowerBoundsOnLambda:
    """A stationary point with weights >= 0 has lambda = (A w)_i at least
    the largest row minimum, and k lambda at least the least column sum, so
    ``_cannot_beat`` may skip its support or type."""

    @SETTINGS
    @given(integer_matrices())
    def test_a_nonnegative_stationary_point_meets_both_bounds(self, rows):
        k = len(rows)
        row_min = max(map(min, rows))
        col_sum = min(map(sum, zip(*rows)))
        assert _cannot_beat(rows, row_min, 1) and _cannot_beat(rows, col_sum, k)
        sol = _stationary(rows)
        if sol is None or min(sol[2]) < 0:
            return
        lam, det = sol[0], sol[1]
        assert lam >= row_min * det and k * lam >= col_sum * det
        # lambda plus 1 / (2 det) is above lambda, so it is not ruled out
        assert not _cannot_beat(rows, 2 * lam + 1, 2 * det)

    def test_nothing_is_ruled_out_before_a_best(self):
        assert not _cannot_beat([[5, 7], [9, 6]], 1, 0)


def interior_points(family, den):
    """Densities with denominator ``den`` at which every color, or every
    pair state of the palette, has positive mass."""
    if not family.is_directed:
        return [edk.DensityVector(tuple(Fraction(a, den) for a in parts))
                for parts in itertools.product(range(1, den), repeat=family.r)
                if sum(parts) == den]
    points = []
    for i in range(den + 1):
        for j in range((den - i) // 2 + 1):
            try:
                dens = edk.DirDensity(Fraction(i, den), Fraction(j, den), family.palette)
            except ValueError:
                continue
            if all(dens.by_code()[c] > 0 for c in family.palette.codes):
                points.append(dens)
    return points


class TestCertificateCheck:
    @pytest.fixture
    def case(self):
        family = catalog.mono_triangle_family()
        dens = edk.DensityVector.of(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        return family, edk.dist_upper(family, dens, 2)

    def test_accepts_dist_upper(self, case):
        family, bound = case
        assert edk.check_certificate(family, bound) is None

    def test_inadmissible_type(self, case):
        family, bound = case
        cert = replace(bound.certificate, crg_type=RType(3, (1,), ()))
        with pytest.raises(CertificateError, match="not admissible"):
            edk.check_certificate(family, replace(bound, certificate=cert))

    def test_weights_off_the_simplex(self, case):
        family, bound = case
        k = bound.certificate.crg_type.k
        cert = replace(bound.certificate, weights=(Fraction(1, k + 1),) * k)
        with pytest.raises(CertificateError, match="simplex"):
            edk.check_certificate(family, replace(bound, certificate=cert))

    def test_value_that_does_not_recompute(self, case):
        family, bound = case
        with pytest.raises(CertificateError, match="recompute"):
            edk.check_certificate(family, replace(bound, value=bound.value + 1))

    def test_weights_that_are_not_stationary(self):
        family = catalog.mono_triangle_family()
        dens = edk.DensityVector.of(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        t = RType(3, (6, 6), (3,))  # entries 1/2 on the diagonal, 1/6 off it
        w = (Fraction(1, 3), Fraction(2, 3))
        cert = edk.UpperCertificate(t, w, dens)
        bound = edk.DistBound(cert.recompute(), "upper", 2, cert)
        with pytest.raises(CertificateError, match="support"):
            edk.check_certificate(family, bound)


@st.composite
def small_families(draw):
    """One or two forbidden graphs on 3 or 4 vertices (smaller ones leave
    few types), multicolor with r = 2, 3 or directed on any palette, and a
    kmax of 2 or 3."""
    if draw(st.booleans()):
        r = draw(st.sampled_from((2, 3)))
        codes = list(range(1, r + 1))
        make = lambda n, colors: ColoredGraph(n, r, colors)  # noqa: E731
        build = lambda graphs: edk.PropertyFamily.multicolor(r, graphs)  # noqa: E731
    else:
        pal = PALETTES[draw(st.sampled_from(sorted(PALETTES)))]
        codes = pal.sorted_codes()
        make = lambda n, colors: DiGraph(n, colors)  # noqa: E731
        build = lambda graphs: edk.PropertyFamily.directed(pal, graphs)  # noqa: E731
    graphs = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(3, 4))
        colors = draw(st.lists(st.sampled_from(codes), min_size=pair_count(n),
                               max_size=pair_count(n)))
        graphs.append(make(n, tuple(colors)))
    return build(graphs), draw(st.sampled_from((2, 3, 3)))


def _enumeration(enumerate_fn, family, kmax, ceiling):
    """The encodings, or the guard's candidate count when it refuses."""
    try:
        return [t.encoding() for t in enumerate_fn(family, kmax, candidate_ceiling=ceiling)]
    except edk.EnumerationGuardError as exc:
        return exc.candidates


CEILING = 20_000  # keeps the reference fast; a refusal compares the guard's count


class TestEnumerationAgainstBuildingEveryCandidate:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_families())
    def test_random_families(self, case):
        family, kmax = case
        assert (_enumeration(edk.enumerate_types, family, kmax, CEILING)
                == _enumeration(brute_enumerate_types, family, kmax, CEILING))

    # mono-r2 and both-orien: every admissible one-vertex type has the same
    # vertex set, so only the tie between equal sets prunes their extensions
    @pytest.mark.parametrize("name", ["t112", "k5", "cyclic-tourn", "both-compl",
                                      "mono-r2", "both-orien"])
    def test_catalog_families(self, name):
        family, kmax = {
            "t112": (catalog.triangle_112_family(), 3),
            "k5": (catalog.k5_family(), 3),
            "cyclic-tourn": (catalog.cyclic_triangle_family("tourn"), 3),
            "both-compl": (catalog.both_triangles_family("compl"), 3),
            "mono-r2": (catalog.mono_triangle_family(r=2), 5),
            "both-orien": (catalog.both_triangles_family("orien"), 4),
        }[name]
        assert ([t.encoding() for t in edk.enumerate_types(family, kmax)]
                == [t.encoding() for t in brute_enumerate_types(family, kmax)])


class TestEnumerationSymmetry:
    """Enumeration builds each type from a vertex ranked by an order that
    does not read labels, so renaming the colors of a family, or reversing
    its arcs, renames its admissible types and nothing else."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_families(), st.permutations((1, 2, 3)))
    def test_renamed_colors(self, case, perm):
        family, kmax = case
        if family.is_directed:  # reverse every arc
            rename, kmax = {FWD: BWD, BWD: FWD}, 2
        else:
            rename = dict(enumerate((c for c in perm if c <= family.r), 1))
        first = family.forbidden[0].first_state

        def mask(m):
            return sum(1 << rename.get(b + first, b + first) - first
                       for b in range(m.bit_length()) if m >> b & 1)

        def renamed(encoding):
            vsets, esets = (tuple(map(mask, sets)) for sets in encoding)
            return canonical_key(edk.DirType(family.palette, vsets, esets) if family.is_directed
                                 else RType(family.r, vsets, esets))

        image = replace(family, forbidden=tuple(
            replace(h, colors=tuple(rename.get(c, c) for c in h.colors))
            for h in family.forbidden))
        ours, theirs = (_enumeration(edk.enumerate_types, f, kmax, CEILING)
                        for f in (family, image))
        if isinstance(ours, int):  # the guard refused both at the same count
            assert ours == theirs
        else:
            assert {renamed(encoding) for encoding in ours} == set(theirs)


# Recorded at the commit that built and tested every candidate: the count and
# the sha256 of the repr of the enumerate_types encodings at kmax = 4.
K4_GOLDEN = {
    "both-orien": (421, "e000cc20ed497ffbfd4b8ada62342a40ce9ecf425138d12fae3aa5c3e377c18d"),
    "two-mono": (1520, "485b2aa2a7845838c254e5be891380c19bc8b8a9d670dde8b3f8b09824786c2a"),
    "two-triangle": (4354, "ee6ba27dc57ea3e3818f6cb1560501b433557daff797ff1878dbee5e1b830ce3"),
}


@pytest.mark.parametrize("name", sorted(K4_GOLDEN))
def test_k4_golden(name):
    family = {
        "both-orien": catalog.both_triangles_family("orien"),
        "two-mono": catalog.two_mono_triangles_family(),
        "two-triangle": catalog.two_triangle_family(),
    }[name]
    encodings = [t.encoding() for t in edk.enumerate_types(family, 4)]
    assert (len(encodings), hashlib.sha256(repr(encodings).encode()).hexdigest()) == K4_GOLDEN[name]


def test_k5_family_at_kmax_5():
    # recorded in the same form at the commit that swept all k! permutations
    # for each canonical key
    encodings = [t.encoding() for t in edk.enumerate_types(catalog.k5_family(), 5)]
    assert (len(encodings), hashlib.sha256(repr(encodings).encode()).hexdigest()) == (
        5710, "94956a374ed5219aae0a77eeb7ea692a819428989e0d6f200a00ae2d6df1fa87")


@pytest.mark.parametrize("family, kmax, ceiling, candidates", [
    (catalog.mono_triangle_family(), 3, 1000, 12480),
    (catalog.two_triangle_family(), 5, 5_000_000, 59471670),
    (catalog.cyclic_triangle_family("full"), 3, 1_000_000, 2226224),
])
def test_guard_candidate_counts(family, kmax, ceiling, candidates):
    # recorded at the same commit as K4_GOLDEN
    with pytest.raises(edk.EnumerationGuardError) as info:
        list(edk.enumerate_types(family, kmax, candidate_ceiling=ceiling))
    assert info.value.candidates == candidates


@st.composite
def small_lps(draw):
    """Programs with 1-8 rows, 1-4 variables and objective tuples of depth
    1-3: nonnegative rhs with many zeros, so that ratios tie, and columns
    with no positive entry, so that some programs are unbounded."""
    m, n, depth = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, Fraction(1, 2))), min_size=m, max_size=m))
    objectives = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * depth), min_size=n, max_size=n))
    return rows, rhs, objectives


def _solved(simplex, lp):
    """(x, value), or the ValueError's message."""
    try:
        return simplex(*lp)
    except ValueError as exc:
        return str(exc)


BOUNDS_FAMILIES = {  # the bench families and kmax of dist_max_upper
    "qr7": (catalog.qr7_family(), 3),
    "cyclic-full": (catalog.cyclic_triangle_family("full"), 2),
    "rainbow": (catalog.rainbow_triangle_family(), 3),
    "mono": (catalog.mono_triangle_family(), 3),
    "both-orien": (catalog.both_triangles_family("orien"), 4),
    "two-mono": (catalog.two_mono_triangles_family(), 4),
}


class TestSimplexAgainstDenseTableau:
    """The condensed tableau makes the pivots of the dense one it replaced:
    the same (x, value), or the same refusal."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(small_lps())
    def test_random_programs(self, lp):
        assert _solved(simplex_max_lex, lp) == _solved(dense_simplex_max_lex, lp)

    # Optima with more than one vertex, where the rules pick the vertex.
    # Random programs seldom show a rule: entering by column position in
    # place of variable index changed (x, value) in about 1 of 1000 of
    # them, and leaving ties broken by row index in 1 of 200000.
    @pytest.mark.parametrize("lp, x, value", [
        # at the fifth pivot x_1 leaves on a tie with the slack of row 1, which comes first
        (([[1, 0, 0, -1], [1, 0, 0, 1], [0, 1, -1, -1], [1, 1, 1, 1]], [0, 1, 0, 1],
          [(2, -1), (0, 2), (2, 0), (2, 0)]), [0, 0, 1, 0], (2, 0)),
        # at the third pivot x_2 enters before the slack of row 1, which holds column 0
        (([[2, 1, 1], [2, -1, 0]], [2, 1], [(1,), (1,), (1,)]), [0, 0, 2], (2,)),
    ])
    def test_the_rules_pick_the_vertex(self, lp, x, value):
        assert simplex_max_lex(*lp) == dense_simplex_max_lex(*lp) == (x, value)

    def test_negative_rhs_is_refused(self):
        lp = ([[1]], [-1], [(1,)])
        assert _solved(simplex_max_lex, lp) == _solved(dense_simplex_max_lex, lp) == (
            "simplex start needs nonnegative rhs")

    @pytest.mark.parametrize("name", sorted(BOUNDS_FAMILIES))
    def test_bounds_families(self, name, monkeypatch):
        programs = []

        def recorded(*lp):
            programs.append(lp)
            return simplex_max_lex(*lp)

        monkeypatch.setattr(edk.distance, "simplex_max_lex", recorded)
        edk.dist_max_upper(*BOUNDS_FAMILIES[name])
        assert len(programs) == 1
        assert simplex_max_lex(*programs[0]) == dense_simplex_max_lex(*programs[0])


class TestShapesAgainstCounter:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(small_families())
    def test_small_families(self, case):
        family, kmax = case
        types = list(edk.enumerate_types(family, kmax))
        assert _shapes(family, types) == brute_shapes(family, types)

    def test_full_tables(self):
        """Full edge sets and vertex sets short of the top state: every
        lower field counts k^2, which needs the whole width at k = 2, 4, 8."""
        for family in (catalog.mono_triangle_family(), catalog.cyclic_triangle_family("full")):
            full = family.full_mask
            types = [edk.crg._make(family, (full >> 1,) * k, (full,) * pair_count(k))
                     for k in (1, 2, 3, 4, 7, 8)]
            assert _shapes(family, types) == brute_shapes(family, types)


@st.composite
def free_row_cases(draw):
    """Up to 8 needs over rows of 1-4 edge choices of a palette (up to 3
    on ``full``, whose 15 choices make the reference slow), each field of
    a need a subset of the palette, zero included."""
    family = draw(st.sampled_from((catalog.mono_triangle_family(r=2),
                                   catalog.mono_triangle_family(),
                                   catalog.cyclic_triangle_family("full"),
                                   catalog.cyclic_triangle_family("orien"))))
    _, edge_choices = _choices(family)
    full = edge_choices[-1]
    width = draw(st.integers(1, 3 if len(edge_choices) > 7 else 4))
    field = st.sampled_from([0, *edge_choices])
    needs = draw(st.lists(st.lists(field, min_size=width, max_size=width), max_size=8))
    span = full.bit_length()
    return [sum(f << span * x for x, f in enumerate(need)) for need in needs], edge_choices, width


class TestFreeRowsAgainstProduct:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(free_row_cases())
    def test_random_needs(self, case):
        assert _free_rows(*case) == brute_free_rows(*case)


@st.composite
def parent_sequences(draw):
    """A family from ``small_families`` and up to six of its types on 1-4
    vertices, not all admissible, each with a first vertex choice.  Their
    vertex sets come from a pool of one or two choices and their edge sets
    from a pool of up to three, so that one sub-table recurs at different
    vertex positions and under different first choices."""
    family, _ = draw(small_families())
    vertex_choices, edge_choices = _choices(family)
    vertex_pool = draw(st.lists(st.sampled_from(vertex_choices), min_size=1, max_size=2))
    edge_pool = draw(st.lists(st.sampled_from(edge_choices), min_size=1, max_size=3))
    parents = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, 4))
        vsets = draw(st.lists(st.sampled_from(vertex_pool), min_size=k, max_size=k))
        esets = draw(st.lists(st.sampled_from(edge_pool), min_size=pair_count(k),
                              max_size=pair_count(k)))
        parents.append((edk.crg._make(family, tuple(vsets), tuple(esets)),
                        draw(st.integers(0, len(vertex_choices) - 1))))
    return family, parents


def _class_fits(family):
    vertex_choices, _ = _choices(family)
    arrows = ARROW_MASK if family.is_directed else 0
    return [_ClassFits(h, vertex_choices, arrows) for h in family.forbidden]


class TestExtensionNeedsAgainstEveryMap:
    """The needs read from memoised sub-tables, one per image set, against
    every map of each forbidden graph into the parent plus a new vertex."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(parent_sequences())
    def test_parents_through_one_memo(self, case):
        family, parents = case
        class_fits, memo = _class_fits(family), {}
        span = family.full_mask.bit_length()
        for parent, first in parents:
            needs = _extension_needs(parent, class_fits, memo, first, span)
            unpacked = [[tuple(need >> span * x & family.full_mask for x in range(parent.k))
                         for need in choice] for choice in needs]
            assert all(len(choice) == len(set(choice)) for choice in unpacked)
            assert list(map(set, unpacked)) == brute_extension_needs(parent, family)[first:]


class TestImagesPrunes:
    """With a ``_ClassFits``, ``_images`` walks onto the type plus a new
    vertex and only while the vertices on the new one fit some choice: the
    plain walk's maps, filtered by both tests after the fact."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(parent_sequences())
    def test_against_the_filtered_plain_walk(self, case):
        family, parents = case
        vertex_choices, _ = _choices(family)
        for fits in _class_fits(family):
            h = fits.h
            for t, _ in parents:
                expected = [image for image in brute_free_maps(h, t, family)
                            if set(image) == set(range(t.k + 1))
                            and any(brute_fits_class(h, [u for u in range(h.n) if image[u] == t.k],
                                                     vs, family) for vs in vertex_choices)]
                assert [tuple(image) for image in _images(h, t.table, t.arrows, fits)] == expected
