"""The one type model: the embedding test against brute force on every arity,
good tuples against their part definitions, and goldens for the spectra and
the type enumeration of every catalog family."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edk
from edk import ColoredGraph, DiGraph, DirType, RType, catalog
from edk.graphs import PALETTES, pair_count
from oracles import brute_embeds, brute_embeds_dir, brute_is_good

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
ARROW_PALETTES = ("full", "compl", "orien", "tourn")


def _submasks(full, proper):
    return [m for m in range(1, full + (0 if proper else 1)) if not m & ~full]


@st.composite
def graph_and_type(draw):
    """A multicolor graph (r = 2, 3) or a digraph on some palette with at
    most 4 vertices, and a type of the same arity on 1 to 3 vertices."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        r = draw(st.sampled_from((2, 3)))
        full, codes = (1 << r) - 1, range(1, r + 1)
        make_graph = lambda colors: ColoredGraph(n, r, colors)  # noqa: E731
        make_type = lambda vs, es: RType(r, vs, es)  # noqa: E731
    else:
        pal = PALETTES[draw(st.sampled_from(sorted(PALETTES)))]
        full, codes = pal.mask, pal.sorted_codes()
        make_graph = lambda colors: DiGraph(n, colors)  # noqa: E731
        make_type = lambda vs, es: DirType(pal, vs, es)  # noqa: E731
    colors = draw(st.lists(st.sampled_from(codes), min_size=pair_count(n),
                           max_size=pair_count(n)))
    vsets = draw(st.lists(st.sampled_from(_submasks(full, True)), min_size=k, max_size=k))
    esets = draw(st.lists(st.sampled_from(_submasks(full, False)),
                          min_size=pair_count(k), max_size=pair_count(k)))
    return make_graph(tuple(colors)), make_type(tuple(vsets), tuple(esets))


class TestEmbedsAgainstBruteForce:
    @SETTINGS
    @given(graph_and_type())
    def test_every_arity(self, case):
        h, t = case
        brute = brute_embeds_dir if isinstance(t, DirType) else brute_embeds
        assert edk.embeds(h, t) == brute(h, t)

    def test_arity_mismatch_is_a_value_error(self):
        with pytest.raises(ValueError):
            edk.embeds(catalog.cyclic_triangle(), RType(2, (1,), ()))
        with pytest.raises(ValueError):
            edk.embeds(catalog.mono_triangle(3), RType(2, (1,), ()))
        with pytest.raises(ValueError):
            edk.embeds(catalog.mono_triangle(2), DirType(edk.palette("tourn"), (4,), ()))


class TestTypeBody:
    def test_table_is_no_part_of_identity(self):
        a = DirType(edk.palette("full"), (1 << edk.FWD, 1), (1 << edk.FWD,))
        b = DirType(edk.palette("full"), (1 << edk.FWD, 1), (1 << edk.FWD,))
        assert a == b and hash(a) == hash(b)
        assert "table" not in repr(a)
        assert repr(a) == ("DirType(palette=" + repr(edk.palette("full"))
                           + ", vertex_sets=(4, 1), edge_sets=(4,))")

    def test_table_mirrors_single_arcs_only(self):
        t = DirType(edk.palette("full"), (1, 2, 4), (1 << edk.FWD, 1 | 1 << edk.BWD, 12))
        assert t.table == ((1, 4, 9), (8, 2, 12), (5, 12, 4))
        m = RType(3, (1, 2, 4), (4, 3, 6))
        assert m.table == ((1, 4, 3), (4, 2, 6), (3, 6, 4))


@st.composite
def family_and_tuple(draw):
    """A one-graph family on at most 4 vertices and a tuple of sum at most 3
    that respects the palette's zero constraints."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        r = draw(st.sampled_from((2, 3)))
        colors = draw(st.lists(st.integers(1, r), min_size=pair_count(n),
                               max_size=pair_count(n)))
        family = edk.PropertyFamily.multicolor(r, [ColoredGraph(n, r, tuple(colors))])
        allowed = [True] * r
    else:
        pal = PALETTES[draw(st.sampled_from(sorted(PALETTES)))]
        colors = draw(st.lists(st.sampled_from(pal.sorted_codes()), min_size=pair_count(n),
                               max_size=pair_count(n)))
        family = edk.PropertyFamily.directed(pal, [DiGraph(n, tuple(colors))])
        allowed = [edk.NONEDGE in pal, edk.FWD in pal, edk.BIEDGE in pal]
    t = [draw(st.integers(0, 3)) if ok else 0 for ok in allowed]
    while sum(t) > 3:
        t[t.index(max(t))] -= 1
    return family, tuple(t)


class TestGoodTuplesAgainstPartDefinitions:
    @SETTINGS
    @given(family_and_tuple())
    def test_weak(self, case):
        family, t = case
        assert edk.is_weakly_good(t, family) == brute_is_good(t, family, strong=False)

    @SETTINGS
    @given(family_and_tuple())
    def test_strong(self, case):
        family, t = case
        assert edk.is_strongly_good(t, family) == brute_is_good(t, family, strong=True)


def catalog_families():
    families = {
        "mono": catalog.mono_triangle_family(),
        "t112": catalog.triangle_112_family(),
        "two": catalog.two_triangle_family(),
        "twomono": catalog.two_mono_triangles_family(),
        "bichrom": catalog.bichromatic_triangles_family(),
        "rainbow": catalog.rainbow_triangle_family(),
        "k5": catalog.k5_family(),
        "qr7": catalog.qr7_family(),
    }
    for pal in ARROW_PALETTES:
        families[f"cyclic-{pal}"] = catalog.cyclic_triangle_family(pal)
        families[f"trans-{pal}"] = catalog.transitive_triangle_family(pal)
        families[f"both-{pal}"] = catalog.both_triangles_family(pal)
    return families


# Recorded before multicolor and directed types shared one body: per family,
# the weak and strong spectra, and the count and the sha256 of the repr of
# the enumerate_types encodings at k <= 3.  The cyclic triangle under the
# full palette is pinned at k <= 2 because its 288640 types at k <= 3 take
# minutes to enumerate.
GOLDEN = {
    "mono": (((0, 0, 0), (1, 0, 0), (2, 0, 0)), ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 2, 0)), 1452, "dc76087e84a575cd293eef5bc2f14e00aea0ad452e98a4fe98b242c7dd532df3"),  # noqa: E501
    "t112": (((0, 0, 0), (0, 1, 0), (1, 0, 0)), ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0)), 1388, "4061f08fccc2a0f0b26d586e296729513c5665f3e38dcd40ce7840dcabc6f258"),  # noqa: E501
    "two": (((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)), 259, "8ee5f41b7840a3768c1de5648bef09bf4d3407693b97b3ed3aedf4bf58686851"),  # noqa: E501
    "twomono": (((0, 0, 0),), ((0, 0, 0), (0, 0, 1), (0, 0, 2)), 56, "92479702f4a1fa49c40f042f56412083ce731bda87cd5ee173d29d24b09a8cf2"),  # noqa: E501
    "bichrom": (((0, 0, 0),), ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)), 9, "6efb94d7a1f9adbee93b889e3f427aad9f5ea1b264bb32c3926567983c37aaee"),  # noqa: E501
    "rainbow": (((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)), ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)), 1635, "5a5b1f3d46b5b6311cc4d2ccb096994eb4956983d096409d92ecc2d05756f56a"),  # noqa: E501
    "k5": (((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)), ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)), 57, "1ca2b457e05730dae6deeed585d516b79ea2208806012724449ec725bf173043"),  # noqa: E501
    "qr7": (((0, 0, 0), (0, 1, 0), (0, 2, 0)), ((0, 0, 0), (0, 1, 0), (0, 2, 0)), 49, "91a7dcce2889802e4377e646e2ea431e380124abda1e1442829ce349ce3d0ea2"),  # noqa: E501
    "cyclic-full": (((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0), (1, 0, 1), (2, 0, 0)), 717, "700fe80c2b8022d07fd151ecee768b930cad02a368c6892d237f533ea653fd37"),  # noqa: E501
    "trans-full": (((0, 0, 0),), ((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (1, 0, 1), (2, 0, 0)), 8336, "a31df75f4e8c09ccc054d5a05ed4fcb3844564d952572f6f74cd72db0f625d4c"),  # noqa: E501
    "both-full": (((0, 0, 0),), ((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (1, 0, 1), (2, 0, 0)), 7752, "12e37d0b3cb47bf5fa0d56fde6ddd539689f8fe689ddbe61ae04d9ae7a01d6b2"),  # noqa: E501
    "cyclic-compl": (((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)), 2520, "6a1f1fd6746a8a4de13f6a551cd1d5b976de7c632f02b0bdbd5da4c45d7af5a9"),  # noqa: E501
    "trans-compl": (((0, 0, 0),), ((0, 0, 0), (0, 0, 1), (0, 0, 2)), 36, "e87cb07ab8a9609d41ab7bb2309366a8f792eb5b1657c8561bfa6644a9cefea0"),  # noqa: E501
    "both-compl": (((0, 0, 0),), ((0, 0, 0), (0, 0, 1), (0, 0, 2)), 32, "2b463297c5682d985209938ac6b66d931e371039643f7d7ce8b3024c1a3f6590"),  # noqa: E501
    "cyclic-orien": (((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 0, 0)), 2520, "4a5cbdf5e5eb4a39ce584777757effea37e2dd6190c01c32eb343585cb54da4a"),  # noqa: E501
    "trans-orien": (((0, 0, 0),), ((0, 0, 0), (1, 0, 0), (2, 0, 0)), 36, "467872b6064019dd2b9523c078d6e88a50828d475960dd1afe6f858111732c06"),  # noqa: E501
    "both-orien": (((0, 0, 0),), ((0, 0, 0), (1, 0, 0), (2, 0, 0)), 32, "0b311f8046f93399ede4c99442c201d5916d7b887416af9fcc32329d88e362a6"),  # noqa: E501
    "cyclic-tourn": (((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 1, 0)), 14, "8bc02d7a1e80acffce9210c9e0d83f7bb65a78796f593950d69b4d7aa0d40390"),  # noqa: E501
    "trans-tourn": (((0, 0, 0),), ((0, 0, 0),), 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),  # noqa: E501
    "both-tourn": (((0, 0, 0),), ((0, 0, 0),), 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),  # noqa: E501
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_golden(name):
    family = catalog_families()[name]
    weak, strong, count, digest = GOLDEN[name]
    assert edk.clique_spectrum(family, edk.WEAK).sorted_tuples() == weak
    assert edk.clique_spectrum(family, edk.STRONG).sorted_tuples() == strong
    kmax = 2 if name == "cyclic-full" else 3
    encodings = [t.encoding() for t in edk.enumerate_types(family, kmax)]
    assert len(encodings) == count
    assert hashlib.sha256(repr(encodings).encode()).hexdigest() == digest
