"""One pair-state path for both arities: the one editor against the
reference in tests/oracles.py, its refusal of a graph of another arity, and
a digest of the editors, samplers and estimates recorded before the two
arities shared one editor and one sampler."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edk
from edk import ColoredGraph, DiGraph, DirType, PropertyFamily, RType, catalog
from edk.editing import edit_with_partition, sample_partition
from edk.graphs import BIEDGE, DIR_CODES, FWD, PALETTES, pair_count
from edk.oracle import estimate_dist, sample_digraph, sample_rgraph
from oracles import brute_edit, clamped_draws

F = Fraction


@st.composite
def edit_cases(draw):
    """A type with k <= 3 of either arity (every palette, one-arrow vertex
    sets included), a graph of that arity, a partition and part orders."""
    arity = draw(st.sampled_from([2, 3] + sorted(PALETTES)))
    if isinstance(arity, int):
        full, states = (1 << arity) - 1, range(1, arity + 1)
    else:
        full, states = PALETTES[arity].mask, DIR_CODES
    edge_choices = [m for m in range(1, full + 1) if not m & ~full]
    k = draw(st.integers(1, 3))
    vsets = tuple(draw(st.lists(st.sampled_from(edge_choices[:-1]), min_size=k, max_size=k)))
    esets = tuple(draw(st.lists(st.sampled_from(edge_choices), min_size=pair_count(k),
                                max_size=pair_count(k))))
    n = draw(st.integers(0, 9))
    colors = tuple(draw(st.lists(st.sampled_from(states), min_size=pair_count(n),
                                 max_size=pair_count(n))))
    if isinstance(arity, int):
        k_type, g = RType(arity, vsets, esets), ColoredGraph(n, arity, colors)
    else:
        k_type, g = DirType(PALETTES[arity], vsets, esets), DiGraph(n, colors)
    parts = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    orders = None
    if draw(st.booleans()):
        ranks = draw(st.permutations(range(n)))
        orders = {x: {v: ranks[v] for v in range(n) if parts[v] == x} for x in range(k)}
    return g, k_type, parts, orders


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edit_cases())
def test_one_editor_matches_the_rule(case):
    g, k_type, parts, orders = case
    assert edit_with_partition(g, k_type, parts, orders) == brute_edit(g, k_type, parts, orders)


@st.composite
def draw_weights(draws):
    """Nonnegative Fraction weights, with zeros anywhere and first, in the
    middle or last; half the time they sum to one, otherwise they sum to
    anything, so that a draw can pass the last float sum."""
    weights = draws(st.lists(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=5))
    if len(weights) >= 3:
        weights[draws(st.sampled_from([0, len(weights) // 2, len(weights) - 1]))] = F(0)
    if draws(st.booleans()) and sum(weights):
        weights = [w / sum(weights) for w in weights]
    return weights


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 40), draw_weights(), st.integers(0, 2 ** 32))
def test_sampler_matches_the_clamped_draws(n, weights, seed):
    rng, reference = random.Random(seed), random.Random(seed)
    assert sample_partition(n, weights, rng) == clamped_draws(n, weights, reference)
    assert rng.random() == reference.random()  # one draw per index, no more


class TestArityRefusal:
    def test_colored_graph_with_a_directed_type(self):
        g = ColoredGraph.complete(4, 2, 2)  # color 2 is also the code of a forward arc
        k = DirType(edk.palette("tourn"), (1 << FWD,), ())
        with pytest.raises(ValueError, match="graph arity does not match the type"):
            edk.edit_by_dirtype(g, k, (F(1),), seed=0)

    def test_digraph_with_a_multicolor_type(self):
        g = catalog.transitive_tournament(4)
        with pytest.raises(ValueError, match="graph arity does not match the type"):
            edk.edit_by_dirtype(g, RType(2, (1,), ()), (F(1),), seed=0)

    def test_digraph_through_the_multicolor_name(self):
        g = catalog.transitive_tournament(4)
        with pytest.raises(ValueError, match="graph arity does not match the type"):
            edk.edit_by_type(g, RType(3, (3,), ()), (F(1),), seed=0)

    def test_other_color_count(self):
        with pytest.raises(ValueError, match="graph arity does not match the type"):
            edk.edit_by_type(ColoredGraph.complete(4, 3, 1), RType(2, (1,), ()), (F(1),), seed=0)


def golden_families():
    """Name, family and sampling density of each seeded input family."""
    undir = PropertyFamily.directed("undir", [DiGraph(3, (BIEDGE,) * 3)])
    return [
        ("mono", catalog.mono_triangle_family(), edk.DensityVector.of(F(1, 2), F(1, 3), F(1, 6))),
        ("two-triangle", catalog.two_triangle_family(), edk.DensityVector.uniform(3)),
        ("k5", catalog.k5_family(), edk.DensityVector.of(F(2, 5), F(3, 5))),
        ("cyclic-tourn", catalog.cyclic_triangle_family("tourn"),
         edk.DirDensity.of(0, F(1, 2), "tourn")),
        ("cyclic-orien", catalog.cyclic_triangle_family("orien"),
         edk.DirDensity.of(0, F(1, 3), "orien")),
        ("both-full", catalog.both_triangles_family("full"),
         edk.DirDensity.of(F(1, 4), F(1, 4), "full")),
        ("transitive-compl", catalog.transitive_triangle_family("compl"),
         edk.DirDensity.of(F(1, 3), F(1, 3), "compl")),
        ("undir", undir, edk.DirDensity.of(F(1, 2), 0, "undir")),
    ]


def _weights(rng, k):
    raw = [rng.randint(0, 4) for _ in range(k)]
    if not any(raw):
        raw[0] = 1
    return tuple(F(x, sum(raw)) for x in raw)


def editing_results():
    """Per family: sampled graphs, type edits at kmax 3 with random weights
    and seeds, simple edits on both partitions for every spectrum tuple,
    and estimates in both modes."""
    rng = random.Random(2024)
    out = []
    for name, family, dens in golden_families():
        sampler = sample_digraph if family.is_directed else sample_rgraph
        editor = edk.edit_by_dirtype if family.is_directed else edk.edit_by_type
        for n in (1, 2, 7, 13):
            out.append((name, "sample", n, sampler(n, dens, 100 + n).colors))
        types = list(edk.enumerate_types(family, 3))
        picks = types[:4] + rng.sample(types, min(6, len(types))) + types[-8:]
        for index, t in enumerate(picks):
            for _ in range(3):
                n = rng.randint(1, 14)
                g = sampler(n, dens, rng.randrange(10 ** 6))
                w = _weights(rng, t.k)
                seed = rng.randrange(10 ** 6)
                edited, changes = editor(g, t, w, seed)
                out.append((name, "edit", index, n, seed, edited.colors, changes))
        for t in edk.clique_spectrum(family).sorted_tuples():
            if not any(t):
                continue
            for n in (1, 5, 11):
                g = sampler(n, dens, 7 * n)
                out.append((name, "simple", t, n, edk.simple_edit(g, family, t)))
                seed = rng.randrange(10 ** 6)
                out.append((name, "simple-random", t, n, seed,
                            edk.simple_edit(g, family, t, equipartition=False, seed=seed)))
        for mode, n in (("exact", 6), ("algorithmic", 16)):
            stats = estimate_dist(n, dens, family, 3, rng.randrange(1000), kmax=2, mode=mode)
            out.append((name, "estimate", mode, n, stats.values))
    return out


# recorded with the two editors and the two samplers that came before
EDITING_GOLDEN = (552, "6d700705623a75e8202e2c7550350cf35b825323f58ad8f3ca0990a07ad482b9")


def test_editing_golden():
    results = editing_results()
    assert (len(results), hashlib.sha256(repr(results).encode()).hexdigest()) == EDITING_GOLDEN
