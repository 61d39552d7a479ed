"""Randomized editing toward a target type, and the part-based simple edit
as editing toward a clique-spectrum tuple's type.

The type-based algorithm assigns each vertex independently to a part, one per
type vertex, with the given weights, then recolors every pair whose state the
type does not allow there.  If the type is admissible for a family, the
result is always a member.  The expected number of recolored pairs is exactly
w' M w binom(n, 2) at the graph's own densities.

One editor serves both arities, reading pair states through the graph's
``first_state`` (see ``graphs``) and the type's ``table`` and ``arrows``.  A
pair keeps an allowed state and otherwise takes the smallest allowed one.
The exception is a digraph part whose vertex set holds exactly one arc
direction: there single arcs follow a random order of the part, which keeps
the part acyclic, and a pair that must change takes its smallest allowed
non-arc state, or the arc along the order when there is none.  The simple
edit is the same recoloring toward the weak type of a spectrum tuple, on a
fixed partition, with the vertex order as every part's order.
``edit_by_type`` and ``edit_by_dirtype`` are the same editing under the two
arities' names.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

from .crg import DirType, RType, check_graph_arity
from .distance import m_matrix, quad_form
from .graphs import BWD, FWD, ColoredGraph, DiGraph, PropertyFamily, pair_count, rational
from .spectrum import is_weakly_good, spectrum_tuple_type


def check_weights(weights, k):
    weights = tuple(map(rational, weights))
    if len(weights) != k:
        raise ValueError(f"need {k} weights")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    return weights


def sample_partition(n, weights, rng) -> tuple:
    """``n`` independent draws, each ``i`` with probability weights[i]: part
    assignments here, pair colors in the samplers of ``oracle``.  Each draw
    takes one ``rng.random()`` against cumulative float weights; the last
    one is infinite, so a draw past a float sum short of one lands on the
    last index."""
    cumulative = [float(run) for run in itertools.accumulate(weights)]
    cumulative[-1] = math.inf
    draw = rng.random
    return tuple([bisect.bisect_right(cumulative, draw()) for _ in range(n)])


def edit_by_type(g: ColoredGraph, k_type: RType, weights, seed) -> tuple:
    """Randomly partition, then recolor disallowed pairs.  Returns (graph, changes)."""
    return _random_edit(g, k_type, weights, seed)


def edit_by_dirtype(g: DiGraph, k_type: DirType, weights, seed) -> tuple:
    """:func:`edit_by_type` for a digraph and a directed type: single arcs
    in a one-arrow part are redirected along a random order of the part."""
    return _random_edit(g, k_type, weights, seed)


def _random_edit(g, k_type, weights, seed) -> tuple:
    weights = check_weights(weights, k_type.k)
    rng = random.Random(seed)
    parts = sample_partition(g.n, weights, rng)
    orders = {}
    for x in _one_arrow_parts(k_type):
        members = [v for v in range(g.n) if parts[v] == x]
        ranks = list(range(len(members)))
        rng.shuffle(ranks)
        orders[x] = dict(zip(members, ranks))
    return edit_with_partition(g, k_type, parts, orders)


def _one_arrow_parts(k_type):
    """The type vertices whose set holds exactly one arc direction."""
    return [x for x, vs in enumerate(k_type.vertex_sets) if (vs & k_type.arrows).bit_count() == 1]


def edit_with_partition(g, k_type, parts, orders=None) -> tuple:
    """Deterministic core of the editing: recolor every pair whose state the
    type does not allow between its ends' parts.  ``orders`` maps each
    one-arrow part to a rank per member vertex; without it, every such part
    follows the vertex order.  Returns (graph, changes)."""
    check_graph_arity(g, k_type)
    table, arrows, first = k_type.table, k_type.arrows, g.first_state
    one_arrow = set(_one_arrow_parts(k_type))
    colors = list(g.colors)
    changes = 0
    n, idx = g.n, 0
    for i in range(n):
        x = parts[i]
        row, ordered = table[x], x in one_arrow
        for j in range(i + 1, n):
            y = parts[j]
            allowed = row[y]
            bit = 1 << (colors[idx] - first)
            if ordered and x == y and (bit & arrows or not allowed & ~arrows):
                # a single arc, or a pair whose one allowed state is an arc,
                # follows the part's order (other pairs take non-arc codes,
                # which come first)
                ahead = orders is None or orders[x][i] < orders[x][j]
                allowed = 1 << ((FWD if ahead else BWD) - first)
            if not bit & allowed:
                colors[idx] = (allowed & -allowed).bit_length() - 1 + first
                changes += 1
            idx += 1
    return replace(g, colors=tuple(colors)), changes


def balanced_partition(n, sizes_count):
    """Contiguous near-equal blocks: the first n %% l parts get the extra vertex."""
    l = sizes_count
    base, extra = divmod(n, l)
    parts = []
    for part in range(l):
        parts.extend([part] * (base + (1 if part < extra else 0)))
    return tuple(parts)


def simple_edit(g, family: PropertyFamily, spectrum_tuple, equipartition=True, seed=None):
    """Part-based editing driven by a tuple from the weak clique spectrum.

    Splits the vertices into sum(tuple) parts, a_i of them tagged with class
    i, then makes each part clean for its tag: tagged color recolored away
    (multicolor), no-arc or two-way pairs recolored (digraph tags 0 and 2), or
    arcs redirected along the vertex order (tag 1).  That is the type edit
    toward :func:`spectrum_tuple_type` on this partition.  The output is
    always a member: an induced forbidden copy would make the tuple good.
    """
    family.check_graph(g)
    t = tuple(spectrum_tuple)
    if is_weakly_good(t, family):
        raise ValueError(f"tuple {t} is weakly good, not in the spectrum")
    total = sum(t)
    if total == 0:
        raise ValueError("the all-zeros tuple gives no parts to edit within")
    if equipartition:
        parts = balanced_partition(g.n, total)
    else:
        if seed is None:
            raise ValueError("random partition needs a seed")
        rng = random.Random(seed)
        parts = tuple(rng.randrange(total) for _ in range(g.n))
    return edit_with_partition(g, spectrum_tuple_type(family, t), parts)


def expected_changes(k_type, weights, dens, n) -> Fraction:
    """Exact expectation of the change count: w' M w binom(n, 2)."""
    weights = check_weights(weights, k_type.k)
    m = m_matrix(k_type, dens)
    return quad_form(m, weights) * pair_count(n)
