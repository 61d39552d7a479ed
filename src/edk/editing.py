"""Randomized editing toward a target type, and the part-based simple edit
as editing toward a clique-spectrum tuple's type.

The type-based algorithm assigns each vertex independently to a part, one per
type vertex, with the given weights, then recolors every pair whose color the
type does not allow there.  If the type is admissible for a family, the
result is always a member.  The expected number of recolored pairs is exactly
w' M w binom(n, 2) at the graph's own densities.

Recoloring picks the smallest allowed color.  In a digraph part whose vertex
set holds exactly one arc direction, single arcs are instead redirected along
a random order of the part, which keeps the part acyclic; pairs forced to
become arcs follow the same order.  The simple edit is the same recoloring
toward the weak type of a spectrum tuple, on a fixed partition, with the
vertex order as every part's order.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction

from .crg import DirType, RType, mask_colors
from .distance import m_matrix, quad_form
from .graphs import (
    ARROW_MASK,
    BWD,
    FWD,
    ColoredGraph,
    DiGraph,
    PropertyFamily,
    pair_count,
    pairs,
    rational,
)
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
    takes one ``rng.random()`` against cumulative float weights."""
    cumulative = []
    run = Fraction(0)
    for w in weights:
        run += w
        cumulative.append(float(run))
    last = len(weights) - 1
    return tuple(min(bisect.bisect_right(cumulative, rng.random()), last) for _ in range(n))


def edit_by_type(g: ColoredGraph, k_type: RType, weights, seed) -> tuple:
    """Randomly partition, then recolor disallowed pairs.  Returns (graph, changes)."""
    weights = check_weights(weights, k_type.k)
    rng = random.Random(seed)
    parts = sample_partition(g.n, weights, rng)
    return edit_with_partition(g, k_type, parts)


def edit_with_partition(g: ColoredGraph, k_type: RType, parts) -> tuple:
    if g.r != k_type.r:
        raise ValueError("color counts differ")
    colors = list(g.colors)
    changes = 0
    for idx, (i, j) in enumerate(pairs(g.n)):
        allowed = k_type.phi(parts[i], parts[j])
        if not (1 << (colors[idx] - 1)) & allowed:
            colors[idx] = mask_colors(allowed)[0]
            changes += 1
    return ColoredGraph(g.n, g.r, tuple(colors)), changes


def edit_by_dirtype(g: DiGraph, k_type: DirType, weights, seed) -> tuple:
    """Directed editing: recolor cross pairs by the type's edge sets and fix
    parts per their vertex sets, redirecting arcs along a random part order
    where the set holds a single arc direction."""
    weights = check_weights(weights, k_type.k)
    rng = random.Random(seed)
    parts = sample_partition(g.n, weights, rng)
    orders = {}
    for x in range(k_type.k):
        if bin(k_type.vertex_sets[x] & ARROW_MASK).count("1") == 1:
            members = [v for v in range(g.n) if parts[v] == x]
            ranks = list(range(len(members)))
            rng.shuffle(ranks)
            orders[x] = dict(zip(members, ranks))
    return edit_dir_with_partition(g, k_type, parts, orders)


def edit_dir_with_partition(g: DiGraph, k_type: DirType, parts, orders) -> tuple:
    """Deterministic core of the directed editing; ``orders`` maps each
    single-arrow part to a rank per member vertex."""
    colors = list(g.colors)
    changes = 0
    for idx, (i, j) in enumerate(pairs(g.n)):
        x, y = parts[i], parts[j]
        old = colors[idx]
        if x != y:
            allowed = k_type.phi(x, y)  # oriented as (i, j)
            if not (1 << old) & allowed:
                colors[idx] = _smallest_code(allowed)
                changes += 1
            continue
        vs = k_type.vertex_sets[x]
        arrows = vs & ARROW_MASK
        if old in (FWD, BWD):
            if arrows == ARROW_MASK:
                continue
            if arrows:
                forward = orders[x][i] < orders[x][j]
                want = FWD if forward else BWD
                if old != want:
                    colors[idx] = want
                    changes += 1
            else:
                colors[idx] = _smallest_code(vs)
                changes += 1
        else:
            if (1 << old) & vs:
                continue
            if vs & ~ARROW_MASK:
                colors[idx] = _smallest_code(vs & ~ARROW_MASK)
            elif arrows == ARROW_MASK:
                colors[idx] = FWD
            else:
                # the only allowed state is a single arc: follow the order
                colors[idx] = FWD if orders[x][i] < orders[x][j] else BWD
            changes += 1
    return DiGraph(g.n, tuple(colors)), changes


def _smallest_code(mask):
    code = 0
    while not mask & 1:
        mask >>= 1
        code += 1
    return code


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
    k_type = spectrum_tuple_type(family, t)
    if family.is_directed:
        return edit_dir_with_partition(g, k_type, parts, dict.fromkeys(range(total), range(g.n)))
    return edit_with_partition(g, k_type, parts)


def expected_changes(k_type, weights, dens, n) -> Fraction:
    """Exact expectation of the change count: w' M w binom(n, 2)."""
    weights = check_weights(weights, k_type.k)
    m = m_matrix(k_type, dens)
    return quad_form(m, weights) * pair_count(n)
