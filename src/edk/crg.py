"""Types (colored regularity graphs): representation, embedding test,
admissibility against a forbidden family, and bounded enumeration.

A type is a complete graph whose vertices and edges carry nonempty color
sets; vertex sets are proper subsets.  A graph embeds in a type when some
(not necessarily injective) vertex map keeps every pair color inside the set
carried by the image vertex or edge.  The admissible types of a family are
those into which no forbidden graph embeds; editing toward one of them always
produces a member.

Color sets are stored as bitmasks.  Multicolor: bit c-1 for color c in 1..r.
Directed: one bit per pair code, with single-arc bits read relative to the
stored vertex order.  ``RType`` and ``DirType`` differ only in their color
field (``r`` or ``palette``) and its validation; both share one body that
builds, at construction, a k x k table of the masks seen from each ordered
vertex pair (the single-arc bits of a directed edge swapped on the far side),
and every test and transformation reads that table.

Enumeration grows admissible types one vertex at a time.  Because the parent
is admissible, a child can fail only through an embedding that uses the new
vertex; per parent, those embeddings reduce to a short list of edge rows
the new vertex must not cover, so a candidate is tested by a few mask
comparisons, and canonical keys are read from the raw mask table.  A type
object is built only for each new canonical key.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

from .errors import EnumerationGuardError
from .graphs import (
    ARROW_MASK,
    BIEDGE,
    BWD,
    FWD,
    NONEDGE,
    Palette,
    PropertyFamily,
    arcs_acyclic,
    pair_count,
    pairs,
)

DEFAULT_CANDIDATE_CEILING = 5_000_000


def color_set_mask(colors, r=None) -> int:
    """Bitmask for a set of multicolor colors (1..r)."""
    m = 0
    for c in colors:
        m |= 1 << (c - 1)
    return m


def mask_colors(mask: int):
    """Multicolor colors present in a bitmask, ascending."""
    out = []
    c = 1
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return tuple(out)


def dir_set_mask(codes) -> int:
    m = 0
    for c in codes:
        m |= 1 << c
    return m


def dir_mask_codes(mask: int):
    return tuple(c for c in (NONEDGE, BIEDGE, FWD, BWD) if mask & (1 << c))


class _TypeBody:
    """What RType and DirType share: the mask table and everything read
    from it.  ``arrows`` holds the two single-arc bits (none for multicolor);
    a mask seen from the other end of a pair has them swapped.  Each class
    also carries the other arity's field at its empty value (``palette =
    None`` or ``r = 0``), as :class:`PropertyFamily` does, so that arities
    compare without type checks."""

    arrows = 0

    def __post_init__(self):
        k = self.k
        if len(self.edge_sets) != pair_count(k):
            raise ValueError("wrong number of edge sets")
        self._validate()
        table = [[0] * k for _ in range(k)]
        edges = iter(self.edge_sets)
        for x, row in enumerate(table):
            row[x] = self.vertex_sets[x]
            for y in range(x + 1, k):
                row[y] = m = next(edges)
                table[y][x] = _mirror(m, self.arrows)
        object.__setattr__(self, "table", tuple(map(tuple, table)))

    @property
    def k(self) -> int:
        return len(self.vertex_sets)

    def phi(self, x, y) -> int:
        """Color-set mask at a vertex (x == y) or at the ordered pair (x, y)."""
        return self.table[x][y]

    def encoding(self):
        return (self.vertex_sets, self.edge_sets)

    def _like(self, vsets, esets):
        return replace(self, vertex_sets=tuple(vsets), edge_sets=tuple(esets))

    def permuted(self, perm):
        """Relabel vertices: new vertex x is old vertex perm[x]."""
        return self._like(*_permuted_encoding(self.table, perm))

    def sub_type(self, subset):
        sub = sorted(subset)
        if not sub:
            raise ValueError("sub-type needs at least one vertex")
        return self._like(*_permuted_encoding(self.table, sub))


def _mirror(mask, arrows):
    """A pair's mask seen from its other end: single arcs swap."""
    single = mask & arrows
    return mask if single in (0, arrows) else mask ^ arrows


def _permuted_encoding(table, perm):
    return (tuple(table[x][x] for x in perm),
            tuple(table[perm[a]][perm[b]] for a, b in pairs(len(perm))))


@dataclass(frozen=True)
class RType(_TypeBody):
    """A multicolor type on k vertices."""

    r: int
    vertex_sets: tuple
    edge_sets: tuple
    table: tuple = field(init=False, repr=False, compare=False)

    palette = None

    def _validate(self):
        full = (1 << self.r) - 1
        for m in self.vertex_sets:
            if not 0 < m < full:
                raise ValueError("vertex sets must be nonempty proper color subsets")
        for m in self.edge_sets:
            if not 0 < m <= full:
                raise ValueError("edge sets must be nonempty")


@dataclass(frozen=True)
class DirType(_TypeBody):
    """A directed type on k vertices over a palette.

    Edge masks are stored for the pair (x, y) with x < y; ``phi(y, x)`` is
    the mirrored mask, so the arc symmetries cannot be violated.  A vertex
    set may contain one arrow (its class must then stay acyclic), or both.
    """

    palette: Palette
    vertex_sets: tuple
    edge_sets: tuple
    table: tuple = field(init=False, repr=False, compare=False)

    r = 0
    arrows = ARROW_MASK

    def _validate(self):
        full = self.palette.mask
        for m in self.vertex_sets:
            if not 0 < m < full or m & ~full:
                raise ValueError("vertex sets must be nonempty proper palette subsets")
        for m in self.edge_sets:
            if not 0 < m <= full or m & ~full:
                raise ValueError("edge sets must be nonempty palette subsets")


def sub_type(k_type, subset):
    return k_type.sub_type(subset)


def canonical_key(k_type):
    """Lexicographically minimal encoding over all vertex permutations."""
    return _min_encoding(list(itertools.chain.from_iterable(k_type.table)), k_type.k)


def _encoding_orders(k):
    """Per vertex permutation of range(k), the flat k x k table positions of
    its encoding, vertex sets then edge sets."""
    return (tuple(x * (k + 1) for x in perm)
            + tuple(perm[a] * k + perm[b] for a, b in pairs(k))
            for perm in itertools.permutations(range(k)))


@functools.lru_cache(maxsize=None)
def _kept_orders(k):
    return tuple(_encoding_orders(k))


def _min_encoding(flat, k):
    """``canonical_key`` of the type whose mask table, row by row, is ``flat``.

    The vertex sets come first and have a fixed length, so comparing the
    concatenated encodings compares the (vertex sets, edge sets) pairs."""
    get = flat.__getitem__
    # the k! orders are kept up to k = 7 (5040 of them); more would not fit
    # in memory, so larger types get them afresh
    orders = _kept_orders(k) if k <= 7 else _encoding_orders(k)
    best = min(tuple(map(get, order)) for order in orders)
    return best[:k], best[k:]


def canonicalize(k_type):
    return k_type._like(*canonical_key(k_type))


@functools.lru_cache(maxsize=64)
def _pair_bits(h):
    """``bits[v][u]``: the bit of the pair {u, v}'s color as seen from v, in
    type masks (bit c-1 for color c, bit c for pair code c)."""
    first = h.first_state
    return tuple(tuple(1 << (h.color(v, u) - first) if u != v else 0 for u in range(h.n))
                 for v in range(h.n))


def _images(h, table, arrows, free=False):
    """Yield every vertex map of ``h`` into the type with mask table
    ``table`` that carries each pair color into the set of its image vertex
    or edge, as one list rewritten between yields.

    Inside one class, a directed vertex set holding exactly one arrow accepts
    single arcs either way as long as the class's arcs stay acyclic.  With
    ``free``, an extra target vertex ``len(table)`` takes every pair that
    touches it; the caller tests those pairs.
    """
    bits = _pair_bits(h)
    k = len(table)
    ordered = [bin(table[x][x] & arrows).count("1") == 1 for x in range(k)]
    allowed = [list(row) + [-1] for row in table]  # -1: the free target's column
    for x in range(k):
        if ordered[x]:
            allowed[x][x] |= arrows
    image = [0] * h.n
    members = [[] for _ in range(k)]
    fwd = 1 << FWD

    def acyclic(group):
        return arcs_acyclic(h.n, [(a, b) for a, b in itertools.permutations(group, 2)
                                  if bits[a][b] == fwd])

    def place(v):
        if v == h.n:
            yield image
            return
        row = bits[v]
        for x in range(k):
            seen = allowed[x]
            for u in range(v):
                if not row[u] & seen[image[u]]:
                    break
            else:
                group = members[x]
                if ordered[x] and len(group) > 1 and not acyclic(group + [v]):
                    continue
                image[v] = x
                group.append(v)
                yield from place(v + 1)
                group.pop()
        if free:
            image[v] = k
            yield from place(v + 1)

    return place(0)


def _fits(h, table, arrows) -> bool:
    return next(_images(h, table, arrows), None) is not None


def embeds(h, k_type) -> bool:
    """Whether some vertex map carries every pair color of ``h`` into the
    color set of its image vertex or edge (orientation included).

    Inside one class, a directed vertex set holding exactly one arrow accepts
    single arcs either way as long as the class's arcs stay acyclic.
    """
    check_graph_arity(h, k_type)
    return _fits(h, k_type.table, k_type.arrows)


def check_graph_arity(graph, k_type):
    """Raise ValueError unless the graph has the type's arity and, for a
    multicolor graph, its color count (``r`` is 0 on both directed sides)."""
    if graph.r != k_type.r:
        raise ValueError("graph arity does not match the type")


def in_admissible_set(k_type, family: PropertyFamily) -> bool:
    """Whether no forbidden graph embeds in the type."""
    if (k_type.r, k_type.palette) != (family.r, family.palette):
        raise ValueError("type arity does not match the family")
    return not any(embeds(h, k_type) for h in family.forbidden)


def _choices(family: PropertyFamily):
    """Vertex and edge set choices, ascending: nonempty (proper) submasks."""
    full = family.full_mask
    edge = [m for m in range(1, full + 1) if not m & ~full]
    return edge[:-1], edge


def _make(family, vsets, esets):
    if family.is_directed:
        return DirType(family.palette, vsets, esets)
    return RType(family.r, vsets, esets)


def _extension_needs(parent, family, vertex_choices, class_fits):
    """Per vertex choice, the minimal rows a new vertex must not cover.

    The parent is admissible, so a forbidden ``h`` embeds in the parent plus
    a new vertex only by putting a nonempty set J of its vertices on the new
    one: ``h[J]`` must fit one class with the new vertex set, and the rest of
    ``h`` must map into the parent.  Such a map fixes, per parent vertex x,
    the colors ``need[x]`` that the new edge set at x must hold, so a child
    whose row holds every ``need[x]`` is inadmissible, and every
    inadmissible child is caught this way.  ``class_fits`` caches, per
    forbidden graph and J, which vertex choices ``h[J]`` fits.
    """
    k = parent.k
    needs = [set() for _ in vertex_choices]
    for index, h in enumerate(family.forbidden):
        bits = _pair_bits(h)
        for image in _images(h, parent.table, parent.arrows, free=True):
            on_new = tuple(u for u in range(h.n) if image[u] == k)
            if not on_new:
                continue
            need = [0] * k
            for w in range(h.n):
                x = image[w]
                if x < k:
                    for u in on_new:
                        need[x] |= bits[w][u]
            fits = class_fits.get((index, on_new))
            if fits is None:
                sub = h.induced(on_new)
                fits = class_fits[index, on_new] = [
                    _fits(sub, ((vs,),), parent.arrows) for vs in vertex_choices]
            for choice, fit in zip(needs, fits):
                if fit:
                    choice.add(tuple(need))
    return [_minimal(choice) for choice in needs]


def _minimal(needs):
    """The needs that contain no other need."""
    kept = []
    for need in sorted(needs, key=lambda n: sum(map(int.bit_count, n))):
        if not any(all(not a & ~b for a, b in zip(small, need)) for small in kept):
            kept.append(need)
    return kept


def _free_rows(needs, edge_choices, width):
    """Every row of ``width`` edge choices that covers none of ``needs``."""
    rows = [((), (1 << len(needs)) - 1)]  # a prefix and the needs it may still cover
    for x in range(width):
        hits = [sum(1 << j for j, need in enumerate(needs) if not need[x] & ~e)
                for e in edge_choices]
        rows = [(row + (e,), live & hit) for row, live in rows
                for e, hit in zip(edge_choices, hits)]
    return [row for row, live in rows if not live]


def _child_key(table, vs, row, arrows):
    """Canonical key of the parent with mask table ``table`` plus a new
    vertex with set ``vs`` and edge sets ``row`` to the parent's vertices."""
    flat = []
    for parent_row, e in zip(table, row):
        flat += parent_row
        flat.append(e)
    flat += [_mirror(e, arrows) for e in row]
    flat.append(vs)
    return _min_encoding(flat, len(table) + 1)


def enumerate_types(family: PropertyFamily, kmax: int,
                    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING):
    """Yield every admissible type with at most ``kmax`` vertices, once per
    isomorphism class, in canonical labeling, ordered by vertex count and
    then by canonical encoding.

    Types on k vertices are built by extending the admissible types on k-1
    vertices (every restriction of an admissible type is admissible, so this
    loses nothing) by a vertex set and a row of edge sets.  A candidate is
    rejected when its row covers one of the parent's extension needs (see
    ``_extension_needs``); a type object is built only for a canonical key
    not seen before.  Refuses with :class:`EnumerationGuardError` when the
    raw candidate count would pass ``candidate_ceiling``.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    vertex_choices, edge_choices = _choices(family)
    make = functools.partial(_make, family)

    level = [t for t in (make((vs,), ()) for vs in vertex_choices)
             if in_admissible_set(t, family)]
    level.sort(key=lambda t: t.encoding())
    yield from level

    examined = len(vertex_choices)
    class_fits = {}
    for k in range(2, kmax + 1):
        examined += len(level) * len(vertex_choices) * len(edge_choices) ** (k - 1)
        if examined > candidate_ceiling:
            raise EnumerationGuardError(examined, candidate_ceiling)
        seen = {}
        for parent in level:
            table, arrows = parent.table, parent.arrows
            choice_needs = _extension_needs(parent, family, vertex_choices, class_fits)
            for vs, needs in zip(vertex_choices, choice_needs):
                for row in _free_rows(needs, edge_choices, k - 1):
                    key = _child_key(table, vs, row, arrows)
                    if key not in seen:
                        seen[key] = make(*key)
        level = sorted(seen.values(), key=lambda t: t.encoding())
        yield from level
