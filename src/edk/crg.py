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
    DiGraph,
    Palette,
    PropertyFamily,
    arcs_acyclic,
    pair_count,
    pair_index,
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
                table[y][x] = self._mirror(m)
        object.__setattr__(self, "table", tuple(map(tuple, table)))

    def _mirror(self, mask):
        arrows = mask & self.arrows
        return mask if arrows in (0, self.arrows) else mask ^ self.arrows

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
    table = k_type.table
    return min(_permuted_encoding(table, perm)
               for perm in itertools.permutations(range(k_type.k)))


def canonicalize(k_type):
    return k_type._like(*canonical_key(k_type))


@functools.lru_cache(maxsize=64)
def _pair_bits(h):
    """``bits[v][u]``: the bit of the pair {u, v}'s color as seen from v, in
    type masks (bit c-1 for color c, bit c for pair code c)."""
    low = 0 if isinstance(h, DiGraph) else 1
    return tuple(tuple(1 << (h.color(v, u) - low) if u != v else 0 for u in range(h.n))
                 for v in range(h.n))


def embeds(h, k_type) -> bool:
    """Whether some vertex map carries every pair color of ``h`` into the
    color set of its image vertex or edge (orientation included).

    Inside one class, a directed vertex set holding exactly one arrow accepts
    single arcs either way as long as the class's arcs stay acyclic.
    """
    if isinstance(h, DiGraph) != (k_type.palette is not None) or getattr(h, "r", 0) != k_type.r:
        raise ValueError("graph arity does not match the type")
    bits = _pair_bits(h)
    k, arrows, allowed = k_type.k, k_type.arrows, k_type.table
    ordered = [bin(allowed[x][x] & arrows).count("1") == 1 for x in range(k)]
    if any(ordered):
        allowed = [list(row) for row in allowed]
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
            return True
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
                if place(v + 1):
                    return True
                group.pop()
        return False

    return place(0)


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


def _extend_edges(parent_esets, row, k):
    """Edge layout for k vertices from a (k-1)-type plus the new vertex's row."""
    esets = []
    for a, b in pairs(k):
        if b == k - 1:
            esets.append(row[a])
        else:
            esets.append(parent_esets[pair_index(k - 1, a, b)])
    return tuple(esets)


def enumerate_types(family: PropertyFamily, kmax: int,
                    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING):
    """Yield every admissible type with at most ``kmax`` vertices, once per
    isomorphism class, in canonical labeling, ordered by vertex count and
    then by canonical encoding.

    Types on k vertices are built by extending the admissible types on k-1
    vertices (every restriction of an admissible type is admissible, so this
    loses nothing).  Refuses with :class:`EnumerationGuardError` when the raw
    candidate count would pass ``candidate_ceiling``.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    vertex_choices, edge_choices = _choices(family)

    level = []
    for vs in vertex_choices:
        t = _make(family, (vs,), ())
        if in_admissible_set(t, family):
            level.append(t)
    level.sort(key=lambda t: t.encoding())
    yield from level

    examined = len(vertex_choices)
    for k in range(2, kmax + 1):
        examined += len(level) * len(vertex_choices) * len(edge_choices) ** (k - 1)
        if examined > candidate_ceiling:
            raise EnumerationGuardError(examined, candidate_ceiling)
        seen = {}
        for parent in level:
            for vs in vertex_choices:
                vsets = parent.vertex_sets + (vs,)
                for row in itertools.product(edge_choices, repeat=k - 1):
                    cand = _make(family, vsets, _extend_edges(parent.edge_sets, row, k))
                    if not in_admissible_set(cand, family):
                        continue
                    key = canonical_key(cand)
                    if key not in seen:
                        seen[key] = _make(family, key[0], key[1])
        level = sorted(seen.values(), key=lambda t: t.encoding())
        yield from level
