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

Enumeration grows admissible types one vertex at a time, and only by a
vertex that ranks first in the child: its vertex set is the largest, and
among the vertices with that set, the multiset of masks it sees is the
largest.  The rank does not depend on labels, so every type still arises,
from deleting one of its first-ranked vertices, and most of the other ways
of building it are never tried.  Because the parent is admissible, a child
can fail only through an embedding that uses the new vertex; per parent,
those embeddings reduce to a short list of edge rows the new vertex must not
cover, so a candidate is tested by a few mask comparisons.  Such an
embedding maps onto some set S of parent vertices plus the new vertex, and
what it asks of the row depends only on the parent's mask table on S.  So
one enumeration call walks each distinct table on a proper subset once, for
every parent that holds it, and builds the free rows once per level for
each distinct list of needs.  A candidate's canonical key is read off a
flat tuple of masks by itemgetters, one per vertex permutation that sorts
the vertex sets (the least encoding starts with them), built once per
pattern of tied sets.  A type object is built only once per key.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass, field, replace

from .errors import EnumerationGuardError
from .graphs import (
    ARROW_MASK,
    BWD,
    DIR_CODES,
    FWD,
    MIRROR,
    Palette,
    PropertyFamily,
    pair_count,
    pairs,
)

DEFAULT_CANDIDATE_CEILING = 5_000_000


def color_set_mask(colors, r=None) -> int:
    """Bitmask for a set of multicolor colors (1..r)."""
    return dir_set_mask(c - 1 for c in colors)


def mask_colors(mask: int):
    """Multicolor colors present in a bitmask, ascending."""
    return tuple(c for c in range(1, mask.bit_length() + 1) if mask >> (c - 1) & 1)


def dir_set_mask(codes) -> int:
    return functools.reduce(operator.or_, (1 << c for c in codes), 0)


def dir_mask_codes(mask: int):
    return tuple(c for c in DIR_CODES if mask & (1 << c))


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
        back = tuple(map(_MIRROR.__getitem__, self.edge_sets)) if self.arrows else self.edge_sets
        cells = self.vertex_sets + self.edge_sets + back
        object.__setattr__(self, "table", tuple(row(cells) for row in _row_readers(k)))

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


# a directed pair's mask seen from its other end: single arcs swap
_MIRROR = tuple(sum(1 << MIRROR[c] for c in DIR_CODES if m >> c & 1) for m in range(16))


@functools.lru_cache(maxsize=None)
def _row_readers(k):
    """Per vertex x, a function reading row x of the mask table off the
    vertex sets, then the edge sets, then the edge sets seen from the far
    end, in one tuple."""
    if k == 1:
        return [lambda cells: cells[:1]]
    index = {(x, x): x for x in range(k)}
    for i, (x, y) in enumerate(pairs(k), k):
        index[x, y], index[y, x] = i, i + pair_count(k)
    return [operator.itemgetter(*(index[x, y] for y in range(k))) for x in range(k)]


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


def canonical_key(k_type):
    """Lexicographically minimal encoding over all vertex permutations.

    The vertex sets come first in the encoding, so only the permutations
    that sort them can reach the minimum, and only those are tried: each
    order of each run of equal sets (``_key_reader``).  The type is read as
    ``enumerate_types`` reads a child: its first k-1 vertices, sorted by
    vertex set, plus vertex k-1."""
    k = k_type.k
    if k < 2:
        return k_type.encoding()
    table, vsets = k_type.table, k_type.vertex_sets
    head, last = sorted(range(k - 1), key=vsets.__getitem__), k - 1
    flat = tuple(table[x][y] for x in head for y in head)
    (key,) = _child_keys(flat, tuple(vsets[x] for x in head), vsets[last],
                         [(tuple(table[x][last] for x in head),
                           tuple(table[last][x] for x in head))])
    return key[:k], key[k:]


def _child_keys(flat, vsets, vs, rows):
    """Per row and its mirror (the row seen from the new vertex) in
    ``rows``, the canonical key (vertex sets, then edge sets, in one tuple)
    of a parent with flat mask table ``flat`` and sorted vertex sets
    ``vsets`` plus a new vertex with set ``vs`` and that row of edge sets."""
    slot = bisect.bisect_right(vsets, vs)
    key = _key_reader(tuple(len(tuple(run)) for _, run in
                            itertools.groupby(sorted(vsets + (vs,)))), slot)
    tail = (vs,)
    return map(key, [flat + row + back + tail for row, back in rows])


@functools.lru_cache(maxsize=1024)
def _key_reader(runs, slot):
    """The least encoding of a flat table (the first k-1 vertices' table,
    then vertex k-1's column, row and vertex set), as a function; the first
    k-1 vertex sets are sorted, vertex k-1 sorts to ``slot`` after equal
    ones, and ``runs`` are the lengths of the runs of equal sets.  It reads
    one itemgetter per permutation that reorders each run within itself."""
    k = sum(runs)
    cells = ([(x, y) for x in range(k - 1) for y in range(k - 1)]
             + [(x, k - 1) for x in range(k - 1)] + [(k - 1, y) for y in range(k)])
    index = {cell: i for i, cell in enumerate(cells)}
    order = [*range(slot), k - 1, *range(slot, k - 1)]
    blocks = [itertools.permutations(order[end - length:end])
              for length, end in zip(runs, itertools.accumulate(runs))]
    perms = (sum(parts, ()) for parts in itertools.product(*blocks))
    getters = [operator.itemgetter(*(index[x, x] for x in perm),
                                   *(index[perm[a], perm[b]] for a, b in pairs(k)))
               for perm in perms]
    return getters[0] if len(getters) == 1 else lambda flat: min([g(flat) for g in getters])


def canonicalize(k_type):
    return k_type._like(*canonical_key(k_type))


@functools.lru_cache(maxsize=64)
def _pair_bits(h):
    """``bits[v][u]``: the bit of the pair {u, v}'s color as seen from v, in
    type masks (bit c-1 for color c, bit c for pair code c)."""
    first = h.first_state
    return tuple(tuple(1 << (h.color(v, u) - first) if u != v else 0 for u in range(h.n))
                 for v in range(h.n))


def _images(h, table, arrows, fits=None):
    """Yield every vertex map of ``h`` into the type with mask table
    ``table`` that carries each pair color into the set of its image vertex
    or edge (one-arrow classes as in ``embeds``), as one list rewritten
    between yields.

    With ``fits`` (a :class:`_ClassFits` of ``h``), the maps are those
    ``_extension_needs`` reads: an extra target vertex ``len(table)`` takes
    every pair that touches it, and two prunes cut the walk without losing
    a map that can give a need.  Onto: a map must use every target, the
    extra one too, so a partial map stops once fewer vertices are left than
    targets it has not used, and once exactly as many are left, the next
    vertex goes only on an unused target.  Fit: a vertex goes on the extra
    target only while the vertices there, J, fit one class of some vertex
    choice (``fits[J]`` is not 0).  A map whose J fits no choice gives no
    need, and fitting is hereditary (a map of ``h[J]`` restricts to every
    ``h[J']``, J' in J), so no completion of a cut map gives one.  The test
    reads every choice, not only those a parent extends by, because one
    walk serves every parent that shares the sub-table.
    """
    bits = _pair_bits(h)
    n, k = h.n, len(table)
    ordered = [bin(table[x][x] & arrows).count("1") == 1 for x in range(k)]
    allowed = [list(row) + [-1] for row in table]  # -1: the free target's column
    for x in range(k):
        if ordered[x]:
            allowed[x][x] |= arrows
    image = [0] * n
    members = [0] * (k + 1)  # a bitmask of the vertices placed on each target
    if arrows:
        out, into = ([sum(1 << u for u, b in enumerate(row) if b == 1 << code) for row in bits]
                     for code in (FWD, BWD))

    def closes_cycle(v, group):
        """Whether v closes a cycle of arcs in an acyclic class ``group``:
        some out-neighbour of v reaches an in-neighbour inside it."""
        reach = todo = out[v] & group
        while todo:
            u = todo & -todo
            todo ^= u
            step = out[u.bit_length() - 1] & group & ~reach
            reach |= step
            todo |= step
        return reach & into[v]

    def place(v):
        tight = False
        if fits is not None:
            unused = members.count(0)
            if unused > n - v:
                return
            tight = unused == n - v  # then v must go on a target not used yet
        if v == n:
            yield image
            return
        row = bits[v]
        for x in range(k):
            if tight and members[x]:
                continue
            seen = allowed[x]
            for u in range(v):
                if not row[u] & seen[image[u]]:
                    break
            else:
                if ordered[x] and closes_cycle(v, members[x]):
                    continue
                image[v] = x
                members[x] |= 1 << v
                yield from place(v + 1)
                members[x] ^= 1 << v
        if fits is not None and not (tight and members[k]) and fits[members[k] | 1 << v]:
            image[v] = k
            members[k] |= 1 << v
            yield from place(v + 1)
            members[k] ^= 1 << v

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


class _ClassFits(dict):
    """Per bitmask J of the vertices of ``h``, the vertex choices (bit i for
    ``choices[i]``) whose one-vertex class ``h[J]`` fits, computed when first
    read.  A choice fits J only if it fits J less its top vertex, which the
    walk in ``_images`` reads first, so only those are tested."""

    def __init__(self, h, choices, arrows):
        super().__init__()
        self.h, self.choices, self.arrows = h, choices, arrows

    def __missing__(self, group):
        top = 1 << (group.bit_length() - 1)
        live = self[group ^ top] if group ^ top else (1 << len(self.choices)) - 1
        sub = self.h.induced([u for u in range(self.h.n) if group >> u & 1])
        fit = self[group] = sum(1 << i for i, vs in enumerate(self.choices)
                                if live >> i & 1 and _fits(sub, ((vs,),), self.arrows))
        return fit


def _onto_needs(class_fits, table):
    """The needs, each a tuple with one field per vertex of ``table``, of
    the maps of the forbidden graphs onto the type with mask table
    ``table`` plus a new vertex (``_images`` with ``fits``), each with the
    vertex choices it holds for (bit i for choice i) joined over its maps."""
    k = len(table)
    found = {}
    for fits in class_fits:
        h = fits.h
        bits = _pair_bits(h)
        for image in _images(h, table, fits.arrows, fits):
            on_new = [u for u in range(h.n) if image[u] == k]
            fields = [0] * k
            for w, x in enumerate(image):
                if x < k:
                    for u in on_new:
                        fields[x] |= bits[w][u]
            need = tuple(fields)
            found[need] = found.get(need, 0) | fits[sum(1 << u for u in on_new)]
    return found


def _extension_needs(parent, class_fits, memo, first, span):
    """Per vertex choice from ``first`` on, the minimal rows a new vertex
    must not cover, each packed into one int with one field, as wide as a
    mask (``span`` bits), per parent vertex.

    The parent is admissible, so a forbidden ``h`` embeds in the parent plus
    a new vertex only by putting a nonempty set J of its vertices on the new
    one: ``h[J]`` must fit one class with the new vertex set, and the rest of
    ``h`` must map into the parent.  Such a map fixes, per parent vertex x,
    the colors ``need[x]`` that the new edge set at x must hold, so a child
    whose row holds every ``need[x]`` is inadmissible, and every
    inadmissible child is caught this way.  ``class_fits`` holds one
    :class:`_ClassFits` per forbidden graph.

    Each such map is onto S plus the new vertex for exactly one set S of
    parent vertices, its image set, with at most ``h.n - 1`` vertices and
    possibly empty (all of ``h`` on the new vertex: a need with no field,
    which rules the choice out).  Whether a map onto S passes, and the need
    it gives, read only the parent's table on S, diagonal included.  So the
    needs are the union, over such S, of ``_onto_needs`` of that sub-table
    with field i moved to field S[i], and that union is the set a walk of
    every map into the parent plus the new vertex collects.  ``memo`` maps
    a sub-table on a proper subset to its ``_onto_needs``, for the parents
    of one ``enumerate_types`` call; the whole table is walked directly.
    """
    k, table = parent.k, parent.table
    largest = max(fits.h.n for fits in class_fits) - 1
    found = {}
    for size in range(min(k, largest) + 1):
        for subset in itertools.combinations(range(k), size):
            if size == k:
                needs = _onto_needs(class_fits, table)
            else:
                sub = tuple(tuple(table[x][y] for y in subset) for x in subset)
                needs = memo.get(sub)
                if needs is None:
                    needs = memo[sub] = _onto_needs(class_fits, sub)
            shifts = [span * x for x in subset]
            for fields, fit in needs.items():
                need = sum(map(operator.lshift, fields, shifts))
                found[need] = found.get(need, 0) | fit
    kept = _minimal(found)
    return [[need for need, fit in kept if fit >> i & 1]
            for i in range(first, len(class_fits[0].choices))]


def _minimal(found):
    """The needs of ``found`` (need -> a bitmask of the choices it holds
    for) that contain no other need of some choice, each with those choices.
    Taken by size, a need loses the choices kept by a smaller need inside
    it.  That is enough: a smaller need that holds for a choice either keeps
    it or contains a still smaller one that does."""
    kept = []
    for need in sorted(found, key=int.bit_count):
        fit = found[need]
        for small, held in kept:
            if not small & ~need:
                fit &= ~held
        if fit:
            kept.append((need, fit))
    return kept


def _free_rows(needs, edge_choices, width):
    """Every row of ``width`` edge choices that covers none of ``needs``
    (packed as ``_extension_needs`` packs them), in product order.  Rows
    grow one position at a time, and a prefix is dropped once it covers a
    need with no nonzero field left after it: every row it starts does."""
    full = edge_choices[-1]
    span = full.bit_length()
    later = [0] * (width + 1)  # the needs with a nonzero field at x or beyond
    for x in reversed(range(width)):
        later[x] = later[x + 1] | sum(1 << j for j, need in enumerate(needs)
                                      if need >> span * x & full)
    rows = [((), (1 << len(needs)) - 1)]  # a prefix and the needs it may still cover
    for x in range(width):
        shift, done = span * x, ~later[x + 1]
        hits = [sum(1 << j for j, need in enumerate(needs) if not need >> shift & full & ~e)
                for e in edge_choices]
        rows = [(row + (e,), live & hit) for row, live in rows
                for e, hit in zip(edge_choices, hits) if not live & hit & done]
    return [row for row, _ in rows]


def _scores(table, power):
    """Per vertex, ``power[m]`` summed over the masks m it sees in its row of
    ``table``.  With ``power[m] = k**m`` on at most k vertices, no mask is
    seen k times, so the score encodes the multiset of those masks."""
    return [sum(map(power.__getitem__, row)) - power[row[x]] for x, row in enumerate(table)]


def _first_ranked(rows, scores, power):
    """The rows (with their mirrors) whose new vertex scores at least as high
    as each of the parent's last ``len(scores)`` vertices, which have its
    vertex set and scored ``scores`` without it."""
    tied = -len(scores)
    return [(row, back) for row, back in rows
            if sum(map(power.__getitem__, back))
            >= max(map(operator.add, scores, map(power.__getitem__, row[tied:])))]


def enumerate_types(family: PropertyFamily, kmax: int,
                    candidate_ceiling: int = DEFAULT_CANDIDATE_CEILING):
    """Yield every admissible type with at most ``kmax`` vertices, once per
    isomorphism class, in canonical labeling, ordered by vertex count and
    then by canonical encoding.

    Types on k vertices are built by extending the admissible types on k-1
    vertices by a vertex set and a row of edge sets, but only by a vertex
    that ranks first in the child: no other vertex has a larger vertex set,
    and none with the same set scores higher (``_scores``: the multiset of
    masks a vertex sees).  This loses nothing.  Take a type T and a
    first-ranked vertex v: T - v is admissible (every restriction of an
    admissible type is), so its canonical form P is a parent; v's set is at
    least P's largest, and v's score, which does not depend on labels, is
    at least that of each vertex tied with it, so the extension of P that
    rebuilds T is tried.  A candidate is rejected when its row covers one of
    the parent's extension needs (see ``_extension_needs``, whose walks of
    proper sub-tables serve every parent of the call), and the rows free of
    one list of needs are built once per level; a type object is built once
    per canonical key, from the level's sorted keys.  Refuses
    with :class:`EnumerationGuardError` when the raw candidate count would
    pass ``candidate_ceiling``.
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
    arrows = ARROW_MASK if family.is_directed else 0
    class_fits = [_ClassFits(h, vertex_choices, arrows) for h in family.forbidden]
    span = edge_choices[-1].bit_length()
    memo = {}
    mirror = _MIRROR.__getitem__ if arrows else None
    for k in range(2, kmax + 1):
        examined += len(level) * len(vertex_choices) * len(edge_choices) ** (k - 1)
        if examined > candidate_ceiling:
            raise EnumerationGuardError(examined, candidate_ceiling)
        power = [k ** m for m in range(edge_choices[-1] + 1)]
        seen = set()
        free = {}  # per set of needs, its free rows on this level, with their mirrors
        for parent in level:
            flat = tuple(itertools.chain.from_iterable(parent.table))
            vsets = parent.vertex_sets
            first = bisect.bisect_left(vertex_choices, vsets[-1])
            scores = _scores(parent.table, power)[bisect.bisect_left(vsets, vsets[-1]):]
            choice_needs = _extension_needs(parent, class_fits, memo, first, span)
            for vs, needs in zip(vertex_choices[first:], choice_needs):
                key = frozenset(needs)
                rows = free.get(key)
                if rows is None:
                    rows = free[key] = [(row, row if mirror is None else tuple(map(mirror, row)))
                                        for row in _free_rows(needs, edge_choices, k - 1)]
                if vs == vsets[-1]:
                    rows = _first_ranked(rows, scores, power)
                seen.update(_child_keys(flat, vsets, vs, rows))
        del free
        keys = sorted(seen)
        del seen
        # the last level has no children, so its types are built as they are yielded
        level = (make(key[:k], key[k:]) for key in keys)
        if k < kmax:
            level = list(level)
        yield from level
