"""Core data model: colored complete graphs, digraphs, palettes, densities,
forbidden families, and the induced-subgraph / membership / Hamming
primitives.  A family accepts only graphs of its arity and, for digraphs, of
its palette.

A multicolor graph is a complete graph on ``n`` labeled vertices whose
unordered pairs carry a color in ``1..r``.  A digraph is a complete graph
whose unordered pairs carry one of four states: no arc, arcs both ways, or a
single arc in either direction.  Both kinds store one state per pair
``{i, j}``, as seen from its smaller end ``i``, and each class has a table
``far``: ``far[c]`` is the state that a pair stored in state ``c`` shows from
its larger end.  On a digraph ``far`` is :data:`MIRROR`, which swaps the two
single arcs; on a multicolor graph it is the identity.  Both classes share
one body that reads, writes and relabels every pair through ``far``, so the
arc symmetries hold by construction and no code tests which class it has.

Pair states are the colors 1..r or the codes 0..3, and in color-set masks
state c sits at bit ``c - first_state``: bit c-1 for a color, bit c for a
pair code.  Each graph class carries its ``first_state``, and ``DiGraph``
carries ``r = 0``, so that code reading states works for both arities
without testing classes.  A family lists the states its members may use in
``states``, and a density gives each state's mass in bit order in
``masses``.

Induced copies are found by one matcher over neighborhood bitmasks (Python
ints, one per vertex and color, built in one pass over the pairs).  It maps
the small graph's vertices in order and tries candidates lowest vertex first,
so the copy it returns is the lexicographically least image; the exact oracle
relies on that order for reproducible witnesses.  Mapping a vertex narrows
the candidate sets of all later vertices at once (forward checking), a
branch that empties one of them is dropped, and the last vertex is read off
its candidate set instead of being branched on.  Neither step changes which
copy is found first.

All values are immutable and hashable, so they are safe to share across
concurrent workers.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

# Digraph pair codes, relative to the pair (i, j) with i < j.
NONEDGE = 0   # no arc either way
BIEDGE = 1    # arcs both ways
FWD = 2       # single arc i -> j
BWD = 3       # single arc j -> i

DIR_CODES = (NONEDGE, BIEDGE, FWD, BWD)
DIR_SYMBOL = {NONEDGE: "o", BIEDGE: "-", FWD: ">", BWD: "<"}
DIR_CODE_OF = {v: k for k, v in DIR_SYMBOL.items()}

ARROW_MASK = (1 << FWD) | (1 << BWD)

# MIRROR[c]: a pair stored in code c, read from its larger end (single arcs swap)
MIRROR = (NONEDGE, BIEDGE, BWD, FWD)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Index of pair {i, j}, i < j, in row-major upper-triangle order."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pairs(n: int):
    return itertools.combinations(range(n), 2)


@dataclass(frozen=True)
class Palette:
    """Allowed pair states for digraphs.

    The five palettes: ``full`` (all four states), ``compl`` (at least one
    arc per pair), ``orien`` (oriented graphs), ``undir`` (plain graphs) and
    ``tourn`` (tournaments).  Single arcs occur in pairs: a palette contains
    both arc directions or neither.
    """

    kind: str
    codes: frozenset

    def __post_init__(self):
        if (FWD in self.codes) != (BWD in self.codes):
            raise ValueError("palette must contain both arc directions or neither")
        if _PALETTE_CODES.get(self.kind) != self.codes:
            raise ValueError(f"unknown palette kind {self.kind!r} for codes {sorted(self.codes)}")

    @property
    def mask(self) -> int:
        m = 0
        for c in self.codes:
            m |= 1 << c
        return m

    @property
    def size(self) -> int:
        return len(self.codes)

    def __contains__(self, code: int) -> bool:
        return code in self.codes

    def sorted_codes(self):
        return tuple(sorted(self.codes))


_PALETTE_CODES = {
    "full": frozenset({NONEDGE, BIEDGE, FWD, BWD}),
    "compl": frozenset({BIEDGE, FWD, BWD}),
    "orien": frozenset({NONEDGE, FWD, BWD}),
    "undir": frozenset({NONEDGE, BIEDGE}),
    "tourn": frozenset({FWD, BWD}),
}

PALETTES = {kind: Palette(kind, codes) for kind, codes in _PALETTE_CODES.items()}

ARROW_PALETTES = ("full", "compl", "orien", "tourn")


def palette(kind: str) -> Palette:
    try:
        return PALETTES[kind]
    except KeyError:
        raise ValueError(f"unknown palette {kind!r}; expected one of {sorted(PALETTES)}") from None


class _GraphBody:
    """What ColoredGraph and DiGraph share: every pair is read, written and
    relabeled through the class's ``far`` table."""

    def _check_pair(self, i, j):
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"no pair ({i}, {j}) on {self.n} vertices")

    def color(self, i, j):
        """Pair state as seen from the ordered pair (i, j)."""
        self._check_pair(i, j)
        c = self.colors[pair_index(self.n, i, j)]
        return c if i < j else self.far[c]

    def permuted(self, perm):
        """Relabel vertices: new vertex v is old vertex perm[v].  A shorter
        ``perm`` keeps only its vertices."""
        color = self.color
        return replace(self, n=len(perm),
                       colors=tuple(color(perm[a], perm[b]) for a, b in pairs(len(perm))))

    def induced(self, subset):
        return self.permuted(sorted(subset))

    def recolored(self, i, j, state):
        """The graph with pair (i, j) in ``state`` as seen from i."""
        self._check_pair(i, j)
        if i > j:
            # a state with no far entry is left for validation to refuse
            i, j, state = j, i, self.far[state] if state in self.far else state
        colors = list(self.colors)
        colors[pair_index(self.n, i, j)] = state
        return replace(self, colors=tuple(colors))


@dataclass(frozen=True)
class ColoredGraph(_GraphBody):
    """An r-edge-coloring of the complete graph on n labeled vertices."""

    n: int
    r: int
    colors: tuple

    first_state = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.r < 2:
            raise ValueError("need at least 2 colors")
        if len(self.colors) != pair_count(self.n):
            raise ValueError("wrong number of pair colors")
        if self.colors and not 1 <= min(self.colors) <= max(self.colors) <= self.r:
            bad = next(c for c in self.colors if not 1 <= c <= self.r)
            raise ValueError(f"color {bad} out of range 1..{self.r}")

    @functools.cached_property
    def far(self):
        """The identity on 0..r: a color reads the same from both ends."""
        return tuple(range(self.r + 1))

    @classmethod
    def from_color_map(cls, n, r, mapping):
        """Build from a map of pairs (i, j) with i < j to colors."""
        colors = [0] * pair_count(n)
        for (i, j), c in mapping.items():
            colors[pair_index(n, i, j)] = c
        return cls(n, r, tuple(colors))

    @classmethod
    def complete(cls, n, r, color):
        return cls(n, r, (color,) * pair_count(n))


@dataclass(frozen=True)
class DiGraph(_GraphBody):
    """A complete labeled graph whose pairs carry one of the four arc states."""

    n: int
    colors: tuple

    first_state = NONEDGE
    r = 0
    far = MIRROR

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.colors) != pair_count(self.n):
            raise ValueError("wrong number of pair colors")
        if not _PALETTE_CODES["full"].issuperset(self.colors):
            bad = next(c for c in self.colors if c not in DIR_CODES)
            raise ValueError(f"bad digraph pair code {bad!r}")

    @classmethod
    def from_color_map(cls, n, mapping, default=NONEDGE):
        colors = [default] * pair_count(n)
        for (i, j), c in mapping.items():
            if i > j:
                i, j, c = j, i, MIRROR[c] if c in MIRROR else c
            colors[pair_index(n, i, j)] = c
        return cls(n, tuple(colors))

    @classmethod
    def from_arcs(cls, n, arcs, absent=NONEDGE):
        """Build from a set of ordered arcs; opposite arcs merge into BIEDGE."""
        arcset = set(arcs)
        mapping = {}
        for i, j in pairs(n):
            fwd = (i, j) in arcset
            bwd = (j, i) in arcset
            if fwd and bwd:
                mapping[(i, j)] = BIEDGE
            elif fwd:
                mapping[(i, j)] = FWD
            elif bwd:
                mapping[(i, j)] = BWD
            else:
                mapping[(i, j)] = absent
        return cls.from_color_map(n, mapping)

    def fits_palette(self, pal: Palette) -> bool:
        return pal.codes.issuperset(self.colors)


def rational(value) -> Fraction:
    """``Fraction(value)``; a zero denominator is a ``ValueError`` naming the
    entry instead of a bare ``ZeroDivisionError``."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


@dataclass(frozen=True)
class DensityVector:
    """Exact color densities p_1..p_r, nonnegative and summing to one."""

    entries: tuple

    palette = None

    def __post_init__(self):
        total = Fraction(0)
        for p in self.entries:
            if not isinstance(p, Fraction):
                raise ValueError("density entries must be Fractions")
            if p < 0:
                raise ValueError("density entries must be nonnegative")
            total += p
        if total != 1:
            raise ValueError(f"densities sum to {total}, expected 1")

    @classmethod
    def of(cls, *values):
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def uniform(cls, r):
        return cls((Fraction(1, r),) * r)

    @property
    def r(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @property
    def masses(self):
        """Each color's density, in mask-bit order."""
        return tuple(self.entries)

    def graph(self, n, bits):
        """The graph on ``n`` vertices whose pairs, in pair order, carry the
        colors at the mask bits ``bits``."""
        return ColoredGraph(n, self.r, tuple(b + ColoredGraph.first_state for b in bits))


@dataclass(frozen=True)
class DirDensity:
    """Directed densities: p for both-way pairs, q shared by each arc direction.

    The remaining mass 1 - p - 2q is the no-arc density.  A palette allows
    only densities with no mass on the states it leaves out: so ``compl``
    forces p + 2q = 1, ``orien`` p = 0, ``undir`` q = 0, and ``tourn`` pins
    (p, q) = (0, 1/2).  ``r = 0``, as on :class:`DiGraph`, so that densities
    of both arities compare by ``(r, palette)``.
    """

    p: Fraction
    q: Fraction
    palette: Palette

    r = 0

    def __post_init__(self):
        p, q = self.p, self.q
        if not (isinstance(p, Fraction) and isinstance(q, Fraction)):
            raise ValueError("densities must be Fractions")
        if p < 0 or q < 0 or p + 2 * q > 1:
            raise ValueError("need p >= 0, q >= 0 and p + 2q <= 1")
        outside = [DIR_SYMBOL[c] for c, m in enumerate(self.masses) if m and c not in self.palette]
        if outside:
            raise ValueError(f"{self.palette.kind} palette needs zero density on "
                             + " and ".join(outside))

    @classmethod
    def of(cls, p, q, pal):
        if isinstance(pal, str):
            pal = palette(pal)
        return cls(Fraction(p), Fraction(q), pal)

    @property
    def nonedge(self):
        return 1 - self.p - 2 * self.q

    @property
    def masses(self):
        """Each pair code's density, in mask-bit order (each arc direction q)."""
        return (self.nonedge, self.p, self.q, self.q)

    def graph(self, n, bits):
        """The digraph on ``n`` vertices whose pairs, in pair order, carry the
        codes at the mask bits ``bits``."""
        return DiGraph(n, tuple(bits))

    def by_code(self):
        """Densities indexed by pair code."""
        return {NONEDGE: self.nonedge, BIEDGE: self.p, FWD: self.q, BWD: self.q}


@dataclass(frozen=True)
class PropertyFamily:
    """A finite forbidden family defining a hereditary property.

    Either multicolor (``r`` set, palette None) or directed (palette set).
    The property is the set of graphs containing no induced copy of any
    forbidden graph.
    """

    forbidden: tuple
    r: int = 0
    palette: Palette = None

    def __post_init__(self):
        if not self.forbidden:
            raise ValueError("forbidden family must be nonempty")
        if (self.r == 0) == (self.palette is None):
            raise ValueError("family is either multicolor (r) or directed (palette)")
        for h in self.forbidden:
            self.check_graph(h)
            if h.n < 1:
                raise ValueError("forbidden graphs need at least one vertex")

    @classmethod
    def multicolor(cls, r, graphs):
        return cls(tuple(graphs), r=r)

    @classmethod
    def directed(cls, pal, graphs):
        if isinstance(pal, str):
            pal = palette(pal)
        return cls(tuple(graphs), palette=pal)

    @property
    def is_directed(self):
        return self.palette is not None

    @property
    def min_forbidden_order(self):
        return min(h.n for h in self.forbidden)

    @property
    def states(self) -> tuple:
        """The pair states a member may use, in mask-bit order."""
        return self.palette.sorted_codes() if self.is_directed else tuple(range(1, self.r + 1))

    @property
    def full_mask(self) -> int:
        """Bitmask of every color (bit c-1) or palette pair state (bit c)."""
        return self.palette.mask if self.is_directed else (1 << self.r) - 1

    def matches(self, graph) -> bool:
        """Whether a graph has this family's arity and, for digraphs, keeps
        to its palette."""
        if self.is_directed:
            return isinstance(graph, DiGraph) and graph.fits_palette(self.palette)
        return isinstance(graph, ColoredGraph) and graph.r == self.r

    def check_graph(self, graph):
        """Raise ValueError unless :meth:`matches` holds."""
        if not self.matches(graph):
            if self.is_directed and isinstance(graph, DiGraph):
                raise ValueError(f"graph uses pair states outside palette {self.palette.kind}")
            raise ValueError("graph arity does not match the family")


def _check_same_arity(g, h):
    if g.r != h.r:
        raise ValueError("color counts differ" if g.r and h.r else "graphs are of different kinds")


def induced(graph, subset):
    """Restriction to a vertex subset, relabeled 0..len(subset)-1 in order."""
    return graph.induced(subset)


def neighborhood_masks(graph):
    """Neighbourhood bitmasks of a graph, read once per pair.

    ``masks[c][x]`` has bit ``y`` set when the pair {x, y} has state ``c`` as
    seen from ``x``: the stored state at the smaller end, its ``far`` entry
    at the larger.
    """
    n = graph.n
    back = graph.far
    masks = [[0] * n for _ in back]
    pair_colors = iter(graph.colors)
    for i in range(n):
        bit_i = 1 << i
        for j in range(i + 1, n):
            c = next(pair_colors)
            masks[c][i] |= 1 << j
            masks[back[c]][j] |= bit_i
    return masks


def find_induced(masks, small, banned=None, every=None):
    """The lexicographically least injective image of ``small``'s vertices
    under which every pair keeps its color exactly, or None.

    ``masks`` are the big graph's :func:`neighborhood_masks`, which hold no
    vertex's own bit.  Vertices are mapped in order and candidates are tried
    lowest bit first.  Mapping vertex v to x ANDs x's neighborhood in each
    required color into the candidate set of every later vertex (forward
    checking), and a branch that leaves one of them empty is dropped; such a
    branch holds no copy, so the least copy is still the one returned.  The
    last vertex is not branched on: the second-to-last level takes the
    lowest bit of the last candidate set left nonempty.  ``banned[x]``, when
    given, is a mask of partners that no copy may pair with ``x``.  With a
    list ``every``, the search appends every image to it in lexicographic
    order instead, and returns None.
    """
    n, h = len(masks[0]), small.n
    if h > n:
        return None
    if h < 2:
        if every is None:
            return tuple(range(h))
        every.extend(itertools.permutations(range(n), h))
        return None
    cols = _later_colors(small)
    image = [0] * h
    last = h - 2

    def extend(v, cand, later):
        """Map vertices v.. given their candidate sets: ``cand`` for v and
        ``later`` for v + 1 .. h - 1."""
        if v == last:
            tail, row = later[0], masks[cols[v][0]]
            while cand:
                low = cand & -cand
                x = low.bit_length() - 1
                ends = tail & row[x]
                if ends and banned:
                    ends &= ~banned[x]
                if ends:
                    if every is None:
                        image[v], image[v + 1] = x, (ends & -ends).bit_length() - 1
                        return True
                    head = (*image[:v], x)
                    while ends:
                        end = ends & -ends
                        every.append(head + (end.bit_length() - 1,))
                        ends ^= end
                cand ^= low
            return False
        colors = cols[v]
        while cand:
            low = cand & -cand
            x = low.bit_length() - 1
            keep = ~banned[x] if banned else -1
            nxt = [d & masks[c][x] & keep for d, c in zip(later, colors)]
            if all(nxt):
                image[v] = x
                if extend(v + 1, nxt[0], nxt[1:]):
                    return True
            cand ^= low
        return False

    everyone = (1 << n) - 1
    return tuple(image) if extend(0, everyone, [everyone] * (h - 1)) else None


@functools.lru_cache(maxsize=64)
def _later_colors(small):
    """``cols[v][k]``: the color the pair {v, v + 1 + k} must keep, as seen
    from v."""
    return tuple(tuple(small.color(v, w) for w in range(v + 1, small.n))
                 for v in range(small.n))


def contains_induced(big, small) -> bool:
    """Whether some injective vertex map carries ``small`` into ``big``
    preserving every pair color exactly (arc orientation included)."""
    _check_same_arity(big, small)
    return find_induced(neighborhood_masks(big), small) is not None


def is_member(graph, family: PropertyFamily) -> bool:
    """Membership in the hereditary property: no forbidden graph occurs induced."""
    family.check_graph(graph)
    masks = neighborhood_masks(graph)
    return all(find_induced(masks, h) is None for h in family.forbidden)


def hamming(g, g2) -> int:
    """Number of pairs on which the colors differ."""
    _check_same_arity(g, g2)
    if g.n != g2.n:
        raise ValueError("vertex counts differ")
    return sum(map(operator.ne, g.colors, g2.colors))


def hamming_normalized(g, g2) -> Fraction:
    if g.n < 2:
        raise ValueError("need at least 2 vertices to normalize")
    return Fraction(hamming(g, g2), pair_count(g.n))


def color_density(graph):
    """Exact pair densities, one per state in state order.

    Multicolor graphs give a DensityVector; digraphs give the 4-tuple of
    densities in pair-code order (no-arc, both-ways, forward, backward).
    """
    if graph.n < 2:
        raise ValueError("density needs at least 2 vertices")
    m = pair_count(graph.n)
    dens = tuple(Fraction(graph.colors.count(s), m)
                 for s in range(graph.first_state, len(graph.far)))
    return DensityVector(dens) if graph.r else dens


def dir_density(graph: DiGraph, pal) -> DirDensity:
    """Collapse a digraph's pair densities to the (p, q) parameterization,
    averaging the two arc directions."""
    if isinstance(pal, str):
        pal = palette(pal)
    dens = color_density(graph)
    return DirDensity(dens[BIEDGE], (dens[FWD] + dens[BWD]) / 2, pal)
