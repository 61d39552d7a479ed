"""Ground truth at desk scale: exact edit distance by branch and bound,
seeded random graph samplers, and Monte Carlo estimation.

Both arities share one path: the search branches over the family's
``states``, the sampler draws each pair's state from the density's
``masses`` (see ``graphs``), and the estimate edits by the one editor of
``editing``.  ``sample_rgraph`` and ``sample_digraph`` are the same sampler
under the two arities' names.

The exact search finds one induced forbidden copy, then branches on giving
each of its pairs each different allowed color; some pair of any copy must
change in every solution, so the search is complete.  Branched pairs freeze
along a branch, which removes overlap between sibling subtrees.  The bound
at a node is the least number of unfrozen pairs that meet every forbidden
copy of its colors, a hitting set: each copy needs a change, and only its
unfrozen pairs may change below the node.  A copy on frozen pairs only
makes the node dead.

The search runs in deepening rounds (IDA*).  The first limit is the root's
bound.  A round cuts every node whose cost plus bound passes the limit and
stops at its first leaf.  A node only asks whether some hitting set fits
within the limit less its cost, so a cut node reaches the limit plus one.
So a round that finds no leaf raises the limit by one, and no limit passes
the optimum: the leaf found is optimal.  Deepening pays when members exist
on every vertex count, which holds when the family has an admissible
one-vertex type (the level-1 test of ``enumerate_types``).  A family
without one has members of bounded size only; on a larger graph no round
finds a leaf, so each round would repeat the whole search.  Such a family
gets one round without a limit, which lowers the limit below each leaf it
finds (branch and bound); it solves no hitting set at the root, where its
floor is a greedy packing of pair-disjoint copies.

The working colors' neighborhood bitmasks are built once per call and kept
current: a recoloring, and its undo, flips two bits at each end of the pair.
The copy search reads them through the matcher in ``graphs``.  A copy is
held as the mask of its pairs' indices, and the root lists all of them.  A
node knows its least copy and the copies its parent knew that its
recoloring left intact.  It solves a hitting set of those by bit
operations, then asks the matcher for a copy that avoids the set's pairs,
banned through per-vertex masks of partners.  A copy found joins the known
ones and the set is solved again, until none is found or none fits (the
implicit hitting set method of Moreno-Centeno and Karp).  So the node
reads the least hitting set of all its copies while the matcher finds only
the few that a set misses, and its children inherit them.

The matcher returns the lexicographically least copy, so the branch order is
fixed by the input.  Any change set that reaches a member below a node
changes an unfrozen pair of every copy there, so the bound is admissible at
every node although the copies a node knows depend on the path there.  An
admissible bound never cuts the path to the first optimal leaf in that
order, so the edit count and the witness do not depend on the limits or on
which copies a node knew.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import random
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

from .crg import enumerate_types
from .distance import dist_upper
from .editing import _random_edit, sample_partition
from .errors import SizeGuardError, UsageError
from .graphs import (
    ColoredGraph,
    DensityVector,
    DiGraph,
    DirDensity,
    PropertyFamily,
    find_induced,
    neighborhood_masks,
    pair_count,
    pair_index,
    pairs,
)

DEFAULT_GUARD_MULTICOLOR = 9
DEFAULT_GUARD_DIRECTED = 8

GUARD_ENV = "EDK_GUARD_N"


def size_guard(family: PropertyFamily) -> int:
    env = os.environ.get(GUARD_ENV)
    if env:
        try:
            limit = int(env)
        except ValueError:
            raise UsageError(f"{GUARD_ENV} must be an integer, got {env!r}") from None
        if limit < 1:
            raise UsageError(f"{GUARD_ENV} must be at least 1, got {limit}")
        return limit
    return DEFAULT_GUARD_DIRECTED if family.is_directed else DEFAULT_GUARD_MULTICOLOR


def _find_copy(family, masks, banned=None):
    """The least image of the first forbidden graph with an induced copy
    that uses no banned pair, or None."""
    for small in family.forbidden:
        image = find_induced(masks, small, banned)
        if image is not None:
            return image
    return None


def _packing(copies, cap=None):
    """How many of the pair masks ``copies`` a greedy pass takes pairwise
    disjoint: each needs a pair of its own, so this bounds their least
    hitting set.  With a ``cap``, the pass stops at ``cap + 1``."""
    taken = count = 0
    for mask in copies:
        if not mask & taken:
            if count == cap:
                return count + 1
            taken |= mask
            count += 1
    return count


def _hitting_set(copies, budget):
    """A mask of at most ``budget`` pairs that meets every pair mask in
    ``copies``, or None.  Some pair of the first mask is in any such set:
    branch on each, highest bit first, over the masks it misses.  A pair
    whose branch failed is in no set within the budget, so the later
    branches drop it from every mask; with a budget of one, the set is the
    highest pair common to all the masks, which is what the branches find."""
    if _packing(copies, budget) > budget:
        return None
    if not copies:
        return 0
    if budget == 1:
        common = functools.reduce(operator.and_, copies)
        return 1 << (common.bit_length() - 1) if common else None
    first, keep = copies[0], -1
    while first:
        pair = 1 << (first.bit_length() - 1)
        hit = _hitting_set([mask & keep for mask in copies if not mask & pair], budget - 1)
        if hit is not None:
            return hit | pair
        first ^= pair
        keep ^= pair
    return None


def _passes(family, masks, known, frozen, budget, ends):
    """True when some ``budget`` unfrozen pairs or fewer meet every forbidden
    copy of the current colors.  Otherwise False, or None when what shows it
    is a copy on frozen pairs only, which no recoloring below the node
    removes.

    ``known`` holds the pair masks of some copies.  A hitting set of them is
    tried against the rest through the matcher, with its pairs banned: a copy
    found joins ``known`` and the set is solved again.  So only the copies
    that a hitting set misses are ever found, and the least hitting set of
    all the copies is what the answer reads."""
    while True:
        live = [mask & ~frozen for mask in known]
        if 0 in live:
            return None
        hit = _hitting_set(live, budget)
        if hit is None:
            return False
        banned = [0] * len(masks[0])
        while hit:
            pair = hit & -hit
            a, b = ends[pair.bit_length() - 1]
            banned[a] |= 1 << b
            banned[b] |= 1 << a
            hit ^= pair
        image = _find_copy(family, masks, banned)
        if image is None:
            return True
        known.append(_pair_mask(image, len(masks[0])))


def _pair_mask(image, n):
    """The pairs of a copy's vertices as a mask of pair indices."""
    bit = _pair_bits(n)
    return sum(bit[a][b] for a, b in itertools.combinations(image, 2))


@functools.lru_cache(maxsize=16)
def _pair_bits(n):
    """``bit[a][b]``: the mask of the pair {a, b} alone."""
    return tuple(tuple(1 << pair_index(n, a, b) if a != b else 0 for b in range(n))
                 for a in range(n))


@functools.lru_cache(maxsize=64)
def _members_on_every_order(family):
    """Whether the family has an admissible one-vertex type, the level-1
    test ``enumerate_types`` starts with.  A graph whose pairs all carry one
    state of that type's vertex set embeds in it (for an arc code, every arc
    runs from the lower vertex to the higher, which is acyclic), so the
    family has members on every vertex count."""
    return next(enumerate_types(family, 1), None) is not None


def exact_dist(graph, family: PropertyFamily, max_n=None):
    """Exact minimum number of pair recolorings into the property, with a
    witness member on the same vertices.

    Guarded by default at small n (override with ``max_n`` or the
    EDK_GUARD_N environment variable).
    """
    family.check_graph(graph)
    guard = max_n if max_n is not None else size_guard(family)
    if graph.n > guard:
        raise SizeGuardError(
            f"exact search guarded at n <= {guard}; pass max_n or set {GUARD_ENV} to override"
        )
    if family.min_forbidden_order < 2 and graph.n:
        # a one-vertex copy has no pair to change
        raise ValueError("no member exists on this vertex count")
    alphabet = family.states
    colors = list(graph.colors)
    masks = neighborhood_masks(graph)
    back = graph.far
    ends = list(pairs(graph.n))
    frozen = 0
    images = []
    for small in family.forbidden:
        find_induced(masks, small, every=images)
    copies = list(dict.fromkeys(_pair_mask(image, graph.n) for image in images))
    root = _packing(copies)
    deepen = _members_on_every_order(family)
    while deepen and _hitting_set(copies, root) is None:
        root += 1
    witness = None

    def move(e, c):
        """Recolor pair ``e`` to ``c``: two mask bits flip at each end."""
        a, b = ends[e]
        old = colors[e]
        colors[e] = c
        masks[old][a] ^= 1 << b
        masks[c][a] ^= 1 << b
        masks[back[old]][b] ^= 1 << a
        masks[back[c]][b] ^= 1 << a

    def search(cost, inherited):
        """Depth first below the current colors, ``inherited`` being the
        pair masks of copies that the parent knew and this node's recoloring
        left intact.  True once the witness is known to be optimal; the
        colors and masks are then left as they are."""
        nonlocal limit, cut, witness, frozen
        if limit is not None and cost > limit:
            return False
        found = _find_copy(family, masks)
        if found is None:
            witness = (cost, tuple(colors))
            if cost <= floor:
                return True
            limit = cost - 1
            return False
        copy = _pair_mask(found, graph.n)
        known = [copy, *inherited]
        if limit is not None:
            passes = _passes(family, masks, known, frozen, limit - cost, ends)
            if not passes:
                cut = cut or passes is False
                return False
        newly = todo = copy & ~frozen
        while todo:
            pair = todo & -todo
            todo ^= pair
            frozen |= pair
            e = pair.bit_length() - 1
            orig = colors[e]
            kept = [mask for mask in known if not mask & pair]
            for c in alphabet:
                if c != orig:
                    move(e, c)
                    if search(cost + 1, kept):
                        return True
            move(e, orig)
        frozen &= ~newly
        return False

    # A leaf at or below ``floor`` is optimal: a deepening limit never passes
    # the optimum, and neither does the root bound.
    limit = root if deepen else None
    while True:
        floor, cut = (limit if deepen else root), False
        if search(0, copies) or not deepen or not cut:
            break
        limit += 1
    if witness is None:
        raise ValueError("no member exists on this vertex count")
    return witness[0], replace(graph, colors=witness[1])


def sample_rgraph(n, p: DensityVector, seed) -> ColoredGraph:
    """Each pair colored independently by the density vector; seeded."""
    return _sample(n, p, seed)


def sample_digraph(n, d: DirDensity, seed) -> DiGraph:
    """Pairs drawn independently: no-arc, two-way, forward, backward with
    probabilities (1-p-2q, p, q, q)."""
    return _sample(n, d, seed)


def _sample(n, dens, seed):
    if n < 1:
        raise ValueError("need at least one vertex")
    return dens.graph(n, sample_partition(pair_count(n), dens.masses, random.Random(seed)))


def derive_seed(seed, index) -> int:
    return seed * 1_000_003 + index


@dataclass(frozen=True)
class EstimateStats:
    n: int
    trials: int
    mode: str
    values: tuple  # normalized distances, one per trial
    mean: Fraction
    std: float
    min: Fraction
    max: Fraction


def _one_estimate(args):
    n, dens, family, mode, max_n, certificate, seed = args
    g = _sample(n, dens, seed)
    if mode == "exact":
        edits, _ = exact_dist(g, family, max_n=max_n)
    else:
        _, edits = _random_edit(g, *certificate, seed)
    return Fraction(edits, pair_count(n))


def estimate_dist(n, dens, family: PropertyFamily, trials, seed,
                  kmax=2, mode="auto", max_n=None, map_fn=map, **kwargs) -> EstimateStats:
    """Monte Carlo estimate of the normalized distance of random graphs.

    "exact" mode runs the branch-and-bound oracle per sample; "algorithmic"
    edits by the dist_upper certificate type, so its values upper-bound the
    exact ones sample by sample under shared seeds.  ``map_fn`` lets callers
    fan trials out to a worker pool; results do not depend on scheduling.
    Other keywords go to ``dist_upper`` (the enumeration's
    ``candidate_ceiling``).
    """
    if n < 2:
        raise ValueError("need at least two vertices: distances are normalized by the pair count")
    if mode == "auto":
        mode = "exact" if n <= (max_n if max_n is not None else size_guard(family)) else "algorithmic"
    if mode not in ("exact", "algorithmic"):
        raise ValueError("mode must be exact, algorithmic or auto")
    certificate = None
    if mode == "algorithmic":
        bound = dist_upper(family, dens, kmax, **kwargs)
        certificate = (bound.certificate.crg_type, bound.certificate.weights)
    jobs = [
        (n, dens, family, mode, max_n, certificate, derive_seed(seed, i))
        for i in range(trials)
    ]
    values = tuple(map_fn(_one_estimate, jobs))
    mean = sum(values, Fraction(0)) / trials
    std = statistics.pstdev(float(v) for v in values) if trials > 1 else 0.0
    return EstimateStats(n, trials, mode, values, mean, std, min(values), max(values))
