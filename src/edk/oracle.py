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
along a branch, which removes overlap between sibling subtrees, and a greedy
packing of pair-disjoint forbidden copies gives an admissible lower bound.

The search runs in deepening rounds (IDA*).  The first limit is the packing
bound at the root.  A round cuts every node whose cost plus bound passes the
limit and stops at its first leaf.  A node only asks whether its bound
passes the limit less its cost, so below the root the packing stops as soon
as it holds more copies than that, and a cut node reaches the limit plus
one.  So a round that finds no leaf raises the limit by one, and no limit
passes the optimum: the leaf found is optimal.  Deepening pays when members
exist on every vertex count, which holds when the family has an admissible
one-vertex type (the level-1 test of ``enumerate_types``).  A family
without one has members of bounded size only; on a larger graph no round
finds a leaf, so each round would repeat the whole search.  Such a family
gets one round without a limit, which lowers the limit below each leaf it
finds (branch and bound).

The working colors' neighborhood bitmasks are built once per call and kept
current: a recoloring, and its undo, flips two bits at each end of the pair.
The copy search and the packing bound read them through the matcher in
``graphs``.  The packing bans the pairs of each copy it takes through
per-vertex masks of banned partners.  Banning only removes copies, so the
next copy comes from the same forbidden graph or a later one, and from the
same graph it is lexicographically no less than the last: each packing step
resumes there, at the last copy's first vertex, instead of searching from
the start.

A child recolors one pair of its parent, so the copies of the parent's
packing that do not hold both its ends are still pair-disjoint copies in
the child.  A node packs from those first, then on from the least copy the
search found; often the inherited copies alone prove the cut.  When they do
not, the node also packs afresh from the least copy, since the seeded
packing can be the smaller; the larger of the two is the node's bound and
passes to its children (the seeded one on a tie).

The matcher returns the lexicographically least copy, so the branch order is
fixed by the input.  Both packings hold pair-disjoint copies of the current
colors, so the bound is admissible at every node although it now depends on
the path there.  An admissible bound never cuts the path to the first
optimal leaf in that order, so the edit count and the witness do not depend
on the limits or on which packing a node kept.
"""

from __future__ import annotations

import functools
import itertools
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
    far_end_states,
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


def _find_copy(family, masks, banned=None, start=0, first=0):
    """``(i, image)`` for the first forbidden graph ``i >= start`` with an
    induced copy and that copy's least image, or None.  ``first`` bounds
    ``image[0]`` from below in graph ``start`` only."""
    forbidden = family.forbidden
    for i in range(start, len(forbidden)):
        image = find_induced(masks, forbidden[i], banned, first if i == start else 0)
        if image is not None:
            return i, image
    return None


def _greedy_disjoint_bound(family, masks, found, cap=None, seeds=()):
    """The ``seeds``, pair-disjoint copies, then forbidden copies packed
    greedily from ``found``, the least copy as given by :func:`_find_copy`.
    No two copies share a pair and each needs a change, so their number
    bounds the distance.

    Each step takes the least copy, in forbidden-graph order, that avoids the
    pairs of the copies taken so far: ``found`` itself when no seed holds two
    of its vertices.  The banned pairs only grow, so a graph that had no copy
    at an earlier step has none now, and a copy of the graph of the last copy
    taken (or of ``found``) was a copy then too, so it is no less than that
    copy and starts at its first vertex or later.  So each search resumes at
    that graph from ``image[0]``, and the later graphs from 0, and takes the
    same copy as a search from the start; the last, failing search covers
    only what is left.

    With a ``cap``, the packing stops as soon as it holds more than ``cap``
    copies, which is all a caller that cuts there needs to know."""
    banned = [0] * len(masks[0])
    packed = []

    def take(image):
        packed.append(image)
        verts = sum(1 << x for x in image)
        for x in image:
            banned[x] |= verts

    for image in seeds:
        take(image)
    i, image = found
    known = not any(banned[x] >> y & 1 for x, y in itertools.combinations(image, 2))
    while cap is None or len(packed) <= cap:
        if not known:
            found = _find_copy(family, masks, banned, i, image[0])
            if found is None:
                break
            i, image = found
        take(image)
        known = False
    return packed


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
    back = far_end_states(graph)
    ends = list(pairs(graph.n))
    frozen = [False] * len(colors)
    found = _find_copy(family, masks)
    root = 0 if found is None else len(_greedy_disjoint_bound(family, masks, found))
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

    def search(cost, seeds):
        """Depth first below the current colors, ``seeds`` being copies left
        intact from the parent's packing.  True once the witness is known to
        be optimal; the colors and masks are then left as they are."""
        nonlocal limit, cut, witness
        if limit is not None and cost > limit:
            return False
        found = _find_copy(family, masks)
        if found is None:
            witness = (cost, tuple(colors))
            if cost <= floor:
                return True
            limit = cost - 1
            return False
        packed = ()
        if limit is not None:
            cap = limit - cost
            packed = _greedy_disjoint_bound(family, masks, found, cap, seeds)
            if seeds and len(packed) <= cap:
                fresh = _greedy_disjoint_bound(family, masks, found, cap)
                if len(fresh) > len(packed):
                    packed = fresh
            if len(packed) > cap:
                cut = True
                return False
        copy = [pair_index(graph.n, a, b) for a, b in itertools.combinations(sorted(found[1]), 2)]
        newly = []
        for e in copy:
            if frozen[e]:
                continue
            frozen[e] = True
            newly.append(e)
            orig = colors[e]
            a, b = ends[e]
            kept = [image for image in packed if a not in image or b not in image]
            for c in alphabet:
                if c != orig:
                    move(e, c)
                    if search(cost + 1, kept):
                        return True
            move(e, orig)
        for e in newly:
            frozen[e] = False
        return False

    # A leaf at or below ``floor`` is optimal: a deepening limit never passes
    # the optimum, and neither does the root bound.
    deepen = _members_on_every_order(family)
    limit = root if deepen else None
    while True:
        floor, cut = (limit if deepen else root), False
        if search(0, ()) or not deepen or not cut:
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
                  kmax=2, mode="auto", max_n=None, map_fn=map) -> EstimateStats:
    """Monte Carlo estimate of the normalized distance of random graphs.

    "exact" mode runs the branch-and-bound oracle per sample; "algorithmic"
    edits by the dist_upper certificate type, so its values upper-bound the
    exact ones sample by sample under shared seeds.  ``map_fn`` lets callers
    fan trials out to a worker pool; results do not depend on scheduling.
    """
    if n < 2:
        raise ValueError("need at least two vertices: distances are normalized by the pair count")
    if mode == "auto":
        mode = "exact" if n <= (max_n if max_n is not None else size_guard(family)) else "algorithmic"
    if mode not in ("exact", "algorithmic"):
        raise ValueError("mode must be exact, algorithmic or auto")
    certificate = None
    if mode == "algorithmic":
        bound = dist_upper(family, dens, kmax)
        certificate = (bound.certificate.crg_type, bound.certificate.weights)
    jobs = [
        (n, dens, family, mode, max_n, certificate, derive_seed(seed, i))
        for i in range(trials)
    ]
    values = tuple(map_fn(_one_estimate, jobs))
    mean = sum(values, Fraction(0)) / trials
    std = statistics.pstdev(float(v) for v in values) if trials > 1 else 0.0
    return EstimateStats(n, trials, mode, values, mean, std, min(values), max(values))
