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
packing of pair-disjoint forbidden copies gives an admissible lower bound for
pruning.

Each search node rebuilds the working colors' neighborhood bitmasks once
and shares them between the copy search and the packing bound, both run by
the matcher in ``graphs``.  The packing starts from the copy the search
found and bans the pairs of each copy it takes through per-vertex masks of
banned partners.  The matcher returns the lexicographically least copy, so
the branch order, and with it the witness, is fixed by the input.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

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
    """Image of the first forbidden graph with an induced copy, or None."""
    for h in family.forbidden:
        image = find_induced(masks, h, banned)
        if image is not None:
            return image
    return None


def _greedy_disjoint_bound(family, masks, image):
    """Number of pairwise pair-disjoint forbidden copies, packed greedily
    from the copy ``image``; each needs a change."""
    banned = [0] * len(masks[0])
    count = 0
    while image is not None:
        count += 1
        verts = sum(1 << x for x in image)
        for x in image:
            banned[x] |= verts
        image = _find_copy(family, masks, banned)
    return count


def exact_dist(graph, family: PropertyFamily, max_n=None):
    """Exact minimum number of pair recolorings into the property, with a
    witness member on the same vertices.

    Guarded by default at small n (override with ``max_n`` or the
    EDK_GUARD_N environment variable).
    """
    family.check_graph(graph)
    limit = max_n if max_n is not None else size_guard(family)
    if graph.n > limit:
        raise SizeGuardError(
            f"exact search guarded at n <= {limit}; pass max_n or set {GUARD_ENV} to override"
        )
    alphabet = family.states
    colors = list(graph.colors)
    frozen = [False] * len(colors)
    best = {"cost": None, "colors": None}

    def search(cost):
        if best["cost"] is not None and cost >= best["cost"]:
            return
        masks = neighborhood_masks(graph, colors)
        image = _find_copy(family, masks)
        if image is None:
            best["cost"] = cost
            best["colors"] = tuple(colors)
            return
        if best["cost"] is not None:
            bound = _greedy_disjoint_bound(family, masks, image)
            if cost + bound >= best["cost"]:
                return
        copy = [pair_index(graph.n, a, b) for a, b in itertools.combinations(sorted(image), 2)]
        newly = []
        for e in copy:
            if frozen[e]:
                continue
            frozen[e] = True
            newly.append(e)
            orig = colors[e]
            for c in alphabet:
                if c == orig:
                    continue
                colors[e] = c
                search(cost + 1)
            colors[e] = orig
        for e in newly:
            frozen[e] = False

    search(0)
    if best["cost"] is None:
        raise ValueError("no member exists on this vertex count")
    return best["cost"], replace(graph, colors=best["colors"])


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
