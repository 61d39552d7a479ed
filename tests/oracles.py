"""Independent reference implementations used only by the tests.

These deliberately avoid the package's algorithms: containment by exhaustive
injection, membership by a double loop, minima by dense search, distances by
full enumeration of colorings, partitions by full assignment enumeration.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from edk.crg import DirType, RType, in_admissible_set
from edk.distance import f_value, m_matrix, quad_form
from edk.errors import EnumerationGuardError
from edk.graphs import BWD, FWD, ColoredGraph, DensityVector, DiGraph, DirDensity, pair_count


def brute_contains_induced(big, small) -> bool:
    """Try every injection explicitly."""
    if small.n > big.n:
        return False
    if small.n == 0:
        return True
    for verts in itertools.permutations(range(big.n), small.n):
        if all(
            small.color(u, v) == big.color(verts[u], verts[v])
            for u, v in itertools.combinations(range(small.n), 2)
        ):
            return True
    return False


def brute_first_copy(big, small, banned=frozenset()):
    """The first injection in ``itertools.permutations`` order that keeps
    every pair color and uses no pair in ``banned`` (a set of 2-element
    frozensets of big's vertices), or None."""
    return next(_copies(big, small, banned), None)


def brute_all_copies(big, small, banned=frozenset()):
    """Every such injection, in ``itertools.permutations`` order."""
    return list(_copies(big, small, banned))


def _copies(big, small, banned):
    for verts in itertools.permutations(range(big.n), small.n):
        if all(
            small.color(u, v) == big.color(verts[u], verts[v])
            and frozenset((verts[u], verts[v])) not in banned
            for u, v in itertools.combinations(range(small.n), 2)
        ):
            yield verts


def brute_min_hitting_set(sets):
    """The fewest elements that meet every one of ``sets``, by trying every
    combination of their elements, smallest first; None when one is empty."""
    elements = sorted(set().union(*sets))
    for size in range(len(elements) + 1):
        if any(all(s & set(chosen) for s in sets)
               for chosen in itertools.combinations(elements, size)):
            return size
    return None


def entrywise_graph_block(graph) -> str:
    """A graph file block written one entry at a time through ``color``."""
    symbols = {0: "o", 1: "-", 2: ">", 3: "<"}
    lines = [f"graph n={graph.n}"]
    for i in range(graph.n - 1):
        entries = []
        for j in range(i + 1, graph.n):
            c = graph.color(i, j)
            entries.append(str(c) if isinstance(graph, ColoredGraph) else symbols[c])
        lines.append(" ".join(entries))
    return "\n".join(lines)


def clamped_draws(n, weights, rng) -> tuple:
    """``n`` categorical draws, each bisecting one ``rng.random()`` into the
    cumulative float weights and clamping the index to the last weight."""
    cumulative = []
    run = Fraction(0)
    for w in weights:
        run += w
        cumulative.append(float(run))
    last = len(weights) - 1
    return tuple(min(bisect.bisect_right(cumulative, rng.random()), last) for _ in range(n))


def brute_is_member(graph, family) -> bool:
    return not any(brute_contains_induced(graph, h) for h in family.forbidden)


def brute_embeds(h, k_type) -> bool:
    """Every map from h's vertices to the type's, checked in full.

    Multicolor only: a pair must land on a vertex or edge set holding its
    color.  The sets are read from the type's fields, not its table."""
    if h.n == 0:
        return True
    k = k_type.k

    def allowed(x, y):
        if x == y:
            return k_type.vertex_sets[x]
        return k_type.edge_sets[_tri_index(k, min(x, y), max(x, y))]

    for image in itertools.product(range(k), repeat=h.n):
        if all(
            (1 << (h.color(u, v) - 1)) & allowed(image[u], image[v])
            for u, v in itertools.combinations(range(h.n), 2)
        ):
            return True
    return False


def brute_embeds_dir(h, k_type) -> bool:
    """Every map checked in full against the directed embedding rules,
    with an independent mirror computation for oriented pair sets."""
    from edk.graphs import BIEDGE, BWD, NONEDGE

    if h.n == 0:
        return True
    k = k_type.k
    for image in itertools.product(range(k), repeat=h.n):
        ok = True
        for u, v in itertools.combinations(range(h.n), 2):
            x, y = image[u], image[v]
            if x == y:
                continue
            mask = k_type.edge_sets[_tri_index(k, min(x, y), max(x, y))]
            if x > y:
                mask = _mirror_mask(mask)
            if not (1 << h.color(u, v)) & mask:
                ok = False
                break
        if not ok:
            continue
        for cls in range(k):
            group = [v for v in range(h.n) if image[v] == cls]
            vs = k_type.vertex_sets[cls]
            arrows = bin(vs & 12).count("1")
            for a, b in itertools.combinations(group, 2):
                c = h.color(a, b)
                if c == NONEDGE and not vs & (1 << NONEDGE):
                    ok = False
                elif c == BIEDGE and not vs & (1 << BIEDGE):
                    ok = False
                elif c in (FWD, BWD) and arrows == 0:
                    ok = False
            if ok and arrows == 1 and brute_has_directed_cycle(h.induced(group)):
                ok = False
            if not ok:
                break
        if ok:
            return True
    return False


def _mirror_mask(mask):
    """A directed pair set seen from the other end: single arcs swap."""
    fixed = mask & ~((1 << FWD) | (1 << BWD))
    if mask & (1 << FWD):
        fixed |= 1 << BWD
    if mask & (1 << BWD):
        fixed |= 1 << FWD
    return fixed


def _state_bit(family, state):
    """The mask bit of a pair state: bit c-1 for a color, bit c for a code."""
    return 1 << (state if family.is_directed else state - 1)


def brute_fits_class(h, group, vs, family) -> bool:
    """Whether the vertices ``group`` of h can share one type vertex with
    set ``vs``: every pair among them has its state in ``vs``, except that a
    set holding exactly one arrow takes single arcs either way as long as
    the group's arcs have no directed cycle."""
    arrows = bin(vs & ((1 << FWD) | (1 << BWD))).count("1") if family.is_directed else 0
    for a, b in itertools.combinations(group, 2):
        state = h.color(a, b)
        if not (arrows and state in (FWD, BWD)) and not _state_bit(family, state) & vs:
            return False
    return arrows != 1 or len(group) < 3 or not brute_has_directed_cycle(h.induced(group))


def brute_free_maps(h, t, family):
    """Every map of h into the vertices of type t plus one new vertex t.k,
    in ``itertools.product`` order, that keeps each pair between two
    vertices mapped into t inside t's set: the edge set between distinct
    images (read from ``edge_sets``, mirrored for a directed pair read from
    its far end), or the class rule of ``brute_fits_class`` on each
    class.  Pairs that touch the new vertex are not checked."""
    k = t.k
    for image in itertools.product(range(k + 1), repeat=h.n):
        ok = True
        for u, v in itertools.combinations(range(h.n), 2):
            x, y = image[u], image[v]
            if x == y or k in (x, y):
                continue
            mask = t.edge_sets[_tri_index(k, min(x, y), max(x, y))]
            if x > y and family.is_directed:
                mask = _mirror_mask(mask)
            if not _state_bit(family, h.color(u, v)) & mask:
                ok = False
                break
        if ok and all(brute_fits_class(h, [u for u in range(h.n) if image[u] == x],
                                       t.vertex_sets[x], family) for x in range(k)):
            yield image


def brute_extension_needs(parent, family):
    """Per vertex choice of the family (its nonempty proper state subsets,
    ascending), the minimal needs of ``parent``, as a set of tuples with one
    mask per parent vertex.  Each map of ``brute_free_maps`` of a forbidden
    graph that puts a nonempty set J on the new vertex, with J fitting one
    class of the choice, needs at parent vertex x the states of the pairs
    between x's preimage and J, as seen from x.  A need is minimal when no
    other need of the choice lies inside it at every vertex."""
    full = family.full_mask
    choices = [m for m in range(1, full) if not m & ~full]
    k = parent.k
    found = [set() for _ in choices]
    for h in family.forbidden:
        for image in brute_free_maps(h, parent, family):
            group = [u for u in range(h.n) if image[u] == k]
            if not group:
                continue
            need = [0] * k
            for w in range(h.n):
                if image[w] < k:
                    for u in group:
                        need[image[w]] |= _state_bit(family, h.color(w, u))
            for i, vs in enumerate(choices):
                if brute_fits_class(h, group, vs, family):
                    found[i].add(tuple(need))

    def inside(small, big):
        return small != big and all(not a & ~b for a, b in zip(small, big))

    return [{need for need in needs if not any(inside(other, need) for other in needs)}
            for needs in found]


def _tri_index(k, i, j):
    return i * (2 * k - i - 1) // 2 + (j - i - 1)


def brute_edit(g, k_type, parts, orders=None):
    """The editing rule, read off the type's vertex and edge sets: a pair
    keeps an allowed state and otherwise takes the smallest allowed one.
    Inside a digraph part whose vertex set holds exactly one arc direction,
    a single arc becomes the arc along the part's order (``orders[x]``, or
    the vertex order without it), and another state that must change takes
    the smallest allowed non-arc state, or that arc when there is none.
    Returns (graph, changes)."""
    directed = isinstance(g, DiGraph)
    if directed:
        states, first = (0, 1, FWD, BWD), 0
    else:
        states, first = tuple(range(1, g.r + 1)), 1
    swap = {FWD: BWD, BWD: FWD}

    def held(x, y):
        if x == y:
            mask = k_type.vertex_sets[x]
        else:
            mask = k_type.edge_sets[_tri_index(k_type.k, min(x, y), max(x, y))]
        out = {c for c in states if mask >> (c - first) & 1}
        if directed and x > y:  # the set is stored as seen from (y, x)
            out = {swap.get(c, c) for c in out}
        return out

    colors = []
    for i, j in itertools.combinations(range(g.n), 2):
        x, y = parts[i], parts[j]
        allowed = held(x, y)
        old = g.color(i, j)
        if directed and x == y and len(allowed & {FWD, BWD}) == 1:
            arc = FWD if orders is None or orders[x][i] < orders[x][j] else BWD
            others = sorted(allowed - {FWD, BWD})
            if old in (FWD, BWD):
                new = arc
            elif old in allowed:
                new = old
            else:
                new = others[0] if others else arc
        else:
            new = old if old in allowed else min(allowed)
        colors.append(new)
    changes = sum(1 for a, b in zip(g.colors, colors) if a != b)
    if directed:
        return DiGraph(g.n, tuple(colors)), changes
    return ColoredGraph(g.n, g.r, tuple(colors)), changes


def brute_is_good(t, family, strong) -> bool:
    """Whether some forbidden graph splits into sum(t) labeled parts, t[i]
    of them tagged i, each part meeting its tag's condition, by trying every
    assignment of vertices to parts.

    Multicolor tag i (color i + 1): weak, no pair of that color inside the
    part; strong, every pair of that color.  Directed tags 0, 1, 2 (no arc,
    oriented, both ways): weak, no empty pair / no directed cycle / no two-way
    pair; strong, all empty / a transitive tournament / all two-way."""
    from edk.graphs import BIEDGE, BWD, NONEDGE

    tags = [tag for tag, a in enumerate(t) for _ in range(a)]

    def part_ok(h, members, tag):
        inside = [h.color(a, b) for a, b in itertools.combinations(members, 2)]
        if not family.is_directed:
            if strong:
                return all(c == tag + 1 for c in inside)
            return all(c != tag + 1 for c in inside)
        if tag == 1:
            if strong and any(c not in (FWD, BWD) for c in inside):
                return False
            return not brute_has_directed_cycle(h.induced(members))
        state = NONEDGE if tag == 0 else BIEDGE
        if strong:
            return all(c == state for c in inside)
        return all(c != state for c in inside)

    for h in family.forbidden:
        for assign in itertools.product(range(len(tags)), repeat=h.n):
            groups = [[v for v in range(h.n) if assign[v] == p] for p in range(len(tags))]
            if all(part_ok(h, g, tags[p]) for p, g in enumerate(groups)):
                return True
    return False


def brute_has_directed_cycle(d: DiGraph) -> bool:
    """Enumerate all vertex sequences of every length as candidate cycles."""
    for length in range(2, d.n + 1):
        for seq in itertools.permutations(range(d.n), length):
            closed = seq + (seq[0],)
            if all(d.color(closed[i], closed[i + 1]) == FWD for i in range(length)):
                return True
    return False


def brute_exact_dist(graph, family, alphabet) -> int:
    """Minimum Hamming distance to a member by enumerating every coloring."""
    m = pair_count(graph.n)
    best = None
    for colors in itertools.product(alphabet, repeat=m):
        if isinstance(graph, DiGraph):
            cand = DiGraph(graph.n, colors)
        else:
            cand = ColoredGraph(graph.n, graph.r, colors)
        if not brute_is_member(cand, family):
            continue
        dist = sum(1 for a, b in zip(graph.colors, colors) if a != b)
        if best is None or dist < best:
            best = dist
    return best


def brute_branch_witness(graph, family, edits):
    """The first member at ``edits`` recolorings or fewer in the exact
    search's branch order, found with no bound: at each coloring take the
    first copy (forbidden graphs in order, then ``brute_first_copy``), and
    for each of its pairs in sorted vertex order that no enclosing level
    holds frozen, try each other state in increasing order; the pair stays
    frozen for the rest of that copy's pairs and everything below.  None
    when no member is that close."""
    frozen = set()

    def search(g, cost):
        copy = next((verts for small in family.forbidden
                     if (verts := brute_first_copy(g, small)) is not None), None)
        if copy is None:
            return g
        if cost == edits:
            return None
        newly = []
        for a, b in itertools.combinations(sorted(copy), 2):
            if (a, b) in frozen:
                continue
            frozen.add((a, b))
            newly.append((a, b))
            for c in family.states:
                if c != g.color(a, b):
                    found = search(g.recolored(a, b, c), cost + 1)
                    if found is not None:
                        return found
        frozen.difference_update(newly)
        return None

    return search(graph, 0)


def min_transitive_partition(t: DiGraph) -> int:
    """Fewest parts of a tournament with every part transitive, by trying
    every assignment."""

    def part_ok(members):
        for a, b, c in itertools.permutations(members, 3):
            if t.color(a, b) == FWD and t.color(b, c) == FWD and t.color(c, a) == FWD:
                return False
        return True

    for count in range(1, t.n + 1):
        for assign in itertools.product(range(count), repeat=t.n):
            groups = [[v for v in range(t.n) if assign[v] == g] for g in range(count)]
            if all(part_ok(g) for g in groups):
                return count
    return t.n


def _simplex_grid(k, steps):
    """All nonnegative integer combinations summing to ``steps``, normalized."""
    combos = itertools.combinations(range(steps + k - 1), k - 1)
    pts = []
    for combo in combos:
        cuts = (-1,) + combo + (steps + k - 1,)
        pts.append([cuts[i + 1] - cuts[i] - 1 for i in range(k)])
    return np.array(pts, dtype=float) / steps


def _quad(m, w):
    return float(w @ m @ w)


def grid_quadratic_min(matrix, step=1e-3):
    """Numeric minimum of w' M w over the simplex.

    Dense grid at the requested step for k <= 3; for larger k a coarse grid
    followed by repeated local zooming, then a constrained local polish from
    the best points found.  Tuned for the random matrices of the tests.
    """
    m = np.asarray(matrix, dtype=float)
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0])

    if k == 2:
        t = np.arange(0.0, 1.0 + step, step)
        w = np.stack([t, 1.0 - t], axis=1)
        vals = np.einsum("ij,jk,ik->i", w, m, w)
        best_w = w[int(np.argmin(vals))]
        best = float(np.min(vals))
    elif k == 3:
        steps = int(round(1.0 / step))
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = (i + j) <= steps
        w = np.stack([i[keep], j[keep], steps - i[keep] - j[keep]], axis=1) / steps
        vals = np.einsum("ij,jk,ik->i", w, m, w)
        best_w = w[int(np.argmin(vals))]
        best = float(np.min(vals))
    else:
        coarse = 24
        w = _simplex_grid(k, coarse)
        vals = np.einsum("ij,jk,ik->i", w, m, w)
        order = np.argsort(vals)
        candidates = w[order[:60]]
        h = 1.0 / coarse
        offsets = np.array(list(itertools.product((-2, -1, 0, 1, 2), repeat=k - 1)))
        while h > step / 4:
            h /= 4.0
            pool = []
            for c in candidates:
                pts = np.tile(c[:-1], (len(offsets), 1)) + offsets * h
                last = 1.0 - pts.sum(axis=1)
                full = np.concatenate([pts, last[:, None]], axis=1)
                ok = (full >= -1e-12).all(axis=1)
                pool.append(np.clip(full[ok], 0.0, 1.0))
            pool = np.concatenate(pool)
            pool /= pool.sum(axis=1, keepdims=True)
            vals = np.einsum("ij,jk,ik->i", pool, m, pool)
            order = np.argsort(vals)
            candidates = pool[order[:25]]
        best_w = candidates[0]
        best = float(vals[order[0]])

    starts = [best_w, np.full(k, 1.0 / k)]
    starts.extend(np.eye(k))
    constraints = [{"type": "eq", "fun": lambda w: w.sum() - 1.0}]
    bounds = [(0.0, 1.0)] * k
    for w0 in starts:
        res = minimize(
            lambda w: _quad(m, w),
            w0,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 300, "ftol": 1e-14},
        )
        if res.success or res.fun is not None:
            best = min(best, float(res.fun))
    return best


def _solve_fractions(matrix, rhs):
    """Solve A x = b by Gaussian elimination over Fractions; None when A is
    singular."""
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                for c in range(col, n + 1):
                    a[r][c] -= factor * a[col][c]
    return [a[r][n] / a[r][r] for r in range(n)]


def brute_g_value(m):
    """Minimum of w' M w over the simplex by support enumeration over
    Fractions: solve the stationarity system of every support in increasing
    bitmask order, keep the nonnegative solutions, and return the first
    strict minimum as (value, weights)."""
    k = len(m)
    best_val = best_w = None
    for mask in range(1, 1 << k):
        support = [i for i in range(k) if mask >> i & 1]
        s = len(support)
        rows = [[m[i][j] for j in support] + [-1] for i in support]
        rows.append([1] * s + [0])
        sol = _solve_fractions(rows, [0] * s + [1])
        if sol is None or any(v < 0 for v in sol[:s]):
            continue
        w = [Fraction(0)] * k
        for i, v in zip(support, sol):
            w[i] = v
        val = quad_form(m, w)
        if best_val is None or val < best_val:
            best_val, best_w = val, tuple(w)
    return best_val, best_w


def brute_canonical_key(k_type):
    """The least (vertex sets, edge sets) over all k! vertex relabelings,
    each read entry by entry through ``phi``: new vertex x is old perm[x]."""
    k = k_type.k
    return min((tuple(k_type.phi(perm[x], perm[x]) for x in range(k)),
                tuple(k_type.phi(perm[a], perm[b])
                      for a, b in itertools.combinations(range(k), 2)))
               for perm in itertools.permutations(range(k)))


def brute_enumerate_types(family, kmax, candidate_ceiling=5_000_000):
    """Admissible types by building every candidate: each admissible type on
    k-1 vertices extended by every vertex set and row of edge sets, tested
    in full with ``in_admissible_set`` and deduplicated by
    ``brute_canonical_key``;
    ordered by vertex count, then encoding."""
    full = family.full_mask
    edge_choices = [m for m in range(1, full + 1) if not m & ~full]
    vertex_choices = edge_choices[:-1]

    def make(vsets, esets):
        if family.is_directed:
            return DirType(family.palette, tuple(vsets), tuple(esets))
        return RType(family.r, tuple(vsets), tuple(esets))

    level = sorted((t for t in (make((vs,), ()) for vs in vertex_choices)
                    if in_admissible_set(t, family)), key=lambda t: t.encoding())
    out = list(level)
    examined = len(vertex_choices)
    for k in range(2, kmax + 1):
        examined += len(level) * len(vertex_choices) * len(edge_choices) ** (k - 1)
        if examined > candidate_ceiling:
            raise EnumerationGuardError(examined, candidate_ceiling)
        seen = {}
        for parent in level:
            for vs in vertex_choices:
                for row in itertools.product(edge_choices, repeat=k - 1):
                    esets = [parent.edge_sets[_tri_index(k - 1, a, b)] if b < k - 1 else row[a]
                             for a, b in itertools.combinations(range(k), 2)]
                    cand = make(parent.vertex_sets + (vs,), esets)
                    if in_admissible_set(cand, family):
                        key = brute_canonical_key(cand)
                        seen.setdefault(key, make(*key))
        level = sorted(seen.values(), key=lambda t: t.encoding())
        out += level
    return out


def brute_dist_upper(dens, types):
    """The least g over ``types`` at a density, each type's Fraction
    penalty matrix solved by ``brute_g_value``; the first strict minimum
    wins.  Returns (value, type, weights)."""
    best = None
    solved = {}
    for t in types:
        m = m_matrix(t, dens)
        if m not in solved:
            solved[m] = brute_g_value(m)
        val, w = solved[m]
        if best is None or val < best[0]:
            best = (val, t, w)
    return best


def brute_full_support_upper(dens, types):
    """The least full-support value over ``types`` at a density, with no
    type skipped: each type's Fraction penalty matrix M is solved over
    Fractions for the w with M w constant and summing to one, and a type
    counts only when that system is nonsingular and every weight is
    positive.  The first strict minimum wins.  Returns (value, type,
    weights), or None when no type counts."""
    best = None
    for t in types:
        m = m_matrix(t, dens)
        k = len(m)
        rows = [list(row) + [-1] for row in m]
        rows.append([1] * k + [0])
        sol = _solve_fractions(rows, [0] * k + [1])
        if sol is None or any(v <= 0 for v in sol[:k]):
            continue
        w = tuple(sol[:k])
        val = quad_form(m, w)
        if best is None or val < best[0]:
            best = (val, t, w)
    return best


def brute_dist_upper_f(dens, types):
    """The least f (the average penalty entry) over ``types`` at a density;
    the first strict minimum wins.  Returns (value, type)."""
    best = None
    for t in types:
        val = f_value(m_matrix(t, dens))
        if best is None or val < best[0]:
            best = (val, t)
    return best


def _reduced_density(family, x):
    """The density at the reduced variables ``x`` of the family's arity:
    multicolor p_1..p_{r-1}; directed (p, q), q, q, p or none by palette."""
    if not family.is_directed:
        return DensityVector(tuple(x) + (1 - sum(x, Fraction(0)),))
    kind = family.palette.kind
    p, q = {
        "full": lambda: x,
        "compl": lambda: (1 - 2 * x[0], x[0]),
        "orien": lambda: (Fraction(0), x[0]),
        "undir": lambda: (x[0], Fraction(0)),
        "tourn": lambda: (Fraction(0), Fraction(1, 2)),
    }[kind]()
    return DirDensity(p, q, family.palette)


def brute_affine_forms(family, types):
    """f per type as (constant, coefficients) over the reduced density
    variables, read off f at the origin and half a unit along each variable;
    distinct forms in type order, then each form that some other form is
    pointwise no larger than, over the nonnegative domain, dropped."""
    nvars = (family.r - 1 if not family.is_directed
             else {"full": 2, "compl": 1, "orien": 1, "undir": 1, "tourn": 0}[family.palette.kind])
    half = Fraction(1, 2)
    points = [_reduced_density(family, [half if j == i else Fraction(0) for j in range(nvars)])
              for i in range(-1, nvars)]
    forms = {}
    for t in types:
        const, *ends = (f_value(m_matrix(t, dens)) for dens in points)
        forms[(const, tuple(2 * (e - const) for e in ends))] = None
    out = list(forms)
    return [(c0, cf) for i, (c0, cf) in enumerate(out)
            if not any(j != i and d0 <= c0 and all(a <= b for a, b in zip(df, cf))
                       for j, (d0, df) in enumerate(out))]


def _tadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _tscale(s, u):
    return tuple(s * a for a in u)


def dense_simplex_max_lex(rows, rhs, objectives):
    """Maximize a lexicographic objective over {x >= 0 : rows . x <= rhs}
    on a dense tableau over the structural and slack variables, the reduced
    costs recomputed from the basic costs at every step; Bland's rule.
    Returns (x, objective value)."""
    zero, one = Fraction(0), Fraction(1)
    m = len(rows)
    n = len(objectives)
    depth = len(objectives[0]) if objectives else 1
    zero_t = (zero,) * depth
    for b in rhs:
        if b < 0:
            raise ValueError("simplex start needs nonnegative rhs")

    # tableau over structural + slack variables
    tab = []
    for i, row in enumerate(rows):
        line = [Fraction(v) for v in row] + [zero] * m + [Fraction(rhs[i])]
        line[n + i] = one
        tab.append(line)
    cost = [tuple(Fraction(v) for v in obj) for obj in objectives] + [zero_t] * m
    basis = list(range(n, n + m))

    while True:
        # reduced costs via the basic cost combination
        entering = -1
        for j in range(n + m):
            if j in basis:
                continue
            red = cost[j]
            for i in range(m):
                cb = cost[basis[i]]
                if cb != zero_t and tab[i][j] != 0:
                    red = _tadd(red, _tscale(-tab[i][j], cb))
            if red > zero_t:
                entering = j
                break  # Bland: first improving index
        if entering < 0:
            break
        ratio = None
        leaving = -1
        for i in range(m):
            coef = tab[i][entering]
            if coef > 0:
                r = tab[i][-1] / coef
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leaving]):
                    ratio = r
                    leaving = i
        if leaving < 0:
            raise ValueError("objective unbounded")
        piv = tab[leaving][entering]
        tab[leaving] = [v / piv for v in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leaving])]
        basis[leaving] = entering

    x = [zero] * n
    value = zero_t
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
            value = _tadd(value, _tscale(x[b], cost[b]))
    return x, value


def brute_free_rows(needs, edge_choices, width):
    """Every row of ``width`` edge choices, in product order, that covers
    none of ``needs``: a row covers a need when, at each position x, its
    edge set holds the need's field x (fields as wide as the largest
    choice)."""
    full = edge_choices[-1]
    span = full.bit_length()

    def covers(row, need):
        return all(not (need >> span * x & full) & ~e for x, e in enumerate(row))

    return [row for row in itertools.product(edge_choices, repeat=width)
            if not any(covers(row, need) for need in needs)]


def brute_shapes(family, types):
    """Per type, its vertex count and, per mask bit, how many cells of its
    mask table (the diagonal included) hold the bit, tallied by a Counter."""
    colors = 4 if family.is_directed else family.r
    shapes = []
    for t in types:
        tally = Counter(mask for row in t.table for mask in row)
        shapes.append((t.k, tuple(sum(n for mask, n in tally.items() if mask >> bit & 1)
                                  for bit in range(colors))))
    return shapes
