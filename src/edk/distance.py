"""The edit distance function machinery.

For a type K and densities, the penalty matrix M has one entry per ordered
vertex pair of K: the probability mass of colors NOT allowed there.  f is the
average entry (uniform weights), g the exact minimum of the quadratic form
w' M w over the probability simplex.  Minimizing g over admissible types
bounds the edit distance function from above; Turan-style counting bounds it
from below.

``g_value`` computes g by support enumeration: on the support of a
minimizer the gradient is constant, so solving the stationarity system for
every support and keeping the nonnegative candidates is exact even though M
is usually indefinite.  Supports whose system is singular are skipped; their
minima reappear on smaller supports.  Each system is solved in integers by
fraction-free elimination, so only the winning weights and value become
Fractions.  A support is not solved when a lower bound on its stationary
value already reaches the best so far (``_cannot_beat``, below).

``dist_upper`` solves one system per type: its full support (the p-core
reduction of Marchant and Thomason, and of Martin).  It skips a type whose
system is singular or has a weight of zero or below.  This is exact on a
type list closed under sub-types up to isomorphism, as every list
``enumerate_types`` yields is, because a sub-type has fewer vertices and so
comes earlier.  A type whose g is reached on a smaller support ties its
sub-type on that support, which comes first.  So the type of the first
strict minimum over the list reaches its g only on its full support, with
all weights positive, and its system is nonsingular: a singular one would
give a line of minimizers running to a smaller support.  Every other type's
full-support value is at least its g, so it cannot take the minimum's
place.  On a list that is not closed the result is still a certified upper
bound, but it may exceed the least g over the list.

A type takes the best value's place only when its full-support weights w
are all positive and (A w)_i is one lambda below the best value for every
row i, A its scaled matrix.  With w >= 0 summing to one, lambda is at least
three things, and a type at which one of them reaches the best value is
ruled out unsolved:

1. its least entry, read off the masks of its vertex and edge sets before
   A is built: the masks whose entry is below the best value are kept as
   a set, rebuilt when the best value improves (a directed mask seen from
   the pair's other end has the same entry, as both arc directions carry
   q, so the edge sets stand for both ends);
2. its largest row minimum, since lambda = (A w)_i >= min_j a_ij;
3. its least column sum over k, since k lambda, the sum of the rows of
   A w, is the column sums averaged by w.

A matrix met earlier is ruled out as well: its value, if it had one, is at
least the best.  None of these skips a type that would have become the
first strict minimum, so ``dist_upper`` returns what solving every type's
full support returns, on every type list, closed under sub-types or not.

The bounds read every type at a density through one integer table per
density: the least common multiple of the density's denominators, and per
color mask that multiple times one minus the mask's mass.  A type's scaled
matrix is that table indexed by its mask table, and f depends on a type only
through its vertex count and how many ordered pairs of its table hold each
color: its shape, counted once per type list.  Scaling M by a positive
constant changes neither the minimizing weights nor the order of the values,
so the results are the Fractions the per-type matrices would give.
``m_matrix``, ``f_value``, ``quad_form``, ``UpperCertificate.recompute`` and
``check_certificate`` stay on Fractions: ``check_certificate`` re-verifies an
upper bound from its certificate alone.

The maximum and the grids range over one density domain per family, read
off its pair states by ``_domain``.  States that share one mass form a
class: each colour, or, filtered by the palette, no arc, both arcs and the
two arc directions together.  One class takes the mass the others leave,
and every other class's mass is a reduced variable, so the domain is the
variables at least 0 whose left-over mass is at least 0.  A multicolour
family leaves it to its last colour, so that p_1..p_{r-1} are the
variables and the grids and ties run in the order of p_1, p_2, ..; a
directed family leaves it to its palette's first class, which gives (p, q)
for ``full``, q for ``compl`` and ``orien``, p for ``undir`` and no
variable for ``tourn``.  f is affine in the variables, so maximizing the
least f over types is one linear program for both arities.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .crg import _MIRROR, enumerate_types, in_admissible_set
from .errors import AsymmetricFamilyError, CertificateError, TrivialPropertyError
from .graphs import BIEDGE, BWD, DIR_CODES, FWD, NONEDGE, DensityVector, DirDensity, PropertyFamily
from .ratlin import simplex_max_lex, solve_int
from .spectrum import STRONG, WEAK, clique_spectrum

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class UpperCertificate:
    """A type and simplex weights witnessing an upper bound at a density."""

    crg_type: object
    weights: tuple
    density: object

    def recompute(self) -> Fraction:
        m = m_matrix(self.crg_type, self.density)
        return quad_form(m, self.weights)


@dataclass(frozen=True)
class DistBound:
    value: Fraction
    kind: str  # upper | lower
    kmax: int = None
    certificate: object = None


def m_matrix(k_type, dens):
    """Entry (x, y) is one minus the density mass of the colors the type
    allows on that pair: bit c-1 carries p_c, or, for a directed type, bit c
    carries the density of pair code c (each arc direction q)."""
    if (k_type.r, k_type.palette) != (dens.r, dens.palette):
        raise ValueError("the density does not have the type's colors")
    entry = _mask_entries(dens.masses).__getitem__
    return tuple(tuple(map(entry, row)) for row in k_type.table)


@functools.lru_cache(maxsize=16)
def _mask_entries(masses):
    """Per mask over the colors, one minus the density mass of its colors."""
    return tuple(ONE - sum((m for bit, m in enumerate(masses) if mask >> bit & 1), ZERO)
                 for mask in range(1 << len(masses)))


@functools.lru_cache(maxsize=16)
def _scaled_entries(masses):
    """``_mask_entries`` in integers: (scale, entries) with scale the least
    common multiple of the masses' denominators and entries[mask] equal to
    scale times one minus the mass of the mask's colors."""
    scale = math.lcm(*(m.denominator for m in masses))
    nums = [m.numerator * (scale // m.denominator) for m in masses]
    return scale, tuple(scale - sum(n for bit, n in enumerate(nums) if mask >> bit & 1)
                        for mask in range(1 << len(masses)))


def _shapes(family, types):
    """Per type, in list order, its shape: the vertex count k and, per mask
    bit, the ordered vertex pairs of its table, the diagonal included, whose
    mask holds the bit.  f depends on a type through its shape alone.

    A shape is summed in one int, one field per bit, wide enough for k^2:
    ``one[m]`` puts a 1 in the field of each bit of mask m, and serves a
    vertex set; ``two[m]`` adds the mask seen from the pair's other end,
    and serves an edge set."""
    colors = len(DIR_CODES) if family.is_directed else family.r
    far = _MIRROR if family.is_directed else range(1 << colors)
    shapes = []
    for k, run in itertools.groupby(types, operator.attrgetter("k")):
        width = (k * k).bit_length()
        field = (1 << width) - 1
        one = [sum(1 << width * bit for bit in range(colors) if m >> bit & 1)
               for m in range(1 << colors)]
        two = [a + one[b] for a, b in zip(one, far)]
        for t in run:
            total = sum(map(one.__getitem__, t.vertex_sets)) + sum(map(two.__getitem__, t.edge_sets))
            shapes.append((k, tuple(total >> width * bit & field for bit in range(colors))))
    return shapes


def quad_form(m, w) -> Fraction:
    k = len(m)
    total = ZERO
    for i in range(k):
        if w[i] == 0:
            continue
        row = m[i]
        total += w[i] * sum((w[j] * row[j] for j in range(k) if w[j] != 0), ZERO)
    return total


def f_value(m) -> Fraction:
    """Average entry: the quadratic form at uniform weights."""
    k = len(m)
    return sum((e for row in m for e in row), ZERO) / (k * k)


def g_value(m):
    """Exact global minimum of w' M w over the simplex and a minimizing w.

    Returns (value, weights).  On the returned support, (M w) is constant and
    equal to the value.  Supports are tried in increasing bitmask order and
    the first strict minimum wins.
    """
    scale = math.lcm(*(e.denominator for row in m for e in row))
    a = [[e.numerator * (scale // e.denominator) for e in row] for row in m]
    k = len(a)
    best_support = best = None  # best: (lambda numerator, det, weight numerators)
    for mask in range(1, 1 << k):
        support = [i for i in range(k) if mask >> i & 1]
        rows = [[a[i][j] for j in support] for i in support]
        if best is not None and _cannot_beat(rows, best[0], best[1]):
            continue
        sol = _stationary(rows)
        if sol is None or any(v < 0 for v in sol[2]):
            continue
        # the value w' M w is lambda / scale; compare lambda = sol[0] / sol[1]
        if best is None or sol[0] * best[1] < best[0] * sol[1]:
            best_support, best = support, sol
    return _g_result(k, scale, best_support, best)


def _cannot_beat(rows, num, den):
    """Whether a stationary point with weights w >= 0 of the square integer
    matrix A given by its rows has lambda >= num / den, for den > 0 (never,
    for 1 / 0): each lambda = (A w)_i is at least the least entry of row i,
    and k lambda, the sum of the rows of A w, is at least the least column
    sum of A."""
    return (max(map(min, rows)) * den >= num
            or min(map(sum, zip(*rows))) * den >= len(rows) * num)


def _stationary(rows):
    """The stationary point of w' A w on the plane where the weights sum to
    one, for a square integer matrix A given by its rows: the w at which
    (A w) is a constant lambda.  Returns (lambda numerator, det, weight
    numerators), all over det > 0, or None when the system is singular.
    Weights may come out negative; callers decide what they accept."""
    s = len(rows)
    # A w - lambda 1 = 0, sum w = 1
    system = [[*row, -1, 0] for row in rows]
    system.append([1] * s + [0, 1])
    sol = solve_int(system)
    if sol is None:
        return None
    det, nums = sol
    return nums[s], det, nums[:s]


def _g_result(k, scale, support, sol):
    """(value, weights) as Fractions from a ``_stationary`` solution on a
    support of the k-vertex matrix A / scale; weights off the support are
    zero."""
    lam, det, nums = sol
    w = [ZERO] * k
    for i, v in zip(support, nums):
        w[i] = Fraction(v, det)
    return Fraction(lam, det * scale), tuple(w)


def _check_density(family, dens):
    if (dens.r, dens.palette) != (family.r, family.palette):
        raise ValueError("the density does not have the family's colors")


def _type_list(family, kmax, types, **kwargs):
    """The family's types at kmax, or the given list, whose first type must
    have the family's arity: the integer tables do not check each type.

    A given list must be closed under sub-types up to isomorphism, as every
    list ``enumerate_types`` yields is; closure is not checked.  On a list
    that is not closed ``dist_upper`` still returns a certified upper bound,
    but it may exceed the least g over the list."""
    if types is None:
        types = list(enumerate_types(family, kmax, **kwargs))
    if not types:
        raise TrivialPropertyError(
            "no admissible single-vertex type exists; the property has no large members"
        )
    if (types[0].r, types[0].palette) != (family.r, family.palette):
        raise ValueError("the types do not have the family's colors")
    return types


def dist_upper(family: PropertyFamily, dens, kmax: int, types=None, **kwargs) -> DistBound:
    """Certified upper bound: the least g over admissible types of at most
    kmax vertices, with the witnessing type and weights.

    Each type's system is solved on its full support only, which is exact
    when ``types`` is closed under sub-types up to isomorphism (see the
    module docstring), as it is when left to ``enumerate_types``.  On a list
    that is not closed the bound is still certified, but it may exceed the
    least g over the list.

    A type is ruled out unsolved when a lower bound on its stationary value
    reaches the best value: its least entry, read off the masks of its
    vertex and edge sets before its matrix is built, its largest row
    minimum, or its least column sum over k.  A matrix met before is passed
    over too.  Each skip drops only a type that cannot become the first
    strict minimum, so the result is that of solving every type's full
    support, on every list, closed or not (see the module docstring)."""
    _check_density(family, dens)
    types = _type_list(family, kmax, types, **kwargs)
    scale, entries = _scaled_entries(dens.masses)
    entry = entries.__getitem__
    best = None  # (type, _stationary solution)
    lam, det = 1, 0  # the best value times scale, lam / det: 1 / 0 before any
    low = set(range(len(entries)))  # the masks whose entry is below it
    seen = set()
    for t in types:
        if low.isdisjoint(t.vertex_sets) and low.isdisjoint(t.edge_sets):
            continue
        a = tuple(map(entry, itertools.chain.from_iterable(t.table)))  # scale * M, flat
        if a in seen:
            continue
        seen.add(a)
        k = t.k
        rows = [a[i:i + k] for i in range(0, k * k, k)]
        if _cannot_beat(rows, lam, det):
            continue
        sol = _stationary(rows)
        # a zero weight ties the sub-type without that vertex, which comes earlier
        if sol is None or min(sol[2]) <= 0 or sol[0] * det >= lam * sol[1]:
            continue
        best = t, sol
        lam, det = sol[0], sol[1]
        low = {m for m, e in enumerate(entries) if e * det < lam}
    if best is None:
        raise ValueError("no type has a full-support solution with positive weights: "
                         "the type list is not closed under sub-types")
    t, sol = best
    value, w = _g_result(t.k, scale, range(t.k), sol)
    return DistBound(value, "upper", kmax, UpperCertificate(t, w, dens))


def check_certificate(family: PropertyFamily, bound: DistBound) -> None:
    """Re-verify a ``dist_upper`` result from its certificate alone.

    Checks that the type is admissible for the family, that the weights lie
    on the simplex, that w' M w recomputes to the value, and that (M w)_i
    equals the value on the support.  Raises :class:`CertificateError`
    naming the first check that fails.
    """
    cert = bound.certificate
    k_type, w = cert.crg_type, cert.weights
    if not in_admissible_set(k_type, family):
        raise CertificateError("the certificate type is not admissible for the family")
    if len(w) != k_type.k or any(x < 0 for x in w) or sum(w) != 1:
        raise CertificateError("the certificate weights do not lie on the simplex")
    if cert.recompute() != bound.value:
        raise CertificateError("the certificate does not recompute to the bound")
    m = m_matrix(k_type, cert.density)
    for row, wi in zip(m, w):
        if wi and sum(e * x for e, x in zip(row, w)) != bound.value:
            raise CertificateError("(M w) differs from the bound on the support")


def dist_lower_turan(family: PropertyFamily) -> DistBound:
    """Turan-counting lower bound on the maximum of the distance function.

    Multicolor gives 1/(r (chi_strong - 1)) at uniform densities; a palette
    gives 1/(|P| (chi_strong - 1)).
    """
    chi = 1 + clique_spectrum(family, STRONG).max_sum
    if chi < 2:
        raise TrivialPropertyError("trivial property: strong chromatic number is 1")
    classes = family.palette.size if family.is_directed else family.r
    value = Fraction(1, classes * (chi - 1))
    return DistBound(value, "lower", None, {"chi_strong": chi, "color_classes": classes})


_Domain = collections.namedtuple("_Domain", "den base rows sizes public density")


def _domain(family):
    """The family's density domain (see the module docstring): the state
    masses, in ``masses`` bit order, are (base + rows . x) / den for reduced
    variables x >= 0 with sum sizes_j x_j <= 1, the left-over mass at least
    0.  Ties go to the least masses at the ``public`` bits, in order, and
    ``density`` builds the density from the masses."""
    if family.is_directed:
        classes = [c for c in ((NONEDGE,), (BIEDGE,), (FWD, BWD)) if c[0] in family.palette]
        rest, public, bits = classes.pop(0), (BIEDGE, FWD), len(DIR_CODES)

        def density(masses):
            return DirDensity(masses[BIEDGE], masses[FWD], family.palette)
    else:
        classes = [(bit,) for bit in range(family.r)]
        rest, public, bits, density = classes.pop(), range(family.r - 1), family.r, DensityVector
    den = len(rest)
    rows = tuple(tuple(den if bit in c else -len(c) if bit in rest else 0 for c in classes)
                 for bit in range(bits))
    base = tuple(int(bit in rest) for bit in range(bits))
    return _Domain(den, base, rows, tuple(map(len, classes)), public, density)


def _domain_point(dom, nums, n):
    """The density at which the reduced variables are ``nums`` / n."""
    scale = n * dom.den
    return dom.density(tuple(Fraction(n * b + sum(map(operator.mul, nums, row)), scale)
                             for b, row in zip(dom.base, dom.rows)))


def _affine_forms(family, shapes):
    """Deduped affine descriptions of f per type shape (see ``_shapes``), as
    (constant, coefficients) over the reduced density variables of the
    domain, with the forms that another form is pointwise no larger than
    dropped.

    f = 1 - sum_c counts[c] mass_c / k^2, so one form serves every type
    with the same (k, counts).  Forms are built as integers over the least
    common multiple of the k^2 times the domain's denominator, and become
    Fractions only once the dominated ones are dropped.
    """
    dom = _domain(family)
    columns = list(zip(*dom.rows))
    shapes = dict.fromkeys(shapes)
    lcm = math.lcm(*(k * k for k, _ in shapes))
    den = lcm * dom.den
    forms = {}
    for k, counts in shapes:
        unit = lcm // (k * k)
        forms[(den - unit * sum(map(operator.mul, counts, dom.base)),
               tuple(-unit * sum(map(operator.mul, counts, col)) for col in columns))] = None
    # Drop forms implied by a pointwise smaller one over the nonnegative
    # domain.  Such a form comes earlier in lexicographic order, and so does
    # an undominated form below it, so each form is tested against the
    # undominated forms before it only.
    undominated = []
    for c0, cf in sorted(forms):
        if not any(d0 <= c0 and all(map(operator.le, df, cf)) for d0, df in undominated):
            undominated.append((c0, cf))
    keep = set(undominated)
    return [(Fraction(c0, den), tuple(Fraction(c, den) for c in cf))
            for c0, cf in forms if (c0, cf) in keep]


def dist_max_upper(family: PropertyFamily, kmax: int, types=None, **kwargs):
    """Maximize min-over-types f over the density domain.

    f is affine in the densities, so this is an exact linear program; the
    result upper-bounds the maximum of the edit distance function.  Ties are
    broken toward the lexicographically smallest density: p_1, p_2, .. for
    a multicolour family, p then q for a directed one.  Returns (bound,
    maximizing density).
    """
    types = _type_list(family, kmax, types, **kwargs)
    shapes = _shapes(family, types)
    dom = _domain(family)
    rows, rhs = [], []
    for const, coefs in _affine_forms(family, shapes):
        rows.append([-c for c in coefs] + [ONE])  # t - f(x) <= const
        rhs.append(const)
    rows.append([*dom.sizes, 0])
    rhs.append(ONE)
    # t first, then each public coordinate, as a linear function of x, minimized
    objectives = [(0, *(-col[bit] for bit in dom.public)) for col in zip(*dom.rows)]
    objectives.append((1,) + (0,) * len(dom.public))

    x, value = simplex_max_lex(rows, rhs, objectives)
    x = x[:-1]
    n = math.lcm(*(v.denominator for v in x))
    dens = _domain_point(dom, [v.numerator * (n // v.denominator) for v in x], n)
    bound = _f_bound(dens, kmax, types, shapes)
    if bound.value != value[0]:
        raise AssertionError("linear program value does not recompute")
    return bound, dens


def dist_upper_f(family: PropertyFamily, dens, kmax: int, types=None, **kwargs) -> DistBound:
    """Upper bound via f (uniform weights) rather than g; used by the outer
    maximization because f is affine in the densities."""
    _check_density(family, dens)
    types = _type_list(family, kmax, types, **kwargs)
    return _f_bound(dens, kmax, types, _shapes(family, types))


def _f_bound(dens, kmax, types, shapes):
    """``dist_upper_f`` over types with the given shapes."""
    masses = dens.masses
    scale, entries = _scaled_entries(masses)
    mass = [scale - entries[1 << bit] for bit in range(len(masses))]  # scale * mass
    best_val = None
    best = None
    seen = set()
    for t, shape in zip(types, shapes):
        if shape in seen:  # the f of an earlier type, which cannot win now
            continue
        seen.add(shape)
        kk = t.k * t.k
        val = Fraction(scale * kk - sum(map(operator.mul, shape[1], mass)), scale * kk)
        if best_val is None or val < best_val:
            best_val = val
            uniform = (Fraction(1, t.k),) * t.k
            best = UpperCertificate(t, uniform, dens)
    return DistBound(best_val, "upper", kmax, best)


def symmetric_bound(family: PropertyFamily) -> Fraction:
    """Bound 1/(r * max tuple sum) for color-permutation symmetric families.

    Symmetry is verified on the computed weak spectrum, not assumed.
    """
    if family.is_directed:
        raise ValueError("symmetric bound applies to multicolor families")
    spectrum = clique_spectrum(family, WEAK)
    for perm in itertools.permutations(range(family.r)):
        for t in spectrum.tuples:
            if tuple(t[perm[i]] for i in range(family.r)) not in spectrum.tuples:
                raise AsymmetricFamilyError(
                    f"weak spectrum is not invariant under color permutation {perm}"
                )
    ell = spectrum.max_sum
    if ell == 0:
        raise TrivialPropertyError("trivial property: weak chromatic number is 1")
    return Fraction(1, family.r * ell)


def _grid_points(family, step: Fraction):
    """The densities whose reduced variables are multiples of the step,
    in lexicographic order of the variables."""
    if step <= 0 or (1 / step).denominator != 1:
        raise ValueError("grid step must be positive and divide 1")
    n = (1 / step).numerator
    dom = _domain(family)
    return (_domain_point(dom, nums, n) for nums in _lattice(dom.sizes, n))


def _lattice(sizes, budget):
    """Every tuple a >= 0 of integers with sum sizes_j a_j <= budget, in
    lexicographic order."""
    if not sizes:
        yield ()
        return
    for a in range(budget // sizes[0] + 1):
        for rest in _lattice(sizes[1:], budget - sizes[0] * a):
            yield (a, *rest)


def distfn_grid(family: PropertyFamily, kmax: int, step, types=None, **kwargs):
    """Tabulate dist_upper over a rational grid; returns (density, value) rows.

    A given ``types`` list must be closed under sub-types up to isomorphism,
    as for ``dist_upper``."""
    step = Fraction(step)
    types = _type_list(family, kmax, types, **kwargs)
    rows = []
    for dens in _grid_points(family, step):
        bound = dist_upper(family, dens, kmax, types)
        rows.append((dens, bound.value))
    return rows
