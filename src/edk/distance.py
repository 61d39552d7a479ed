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
Fractions.

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

The bounds read every type at a density through one integer table per
density: the least common multiple of the density's denominators, and per
color mask that multiple times one minus the mask's mass.  A type's scaled
matrix is that table indexed by its mask table, and f depends on a type only
through its vertex count and how many ordered pairs of its table hold each
color: its shape, counted once per type list.  Scaling M by a positive
constant changes neither the minimizing weights nor the order of the values,
so the results are the Fractions the per-type matrices would give.  ``m_matrix``, ``f_value``, ``quad_form``,
``UpperCertificate.recompute`` and ``check_certificate`` stay on Fractions:
``check_certificate`` re-verifies an upper bound from its certificate alone.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .crg import enumerate_types, in_admissible_set
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
    if isinstance(dens, DirDensity):
        if k_type.palette != dens.palette:
            raise ValueError("density palette does not match the type")
    elif k_type.r != dens.r:
        raise ValueError("density length does not match the type")
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
    mask holds the bit.  f depends on a type through its shape alone."""
    colors = len(DIR_CODES) if family.is_directed else family.r
    shapes = []
    for t in types:
        tally = collections.Counter(itertools.chain.from_iterable(t.table))
        shapes.append((t.k, tuple(sum(n for mask, n in tally.items() if mask >> bit & 1)
                                  for bit in range(colors))))
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
        # w' M w on the support is at least its least entry: skip when that cannot win
        if best is not None and min(map(min, rows)) * best[1] >= best[0]:
            continue
        sol = _stationary(rows)
        if sol is None or any(v < 0 for v in sol[2]):
            continue
        # the value w' M w is lambda / scale; compare lambda = sol[0] / sol[1]
        if best is None or sol[0] * best[1] < best[0] * sol[1]:
            best_support, best = support, sol
    return _g_result(k, scale, best_support, best)


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
    if family.is_directed:
        if not isinstance(dens, DirDensity) or dens.palette != family.palette:
            raise ValueError("expected a DirDensity for this palette")
    else:
        if not isinstance(dens, DensityVector) or dens.r != family.r:
            raise ValueError(f"expected a DensityVector with r={family.r}")


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
    least g over the list."""
    _check_density(family, dens)
    types = _type_list(family, kmax, types, **kwargs)
    scale, entries = _scaled_entries(dens.masses)
    entry = entries.__getitem__
    best_val = None
    best = None
    solved = {}
    for t in types:
        a = tuple(map(entry, itertools.chain.from_iterable(t.table)))  # scale * M, flat
        if a in solved:
            found = solved[a]
        else:
            # w' M w is at least the least entry of M: skip when that cannot win
            if best_val is not None and min(a) * best_val.denominator >= best_val.numerator * scale:
                continue
            k = t.k
            sol = _stationary([a[i:i + k] for i in range(0, k * k, k)])
            # a zero weight ties the sub-type without that vertex, which comes earlier
            found = solved[a] = (None if sol is None or min(sol[2]) <= 0
                                 else _g_result(k, scale, range(k), sol))
        if found is not None and (best_val is None or found[0] < best_val):
            best_val, w = found
            best = UpperCertificate(t, w, dens)
    if best is None:
        raise ValueError("no type has a full-support solution with positive weights: "
                         "the type list is not closed under sub-types")
    return DistBound(best_val, "upper", kmax, best)


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


def _affine_forms(family, shapes):
    """Deduped affine descriptions of f per type shape (see ``_shapes``), as
    (constant, coefficients) over the reduced density variables of the
    arity, with the forms that another form is pointwise no larger than
    dropped.

    f = 1 - sum_c counts[c] mass_c / k^2, so one form serves every type
    with the same (k, counts).  Forms are built as integers over the least
    common multiple of the k^2, doubled for directed families so that the
    tournament's q = 1/2 stays integral, and become Fractions only once the
    dominated ones are dropped.
    """
    directed = family.is_directed
    shapes = dict.fromkeys(shapes)
    den = math.lcm(*(k * k for k, _ in shapes)) * (2 if directed else 1)
    forms = {}
    for k, counts in shapes:
        unit = den // (k * k)
        if not directed:
            # over p_1..p_{r-1}; p_r substituted
            last = counts[-1]
            const, coefs = den - last * unit, tuple((last - c) * unit for c in counts[:-1])
        else:
            none, both = counts[NONEDGE], counts[BIEDGE]
            # f = c0 + cp * p + cq * q
            c0 = den - none * unit
            cp = (none - both) * unit
            cq = (2 * none - counts[FWD] - counts[BWD]) * unit
            kind = family.palette.kind
            if kind == "full":
                const, coefs = c0, (cp, cq)
            elif kind == "compl":
                const, coefs = c0 + cp, (cq - 2 * cp,)
            elif kind == "orien":
                const, coefs = c0, (cq,)
            elif kind == "undir":
                const, coefs = c0, (cp,)
            else:  # tourn: no free variables
                const, coefs = c0 + cq // 2, ()
        forms[(const, coefs)] = None
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


def _lp_setup(family):
    """Reduced variables, domain rows and tie-break signs for the arity.

    Tie-break signs encode lexicographic minimization of the full density
    vector through the reduction.
    """
    if not family.is_directed:
        nvars = family.r - 1
        domain = [([ONE] * nvars, ONE)] if nvars else []
        signs = [-1] * nvars
        return nvars, domain, signs
    kind = family.palette.kind
    if kind == "full":
        return 2, [([ONE, Fraction(2)], ONE)], [-1, -1]
    if kind == "compl":
        return 1, [([Fraction(2)], ONE)], [1]  # p = 1 - 2q; min p means max q
    if kind in ("orien", "undir"):
        return 1, [([Fraction(2 if kind == "orien" else 1)], ONE)], [-1]
    return 0, [], []  # tourn


def _density_from_vars(family, x):
    if not family.is_directed:
        rest = ONE - sum(x, ZERO)
        return DensityVector(tuple(x) + (rest,))
    kind = family.palette.kind
    if kind == "full":
        return DirDensity(x[0], x[1], family.palette)
    if kind == "compl":
        return DirDensity(ONE - 2 * x[0], x[0], family.palette)
    if kind == "orien":
        return DirDensity(ZERO, x[0], family.palette)
    if kind == "undir":
        return DirDensity(x[0], ZERO, family.palette)
    return DirDensity(ZERO, Fraction(1, 2), family.palette)


def dist_max_upper(family: PropertyFamily, kmax: int, types=None, **kwargs):
    """Maximize min-over-types f over the density domain.

    f is affine in the densities, so this is an exact linear program; the
    result upper-bounds the maximum of the edit distance function.  Ties are
    broken toward the lexicographically smallest density vector.  Returns
    (bound, maximizing density).
    """
    types = _type_list(family, kmax, types, **kwargs)
    shapes = _shapes(family, types)
    forms = _affine_forms(family, shapes)
    nvars, domain, signs = _lp_setup(family)

    if nvars == 0:
        dens = _density_from_vars(family, ())
        return _f_bound(dens, kmax, types, shapes), dens

    rows = []
    rhs = []
    for const, coefs in forms:
        rows.append([-c for c in coefs] + [ONE])  # t - f(y) <= const
        rhs.append(const)
    for drow, dval in domain:
        rows.append(list(drow) + [ZERO])
        rhs.append(dval)

    depth = nvars + 1
    objectives = []
    for i in range(nvars):
        vec = [ZERO] * depth
        vec[i + 1] = Fraction(signs[i])
        objectives.append(tuple(vec))
    objectives.append((ONE,) + (ZERO,) * nvars)  # t comes last

    x, value = simplex_max_lex(rows, rhs, objectives)
    dens = _density_from_vars(family, x[:nvars])
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
    if step <= 0 or (1 / step).denominator != 1:
        raise ValueError("grid step must be positive and divide 1")
    n = (1 / step).numerator
    if not family.is_directed:
        r = family.r
        for combo in itertools.combinations(range(n + r - 1), r - 1):
            cuts = (-1,) + combo + (n + r - 1,)
            parts = tuple(cuts[i + 1] - cuts[i] - 1 for i in range(r))
            yield DensityVector(tuple(Fraction(a, n) for a in parts))
        return
    kind = family.palette.kind
    if kind == "tourn":
        yield DirDensity(ZERO, Fraction(1, 2), family.palette)
    elif kind == "compl":
        for j in range(n // 2 + 1):
            yield DirDensity(Fraction(n - 2 * j, n), Fraction(j, n), family.palette)
    elif kind == "orien":
        for j in range(n // 2 + 1):
            yield DirDensity(ZERO, Fraction(j, n), family.palette)
    elif kind == "undir":
        for i in range(n + 1):
            yield DirDensity(Fraction(i, n), ZERO, family.palette)
    else:
        for i in range(n + 1):
            for j in range((n - i) // 2 + 1):
                yield DirDensity(Fraction(i, n), Fraction(j, n), family.palette)


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
