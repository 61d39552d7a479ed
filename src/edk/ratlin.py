"""Exact linear algebra for small dense systems: a fraction-free integer
solver and a simplex solver with a lexicographic objective.

Systems stay tiny (a handful of variables), so plain elimination and a
dense tableau are the right tools.  The solver works on Python ints, the
simplex over :class:`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_int(rows):
    """Solve A x = b over the integers by fraction-free Gauss-Jordan
    elimination (Bareiss); return None when A is singular.

    ``rows`` holds the augmented rows [A | b] and is overwritten.  Every
    division is exact, so entries stay integers.  Returns (det, numerators)
    with det > 0 and x_i = numerators[i] / det.
    """
    n = len(rows)
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = rows[r]
                f = row[col]
                rows[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
    # every diagonal entry now equals prev, the determinant up to sign
    if prev < 0:
        return -prev, [-row[n] for row in rows]
    return prev, [row[n] for row in rows]


def _tadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _tscale(s, u):
    return tuple(s * a for a in u)


def simplex_max_lex(rows, rhs, objectives):
    """Maximize a lexicographic objective over {x >= 0 : rows . x <= rhs}.

    ``objectives[j]`` is the objective tuple attached to variable j; the
    program maximizes sum_j x_j * objectives[j] under tuple comparison.  All
    rhs entries must be nonnegative so the slack basis is feasible.  Returns
    (x, objective value).  Bland's rule guarantees termination.
    """
    m = len(rows)
    n = len(objectives)
    depth = len(objectives[0]) if objectives else 1
    zero_t = (ZERO,) * depth
    for b in rhs:
        if b < 0:
            raise ValueError("simplex start needs nonnegative rhs")

    # tableau over structural + slack variables
    tab = []
    for i, row in enumerate(rows):
        line = [Fraction(v) for v in row] + [ZERO] * m + [Fraction(rhs[i])]
        line[n + i] = ONE
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

    x = [ZERO] * n
    value = zero_t
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
            value = _tadd(value, _tscale(x[b], cost[b]))
    return x, value
