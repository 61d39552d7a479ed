"""Exact linear algebra for small dense systems: a fraction-free integer
solver and a simplex solver with a lexicographic objective.

Systems stay tiny (a handful of variables), so plain elimination and a
small tableau are the right tools.  The solver works on Python ints, the
simplex over :class:`fractions.Fraction`, on a tableau with one column per
nonbasic variable and none per basic one: Bland's rule picks variables by
index, not by column, so it makes the pivots a column per variable would.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


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


def simplex_max_lex(rows, rhs, objectives):
    """Maximize a lexicographic objective over {x >= 0 : rows . x <= rhs}.

    ``objectives[j]`` is the objective tuple attached to variable j; the
    program maximizes sum_j x_j * objectives[j] under tuple comparison.  All
    rhs entries must be nonnegative so the slack basis is feasible.  Returns
    (x, objective value).  Bland's rule guarantees termination: enter the
    least variable index whose reduced cost is positive, and leave on the
    least ratio, ties to the least basic variable index.  Column j holds
    nonbasic variable ``free[j]``; a pivot swaps it with the leaving one.
    """
    n = len(objectives)
    depth = len(objectives[0]) if objectives else 1
    zero_t = (ZERO,) * depth
    if any(v < 0 for v in rhs):
        raise ValueError("simplex start needs nonnegative rhs")
    tab = [[Fraction(v) for v in (*row, b)] for row, b in zip(rows, rhs)]  # rhs last
    red = [tuple(Fraction(v) for v in obj) for obj in objectives]  # reduced costs per column
    free = list(range(n))
    basis = list(range(n, n + len(tab)))
    value = zero_t

    while True:
        s = min((j for j in range(n) if red[j] > zero_t), key=free.__getitem__, default=-1)
        if s < 0:
            break
        leaving = -1
        for i, row in enumerate(tab):
            if row[s] > 0:
                r = row[-1] / row[s]
                if leaving < 0 or r < ratio or (r == ratio and basis[i] < basis[leaving]):
                    ratio, leaving = r, i
        if leaving < 0:
            raise ValueError("objective unbounded")
        # the exchange: column s now holds the leaving variable
        inv = 1 / tab[leaving][s]
        top = tab[leaving] = [v * inv for v in tab[leaving]]
        top[s] = inv
        for i, row in enumerate(tab):
            f = row[s]
            if i != leaving and f:
                tab[i] = [a - f * t for a, t in zip(row, top)]
                tab[i][s] = -f * inv
        cost = red[s]
        red = [tuple(a - c * t for a, c in zip(rj, cost)) for rj, t in zip(red, top)]
        red[s] = tuple(-c * inv for c in cost)
        value = tuple(v + c * ratio for v, c in zip(value, cost))
        free[s], basis[leaving] = basis[leaving], free[s]

    x = [ZERO] * n
    for row, v in zip(tab, basis):
        if v < n:
            x[v] = row[-1]
    return x, value
