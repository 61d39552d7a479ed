"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import statistics
import time
from fractions import Fraction

import edk
from edk import ColoredGraph, DensityVector, DirDensity, DirType, PropertyFamily, RType
from edk.catalog import (
    bichromatic_triangles_family,
    cyclic_triangle_family,
    mono_triangle_family,
    qr7_family,
    rainbow_triangle_family,
    transitive_tournament,
    transitive_triangle_family,
    triangle_112_family,
    two_mono_triangles_family,
    two_triangle_family,
)
from edk.graphs import FWD, pair_count
from edk.oracle import estimate_dist, exact_dist, sample_digraph, sample_rgraph
from oracles import grid_quadratic_min, min_transitive_partition

F = Fraction
HALF = F(1, 2)
THIRD = F(1, 3)
TOURN_POINT = DirDensity.of(0, HALF, "tourn")


def test_criterion_1_example_spectra():
    start = time.monotonic()
    fam = two_triangle_family()
    assert edk.clique_spectrum(fam, "weak").tuples == frozenset({(0, 1, 0), (0, 0, 0)})
    assert edk.chromatic_number(fam, "weak") == 2
    assert edk.chromatic_number(fam, "strong") == 2

    fam = triangle_112_family()
    assert edk.clique_spectrum(fam, "weak").tuples == frozenset(
        {(1, 0, 0), (0, 1, 0), (0, 0, 0)}
    )
    assert edk.chromatic_number(fam, "weak") == 2
    assert edk.chromatic_number(fam, "strong") == 3

    from edk.catalog import k5_family

    fam = k5_family()
    assert edk.clique_spectrum(fam, "weak").tuples == frozenset(
        {(2, 0), (1, 0), (1, 1), (0, 2), (0, 1), (0, 0)}
    )
    assert edk.chromatic_number(fam, "weak") == 3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: example spectra exact in {elapsed:.3f}s")


def test_criterion_2_triangle_values():
    start = time.monotonic()
    assert edk.dist_upper(mono_triangle_family(), DensityVector.of(1, 0, 0), 3).value == HALF
    assert edk.dist_upper(
        triangle_112_family(), DensityVector.of(HALF, HALF, 0), 3
    ).value == HALF
    assert edk.dist_upper(
        two_mono_triangles_family(), DensityVector.of(HALF, HALF, 0), 3
    ).value == HALF

    fam = bichromatic_triangles_family()
    bound, dens = edk.dist_max_upper(fam, 2)
    assert bound.value == F(2, 3)
    assert dens == DensityVector.uniform(3)
    for p, value in edk.distfn_grid(fam, 1, F(1, 12)):
        assert value == 1 - max(p.entries)

    fam = rainbow_triangle_family()
    bound, dens = edk.dist_max_upper(fam, 1)
    assert bound.value == THIRD
    assert dens == DensityVector.uniform(3)
    for p, value in edk.distfn_grid(fam, 1, F(1, 12)):
        assert value == min(p.entries)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 PASS: five triangle values and both grids exact in {elapsed:.1f}s")


def test_criterion_3_tournaments():
    fam = cyclic_triangle_family("tourn")
    chi = edk.chromatic_number(fam, "weak")
    assert chi == 2
    assert min_transitive_partition(fam.forbidden[0]) == 2  # exhaustive cross-check
    assert edk.dist_upper(fam, TOURN_POINT, 1).value == HALF

    # forbidding the transitive 4-tournament: the spectrum module derives the
    # partition number 1 (every subtournament is transitive), so the property
    # is trivial and the 1/(2(chi-1)) formula has no value to take
    fam = PropertyFamily.directed("tourn", [transitive_tournament(4)])
    chi = edk.chromatic_number(fam, "weak")
    assert chi == min_transitive_partition(transitive_tournament(4)) == 1
    assert edk.is_trivial(fam)

    # a tournament that genuinely needs three transitive parts
    fam = qr7_family()
    chi = edk.chromatic_number(fam, "weak")
    assert chi == min_transitive_partition(fam.forbidden[0]) == 3
    bound = edk.dist_upper(fam, TOURN_POINT, 2)
    assert bound.value == F(1, 2 * (chi - 1)) == F(1, 4)
    print("ACCEPTANCE 3 PASS: tournament chromatic numbers cross-checked, "
          "distances match 1/(2(chi-1)); transitive forbidden tournaments flag trivial")


def _assert_stationary(bound):
    cert = bound.certificate
    from edk.distance import m_matrix

    m = m_matrix(cert.crg_type, cert.density)
    k = len(m)
    for i in range(k):
        if cert.weights[i] > 0:
            assert sum(m[i][j] * cert.weights[j] for j in range(k)) == bound.value


def test_criterion_4_directed_triangles():
    start = time.monotonic()
    for pal in ("full", "compl", "orien", "tourn"):
        fam = cyclic_triangle_family(pal)
        point = DirDensity.of(0, HALF, pal)
        bound = edk.dist_upper(fam, point, 1)
        assert bound.value == HALF
        _assert_stationary(bound)
        max_bound, _ = edk.dist_max_upper(fam, 1)
        assert max_bound.value == HALF

    assert edk.is_trivial(transitive_triangle_family("tourn"))

    for pal in ("full", "compl", "orien"):
        bound, _ = edk.dist_max_upper(transitive_triangle_family(pal), 2)
        assert bound.value == HALF
        from edk.catalog import both_triangles_family

        bound, _ = edk.dist_max_upper(both_triangles_family(pal), 2)
        assert bound.value == HALF
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS: directed triangle distances exact in {elapsed:.1f}s")


def _random_small_family(rng):
    if rng.random() < 0.5:
        r, max_order = 2, 5
    else:
        r, max_order = 3, 4
    graphs = []
    for _ in range(rng.choice((1, 2))):
        n = rng.randint(3, max_order)
        graphs.append(
            ColoredGraph(n, r, tuple(rng.randint(1, r) for _ in range(pair_count(n))))
        )
    return PropertyFamily.multicolor(r, graphs)


def test_criterion_5_sandwich():
    rng = random.Random(20260808)
    done = 0
    while done < 20:
        fam = _random_small_family(rng)
        chi_w = edk.chromatic_number(fam, "weak")
        if chi_w < 2:
            continue
        chi_s = edk.chromatic_number(fam, "strong")
        assert chi_w <= chi_s
        kmax = chi_w - 1
        lower = edk.dist_lower_turan(fam).value
        upper, _ = edk.dist_max_upper(fam, kmax)
        assert lower <= upper.value <= F(1, chi_w - 1), (fam, lower, upper.value)
        done += 1
    print(f"ACCEPTANCE 5 PASS: sandwich bounds hold on {done} random families")


def test_criterion_6_qp_oracle():
    rng = random.Random(987654)
    worst = 0.0
    for _ in range(100):
        k = rng.randint(2, 5)
        m = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                m[i][j] = m[j][i] = F(rng.randint(0, 60), 60)
        m = tuple(tuple(row) for row in m)
        value, w = edk.g_value(m)
        approx = grid_quadratic_min(m)
        worst = max(worst, abs(float(value) - approx))
        assert abs(float(value) - approx) <= 1e-6
        assert float(value) <= approx + 1e-9
        for i in range(k):
            if w[i] > 0:
                assert sum(m[i][j] * w[j] for j in range(k)) == value
    print(f"ACCEPTANCE 6 PASS: quadratic program matches dense search on 100 "
          f"matrices (worst gap {worst:.2e}); stationarity exact")


def test_criterion_7_editing():
    fam = mono_triangle_family()
    k = RType(3, (6, 6), (7,))
    w = (F(1, 3), F(2, 3))
    for seed in range(100):
        g = sample_rgraph(12, DensityVector.uniform(3), seed)
        edited, _ = edk.edit_by_type(g, k, w, seed=seed)
        assert edk.is_member(edited, fam)

    dfam = cyclic_triangle_family("tourn")
    dk = DirType(edk.palette("tourn"), (1 << FWD,), ())
    for seed in range(100):
        g = sample_digraph(12, TOURN_POINT, seed)
        edited, _ = edk.edit_by_dirtype(g, dk, (F(1),), seed=seed)
        assert edk.is_member(edited, dfam)

    n, trials = 30, 1000
    g = sample_rgraph(n, DensityVector.uniform(3), 424242)
    p = edk.color_density(g)
    expected = float(edk.expected_changes(k, w, p, n))
    values = [edk.edit_by_type(g, k, w, seed=5000 + i)[1] for i in range(trials)]
    mean = statistics.mean(values)
    se = statistics.pstdev(values) / trials ** 0.5
    assert abs(mean - expected) <= 3 * se

    gd = sample_digraph(n, TOURN_POINT, 77)
    pd = edk.dir_density(gd, "tourn")
    expected_d = float(edk.expected_changes(dk, (F(1),), pd, n))
    values_d = [edk.edit_by_dirtype(gd, dk, (F(1),), seed=7000 + i)[1] for i in range(trials)]
    mean_d = statistics.mean(values_d)
    se_d = statistics.pstdev(values_d) / trials ** 0.5
    assert abs(mean_d - expected_d) <= 3 * se_d
    print(f"ACCEPTANCE 7 PASS: 200 edits all members; change counts within "
          f"3 sigma (z={abs(mean - expected) / se:.2f}, z={abs(mean_d - expected_d) / se_d:.2f})")


def test_criterion_8_oracle_dominance_and_trend():
    fam = rainbow_triangle_family()
    p = DensityVector.uniform(3)
    bound = edk.dist_upper(fam, p, 1)
    k, w = bound.certificate.crg_type, bound.certificate.weights
    for seed in range(50):
        g = sample_rgraph(7, p, seed)
        exact, witness = exact_dist(g, fam)
        _, changes = edk.edit_by_type(g, k, w, seed=seed)
        assert exact <= changes
        assert edk.is_member(witness, fam)

    means = []
    for n, trials in ((5, 60), (6, 60), (7, 40), (8, 30)):
        stats = estimate_dist(n, p, fam, trials, seed=20260808, mode="exact")
        means.append(float(stats.mean))
        assert stats.mean <= THIRD  # the limit value bounds every sample
    inversions = sum(1 for a, b in zip(means, means[1:]) if a > b)
    assert inversions <= 1
    print(f"ACCEPTANCE 8 PASS: exact distance dominated by editing on 50 graphs; "
          f"means {['%.3f' % m for m in means]} rise toward 1/3 "
          f"({inversions} inversions)")


def test_criterion_9_concavity():
    cases = [
        (rainbow_triangle_family(), 1),
        (two_triangle_family(), 2),
    ]
    rng = random.Random(31415)
    for fam, kmax in cases:
        types = list(edk.enumerate_types(fam, kmax))
        checked = 0
        while checked < 25:
            a = [rng.randint(0, 12) for _ in range(3)]
            b = [rng.randint(0, 12) for _ in range(3)]
            if sum(a) == 0 or sum(b) == 0:
                continue
            pa = DensityVector(tuple(F(x, sum(a)) for x in a))
            pb = DensityVector(tuple(F(x, sum(b)) for x in b))
            va = edk.dist_upper(fam, pa, kmax, types).value
            vb = edk.dist_upper(fam, pb, kmax, types).value
            for t in (F(1, 4), HALF, F(3, 4)):
                mix = DensityVector(tuple(t * x + (1 - t) * y for x, y in zip(pa, pb)))
                vmix = edk.dist_upper(fam, mix, kmax, types).value
                assert vmix >= t * va + (1 - t) * vb
            checked += 1
    print("ACCEPTANCE 9 PASS: fixed-type-set concavity holds exactly on 50 mixtures")
