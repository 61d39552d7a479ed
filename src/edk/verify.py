"""Built-in reference checks: recompute the classic spectra, triangle and
tournament distance values for the bundled families and compare against the
known exact rationals."""

from __future__ import annotations

from fractions import Fraction

from . import catalog
from .distance import (
    check_certificate,
    dist_lower_turan,
    dist_max_upper,
    dist_upper,
    distfn_grid,
    symmetric_bound,
)
from .errors import TrivialPropertyError
from .graphs import DensityVector, DirDensity
from .spectrum import STRONG, WEAK, chromatic_number, clique_spectrum, is_trivial

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _check(name, expected, actual):
    return {
        "check": name,
        "expected": str(expected),
        "actual": str(actual),
        "pass": expected == actual,
    }


def _upper(family, dens, kmax):
    """The ``dist_upper`` value, its certificate re-verified first."""
    bound = dist_upper(family, dens, kmax)
    check_certificate(family, bound)
    return bound.value


def case_example_spectra():
    checks = []
    fam1 = catalog.two_triangle_family()
    checks.append(_check(
        "two-triangle weak spectrum",
        ((0, 0, 0), (0, 1, 0)),
        clique_spectrum(fam1, WEAK).sorted_tuples(),
    ))
    checks.append(_check("two-triangle weak chi", 2, chromatic_number(fam1, WEAK)))
    checks.append(_check("two-triangle strong chi", 2, chromatic_number(fam1, STRONG)))

    fam2 = catalog.triangle_112_family()
    checks.append(_check(
        "112-triangle weak spectrum",
        ((0, 0, 0), (0, 1, 0), (1, 0, 0)),
        clique_spectrum(fam2, WEAK).sorted_tuples(),
    ))
    checks.append(_check("112-triangle weak chi", 2, chromatic_number(fam2, WEAK)))
    checks.append(_check("112-triangle strong chi", 3, chromatic_number(fam2, STRONG)))

    fam3 = catalog.k5_family()
    checks.append(_check(
        "two-cycle K5 spectrum",
        ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)),
        clique_spectrum(fam3, WEAK).sorted_tuples(),
    ))
    checks.append(_check("two-cycle K5 chi", 3, chromatic_number(fam3, WEAK)))
    return checks


def case_triangles():
    checks = []
    fam = catalog.mono_triangle_family()
    checks.append(_check(
        "mono triangle at (1,0,0)",
        HALF,
        _upper(fam, DensityVector.of(1, 0, 0), 3),
    ))
    fam = catalog.triangle_112_family()
    checks.append(_check(
        "112 triangle at (1/2,1/2,0)",
        HALF,
        _upper(fam, DensityVector.of(HALF, HALF, 0), 3),
    ))
    fam = catalog.two_mono_triangles_family()
    checks.append(_check(
        "two mono triangles at (1/2,1/2,0)",
        HALF,
        _upper(fam, DensityVector.of(HALF, HALF, 0), 3),
    ))
    fam = catalog.bichromatic_triangles_family()
    bound, dens = dist_max_upper(fam, 2)
    checks.append(_check("six bichromatic maximum", Fraction(2, 3), bound.value))
    checks.append(_check("six bichromatic argmax", DensityVector.uniform(3).entries, dens.entries))
    rows = distfn_grid(fam, 1, Fraction(1, 12))
    checks.append(_check(
        "six bichromatic full function on the 1/12 grid",
        True,
        all(v == 1 - max(p.entries) for p, v in rows),
    ))
    fam = catalog.rainbow_triangle_family()
    bound, dens = dist_max_upper(fam, 1)
    checks.append(_check("rainbow maximum", THIRD, bound.value))
    checks.append(_check("rainbow argmax", DensityVector.uniform(3).entries, dens.entries))
    rows = distfn_grid(fam, 1, Fraction(1, 12))
    checks.append(_check(
        "rainbow full function on the 1/12 grid",
        True,
        all(v == min(p.entries) for p, v in rows),
    ))
    return checks


def case_tournament_triangle():
    checks = []
    fam = catalog.cyclic_triangle_family("tourn")
    chi = chromatic_number(fam, WEAK)
    checks.append(_check("cyclic triangle chi", 2, chi))
    value = _upper(fam, DirDensity.of(0, HALF, "tourn"), 1)
    checks.append(_check("cyclic triangle distance", HALF, value))
    checks.append(_check("matches 1/(2(chi-1))", Fraction(1, 2 * (chi - 1)), value))
    return checks


def case_tournament_chi3():
    checks = []
    fam = catalog.qr7_family()
    chi = chromatic_number(fam, WEAK)
    checks.append(_check("QR7 chi", 3, chi))
    point = DirDensity.of(0, HALF, "tourn")
    value = _upper(fam, point, 2)
    checks.append(_check("QR7 distance", Fraction(1, 4), value))
    checks.append(_check("matches 1/(2(chi-1))", Fraction(1, 2 * (chi - 1)), value))
    return checks


def case_transitive_tourn_trivial():
    fam = catalog.transitive_triangle_family("tourn")
    checks = [_check("transitive triangle under tourn is trivial", True, is_trivial(fam))]
    try:
        dist_lower_turan(fam)
        raised = False
    except TrivialPropertyError:
        raised = True
    checks.append(_check("lower bound refuses the trivial property", True, raised))
    return checks


def case_dir_triangles():
    checks = []
    point = {
        "full": DirDensity.of(0, HALF, "full"),
        "compl": DirDensity.of(0, HALF, "compl"),
        "orien": DirDensity.of(0, HALF, "orien"),
        "tourn": DirDensity.of(0, HALF, "tourn"),
    }
    for pal in ("full", "compl", "orien", "tourn"):
        fam = catalog.cyclic_triangle_family(pal)
        bound, _ = dist_max_upper(fam, 1)
        checks.append(_check(f"directed triangle under {pal}", HALF, bound.value))
        checks.append(_check(
            f"directed triangle under {pal} at (0,1/2)",
            HALF,
            _upper(fam, point[pal], 1),
        ))
    for pal in ("full", "compl", "orien"):
        fam = catalog.transitive_triangle_family(pal)
        bound, _ = dist_max_upper(fam, 2)
        checks.append(_check(f"transitive triangle under {pal}", HALF, bound.value))
        fam = catalog.both_triangles_family(pal)
        bound, _ = dist_max_upper(fam, 2)
        checks.append(_check(f"both triangles under {pal}", HALF, bound.value))
    return checks


def case_symmetric_k5():
    fam = catalog.k5_family()
    checks = [
        _check("symmetric bound", Fraction(1, 4), symmetric_bound(fam)),
        _check("Turan lower bound", Fraction(1, 4), dist_lower_turan(fam).value),
    ]
    return checks


CASES = {
    "example-spectra": case_example_spectra,
    "triangles": case_triangles,
    "tournament-triangle": case_tournament_triangle,
    "tournament-chi3": case_tournament_chi3,
    "transitive-tourn-trivial": case_transitive_tourn_trivial,
    "dir-triangles": case_dir_triangles,
    "symmetric-k5": case_symmetric_k5,
}


def run_cases(selector="all"):
    """Run one named case or all of them; returns the report dict."""
    if selector in (None, "all"):
        names = list(CASES)
    elif selector in CASES:
        names = [selector]
    else:
        raise ValueError(f"unknown case {selector!r}; choose from {sorted(CASES)} or all")
    cases = []
    for name in names:
        checks = CASES[name]()
        cases.append({
            "case": name,
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        })
    return {"cases": cases, "pass": all(c["pass"] for c in cases)}
