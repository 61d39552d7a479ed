"""The three benchmark workloads and the checks every op must pass.

A workload builds its families and certificates in ``setup`` (timed as
set-up, not as ops), then runs ops from a fixed cycle.  An op calls the
public ``edk`` functions in the order the matching CLI subcommand does and
checks the result; a failed check raises ``CheckFailed``.  An op calls
``mark()`` between its steps, where the harness takes a machine-speed
reading (see ``run.SpeedMeter``) that is not part of the op's time.  Op
``i`` of a run with seed ``s`` draws its inputs from ``op_seed`` of ``s``
and ``i`` alone, so the same seed gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


class CheckFailed(Exception):
    """An op returned a result that does not match its reference."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def op_seed(seed, index):
    return seed * 1_000_003 + index


def density_text(dens):
    if hasattr(dens, "entries"):
        return ",".join(str(p) for p in dens.entries)
    return f"{dens.p},{dens.q}"


def interior_points(edk, family, den=12):
    """The points of the family's density domain with denominator ``den`` at
    which every colour, or every pair state of the palette, has positive
    density: the generic case, away from the degenerate boundary."""
    if not family.is_directed:
        return [edk.DensityVector(tuple(Fraction(a, den) for a in parts))
                for parts in itertools.product(range(1, den), repeat=family.r)
                if sum(parts) == den]
    points = []
    for i in range(den + 1):
        for j in range((den - i) // 2 + 1):
            try:
                dens = edk.DirDensity(Fraction(i, den), Fraction(j, den), family.palette)
            except ValueError:  # outside this palette's domain
                continue
            if all(dens.by_code()[c] > 0 for c in family.palette.codes):
                points.append(dens)
    return points


# Pinned from the seed commit: admissible type counts, the dist_max_upper
# value and argmax, the Turan lower bound, and the distfn grid values.
BOUNDS_REFERENCE = {
    "qr7": {"types": 49, "max": "1/4", "argmax": "0,1/2", "lower": "1/4"},
    "cyclic-full": {"types": 717, "max": "1/2", "argmax": "0,1/2", "lower": "1/8",
                    "grid": "0 1/4 1/2 0 1/4 0 1/4 0 0"},
    "rainbow": {"types": 1635, "max": "1/3", "argmax": "1/3,1/3,1/3", "lower": "1/3"},
    "mono": {"types": 1452, "max": "1/2", "argmax": "1,0,0", "lower": "1/6",
             "grid": "0 0 0 0 1/6 1/6 1/6 1/3 1/3 1/2"},
    "both-orien": {"types": 421, "max": "1/2", "argmax": "0,1/2", "lower": "1/6"},
    "two-mono": {"types": 1520, "max": "1/2", "argmax": "0,1,0", "lower": "1/6"},
}


class Bounds:
    """One op is one pass of ``edk types`` then ``edk distfn`` over six
    families, then ``verify-paper``.

    The family steps differ in cost by a factor of 30, and a run has room
    for only two or three of them each, so a whole pass is the op: its
    latency percentiles then describe many steps, not one.
    """

    name = "bounds"
    scaled = False  # the reference kernel does not track its ops' speed
    families = ("qr7", "cyclic-full", "rainbow", "mono", "both-orien", "two-mono")
    verify_paper = True

    def setup(self, edk):
        from edk import catalog, verify

        specs = {  # family, kmax, grid step
            "qr7": (catalog.qr7_family(), 3, None),
            "cyclic-full": (catalog.cyclic_triangle_family("full"), 2, Fraction(1, 4)),
            "rainbow": (catalog.rainbow_triangle_family(), 3, None),
            "mono": (catalog.mono_triangle_family(), 3, Fraction(1, 3)),
            "both-orien": (catalog.both_triangles_family("orien"), 4, None),
            "two-mono": (catalog.two_mono_triangles_family(), 4, None),
        }
        self.edk = edk
        self.verify = verify
        self.steps = []
        for name in self.families:
            family, kmax, step = specs[name]
            self.steps.append((name, edk.format_property(family), kmax, step,
                               interior_points(edk, family)))
        self.cycle = [("pass",)]

    def run(self, spec, index, seed, mark):
        rng = random.Random(op_seed(seed, index))
        for step in self.steps:
            self._family(rng, *step)
            mark()
        if self.verify_paper:
            check(self.verify.run_cases("all")["pass"], "verify-paper failed")

    def _family(self, rng, name, text, kmax, step, points):
        edk = self.edk
        ref = BOUNDS_REFERENCE[name]
        family = edk.parse_property(text)
        types = list(edk.enumerate_types(family, kmax))
        check(len(types) == ref["types"],
              f"{name}: {len(types)} types at kmax={kmax}, expected {ref['types']}")
        dens = rng.choice(points)
        bound = edk.dist_upper(family, dens, kmax, types)
        check(bound.certificate.recompute() == bound.value,
              f"{name}: certificate does not recompute at {density_text(dens)}")
        best, argmax = edk.dist_max_upper(family, kmax, types)
        check(str(best.value) == ref["max"] and density_text(argmax) == ref["argmax"],
              f"{name}: maximum {best.value} at {density_text(argmax)}")
        check(0 <= bound.value <= best.value,
              f"{name}: bound {bound.value} at {density_text(dens)} exceeds the maximum")
        lower = edk.dist_lower_turan(family)
        check(str(lower.value) == ref["lower"], f"{name}: Turan bound {lower.value}")
        if step is not None:
            rows = edk.distfn_grid(family, kmax, step, types)
            got = " ".join(str(v) for _, v in rows)
            check(got == ref["grid"], f"{name}: grid values {got}")


def _sample(edk, family, n, dens, seed):
    if family.is_directed:
        return edk.sample_digraph(n, dens, seed)
    return edk.sample_rgraph(n, dens, seed)


def _certificates(edk, families):
    """The dist_upper kmax=2 certificate per family at its sampling density."""
    return {name: edk.dist_upper(fam, dens, 2) for name, fam, dens, *_ in families}


def _edit(edk, family, graph, cert, seed):
    editor = edk.edit_by_dirtype if family.is_directed else edk.edit_by_type
    return editor(graph, cert.crg_type, cert.weights, seed)


class Edit:
    """``edk sample`` then ``edk edit`` at n=120, checked by membership.

    One op edits one graph of each family of one kind: the two multicolour
    families, or the two directed ones.  With one graph per op, the four
    families' costs split the latencies into four groups, and the median
    fell between two of them.
    """

    name = "edit"
    scaled = True
    n = 120

    def setup(self, edk):
        from edk import catalog

        half, quarter = Fraction(1, 2), Fraction(1, 4)
        self.edk = edk
        multicolor = [
            ("mono", catalog.mono_triangle_family(), edk.DensityVector.uniform(3)),
            ("rainbow", catalog.rainbow_triangle_family(), edk.DensityVector.uniform(3)),
        ]
        directed = [
            ("cyclic-tourn", catalog.cyclic_triangle_family("tourn"),
             edk.DirDensity.of(0, half, "tourn")),
            ("both-full", catalog.both_triangles_family("full"),
             edk.DirDensity.of(quarter, quarter, "full")),
        ]
        self.certs = _certificates(edk, multicolor + directed)
        self.cycle = [("multicolor", multicolor), ("directed", directed)]

    def run(self, spec, index, seed, mark):
        _, families = spec
        for j, family_spec in enumerate(families):
            if j:
                mark()
            self._edit_one(op_seed(seed, index * len(families) + j), *family_spec)

    def _edit_one(self, s, name, family, dens):
        edk = self.edk
        graph = _sample(edk, family, self.n, dens, s)
        text = edk.format_graph(graph, family.palette)
        parsed = edk.parse_graph(text)
        check(parsed == graph, f"{name}: graph file round trip changed the graph")
        bound = self.certs[name]
        cert = bound.certificate
        check(cert.recompute() == bound.value, f"{name}: certificate does not recompute")
        edited, changes = _edit(edk, family, parsed, cert, s)
        check(edk.is_member(edited, family), f"{name}: edited graph is not a member")
        check(changes == edk.hamming(parsed, edited),
              f"{name}: {changes} changes reported, Hamming distance differs")


class Exact:
    """``edk estimate --mode exact``: sample, then the exact oracle.

    One op solves two graphs of each family, interleaved.  Oracle times are
    heavy-tailed (a rainbow graph at n=8 takes 0.03 s to 1.1 s), so the
    slowest one-graph ops would set the tail percentile almost alone.
    """

    name = "exact"
    scaled = True
    graphs_per_family = 2

    def setup(self, edk):
        from edk import catalog

        self.edk = edk
        families = [  # name, family, density, n, max_n
            ("rainbow", catalog.rainbow_triangle_family(), edk.DensityVector.uniform(3),
             8, None),
            ("cyclic-tourn", catalog.cyclic_triangle_family("tourn"),
             edk.DirDensity.of(0, Fraction(1, 2), "tourn"), 10, 10),
        ]
        self.graphs = families * self.graphs_per_family
        self.certs = _certificates(edk, families)
        self.cycle = [("graphs",)]

    def run(self, spec, index, seed, mark):
        for j, graph_spec in enumerate(self.graphs):
            if j:
                mark()
            self._solve(op_seed(seed, index * len(self.graphs) + j), *graph_spec)

    def _solve(self, s, name, family, dens, n, max_n):
        edk = self.edk
        graph = _sample(edk, family, n, dens, s)
        edits, witness = edk.exact_dist(graph, family, max_n=max_n)
        check(edk.is_member(witness, family), f"{name}: witness is not a member")
        check(edk.hamming(graph, witness) == edits,
              f"{name}: witness is not {edits} recolorings away")
        cert = self.certs[name].certificate
        _, changes = _edit(edk, family, graph, cert, s)
        check(edits <= changes,
              f"{name}: exact distance {edits} above the certificate edit's {changes}")


WORKLOADS = {w.name: w for w in (Bounds, Edit, Exact)}
