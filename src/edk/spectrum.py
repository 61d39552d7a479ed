"""Clique spectra and chromatic numbers.

A tuple (a_1, ..., a_r) is *weakly good* for a family when some forbidden
graph splits into sum(a) labeled parts, a_i of them tagged with color i, such
that no part tagged i induces an edge of color i.  *Strongly good* instead
requires each tagged part to be a monochromatic clique of its color.  For
digraphs the tuple is (a_0, a_1, a_2) over the no-arc, oriented and both-ways
states: weak asks the no-arc parts to induce no empty pair, the oriented parts
to induce an acyclic set of arcs and the both-ways parts to induce no two-way
pair; strong asks for all-empty parts, transitive tournaments and all-two-way
parts respectively.

Such a split is an embedding into a type (:func:`spectrum_tuple_type`): one
vertex per part, full edge sets, and on each vertex the states its tag allows
inside the part.  The oriented tag carries a single arrow, which the
embedding test reads as "single arcs, acyclic".  So a tuple is good exactly
when its type is not admissible.

The (weak or strong) clique spectrum is the finite set of tuples that are NOT
good, and the chromatic number is one more than the largest tuple sum in it.
Parts tagged with a color whose count a_i is zero do not exist, and refined
parts may be empty, so any tuple whose sum reaches the smallest forbidden
order is good via singleton parts; that bounds the enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .crg import _make, in_admissible_set
from .graphs import (
    BIEDGE,
    BWD,
    FWD,
    NONEDGE,
    DiGraph,
    PropertyFamily,
    neighborhood_masks,
    pair_count,
)

WEAK = "weak"
STRONG = "strong"


@dataclass(frozen=True)
class CliqueSpectrum:
    mode: str
    tuples: frozenset

    @property
    def max_sum(self) -> int:
        return max(sum(t) for t in self.tuples)

    def sorted_tuples(self):
        return tuple(sorted(self.tuples))


def is_acyclic(d: DiGraph) -> bool:
    """Whether the single-arc pairs contain no directed cycle, that is,
    whether sinks can be peeled off until no vertex is left.

    Both-ways and no-arc pairs are ignored.
    """
    out = neighborhood_masks(d)[FWD]  # out[x]: the y with a single arc x -> y
    left = (1 << d.n) - 1
    while left:
        sink = next((x for x in range(d.n) if left >> x & 1 and not out[x] & left), None)
        if sink is None:
            return False
        left ^= 1 << sink
    return True


def is_transitive_tournament(d: DiGraph) -> bool:
    """Every pair a single arc and the arc relation a strict total order."""
    if any(c in (NONEDGE, BIEDGE) for c in d.colors):
        return False
    return is_acyclic(d)


def _validate_tuple(t, family: PropertyFamily):
    t = tuple(t)
    if any(a < 0 for a in t):
        raise ValueError("tuple entries must be nonnegative")
    if family.is_directed:
        if len(t) != 3:
            raise ValueError("directed tuples have three entries")
        pal = family.palette
        if t[0] and NONEDGE not in pal.codes:
            raise ValueError("a_0 must be 0 when the palette has no empty pairs")
        if t[1] and FWD not in pal.codes:
            raise ValueError("a_1 must be 0 when the palette has no arcs")
        if t[2] and BIEDGE not in pal.codes:
            raise ValueError("a_2 must be 0 when the palette has no two-way pairs")
    elif len(t) != family.r:
        raise ValueError(f"tuple length {len(t)} does not match r={family.r}")
    return t


def spectrum_tuple_type(family: PropertyFamily, spectrum_tuple, mode: str = WEAK):
    """The type whose embeddings are the tuple's part splits: one vertex per
    part, in tag order, and full edge sets.  A part tagged with a color or
    pair state allows every other one (weak) or that one alone (strong); the
    oriented tag allows everything but ``BWD`` (weak) or ``FWD`` alone
    (strong)."""
    t = _validate_tuple(spectrum_tuple, family)
    if mode not in (WEAK, STRONG):
        raise ValueError(f"mode must be weak or strong, got {mode!r}")
    if not any(t):
        raise ValueError("tuple has no parts")
    if family.is_directed:
        tags = (NONEDGE, BWD if mode == WEAK else FWD, BIEDGE)
    else:
        tags = range(family.r)
    full = family.full_mask
    vsets = tuple(full & ~(1 << tag) if mode == WEAK else 1 << tag
                  for tag, a in zip(tags, t) for _ in range(a))
    return _make(family, vsets, (full,) * pair_count(len(vsets)))


def _good_for_family(t, family, mode) -> bool:
    # zero parts cover no vertex
    return any(t) and not in_admissible_set(spectrum_tuple_type(family, t, mode), family)


def is_weakly_good(t, family: PropertyFamily) -> bool:
    return _good_for_family(_validate_tuple(t, family), family, WEAK)


def is_strongly_good(t, family: PropertyFamily) -> bool:
    return _good_for_family(_validate_tuple(t, family), family, STRONG)


def _candidate_tuples(family: PropertyFamily):
    bound = family.min_forbidden_order  # sums at or above it are always good
    if family.is_directed:
        pal = family.palette
        caps = (
            bound if NONEDGE in pal.codes else 1,
            bound if FWD in pal.codes else 1,
            bound if BIEDGE in pal.codes else 1,
        )
        for t in itertools.product(*(range(c) for c in caps)):
            if sum(t) < bound:
                yield t
    else:
        for t in itertools.product(range(bound), repeat=family.r):
            if sum(t) < bound:
                yield t


def clique_spectrum(family: PropertyFamily, mode: str = WEAK) -> CliqueSpectrum:
    """The exact set of not-good tuples under palette zero-constraints."""
    if mode not in (WEAK, STRONG):
        raise ValueError(f"mode must be weak or strong, got {mode!r}")
    bad = frozenset(
        t for t in _candidate_tuples(family) if not _good_for_family(t, family, mode)
    )
    return CliqueSpectrum(mode, bad)


def chromatic_number(family: PropertyFamily, mode: str = WEAK) -> int:
    """One more than the largest tuple sum in the clique spectrum.

    A value of 1 means every single-part tuple is already good; no editing
    bound exists then.  Under the tournament palette this happens exactly
    when some forbidden tournament is transitive, which makes the property
    finite (trivial).
    """
    return 1 + clique_spectrum(family, mode).max_sum


def is_trivial(family: PropertyFamily) -> bool:
    """Whether the editing bounds degenerate (weak chromatic number 1)."""
    return chromatic_number(family, WEAK) == 1
