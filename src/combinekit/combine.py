"""Disjoint combination of two theories over spectrum intersections.

The shell lowers a formula over the union signature to cubes lazily,
routes each cube's literals to its owning side, and enumerates
arrangements of the shared variables; a cube is jointly satisfiable
exactly when some arrangement gives the two sides overlapping spectra.
Only arrangements consistent with the cube's equalities are visited.
Each side's theory reads its predicate part once per cube
(:class:`~combinekit.theories.Reading`); a cube that either side reads
as having no model is unsat without a walk.  An arrangement with b
blocks fixes both sides' equality minimum at max(1, b), so the method
runs once per block count, on views over the two readings at that
floor.  The per-method intersection procedures below decide that
overlap using only the queries their hypotheses license.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from . import spectra
from .errors import CapabilityMissing, IterationCapExceeded, MethodNotApplicable
from .filters import FreeFilter, frechet
from .formulas import Arrangement, Cube, Formula, enumerate_arrangements, iter_dnf, split_by_signature
from .properties import PARTNER
from .sets import ALEPH0, Card, card_to_json, is_finite_card
from .spectra import SpectrumView, view
from .theories import Theory


@dataclass(frozen=True)
class CombinationVerdict:
    sat: bool
    witness: tuple[Arrangement, Card] | None
    method_used: str
    stats: dict

    def __post_init__(self):
        if self.witness is not None and not self.sat:
            raise ValueError("witness without satisfiability")

    def to_json(self) -> dict:
        w = None
        if self.witness is not None:
            arr, card = self.witness
            w = {"arrangement": arr.to_json(), "card": card_to_json(card)}
        return {
            "sat": self.sat,
            "method": self.method_used,
            "witness": w,
            "stats": dict(sorted(self.stats.items())),
        }


# -- per-method spectrum intersection ----------------------------------------
#
# Each runner asks its two views only what the method's hypotheses
# license; the views refuse anything else with CapabilityMissing.  Some
# queries go to a view's owner directly: `decide_at_least` and
# `maxmod_cube`, which every theory answers, `nshiny_classify`, which the
# owner gates on its own certificate, and `next_finite` over sizes where
# the view refuses nothing.  A runner returns (ok, card, scanned): the
# verdict, its witness size if any, and the sizes scanned, for
# ``loop_iterations``.


def _run_shiny(v1: SpectrumView, v2: SpectrumView):
    k = v1.minmod()
    if k is None:
        return False, None, 0
    if not is_finite_card(k):
        raise CapabilityMissing(v1.owner.name, "minmod", "shiny needs a finite minimal model")
    return v2.owner.decide_at_least(v2.subject, k), None, 1


def _run_nelson_oppen(v1: SpectrumView, v2: SpectrumView):
    ok = v1.sat() and v2.sat()
    return ok, ALEPH0 if ok else None, 0


def _run_gentle(v1: SpectrumView, v2: SpectrumView):
    spec1 = v1.exact()
    bounded = spec1.finite_part.is_finite() and not spec1.has_inf
    # Scan a finite spectrum whole; scan a cofinite one up to its last
    # hole, then ask for anything bigger.
    top = (spec1.finite_part if bounded else spec1.finite_part.complement()).max_element() or 0
    scanned = 0
    for scanned, n in enumerate(spec1.finite_part.elements(top), 1):
        if v2.contains(n):
            return True, n, scanned
    if bounded:
        return False, None, scanned
    return v2.owner.decide_at_least(v2.subject, top + 1), None, scanned


def _run_smcs(v1: SpectrumView, v2: SpectrumView):
    if v2.contains(ALEPH0):
        ok = v1.sat()
        return ok, ALEPH0 if ok else None, 0
    k = v2.max_finite() or 0
    if k and v1.contains(k):
        return True, k, k
    return False, None, k


def _run_cs(v1: SpectrumView, v2: SpectrumView):
    inf1 = v1.contains(ALEPH0)
    if inf1 and v2.contains(ALEPH0):
        return True, ALEPH0, 0
    k = (v2 if inf1 else v1).max_finite() or 0
    n = _meet(v1, v2, k)
    return n is not None, n, k


def _run_n_shiny(v1: SpectrumView, v2: SpectrumView, n: int):
    if not v1.sat():
        return False, None, 0
    if v1.contains(n) and v2.contains(n):
        return True, n, 0
    shape = v1.owner.nshiny_classify(v1.subject)
    if shape is None:
        raise CapabilityMissing(v1.owner.name, "nshiny_classify", "no shape for a satisfiable cube")
    t, k = shape
    if t == 0:
        # Spectrum is exactly {n}; the n-check above already failed.
        return False, None, 0
    return v2.owner.decide_at_least(v2.subject, k), None, 1


def _run_quasi_gentle(v1: SpectrumView, v2: SpectrumView):
    # Walk the sizes both sides reach, up to the set bound (at least size 1).
    # A closed-form reach is read first: the other is searched only that far.
    last = max(spectra.BOUND, 1)
    first, then = (v2, v1) if v1.owner.maxmod_cube(v1.subject) is None else (v1, v2)
    t = then.reach(first.reach(last))
    n = _meet(v1, v2, t)
    if n is not None:
        return True, n, n - 1
    if t == last:
        raise IterationCapExceeded("quasi-gentle interleaved scan", spectra.BOUND)
    return False, None, t


def _meet(v1: SpectrumView, v2: SpectrumView, hi: int) -> int | None:
    """The least size up to hi where both sides hold, or None; raises what
    ``v1.contains(n) and v2.contains(n)`` asked size by size raises first.
    A leapfrog between the sides' next members (Demaine, López-Ortiz and
    Munro, SODA 2000): side 1 is asked at every size, side 2 only where side
    1 holds.  Past the preperiods of two CFS sides without an oracle test the
    answers repeat, so a walk that misses ends one common period past them."""
    stop = v1.next_refusal(1) or hi + 1
    n, top, refused, cut, b = 1, min(hi, stop - 1), 0, False, None
    while (a := v1.owner.next_finite(v1.subject, n, top)) is not None:
        if a == b:  # side 2's last member found
            return a
        if refused < a:
            refused = v2.next_refusal(a) or top + 1
        b = v2.owner.next_finite(v2.subject, a, min(top, refused - 1))
        if b == a:
            return a
        if refused == a:
            v2.contains(a)  # raises: side 2 refuses where side 1 holds
        n = refused if b is None else b
        if not cut and n < top:  # a first miss short of the top: cut the walk once
            cut = True
            periods = [v.owner.period(v.subject) if v.owner.certificate.cfs else None for v in (v1, v2)]
            if all(periods):
                hi = min(hi, max(p for p, _ in periods) + math.lcm(*(q for _, q in periods)) - 1)
                top = min(top, hi)
    if stop <= hi:
        v1.contains(stop)  # raises: side 1 refuses
    return None


# Each method as (side-1 class, runner), in the cheapest-first order
# auto-selection tries them; side 2 must be in the class's `PARTNER`.
# n-shiny reads the method's n, and quasi-gentle its filter, for both
# memberships; the n-shiny runner is also given n, bound at dispatch.
METHODS = {
    "nelson-oppen": ("SI", _run_nelson_oppen),
    "gentle": ("gentle", _run_gentle),
    "cs": ("CS", _run_cs),
    "smcs": ("SM+CS", _run_smcs),
    "n-shiny": ("n-shiny", _run_n_shiny),
    "quasi-gentle": ("F-QG", _run_quasi_gentle),
    "shiny": ("shiny", _run_shiny),
}


@dataclass(frozen=True)
class Method:
    """A combination method choice; n-shiny carries its cardinality and
    quasi-gentle the filter used for applicability certification."""

    kind: str
    n: int | None = None
    filt: FreeFilter | None = None

    def __post_init__(self):
        if self.kind not in METHODS:
            raise ValueError(f"unknown method {self.kind!r}")
        if self.kind == "n-shiny" and (self.n is None or self.n < 1):
            raise ValueError("n-shiny needs a positive n")
        if self.kind == "quasi-gentle" and self.filt is None:
            object.__setattr__(self, "filt", frechet())

    def label(self) -> str:
        if self.kind == "n-shiny":
            return f"n-shiny({self.n})"
        if self.kind == "quasi-gentle":
            return f"quasi-gentle({self.filt.name})"
        return self.kind


SHINY = Method("shiny")
NELSON_OPPEN = Method("nelson-oppen")
GENTLE = Method("gentle")
SMCS = Method("smcs")
CS = Method("cs")


def n_shiny(n: int) -> Method:
    return Method("n-shiny", n=n)


def quasi_gentle(filt: FreeFilter | None = None) -> Method:
    return Method("quasi-gentle", filt=filt or frechet())


def method_applicable(method: Method, t1: Theory, t2: Theory) -> bool:
    """Whether the certificates of (t1, t2), in this order, satisfy the
    method's hypotheses.  The shell additionally tries the swapped order."""
    side1 = METHODS[method.kind][0]
    c1, c2 = t1.certificate, t2.certificate
    if not c1.member(side1, n=method.n, filt=method.filt):
        return False
    side2 = PARTNER[side1]
    if method.kind == "cs" and c1.never_infinite:
        # Side 1 never has an infinite model, so side 2 need not decide it.
        side2 = "CFS"
    return c2.member(side2, n=method.n, filt=method.filt)


def _orient(method: Method, t1: Theory, t2: Theory) -> bool | None:
    """Whether the method needs (t1, t2) swapped to meet its hypotheses;
    None when it meets them in neither order."""
    if method_applicable(method, t1, t2):
        return False
    if method_applicable(method, t2, t1):
        return True
    return None


def hypothesis_diff(method: Method, t1: Theory, t2: Theory) -> str:
    """Human-readable reason the method fails for the pair, both orders."""
    lines = []
    for a, b in ((t1, t2), (t2, t1)):
        if not method_applicable(method, a, b):
            lines.append(f"({a.name}, {b.name}) fails {method.label()} hypotheses")
    return "; ".join(lines) if lines else "applicable"


# -- method selection ---------------------------------------------------------


def _candidate_methods(kind: str, t1: Theory, t2: Theory) -> list[Method]:
    if kind != "n-shiny":
        return [Method(kind)]
    return [n_shiny(t.certificate.n_shiny_param) for t in (t1, t2) if t.certificate.n_shiny_param is not None]


def select_method(t1: Theory, t2: Theory) -> tuple[Method, bool] | None:
    """First applicable method in `METHODS` order; the boolean says
    whether the theory order had to be swapped."""
    for kind in METHODS:
        for m in _candidate_methods(kind, t1, t2):
            swapped = _orient(m, t1, t2)
            if swapped is not None:
                return m, swapped
    return None


def combine_decide(
    t1: Theory,
    t2: Theory,
    f: Formula | Cube,
    method: Method | None = None,
) -> CombinationVerdict:
    """Joint satisfiability of f over the disjoint union of t1 and t2.

    Lowers f to cubes one at a time, stopping at the first satisfiable
    one, splits each by signature, and visits the arrangements of the
    shared variables that are consistent with the cube, in canonical
    order; any other contradicts the cube.  Every catalog theory's
    spectrum depends only on a cube's predicate part and its equality
    minimum, which a consistent arrangement with b blocks fixes at
    max(1, b).  So each side is read once per cube, before any
    arrangement (a predicate its owner rejects raises SignatureError
    whether or not the method asks about it).  A cube either side reads
    as having no model is skipped unwalked; ``arrangements_tried`` counts
    the walks of the others.  The method runs once per block count, on
    the first arrangement with that count, and only on a theory order
    whose certificates meet its hypotheses (an explicit method that fits
    neither raises MethodNotApplicable); its scans stop at the set bound.
    The verdict carries the first witness in canonical order, as a walk
    over every arrangement would.
    """
    if method is None:
        picked = select_method(t1, t2)
        if picked is None:
            raise MethodNotApplicable(f"no method applies to ({t1.name}, {t2.name})")
        method, swapped = picked
    else:
        swapped = _orient(method, t1, t2)
        if swapped is None:
            raise MethodNotApplicable(hypothesis_diff(method, t1, t2))
    if swapped:
        t1, t2 = t2, t1

    run = METHODS[method.kind][1]
    if method.kind == "n-shiny":
        run = partial(run, n=method.n)
    stats = {"arrangements_tried": 0, "loop_iterations": 0}
    label = method.label() + (" [sides swapped]" if swapped else "")
    cubes = iter_dnf(f) if not isinstance(f, Cube) else ([f] if not f.contradictory else [])
    for cube in cubes:
        c1, c2, shared = split_by_signature(cube, t1.signature, t2.signature)
        # Read both sides once, before any arrangement; each block count
        # then only sets both floors.
        r1, r2 = t1.read(c1, 1), t2.read(c2, 1)
        if r1 is None or r2 is None:
            continue  # a side refutes the cube at every size: no walk
        # A block count seen before has already failed: a success returns.
        tried_blocks: set[int] = set()
        for arr in enumerate_arrangements(shared, cube):
            stats["arrangements_tried"] += 1
            b = max(1, len(arr.blocks))
            if b in tried_blocks:
                continue
            tried_blocks.add(b)
            v1, v2 = view(t1, r1._replace(floor=b)), view(t2, r2._replace(floor=b))
            ok, card, scanned = run(v1, v2)
            stats["loop_iterations"] += scanned
            if ok:
                witness = (arr, card) if card is not None else None
                return CombinationVerdict(True, witness, label, stats)
    return CombinationVerdict(False, None, label, stats)
