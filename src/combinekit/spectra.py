"""Capability-gated access to cube spectra.

The spectrum of a cube in a theory is the set of domain cardinalities
(finite or countably infinite) of its models.  A :class:`SpectrumView`
binds a theory and a cube, or the theory's reading of one
(:class:`~combinekit.theories.Reading`), and exposes exactly the
queries the theory's certificate supports; asking for more raises
:class:`~combinekit.errors.CapabilityMissing` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CapabilityMissing, IterationCapExceeded
from .sets import ALEPH0, BOUND, Card, EvPeriodicSet, is_finite_card

if TYPE_CHECKING:  # pragma: no cover
    from .theories import Readable, Theory


@dataclass(frozen=True)
class ExactSpectrum:
    """A fully materialized spectrum: finite part plus an infinity flag.

    Compactness is enforced: an infinite finite part forces the infinity
    flag (a cube with models of unboundedly many finite sizes also has an
    infinite model).
    """

    finite_part: EvPeriodicSet
    has_inf: bool

    def __post_init__(self):
        if self.finite_part.is_infinite() and not self.has_inf:
            raise ValueError("infinite finite part without the infinite cardinality")

    def is_empty(self) -> bool:
        return self.finite_part.is_empty() and not self.has_inf

    def finite_or_cofinite(self) -> bool:
        """Whether the spectrum fits the gentle output shape: a finite set
        of finite cardinalities, or the complement of one."""
        if self.finite_part.is_finite() and not self.has_inf:
            return True
        return self.finite_part.is_cofinite() and self.has_inf

    def to_json(self) -> dict:
        return {"finite_part": self.finite_part.to_literal(), "has_inf": self.has_inf}


@dataclass(frozen=True)
class SpectrumView:
    """A theory and a cube (or its reading) with the supported spectrum
    queries.

    The view checks every certificate licence: finite membership is
    answered where the certificate makes the theory n-decidable at that
    cardinality (every cardinality under CFS), infinite membership where
    it is infinitely decidable, ``exact`` where it is gentle, and the
    search of ``minmod`` where it has CFS.  The theory refuses only what
    its shapes withhold.
    """

    owner: "Theory"
    subject: "Readable"

    # -- queries ---------------------------------------------------------

    def sat(self) -> bool:
        return self.owner.decide_cube(self.subject)

    def contains(self, c: Card) -> bool:
        if c is ALEPH0:
            if not self.owner.certificate.infinitely_decidable:
                raise CapabilityMissing(self.owner.name, "spec_inf")
            return self.owner.spec_inf(self.subject)
        if not is_finite_card(c) or c < 1:
            raise ValueError(f"bad cardinality {c!r}")
        if not self.owner.certificate.is_n_decidable(c):
            raise CapabilityMissing(self.owner.name, "spec_finite", f"at cardinality {c}")
        return self.owner.spec_finite(self.subject, c)

    def next_member(self, lo: int, hi: int) -> int | None:
        """The least size in [lo, hi] at which ``contains`` holds, or None;
        raises what ``contains`` raises first."""
        refused = self.next_refusal(lo) or hi + 1
        k = self.owner.next_finite(self.subject, lo, min(hi, refused - 1))
        if k is None and refused <= hi:
            self.contains(refused)  # raises: the licence or the shape withholds it
        return k

    def next_refusal(self, lo: int) -> int | None:
        """The least size from lo on at which ``contains`` raises, or None."""
        held, cert = self.owner.next_withheld(self.subject, lo), self.owner.certificate
        if cert.cfs:
            return held
        return min(filter(None, (held, cert.n_decidable_sizes.complement().min_from(lo))), default=None)

    def max_finite(self) -> int | None:
        """Greatest finite spectrum element, None when the cube is unsatisfiable.
        The caller certifies that it has no infinite member; a mis-declared
        certificate shows up as IterationCapExceeded, raised exactly when
        ``decide_at_least(BOUND + 1)`` holds."""
        top = self.reach(BOUND + 1)
        if top > BOUND:
            raise IterationCapExceeded("max_finite", BOUND)
        return top or None

    def reach(self, n: int) -> int:
        """The last size up to n at which ``decide_at_least`` holds, 0 if none:
        the closed form ``maxmod_cube``, else a search of the monotone query
        by probes at twice the size, then halfway to the least failure
        (Bentley and Yao): O(log n) queries, none past ``BOUND + 1``."""
        top = self.owner.maxmod_cube(self.subject)
        if top is not None:
            return n if top is ALEPH0 else min(top, n)
        held, failed = 0, None
        while (k := held + 1) <= n and (failed is None or k < failed):
            probe = max(k, min(2 * k, BOUND + 1)) if failed is None else (k + failed) // 2
            if self.owner.decide_at_least(self.subject, probe):
                held = probe
            else:
                failed = probe
        return min(held, n)

    def minmod(self) -> Card | None:
        """Least spectrum element; None when unsatisfiable.

        The theory's closed form when it has one, else ALEPH0 when it
        reports no finite model at all; else, under CFS (checked here),
        the first size at which ``spec_finite`` holds.
        """
        if not self.sat():
            return None
        closed = self.owner.minmod_cube(self.subject)
        if closed is not None:
            return closed
        if self.owner.infinite_only(self.subject):
            return ALEPH0
        if not self.owner.certificate.cfs:
            raise CapabilityMissing(self.owner.name, "minmod")
        k = self.next_member(1, BOUND)
        if k is None:
            raise IterationCapExceeded("minmod", BOUND)
        return k

    def exact(self) -> ExactSpectrum | None:
        if not self.owner.certificate.gentle:
            raise CapabilityMissing(self.owner.name, "exact_spectrum")
        return self.owner.exact_spectrum(self.subject)


def view(theory: "Theory", subject: "Readable") -> SpectrumView:
    return SpectrumView(theory, subject)

