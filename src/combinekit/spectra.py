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

    Finite membership is answered where the certificate makes the
    theory n-decidable at that cardinality (every cardinality under CFS),
    and infinite membership where it is infinitely decidable.  ``exact``
    materializes the spectrum of a gentle theory; the theory itself
    refuses the rest.
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

    def max_finite(self) -> int | None:
        """Greatest finite spectrum element: the last k at which
        ``decide_at_least`` holds, found by :class:`AtLeast` in O(log k)
        queries, none of them past ``BOUND + 1``.

        The caller certifies the spectrum has no infinite member; a
        mis-declared certificate shows up as IterationCapExceeded, raised
        exactly when ``decide_at_least(BOUND + 1)`` holds.
        Returns None when the cube is unsatisfiable.
        """
        at_least = AtLeast(self)
        while at_least(at_least.held + 1):
            if at_least.held > BOUND:
                raise IterationCapExceeded("max_finite", BOUND)
        return at_least.held or None

    def minmod(self) -> Card | None:
        """Least spectrum element; None when unsatisfiable.

        Uses the theory's closed form when it has one, otherwise searches
        finite cardinalities through `contains`, returning ALEPH0 when
        the theory reports the cube has no finite models at all.
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
        for k in range(1, BOUND + 1):
            if self.owner.spec_finite(self.subject, k):
                return k
        raise IterationCapExceeded("minmod", BOUND)

    def exact(self) -> ExactSpectrum:
        return self.owner.exact_spectrum(self.subject)


class AtLeast:
    """One view's ``decide_at_least``, searched as the monotone predicate
    it is (a model of at least k elements has at least k - 1).  Keeps the
    largest size known to hold and the least known to fail; a size between
    them is decided by a probe at twice the size, or halfway to the known
    failure (Bentley and Yao's unbounded search).  A scan to n asks
    O(log n) queries, none past ``BOUND + 1``."""

    def __init__(self, v: SpectrumView):
        self.v, self.held, self.failed = v, 0, None

    def __call__(self, k: int) -> bool:
        if k <= self.held:
            return True
        while self.failed is None or k < self.failed:
            gallop = self.failed is None
            probe = max(k, min(2 * k, BOUND + 1)) if gallop else (k + self.failed) // 2
            if self.v.owner.decide_at_least(self.v.subject, probe):
                self.held = probe
                return True
            self.failed = probe
        return False


def view(theory: "Theory", subject: "Readable") -> SpectrumView:
    return SpectrumView(theory, subject)

