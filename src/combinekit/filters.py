"""Free filters over the decidable-set algebra.

One constructive kind is supported: the filter generated by a finite
family of eventually periodic sets with the strong finite intersection
property, closed under supersets and cofinite refinement.  With no
generators it is the Fréchet filter (all cofinite sets).

Membership is a yes/no verdict, decided exactly: intersections only
shrink as the generator subset grows, so ``A`` belongs to the filter iff
``core \\ A`` is finite, where the core is the intersection of all
generators.  For the same reason some subfamily has a finite
intersection exactly when the whole family does, so the strong finite
intersection property is a check of the core alone.  The intersection
of no generators is every size, so the Fréchet filter's members are
exactly the cofinite sets.

Ultrafilters are deliberately absent: they are non-constructive, and the
self-dual quasi-gentle case they would induce stays uninstantiated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .sets import ALL, EvPeriodicSet

YES = "yes"
NO = "no"


@dataclass(frozen=True)
class FreeFilter:
    """The free filter generated by finitely many infinite-intersection
    sets; ``core`` is their intersection (``ALL`` when there are none)."""

    generators: tuple[EvPeriodicSet, ...]
    name: str = "generated"
    core: EvPeriodicSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        core = reduce(EvPeriodicSet.intersect, self.generators, ALL)
        if core.is_finite():
            raise ValueError("generators lack the strong finite intersection property")
        object.__setattr__(self, "core", core)

    def member(self, s: EvPeriodicSet) -> str:
        return YES if self.core.difference(s).is_finite() else NO


def frechet() -> FreeFilter:
    return FreeFilter((), "frechet")


def filter_includes(f1: FreeFilter, f2: FreeFilter) -> str:
    """Whether every member of f1 is a member of f2.

    Decided through generators: f1 is included in f2 iff each of f1's
    generators belongs to f2 (cofinite refinement needs no check: every
    free filter contains the cofinite sets).
    """
    return YES if all(f2.member(g) == YES for g in f1.generators) else NO
