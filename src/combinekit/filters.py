"""Free filters over the decidable-set algebra.

One constructive kind is supported: the filter generated by a finite
family of eventually periodic sets with the strong finite intersection
property, closed under supersets and cofinite refinement.  With no
generators it is the Fréchet filter (all cofinite sets).

Membership is a yes/no verdict, decided exactly: intersections only
shrink as the generator subset grows, so ``A`` belongs to the filter iff
``(intersection of all generators) \\ A`` is finite.  The intersection of
no generators is every size, so the Fréchet filter's members are exactly
the cofinite sets.

Ultrafilters are deliberately absent: they are non-constructive, and the
self-dual quasi-gentle case they would induce stays uninstantiated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .sets import EvPeriodicSet, upfrom

YES = "yes"
NO = "no"


@dataclass(frozen=True)
class FreeFilter:
    """The free filter generated by finitely many infinite-intersection sets."""

    generators: tuple[EvPeriodicSet, ...]
    name: str = "generated"

    def __post_init__(self):
        for size in range(1, len(self.generators) + 1):
            for combo in itertools.combinations(self.generators, size):
                inter = reduce(lambda a, b: a.intersect(b), combo)
                if inter.is_finite():
                    raise ValueError(
                        "generators lack the strong finite intersection property"
                    )

    def member(self, s: EvPeriodicSet) -> str:
        core = reduce(lambda a, b: a.intersect(b), self.generators, upfrom(1))
        return YES if core.difference(s).is_finite() else NO


def frechet() -> FreeFilter:
    return FreeFilter((), "frechet")


def filter_includes(f1: FreeFilter, f2: FreeFilter) -> str:
    """Whether every member of f1 is a member of f2.

    Decided through generators: f1 is included in f2 iff each of f1's
    generators belongs to f2 (cofinite refinement needs no check: every
    free filter contains the cofinite sets).
    """
    return YES if all(f2.member(g) == YES for g in f1.generators) else NO
