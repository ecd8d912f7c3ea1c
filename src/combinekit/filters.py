"""Free filters over the decidable-set algebra.

Two constructive kinds are supported: the Fréchet filter (all cofinite
sets) and filters generated by a finite family of eventually periodic
sets with the strong finite intersection property, closed under
supersets and cofinite refinement.

Membership is a yes/no verdict, decided exactly for a generated filter:
intersections only shrink as the generator subset grows, so ``A``
belongs to the filter iff ``(intersection of all generators) \\ A`` is
finite.

Ultrafilters are deliberately absent: they are non-constructive, and the
self-dual quasi-gentle case they would induce stays uninstantiated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .sets import EvPeriodicSet, universe

YES = "yes"
NO = "no"


@dataclass(frozen=True)
class FrechetFilter:
    """The filter of cofinite subsets of the positive naturals."""

    name: str = "frechet"

    def member(self, s: EvPeriodicSet) -> str:
        return YES if s.is_cofinite() else NO

    def generator_sets(self) -> tuple[EvPeriodicSet, ...]:
        return ()


@dataclass(frozen=True)
class GeneratedFilter:
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
        core = reduce(lambda a, b: a.intersect(b), self.generators, universe())
        return YES if core.difference(s).is_finite() else NO

    def generator_sets(self) -> tuple[EvPeriodicSet, ...]:
        return self.generators


FreeFilter = FrechetFilter | GeneratedFilter


def frechet() -> FrechetFilter:
    return FrechetFilter()


def generated(generators: tuple[EvPeriodicSet, ...], name: str = "generated") -> GeneratedFilter:
    return GeneratedFilter(generators, name)


def filter_includes(f1: FreeFilter, f2: FreeFilter) -> str:
    """Whether every member of f1 is a member of f2.

    Decided through generators: f1 is included in f2 iff each of f1's
    generators belongs to f2 (the Fréchet filter has no generators beyond
    the cofinite sets, which every free filter contains).
    """
    return YES if all(f2.member(g) == YES for g in f1.generator_sets()) else NO
