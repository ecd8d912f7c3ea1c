"""Theory handles: a declared spectrum shape, derived queries, a model checker.

Every catalog theory constrains only domain cardinalities.  So the
spectrum of a cube is the set of sizes its predicate literals allow, cut
off below at the cube's equality minimum, which ``Cube.minmod`` reads
once per cube (:func:`~combinekit.formulas.minmod_equalities`, which
computes it once per equality part while the part table keeps it).  A
theory declares exactly that, and the :class:`Theory` base derives
every query from it.  A concrete theory declares:

* ``certificate``, and ``signature`` unless it is the empty one;
* ``predicate_free`` -- the :class:`Shape` a cube with no positive
  predicate allows, where it is not the default (every size and the
  infinite one, right when a predicate guards every axiom); an
  empty-signature theory declares nothing else of its spectrum;
* ``shape(part)`` -- the :class:`Shape` one predicate part of a cube
  allows: by default the part is the cube's unique positive predicate;
* ``admits(size, part)`` -- the model axiom for one predicate part,
  written by hand apart from the shape so that the brute oracle can
  referee the derived queries.

The base states predicate exclusivity once on each side.  Its one reader,
``read``, returns a :class:`Reading`: the part, the part's shape, and a
floor, which is ``Cube.minmod`` unless the caller fixes it (the
combination shell reads a side once per cube and sets the floor to each
arrangement's block count), or None when the cube clashes.  Every read
checks each predicate literal's ownership and index grammar and reads the
theory's part; a bounded memo keeps shapes by (theory, part), so
predicate parts that differ only in literals the theory ignores share one
shape.  From one reading the base derives ``decide_at_least``,
``spec_finite``, ``spec_inf``, ``minmod_cube``, ``exact_spectrum``,
``cube_spectrum_exact``, ``nshiny_classify`` and ``infinite_only``; each
takes a cube or a reading.  Given a cube, a theory also keeps its reading
of the last cube it read, compared by identity, so a run of queries on
one cube reads it once.
``decide_at_least(cube, k)`` is the primary satisfiability query: a
disequality clique over k fresh variables would raise the equality
minimum to max(minmod, k), so it asks a cap about the least allowed size
from there; ``decide_cube`` is ``decide_at_least(cube, 1)``.  Queries the
certificate withholds raise CapabilityMissing.  For the oracle,
``model_check`` rejects a model with two true predicates and asks
``admits`` otherwise.

Decision and spectrum procedures never consult the model checker's
undecidable-set stand-in; only ``admits`` sees it.  The external
parameter F is only reachable through :class:`FOracle`'s single ``geq``
query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import CapabilityMissing, CombineKitError, SignatureError
from .formulas import (
    Cube,
    PredicateId,
    PredicateLiteral,
    Signature,
    canonical_cubes,
    equality_literal_pool,
    minmod_equalities,  # noqa: F401  (re-exported)
)
from .properties import PropertyCertificate
from .sets import ALEPH0, ALL, EMPTY, Card, EvPeriodicSet, odds, upfrom
from .spectra import ExactSpectrum


class FOracle:
    """A size-bound function F reachable only through geq(m, n) = [F(m) >= n].

    There is deliberately no value query and no "is F(m) infinite" query.
    """

    def __init__(self, name: str, geq: Callable[[int, int], bool]):
        self.name = name
        self._geq = geq

    def geq(self, m: int, n: int) -> bool:
        if m < 1 or n < 1:
            raise ValueError("oracle arguments are positive naturals")
        return self._geq(m, n)

    def __repr__(self) -> str:
        return f"FOracle({self.name})"


def identity_oracle() -> FOracle:
    return FOracle("identity", lambda m, n: m >= n)


def doubling_oracle() -> FOracle:
    return FOracle("double", lambda m, n: 2 * m >= n)


# -- spectrum shapes -----------------------------------------------------------

# Reasons a shape gives for the queries it withholds.
TAGGED = "depends on the tag set"
CAPPED = "depends on whether the cap is finite"


@dataclass(frozen=True)
class Shape:
    """The sizes one predicate part of a cube allows, before the cube's
    equality minimum cuts them off below.

    ``finite`` holds the finite sizes the part allows, each subject to
    ``allow`` when that oracle test is set.  ``withheld`` holds the finite
    sizes whose membership depends on the tag set (None when there are
    none); construction checks that it is disjoint from ``finite``.
    ``inf`` says whether the infinite cardinality is allowed, None when
    that is withheld.  ``why`` explains the withheld queries.  Where
    ``inf`` is not True, ``allow`` must be downward closed (a cap), so
    satisfiability asks it only about the least allowed size at or above
    the equality minimum.
    """

    finite: EvPeriodicSet
    inf: bool | None
    withheld: EvPeriodicSet | None = None
    allow: Callable[[int], bool] | None = None
    why: str = ""

    def __post_init__(self):
        if self.withheld is not None and not self.withheld.intersect(self.finite).is_empty():
            raise ValueError("a shape cannot both allow and withhold a size")

    @property
    def known(self) -> bool:
        """Whether the cube's spectrum follows from this shape and its
        equality minimum alone: no oracle test and nothing withheld."""
        return self.allow is None and self.withheld is None and self.inf is not None


# The part of predicate literals with two distinct positive predicates.
UNSAT = object()


class Reading(NamedTuple):
    """What the derived queries read of a cube: its predicate part, the
    :class:`Shape` of that part, and the floor the cube's equalities put
    under a model's size (its equality minimum)."""

    part: object
    shape: Shape
    floor: int


# Shapes kept by (theory, part), least recently used dropped first.
SHAPES_KEPT = 256


@lru_cache(maxsize=SHAPES_KEPT)
def _part_shape(theory: "Theory", part) -> Shape:
    """The shape of a theory's part, shared by every predicate part read
    as it, so that a catalog ``shape`` builds its sets once per part."""
    return theory.predicate_free if part is None else theory.shape(part)


# What a derived query takes: a cube, or this theory's reading of one
# (None for a cube with no models).
Readable = Cube | Reading | None

# Largest predicate index drawn when sampling random test cubes.
SAMPLE_INDEX_BOUND = 6


# -- theory base -------------------------------------------------------------


class Theory:
    """Base class: derives every query from ``shape`` and the equality minimum."""

    name: str
    signature: Signature = Signature(frozenset())  # the empty signature, unless declared
    certificate: PropertyCertificate
    predicate_free: Shape = Shape(ALL, True)  # right when a predicate guards every axiom

    # -- declared by each theory ----------------------------------------

    def shape(self, part) -> Shape:
        """The shape a predicate part allows; never asked about None."""
        raise NotImplementedError

    # Theories over infinite signatures must only constrain models through
    # positively guarded axioms (P -> ...), which is what lets the brute
    # oracle default unmentioned predicates to false.  Finite-signature
    # theories may constrain negatively; the oracle enumerates their whole
    # signature instead.
    def admits(self, size: int, part) -> bool:
        """Whether a finite model of this size whose one true predicate is
        ``part`` (None: no predicate is true) satisfies every axiom."""
        raise NotImplementedError

    def model_check(self, size: int, true_preds: frozenset[PredicateId]) -> bool:
        """Whether a finite model of this size with exactly these true
        predicates satisfies every (non-vacuous) axiom.  Distinct
        predicates exclude each other, so at most one may be true."""
        if len(true_preds) > 1:
            return False
        return self.admits(size, next(iter(true_preds), None))

    def _declare_family(self, base: str, family: str, arity: int):
        """Own the one predicate family ``family`` of this arity; the name
        is ``base``, suffixed with the family unless it is the plain P."""
        self.family = family
        self.name = base if family == "P" else f"{base}[{family}]"
        self.signature = Signature(frozenset({(family, arity)}))

    # -- reading a cube ---------------------------------------------------

    def check_pred(self, pid: PredicateId):
        """Raise SignatureError for a predicate this theory does not own or
        whose indices its grammar rejects."""
        if not self.signature.owns(pid):
            raise SignatureError(f"{self.name} does not own predicate {pid}")
        self.validate_indices(pid)

    def validate_indices(self, pid: PredicateId):
        if "inf" in pid.indices:
            raise SignatureError(f"{self.name} has no infinite-index predicate {pid}")

    def read_part(self, pred_part: tuple[PredicateLiteral, ...]):
        """The part of a cube's owned predicate literals: its unique
        positive predicate, or None.  UNSAT when two distinct predicates
        are positive, since distinct predicates exclude each other."""
        positive = [lit.pred for lit in pred_part if lit.positive]
        return UNSAT if len(positive) > 1 else next(iter(positive), None)

    def read(self, cube: Cube, floor: int | None = None) -> Reading | None:
        """The cube's reading, with ``floor`` in place of its equality
        minimum when given; None when its literals clash or its equalities
        are inconsistent.  Raises SignatureError for a predicate this
        theory does not own or whose indices its grammar rejects."""
        for lit in cube.pred_part:
            self.check_pred(lit.pred)
        part = self.read_part(cube.pred_part)
        # The shape comes before the clash check: a part that its shape
        # refuses raises even in a contradictory cube.
        shape = None if part is UNSAT else _part_shape(self, part)
        if shape is None or cube.contradictory:
            return None
        floor = cube.minmod if floor is None else floor
        return None if floor is None else Reading(part, shape, floor)

    # The last cube read and its reading, compared by identity: a run of
    # queries on one cube checks and reads it once, and hashes nothing.
    _last_reading: tuple = (None, None)

    def _reading(self, cube: Readable) -> Reading | None:
        """What a query reads: a reading as given, or the cube's own."""
        last, reading = self._last_reading
        if last is cube:
            return reading
        if cube is None or type(cube) is Reading:
            return cube
        reading = self.read(cube)  # a SignatureError is raised, never kept
        self._last_reading = (cube, reading)
        return reading

    # -- derived queries --------------------------------------------------

    def decide_cube(self, cube: Readable) -> bool:
        """Exact quantifier-free satisfiability of the cube."""
        return self.decide_at_least(cube, 1)

    def decide_at_least(self, cube: Readable, k: int) -> bool:
        """Whether the cube has a model of at least k elements.

        The same as deciding the cube conjoined with a disequality clique
        over k fresh variables: that clique is a complete component of its
        own, so it raises the equality minimum to max(minmod, k).
        """
        if k < 1:
            raise ValueError("clique size must be >= 1")
        r = self._reading(cube)
        if r is None:
            return False
        _, shape, floor = r
        if shape.inf:
            return True
        first = shape.finite.min_from(max(floor, k))
        return first is not None and (shape.allow is None or shape.allow(first))

    def spec_finite(self, cube: Readable, k: int) -> bool:
        """Finite spectrum membership; CapabilityMissing on a withheld size."""
        r = self._reading(cube)
        if r is None or k < 1:
            return False
        _, shape, floor = r
        withheld = shape.withheld is not None and k in shape.withheld
        if k < floor or not (withheld or k in shape.finite):
            return False
        if withheld:
            raise CapabilityMissing(self.name, "spec_finite", f"membership of {k} {shape.why}")
        return shape.allow is None or shape.allow(k)

    def spec_inf(self, cube: Readable) -> bool:
        """Infinite spectrum membership; CapabilityMissing when withheld."""
        r = self._reading(cube)
        if r is not None and r.shape.inf is None:
            raise CapabilityMissing(self.name, "spec_inf", r.shape.why)
        return r is not None and r.shape.inf

    def minmod_cube(self, cube: Readable) -> Card | None:
        """Closed-form minimum spectrum element, or None when the theory
        has no certified closed form (the view then falls back to search)."""
        r = self._reading(cube)
        if r is None or not r.shape.known:
            return None
        first = r.shape.finite.min_from(r.floor)
        if first is not None:
            return first
        return ALEPH0 if r.shape.inf else None

    def cube_spectrum_exact(self, cube: Readable) -> ExactSpectrum | None:
        """Exact spectrum when computable without undecidable queries;
        None otherwise.  Powers structural probes only."""
        r = self._reading(cube)
        if r is None:
            return ExactSpectrum(EMPTY, False)
        if not r.shape.known:
            return None
        return ExactSpectrum(r.shape.finite.intersect(upfrom(r.floor)), r.shape.inf)

    def exact_spectrum(self, cube: Readable) -> ExactSpectrum:
        """Full materialization, for gentle theories."""
        if not self.certificate.gentle:
            raise CapabilityMissing(self.name, "exact_spectrum")
        return self.cube_spectrum_exact(cube)

    def nshiny_classify(self, cube: Readable) -> tuple[int, int] | None:
        """Spectrum shape for n-shiny owners: (0, n) for {n}; (1, k) for
        {n} plus the tail from k; (2, k) for the tail from k.  None when
        the cube is unsatisfiable.  The catalog's n-shiny shapes are
        singletons and tails, so (1, k) does not arise."""
        if not self.certificate.shiny and self.certificate.n_shiny_param is None:
            raise CapabilityMissing(self.name, "nshiny_classify")
        r = self._reading(cube)
        first = None if r is None else r.shape.finite.min_from(r.floor)
        if first is None:
            return None
        return (2, first) if r.shape.inf else (0, first)

    def infinite_only(self, cube: Readable) -> bool:
        """True when the procedure knows every model of the cube is infinite.
        Consumed by oracle-agreement suites; never a public capability."""
        r = self._reading(cube)
        if r is None or not r.shape.known:
            return False
        return r.shape.inf and r.shape.finite.min_from(r.floor) is None

    # -- sampling -----------------------------------------------------------

    def sample_pred(self, rng) -> PredicateId | None:
        """A random predicate of this signature, for test-cube sampling.
        None when the signature is empty.  A theory with a family of
        arity 2 or more overrides this with its own index ranges."""
        fams = sorted(self.signature.families)
        if not fams:
            return None
        fam, arity = rng.choice(fams)
        if arity == 0:
            return PredicateId(fam, ())
        return PredicateId(fam, (rng.randint(1, SAMPLE_INDEX_BOUND),))

    def __repr__(self) -> str:
        return f"<theory {self.name}>"


DEFAULT_U_STANDIN = odds()

# Variable pool and largest unary predicate index for the canonical
# formula enumeration shared by the inner-theory registry and the
# diagonal construction.
ENUMERATION_VARIABLES = ("w1", "w2", "w3", "w4")
ENUMERATION_MAX_INDEX = 3


def literal_pool_for(theory: Theory) -> list:
    """The bounded literal universe for enumerating this theory's cubes."""
    pool = list(equality_literal_pool(ENUMERATION_VARIABLES))
    for fam, arity in sorted(theory.signature.families):
        if arity == 0:
            pid = PredicateId(fam, ())
            pool.append(PredicateLiteral(pid, True))
            pool.append(PredicateLiteral(pid, False))
        elif arity == 1:
            for i in range(1, ENUMERATION_MAX_INDEX + 1):
                pid = PredicateId(fam, (i,))
                pool.append(PredicateLiteral(pid, True))
                pool.append(PredicateLiteral(pid, False))
        # Higher-arity families are left out of the bounded grammar.
    return pool


class FormulaEnumeration:
    """Deterministic 1-based indexing of a theory's cubes.

    Wraps :func:`combinekit.formulas.canonical_cubes` with a cache so ids
    are stable and invertible within a run.
    """

    def __init__(self, theory: Theory):
        pool = set(literal_pool_for(theory))
        self.size = 2 ** len(pool)  # one cube per subset of the pool
        self._gen = canonical_cubes(pool)
        self._by_id: list[Cube] = []
        self._ids: dict[Cube, int] = {}

    def cube(self, fid: int) -> Cube:
        if not 1 <= fid <= self.size:
            raise CombineKitError(f"formula id {fid} is outside the enumeration's ids 1..{self.size}")
        while len(self._by_id) < fid:
            self._advance()
        return self._by_id[fid - 1]

    def id_of(self, cube: Cube) -> int:
        while cube not in self._ids:
            self._advance()
        return self._ids[cube]

    def _advance(self):
        c = next(self._gen)  # pool is finite; exhausting it is a bug upstream
        self._by_id.append(c)
        self._ids[c] = len(self._by_id)

