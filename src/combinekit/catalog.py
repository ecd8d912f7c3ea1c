"""The built-in theory catalog.

Each theory constrains finite domain cardinalities through indexed
nullary predicates (or not at all, for the empty-signature theories,
which keep the base class's empty signature).  A theory is placed by
its spectra alone, so T_eq is T_geq_1 under its own name.
A theory declares ``shape(part)``, the spectrum shape each predicate
part of a cube allows, and ``predicate_free`` where a cube with no
positive predicate is not free, from which the :class:`~combinekit.theories.Theory`
base derives the exact decision and spectrum procedures; and, written
separately, ``admits(size, part)``, the model axiom for one predicate
part, on which the base ``model_check`` backs the brute-force oracle.

Theories parameterized by an undecidable tag set take a decidable
stand-in (default: the odd numbers) that only ``admits`` reads;
shapes stay tag-blind and withhold the sizes the tags decide, which
keeps them faithful to their capability certificates.
"""

from __future__ import annotations

from functools import partial

from .errors import SignatureError
from .formulas import Cube, EqualityLiteral, PredicateId, PredicateLiteral, Signature, fresh_variables
from .properties import certificate
from .sets import ALL, EMPTY, EvPeriodicSet, cofinite_excluding, evens, finite_set, interval, upfrom
from .spectra import ExactSpectrum
from .theories import (
    CAPPED,
    DEFAULT_U_STANDIN,
    SAMPLE_INDEX_BOUND,
    TAGGED,
    FOracle,
    FormulaEnumeration,
    Readable,
    Shape,
    Theory,
    identity_oracle,
)

# The default size-bound oracle F(k) = k, shared: an oracle keeps no state.
_IDENTITY = identity_oracle()


class InfiniteOnlyTheory(Theory):
    """Empty signature, models forced infinite; spectra are {inf} or empty."""

    predicate_free = Shape(EMPTY, True)

    def __init__(self):
        self.name = "T_inf"
        self.certificate = certificate(cfs=True, smooth=True)

    def admits(self, size, part):
        return False


class ExactSizeTheory(Theory):
    """Empty signature, all models of one fixed size."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("size must be positive")
        self.n = n
        self.name = f"T_eq_{n}"
        self.certificate = certificate(never_infinite=True, cfs=True, n_shiny_param=n)
        self.predicate_free = Shape(finite_set([n]), False)

    def admits(self, size, part):
        return size == self.n


class MaxSizeTheory(Theory):
    """Empty signature, models capped at n elements; spectra are intervals."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("size cap must be positive")
        self.n = n
        self.name = f"T_leq_{n}"
        self.certificate = certificate(
            never_infinite=True, cfs=True, gentle=True, n_shiny_param=1 if n == 1 else None
        )
        self.predicate_free = Shape(interval(1, n), False)

    def admits(self, size, part):
        return size <= self.n


class MinSizeTheory(Theory):
    """Empty signature, models of at least n elements; spectra are upward tails."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("size floor must be positive")
        self.n = n
        self.name = f"T_geq_{n}"
        self.certificate = certificate(shiny=True)
        self.predicate_free = Shape(upfrom(n), True)

    def admits(self, size, part):
        return size >= self.n


class EqualityTheory(MinSizeTheory):
    """Free equality over the empty signature: T_geq_1 under its own name,
    since every consistent cube has models of all sizes from its minimum
    up, including infinite ones."""

    def __init__(self):
        super().__init__(1)
        self.name = "T_eq"


class SizePinTheory(Theory):
    """Indexed predicates where P_k pins the domain size to exactly k.

    Positive-P cubes have singleton spectra; predicate-free cubes keep
    the full tail above their equality minimum, so every spectrum is
    finite or cofinite and the theory is gentle.
    """

    def __init__(self, family: str = "P"):
        self._declare_family("T_eq_P", family, 1)
        self.certificate = certificate(gentle=True)

    def shape(self, pos):
        return Shape(finite_set([pos.indices[0]]), False)

    def admits(self, size, pos):
        return pos is None or pos.indices[0] == size


class BigModelTagTheory(Theory):
    """Predicates tagged by an undecidable set force more than n elements.

    Smooth and stably infinite; finite spectrum membership below n+1
    depends on the tag set, so those queries are withheld.
    """

    def __init__(self, n: int, family: str = "P", u_standin: EvPeriodicSet = DEFAULT_U_STANDIN):
        if n < 1:
            raise ValueError("threshold must be positive")
        self.n = n
        self.u_standin = u_standin
        self._declare_family(f"T_gt_{n}_P", family, 1)
        self.certificate = certificate(smooth=True, fmp=True, finitely_witnessable=True)

    def shape(self, pos):
        return Shape(upfrom(self.n + 1), True, withheld=interval(1, self.n), why=TAGGED)

    def admits(self, size, pos):
        return pos is None or size > self.n or not self.u_standin.contains(pos.indices[0])


class TwoSizeTheory(Theory):
    """Models of exactly m or n elements; tagged predicates force n.

    Finite membership at the lower size m is withheld on positive cubes
    (it would need the tag set); everything else is exact.
    """

    def __init__(
        self, m: int, n: int, family: str = "P", u_standin: EvPeriodicSet = DEFAULT_U_STANDIN
    ):
        if not (1 <= m < n):
            raise ValueError("need 1 <= m < n")
        self.m, self.n = m, n
        self.u_standin = u_standin
        self._declare_family(f"T_mn_{m}_{n}", family, 1)
        self.certificate = certificate(never_infinite=True, n_decidable_sizes=cofinite_excluding([m]))
        self.predicate_free = Shape(finite_set([m, n]), False)

    def shape(self, pos):
        return Shape(finite_set([self.n]), False, withheld=finite_set([self.m]), why=TAGGED)

    def admits(self, size, pos):
        tagged = pos is not None and self.u_standin.contains(pos.indices[0])
        return size == self.n or (size == self.m and not tagged)


class SizeCapTheory(Theory):
    """P_k caps the domain at F(k) elements; finite sizes confined to S.

    S is an infinite eventually periodic set; F is only reachable through
    its geq oracle, so infinite membership of positive cubes is withheld.
    Quasi-gentle for filters containing S, co-quasi-gentle for filters
    avoiding S's complement.
    """

    def __init__(self, s: EvPeriodicSet, f: FOracle = _IDENTITY, family: str = "P"):
        if not s.is_infinite():
            raise ValueError("the size set must be infinite")
        self.s = s
        self.f = f
        self._declare_family(f"T_leq_S({s.to_literal()})", family, 1)
        self.certificate = certificate(cfs=True, fqg_set=s, cofqg_set=s)
        self.predicate_free = Shape(s, True)

    def shape(self, pos):
        return Shape(self.s, None, allow=partial(self.f.geq, pos.indices[0]), why=CAPPED)

    def admits(self, size, pos):
        return self.s.contains(size) and (pos is None or self.f.geq(pos.indices[0], size))


class GapIndexTheory(Theory):
    """P_(phi,i) pins the domain size to the i-th finite cardinality
    missing from an inner theory's spectrum of formula phi.

    The inner theory must have computable finite spectra; formulas are
    addressed by their 1-based position in the inner theory's canonical
    cube enumeration.  When the i-th gap does not exist (the inner
    spectrum misses fewer than i finite sizes) the predicate forces an
    infinite model.  Satisfiability, the infinite-only hint and exact
    spectra go through the gap value rather than the shape.
    """

    def __init__(self, inner: Theory, family: str = "P"):
        if not inner.certificate.cfs:
            raise ValueError("inner theory must have computable finite spectra")
        self.inner = inner
        self.enumeration = FormulaEnumeration(inner)
        # The gap scan is bound to its own state, not to the theory, so a
        # shape's gap test leaves no reference cycle through the theory.
        self._nth_gap = partial(_nth_gap, {}, inner, self.enumeration)
        self._declare_family(f"Th_of({inner.name})", family, 2)
        self.certificate = certificate(cfs=True)
        # Friendly references for the inner theory's bare predicates:
        # "Q" is the cube {Q}, "NOTQ" the cube {~Q}.
        self._names: dict[str, int] = {}
        for fam, arity in sorted(inner.signature.families):
            if arity != 0:
                continue
            for prefix, positive in (("", True), ("NOT", False)):
                lit = PredicateLiteral(PredicateId(fam, ()), positive)
                self._names[prefix + fam.upper()] = self.enumeration.id_of(Cube((lit,)))

    def resolver(self, name: str) -> int:
        return self._names[name]

    def validate_indices(self, pid: PredicateId):
        super().validate_indices(pid)
        if pid.indices[0] > self.enumeration.size:
            raise SignatureError(
                f"{self.name}: formula id {pid.indices[0]} is past the {self.enumeration.size} "
                f"cubes of {self.inner.name}"
            )

    def inner_cube(self, fid: int) -> Cube:
        return self.enumeration.cube(fid)

    def shape(self, pos):
        gap = partial(_is_nth_gap, self._nth_gap, *pos.indices)
        return Shape(ALL, None, allow=gap, why="the gap may or may not exist")

    def decide_at_least(self, cube: Readable, k: int) -> bool:
        if k < 1:
            raise ValueError("clique size must be >= 1")
        r = self._reading(cube)
        if r is None or r.part is None:  # no part: the base reads predicate_free
            return super().decide_at_least(r, k)
        # Sat unless the n-th gap lies below max(equality minimum, k).
        fid, n = r.part.indices
        return self._nth_gap(fid, n, max(r.floor, k)) is None

    def infinite_only(self, cube: Readable) -> bool:
        exact = self.exact_spectrum(cube)
        return exact is not None and exact.has_inf and exact.finite_part.is_empty()

    def exact_spectrum(self, cube: Readable):
        r = self._reading(cube)
        if r is None or r.part is None:
            return super().exact_spectrum(r)
        fid, n = r.part.indices
        inner = self.inner.exact_spectrum(self.inner_cube(fid))
        if inner is None:
            return None
        v = inner.finite_part.nth_excluded(n)  # None: no n-th gap, so only infinite models
        if v is None:
            return ExactSpectrum(EMPTY, True)
        return ExactSpectrum(finite_set([v]) if v >= r.floor else EMPTY, False)

    def admits(self, size, pos):
        return pos is None or self._nth_gap(*pos.indices, size + 1) == size

    def sample_pred(self, rng):
        # Small formula ids keep the inner enumeration cheap.
        return PredicateId(self.family, (rng.randint(1, 6), rng.randint(1, 4)))


def _nth_gap(scans: dict, inner: Theory, enumeration: FormulaEnumeration, fid: int, n: int, below: int):
    """The n-th size the inner spectrum of formula fid misses, or None
    when fewer than n sizes below ``below`` are missed.  The inner
    spectrum is asked about each size once: ``scans`` keeps, per formula
    id, the gaps found so far and the last size scanned."""
    gaps, scanned = scans.get(fid, ([], 0))
    phi = enumeration.cube(fid)
    while len(gaps) < n and scanned < below - 1:
        scanned += 1
        if not inner.spec_finite(phi, scanned):
            gaps.append(scanned)
    scans[fid] = (gaps, scanned)
    return gaps[n - 1] if len(gaps) >= n and gaps[n - 1] < below else None


def _is_nth_gap(nth_gap, fid: int, n: int, k: int) -> bool:
    return nth_gap(fid, n, k + 1) == k


class MixedTagTheory(Theory):
    """Odd-indexed tagged predicates force more than n elements; even
    indices 2k cap the domain at F(k); index 1 is unconstrained.

    Decidable, and k-decidable exactly for k above the threshold.
    """

    def __init__(
        self,
        n: int,
        f: FOracle = _IDENTITY,
        family: str = "P",
        u_standin: EvPeriodicSet = DEFAULT_U_STANDIN,
    ):
        if n < 1:
            raise ValueError("threshold must be positive")
        self.n = n
        self.f = f
        self.u_standin = u_standin
        self._declare_family(f"T_d_{n}", family, 1)
        self.certificate = certificate(n_decidable_sizes=upfrom(n + 1))

    def shape(self, pos):
        j = pos.indices[0]
        if j == 1:
            return Shape(ALL, True)
        if j % 2 == 0:
            return Shape(ALL, None, allow=partial(self.f.geq, j // 2), why=CAPPED)
        return Shape(upfrom(self.n + 1), True, withheld=interval(1, self.n), why=TAGGED)

    def admits(self, size, pos):
        j = 1 if pos is None else pos.indices[0]
        if j % 2 == 0:
            return self.f.geq(j // 2, size)
        return j == 1 or size > self.n or not self.u_standin.contains((j - 1) // 2)


class CapOrUnboundedTheory(Theory):
    """P_1 forces an infinite model; P_k for k >= 2 caps the domain at F(k).

    Computable finite spectra throughout, but infinite membership of
    capped cubes is withheld.
    """

    def __init__(self, f: FOracle = _IDENTITY, family: str = "P"):
        self.f = f
        self._declare_family("T_cfs", family, 1)
        self.certificate = certificate(cfs=True)

    def shape(self, pos):
        j = pos.indices[0]
        if j == 1:
            return Shape(EMPTY, True)
        return Shape(ALL, None, allow=partial(self.f.geq, j), why=CAPPED)

    def admits(self, size, pos):
        return pos is None or (pos.indices[0] != 1 and self.f.geq(pos.indices[0], size))


class TaggedInfinityTheory(Theory):
    """Tagged predicates force infinite models; everything else is free.

    Stably infinite and smooth; finite spectrum membership of positive
    cubes is withheld (it is exactly the tag-set complement).
    """

    def __init__(self, family: str = "P", u_standin: EvPeriodicSet = DEFAULT_U_STANDIN):
        self.u_standin = u_standin
        self._declare_family("T_si", family, 1)
        self.certificate = certificate(stably_infinite=True, smooth=True)

    def shape(self, pos):
        return Shape(EMPTY, True, withheld=ALL, why=TAGGED)

    def admits(self, size, pos):
        return pos is None or not self.u_standin.contains(pos.indices[0])


class _BarePredicateTheory(Theory):
    """One bare predicate; a cube's predicate part is its polarity
    (True, False, or None when the cube does not mention it), and a
    model's part is whether the predicate is true."""

    def read_part(self, pred_part):
        return pred_part[-1].positive if pred_part else None

    def model_check(self, size, true_preds):
        return self.admits(size, PredicateId(self.family, ()) in true_preds)


class SingletonOrInfiniteTheory(_BarePredicateTheory):
    """A single bare predicate: true pins the domain to one element,
    false forces an infinite one."""

    # Left unmentioned, the predicate may be true or false.
    predicate_free = Shape(finite_set([1]), True)

    def __init__(self, family: str = "P"):
        self._declare_family("T_cs", family, 0)
        self.certificate = certificate(cfs=True, infinitely_decidable=True)

    def shape(self, polarity):
        return Shape(finite_set([1]), False) if polarity else Shape(EMPTY, True)

    def admits(self, size, polarity):
        return polarity and size == 1


class StepTheory(_BarePredicateTheory):
    """A single bare predicate: true pins the size to `pin`, false keeps
    it at least `floor`.  With floor <= pin every cube spectrum is the
    singleton {pin} or an upward tail, which makes the theory pin-shiny.
    """

    def __init__(self, pin: int, floor: int, family: str = "P", name: str | None = None):
        if not (1 <= floor <= pin):
            raise ValueError("need 1 <= floor <= pin")
        self.pin = pin
        self.floor = floor
        self._declare_family(f"T_ns_{pin}" if pin == floor else f"T_step_{pin}_{floor}", family, 0)
        self.name = name or self.name
        self.certificate = certificate(cfs=True, n_shiny_param=pin)
        self.predicate_free = Shape(finite_set([pin]).union(upfrom(floor)), True)

    def shape(self, polarity):
        return Shape(finite_set([self.pin]), False) if polarity else Shape(upfrom(self.floor), True)

    def admits(self, size, polarity):
        return size == self.pin if polarity else size >= self.floor


class OracleFloorTheory(Theory):
    """P_k forces at least F(k) elements; positive predicates may stack,
    so a cube's predicate part is the tuple of its positive predicates.

    Smooth with computable spectra, but no computable minimum model size
    (that would reveal whether a floor is finite).
    """

    def __init__(self, f: FOracle = _IDENTITY, family: str = "P"):
        self.f = f
        self._declare_family("T_geq_F", family, 1)
        self.certificate = certificate(cfs=True, smooth=True)

    def read_part(self, pred_part):
        return tuple(lit.pred for lit in pred_part if lit.positive) or None

    def shape(self, pos):
        f = self.f
        return Shape(ALL, True, allow=lambda k: all(not f.geq(p.indices[0], k + 1) for p in pos))

    def model_check(self, size, true_preds):
        return all(not self.f.geq(pid.indices[0], size + 1) for pid in true_preds)


# -- composite test theories -------------------------------------------------

# One row per role: predicate families, whether P takes the ``inf`` index,
# and the declared certificate.  n-shiny-complete's certificate names its n.
_COMPLETE_ROLES = {
    "shiny-complete": ({("P", 1), ("Q", 1), ("R", 3)}, False, certificate()),
    "SI-complete": ({("B", 2)}, False, certificate(stably_infinite=True, smooth=True, fmp=True)),
    "ID-complete": ({("P", 1), ("R", 3)}, False, certificate(infinitely_decidable=True)),
    "CS-complete": ({("P", 1)}, True, certificate(cfs=True, infinitely_decidable=True)),
    "n-shiny-complete": ({("P", 1), ("Q", 1), ("R", 3)}, False, None),
}


class CompositeTestTheory(Theory):
    """One decidable theory playing several test-theory roles at once.

    Families: ``P`` pins the size (optionally with an ``inf`` index
    forcing infinite models), ``Q`` caps it through the oracle, ``R``
    carries two-size constraints R_(i,j,k), and ``B`` carries tagged
    big-model constraints B_(n,k).  Distinct positive predicates exclude
    each other, so a cube's verdict dispatches on its single positive
    literal.
    """

    def __init__(self, kind: str, n: int | None = None):
        if kind not in _COMPLETE_ROLES:
            raise ValueError(f"unknown complete-theory kind {kind!r}")
        fams, self.allow_inf, self.certificate = _COMPLETE_ROLES[kind]
        self.kind = kind
        self.n = n
        self.f = _IDENTITY
        self.name = f"complete_{kind.split('-')[0].lower()}"
        if kind == "n-shiny-complete":
            if n is None or n < 1:
                raise ValueError("n-shiny-complete needs a positive n")
            self.name = f"complete_nshiny_{n}"
            self.certificate = certificate(n_decidable_sizes=finite_set([n]))
        self.signature = Signature(frozenset(fams))

    def validate_indices(self, pid: PredicateId):
        if pid.family == "R":
            i, j, _ = pid.indices
            if not (isinstance(i, int) and isinstance(j, int) and i < j):
                raise SignatureError(f"{self.name}: two-size predicate needs i < j, got {pid}")
            if self.kind == "n-shiny-complete" and i == self.n:
                raise SignatureError(f"{self.name}: lower size {i} is excluded")
        for ix in pid.indices:
            if ix == "inf" and not (self.allow_inf and pid.family == "P"):
                raise SignatureError(f"{self.name}: no infinite index on {pid}")

    def shape(self, pos):
        ix = pos.indices
        if pos.family == "P":
            return Shape(EMPTY, True) if ix[0] == "inf" else Shape(finite_set([ix[0]]), False)
        if pos.family == "Q":
            return Shape(ALL, None, allow=partial(self.f.geq, ix[0]), why=CAPPED)
        if pos.family == "R":
            return Shape(finite_set([ix[1]]), False, withheld=finite_set([ix[0]]), why=TAGGED)
        # B_(n,tag): a big enough model always exists; below n the tag decides.
        return Shape(upfrom(ix[0] + 1), True, withheld=interval(1, ix[0]), why=TAGGED)

    def exact_spectrum(self, cube: Readable):
        return None

    def sample_pred(self, rng):
        fams = sorted(self.signature.families)
        fam, arity = rng.choice(fams)
        bound = SAMPLE_INDEX_BOUND
        if fam == "P" and self.allow_inf and rng.random() < 0.25:
            return PredicateId("P", ("inf",))
        if fam in ("P", "Q"):
            return PredicateId(fam, (rng.randint(1, bound),))
        if fam == "B":
            return PredicateId("B", (rng.randint(1, 3), rng.randint(1, 9)))
        choices = [
            (i, j)
            for i in range(1, bound)
            for j in range(i + 1, bound + 1)
            if not (self.kind == "n-shiny-complete" and i == self.n)
        ]
        i, j = rng.choice(choices)
        return PredicateId("R", (i, j, rng.randint(1, 9)))

    def admits(self, size, pos):
        if pos is None:
            return True
        self.validate_indices(pos)
        ix = pos.indices
        if pos.family == "P":
            return size == ix[0]  # never, for the infinite index
        if pos.family == "Q":
            return self.f.geq(ix[0], size)
        if pos.family == "R":  # R_(i,j,tag): size j, or i when untagged
            return size == ix[1] or (size == ix[0] and not DEFAULT_U_STANDIN.contains(ix[2]))
        return size > ix[0] or not DEFAULT_U_STANDIN.contains(ix[1])  # B_(n,tag)


def toy_inner_theory() -> StepTheory:
    """The worked-example inner theory: Q pins the size to 4, its negation
    keeps the domain at 3 or more."""
    return StepTheory(pin=4, floor=3, family="Q", name="toy")


def witness_tgtnp(theory: BigModelTagTheory, cube: Cube) -> Cube:
    """Witness transform for the big-model-tag theory: conjoin threshold+1
    fresh self-equalities, enough for a satisfiable output to have a model
    carried entirely by its own variables even when the tag forces more
    than `threshold` elements."""
    if not isinstance(theory, BigModelTagTheory):
        raise ValueError("witness transform is specific to the big-model-tag theory")
    pos = cube.positive_preds()
    if len(pos) != 1:
        raise ValueError("witness needs exactly one positive predicate literal")
    if not isinstance(pos[0].indices[0], int):
        raise ValueError("witness needs a finite predicate index")
    fresh = fresh_variables(cube.variables(), theory.n + 1, prefix="x")
    return cube.with_literals(EqualityLiteral(v, v, True) for v in fresh)


def default_catalog() -> list[Theory]:
    """The standard theory lineup used by the CLI and the test suites."""
    return [
        EqualityTheory(),
        InfiniteOnlyTheory(),
        ExactSizeTheory(3),
        ExactSizeTheory(5),
        MaxSizeTheory(3),
        MinSizeTheory(2),
        SizePinTheory(),
        BigModelTagTheory(2),
        TwoSizeTheory(2, 5),
        TwoSizeTheory(4, 5),
        SizeCapTheory(evens()),
        SizeCapTheory(upfrom(1)),
        GapIndexTheory(toy_inner_theory()),
        MixedTagTheory(4),
        MixedTagTheory(3),
        CapOrUnboundedTheory(),
        TaggedInfinityTheory(),
        SingletonOrInfiniteTheory(),
        StepTheory(4, 4),
        toy_inner_theory(),
        OracleFloorTheory(),
        CompositeTestTheory("shiny-complete"),
        CompositeTestTheory("SI-complete"),
        CompositeTestTheory("ID-complete"),
        CompositeTestTheory("CS-complete"),
        CompositeTestTheory("n-shiny-complete", n=4),
    ]
