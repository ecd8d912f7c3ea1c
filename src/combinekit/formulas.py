"""Quantifier-free formulas over function-free signatures.

The only atoms are equalities between variables and indexed nullary
predicates.  Cubes (conjunctions of literals) are the currency of every
decision procedure; general formulas are And/Or/Not trees over literals
and are lowered to cubes with :func:`to_dnf`.

Variables are plain lowercase identifiers.  Predicates carry a family
tag (an uppercase name) and a tuple of indices; indices are positive
ints, the marker ``"inf"``, or registered formula ids resolved by the
parser.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError, SignatureError

Index = int | str  # positive int, or the "inf" marker


@dataclass(frozen=True)
class PredicateId:
    """An indexed nullary predicate, e.g. P_3, P_(7,2) or R_(2,5,9)."""

    family: str
    indices: tuple[Index, ...] = ()

    def __post_init__(self):
        for ix in self.indices:
            if isinstance(ix, int):
                if ix < 1:
                    raise ValueError(f"predicate index must be positive, got {ix}")
            elif ix != "inf":
                raise ValueError(f"bad predicate index {ix!r}")

    @property
    def sort_key(self):
        return (self.family, tuple((1, "") if ix == "inf" else (0, ix) for ix in self.indices))

    def __str__(self) -> str:
        if not self.indices:
            return self.family
        return self.family + "_" + ",".join(str(ix) for ix in self.indices)


@dataclass(frozen=True)
class PredicateLiteral:
    pred: PredicateId
    positive: bool = True

    @property
    def sort_key(self):
        return (0, self.pred.sort_key, not self.positive)

    def negate(self) -> "PredicateLiteral":
        return PredicateLiteral(self.pred, not self.positive)

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return str(self.pred) if self.positive else f"~{self.pred}"


@dataclass(frozen=True)
class EqualityLiteral:
    """x = y or x != y, with endpoints stored in lexicographic order."""

    left: str
    right: str
    positive: bool = True

    def __post_init__(self):
        if self.right < self.left:
            lo, hi = self.right, self.left
            object.__setattr__(self, "left", lo)
            object.__setattr__(self, "right", hi)

    @property
    def sort_key(self):
        return (1, self.left, self.right, not self.positive)

    def negate(self) -> "EqualityLiteral":
        return EqualityLiteral(self.left, self.right, not self.positive)

    def variables(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def __str__(self) -> str:
        op = "=" if self.positive else "!="
        return f"{self.left}{op}{self.right}"


Literal = PredicateLiteral | EqualityLiteral


@dataclass(frozen=True)
class Cube:
    """A normalized conjunction of literals.

    Literals are deduplicated in input order, then sorted, so sorted runs
    (as in a join of two cubes) merge in linear time.  ``contradictory``
    is true when the cube contains x != x or a literal together with its
    negation.  Tautological self-equalities x = x are retained (they
    contribute variables, which matters for witness constructions).
    """

    literals: tuple[Literal, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "literals", tuple(sorted(dict.fromkeys(self.literals), key=lambda l: l.sort_key))
        )

    @cached_property
    def contradictory(self) -> bool:
        # Sorting puts each negative literal right after its positive twin.
        prev = None
        for lit in self.literals:
            if not lit.positive:
                if isinstance(lit, EqualityLiteral):
                    if lit.left == lit.right or (
                        isinstance(prev, EqualityLiteral)
                        and prev.positive
                        and (prev.left, prev.right) == (lit.left, lit.right)
                    ):
                        return True
                elif isinstance(prev, PredicateLiteral) and prev.positive and prev.pred == lit.pred:
                    return True
            prev = lit
        return False

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for lit in self.literals:
            out |= lit.variables()
        return frozenset(out)

    def pred_literals(self) -> tuple[PredicateLiteral, ...]:
        return tuple(l for l in self.literals if isinstance(l, PredicateLiteral))

    def eq_literals(self) -> tuple[EqualityLiteral, ...]:
        return tuple(l for l in self.literals if isinstance(l, EqualityLiteral))

    def positive_preds(self) -> tuple[PredicateId, ...]:
        return tuple(l.pred for l in self.pred_literals() if l.positive)

    def join(self, other: "Cube") -> "Cube":
        return Cube(self.literals + other.literals)

    def with_literals(self, extra: Iterable[Literal]) -> "Cube":
        return Cube(self.literals + tuple(extra))

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self.literals) + "}" if self.literals else "{}"


TOP = Cube(())


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Not:
    child: "Formula"


Formula = And | Or | Not | PredicateLiteral | EqualityLiteral


def formula_atoms(f: Formula) -> frozenset:
    """The distinct atoms of f (literals with polarity stripped)."""
    if isinstance(f, (And, Or)):
        out: frozenset = frozenset()
        for c in f.children:
            out |= formula_atoms(c)
        return out
    if isinstance(f, Not):
        return formula_atoms(f.child)
    pos = f if f.positive else f.negate()
    return frozenset((pos,))


def eval_formula(f: Formula, true_atoms: frozenset) -> bool:
    """Truth value of f given the set of true (positive) atoms."""
    if isinstance(f, And):
        return all(eval_formula(c, true_atoms) for c in f.children)
    if isinstance(f, Or):
        return any(eval_formula(c, true_atoms) for c in f.children)
    if isinstance(f, Not):
        return not eval_formula(f.child, true_atoms)
    pos = f if f.positive else f.negate()
    return (pos in true_atoms) == f.positive


# -- parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_VAR_RE = re.compile(r"^[a-z][a-zA-Z0-9_]*$")
FAMILY_RE = re.compile(r"^[A-Z][A-Za-z0-9]*$")

# Resolves symbolic formula references inside (pred FAMILY ...) index lists
# to registered formula ids.
Resolver = Callable[[str], int]


def parse_formula(text: str, resolver: Resolver | None = None) -> Formula:
    """Parse the s-expression formula grammar.

    Forms: ``(= x y)``, ``(not F)``, ``(and F...)``, ``(or F...)``,
    ``(distinct x1 .. xn)``, ``(P k)`` / ``(P)`` for the plain family P,
    and ``(pred FAMILY i j k)`` for arbitrary families.  Indices are
    positive naturals, ``inf``, or names resolved by `resolver`.
    """
    tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[1])
        pos += 1
        return tok

    def parse_index(tok: str, off: int) -> Index:
        if tok == "inf":
            return "inf"
        if tok.isdigit():
            n = int(tok)
            if n < 1:
                raise ParseError(f"non-positive index {tok}", off)
            return n
        if FAMILY_RE.match(tok):
            if resolver is None:
                raise ParseError(f"no resolver for formula reference {tok!r}", off)
            try:
                return resolver(tok)
            except KeyError:
                raise ParseError(f"unknown formula reference {tok!r}", off)
        raise ParseError(f"bad index {tok!r}", off)

    def parse_expr() -> Formula:
        tok, off = take()
        if tok != "(":
            raise ParseError(f"expected '(', got {tok!r}", off)
        head, hoff = take()
        if head == "=":
            a, aoff = take()
            b, boff = take()
            for v, o in ((a, aoff), (b, boff)):
                if not _VAR_RE.match(v or ""):
                    raise ParseError(f"bad variable {v!r}", o)
            expect_close()
            return EqualityLiteral(a, b, True)
        if head == "not":
            inner = parse_expr()
            expect_close()
            return Not(inner)
        if head in ("and", "or"):
            children = []
            while peek()[0] != ")":
                if peek()[0] is None:
                    raise ParseError("unterminated list", peek()[1])
                children.append(parse_expr())
            take()
            if not children:
                raise ParseError(f"empty ({head})", hoff)
            return And(tuple(children)) if head == "and" else Or(tuple(children))
        if head == "distinct":
            vs = []
            while peek()[0] != ")":
                v, o = take()
                if not _VAR_RE.match(v or ""):
                    raise ParseError(f"bad variable {v!r}", o)
                vs.append(v)
            take()
            if len(vs) < 2:
                raise ParseError("(distinct ...) needs at least two variables", hoff)
            lits = [
                EqualityLiteral(x, y, False) for x, y in itertools.combinations(vs, 2)
            ]
            return And(tuple(lits)) if len(lits) > 1 else lits[0]
        if head == "pred":
            fam, foff = take()
            if not FAMILY_RE.match(fam or ""):
                raise ParseError(f"unknown predicate family {fam!r}", foff)
        elif FAMILY_RE.match(head or ""):
            fam = head
        else:
            raise ParseError(f"unknown operator {head!r}", hoff)
        indices = []
        while peek()[0] != ")":
            t, o = take()
            indices.append(parse_index(t, o))
        take()
        return PredicateLiteral(PredicateId(fam, tuple(indices)))

    def expect_close():
        tok, off = take()
        if tok != ")":
            raise ParseError(f"expected ')', got {tok!r}", off)

    f = parse_expr()
    if peek()[0] is not None:
        raise ParseError(f"trailing input {peek()[0]!r}", peek()[1])
    return f


# -- DNF -----------------------------------------------------------------


def to_dnf(f: Formula) -> list[Cube]:
    """Cubes whose disjunction is equivalent to f; contradictory cubes dropped."""
    cubes = _dnf(_nnf(f, False))
    out, seen = [], set()
    for c in cubes:
        if c.contradictory or c in seen:
            continue
        seen.add(c)
        out.append(c)
    return out


def _nnf(f: Formula, negate: bool) -> Formula:
    if isinstance(f, Not):
        return _nnf(f.child, not negate)
    if isinstance(f, And):
        kids = tuple(_nnf(c, negate) for c in f.children)
        return Or(kids) if negate else And(kids)
    if isinstance(f, Or):
        kids = tuple(_nnf(c, negate) for c in f.children)
        return And(kids) if negate else Or(kids)
    return f.negate() if negate else f


def _dnf(f: Formula) -> list[Cube]:
    if isinstance(f, (PredicateLiteral, EqualityLiteral)):
        return [Cube((f,))]
    if isinstance(f, Or):
        out = []
        for c in f.children:
            out.extend(_dnf(c))
        return out
    if isinstance(f, And):
        parts = [_dnf(c) for c in f.children]
        out = []
        for combo in itertools.product(*parts):
            merged = Cube(tuple(itertools.chain.from_iterable(c.literals for c in combo)))
            out.append(merged)
        return out
    raise AssertionError(f"not in NNF: {f}")


# -- cardinality cliques ---------------------------------------------------


def neq_clique(variables: Sequence[str], n: int) -> Cube:
    """The cube of pairwise disequalities over n variables.

    Satisfiable exactly in domains of size >= n.  ``n = 1`` yields the
    empty cube (no pairs).  Pairs of sorted names come out already in
    literal order, so normalizing them is one linear pass.
    """
    if n < 1:
        raise ValueError("clique size must be >= 1")
    if len(variables) != n:
        raise ValueError(f"need exactly {n} variables, got {len(variables)}")
    return Cube(
        tuple(
            EqualityLiteral(x, y, False) for x, y in itertools.combinations(sorted(variables), 2)
        )
    )


def fresh_variables(avoid: frozenset[str], n: int, prefix: str = "f") -> list[str]:
    out, i = [], 1
    while len(out) < n:
        v = f"{prefix}{i}"
        if v not in avoid:
            out.append(v)
        i += 1
    return out


def clique_extension(cube: Cube, n: int) -> Cube:
    """cube conjoined with a disequality clique over n fresh variables."""
    if n < 1:
        raise ValueError("clique size must be >= 1")
    vs = sorted(fresh_variables(cube.variables(), n))
    return cube.with_literals(EqualityLiteral(x, y, False) for x, y in itertools.combinations(vs, 2))


# -- arrangements ----------------------------------------------------------


@dataclass(frozen=True)
class Arrangement:
    """A set partition of a variable set: nonempty, disjoint, covering blocks."""

    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("arrangement blocks must be nonempty")
            for v in b:
                if v in seen:
                    raise ValueError(f"variable {v} in two blocks")
                seen.add(v)

    def variables(self) -> frozenset[str]:
        return frozenset(v for b in self.blocks for v in b)

    def to_json(self):
        return [list(b) for b in self.blocks]


def enumerate_arrangements(variables: Iterable[str]) -> Iterator[Arrangement]:
    """Every set partition of the variables, in restricted-growth-string order.

    The empty variable set yields the single empty arrangement.  Counts
    follow the Bell numbers (1, 1, 2, 5, 15, 52, 203, ...).
    """
    vs = sorted(set(variables))
    if not vs:
        yield Arrangement(())
        return
    n = len(vs)
    rgs = [0] * n

    def emit() -> Arrangement:
        nblocks = max(rgs) + 1
        blocks: list[list[str]] = [[] for _ in range(nblocks)]
        for i, v in enumerate(vs):
            blocks[rgs[i]].append(v)
        return Arrangement(tuple(tuple(b) for b in blocks))

    def rec(i: int, maxused: int) -> Iterator[Arrangement]:
        if i == n:
            yield emit()
            return
        for b in range(maxused + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxused, b))

    yield from rec(1, 0) if n > 1 else iter([emit()])


def arrangement_to_cube(arr: Arrangement) -> Cube:
    """Equalities within blocks, disequalities across blocks (one per pair)."""
    lits: list[Literal] = []
    for block in arr.blocks:
        for x, y in itertools.combinations(block, 2):
            lits.append(EqualityLiteral(x, y, True))
    for b1, b2 in itertools.combinations(arr.blocks, 2):
        for x in b1:
            for y in b2:
                lits.append(EqualityLiteral(x, y, False))
    return Cube(tuple(lits))


# -- signatures and cube splitting ----------------------------------------


@dataclass(frozen=True)
class Signature:
    """The predicate families a theory owns, as (family, arity) pairs."""

    families: frozenset[tuple[str, int]]

    def owns(self, pred: PredicateId) -> bool:
        return (pred.family, len(pred.indices)) in self.families

    def disjoint_from(self, other: "Signature") -> bool:
        return not (self.families & other.families)


def split_by_signature(
    cube: Cube, sig1: Signature, sig2: Signature
) -> tuple[Cube, Cube, frozenset[str]]:
    """Route predicate literals to their owning side; equalities go to both.

    Returns (side1 cube, side2 cube, shared variables).  Raises
    SignatureError for predicates owned by neither side or overlapping
    signatures.
    """
    if not sig1.disjoint_from(sig2):
        overlap = sorted(sig1.families & sig2.families)
        raise SignatureError(f"signatures overlap on {overlap}; rename a family")
    lits1: list[Literal] = []
    lits2: list[Literal] = []
    for lit in cube.literals:
        if isinstance(lit, EqualityLiteral):
            lits1.append(lit)
            lits2.append(lit)
        elif sig1.owns(lit.pred):
            lits1.append(lit)
        elif sig2.owns(lit.pred):
            lits2.append(lit)
        else:
            raise SignatureError(f"predicate {lit.pred} owned by neither signature")
    c1, c2 = Cube(tuple(lits1)), Cube(tuple(lits2))
    return c1, c2, c1.variables() & c2.variables()


# -- canonical cube enumeration --------------------------------------------


def canonical_cubes(literal_pool: Sequence[Literal]) -> Iterator[Cube]:
    """All cubes over the pool in (literal count, lexicographic) order.

    The order is deterministic: pool literals are sorted by their
    canonical keys and subsets are emitted by size then index tuple.
    Formula ids elsewhere in the library are 1-based positions in this
    stream (id 1 is the empty cube).
    """
    pool = sorted(set(literal_pool), key=lambda l: l.sort_key)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            yield Cube(combo)


def equality_literal_pool(variables: Sequence[str]) -> list[Literal]:
    out: list[Literal] = []
    for x, y in itertools.combinations(sorted(variables), 2):
        out.append(EqualityLiteral(x, y, True))
        out.append(EqualityLiteral(x, y, False))
    return out
