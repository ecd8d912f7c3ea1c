"""Quantifier-free formulas over function-free signatures.

The only atoms are equalities between variables and indexed nullary
predicates.  Cubes (conjunctions of literals) are the currency of every
decision procedure; general formulas are And/Or/Not trees over literals
and are lowered to cubes lazily with :func:`iter_dnf` (:func:`to_dnf` is
its list).

Variables are plain lowercase identifiers.  Predicates carry a family
tag (an uppercase name) and a tuple of indices; indices are positive
ints, the marker ``"inf"``, or registered formula ids resolved by the
parser.

A literal computes its hash and sort key once, when built, and a cube
its hash once.  Two bounded tables share negations and map an atom's
tokens to the literal parsed for them before (they pay where atoms recur
and cost time where all are new); a third interns cube parts, so a part
hashes by identity.  Equality stays by value.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError, SignatureError

Index = int | str  # positive int, or the "inf" marker


class _BuiltOnce:
    """The hash and sort key a literal sets once, when built; not fields."""

    __slots__ = ("_hash", "sort_key")

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, not restored: a str's hash differs between processes
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, slots=True)
class PredicateId(_BuiltOnce):
    """An indexed nullary predicate, e.g. P_3, P_(7,2) or R_(2,5,9)."""

    family: str
    indices: tuple[Index, ...] = ()
    __hash__ = _BuiltOnce.__hash__  # dataclass would replace an inherited one

    def __post_init__(self):
        for ix in self.indices:
            if isinstance(ix, int):
                if ix < 1:
                    raise ValueError(f"predicate index must be positive, got {ix}")
            elif ix != "inf":
                raise ValueError(f"bad predicate index {ix!r}")
        object.__setattr__(self, "_hash", hash((self.family, self.indices)))
        key = tuple([(1, "") if ix == "inf" else (0, ix) for ix in self.indices])
        object.__setattr__(self, "sort_key", (self.family, key))

    def __str__(self) -> str:
        if not self.indices:
            return self.family
        return self.family + "_" + ",".join(str(ix) for ix in self.indices)


@dataclass(frozen=True, slots=True)
class PredicateLiteral(_BuiltOnce):
    pred: PredicateId
    positive: bool = True
    __hash__ = _BuiltOnce.__hash__

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.pred, self.positive)))
        object.__setattr__(self, "sort_key", (0, self.pred.sort_key, not self.positive))

    def negate(self) -> "PredicateLiteral":
        return shared_literal(PredicateLiteral, self.pred, not self.positive)

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return str(self.pred) if self.positive else f"~{self.pred}"


@dataclass(frozen=True, slots=True)
class EqualityLiteral(_BuiltOnce):
    """x = y or x != y, with endpoints stored in lexicographic order."""

    left: str
    right: str
    positive: bool = True
    __hash__ = _BuiltOnce.__hash__

    def __post_init__(self):
        if self.right < self.left:
            lo, hi = self.right, self.left
            object.__setattr__(self, "left", lo)
            object.__setattr__(self, "right", hi)
        object.__setattr__(self, "_hash", hash((self.left, self.right, self.positive)))
        object.__setattr__(self, "sort_key", (1, self.left, self.right, not self.positive))

    def negate(self) -> "EqualityLiteral":
        return shared_literal(EqualityLiteral, self.left, self.right, not self.positive)

    def variables(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def __str__(self) -> str:
        op = "=" if self.positive else "!="
        return f"{self.left}{op}{self.right}"


Literal = PredicateLiteral | EqualityLiteral

# At most ATOMS_KEPT each: shared negations (LRU) and parsed atoms by token (emptied when full).
ATOMS_KEPT = 256
shared_literal = lru_cache(maxsize=ATOMS_KEPT)(lambda kind, *fields: kind(*fields))
_ATOMS: dict[tuple, Literal] = {}

_sort_key = operator.attrgetter("sort_key")


class Part(tuple):  # equal by value, hashed by identity (in C)
    """A cube's predicate or equality literals, one object per value while interned."""

    __slots__ = ()
    __hash__ = object.__hash__


# The part table: one part per value, built from canonical literals, until
# its parts hold PART_LITERALS_KEPT literals (a clique part counts its size).
# Then it empties itself, those literals and every memo `keyed_by_part`.
PART_LITERALS_KEPT = 12_288
_PARTS: dict[int, Part] = {}
_LITERALS: dict = {}
_EMPTIED_WITH_PARTS: list[Callable[[], None]] = [_PARTS.clear, _LITERALS.clear]
_held = 0


def empty_parts():
    """Empty the part table, its literals and every memo keyed by a part."""
    global _held
    _held = 0
    for clear in _EMPTIED_WITH_PARTS:
        clear()


def keyed_by_part(fn):
    """`fn` memoized with no bound of its own: it is emptied with the part table."""
    _EMPTIED_WITH_PARTS.append((memo := lru_cache(maxsize=None)(fn)).cache_clear)
    return memo


def _intern(lits: tuple) -> Part:
    """The one part of these sorted literals, by hash then value.  A part past the
    room left empties the table; one past the bound is not kept, but counted for the memos."""
    global _held
    part = _PARTS.get(h := hash(lits))
    if part is None or part != lits:
        if _held + len(lits) > PART_LITERALS_KEPT:
            empty_parts()
        _held += len(lits)
        if _held > PART_LITERALS_KEPT:
            return Part(lits)
        part = _PARTS[h] = Part(map(_LITERALS.setdefault, lits, lits))
    return part


class _computed_once:
    """``functools.cached_property`` without the lock that Python 3.11
    takes on each first read."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True)
class Cube:
    """A normalized conjunction of literals.

    Literals are deduplicated in input order, then sorted, predicates
    first, so sorted runs (as in a join of two cubes) merge in linear
    time.  ``pred_part`` and ``eq_part`` are the two slices of the sorted
    literals at that boundary, interned as :class:`Part`; verdicts read
    the parts apart, so memos key on a part.  ``contradictory`` (x != x,
    or a literal with its negation), ``minmod``, the equality minimum
    (:func:`minmod_equalities`), and the hash are computed at most once
    per cube.  Tautological self-equalities x = x are retained (they
    contribute variables, which matters for witness constructions).
    """

    literals: tuple[Literal, ...]

    def __post_init__(self):
        lits = tuple(sorted(dict.fromkeys(self.literals), key=_sort_key))
        cut = operator.countOf(map(type, lits), PredicateLiteral)
        vars(self).update(literals=lits, pred_part=_intern(lits[:cut]), eq_part=_intern(lits[cut:]))

    # The hash is kept, and pickle rebuilds the cube, as it does a literal.
    __hash__, __reduce__ = _BuiltOnce.__hash__, _BuiltOnce.__reduce__

    @_computed_once
    def _hash(self) -> int:
        return hash(self.literals)

    @_computed_once
    def contradictory(self) -> bool:
        # Sorting puts each negative literal right after its positive twin.
        twin = None  # the last positive literal's key, less its polarity
        for lit in self.literals:
            if lit.positive:
                twin = lit.sort_key[:-1]
            elif lit.sort_key[:-1] == twin or type(lit) is EqualityLiteral and lit.left == lit.right:
                return True
        return False

    @_computed_once
    def minmod(self) -> int | None:
        return minmod_equalities(self)

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for lit in self.eq_part:
            out.add(lit.left)
            out.add(lit.right)
        return frozenset(out)

    def positive_preds(self) -> tuple[PredicateId, ...]:
        return tuple(l.pred for l in self.pred_part if l.positive)

    def with_literals(self, extra: Iterable[Literal]) -> "Cube":
        return Cube(self.literals + tuple(extra))

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self.literals) + "}" if self.literals else "{}"


TOP = Cube(())


class _Connective:
    """Dunders that walk the tree in a loop: any depth compares, hashes, prints, pickles, copies."""

    __slots__ = ()

    def __eq__(self, other):
        return _prefix(self) == _prefix(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(_prefix(self)))

    def __repr__(self):  # the text of the dataclass repr
        return _fold(_prefix(self), _node_repr, repr)

    def __reduce__(self):
        return _fold, (tuple(_prefix(self)),)

    def __deepcopy__(self, memo):
        return self  # immutable


@dataclass(frozen=True, repr=False, eq=False)
class And(_Connective):
    children: tuple["Formula", ...]


@dataclass(frozen=True, repr=False, eq=False)
class Or(_Connective):
    children: tuple["Formula", ...]


@dataclass(frozen=True, repr=False, eq=False)
class Not(_Connective):
    child: "Formula"


def _prefix(f) -> list:
    """f's nodes in prefix order, a connective as (its class, its number of children)."""
    out, todo = [], [f]
    while todo:
        out.append(g := todo.pop())
        if isinstance(g, _Connective):
            kids = (g.child,) if type(g) is Not else g.children
            out[-1] = (type(g), len(kids))
            todo += reversed(kids)
    return out


def _fold(items, node=lambda kind, kids: kind(*kids) if kind is Not else kind(tuple(kids)), leaf=lambda g: g):
    """The tree of a prefix list, or, given `node` and `leaf`, its value built bottom-up."""
    done = []
    for g in reversed(items):
        done.append(node(g[0], [done.pop() for _ in range(g[1])]) if type(g) is tuple else leaf(g))
    return done.pop()


def _node_repr(kind, kids: list[str]) -> str:
    args = f"child={kids[0]}" if kind is Not else f"children=({', '.join(kids)}{',' * (len(kids) == 1)})"
    return f"{kind.__qualname__}({args})"


Formula = And | Or | Not | PredicateLiteral | EqualityLiteral


def formula_atoms(f: Formula) -> frozenset:
    """The distinct atoms of f (literals with polarity stripped)."""
    if isinstance(f, (And, Or)):
        return frozenset().union(*map(formula_atoms, f.children))
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

MAX_NESTING = 256  # connective levels; the recursive lowering, evaluation and joint oracle answer at it

# Resolves symbolic formula references inside (pred FAMILY ...) index lists
# to registered formula ids.
Resolver = Callable[[str], int]


def parse_formula(text: str, resolver: Resolver | None = None) -> Formula:
    """Parse the s-expression formula grammar.

    Forms: ``(= x y)``, ``(not F)``, ``(and F...)``, ``(or F...)``,
    ``(distinct x1 .. xn)``, ``(P k)`` / ``(P)`` for the plain family P,
    and ``(pred FAMILY i j k)`` for arbitrary families.  Indices are
    positive naturals, ``inf``, or names resolved by `resolver`.  A
    formula nested more than `MAX_NESTING` connectives deep is a ParseError.
    """
    p = _Parser(text, resolver)
    f = p.expr()
    if p.toks[p.pos] is not None:
        raise p.fail(f"trailing input {p.toks[p.pos]!r}", p.pos)
    return f


class _Parser:
    """Tokens read by index up to a None sentinel; methods, not nested
    closures, so that a parse leaves no reference cycle behind."""

    __slots__ = ("text", "resolver", "toks", "pos", "depth")

    def __init__(self, text: str, resolver: Resolver | None):
        self.text, self.resolver, self.pos, self.depth = text, resolver, 0, 0
        self.toks = _TOKEN_RE.findall(text) + [None]

    def fail(self, message: str, i: int) -> ParseError:
        """The error at token i, whose offset is recovered only here."""
        off = len(self.text)
        if self.toks[i] is not None:
            off = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None)).start()
        return ParseError(message, off)

    def take(self) -> int:
        """The index of the next token, which must exist."""
        if self.toks[self.pos] is None:
            raise self.fail("unexpected end of input", self.pos)
        self.pos += 1
        return self.pos - 1

    def items(self, read, at_end="unexpected end of input") -> list:
        """Read items with `read` up to and including the list's ')'."""
        toks, out = self.toks, []
        while toks[self.pos] != ")":
            if toks[self.pos] is None:
                raise self.fail(at_end, self.pos)
            out.append(read())
        self.pos += 1
        return out

    def no_item(self):
        i = self.take()
        raise self.fail(f"expected ')', got {self.toks[i]!r}", i)

    def variable(self, i: int) -> str:
        if not _VAR_RE.match(self.toks[i]):
            raise self.fail(f"bad variable {self.toks[i]!r}", i)
        return self.toks[i]

    def index(self) -> Index:
        i = self.take()
        tok = self.toks[i]
        if tok == "inf":
            return "inf"
        if tok.isascii() and tok.isdigit():  # str.isdigit alone admits digits like '²'
            if int(tok) < 1:
                raise self.fail(f"non-positive index {tok}", i)
            return int(tok)
        if not FAMILY_RE.match(tok):
            raise self.fail(f"bad index {tok!r}", i)
        if self.resolver is None:
            raise self.fail(f"no resolver for formula reference {tok!r}", i)
        try:
            ix = self.resolver(tok)
        except KeyError:
            raise self.fail(f"unknown formula reference {tok!r}", i)
        if type(ix) is not int or ix < 1:
            raise self.fail(f"formula reference {tok!r} resolved to {ix!r}, not a positive id", i)
        return ix

    def expr(self) -> Formula:
        toks = self.toks
        i = self.take()
        if toks[i] != "(":
            raise self.fail(f"expected '(', got {toks[i]!r}", i)
        h = self.take()
        head = toks[h]
        # An atom parsed before: its tokens through its ')' map to its literal.
        if head not in ("and", "or", "not", "distinct", "pred"):
            key = tuple(toks[h : h + (4 if head == "=" else 2 if toks[h + 1] == ")" else 3)])
            f = _ATOMS.get(key)
            if f is not None:
                self.pos = h + len(key)
                return f
        if head in ("and", "or", "not"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.fail("formula nested too deeply", h)
            if head == "not":
                f = Not(self.expr())
                self.items(self.no_item)
            elif not (kids := tuple(self.items(self.expr, "unterminated list"))):
                raise self.fail(f"empty ({head})", h)
            else:
                f = And(kids) if head == "and" else Or(kids)
            self.depth -= 1
            return f
        if head == "distinct":
            vs = self.items(lambda: self.variable(self.take()))
            if len(vs) < 2:
                raise self.fail("(distinct ...) needs at least two variables", h)
            lits = tuple(shared_literal(EqualityLiteral, *xy, False) for xy in itertools.combinations(vs, 2))
            return And(lits) if len(lits) > 1 else lits[0]
        if head == "=":
            a, b = self.take(), self.take()  # both operands are read before either is checked
            f = EqualityLiteral(self.variable(a), self.variable(b), True)
            self.items(self.no_item)
        else:
            fi = self.take() if head == "pred" else h
            if not FAMILY_RE.match(toks[fi]):
                what = "unknown predicate family" if head == "pred" else "unknown operator"
                raise self.fail(f"{what} {toks[fi]!r}", fi)
            f = PredicateLiteral(PredicateId(toks[fi], tuple(self.items(self.index))))
            if head == "pred" or FAMILY_RE.match(toks[h + 1]):
                return f  # may hold a formula reference, which each parse's resolver resolves
        if self.pos == h + len(key):  # read whole from its key
            if len(_ATOMS) >= ATOMS_KEPT:
                _ATOMS.clear()  # not oldest first: next(iter()) would scan past every deleted slot
            _ATOMS[key] = f
        return f


# -- DNF -----------------------------------------------------------------


def iter_dnf(f: Formula) -> Iterator[Cube]:
    """The cubes of :func:`to_dnf`, in the same order, each built and
    normalized only when it is reached: a caller that stops at its first
    answer never pays for the cubes after it."""
    seen = set()
    for lits in _dnf(f, False):
        c = Cube(lits)
        if c.contradictory or c in seen:
            continue
        seen.add(c)
        yield c


def to_dnf(f: Formula) -> list[Cube]:
    """Cubes whose disjunction is equivalent to f; contradictory cubes dropped."""
    return list(iter_dnf(f))


def _dnf(f: Formula, negate: bool) -> Iterator[tuple[Literal, ...]]:
    """The literals of each cube of f (of ~f when `negate`), pushing
    negations down by De Morgan.  A conjunction's cubes are the product
    of its conjuncts' cubes, first conjunct slowest; a cube's literals are
    normalized by whoever builds the :class:`Cube`, once."""
    lits: list[Literal] = []
    choices: list[tuple[Formula, bool]] = []
    _conjuncts(f, negate, lits, choices)
    if not choices:
        yield tuple(lits)
        return
    # Kept iterative: a recursive product walk overflows at 1,500 disjunctions.
    # An odometer over the disjunctive conjuncts: each one's cubes are
    # streamed afresh for every choice made before it, so nothing past the
    # current cube is built.  prefix[i] holds the literals chosen before
    # choices[i].
    prefix = [tuple(lits)]
    streams = [_disjuncts(*choices[0])]
    while streams:
        lits = next(streams[-1], None)
        if lits is None:
            streams.pop()
            prefix.pop()
            continue
        chosen = prefix[len(streams) - 1] + lits
        if len(streams) == len(choices):
            yield chosen
            continue
        prefix.append(chosen)
        streams.append(_disjuncts(*choices[len(streams)]))


def _conjuncts(f: Formula, negate: bool, lits: list, choices: list):
    """Flatten the conjunction f (~f when `negate`): its literals go to
    `lits`, its disjunctive parts to `choices` as (formula, negate)."""
    while isinstance(f, Not):
        f, negate = f.child, not negate
    if not isinstance(f, (And, Or)):
        lits.append(f.negate() if negate else f)
    elif isinstance(f, Or) == negate:
        for c in f.children:
            _conjuncts(c, negate, lits, choices)
    else:
        choices.append((f, negate))


def _disjuncts(f: Formula, negate: bool) -> Iterator[tuple[Literal, ...]]:
    """The cubes of a disjunctive f: each child's cubes in turn."""
    for c in f.children:
        yield from _dnf(c, negate)


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
    """cube conjoined with ``neq_clique`` over n fresh variables.

    A literal reference that tests decide and the brute oracle can
    referee; no query path builds it, because ``Theory.decide_at_least``
    answers the same question symbolically.
    """
    return cube.with_literals(neq_clique(fresh_variables(cube.variables(), n), n).literals)


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


def equality_classes(
    eq_lits: Iterable[EqualityLiteral],
) -> tuple[Callable[[str], str], defaultdict[str, set[str]]] | None:
    """The classes a cube's positive equalities merge its variables into,
    and the disequality graph over them; None when a disequality falls
    inside a class.  Reads only the cube's equality literals.

    Returns ``(find, apart)``: ``find`` maps a variable to its class
    representative, and ``apart`` maps a class to the classes the cube
    keeps it from.  Only classes on a disequality have an entry.
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    neqs = []
    for lit in eq_lits:
        if lit.positive:
            parent[find(lit.left)] = find(lit.right)
        else:
            neqs.append(lit)
    apart: defaultdict[str, set[str]] = defaultdict(set)
    for lit in neqs:
        ra, rb = find(lit.left), find(lit.right)
        if ra == rb:
            return None
        apart[ra].add(rb)
        apart[rb].add(ra)
    return find, apart


def minmod_equalities(cube: Cube) -> int | None:
    """Minimum model size of the equality part of a cube; None if inconsistent.

    Equalities merge variables into classes; the minimum domain size is
    the chromatic number of the disequality graph over those classes,
    taken per connected component; complete components in closed form,
    any other searched upward from the best so far (1 without
    disequalities, since domains are nonempty).  A part's minimum is
    computed once and memoized by ``cube.eq_part``, which is normalized
    and sorted and is the only input the minimum reads.
    """
    return _kept_equality_minimum(cube.eq_part)


def _equality_minimum(eq_lits: tuple[EqualityLiteral, ...]) -> int | None:
    graph = equality_classes(eq_lits)
    if graph is None:
        return None
    # Only classes on a disequality can need more than one element.
    adj = graph[1]
    best, seen = 1, set()
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for v in comp:
            fresh = adj[v] - seen
            seen |= fresh
            comp.extend(fresh)
        if len(comp) <= best:
            continue
        if all(len(adj[v]) == len(comp) - 1 for v in comp):
            best = len(comp)
            continue
        order = sorted(comp, key=lambda c: (-len(adj[c]), c))
        while not _colorable(adj, order, best, {}):
            best += 1
    return best


def _colorable(adj, order: list[str], k: int, colors: dict[str, int]) -> bool:
    """Whether the coloring of a prefix of order extends to k colors."""
    if len(colors) == len(order):
        return True
    v = order[len(colors)]
    used = {colors[u] for u in adj[v] if u in colors}
    for c in range(k):
        if c in used:
            continue
        colors[v] = c
        if _colorable(adj, order, k, colors):
            return True
        del colors[v]
        if c not in colors.values():
            break  # first unused color: symmetric to the rest
    return False


_kept_equality_minimum = keyed_by_part(_equality_minimum)


def enumerate_arrangements(
    variables: Iterable[str], cube: Cube | None = None
) -> Iterator[Arrangement]:
    """Every set partition of the variables, in restricted-growth-string order.

    Variables are placed in sorted order; each joins every existing block
    in turn, then opens a new one.  The empty variable set yields the
    single empty arrangement.  Counts follow the Bell numbers (1, 1, 2,
    5, 15, 52, 203, ...).

    With a cube, only the arrangements consistent with its equality part
    are yielded, in the same order.  The cube's positive equalities merge
    variables into classes: a variable whose class is already placed must
    join that block, and a block may not take a class the cube keeps
    apart from one it holds.  An equality-inconsistent cube yields nothing.
    """
    vs = sorted(set(variables))
    find, apart = (lambda v: v), defaultdict(set)  # every variable its own class
    if cube is not None:
        graph = equality_classes(cube.eq_part)
        if graph is None:
            return
        find, apart = graph
    yield from _grow([(v, find(v)) for v in vs], apart, 0, (), ())


def _grow(placing, apart, i: int, blocks: tuple[tuple[str, ...], ...], held: tuple[frozenset[str], ...]):
    """Place the (variable, class) pairs of placing[i:] given `blocks` and
    the classes each block holds."""
    if i == len(placing):
        yield Arrangement(blocks)
        return
    v, c = placing[i]
    placed = any(c in h for h in held)
    for j, h in enumerate(held):
        if (c in h) if placed else apart[c].isdisjoint(h):
            grown = blocks[:j] + (blocks[j] + (v,),) + blocks[j + 1 :]
            yield from _grow(placing, apart, i + 1, grown, held[:j] + (h | {c},) + held[j + 1 :])
    if not placed:
        yield from _grow(placing, apart, i + 1, blocks + ((v,),), held + (frozenset((c,)),))


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

    Returns (side1 cube, side2 cube, shared variables).  Each side is a
    subsequence of the cube's literals, so it is already normalized, and
    it is consistent when the cube is.  Both sides share the cube's
    equality part, and so all of its variables.  Raises SignatureError
    for predicates owned by neither side or overlapping signatures.
    """
    if not sig1.disjoint_from(sig2):
        overlap = sorted(sig1.families & sig2.families)
        raise SignatureError(f"signatures overlap on {overlap}; rename a family")
    lits1: list[Literal] = []
    lits2: list[Literal] = []
    for lit in cube.pred_part:
        if sig1.owns(lit.pred):
            lits1.append(lit)
        elif sig2.owns(lit.pred):
            lits2.append(lit)
        else:
            raise SignatureError(f"predicate {lit.pred} owned by neither signature")
    return _subcube(cube, tuple(lits1)), _subcube(cube, tuple(lits2)), cube.variables()


def _subcube(cube: Cube, pred_part: tuple[PredicateLiteral, ...]) -> Cube:
    """The cube of a subsequence of a cube's predicate literals and all of
    its equality literals, without sorting them again; a consistent cube's
    subsequence is consistent."""
    sub = object.__new__(Cube)
    vars(sub).update(literals=pred_part + cube.eq_part, pred_part=pred_part, eq_part=cube.eq_part)
    if not cube.contradictory:
        vars(sub)["contradictory"] = False
    return sub


# -- canonical cube enumeration --------------------------------------------


def canonical_cubes(literal_pool: Sequence[Literal]) -> Iterator[Cube]:
    """All cubes over the pool in (literal count, lexicographic) order.

    The order is deterministic: pool literals are sorted by their
    canonical keys and subsets are emitted by size then index tuple.
    Formula ids elsewhere in the library are 1-based positions in this
    stream (id 1 is the empty cube).
    """
    pool = sorted(set(literal_pool), key=_sort_key)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            yield Cube(combo)


def equality_literal_pool(variables: Sequence[str]) -> list[Literal]:
    out: list[Literal] = []
    for x, y in itertools.combinations(sorted(variables), 2):
        out.append(EqualityLiteral(x, y, True))
        out.append(EqualityLiteral(x, y, False))
    return out
