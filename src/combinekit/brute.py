"""Independent brute-force finite-model oracle.

Enumerates every candidate model of a bounded size outright: predicate
subsets drawn from a finite closure, and variable assignments as
canonical first-occurrence partitions (values introduced in order, which
is exhaustive up to symmetry because literals only compare variables for
equality).  This module deliberately avoids the theories' closed-form
spectrum procedures; it only consumes ``model_check`` and raw literal
evaluation, so it can referee them.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .formulas import Cube, EqualityLiteral, Formula, PredicateId, PredicateLiteral, eval_formula, formula_atoms
from .theories import Theory


@lru_cache(maxsize=256)
def _finite_signature(
    families: frozenset[tuple[str, int]],
) -> tuple[frozenset[PredicateId], tuple[frozenset[PredicateId], ...]] | None:
    """A finite (all nullary) signature's whole closure and every subset
    of it, enumerated once per signature; None for an infinite one."""
    if not all(arity == 0 for _, arity in families):
        return None
    closure = frozenset(PredicateId(fam, ()) for fam, _ in families)
    return closure, tuple(_pred_subsets(closure))


def _closure_for(theory: Theory, cubes: tuple[Cube, ...], explicit) -> frozenset[PredicateId]:
    """Predicates allowed to be true: the whole signature when it is
    finite, else the predicates occurring positively in the cubes.

    Sound because the infinite-signature theories in the catalog only
    constrain models through positively guarded axioms, so turning extra
    predicates off never loses a model."""
    if explicit is not None:
        return frozenset(explicit)
    finite = _finite_signature(theory.signature.families)
    if finite is not None:
        return finite[0]
    out: set[PredicateId] = set()
    for cube in cubes:
        out.update(cube.positive_preds())
    return frozenset(out)


def _assignments(variables: tuple[str, ...], k: int):
    """Canonical assignments of the variables into [1..k]: each fresh
    value is the smallest unused one, covering all equality patterns."""
    n = len(variables)
    if n == 0:
        yield {}
        return
    values = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield {v: values[j] for j, v in enumerate(variables)}
            return
        for val in range(1, min(used + 1, k) + 1):
            values[i] = val
            yield from rec(i + 1, max(used, val))

    yield from rec(0, 0)


@lru_cache(maxsize=100_000)
def _min_satisfying_blocks(eq_lits: tuple[EqualityLiteral, ...]) -> int | None:
    """Smallest number of equality classes over all canonical assignments
    satisfying a cube's equality literals (keyed by them alone, so the
    cache keeps no cube alive); None when none does.  Exhaustive over
    every first-occurrence assignment of their variables."""
    variables = tuple(sorted({v for l in eq_lits for v in l.variables()}))
    best = None
    for assignment in _assignments(variables, len(variables) or 1):
        if all(
            (assignment[l.left] == assignment[l.right]) == l.positive for l in eq_lits
        ):
            used = len(set(assignment.values())) if assignment else 1
            if best is None or used < best:
                best = used
    return best


# The last cube the oracle read: (theory, cube, closure, blocks, fits).
# Compared by identity, so a size scan over one cube enumerates its
# candidate models once, no cube is hashed and at most one is held.
_last_read = (None, None, None, None, ())


def _candidate_models(theory: Theory, cube: Cube, closure) -> tuple[int | None, tuple]:
    """The size-independent half of a cube's candidate models: the fewest
    equality classes its equality literals allow (None when none does),
    and the predicate subsets of the closure that agree with its
    predicate literals.  Kept in ``_last_read``."""
    global _last_read
    blocks = None if cube.contradictory else _min_satisfying_blocks(cube.eq_literals())
    fits = ()
    if blocks is not None:
        finite = _finite_signature(theory.signature.families) if closure is None else None
        subsets = finite[1] if finite else _pred_subsets(_closure_for(theory, (cube,), closure))
        lits = cube.pred_literals()
        fits = tuple(
            subset for subset in subsets if all((lit.pred in subset) == lit.positive for lit in lits)
        )
    _last_read = (theory, cube, closure, blocks, fits)
    return blocks, fits


def brute_sat_at(
    theory: Theory,
    cube: Cube,
    k: int,
    closure: frozenset[PredicateId] | None = None,
) -> bool:
    """Whether some size-k model of the theory satisfies the cube.

    The predicate side (which predicate subsets pass the model checker
    and the cube's predicate literals) and the equality side (which
    variable assignments satisfy the equality literals) are independent,
    so each is enumerated exhaustively on its own.  Only the model
    checker depends on k; the rest is read once per cube (the last cube
    read is kept in ``_last_read``), and a finite signature's closure and
    its subsets once per signature.
    """
    t, c, cl, blocks, fits = _last_read
    if not (t is theory and c is cube and cl is closure):
        blocks, fits = _candidate_models(theory, cube, closure)
    if blocks is None or blocks > k:
        return False
    for s in fits:
        if theory.model_check(k, s):
            return True
    return False


def _pred_subsets(preds: frozenset[PredicateId]):
    ordered = sorted(preds, key=lambda p: p.sort_key)
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            yield frozenset(combo)


def brute_spectrum(theory: Theory, cube: Cube, max_card: int = 6) -> set[int]:
    """All cardinalities up to the bound at which the cube has a model."""
    return {k for k in range(1, max_card + 1) if brute_sat_at(theory, cube, k)}


def brute_combined_formula_sat(
    t1: Theory, t2: Theory, f: Formula, max_card: int = 6
) -> bool:
    """Joint-model satisfiability of a formula over the disjoint union,
    evaluated directly (no DNF, no splitting, no arrangements): some size
    k <= max_card, predicate subsets passing both model checkers, and a
    variable assignment making the formula true.  Each side's closure is
    `_closure_for`'s plus the formula's predicates that side owns."""
    atoms = formula_atoms(f)
    preds1: set[PredicateId] = set()
    preds2: set[PredicateId] = set()
    for atom in atoms:
        if isinstance(atom, PredicateLiteral):
            if t1.signature.owns(atom.pred):
                preds1.add(atom.pred)
            elif t2.signature.owns(atom.pred):
                preds2.add(atom.pred)
            else:
                raise ValueError(f"predicate {atom.pred} owned by neither side")
    closure1 = _closure_for(t1, (), None) | preds1
    closure2 = _closure_for(t2, (), None) | preds2
    variables = tuple(sorted(set().union(*(atom.variables() for atom in atoms))))
    for k in range(1, max_card + 1):
        for sub1 in _pred_subsets(closure1):
            if not t1.model_check(k, sub1):
                continue
            for sub2 in _pred_subsets(closure2):
                if not t2.model_check(k, sub2):
                    continue
                true_preds = sub1 | sub2
                for assignment in _assignments(variables, k):
                    true_atoms = set()
                    for atom in atoms:
                        if isinstance(atom, EqualityLiteral):
                            if assignment[atom.left] == assignment[atom.right]:
                                true_atoms.add(atom)
                        elif atom.pred in true_preds:
                            true_atoms.add(atom)
                    if eval_formula(f, frozenset(true_atoms)):
                        return True
    return False


# -- seeded random sampling for oracle suites --------------------------------


def random_cube(
    theory: Theory,
    rng: random.Random,
    max_vars: int = 4,
    max_literals: int = 5,
) -> Cube:
    """A random cube over the theory's signature plus equalities.

    Index ranges follow the theory's sampling hints so that satisfiable
    cubes keep a witness inside the brute window wherever the theory has
    finite witnesses at all.
    """
    pool_vars = ["x", "y", "z", "w"][:max_vars]
    lits = []
    for _ in range(rng.randint(0, max_literals)):
        if rng.random() < 0.55:
            a, b = rng.sample(pool_vars, 2) if len(pool_vars) >= 2 else (pool_vars[0], pool_vars[0])
            lits.append(EqualityLiteral(a, b, rng.random() < 0.45))
        else:
            pid = theory.sample_pred(rng)
            if pid is None:
                a, b = rng.sample(pool_vars, 2)
                lits.append(EqualityLiteral(a, b, rng.random() < 0.45))
            else:
                lits.append(PredicateLiteral(pid, rng.random() < 0.7))
    return Cube(tuple(lits))
