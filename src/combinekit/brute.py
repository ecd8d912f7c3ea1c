"""Independent brute-force finite-model oracle.

Enumerates every candidate model of a bounded size outright: predicate
subsets drawn from one closure per cube (see `_closure_for`), and
variable assignments as canonical first-occurrence partitions (values
introduced in order, which is exhaustive up to symmetry because literals
only compare variables for equality), memoized by cube part.  It avoids
the theories' closed-form spectrum procedures and consumes only
``model_check`` and raw literal evaluation, so it can referee them.
"""

from __future__ import annotations

import itertools
import random

from .errors import SignatureError
from .formulas import Cube, EqualityLiteral, Formula, PredicateId, PredicateLiteral
from .formulas import eval_formula, formula_atoms, keyed_by_part
from .theories import Theory


def _closure_for(theory: Theory, pred_lits) -> frozenset[PredicateId]:
    """Predicates allowed to be true: the whole signature when it is
    finite (all nullary), else the predicates occurring positively in
    ``pred_lits``.

    Sound because the infinite-signature theories in the catalog only
    constrain models through positively guarded axioms, so turning extra
    predicates off never loses a model (checked on every catalog theory,
    against closures enlarged from its own signature, in the tests)."""
    families = theory.signature.families
    if all(arity == 0 for _, arity in families):
        return frozenset(PredicateId(fam, ()) for fam, _ in families)
    return frozenset(lit.pred for lit in pred_lits if lit.positive)


def _assignments(variables: tuple[str, ...], k: int):
    """Canonical assignments of the variables into [1..k]: each fresh
    value is the smallest unused one, covering all equality patterns."""
    yield from _assign(variables, k, [0] * len(variables), 0, 0)


def _assign(variables: tuple[str, ...], k: int, values: list[int], i: int, used: int):
    """The assignments that extend values[:i], which use values 1..used."""
    if i == len(variables):
        yield dict(zip(variables, values))
        return
    for val in range(1, min(used + 1, k) + 1):
        values[i] = val
        yield from _assign(variables, k, values, i + 1, max(used, val))


@keyed_by_part
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


# (true predicates, model-checker verdicts by size) per (theory, set), shared by the parts fitting it.
_verdicts = keyed_by_part(lambda theory, true_preds: (true_preds, {}))


@keyed_by_part
def _fitting_subsets(theory: Theory, pred_lits: tuple[PredicateLiteral, ...]) -> tuple:
    """The closure's predicate subsets that agree with a cube's predicate
    literals, built from them: the positive predicates plus each subset of
    the closure's unnamed predicates (none if a positive one is outside the
    closure or negated), each as its `_verdicts` pair; and the part's verdicts."""
    closure = _closure_for(theory, pred_lits)
    positive = frozenset(lit.pred for lit in pred_lits if lit.positive)
    negated = {lit.pred for lit in pred_lits if not lit.positive}
    if positive - closure or positive & negated:
        return (), {}
    free = closure - positive - negated
    true_sets = [positive | s for s in _pred_subsets(free)] if free else [positive]
    fits = tuple(_verdicts(theory, s) for s in true_sets)
    return fits, fits[0][1] if len(fits) == 1 else {}  # one subset: its verdicts are the part's


def brute_sat_at(theory: Theory, cube: Cube, k: int) -> bool:
    """Whether some size-k model of the theory satisfies the cube.

    The predicate side (which predicate subsets pass the model checker
    and the cube's predicate literals) and the equality side (which
    variable assignments satisfy the equality literals) are independent,
    so each is enumerated exhaustively on its own.  The equality part
    gives the fewest classes once per part; the fitting subsets are
    built from the predicate literals once per (theory, predicate part);
    and the model checker is asked once per (theory, set of
    true predicates, size) while their memos keep them.
    """
    blocks = None if cube.contradictory else _min_satisfying_blocks(cube.eq_part)
    if blocks is None or blocks > k:
        return False
    fits, sizes = _fitting_subsets(theory, cube.pred_part)
    sat = sizes.get(k)
    if sat is None:
        sat = sizes[k] = any(v[k] if k in v else v.setdefault(k, theory.model_check(k, s)) for s, v in fits)
    return sat


def _pred_subsets(preds: frozenset[PredicateId]):
    ordered = sorted(preds, key=lambda p: p.sort_key)
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            yield frozenset(combo)


def brute_spectrum(theory: Theory, cube: Cube, max_card: int = 6) -> set[int]:
    """All cardinalities up to the bound at which the cube has a model.
    `brute_sat_at` is asked only the sizes from the cube's fewest
    equality classes up whose verdict is not known."""
    blocks = None if cube.contradictory else _min_satisfying_blocks(cube.eq_part)
    sizes = {} if blocks is None else _fitting_subsets(theory, cube.pred_part)[1]
    up = () if blocks is None else range(blocks, max_card + 1)
    return {k for k in up if (sizes[k] if k in sizes else brute_sat_at(theory, cube, k))}


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
                raise SignatureError(f"predicate {atom.pred} owned by neither side")
    closure1 = _closure_for(t1, ()) | preds1
    closure2 = _closure_for(t2, ()) | preds2
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
        if rng.random() < 0.55 or (pid := theory.sample_pred(rng)) is None:
            a, b = rng.sample(pool_vars, 2) if len(pool_vars) >= 2 else (pool_vars[0], pool_vars[0])
            lits.append(EqualityLiteral(a, b, rng.random() < 0.45))
        else:
            lits.append(PredicateLiteral(pid, rng.random() < 0.7))
    return Cube(tuple(lits))
