"""The query path leaves no reference cycle behind.

Only the garbage collector frees a cycle, so every cycle a query leaves
puts a collection pause inside some later query.  With the collector off,
a seeded mix of every query kind must leave it nothing to find.
"""

import gc
import random
import weakref

from combinekit import formulas, theories
from combinekit.brute import brute_combined_formula_sat, brute_spectrum, random_cube
from combinekit.catalog import default_catalog
from combinekit.combine import combine_decide, select_method
from combinekit.errors import CombineKitError
from combinekit.formulas import TOP, Cube, PredicateLiteral, parse_formula
from combinekit.spectra import view

MALFORMED = ("(and (= x y)", "(pred P 0)", "(P Q)", "(distinct x)", "(= x y))")


def _pred_text(t, rng) -> str | None:
    pid = t.sample_pred(rng)
    return None if pid is None else f"(pred {pid.family} {' '.join(map(str, pid.indices))})"


def _formula_text(t1, t2, rng) -> str:
    """A formula over both signatures and up to four variables, with
    negations, disjunctions and a disequality clique."""
    vs = ["x", "y", "z", "w"][: rng.randint(2, 4)]
    preds = [p for t in (t1, t2) for p in (_pred_text(t, rng), _pred_text(t, rng)) if p]

    def atom():
        a = rng.choice(preds) if preds and rng.random() < 0.4 else f"(= {rng.choice(vs)} {rng.choice(vs)})"
        return a if rng.random() < 0.6 else f"(not {a})"

    parts = [atom() for _ in range(rng.randint(1, 3))]
    parts += [f"(or {atom()} {atom()})" for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        parts.append(f"(distinct {' '.join(vs)})")
    return f"(and {' '.join(parts)})"


def _attempt(fn, *args):
    try:
        fn(*args)
    except CombineKitError:
        pass


def _mix(theory_list, seed):
    """Each query kind over the catalog, as (name, run) in turn."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in theory_list for b in theory_list if a is not b and select_method(a, b)]
    texts = [_formula_text(a, b, rng) for a, b in pairs]
    formulas = []

    def parse():
        formulas.extend(parse_formula(text) for text in texts)
        for text in MALFORMED:
            _attempt(parse_formula, text)

    def combine():
        for (a, b), f in zip(pairs, formulas):
            _attempt(combine_decide, a, b, f)

    def spectra():
        for t in theory_list:
            for _ in range(4):
                brute_spectrum(t, random_cube(t, rng))

    def joint():
        for (a, b), f in list(zip(pairs, formulas))[::12]:
            _attempt(brute_combined_formula_sat, a, b, f, 3)

    def views():
        for t in theory_list:
            for _ in range(2):
                v = view(t, random_cube(t, rng))
                _attempt(v.max_finite)
                _attempt(v.minmod)

    return [("parse", parse), ("combine", combine), ("brute_spectrum", spectra),
            ("brute_combined_formula_sat", joint), ("views", views)]


def test_queries_leave_no_cyclic_garbage(theory_list):
    for _, run in _mix(theory_list, seed=1):  # warm the memos
        run()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        found = {}
        for name, run in _mix(theory_list, seed=2):
            run()
            found[name] = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert found == dict.fromkeys(found, 0)


def test_a_dropped_theory_leaves_no_cycle():
    # A theory keeps its reading of the last cube it read, and the reading
    # keeps the part's shape, whose cap or gap test must not refer back to
    # the theory: otherwise a theory dropped from the shape memo is a
    # cycle that only the collector frees.  The shape memo and the memos
    # emptied with the part table hold the theory, so they are cleared.
    rng = random.Random(7)
    fresh = default_catalog()
    # Theories that earlier tests left in the memos go first: a test that
    # patches a theory's method may leave it in a cycle of its own.
    theories._part_shape.cache_clear()
    formulas.empty_parts()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        while fresh:
            t = fresh.pop()
            name = t.name
            for _ in range(6):
                pid = t.sample_pred(rng)
                c = TOP if pid is None else Cube((PredicateLiteral(pid, True),))
                _attempt(t.decide_at_least, c, 2)
                _attempt(t.spec_finite, c, 3)
                _attempt(t.spec_inf, c)
            dropped = weakref.ref(t)
            del t
            theories._part_shape.cache_clear()
            formulas.empty_parts()
            assert gc.collect() == 0, name
            assert dropped() is None, name
    finally:
        if was_enabled:
            gc.enable()
