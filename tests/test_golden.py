"""Golden digest of the theory-query surface.

Hashes every catalog theory's answers (and the class of every exception
raised) on seeded random cubes, plus the auto-method verdicts over every
disjoint catalog pair.  A change that moves any answer or raise point
changes the digest.  Witnesses and combination stats are left out: they
may change without changing a verdict.  A second digest hashes the
brute oracle's ``model_check`` on every catalog theory's models with at
most two true predicates.
"""

import hashlib
import itertools
import random

from combinekit.brute import _closure_for, random_cube
from combinekit.catalog import default_catalog
from combinekit.combine import combine_decide
from combinekit.formulas import And, EqualityLiteral, Or, PredicateLiteral, clique_extension
from combinekit.spectra import view

GOLDEN = "54d82c75ad2d"


def _answer(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as e:  # the raise point is part of the surface
        return type(e).__name__


def _theory_lines(t, index: int):
    rng = random.Random(1000 + index)
    for i in range(150):
        c = random_cube(t, rng)
        if i % 3 == 2:
            c = clique_extension(c, 1 + i % 5)
        answers = [
            _answer(t.decide_cube, c),
            *(_answer(t.spec_finite, c, k) for k in range(9)),
            _answer(t.spec_inf, c),
            _answer(t.exact_spectrum, c),
            _answer(t.nshiny_classify, c),
            _answer(t.infinite_only, c),
            _answer(view(t, c).minmod),
        ]
        if t.certificate.never_infinite:
            answers.append(_answer(view(t, c).max_finite))
        yield f"{t.name}|{c}|" + "|".join(answers)


def _formula(t1, t2, rng):
    pool = []
    for a, b in (("x", "y"), ("y", "z"), ("x", "z")):
        pool.append(EqualityLiteral(a, b, True))
        pool.append(EqualityLiteral(a, b, False))
    for t in (t1, t2):
        for _ in range(2):
            pid = t.sample_pred(rng)
            if pid is not None:
                pool.append(PredicateLiteral(pid, True))
                pool.append(PredicateLiteral(pid, False))

    def go(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(pool)
        kids = tuple(go(depth - 1) for _ in range(rng.randint(2, 3)))
        return And(kids) if rng.random() < 0.5 else Or(kids)

    return go(2)


def _combine_lines(theories):
    rng = random.Random(7)
    for t1, t2 in itertools.permutations(theories, 2):
        if not t1.signature.disjoint_from(t2.signature):
            continue
        for _ in range(2):
            formula = _formula(t1, t2, rng)
            try:
                v = combine_decide(t1, t2, formula)
                got = f"{v.sat}|{v.method_used}"
            except Exception as e:
                got = type(e).__name__
            yield f"{t1.name}|{t2.name}|{formula}|{got}"


def surface_digest() -> str:
    theories = default_catalog()
    h = hashlib.sha256()
    for index, t in enumerate(theories):
        for line in _theory_lines(t, index):
            h.update(line.encode() + b"\n")
    for line in _combine_lines(theories):
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:12]


def test_theory_query_surface_digest():
    assert surface_digest() == GOLDEN


MODEL_CHECK_GOLDEN = "2f3af54d076e"


def _model_check_lines(t, index: int):
    rng = random.Random(2000 + index)
    preds = {t.sample_pred(rng) for _ in range(8)} - {None}
    preds |= _closure_for(t, ())
    ordered = sorted(preds, key=lambda p: p.sort_key)
    for r in range(3):
        for subset in itertools.combinations(ordered, r):
            answers = (_answer(t.model_check, size, frozenset(subset)) for size in range(1, 9))
            yield f"{t.name}|{';'.join(map(str, subset))}|" + "|".join(answers)


def model_check_digest() -> str:
    h = hashlib.sha256()
    for index, t in enumerate(default_catalog()):
        for line in _model_check_lines(t, index):
            h.update(line.encode() + b"\n")
    return h.hexdigest()[:12]


def test_model_check_digest():
    """The brute oracle's axiom checks on every subset of at most two
    sampled predicates, two-predicate models included."""
    assert model_check_digest() == MODEL_CHECK_GOLDEN
