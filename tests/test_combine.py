import itertools
import random
from functools import partial

import pytest

from combinekit.brute import brute_combined_formula_sat, brute_sat_at, random_cube
from combinekit.catalog import (
    EqualityTheory,
    ExactSizeTheory,
    MaxSizeTheory,
    MinSizeTheory,
    SingletonOrInfiniteTheory,
    SizeCapTheory,
    SizePinTheory,
    StepTheory,
    TaggedInfinityTheory,
    InfiniteOnlyTheory,
)
from combinekit.combine import (
    CS,
    GENTLE,
    METHODS,
    NELSON_OPPEN,
    SHINY,
    SMCS,
    Method,
    combine_decide,
    method_applicable,
    n_shiny,
    quasi_gentle,
    select_method,
)
from combinekit.errors import (
    CombineKitError,
    IterationCapExceeded,
    MethodNotApplicable,
    SignatureError,
)
from combinekit.formulas import (
    And,
    Cube,
    EqualityLiteral,
    Or,
    PredicateId,
    PredicateLiteral,
    arrangement_to_cube,
    enumerate_arrangements,
    iter_dnf,
    neq_clique,
    parse_formula,
    split_by_signature,
)
from combinekit.properties import CLASSES, LATTICE_EDGES, PARTNER, certificate, class_ancestors
from combinekit.sets import ALEPH0, ALL, card_to_json, evens, upfrom
from combinekit.spectra import view

TOP = Cube(())
XY = Cube((EqualityLiteral("x", "y", False),))


def f(text):
    return parse_formula(text)


# -- applicability ------------------------------------------------------------


def test_method_applicable_examples():
    assert method_applicable(SHINY, EqualityTheory(), MaxSizeTheory(1))
    assert not method_applicable(NELSON_OPPEN, EqualityTheory(), MaxSizeTheory(3))
    assert method_applicable(CS, MaxSizeTheory(3), MinSizeTheory(2))


def test_cs_applicable_with_bounded_first_side():
    # The size-cap theory cannot answer the infinite question, but the
    # bounded side's constant-false answer makes it unreachable.
    assert method_applicable(CS, MaxSizeTheory(3), SizeCapTheory(evens()))
    assert not method_applicable(CS, SizeCapTheory(evens()), MaxSizeTheory(3))


def test_not_applicable_raises_with_diff():
    with pytest.raises(MethodNotApplicable) as e:
        combine_decide(SizePinTheory(), TaggedInfinityTheory("Q"), f("(= x x)"), SHINY)
    assert "shiny" in str(e.value)


def test_method_table_is_a_galois_connection():
    # PARTNER is an involution on the lattice classes that turns the
    # inclusion order around; the method rows and their partners cover
    # every class.
    assert set(PARTNER) == set(CLASSES)
    assert all(PARTNER[PARTNER[cls]] == cls for cls in CLASSES)
    assert {cls for cls in CLASSES if PARTNER[cls] == cls} == {"CS", "SI"}
    for lo, hi in LATTICE_EDGES:
        assert PARTNER[lo] in class_ancestors(PARTNER[hi]), (lo, hi)
    sides = {cls for side1, _ in METHODS.values() for cls in (side1, PARTNER[side1])}
    assert sides == set(CLASSES)
    # The classes form a lattice (every pair has a meet and a join, with
    # decidable on top and shiny at the bottom), and PARTNER turns meets
    # into joins.
    up = {cls: class_ancestors(cls) for cls in CLASSES}

    def least(bounds):  # the bound below every other one
        (lo,) = [b for b in bounds if up[b] >= bounds]
        return lo

    def greatest(bounds):  # the bound above every other one
        (hi,) = [b for b in bounds if all(b in up[c] for c in bounds)]
        return hi

    def join(a, b):
        return least(up[a] & up[b])

    def meet(a, b):
        return greatest({c for c in CLASSES if {a, b} <= up[c]})

    assert greatest(set(CLASSES)) == "decidable"
    assert least(set(CLASSES)) == "shiny"
    pairs = list(itertools.combinations(CLASSES, 2))
    assert len(pairs) == 66
    for a, b in pairs:
        assert PARTNER[meet(a, b)] == join(PARTNER[a], PARTNER[b]), (a, b)


def test_auto_select_is_deterministic_and_cheapest_first():
    teq, tle1 = EqualityTheory(), MaxSizeTheory(1)
    m, swapped = select_method(teq, tle1)
    assert m.kind == "gentle" and not swapped  # the equality theory is gentle too
    m2, swapped2 = select_method(MinSizeTheory(2), MinSizeTheory(3))
    assert m2.kind == "nelson-oppen"


# -- spec'd combination examples ------------------------------------------------


def test_shiny_combination_examples():
    teq, tle1 = EqualityTheory(), MaxSizeTheory(1)
    assert not combine_decide(teq, tle1, f("(distinct x y)"), SHINY).sat
    assert combine_decide(teq, tle1, f("(= x y)"), SHINY).sat


def test_shiny_asks_side_one_once_per_run():
    teq = EqualityTheory()
    calls = []
    decide = teq.decide_cube
    teq.decide_cube = lambda c: calls.append(c) or decide(c)
    v = combine_decide(teq, MaxSizeTheory(3), f("(distinct x y)"), SHINY)
    assert (v.sat, v.stats) == (True, {"arrangements_tried": 1, "loop_iterations": 1})
    assert len(calls) == 1


def test_n_shiny_needs_a_positive_n():
    assert n_shiny(1).label() == "n-shiny(1)"
    for n in (0, -1, None):
        with pytest.raises(ValueError, match="positive n"):
            Method("n-shiny", n=n)


def test_gentle_combination_examples():
    tle3, tp = MaxSizeTheory(3), SizePinTheory()
    v = combine_decide(tle3, tp, f("(and (P 2) (distinct x y))"), GENTLE)
    assert v.sat and v.witness[1] == 2
    assert not combine_decide(tle3, tp, f("(and (P 4) (distinct x y))"), GENTLE).sat
    two = Cube((PredicateLiteral(PredicateId("P", (2,)), True),))
    assert runner(GENTLE)(view(tle3, TOP), view(tp, two)) == (True, 2, 2)


def test_nelson_oppen_combination_example():
    v = combine_decide(
        TaggedInfinityTheory(), MinSizeTheory(3), f("(and (P 5) (distinct x y))"), NELSON_OPPEN
    )
    assert v.sat and v.witness[1] is ALEPH0
    si, geq3 = view(TaggedInfinityTheory(), TOP), view(MinSizeTheory(3), TOP)
    assert runner(NELSON_OPPEN)(si, geq3) == (True, ALEPH0, 0)


def test_quasi_gentle_combination_example():
    sa = SizeCapTheory(upfrom(1))
    se = SizeCapTheory(evens(), family="Q")
    v = combine_decide(sa, se, f("(distinct x y)"), quasi_gentle())
    assert v.sat and v.witness[1] == 2


def test_cs_scan_ends_at_a_finite_top_far_past_ten_thousand():
    # A correctly certified CS side has its finite top inside a set, so
    # the scan ends there, however far up it lies.
    v = combine_decide(MaxSizeTheory(20_000), SizePinTheory(), f("(P 15000)"), CS)
    assert v.sat and v.witness[1] == 15_000


def test_smcs_combination_examples():
    assert combine_decide(MinSizeTheory(2), ExactSizeTheory(5), f("(= x x)"), SMCS).sat
    assert not combine_decide(MinSizeTheory(4), ExactSizeTheory(3), f("(= x x)"), SMCS).sat


# -- intersect procedures, spec examples -----------------------------------------


def runner(method):
    """The method's runner, with n-shiny's n bound as the shell binds it."""
    run = METHODS[method.kind][1]
    return partial(run, n=method.n) if method.kind == "n-shiny" else run


def intersect(method, v1, v2):
    return runner(method)(v1, v2)[0]


def scanned(method, v1, v2):
    return runner(method)(v1, v2)[2]


def test_intersect_shiny_examples():
    teq, tle3 = EqualityTheory(), MaxSizeTheory(3)
    assert intersect(SHINY, view(teq, TOP), view(tle3, TOP))
    assert scanned(SHINY, view(teq, TOP), view(tle3, TOP)) == 1
    c4 = neq_clique(["a", "b", "c", "d"], 4)
    assert not intersect(SHINY, view(teq, c4), view(tle3, TOP))
    bad = Cube((EqualityLiteral("x", "x", False),))
    assert not intersect(SHINY, view(teq, bad), view(tle3, TOP))


def test_intersect_smcs_examples():
    assert intersect(SMCS, view(MinSizeTheory(2), TOP), view(ExactSizeTheory(3), TOP))
    assert scanned(SMCS, view(MinSizeTheory(2), TOP), view(ExactSizeTheory(3), TOP)) == 3
    assert not intersect(SMCS, view(MinSizeTheory(4), TOP), view(ExactSizeTheory(3), TOP))
    assert intersect(SMCS, view(MinSizeTheory(2), TOP), view(InfiniteOnlyTheory(), TOP))
    # Side 2 has an infinite model, but side 1 has no model at all.
    bad = Cube((EqualityLiteral("x", "x", False),))
    assert not intersect(SMCS, view(MinSizeTheory(2), bad), view(InfiniteOnlyTheory(), TOP))


def test_intersect_cs_examples():
    assert intersect(CS, view(MaxSizeTheory(3), TOP), view(MinSizeTheory(2), TOP))
    # The top k is counted whole, though the scan stops at its first hit.
    assert scanned(CS, view(MaxSizeTheory(3), TOP), view(MinSizeTheory(2), TOP)) == 3
    assert not intersect(CS, view(MaxSizeTheory(2), TOP), view(MinSizeTheory(3), TOP))
    tcs1, tcs2 = SingletonOrInfiniteTheory(), SingletonOrInfiniteTheory("Q")
    p1 = Cube((PredicateLiteral(PredicateId("P", ()), True),))
    p2 = Cube((PredicateLiteral(PredicateId("Q", ()), True),))
    assert intersect(CS, view(tcs1, p1), view(tcs2, p2))


def test_intersect_nshiny_examples():
    tns, tp = StepTheory(4, 4), SizePinTheory()
    P = Cube((PredicateLiteral(PredicateId("P", ()), True),))
    notP = Cube((PredicateLiteral(PredicateId("P", ()), False),))

    def pin(k):
        return Cube((PredicateLiteral(PredicateId("P", (k,)), True),))

    assert intersect(n_shiny(4), view(tns, P), view(tp, pin(4)))
    assert not intersect(n_shiny(4), view(tns, P), view(tp, pin(5)))
    assert intersect(n_shiny(4), view(tns, notP), view(tp, pin(7)))
    assert scanned(n_shiny(4), view(tns, notP), view(tp, pin(7))) == 1


def test_intersect_quasigentle_examples():
    sa = SizeCapTheory(upfrom(1))
    se = SizeCapTheory(evens(), family="Q")
    c3 = neq_clique(["a", "b", "c"], 3)
    assert intersect(quasi_gentle(), view(sa, XY), view(se, c3))
    assert scanned(quasi_gentle(), view(sa, XY), view(se, c3)) == 3  # n - 1 at the hit n = 4
    p3 = Cube((PredicateLiteral(PredicateId("Q", (3,)), True),))
    c5 = neq_clique(["a", "b", "c", "d", "e"], 5)
    assert not intersect(quasi_gentle(), view(se, p3), view(sa.__class__(evens(), family="P"), c5))
    bad = Cube((EqualityLiteral("x", "x", False),))
    assert not intersect(quasi_gentle(), view(sa, bad), view(se, TOP))


def test_intersect_gentle_short_circuits_empty():
    tle3, tp = MaxSizeTheory(3), SizePinTheory()
    bad = Cube((EqualityLiteral("x", "x", False),))
    assert not intersect(GENTLE, view(tle3, bad), view(tp, TOP))

    class Unasked:
        def __getattr__(self, name):
            raise AssertionError(f"side 2 asked for {name}")

    # An empty spectrum gives an empty scan, which asks side 2 nothing.
    assert runner(GENTLE)(view(tle3, bad), Unasked()) == (False, None, 0)


def test_gentle_detects_purely_infinite_intersections():
    # The bounded brute window cannot see this one: the only shared
    # cardinality is the infinite one, reached through the clique branch.
    teq, tcs = EqualityTheory(), SingletonOrInfiniteTheory()
    v = combine_decide(teq, tcs, f("(and (not (pred P)) (distinct x y))"), GENTLE)
    assert v.sat and v.witness is None
    assert not brute_combined_formula_sat(
        teq, tcs, f("(and (not (pred P)) (distinct x y))"), 6
    )


# -- regression: the degenerate single-size shape --------------------------------


def test_nshiny_degenerate_shape_returns_unsat_without_cap():
    tns, tp = StepTheory(4, 4), SizePinTheory()
    v = combine_decide(tns, tp, f("(and (pred P) (P 5))"), n_shiny(4))
    assert not v.sat


def test_quasi_gentle_miscertified_pair_hits_cap():
    from combinekit.sets import odds

    te = SizeCapTheory(evens())
    to = SizeCapTheory(odds(), family="Q")
    with pytest.raises(MethodNotApplicable):
        combine_decide(te, to, f("(= x x)"), quasi_gentle())
    # Certificates that wrongly claim quasi-gentleness for every filter:
    # the scan over the disjoint even and odd sizes never meets, and
    # stops at the set bound.
    te.certificate = certificate(fqg_set=ALL)
    to.certificate = certificate(cofqg_set=ALL)
    with pytest.raises(IterationCapExceeded) as e:
        combine_decide(te, to, f("(= x x)"), quasi_gentle())
    assert (e.value.operation, e.value.cap) == ("quasi-gentle interleaved scan", 2**20)


# -- structural checks -------------------------------------------------------------


def test_signature_collision_is_an_error():
    t1 = SizePinTheory()
    t2 = SizeCapTheory(evens())  # also indexed family P
    with pytest.raises(SignatureError):
        combine_decide(t1, t2, f("(P 1)"), GENTLE)


def test_order_symmetry_of_symmetric_methods(rng):
    pairs = [
        (MinSizeTheory(2), MinSizeTheory(3), NELSON_OPPEN),
        (MaxSizeTheory(3), ExactSizeTheory(2), CS),
        (MaxSizeTheory(3), MaxSizeTheory(2), quasi_gentle()),
    ]
    for t1, t2, method in pairs:
        for _ in range(50):
            formula = _random_formula(t1, t2, rng)
            a = combine_decide(t1, t2, formula, method).sat
            b = combine_decide(t2, t1, formula, method).sat
            assert a == b


def test_witness_validity(rng):
    pairs = [
        (MaxSizeTheory(3), SizePinTheory(), GENTLE),
        (MaxSizeTheory(3), ExactSizeTheory(2), CS),
        (MinSizeTheory(2), ExactSizeTheory(5), SMCS),
        (MaxSizeTheory(3), SizeCapTheory(evens()), quasi_gentle()),
    ]
    for t1, t2, method in pairs:
        for _ in range(50):
            formula = _random_formula(t1, t2, rng)
            v = combine_decide(t1, t2, formula, method)
            if v.witness is None:
                continue
            arr, card = v.witness
            if card is ALEPH0:
                continue
            from combinekit.formulas import arrangement_to_cube, split_by_signature, to_dnf

            confirmed = False
            for cube in to_dnf(formula):
                c1, c2, shared = split_by_signature(cube, t1.signature, t2.signature)
                delta = arrangement_to_cube(arr).literals
                if not arr.variables() <= shared:
                    continue
                if brute_sat_at(t1, c1.with_literals(delta), card) and brute_sat_at(t2, c2.with_literals(delta), card):
                    confirmed = True
                    break
            assert confirmed, (formula, v)


def test_agreement_with_independent_joint_models(rng):
    """The shell (DNF + splitting + arrangements + method) agrees with a
    direct enumeration of joint models that never looks at spectra."""
    pairs = [
        (MaxSizeTheory(3), SizePinTheory(), GENTLE),
        (MaxSizeTheory(3), ExactSizeTheory(2), CS),
        (EqualityTheory(), MaxSizeTheory(2), SHINY),
        (StepTheory(4, 4), SizePinTheory(), n_shiny(4)),
    ]
    for t1, t2, method in pairs:
        for _ in range(60):
            formula = _random_formula(t1, t2, rng)
            got = combine_decide(t1, t2, formula, method).sat
            want = brute_combined_formula_sat(t1, t2, formula, 6)
            assert got == want, (t1.name, t2.name, method.label(), formula)


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _bell_loop_json(t1, t2, cube):
    """Reference: the method run on every set partition of the shared
    variables, the way the shell did before it skipped inconsistent
    arrangements and repeated block counts."""
    method, swapped = select_method(t1, t2)
    if swapped:
        t1, t2 = t2, t1
    run = runner(method)
    label = method.label() + (" [sides swapped]" if swapped else "")
    if not cube.contradictory:
        c1, c2, shared = split_by_signature(cube, t1.signature, t2.signature)
        for arr in enumerate_arrangements(shared):
            delta = arrangement_to_cube(arr).literals
            v1, v2 = view(t1, c1.with_literals(delta)), view(t2, c2.with_literals(delta))
            ok, card, _ = run(v1, v2)
            if ok:
                w = None
                if card is not None:
                    w = {"arrangement": arr.to_json(), "card": card_to_json(card)}
                return {"sat": True, "method": label, "witness": w}
    return {"sat": False, "method": label, "witness": None}


def _outcome(fn):
    try:
        return fn()
    except CombineKitError as e:
        return (type(e).__name__, str(e))


def test_consistent_arrangements_give_the_bell_loop_verdicts(theory_list):
    """Over every covered ordered catalog pair, visiting only cube-consistent
    arrangements and running each block count once changes no verdict,
    method, witness arrangement or card."""
    rng = random.Random(11)
    names = ["x", "y", "z", "w", "u"]
    pairs = 0
    for t1 in theory_list:
        for t2 in theory_list:
            if t1 is t2 or select_method(t1, t2) is None:
                continue
            pairs += 1
            cubes = 0
            while cubes < 4:
                vs = names[: rng.randint(2, 5)]
                extra = tuple(
                    EqualityLiteral(*rng.sample(vs, 2), rng.random() < 0.3)
                    for _ in range(rng.randint(0, 4))
                )
                cube = random_cube(t1, rng).with_literals(random_cube(t2, rng).literals).with_literals(extra)
                if cube.contradictory:
                    continue
                cubes += 1
                want = _outcome(lambda: _bell_loop_json(t1, t2, cube))
                verdict = _outcome(lambda: combine_decide(t1, t2, cube))
                if isinstance(verdict, tuple):
                    assert verdict == want, (t1.name, t2.name, str(cube))
                    continue
                got = verdict.to_json()
                assert got.pop("stats")["arrangements_tried"] <= _bell(len(cube.variables()))
                assert got == want, (t1.name, t2.name, str(cube))
    assert pairs == 292


def test_a_sat_first_cube_stops_the_lowering():
    # 2**22 cubes; the first is sat on its first arrangement, so no other
    # cube is built.
    pairs = " ".join(f"(or (= x{i} y{i}) (distinct x{i} y{i}))" for i in range(1, 23))
    formula = f(f"(and (P 2) {pairs})")
    v = combine_decide(MaxSizeTheory(3), SizePinTheory(), formula)
    assert (v.sat, v.witness[1], v.stats["arrangements_tried"]) == (True, 2, 1)
    assert SizePinTheory().decide_cube(next(iter_dnf(formula)))


def test_a_cube_one_side_refutes_walks_no_arrangement():
    # T_eq_P reads (P 2) with (P 3) as having no model, so none of the
    # Bell(10) = 115,975 arrangements of the ten free variables is visited.
    xs = " ".join(f"(= x{i} x{i})" for i in range(1, 11))
    v = combine_decide(MaxSizeTheory(3), SizePinTheory(), f(f"(and (P 2) (P 3) {xs})"))
    assert (v.sat, v.method_used, v.stats) == (False, "gentle", {"arrangements_tried": 0, "loop_iterations": 0})
    # Both sides are read before the skip: the other side's rejected
    # predicate still raises.
    with pytest.raises(SignatureError, match="Q_inf"):
        combine_decide(SizePinTheory(), SizePinTheory("Q"), f(f"(and (P 2) (P 3) (pred Q inf) {xs})"))


def test_gentle_distinct_cube_tries_one_arrangement():
    # Bell(10) = 115,975 arrangements, of which only the all-apart one is
    # consistent with the cube.
    xs = " ".join(f"x{i}" for i in range(1, 11))
    v = combine_decide(MaxSizeTheory(3), SizePinTheory(), f(f"(and (P 2) (distinct {xs}))"))
    assert (v.sat, v.method_used) == (False, "gentle")
    assert v.stats["arrangements_tried"] == 1


def _random_formula(t1, t2, rng: random.Random):
    """Small random And/Or/Not tree over both signatures plus equalities."""
    pool = []
    vs = ["x", "y", "z"]
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
