import ast
import itertools
import random
from pathlib import Path

import pytest

from combinekit import brute, formulas
from combinekit.brute import (
    _closure_for,
    _min_satisfying_blocks,
    brute_combined_formula_sat,
    brute_sat_at,
    brute_spectrum,
    random_cube,
)
from combinekit.catalog import (
    EqualityTheory,
    ExactSizeTheory,
    InfiniteOnlyTheory,
    MaxSizeTheory,
    MinSizeTheory,
    SizePinTheory,
    StepTheory,
)
from combinekit.errors import CapabilityMissing, SignatureError
from combinekit.formulas import (
    And,
    Cube,
    EqualityLiteral,
    PredicateId,
    PredicateLiteral,
    parse_formula,
    to_dnf,
)

TOP = Cube(())


def cube(text):
    (c,) = to_dnf(parse_formula(text))
    return c


def test_pigeonhole_example():
    teq = EqualityTheory()
    c = cube("(distinct x y)")
    assert not brute_sat_at(teq, c, 1)
    assert brute_sat_at(teq, c, 2)


def test_size_pin_window():
    tp = SizePinTheory()
    c = cube("(P 3)")
    assert brute_sat_at(tp, c, 3)
    assert not brute_sat_at(tp, c, 4)


def test_min_size_axiom_fails_small():
    assert not brute_sat_at(MinSizeTheory(2), TOP, 1)
    assert brute_sat_at(MinSizeTheory(2), TOP, 2)


def test_spectrum_examples():
    assert brute_spectrum(MaxSizeTheory(3), TOP) == {1, 2, 3}
    assert brute_spectrum(InfiniteOnlyTheory(), TOP) == set()
    assert brute_spectrum(StepTheory(4, 4), cube("(pred P)")) == {4}


def test_combined_examples():
    top = parse_formula("(= x x)")
    assert brute_combined_formula_sat(MaxSizeTheory(3), MinSizeTheory(2), top)
    assert not brute_combined_formula_sat(MaxSizeTheory(2), MinSizeTheory(3), top)
    assert brute_combined_formula_sat(SizePinTheory(), ExactSizeTheory(5), parse_formula("(P 5)"))


def test_combined_symmetry(rng):
    t1, t2 = MaxSizeTheory(3), SizePinTheory()
    for _ in range(60):
        c1 = random_cube(t1, rng, max_vars=3, max_literals=3)
        c2 = random_cube(t2, rng, max_vars=3, max_literals=3)
        both = And(c1.literals + c2.literals)
        assert brute_combined_formula_sat(t1, t2, both) == brute_combined_formula_sat(t2, t1, both)


def test_monotone_in_max_card(catalog, rng):
    for name in ("T_eq_P", "T_leq_3", "T_mn_2_5", "T_ns_4"):
        t = catalog[name]
        for _ in range(40):
            c = random_cube(t, rng)
            hits = [brute_sat_at(t, c, k) for k in range(1, 7)]
            spectrum = brute_spectrum(t, c, 6)
            assert spectrum == {k for k in range(1, 7) if hits[k - 1]}


def _partitions(n):
    """Every set partition of n variables, as restricted growth strings."""
    out = [()]
    for _ in range(n):
        out = [p + (v,) for p in out for v in range(max(p, default=-1) + 2)]
    return out


def _enlarged_sat_at(theory, cube, k, extra):
    """Whether a size-k model satisfies the cube, by enumeration over the
    cube's closure enlarged by `extra`: every partition of its variables
    into at most k classes and every subset of the enlarged closure, each
    checked against the literals and then by the model checker."""
    variables = sorted(cube.variables())
    for p in _partitions(len(variables)):
        value = dict(zip(variables, p))
        if len(set(p)) <= k and all((value[l.left] == value[l.right]) == l.positive for l in cube.eq_part):
            break
    else:
        return False
    return any(
        all((lit.pred in s) == lit.positive for lit in cube.pred_part) and theory.model_check(k, s)
        for s in _reference_subsets(_reference_closure(theory, cube) | extra)
    )


def test_turning_unnamed_predicates_off_loses_no_model(theory_list):
    # The oracle's premise: the predicates outside its closure can all be
    # false.  A closure enlarged by predicates of the theory's own signature
    # finds a model at exactly the sizes the oracle does, on every theory.
    assert len(theory_list) == 26
    rng = random.Random(4001)
    for t in theory_list:
        for _ in range(200):
            c = random_cube(t, rng)
            extra = frozenset(p for p in (t.sample_pred(rng) for _ in range(rng.randint(1, 3))) if p is not None)
            for k in range(1, 8):
                assert brute_sat_at(t, c, k) == _enlarged_sat_at(t, c, k, extra), (t, c, k, extra)


def _reference_closure(theory, cube):
    """The oracle's closure, rebuilt on every call: the whole signature
    when it is finite, else the cube's positive predicates."""
    fams = theory.signature.families
    if all(arity == 0 for _, arity in fams):
        return frozenset(PredicateId(fam, ()) for fam, _ in fams)
    return frozenset(cube.positive_preds())


def _reference_subsets(preds):
    ordered = sorted(preds, key=lambda p: p.sort_key)
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            yield frozenset(combo)


def _reference_candidates(theory, cube):
    """A cube's fewest equality classes and fitting predicate subsets,
    enumerated afresh on every call."""
    blocks = None if cube.contradictory else _min_satisfying_blocks(cube.eq_part)
    fits = ()
    if blocks is not None:
        lits = cube.pred_part
        fits = tuple(
            subset
            for subset in _reference_subsets(_reference_closure(theory, cube))
            if all((lit.pred in subset) == lit.positive for lit in lits)
        )
    return blocks, fits


def _reference_sat_at(theory, cube, k):
    blocks, fits = _reference_candidates(theory, cube)
    return blocks is not None and blocks <= k and any(theory.model_check(k, s) for s in fits)


def _per_size_loop(theory, cube, k):
    """The oracle as one loop per size: every predicate subset of the
    closure, the model checker, then the cube's predicate literals."""
    if cube.contradictory:
        return False
    blocks = _min_satisfying_blocks(cube.eq_part)
    if blocks is None or blocks > k:
        return False
    for subset in _reference_subsets(_reference_closure(theory, cube)):
        if theory.model_check(k, subset) and all(
            (lit.pred in subset) == lit.positive for lit in cube.pred_part
        ):
            return True
    return False


def _accepts(theory, cube):
    """Whether the theory owns every predicate of the cube, indices included."""
    try:
        for lit in cube.pred_part:
            theory.check_pred(lit.pred)
    except SignatureError:
        return False
    return True


def test_reading_each_cube_once_matches_the_per_size_loop(theory_list):
    # Interleaves another theory and an equal but distinct cube on each
    # cube, so an oracle that kept a reading under the wrong key would
    # answer for the wrong question.
    rng = random.Random(19)
    for t in theory_list:
        for _ in range(200):
            c = random_cube(t, rng)
            owners = [o for o in theory_list if _accepts(o, c)]
            other = rng.choice([o for o in owners if o is not t] or owners)
            twin = Cube(c.literals)
            for k in range(7, 0, -1):
                assert brute_sat_at(t, c, k) == _per_size_loop(t, c, k), (t, c, k)
                assert brute_sat_at(other, c, k) == _per_size_loop(other, c, k), (other, c, k)
                assert brute_sat_at(t, twin, k) == _per_size_loop(t, twin, k), (t, c, k)
            assert brute_spectrum(t, c, 6) == {k for k in range(1, 7) if _per_size_loop(t, c, k)}


def test_oracle_matches_a_fresh_enumeration_per_cube(theory_list):
    # Subsets are enumerated once per predicate part; a fresh enumeration
    # per cube and size is the reference.
    assert "Th_of(toy)" in {t.name for t in theory_list}
    rng = random.Random(2429)
    for t in theory_list:
        for _ in range(40):
            c = random_cube(t, rng)
            for k in range(1, 7):
                assert brute_sat_at(t, c, k) == _reference_sat_at(t, c, k), (t, c, k)
            assert brute_spectrum(t, c, 6) == {k for k in range(1, 7) if _reference_sat_at(t, c, k)}, (t, c)
    for t in theory_list:
        assert _closure_for(t, ()) == _reference_closure(t, TOP)


def test_a_size_scan_enumerates_the_cube_once(catalog):
    brute._fitting_subsets.cache_clear()
    misses = lambda: brute._fitting_subsets.cache_info().misses
    c = cube("(and (P 2) (= x y))")
    assert brute_spectrum(catalog["T_eq_P"], c, 6) == {2}
    assert misses() == 1
    # Cubes with one predicate part build its subsets once.
    assert brute_spectrum(catalog["T_eq_P"], cube("(and (P 2) (distinct x y))"), 6) == {2}
    assert brute_spectrum(catalog["T_eq_P"], cube("(and (P 2) (distinct x y z))"), 6) == set()
    assert misses() == 1
    # A finite signature's closure is the whole signature, whatever the
    # cube: its subsets are built once per predicate part too.
    for text in ("(= x y)", "(distinct x y)", "(and (pred P) (= x x))", "(pred P)"):
        brute_spectrum(catalog["T_ns_4"], cube(text), 6)
    assert misses() == 3
    fits, _ = brute._fitting_subsets(catalog["T_ns_4"], ())
    assert [s for s, _ in fits] == [frozenset(), frozenset({PredicateId("P", ())})]


def test_a_predicate_part_asks_the_model_checker_once_per_size():
    t = SizePinTheory()
    asked = []
    real = t.model_check
    t.model_check = lambda k, s: asked.append(k) or real(k, s)
    for text in ("(and (P 3) (distinct x y))", "(and (P 3) (= x y))", "(and (P 3) (not (P 4)))"):
        assert brute_spectrum(t, cube(text), 6) == {3}
    # The second cube's part has two classes fewer; the third part's one
    # fitting subset is {P_3}, whose verdicts are all known.
    assert asked == [2, 3, 4, 5, 6, 1]


def test_a_spectrum_reads_the_cube_once_and_asks_only_unknown_sizes(monkeypatch):
    t = SizePinTheory()
    sat_at, checked = [], []
    real_sat_at, real_check = brute.brute_sat_at, t.model_check
    monkeypatch.setattr(brute, "brute_sat_at", lambda *a: sat_at.append(a[2]) or real_sat_at(*a))
    monkeypatch.setattr(t, "model_check", lambda k, s: checked.append(k) or real_check(k, s))
    c = cube("(and (P 3) (distinct x y z))")
    # A fresh cube: sizes below its three classes are answered unasked.
    assert brute_spectrum(t, c, 6) == {3}
    assert sat_at == [3, 4, 5, 6] and checked == [3, 4, 5, 6]
    # Every verdict known, for the cube and for a twin read afresh.
    del sat_at[:], checked[:]
    assert brute_spectrum(t, c, 6) == {3}
    assert brute_spectrum(t, Cube(c.literals), 6) == {3}
    assert sat_at == [] and checked == []
    # One predicate part with fewer classes: only the new sizes are asked.
    assert brute_spectrum(t, cube("(and (P 3) (= x y))"), 6) == {3}
    assert sat_at == [1, 2] and checked == [1, 2]


def _enumerated_fits(theory, pred_lits):
    """The fitting subsets by enumeration: every subset of the closure,
    then those that agree with the predicate literals."""
    return tuple(
        s
        for s in _reference_subsets(_reference_closure(theory, Cube(pred_lits)))
        if all((lit.pred in s) == lit.positive for lit in pred_lits)
    )


def test_fitting_subsets_built_from_the_literals_match_the_enumeration(catalog, theory_list):
    def check(t, lits):
        fits, _ = brute._fitting_subsets(t, lits)
        assert tuple(s for s, _ in fits) == _enumerated_fits(t, lits), (t, lits)

    rng = random.Random(3811)
    for t in theory_list:
        for _ in range(40):
            check(t, random_cube(t, rng).pred_part)
    t = catalog["T_eq_P"]
    p3, p4 = PredicateId("P", (3,)), PredicateId("P", (4,))
    pos3, neg3, neg4 = PredicateLiteral(p3, True), PredicateLiteral(p3, False), PredicateLiteral(p4, False)
    check(t, (pos3, neg3))  # a negated positive predicate
    check(t, (pos3,))
    check(t, (pos3, neg4))  # a negated predicate outside the closure
    for name in ("toy", "T_ns_4"):  # finite signatures: the whole signature
        t = catalog[name]
        nullary = [PredicateId(fam, ()) for fam, arity in t.signature.families if arity == 0]
        assert len(nullary) == len(t.signature.families) == 1
        (pid,) = nullary
        for lits in ((), (PredicateLiteral(pid, True),), (PredicateLiteral(pid, False),)):
            check(t, lits)
        # A positive predicate outside a finite closure: no subset fits.
        check(t, (PredicateLiteral(p3, True),))
        assert brute._fitting_subsets(t, (PredicateLiteral(p3, True),))[0] == ()
    # The oracle built on them, past the benchmark's K = 6, with theories interleaved.
    for _ in range(12):
        for t in theory_list:
            c = random_cube(t, rng)
            reference = {k for k in range(1, 9) if _reference_sat_at(t, c, k)}
            assert brute_spectrum(t, c, 8) == reference, (t, c)
            for k in range(8, 0, -1):
                assert brute_sat_at(t, c, k) == (k in reference), (t, c, k)
            twin = Cube(c.literals)
            assert brute_spectrum(t, twin, 6) == {k for k in reference if k <= 6}, (t, c)


def test_oracle_memos_by_part_match_an_uncached_enumeration(theory_list):
    # Twins share a predicate part or an equality part with the cube just
    # read, and theories interleave, so a memo kept under the wrong key
    # would answer for the wrong question.
    assert len(theory_list) == 26
    rng = random.Random(2929)
    for t in theory_list:
        cubes = [random_cube(t, rng) for _ in range(30)]
        for c in cubes:
            o = rng.choice(cubes)
            owners = [x for x in theory_list if _accepts(x, c)]
            other = rng.choice([x for x in owners if x is not t] or owners)
            for d in (c, Cube(c.pred_part + o.eq_part), Cube(o.pred_part + c.eq_part), c):
                for k in range(1, 7):
                    assert brute_sat_at(t, d, k) == _reference_sat_at(t, d, k), (t, d, k)
                    assert brute_sat_at(other, c, k) == _reference_sat_at(other, c, k), (other, c, k)


def _referee_answers(t, c):
    """What the referee asks of a cube: every theory query (None where
    withheld) and the brute window, size by size and as a spectrum."""

    def ask(query, *args):
        try:
            return query(c, *args)
        except CapabilityMissing:
            return None

    finite = [ask(t.spec_finite, k) for k in range(1, 7)]
    brute = [brute_sat_at(t, c, k) for k in range(8, 0, -1)]
    return t.decide_cube(c), finite, ask(t.spec_inf), t.infinite_only(c), brute_spectrum(t, c, 6), brute


def test_answers_do_not_depend_on_the_part_table_bound(theory_list, monkeypatch):
    # With room for three literals the table empties every few cubes, and
    # longer parts are never kept, so memos see parts of every age.
    def answers():
        rng = random.Random(4111)
        return [_referee_answers(t, random_cube(t, rng)) for _ in range(40) for t in theory_list]

    assert len(theory_list) == 26
    want = answers()
    emptied = []
    real = formulas.empty_parts
    monkeypatch.setattr(formulas, "PART_LITERALS_KEPT", 3)
    monkeypatch.setattr(formulas, "empty_parts", lambda: emptied.append(1) or real())
    real()
    assert answers() == want
    assert len(emptied) > 500  # of 1,040 cubes


def test_the_oracle_memos_stay_within_their_bounds():
    # A seed-1 referee run peaked at 32.5 MiB under the old per-memo bounds,
    # 33.8 MiB at 12,288 literals and 34.5 MiB at 16,384.
    bound = formulas.PART_LITERALS_KEPT
    assert bound <= 16_384
    t = SizePinTheory()
    for memo, part in (
        (brute._fitting_subsets, lambda i: cube(f"(P {i})")),
        (brute._verdicts, lambda i: cube(f"(P {i})")),
        (brute._min_satisfying_blocks, lambda i: Cube((EqualityLiteral(f"x{i}", "y"),))),
    ):
        assert memo.cache_clear in formulas._EMPTIED_WITH_PARTS
        for i in range(1, bound + 51):
            brute_sat_at(t, part(i), 1)
            assert formulas._held <= bound
        info = memo.cache_info()
        # One-literal parts: at most one entry per literal held, and the
        # table emptied the memo once it was full.
        assert info.maxsize is None and 0 < info.currsize <= formulas._held < bound
        formulas.empty_parts()


def test_formula_level_joint_models():
    t1, t2 = MaxSizeTheory(3), SizePinTheory()
    f = parse_formula("(and (or (P 2) (P 4)) (distinct x y))")
    assert brute_combined_formula_sat(t1, t2, f)
    g = parse_formula("(and (P 4) (distinct x y))")
    assert not brute_combined_formula_sat(t1, t2, g)


def test_the_joint_oracle_types_an_unowned_predicate_as_the_split_does():
    with pytest.raises(SignatureError, match="Q owned by neither side"):
        brute_combined_formula_sat(MaxSizeTheory(3), SizePinTheory(), parse_formula("(and (P 2) (pred Q))"))


# The oracle referees the theories' closed forms, so it must not use them.
CLOSED_FORM_NAMES = {
    "minmod_equalities",
    "_equality_minimum",
    "_kept_equality_minimum",
    "equality_classes",
    "decide_at_least",
    "decide_cube",
    "spec_finite",
    "spec_inf",
    "minmod_cube",
    "exact_spectrum",
    "_reading",
    "read",
    "Reading",
    "read_part",
    "shape",
    "nshiny_classify",
    "infinite_only",
}


def test_brute_oracle_never_reads_the_closed_forms():
    import combinekit.brute

    tree = ast.parse(Path(combinekit.brute.__file__).read_text())
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.append(node.attr)
        elif isinstance(node, ast.Name):
            used.append(node.id)
        elif isinstance(node, ast.alias):
            used += [node.name, node.asname]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.append(node.value)  # getattr(cube, "minmod") and the like
    assert "minmod" not in used
    assert not CLOSED_FORM_NAMES & set(used)
    # Of a theory, the oracle reads its signature and sampling hints and
    # asks only the model checker.
    asked = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in {"theory", "t1", "t2"}:
                asked.add(node.attr)
    assert asked == {"signature", "sample_pred", "model_check"}
    # The walk reaches every helper the oracle defines.
    assert {
        "_closure_for",
        "_assignments",
        "_min_satisfying_blocks",
        "_fitting_subsets",
        "_pred_subsets",
        "brute_sat_at",
    } <= set(used)


def test_random_cube_over_one_variable_needs_no_predicate():
    # With no predicate to sample (T_inf, T_eq), the draw falls back to an
    # equality over the one variable, as T_eq_P's equality draws do.
    for theory in (InfiniteOnlyTheory(), EqualityTheory(), SizePinTheory()):
        rng = random.Random(5)
        for _ in range(50):
            cube = random_cube(theory, rng, max_vars=1)
            assert cube.variables() <= {"x"}
            assert all(isinstance(lit, EqualityLiteral) for lit in cube.eq_part)
