import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combinekit import formulas
from combinekit.brute import brute_combined_formula_sat
from combinekit.catalog import MaxSizeTheory, SizePinTheory
from combinekit.cli import main
from combinekit.combine import combine_decide
from combinekit.errors import ParseError, SignatureError
from combinekit.formulas import (
    MAX_NESTING,
    And,
    Arrangement,
    Cube,
    EqualityLiteral,
    Not,
    Or,
    PredicateId,
    PredicateLiteral,
    Signature,
    arrangement_to_cube,
    canonical_cubes,
    enumerate_arrangements,
    eval_formula,
    formula_atoms,
    iter_dnf,
    neq_clique,
    parse_formula,
    split_by_signature,
    to_dnf,
)
from combinekit.theories import minmod_equalities

SIG_P = Signature(frozenset({("P", 1)}))
SIG_Q = Signature(frozenset({("Q", 1)}))


def P(k, positive=True):
    return PredicateLiteral(PredicateId("P", (k,)), positive)


def Q(k, positive=True):
    return PredicateLiteral(PredicateId("Q", (k,)), positive)


def eq(a, b, positive=True):
    return EqualityLiteral(a, b, positive)


# -- independent oracles ------------------------------------------------------


def partitions_recursive(items):
    """Independent set-partition enumerator used to cross-check counts."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in partitions_recursive(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1 :]
        yield [[head]] + smaller


def clique_satisfiable_brute(nvars: int, domain: int) -> bool:
    vs = [f"v{i}" for i in range(1, nvars + 1)]
    cube = neq_clique(vs, nvars)
    for values in itertools.product(range(domain), repeat=nvars):
        asg = dict(zip(vs, values))
        if all(
            (asg[l.left] == asg[l.right]) == l.positive for l in cube.literals
        ):
            return True
    return False


# -- parsing -------------------------------------------------------------------


def test_parse_cube_example():
    f = parse_formula("(and (= x y) (P 3))")
    (cube,) = to_dnf(f)
    assert cube == Cube((eq("x", "y"), P(3)))


def test_parse_distinct_expands_pairwise():
    f = parse_formula("(distinct x y z)")
    (cube,) = to_dnf(f)
    assert cube == Cube((eq("x", "y", False), eq("x", "z", False), eq("y", "z", False)))


def test_parse_or_with_negation():
    f = parse_formula("(or (P 1) (not (= x x)))")
    assert isinstance(f, Or)
    assert to_dnf(f) == [Cube((P(1),))]  # the x!=x branch is contradictory


def test_parse_bare_and_multi_index_predicates():
    f = parse_formula("(and (pred P) (pred R 2 5 9))")
    (cube,) = to_dnf(f)
    preds = {l.pred for l in cube.pred_part}
    assert PredicateId("P", ()) in preds
    assert PredicateId("R", (2, 5, 9)) in preds


def test_parse_resolver_and_inf_index():
    f = parse_formula("(pred P Q 4)", resolver={"Q": 7}.__getitem__)
    assert f.pred == PredicateId("P", (7, 4))
    g = parse_formula("(pred P inf)")
    assert g.pred == PredicateId("P", ("inf",))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        parse_formula("(and (= x y) (P 0))")
    assert e.value.offset == 16
    with pytest.raises(ParseError):
        parse_formula("(pred lowercase 1)")
    with pytest.raises(ParseError):
        parse_formula("(= x y) trailing")
    with pytest.raises(ParseError):
        parse_formula("(and (= x y)")


def test_parse_rejects_non_ascii_digit_index():
    # '²' passes str.isdigit but not int(); it is a bad index, not a crash.
    with pytest.raises(ParseError) as e:
        parse_formula("(P ²)")
    assert str(e.value).startswith("bad index '²'")
    assert e.value.offset == 3


@pytest.mark.parametrize("value", [0, -2, "7", 2.0, True, None])
def test_parse_rejects_resolver_values_that_are_not_positive_ids(value):
    with pytest.raises(ParseError) as e:
        parse_formula("(pred P 1 Q)", resolver={"Q": value}.__getitem__)
    assert "resolved to" in str(e.value)
    assert e.value.offset == 10


def _nested_nots(depth):
    return "(not " * depth + "(= x y)" + ")" * depth


def _nested_and_or(depth):
    f = "(= a b)"
    for _ in range(depth):
        f = f"(and (= a b) (or (P 1) {f}))"
    return f


def test_a_formula_nested_past_the_stack_is_a_parse_error():
    for text in (_nested_nots(2000), _nested_and_or(300)):
        with pytest.raises(ParseError, match="nested too deeply") as e:
            parse_formula(text)
        assert 0 < e.value.offset < len(text)


def test_formulas_nested_below_the_stack_still_parse_lower_and_combine():
    # At the bound every recursive pass answers: the lowering, the shell,
    # evaluation and the joint oracle.
    t1, t2 = MaxSizeTheory(3), SizePinTheory()
    f = parse_formula(_nested_nots(MAX_NESTING))
    assert to_dnf(f) == [Cube((EqualityLiteral("x", "y", True),))]
    assert combine_decide(t1, t2, f).sat and brute_combined_formula_sat(t1, t2, f, 2)
    f = parse_formula(_nested_and_or(MAX_NESTING // 2))  # and/or alternating, MAX_NESTING levels
    assert len(to_dnf(f)) == 2
    assert combine_decide(t1, t2, f).sat and brute_combined_formula_sat(t1, t2, f, 2)
    assert eval_formula(f, formula_atoms(f))


@pytest.mark.parametrize(
    "text, innermost",
    [(_nested_nots(MAX_NESTING + 1), "(not"), ("(not " + _nested_and_or(MAX_NESTING // 2) + ")", "(or")],
    ids=["not", "and-or"],
)
def test_one_level_past_the_bound_is_a_parse_error(capsys, text, innermost):
    # The level past the bound is refused at its head, at the same offset
    # from the library and from the command line.
    offset = text.rindex(innermost) + 1
    with pytest.raises(ParseError, match="formula nested too deeply") as e:
        parse_formula(text)
    assert e.value.offset == offset
    assert main(["combine", "T_leq_3", "T_eq_P", text]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: formula nested too deeply (at byte {offset})\n"


def test_a_formula_at_the_bound_prints_compares_pickles_and_copies():
    # The connectives' dunders walk the tree in a loop; the dataclass ones
    # recursed past the interpreter's limit below the bound.
    deep_nots = _nested_nots(MAX_NESTING)
    for text, other in (
        (deep_nots, deep_nots.replace("(= x y)", "(= x z)")),
        (_nested_and_or(MAX_NESTING // 2), _nested_and_or(MAX_NESTING // 2 - 1)),
    ):
        f, g = parse_formula(text), parse_formula(text)
        assert f is not g and f == g and hash(f) == hash(g) and f != parse_formula(other)
        back = pickle.loads(pickle.dumps(f))
        assert back == f and repr(back) == repr(f) == str(f)
        assert copy.deepcopy(f) is f and copy.copy(f) == f
    eq_xy = repr(EqualityLiteral("x", "y", True))
    assert repr(parse_formula(deep_nots)) == "Not(child=" * MAX_NESTING + eq_xy + ")" * MAX_NESTING


# Frozen dataclasses with the connectives' names and fields, whose generated
# repr and == recurse as the connectives' own once did.
_DATACLASS = {
    kind: dataclasses.make_dataclass(kind.__name__, [f.name for f in dataclasses.fields(kind)], frozen=True)
    for kind in (And, Or, Not)
}


def _as_dataclass(f):
    if isinstance(f, Not):
        return _DATACLASS[Not](_as_dataclass(f.child))
    if isinstance(f, (And, Or)):
        return _DATACLASS[type(f)](tuple(map(_as_dataclass, f.children)))
    return f


def _seeded_formula_text(rng, depth) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["(P 1)", "(P 2)", "(= x y)", "(= y z)", "(distinct x y z)", "(pred Q 1 inf)", "(Q)"])
    head = rng.choice(["and", "or", "not"])
    kids = 1 if head == "not" else rng.randint(1, 3)
    return f"({head} {' '.join(_seeded_formula_text(rng, depth - 1) for _ in range(kids))})"


def test_connectives_print_and_compare_as_the_dataclasses_did():
    rng = random.Random(4101)
    texts = [_seeded_formula_text(rng, rng.randint(1, 7)) for _ in range(400)]
    fs = list(map(parse_formula, texts))
    assert any(isinstance(f, (And, Or)) and len(f.children) == 1 for f in fs)  # printed "(x,)"
    assert len(set(map(_as_dataclass, fs))) < len(fs)  # some pairs are equal
    for text, f, g in zip(texts, fs, fs[1:] + fs[:1]):
        assert repr(f) == repr(_as_dataclass(f)), f
        assert (f == g) == (_as_dataclass(f) == _as_dataclass(g)), (f, g)
        twin = parse_formula(text)
        assert twin == f and hash(twin) == hash(f)
        back = pickle.loads(pickle.dumps(f))
        assert back == f and repr(back) == repr(f)


def test_lowering_thousands_of_disjunctions_reaches_the_first_cube():
    # The odometer in _dnf keeps an explicit stack; a recursive product
    # walk overflows the interpreter stack at 1,500 disjunctions.
    n = 1500
    f = parse_formula("(and (P 2)" + "".join(f" (or (= x{i} y{i}) (distinct x{i} y{i}))" for i in range(n)) + ")")
    first = next(iter_dnf(f))
    assert len(first.literals) == n + 1 and all(lit.positive for lit in first.literals)


# -- literals that carry their hash and sort key, and the atom table ----------------


def _reference_sort_key(lit):
    """A literal's sort key as the literal classes once computed it on every read."""
    if isinstance(lit, EqualityLiteral):
        return (1, lit.left, lit.right, not lit.positive)
    indices = tuple([(1, "") if ix == "inf" else (0, ix) for ix in lit.pred.indices])
    return (0, (lit.pred.family, indices), not lit.positive)


def _seeded_atoms(rng, count):
    """(atom text, its negation built field by field, the atom built field by field)."""
    out = []
    for _ in range(count):
        r = rng.random()
        if r < 0.5:
            a, b = rng.choice("xyzw"), rng.choice(("a", "y1", "z_3", "x2"))  # never x = x
            out.append((f"(= {a} {b})", EqualityLiteral(a, b, False), EqualityLiteral(a, b, True)))
            continue
        if r < 0.8:
            text, pid = "(P {})", PredicateId("P", (rng.choice((1, 2, 7, "inf")),))
        elif r < 0.9:
            text, pid = "(Q)", PredicateId("Q", ())
        else:
            text, pid = "(pred R {} {})", PredicateId("R", (rng.randint(1, 3), rng.choice((4, "inf"))))
        out.append((text.format(*pid.indices), PredicateLiteral(pid, False), PredicateLiteral(pid, True)))
    return out


def test_parsed_and_negated_literals_match_literals_built_field_by_field():
    # Twice over the corpus: the second pass takes every atom from the table.
    for text, neg, pos in _seeded_atoms(random.Random(3501), 300) * 2:
        (neg_cube,) = to_dnf(parse_formula(f"(not {text})"))
        parsed = parse_formula(text)
        for got, want in ((parsed, pos), (parsed.negate(), neg), (neg_cube.literals[0], neg), (neg.negate(), pos)):
            assert got == want and hash(got) == hash(want), text
            assert got.sort_key == want.sort_key == _reference_sort_key(want), text
            assert (repr(got), str(got)) == (repr(want), str(want)), text
        # Pickle rebuilds, not restores: a kept hash is of strings, whose
        # hash differs between processes.  A cube computes its hash anew.
        for got in (parsed, neg_cube):
            back = pickle.loads(pickle.dumps(got))
            assert back == got and hash(back) == hash(got), text
        assert parsed.__reduce__() == (type(parsed), tuple(getattr(parsed, f.name) for f in dataclasses.fields(parsed)))
        assert neg_cube.__reduce__() == (Cube, (neg_cube.literals,))
        assert "_hash" in vars(neg_cube) and "_hash" not in vars(pickle.loads(pickle.dumps(neg_cube)))
    # The hash and the sort key are kept, not dataclass fields.
    lit = EqualityLiteral("y", "x", False)
    assert repr(lit) == "EqualityLiteral(left='x', right='y', positive=False)"
    assert [f.name for f in dataclasses.fields(lit)] == ["left", "right", "positive"]
    assert dataclasses.replace(lit, positive=True).sort_key == (1, "x", "y", False)


def test_more_atoms_than_the_table_keeps_still_parse_and_lower_by_value():
    n = formulas.ATOMS_KEPT + 300
    pairs = [(f"a{i}", f"b{i}") for i in range(1, n + 1)]
    text = "(and" + "".join(f" (= {a} {b})" for a, b in pairs) + ")"
    assert to_dnf(parse_formula(text)) == [Cube(tuple(EqualityLiteral(a, b, True) for a, b in pairs))]
    # The table drops (= a1 b1) before its negation is read, so the two
    # literals are built apart; they are still equal, and the cube clashes.
    f = parse_formula(text[:-1] + " (not (= a1 b1)))")
    first, last = f.children[0], f.children[-1].child
    assert first == last and first is not last
    assert to_dnf(f) == []


def test_a_formula_reference_is_resolved_by_each_parse():
    for _ in range(2):
        for text in ("(pred P Q)", "(P Q)"):
            assert parse_formula(text, {"Q": 3}.__getitem__) == P(3)
            assert parse_formula(text, {"Q": 5}.__getitem__) == P(5)
            with pytest.raises(ParseError, match="no resolver for formula reference 'Q'"):
                parse_formula(text)


def test_the_literal_tables_stay_within_their_bound():
    bound = formulas.ATOMS_KEPT
    text = "(and" + "".join(f" (= c{i} d{i}) (not (P {i}))" for i in range(1, 2 * bound)) + ")"
    assert len(to_dnf(parse_formula(text))) == 1
    info = formulas.shared_literal.cache_info()  # the negations of (P 1) .. (P 2047)
    assert info.maxsize == bound and info.currsize == bound
    assert 0 < len(formulas._ATOMS) <= bound
    assert ("=", f"c{2 * bound - 1}", f"d{2 * bound - 1}", ")") in formulas._ATOMS


# -- cubes ---------------------------------------------------------------------


def test_cube_normalization_sorts_and_dedups():
    c = Cube((eq("y", "x"), P(2), eq("x", "y"), P(2)))
    assert c.literals == (P(2), eq("x", "y"))


def test_cube_contradiction_detection():
    assert Cube((eq("x", "x", False),)).contradictory
    assert Cube((P(1), P(1, False))).contradictory
    assert Cube((eq("x", "y"), eq("x", "y", False))).contradictory
    assert not Cube((eq("x", "x"),)).contradictory  # tautology is retained


def _seeded_literals(rng, count):
    vs = ["a", "b", "c", "d", "e"]
    return [
        P(rng.randint(1, 4), rng.random() < 0.5)
        if rng.random() < 0.3
        else eq(rng.choice(vs), rng.choice(vs), rng.random() < 0.5)
        for _ in range(count)
    ]


def test_cube_normalization_ignores_order_and_repeats():
    rng = random.Random(7)
    for _ in range(300):
        lits = _seeded_literals(rng, rng.randint(0, 10))
        shuffled = lits + rng.sample(lits, rng.randint(0, len(lits)))
        rng.shuffle(shuffled)
        a, b = Cube(tuple(lits)), Cube(tuple(shuffled))
        assert a.literals == b.literals
        clash = any(
            l.negate() in lits
            or (isinstance(l, EqualityLiteral) and not l.positive and l.left == l.right)
            for l in lits
        )
        assert a.contradictory == b.contradictory == clash
        assert list(a.literals) == sorted(set(lits), key=lambda l: l.sort_key)


def test_equal_cubes_built_on_both_sides_of_an_emptying_compare_and_hash_equal():
    rng = random.Random(4117)
    for _ in range(200):
        lits = _seeded_literals(rng, rng.randint(0, 6))
        before = Cube(tuple(lits))
        same = Cube(tuple(reversed(lits)))
        assert same.pred_part is before.pred_part and same.eq_part is before.eq_part
        formulas.empty_parts()
        after = Cube(tuple(reversed(lits)))
        assert after == before and hash(after) == hash(before) and len({before, after}) == 1
        assert after.pred_part == before.pred_part and after.eq_part == tuple(before.eq_part)
        assert after.pred_part is not before.pred_part and after.eq_part is not before.eq_part
        assert after.minmod == before.minmod == minmod_equalities(Cube(tuple(lits)))


def test_the_part_table_never_holds_more_literals_than_its_bound(monkeypatch):
    monkeypatch.setattr(formulas, "PART_LITERALS_KEPT", 5)
    held = lambda: sum(map(len, formulas._PARTS.values()))
    kept = lambda part: any(p is part for p in formulas._PARTS.values())
    rng = random.Random(4127)
    for _ in range(300):
        c = Cube(tuple(_seeded_literals(rng, rng.randint(0, 8))))
        assert held() <= formulas._held and held() <= 5
        assert kept(c.eq_part) == (len(c.eq_part) <= 5)
        assert Cube(c.literals) == c and Cube(c.literals).eq_part == c.eq_part
    # A single part larger than the bound is not kept, and its cube's
    # equal twin gets an equal part of its own.
    lits = tuple(EqualityLiteral(f"v{i}", "w", True) for i in range(6))
    c = Cube(lits)
    assert held() == 0 and not kept(c.eq_part)
    twin = Cube(lits)
    assert twin == c and twin.eq_part == c.eq_part and twin.eq_part is not c.eq_part
    assert held() == 0 and twin.minmod == c.minmod == 1


def test_cube_join_equals_cube_of_both_literal_lists():
    rng = random.Random(8)
    for _ in range(300):
        a = Cube(tuple(_seeded_literals(rng, rng.randint(0, 8))))
        b = Cube(tuple(_seeded_literals(rng, rng.randint(0, 8))))
        assert a.with_literals(b.literals) == Cube(a.literals + b.literals)
        assert a.with_literals(b.literals).literals == Cube(b.literals + a.literals).literals


def test_self_equalities_contribute_variables():
    c = Cube((eq("a", "a"),))
    assert c.variables() == frozenset({"a"})


# -- DNF -----------------------------------------------------------------------


def test_to_dnf_trivial_cases():
    assert to_dnf(And((eq("x", "y"),))) == [Cube((eq("x", "y"),))]
    assert to_dnf(Or((P(1), P(2)))) == [Cube((P(1),)), Cube((P(2),))]


def test_to_dnf_distribution_example():
    f = And((Or((P(1), P(2))), eq("x", "y", False)))
    assert to_dnf(f) == [
        Cube((P(1), eq("x", "y", False))),
        Cube((P(2), eq("x", "y", False))),
    ]


def test_iter_dnf_builds_only_the_cubes_it_reaches():
    # 2**40 cubes in all: an eager lowering could not return the first three.
    f = And((P(1),) + tuple(Or((eq(f"x{i}", f"y{i}"), Q(i))) for i in range(1, 41)))
    first = list(itertools.islice(iter_dnf(f), 3))
    all_eq = tuple(eq(f"x{i}", f"y{i}") for i in range(1, 41))
    assert first == [
        Cube((P(1),) + all_eq),
        Cube((P(1),) + all_eq[:-1] + (Q(40),)),
        Cube((P(1),) + all_eq[:-2] + (Q(39),) + all_eq[-1:]),
    ]


formula_strategy = st.deferred(
    lambda: st.one_of(
        st.sampled_from([P(1), P(2), eq("x", "y"), eq("y", "z"), eq("x", "z", False)]),
        st.builds(Not, formula_strategy),
        st.builds(lambda a, b: And((a, b)), formula_strategy, formula_strategy),
        st.builds(lambda a, b: Or((a, b)), formula_strategy, formula_strategy),
    )
)


@given(formula_strategy)
@settings(max_examples=150)
def test_to_dnf_preserves_truth_tables(f):
    atoms = sorted(formula_atoms(f), key=lambda a: a.sort_key)
    assert len(atoms) <= 10
    cubes = to_dnf(f)
    for bits in itertools.product([False, True], repeat=len(atoms)):
        true_atoms = frozenset(a for a, b in zip(atoms, bits) if b)
        want = eval_formula(f, true_atoms)
        got = any(
            all(
                ((l if l.positive else l.negate()) in true_atoms) == l.positive
                for l in cube.literals
            )
            for cube in cubes
        )
        assert got == want


# -- cliques --------------------------------------------------------------------


def test_neq_clique_counts():
    assert neq_clique(["a"], 1) == Cube(())
    c3 = neq_clique(["x1", "x2", "x3"], 3)
    assert len(c3.literals) == 3
    c4 = neq_clique(["a", "b", "c", "d"], 4)
    assert len(c4.literals) == 6  # C(4,2) by brute pair enumeration
    assert len(list(itertools.combinations(range(4), 2))) == 6
    with pytest.raises(ValueError):
        neq_clique([], 0)


def test_neq_clique_satisfiable_iff_domain_large_enough():
    for n in range(1, 8):
        for k in range(1, 8):
            assert clique_satisfiable_brute(n, k) == (k >= n), (n, k)


# -- arrangements -----------------------------------------------------------------


def test_arrangement_counts_match_bell_numbers():
    expected = [1, 2, 5, 15, 52, 203]
    for size, want in zip(range(1, 7), expected):
        vs = [f"v{i}" for i in range(size)]
        got = sum(1 for _ in enumerate_arrangements(vs))
        independent = sum(1 for _ in partitions_recursive(vs))
        assert got == want == independent


def test_empty_variable_set_has_one_arrangement():
    assert list(enumerate_arrangements([])) == [Arrangement(())]


def test_arrangement_order_is_deterministic():
    first = list(enumerate_arrangements(["b", "a", "c"]))
    second = list(enumerate_arrangements(["c", "b", "a"]))
    assert first == second
    assert first[0].blocks == (("a", "b", "c"),)  # all merged comes first


def _consistent(cube, arr) -> bool:
    return minmod_equalities(cube.with_literals(arrangement_to_cube(arr).literals)) is not None


def test_arrangements_under_a_cube_are_the_consistent_ones_in_order():
    rng = random.Random(11)
    pool = ["a", "b", "c", "d", "e"]
    cubes = [
        Cube(()),
        Cube((eq("a", "a", False),)),  # contradictory
        Cube((eq("a", "b"), eq("a", "b", False))),  # contradictory
        Cube((eq("a", "b"), eq("b", "c"), eq("a", "c", False))),  # equality-inconsistent
        Cube((eq("a", "z"), eq("z", "b"), eq("b", "c", False))),  # z is not enumerated
    ]
    for _ in range(120):
        lits = [
            eq(rng.choice(pool), rng.choice(pool), rng.random() < 0.4)
            for _ in range(rng.randint(0, 7))
        ]
        cubes.append(Cube(tuple(lits) + (P(1),)))
    empty = 0
    for cube in cubes:
        for vs in (pool[:3], pool, sorted(cube.variables())):
            got = list(enumerate_arrangements(vs, cube))
            assert got == [a for a in enumerate_arrangements(vs) if _consistent(cube, a)]
        empty += not got
    for cube in cubes[1:4]:
        assert list(enumerate_arrangements(pool, cube)) == []
    assert 5 <= empty < len(cubes) // 2


def test_arrangement_to_cube_examples():
    assert arrangement_to_cube(Arrangement((("x", "y"),))) == Cube((eq("x", "y"),))
    assert arrangement_to_cube(Arrangement((("x",), ("y",)))) == Cube(
        (eq("x", "y", False),)
    )
    got = arrangement_to_cube(Arrangement((("x", "y"), ("z",))))
    assert got == Cube((eq("x", "y"), eq("x", "z", False), eq("y", "z", False)))


def test_arrangement_cubes_partition_all_assignments():
    vs = ["x", "y", "z"]
    cubes = [arrangement_to_cube(a) for a in enumerate_arrangements(vs)]
    for domain in range(1, 4):
        for values in itertools.product(range(domain), repeat=3):
            asg = dict(zip(vs, values))
            holding = [
                c
                for c in cubes
                if all((asg[l.left] == asg[l.right]) == l.positive for l in c.literals)
            ]
            assert len(holding) == 1


def test_arrangement_validation():
    with pytest.raises(ValueError):
        Arrangement((("x",), ("x",)))
    with pytest.raises(ValueError):
        Arrangement(((),))


# -- signature splitting -----------------------------------------------------------


def test_split_routes_predicates_and_replicates_equalities():
    c = Cube((P(1), Q(2), eq("x", "y")))
    c1, c2, shared = split_by_signature(c, SIG_P, SIG_Q)
    assert c1 == Cube((P(1), eq("x", "y")))
    assert c2 == Cube((Q(2), eq("x", "y")))
    assert shared == frozenset({"x", "y"})


def test_split_equality_only_and_one_sided():
    c1, c2, shared = split_by_signature(Cube((eq("x", "y", False),)), SIG_P, SIG_Q)
    assert c1 == c2 == Cube((eq("x", "y", False),))
    assert shared == frozenset({"x", "y"})
    c1, c2, shared = split_by_signature(Cube((P(3),)), SIG_P, SIG_Q)
    assert c1 == Cube((P(3),))
    assert c2 == Cube(())
    assert shared == frozenset()


def test_split_rejects_foreign_and_overlapping():
    with pytest.raises(SignatureError):
        split_by_signature(Cube((PredicateLiteral(PredicateId("Z", (1,))),)), SIG_P, SIG_Q)
    with pytest.raises(SignatureError):
        split_by_signature(Cube(()), SIG_P, SIG_P)


def test_split_agrees_with_combined_model_check():
    """Splitting loses nothing: a joint model at cardinality k exists iff
    both halves have one over the same equality skeleton (checked by
    exhaustive assignment enumeration for k <= 5)."""
    cube = Cube((P(1), Q(2), eq("x", "y")))
    c1, c2, shared = split_by_signature(cube, SIG_P, SIG_Q)
    vs = sorted(cube.variables())
    for k in range(1, 6):
        def sat_eq(c):
            return any(
                all(
                    (dict(zip(vs, values))[l.left] == dict(zip(vs, values))[l.right])
                    == l.positive
                    for l in c.eq_part
                )
                for values in itertools.product(range(k), repeat=len(vs))
            )

        assert sat_eq(cube) == (sat_eq(c1) and sat_eq(c2))


# -- canonical enumeration -----------------------------------------------------------


def test_canonical_cubes_order():
    pool = [P(1), P(1, False), eq("a", "b"), eq("a", "b", False)]
    cubes = list(itertools.islice(canonical_cubes(pool), 6))
    assert cubes[0] == Cube(())
    assert cubes[1] == Cube((P(1),))
    assert cubes[2] == Cube((P(1, False),))
    assert cubes[3] == Cube((eq("a", "b"),))
    # sizes are non-decreasing across the whole stream
    all_cubes = list(canonical_cubes(pool))
    sizes = [len(c.literals) for c in all_cubes]
    assert sizes == sorted(sizes)
    assert len(all_cubes) == 2 ** len(pool)
