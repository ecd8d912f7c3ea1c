import collections
import itertools
import random

import pytest

from combinekit import formulas, theories
from combinekit.brute import _min_satisfying_blocks, brute_sat_at, brute_spectrum, random_cube
from combinekit.catalog import (
    BigModelTagTheory,
    CompositeTestTheory,
    EqualityTheory,
    ExactSizeTheory,
    GapIndexTheory,
    MaxSizeTheory,
    MinSizeTheory,
    MixedTagTheory,
    SingletonOrInfiniteTheory,
    SizeCapTheory,
    SizePinTheory,
    StepTheory,
    TaggedInfinityTheory,
    TwoSizeTheory,
    default_catalog,
    toy_inner_theory,
    witness_tgtnp,
)
from combinekit.combine import combine_decide, quasi_gentle
from combinekit.errors import CapabilityMissing, CombineKitError, SetBoundExceeded, SignatureError
from combinekit.formulas import (
    Cube,
    EqualityLiteral,
    PredicateId,
    PredicateLiteral,
    clique_extension,
    neq_clique,
    parse_formula,
    to_dnf,
)
from combinekit.registry import Registry
from combinekit.sets import evens, interval, odds, upfrom
from combinekit.spectra import view
from combinekit.theories import (
    UNSAT,
    FormulaEnumeration,
    Reading,
    Shape,
    Theory,
    doubling_oracle,
    minmod_equalities,
)

TOP = Cube(())


def cube(text, resolver=None):
    (c,) = to_dnf(parse_formula(text, resolver))
    return c


def pid(family, *indices):
    return PredicateId(family, tuple(indices))


def plit(family, *indices, positive=True):
    return PredicateLiteral(pid(family, *indices), positive)


# -- equality minimum ---------------------------------------------------------


def test_minmod_equalities_matches_brute_assignments(rng):
    vs = ["a", "b", "c", "d"]
    for _ in range(200):
        lits = tuple(
            EqualityLiteral(*rng.sample(vs, 2), rng.random() < 0.5)
            for _ in range(rng.randint(0, 5))
        )
        c = Cube(lits)
        got = minmod_equalities(c)
        smallest = None
        for k in range(1, 5):
            ok = any(
                all(
                    (asg[l.left] == asg[l.right]) == l.positive
                    for l in c.eq_part
                )
                for asg in (
                    dict(zip(vs, values))
                    for values in itertools.product(range(k), repeat=4)
                )
            )
            if ok:
                smallest = k
                break
        assert got == smallest, c


def colourings(n):
    """Every colouring of n vertices, up to renaming colours (restricted growth)."""
    if n == 0:
        yield ()
        return
    for head in colourings(n - 1):
        for c in range(max(head, default=-1) + 2):
            yield head + (c,)


def brute_minmod(c):
    at = {v: i for i, v in enumerate(sorted(c.variables()))}
    sizes = [
        max(col, default=0) + 1
        for col in colourings(len(at))
        if all((col[at[l.left]] == col[at[l.right]]) == l.positive for l in c.literals)
    ]
    return min(sizes, default=None)


def component_cube(rng, vs="abcdefg"):
    """Disjoint cliques and cycles over up to 7 variables, then positive
    equalities that may merge vertices of the same or different parts."""
    vs = rng.sample(vs, rng.randint(0, len(vs)))
    lits, i = [], 0
    while i < len(vs):
        part = vs[i : i + rng.randint(1, 5)]
        i += len(part)
        if rng.random() < 0.5:
            pairs = itertools.combinations(part, 2)
        else:
            pairs = zip(part, part[1:] + part[:1]) if len(part) > 2 else []
        lits += [EqualityLiteral(a, b, False) for a, b in pairs]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if vs:
            lits.append(EqualityLiteral(rng.choice(vs), rng.choice(vs), True))
    return Cube(tuple(lits))


def test_minmod_equalities_matches_brute_colouring(rng):
    cycle = [EqualityLiteral(a, b, False) for a, b in zip("abcde", "bcdea")]
    triangle = list(neq_clique(["f", "g", "h"], 3).literals)
    for lits, want in [
        (cycle + triangle, 3),  # two components, neither bipartite
        (cycle + triangle + [EqualityLiteral("a", "f", True)], 3),  # merged into one
        (cycle + list(neq_clique(["a", "b", "f", "g"], 4).literals), 4),
        (triangle + list(neq_clique(["x", "y"], 2).literals), 3),
        # a later, larger component after one no larger than the best so far
        ([EqualityLiteral("a", "b", False), EqualityLiteral("c", "d", False)] + triangle, 3),
    ]:
        c = Cube(tuple(lits))
        assert minmod_equalities(c) == brute_minmod(c) == want, c
    for _ in range(300):
        c = component_cube(rng)
        assert minmod_equalities(c) == brute_minmod(c), c


def test_minmod_of_clique_extension_is_max_with_clique_size(rng):
    for k in (1, 2, 3, 150):
        assert minmod_equalities(clique_extension(TOP, k)) == k
    for _ in range(40):
        c = component_cube(rng)
        k = rng.choice((1, 2, 3, rng.randint(1, 150)))
        m = minmod_equalities(c)
        want = None if m is None else max(m, k)
        assert minmod_equalities(clique_extension(c, k)) == want, (c, k)


def _answer_or_error(query, *args):
    try:
        return query(*args)
    except Exception as e:  # compared by type only
        return type(e)


def test_decide_at_least_matches_deciding_the_literal_clique(theory_list):
    # decide_at_least answers symbolically; deciding the cube conjoined
    # with a literal clique over k fresh variables is the reference.
    theories = list(theory_list)
    theories += [MaxSizeTheory(n) for n in (1, 2, 5)]
    theories += [ExactSizeTheory(n) for n in (1, 3, 6)]
    theories += [MinSizeTheory(m) for m in (2, 4, 7)]
    rng = random.Random(1414)
    for t in theories:
        for _ in range(12):
            c = random_cube(t, rng)
            for k in (1, 2, 3, 4, 5, 6, 40):
                got = _answer_or_error(t.decide_at_least, c, k)
                want = _answer_or_error(t.decide_cube, clique_extension(c, k))
                assert got == want, (t.name, c, k)
            with pytest.raises(ValueError):
                t.decide_at_least(c, 0)


def test_minmod_non_transitive_disequality_chain():
    # a!=b, b!=c admits a 2-element model (a=c); class counting would say 3
    c = Cube((EqualityLiteral("a", "b", False), EqualityLiteral("b", "c", False)))
    assert minmod_equalities(c) == 2


def test_minmod_odd_cycle_needs_three():
    vs = ["a", "b", "c", "d", "e"]
    lits = [EqualityLiteral(vs[i], vs[(i + 1) % 5], False) for i in range(5)]
    assert minmod_equalities(Cube(tuple(lits))) == 3



def _uncached_minmod(cube):
    """The equality minimum as computed before it was memoized: one union
    find and colouring per call, reading the cube's equality literals."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    neqs = []
    for lit in cube.eq_part:
        if lit.positive:
            parent[find(lit.left)] = find(lit.right)
        else:
            neqs.append(lit)
    adj = collections.defaultdict(set)
    for lit in neqs:
        ra, rb = find(lit.left), find(lit.right)
        if ra == rb:
            return None
        adj[ra].add(rb)
        adj[rb].add(ra)

    def colorable(order, k, colors):
        if len(colors) == len(order):
            return True
        v = order[len(colors)]
        used = {colors[u] for u in adj[v] if u in colors}
        for c in range(k):
            if c in used:
                continue
            colors[v] = c
            if colorable(order, k, colors):
                return True
            del colors[v]
            if c not in colors.values():
                break
        return False

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
        while not colorable(order, best, {}):
            best += 1
    return best


def _scan_cube(rng, c):
    """As the scan workload builds them: a disequality clique over c class
    representatives plus extra variables placed in those classes."""
    reps = [f"a{i}" for i in range(1, c + 1)]
    lits = [EqualityLiteral(a, b, False) for a, b in itertools.combinations(reps, 2)]
    for j in range(rng.randint(0, 3)):
        home = rng.choice(reps)
        lits.append(EqualityLiteral(f"b{j}", home, True))
        other = [r for r in reps if r != home]
        if other:
            lits.append(EqualityLiteral(f"b{j}", rng.choice(other), False))
    return Cube(tuple(lits) or (EqualityLiteral("a1", "a1", True),))


def test_memoized_minimum_matches_the_uncached_computation(theory_list, monkeypatch):
    rng = random.Random(2424)
    assert "Th_of(toy)" in {t.name for t in theory_list}
    cubes = [random_cube(t, rng) for t in theory_list for _ in range(60)]
    for t in theory_list:
        enum = FormulaEnumeration(t)
        cubes += [enum.cube(fid) for fid in range(1, min(enum.size, 300) + 1)]
    for _ in range(150):
        base = _scan_cube(rng, rng.randint(1, 6))
        cubes += [base] + [clique_extension(base, k) for k in range(1, rng.randint(2, 12))]
    cubes += [component_cube(rng) for _ in range(200)]
    # At the part table's bound, and at one that the longest parts pass, so
    # that those are counted but not kept and the table empties on the way.
    assert any(len(c.eq_part) > 8 for c in cubes)
    for bound in (formulas.PART_LITERALS_KEPT, 8):
        monkeypatch.setattr(formulas, "PART_LITERALS_KEPT", bound)
        for _ in range(2):  # the second pass answers from the memo
            for c in cubes:
                assert minmod_equalities(c) == _uncached_minmod(c), c
                twin = Cube(c.pred_part[:1] + c.eq_part)
                assert minmod_equalities(twin) == _uncached_minmod(c), c


def test_equality_minimum_is_computed_once_per_equality_part(monkeypatch):
    computed = []
    real = formulas.equality_classes
    monkeypatch.setattr(formulas, "equality_classes", lambda lits: computed.append(lits) or real(lits))
    part = (EqualityLiteral("memo_a", "memo_b", False), EqualityLiteral("memo_b", "memo_c", False))
    one = Cube(part + (plit("P", 2),))
    other = Cube(part + (plit("P", 3, positive=False), plit("Q")))
    assert one is not other and one.eq_part == other.eq_part
    assert one.minmod == other.minmod == 2
    assert len(computed) == 1
    # A clique part is kept like any other: its twin reads it from the memo.
    clique = neq_clique([f"memo_{i}" for i in range(6)], 6)
    assert Cube(clique.literals).minmod == Cube(clique.literals).minmod == 6
    assert len(computed) == 2
    # A part past the table's bound is not kept: each cube computes it.
    bound = formulas.PART_LITERALS_KEPT
    monkeypatch.setattr(formulas, "PART_LITERALS_KEPT", len(clique.eq_part) - 1)
    formulas.empty_parts()
    assert Cube(clique.literals).minmod == Cube(clique.literals).minmod == 6
    assert len(computed) == 4
    # More distinct parts than the bound: the memo holds at most the parts
    # the table holds, and the table at most the bound.
    monkeypatch.setattr(formulas, "PART_LITERALS_KEPT", bound)
    for i in range(bound + 50):
        assert Cube((EqualityLiteral(f"memo_x{i}", f"memo_y{i}", False),)).minmod == 2
        assert formulas._held <= bound
    info = formulas._kept_equality_minimum.cache_info()
    assert info.maxsize is None and info.currsize <= len(formulas._PARTS)
    assert sum(map(len, formulas._PARTS.values())) <= formulas._held < bound


def test_cached_minmod_matches_a_fresh_computation_and_brute(theory_list, rng):
    cubes = [random_cube(t, rng) for t in theory_list for _ in range(8)]
    cubes += [component_cube(rng) for _ in range(60)]
    cubes += [neq_clique(list("abcdefg"[:n]), n) for n in range(1, 8)]
    for c in cubes:
        first = c.minmod
        assert c.minmod == first
        assert first == minmod_equalities(Cube(c.literals)) == _min_satisfying_blocks(c.eq_part), c
        twin = Cube(tuple(reversed(c.literals)))  # built separately, equal
        assert twin == c and hash(twin) == hash(c)
        assert twin.minmod == first


def _count_minmod_computations(monkeypatch) -> list:
    """Count (and keep) the cubes whose equality minimum is computed."""
    seen = []
    real = formulas.minmod_equalities

    def counting(cube):
        seen.append(cube)
        return real(cube)

    monkeypatch.setattr(formulas, "minmod_equalities", counting)
    return seen


def test_max_finite_computes_the_equality_minimum_once(monkeypatch):
    seen = _count_minmod_computations(monkeypatch)
    c = Cube((EqualityLiteral("x", "y", False), EqualityLiteral("y", "z", False)))
    assert view(MaxSizeTheory(20), c).max_finite() == 20
    assert seen == [c]


def test_quasi_gentle_scan_computes_no_side_minimum(monkeypatch):
    # The block count of an arrangement is both sides' equality minimum,
    # so the shell's views are readings at that floor and no side cube's
    # minimum is ever computed.
    sides = []

    def recording_view(theory, subject):
        sides.append(subject)
        return view(theory, subject)

    monkeypatch.setattr("combinekit.combine.view", recording_view)
    seen = _count_minmod_computations(monkeypatch)
    # T_geq_9 against T_eq_8 scans n = 1..9 before failing; T_geq_3 meets at 8.
    for m, sat in ((9, False), (3, True)):
        sides.clear()
        seen.clear()
        f = parse_formula("(= x x)")
        v = combine_decide(MinSizeTheory(m), ExactSizeTheory(8), f, quasi_gentle())
        assert v.sat is sat and v.stats["loop_iterations"] >= 7
        assert v.stats["arrangements_tried"] == 1  # one method run
        assert len(sides) == 2
        assert [(type(r), r.part, r.floor) for r in sides] == [(Reading, None, 1)] * 2
        assert seen == []


# -- decision procedure examples -----------------------------------------------


def test_size_pin_examples():
    t = SizePinTheory()
    assert t.decide_cube(cube("(and (P 3) (distinct x y))"))
    assert not t.decide_cube(cube("(and (P 2) (P 3))"))
    assert brute_sat_at(t, cube("(and (P 3) (distinct x y))"), 3)


def test_two_size_examples():
    t = TwoSizeTheory(2, 5)
    assert not t.decide_cube(neq_clique([f"v{i}" for i in range(6)], 6))
    assert not brute_spectrum(t, neq_clique([f"v{i}" for i in range(6)], 6), 6)
    assert t.spec_finite(cube("(P 9)"), 5)
    with pytest.raises(CapabilityMissing):
        t.spec_finite(cube("(P 9)"), 2)
    assert not t.spec_finite(cube("(P 9)"), 3)
    assert t.spec_finite(cube("(distinct x y)"), 2)  # no positive literal: answerable
    assert not t.spec_inf(cube("(P 9)"))


def test_size_cap_examples():
    t = SizeCapTheory(evens())
    c = cube("(and (P 5) (distinct x y))")
    assert t.decide_cube(c)
    assert brute_sat_at(t, c, 2) or brute_sat_at(t, c, 4)
    assert t.spec_finite(c, 4)
    assert not t.spec_finite(c, 5)
    with pytest.raises(CapabilityMissing):
        t.spec_inf(c)
    assert t.spec_inf(cube("(distinct x y)"))


def test_a_far_cap_is_decided_at_its_least_member():
    # Sizes start at 20,000: far past any size-by-size scan's reach.
    t = SizeCapTheory(upfrom(20000))
    sat, unsat = cube("(P 50000)"), cube("(P 15000)")
    assert t.decide_cube(sat)
    assert not t.decide_cube(unsat)
    for c in (sat, unsat):
        assert t.decide_at_least(c, 20000) == t.spec_finite(c, 20000) == (c == sat)
    assert t.decide_at_least(sat, 50000)
    assert not t.decide_at_least(sat, 50001)


def test_a_shape_cannot_both_allow_and_withhold_a_size():
    assert Shape(upfrom(4), True, withheld=interval(1, 3)).withheld == interval(1, 3)
    for finite in (upfrom(3), interval(3, 3), upfrom(1)):
        with pytest.raises(ValueError, match="both allow and withhold"):
            Shape(finite, True, withheld=interval(1, 3))


def test_every_cap_is_downward_closed(theory_list, rng):
    # Where a shape may miss the infinite size, the base decide_at_least
    # asks its allow test only about the least allowed size, which is sound
    # only if the test is a cap: one that rejects a size rejects every larger
    # one.  A theory whose test is not a cap overrides decide_at_least, as
    # Th_of does for its point test (the n-th gap).
    theories = list(theory_list) + [
        MixedTagTheory(3, doubling_oracle()),
        SizeCapTheory(evens(), doubling_oracle()),
    ]
    capped, points = set(), set()
    for t in theories:
        base = type(t).decide_at_least is Theory.decide_at_least
        parts = [None] + [t.sample_pred(rng) for _ in range(40)]
        for p in parts:
            c = TOP if p is None else Cube((PredicateLiteral(p, True),))
            part = t.read_part(c.pred_part)
            shape = t.predicate_free if part is None else t.shape(part)
            if shape.allow is None or shape.inf is True:
                continue
            closed = all(shape.allow(k) or not shape.allow(k + 1) for k in range(1, 65))
            assert closed or not base, (t, p)
            if not closed:
                points.add(type(t).__name__)
            elif base:
                capped.add(type(t).__name__)
    assert capped == {"SizeCapTheory", "MixedTagTheory", "CapOrUnboundedTheory", "CompositeTestTheory"}
    assert points == {"GapIndexTheory"}


def test_singleton_or_infinite_examples():
    t = SingletonOrInfiniteTheory()
    assert t.spec_inf(cube("(not (pred P))"))
    assert not t.spec_inf(cube("(pred P)"))
    assert t.decide_cube(cube("(pred P)"))
    assert not t.decide_cube(cube("(and (pred P) (distinct x y))"))


def test_mixed_tag_examples():
    t = MixedTagTheory(4)
    # even index 2k caps at F(k)=k
    assert t.decide_cube(cube("(P 6)"))  # cap 3 >= minmod 1
    assert not t.decide_cube(cube("(and (P 2) (distinct x y))"))  # cap 1 < 2
    assert t.spec_finite(cube("(P 7)"), 5)  # above the threshold: answerable
    with pytest.raises(CapabilityMissing):
        t.spec_finite(cube("(P 7)"), 4)
    assert t.spec_finite(cube("(P 1)"), 1)  # index 1 is unconstrained


def test_tagged_infinity_examples():
    t = TaggedInfinityTheory()
    assert t.decide_cube(cube("(P 5)"))
    assert t.spec_inf(cube("(P 5)"))
    with pytest.raises(CapabilityMissing):
        t.spec_finite(cube("(P 5)"), 3)


def test_foreign_predicate_rejected(catalog):
    with pytest.raises(SignatureError):
        catalog["T_eq"].decide_cube(cube("(P 1)"))
    with pytest.raises(SignatureError):
        catalog["T_eq_P"].decide_cube(cube("(pred P inf)"))
    # A refused reading is not kept, so a repeated query raises again.
    t, c = EqualityTheory(), cube("(P 1)")
    for query in (t.decide_cube, t.decide_cube, lambda c: t.spec_finite(c, 1)):
        with pytest.raises(SignatureError):
            query(c)


def test_an_unowned_predicate_raises_on_every_read(catalog):
    # A refused predicate part is never kept: a twin cube with the same
    # part, and the same cube after another was read, raise again.
    t = catalog["T_eq_P"]
    bad = cube("(and (P 2) (pred Q) (= x y))")
    for c in (bad, Cube(bad.literals), cube("(and (P 2) (pred Q) (distinct x y))"), bad):
        for query in (t.decide_cube, t.spec_inf, lambda c: t.spec_finite(c, 2)):
            with pytest.raises(SignatureError):
                query(c)
        assert t.decide_cube(TOP)  # another cube is read in between


def test_a_read_refuses_the_predicate_part_before_the_cube_clashes(catalog):
    # A read checks the predicate part and builds its shape before it looks
    # at the cube's clash, so a contradictory cube still raises what its
    # predicate part raises; only two positive predicates answer first.
    t = catalog["T_eq_P"]
    far, clash = plit("P", 1048577), EqualityLiteral("x", "x", False)
    for c in (Cube((far, clash)), Cube((far, plit("P", 1048577, positive=False)))):
        assert c.contradictory
        for query in (t.read, t.decide_cube, lambda c: t.spec_finite(c, 2)):
            with pytest.raises(SetBoundExceeded, match="member 1048577 is past the set bound"):
                query(c)
    unowned = Cube((plit("P", 2), plit("Q"), clash))
    assert unowned.contradictory
    for query in (t.read, t.decide_cube, lambda c: t.spec_finite(c, 2)):
        with pytest.raises(SignatureError):
            query(unowned)
    assert t.read(Cube((far, plit("P", 2), clash))) is None


def test_a_run_of_queries_on_one_cube_reads_it_once(monkeypatch):
    t = SizePinTheory()
    calls = []
    real = Theory.read_part
    monkeypatch.setattr(SizePinTheory, "read_part", lambda self, part: calls.append(part) or real(self, part))
    c = cube("(and (P 3) (distinct x y))")
    assert t.decide_cube(c)
    assert [t.spec_finite(c, k) for k in range(1, 7)] == [k == 3 for k in range(1, 7)]
    assert not t.spec_inf(c)
    assert calls == [c.pred_part]


def _uncached_reading(t, c):
    """A theory's reading of a cube built afresh: no memo, no last cube."""
    for lit in c.pred_part:
        t.check_pred(lit.pred)
    part = t.read_part(c.pred_part)
    if part is UNSAT or c.contradictory:
        return None
    floor = formulas._equality_minimum(c.eq_part)
    shape = t.predicate_free if part is None else t.shape(part)
    return None if floor is None else Reading(part, shape, floor)


def _query_answers(t, c):
    """Every derived query on a cube or a reading, errors compared by type."""
    return (
        [_answer_or_error(t.decide_at_least, c, k) for k in (1, 2, 3, 5, 7)]
        + [_answer_or_error(t.spec_finite, c, k) for k in range(1, 7)]
        + [_answer_or_error(q, c) for q in (t.spec_inf, t.minmod_cube, t.exact_spectrum, t.infinite_only)]
    )


def test_readings_by_predicate_part_match_an_uncached_reading(theory_list):
    # Twins share a predicate part or an equality part with the cube just
    # read, and another theory reads in between, so a reading kept under
    # the wrong key would answer for the wrong cube.
    assert len(theory_list) == 26
    rng = random.Random(2911)
    for t in theory_list:
        cubes = [random_cube(t, rng) for _ in range(60)]
        for c in cubes:
            o = rng.choice(cubes)
            other = rng.choice(theory_list)
            for d in (c, Cube(c.pred_part + o.eq_part), Cube(o.pred_part + c.eq_part), Cube(c.literals), c):
                assert _query_answers(t, d) == _query_answers(t, _uncached_reading(t, d)), (t, d)
                try:
                    want = _uncached_reading(other, d)
                except SignatureError:
                    with pytest.raises(SignatureError):
                        other.decide_cube(d)
                    continue
                assert _query_answers(other, d) == _query_answers(other, want), (other, d)


def test_a_shape_is_built_once_per_part_whatever_the_negative_literals(monkeypatch):
    # Predicate parts that differ only in negative literals are each
    # checked against the signature, but read as one part, whose shape is
    # built once.
    theories._part_shape.cache_clear()
    t = SizePinTheory()
    shaped = []
    real_shape = SizePinTheory.shape
    monkeypatch.setattr(SizePinTheory, "shape", lambda self, part: shaped.append(part) or real_shape(self, part))
    texts = ["(P 3)", "(and (P 3) (not (P 1)))", "(and (P 3) (not (P 2)) (not (P 5)))", "(and (not (P 4)) (P 3))"]
    for text in texts * 2:
        assert t.spec_finite(cube(text), 3) and not t.spec_finite(cube(text), 4)
    assert shaped == [pid("P", 3)]
    # No positive predicate is the predicate-free part, which has no shape to build.
    for text in ("(not (P 1))", "(and (not (P 2)) (not (P 6)))", "(= x y)"):
        assert t.decide_cube(cube(text))
    assert shaped == [pid("P", 3)]
    info = theories._part_shape.cache_info()
    assert (info.misses, info.currsize) == (2, 2)  # P_3 and None


def test_readings_through_the_shape_memo_match_a_fresh_theory(theory_list):
    # Each cube is read next to twins that add or drop negative predicate
    # literals, so its part's shape usually comes from the memo; a fresh
    # catalog theory reads it without memos.  The nullary toy reads the
    # polarity of its last predicate literal, so its twins change parts.
    assert len(theory_list) == 26 and "toy" in {t.name for t in theory_list}
    rng = random.Random(3511)
    for t, fresh in zip(theory_list, default_catalog()):
        assert t.name == fresh.name and t is not fresh
        for _ in range(40):
            c = random_cube(t, rng)
            negatives = [lit for lit in c.pred_part if not lit.positive]
            extra = [] if (p := t.sample_pred(rng)) is None else [PredicateLiteral(p, False)]
            for d in (c, Cube(c.literals + tuple(extra)), Cube(tuple(set(c.literals) - set(negatives))), c):
                want = _query_answers(fresh, _uncached_reading(fresh, d))
                assert _query_answers(t, d) == want, (t, d)


def test_the_reading_memo_stays_within_its_bound():
    t = SizePinTheory()
    bound = theories.SHAPES_KEPT
    for i in range(1, bound + 51):
        assert t.spec_finite(Cube((plit("P", i),)), i)
    info = theories._part_shape.cache_info()
    assert info.maxsize == bound and info.currsize <= bound


# -- model checking ---------------------------------------------------------------


def test_model_check_examples(catalog):
    tp = catalog["T_eq_P"]
    assert tp.model_check(3, frozenset({pid("P", 3)}))
    assert not tp.model_check(3, frozenset({pid("P", 2)}))
    tls = catalog["T_leq_S_evens"]
    assert not tls.model_check(3, frozenset())  # 3 is not an allowed size
    assert tls.model_check(2, frozenset())
    tmn = catalog["T_mn_2_5"]
    assert tmn.model_check(5, frozenset({pid("P", 9)}))  # tagged: must sit at 5
    assert not tmn.model_check(2, frozenset({pid("P", 9)}))
    assert tmn.model_check(2, frozenset({pid("P", 8)}))  # untagged: both sizes fine
    assert not tmn.model_check(3, frozenset())


def test_decide_is_tag_standin_independent(rng):
    """Decision procedures never read the undecidable-set stand-in; only
    model checkers do."""
    pairs = [
        (TwoSizeTheory(2, 5, u_standin=odds()), TwoSizeTheory(2, 5, u_standin=evens())),
        (TaggedInfinityTheory(u_standin=odds()), TaggedInfinityTheory(u_standin=evens())),
        (BigModelTagTheory(2, u_standin=odds()), BigModelTagTheory(2, u_standin=evens())),
        (MixedTagTheory(4, u_standin=odds()), MixedTagTheory(4, u_standin=evens())),
    ]
    for a, b in pairs:
        for _ in range(120):
            c = random_cube(a, rng)
            assert a.decide_cube(c) == b.decide_cube(c)


# -- witness transform ------------------------------------------------------------


def test_witness_examples():
    t = BigModelTagTheory(2)
    w = witness_tgtnp(t, cube("(and (P 2) (= x y))"))
    fresh = sorted(v for v in w.variables() if v not in {"x", "y"})
    assert fresh == ["x1", "x2", "x3"]
    assert all(EqualityLiteral(v, v) in w.literals for v in fresh)
    w1 = witness_tgtnp(BigModelTagTheory(1), cube("(P 1)"))
    assert len(w1.variables()) == 2  # threshold 1: two fresh tautologies
    with pytest.raises(ValueError):
        witness_tgtnp(t, TOP)
    with pytest.raises(ValueError):
        witness_tgtnp(t, cube("(and (P 1) (P 2))"))


def test_witness_preserves_satisfiability_and_witnessed_models(rng):
    t = BigModelTagTheory(2)
    checked = 0
    for _ in range(200):
        c = random_cube(t, rng, max_vars=3, max_literals=3)
        if len(c.positive_preds()) != 1 or not isinstance(
            c.positive_preds()[0].indices[0], int
        ):
            continue
        w = witness_tgtnp(t, c)
        assert t.decide_cube(c) == t.decide_cube(w)
        if t.decide_cube(w):
            # some model's domain is exactly the image of the witness variables
            assert any(
                _has_surjective_model(t, w, k) for k in range(1, 7)
            ), w
        checked += 1
        if checked >= 100:
            break
    assert checked >= 40


def _has_surjective_model(theory, c, k):
    import itertools

    vs = sorted(c.variables())
    if len(vs) < k:
        return False
    for subset in _pred_subsets_for(theory, c):
        if not theory.model_check(k, subset):
            continue
        if not all((l.pred in subset) == l.positive for l in c.pred_part):
            continue
        for values in itertools.product(range(1, k + 1), repeat=len(vs)):
            if set(values) != set(range(1, k + 1)):
                continue
            asg = dict(zip(vs, values))
            if all(
                (asg[l.left] == asg[l.right]) == l.positive for l in c.eq_part
            ):
                return True
    return False


def _pred_subsets_for(theory, c):
    import itertools

    pos = c.positive_preds()
    for r in range(len(pos) + 1):
        for combo in itertools.combinations(pos, r):
            yield frozenset(combo)


# -- composite test theories -------------------------------------------------------


def test_complete_theory_examples():
    cs = CompositeTestTheory("CS-complete")
    big = cube("(and (pred P inf) (distinct a b c d e f g))")
    assert cs.decide_cube(big)
    assert cs.spec_inf(big)
    shiny = CompositeTestTheory("shiny-complete")
    assert not shiny.decide_cube(Cube((plit("P", 3), plit("Q", 2))))
    si = CompositeTestTheory("SI-complete")
    assert si.decide_cube(Cube((plit("B", 4, 9),)))
    idc = CompositeTestTheory("ID-complete")
    assert idc.spec_inf(cube("(distinct x y)"))
    assert not idc.spec_inf(Cube((plit("R", 2, 5, 9),)))


def test_complete_theory_rejects_bad_two_size_indices():
    t = CompositeTestTheory("n-shiny-complete", n=4)
    with pytest.raises(SignatureError):
        t.decide_cube(Cube((plit("R", 4, 6, 1),)))  # lower size equals n
    with pytest.raises(SignatureError):
        t.decide_cube(Cube((plit("R", 5, 3, 1),)))  # not increasing
    for kind in ("shiny-complete", "ID-complete"):
        with pytest.raises(SignatureError, match="needs i < j"):
            CompositeTestTheory(kind).decide_cube(cube("(pred R 3 3 1)"))  # equal sizes


def test_unknown_complete_kind():
    with pytest.raises(ValueError):
        CompositeTestTheory("bogus")


# -- gap-index theory ----------------------------------------------------------------


def test_gap_index_worked_example():
    th = GapIndexTheory(toy_inner_theory())
    q = th.resolver("Q")
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 6}
    for n, s in expected.items():
        c = Cube((plit("P", q, n),))
        assert th.decide_cube(c)
        window = [k for k in range(1, 8) if th.spec_finite(c, k)]
        assert window == [s]
    nq = th.resolver("NOTQ")
    assert [k for k in range(1, 8) if th.spec_finite(Cube((plit("P", nq, 1),)), k)] == [1]
    assert [k for k in range(1, 8) if th.spec_finite(Cube((plit("P", nq, 2),)), k)] == [2]
    c3 = Cube((plit("P", nq, 3),))
    assert th.decide_cube(c3)
    assert not any(th.spec_finite(c3, k) for k in range(1, 8))
    assert th.infinite_only(c3)
    assert not brute_spectrum(th, c3, 6)


def test_gap_index_requires_cfs_inner():
    with pytest.raises(ValueError):
        GapIndexTheory(TaggedInfinityTheory())


@pytest.mark.parametrize("extra", [TOP, neq_clique(["x", "y"], 2)])
def test_gap_index_rejects_formula_ids_past_the_enumeration(extra):
    th = GapIndexTheory(toy_inner_theory())
    assert th.enumeration.size == 2**14
    # The last inner cube holds a literal and its negation, so its first gap is size 1.
    assert th.decide_cube(Cube((plit("P", 2**14, 1),)).with_literals(extra.literals)) is (extra == TOP)
    beyond = Cube((plit("P", 2**14 + 1, 1),)).with_literals(extra.literals)
    for query in (th.decide_cube, th.exact_spectrum, lambda c: th.spec_finite(c, 3)):
        with pytest.raises(SignatureError, match="past the 16384 cubes"):
            query(beyond)


def test_formula_enumeration_ids_stop_at_its_size():
    enum = FormulaEnumeration(StepTheory(4, 4))
    assert enum.size == 2**14  # six variable pairs, each equal or not, and P or not
    assert len(enum.cube(enum.size).literals) == 14  # the last cube is the whole pool
    for fid in (0, enum.size + 1):
        with pytest.raises(CombineKitError, match="outside the enumeration"):
            enum.cube(fid)


def test_gap_index_minmod_blocks_unsatisfiable_pins():
    th = GapIndexTheory(toy_inner_theory())
    q = th.resolver("Q")
    # s_Q_2 = 2, but four pairwise-distinct variables force size >= 4
    c = Cube((plit("P", q, 2),)).with_literals(neq_clique(["a", "b", "c", "d"], 4).literals)
    assert not th.decide_cube(c)


@pytest.mark.parametrize("m", [2, 5, 30])
@pytest.mark.parametrize("n", [1, 3, 4, 50])
def test_gap_index_decide_counts_the_gaps_once(monkeypatch, m, n):
    # With equality minimum m, decide_cube asks the inner theory about
    # each smaller size once: at most m - 1 spec_finite calls.
    th = GapIndexTheory(toy_inner_theory())
    calls = []
    inner_spec_finite = th.inner.spec_finite
    monkeypatch.setattr(th.inner, "spec_finite", lambda c, k: calls.append(k) or inner_spec_finite(c, k))
    xs = " ".join(f"x{i}" for i in range(m))
    c = cube(f"(and (pred P Q {n}) (distinct {xs}))", th.resolver)
    sat = th.decide_cube(c)
    assert len(calls) <= m - 1
    exact = th.exact_spectrum(c)
    assert sat == (exact.has_inf or not exact.finite_part.is_empty())


@pytest.mark.parametrize("n, calls", [(4, 5), (50, 24)])
def test_gap_index_scans_each_inner_size_once(monkeypatch, n, calls):
    # spec_finite over k = 1..24 asks the inner theory about each size at
    # most once, in ascending order, and stops at the n-th gap.
    th = GapIndexTheory(toy_inner_theory())
    asked = []
    inner_spec_finite = th.inner.spec_finite
    monkeypatch.setattr(th.inner, "spec_finite", lambda c, k: asked.append(k) or inner_spec_finite(c, k))
    c = cube(f"(pred P Q {n})", th.resolver)
    window = [k for k in range(1, 25) if th.spec_finite(c, k)]
    assert window == ([5] if n == 4 else [])
    assert asked == list(range(1, calls + 1))


def test_nth_gap_answers_in_any_order():
    rng = random.Random(17)
    queries = [(fid, n, below) for fid in range(1, 33) for n in range(1, 7) for below in range(1, 13)]
    rng.shuffle(queries)
    th, reference = GapIndexTheory(toy_inner_theory()), toy_inner_theory()
    for fid, n, below in queries:
        phi = th.inner_cube(fid)
        gaps = [k for k in range(1, below) if not reference.spec_finite(phi, k)]
        assert th._nth_gap(fid, n, below) == (gaps[n - 1] if n <= len(gaps) else None)


def test_nth_gap_matches_a_direct_count_of_inner_gaps():
    th = GapIndexTheory(toy_inner_theory())
    for fid in range(1, 65):
        phi = th.inner_cube(fid)
        gaps = [k for k in range(1, 12) if not th.inner.spec_finite(phi, k)]
        for below in range(1, 13):
            under = [k for k in gaps if k < below]
            for n in range(1, 7):
                want = under[n - 1] if n <= len(under) else None
                assert th._nth_gap(fid, n, below) == want, (fid, n, below)


# -- step theory shapes ---------------------------------------------------------------


def test_step_theory_classifier():
    toy = toy_inner_theory()
    assert toy.nshiny_classify(cube("(pred Q)")) == (0, 4)
    assert toy.nshiny_classify(cube("(not (pred Q))")) == (2, 3)
    assert toy.nshiny_classify(TOP) == (2, 3)
    assert toy.nshiny_classify(cube("(and (pred Q) (distinct a b c d e))")) is None
    tns = StepTheory(4, 4)
    assert tns.nshiny_classify(cube("(pred P)")) == (0, 4)
    assert tns.nshiny_classify(TOP) == (2, 4)


def test_step_theory_validation():
    with pytest.raises(ValueError):
        StepTheory(3, 5)


def test_step_theory_finite_membership():
    tns = StepTheory(4, 4)
    p = cube("(pred P)")
    assert tns.spec_finite(p, 4)
    assert not tns.spec_finite(p, 3)
    assert not tns.spec_inf(p)


# -- the free equality theory ---------------------------------------------------------


def test_equality_theory_is_t_geq_1_by_name(rng):
    teq, geq1 = EqualityTheory(), MinSizeTheory(1)
    assert (teq.name, geq1.name) == ("T_eq", "T_geq_1")
    assert Registry().resolve("Teq").name == "T_eq"

    def answers(t, c):
        return (
            [_answer_or_error(q, c) for q in (t.decide_cube, t.spec_inf, t.exact_spectrum, t.nshiny_classify)]
            + [_answer_or_error(t.spec_finite, c, k) for k in range(1, 9)]
            + [_answer_or_error(view(t, c).minmod)]
            + [t.model_check(size, frozenset()) for size in range(1, 7)]
        )

    for _ in range(200):
        c = random_cube(teq, rng)
        assert answers(teq, c) == answers(geq1, c), c


# -- certificate spot checks ------------------------------------------------------------


def test_certificate_spot_checks(catalog):
    tp = catalog["T_eq_P"]
    assert tp.certificate.cfs and tp.certificate.infinitely_decidable and tp.certificate.gentle
    tinf = catalog["T_inf"]
    assert tinf.certificate.sm_cs
    tmn = catalog["T_mn_2_5"]
    assert not tmn.certificate.cfs
    with pytest.raises(CapabilityMissing):
        tmn.spec_finite(cube("(P 9)"), 2)
    tgt = catalog["T_gt_2_P"]
    assert tgt.certificate.stably_infinite
    for text in ["(P 5)", "(and (P 4) (distinct x y))"]:
        c = cube(text)
        if tgt.decide_cube(c):
            assert tgt.spec_inf(c)
