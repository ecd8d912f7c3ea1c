import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combinekit.catalog import default_catalog
from combinekit.errors import CombineKitError, SetBoundExceeded
from combinekit.formulas import parse_formula, to_dnf
from combinekit.sets import (
    ALEPH0,
    BOUND,
    EvPeriodicSet,
    bitzero,
    cofinite_excluding,
    empty_set,
    evens,
    finite_set,
    interval,
    odds,
    parse_set_literal,
    upfrom,
)

ev_sets = st.builds(
    EvPeriodicSet,
    st.lists(st.booleans(), max_size=6).map(tuple),
    st.lists(st.booleans(), min_size=1, max_size=4).map(tuple),
)


def pointwise_bound(*sets: EvPeriodicSet) -> int:
    p = max(len(s.preperiod) for s in sets)
    q = math.lcm(*(len(s.period) for s in sets))
    return p + 2 * q


@given(ev_sets)
def test_canonicalization_idempotent(s):
    again = EvPeriodicSet(s.preperiod, s.period)
    assert again == s


@given(ev_sets, ev_sets)
@settings(max_examples=120)
def test_structural_equality_is_extensional(s, t):
    bound = pointwise_bound(s, t)
    same = all(s.contains(n) == t.contains(n) for n in range(1, bound + 1))
    assert (s == t) == same


@given(ev_sets, ev_sets, ev_sets)
@settings(max_examples=80)
def test_boolean_algebra_laws_pointwise(s, t, u):
    bound = pointwise_bound(s, t, u)
    for n in range(1, bound + 1):
        a, b, c = s.contains(n), t.contains(n), u.contains(n)
        assert s.union(t).contains(n) == (a or b)
        assert s.intersect(t).contains(n) == (a and b)
        assert s.complement().contains(n) == (not a)
        # De Morgan
        assert s.union(t).complement().contains(n) == (
            s.complement().intersect(t.complement()).contains(n)
        )
        # distributivity
        assert s.intersect(t.union(u)).contains(n) == (a and (b or c))


def test_membership_examples():
    assert evens().contains(4)
    assert not finite_set([2, 5]).contains(3)
    assert not bitzero(2).contains(2)  # 2 = 0b10 has bit 2 set
    for n in range(1, 129):
        assert evens().contains(n) == (n % 2 == 0)


def test_boolean_op_examples():
    assert cofinite_excluding([2, 5]).complement() == finite_set([2, 5])
    inter = evens().intersect(upfrom(3))
    for n in range(1, 65):
        assert inter.contains(n) == (n % 2 == 0 and n >= 3)
    assert evens().difference(upfrom(1)).is_empty()


def test_nth_excluded_examples():
    # complement of {4}: elements 1,2,3,5,6,...
    spec = cofinite_excluding([4]).complement().complement()
    assert spec == cofinite_excluding([4])
    assert spec.nth_excluded(1) == 4  # the only excluded element, then none
    assert spec.nth_excluded(2) is None
    # set whose complement is {1,2,3,5,6,7,...}: the spectrum {4}
    assert finite_set([4]).nth_excluded(4) == 5
    assert finite_set([4]).nth_excluded(5) == 6
    # complement {1,2} exhausted at index 3
    tail = upfrom(3)
    assert tail.nth_excluded(1) == 1
    assert tail.nth_excluded(2) == 2
    assert tail.nth_excluded(3) is None
    assert evens().min_element() == 2


def test_nth_excluded_deep_period_walk():
    s = evens()  # complement = odds
    for n in range(1, 40):
        assert s.nth_excluded(n) == 2 * n - 1


@given(ev_sets)
def test_nth_excluded_matches_a_pointwise_count(s):
    # Past the preperiod every period holds a non-member, or none ever again.
    p, q = len(s.preperiod), len(s.period)
    last = p + 3 * q + 2
    excluded = [m for m in range(1, p + last * q + 1) if not s.contains(m)]
    for n in range(1, last + 1):
        assert s.nth_excluded(n) == (excluded[n - 1] if n <= len(excluded) else None), n


def test_bitzero_against_direct_bit_oracle():
    for i in range(1, 6):
        s = bitzero(i)
        for n in range(1, 200):
            assert s.contains(n) == (((n >> (i - 1)) & 1) == 0), (i, n)


def test_bitzero_family_strong_finite_intersection():
    import itertools

    family = [bitzero(i) for i in range(1, 6)]
    for r in range(1, 6):
        for combo in itertools.combinations(family, r):
            inter = combo[0]
            for s in combo[1:]:
                inter = inter.intersect(s)
            assert inter.is_infinite()


def test_bitzero_one_is_evens():
    assert bitzero(1) == evens()


def test_minimum_and_cardinality():
    assert empty_set().min_element() is None
    assert interval(2, 3) == finite_set([2, 3])
    assert interval(5, 4).is_empty()


@given(ev_sets)
def test_least_and_greatest_elements_match_pointwise(s):
    members = list(s.elements(pointwise_bound(s)))
    assert s.min_element() == (members[0] if members else None)
    if s.is_finite():
        assert s.max_element() == (members[-1] if members else None)
    else:
        assert s.max_element() is None


def _min_from_loop(s: EvPeriodicSet, n: int) -> int | None:
    """The least element >= n by a Python walk over the bitmaps, as
    ``min_from`` was written before it scanned with ``tuple.index``."""
    p, q = len(s.preperiod), len(s.period)
    for m in range(n, p + 1):
        if s.preperiod[m - 1]:
            return m
    start = max(n, p + 1)
    for m in range(start, start + q):
        if s.period[(m - p - 1) % q]:
            return m
    return None


def test_min_from_matches_the_bitmap_walk():
    rng = random.Random(3606)
    bits = lambda k: tuple(rng.random() < 0.3 for _ in range(k))
    sets = [EvPeriodicSet((), (False,)), EvPeriodicSet((True,), (False,) * 3)]
    for _ in range(300):
        pre, per = bits(rng.randint(0, 9)), bits(rng.randint(1, 7))
        sets += [EvPeriodicSet(pre, per), EvPeriodicSet((), per), EvPeriodicSet(pre, (False,))]
    assert any(not s.preperiod for s in sets) and any(s.is_finite() for s in sets)
    for s in sets:
        p, q = len(s.preperiod), len(s.period)
        for n in range(1, p + 3 * q + 3):  # well past the preperiod
            assert s.min_from(n) == _min_from_loop(s, n), (s, n)


def test_large_interval_builds_in_linear_time():
    start = time.perf_counter()
    s = interval(1, 50_000)
    assert time.perf_counter() - start < 1.0
    assert (s.min_element(), s.max_element()) == (1, 50_000)


def test_literal_round_trip():
    examples = [
        "finite:[2,5]",
        "cofinite-excluding:[4]",
        "periodic:p=2,q=3,pre=10,per=011",
        "bitzero:3",
        "evens",
        "odds",
        "upfrom:4",
        "all",
        "empty",
    ]
    for text in examples:
        s = parse_set_literal(text)
        assert parse_set_literal(s.to_literal()) == s


def test_literal_rejects_garbage():
    from combinekit.errors import ParseError

    # int() and \d take non-ASCII digits such as '٣'; the literals do not.
    non_ascii = ["upfrom:٣", "bitzero:٢", "finite:[١,2]", "cofinite-excluding:[٣]",
                 "periodic:p=١,q=1,pre=1,per=1"]
    for bad in ["finite:[a]", "bitzero:0", "periodic:p=2,q=1,pre=1,per=1", "wat", *non_ascii]:
        with pytest.raises(ParseError):
            parse_set_literal(bad)


def test_aleph0_is_singleton():
    assert ALEPH0 is type(ALEPH0)()
    assert odds().complement() == evens()


def test_factories_refuse_sizes_past_the_bound():
    # A set is a dense bitmap: past BOUND a factory raises instead of
    # allocating without limit.
    assert BOUND == 2**20
    assert finite_set([BOUND]).max_element() == BOUND
    assert upfrom(BOUND).min_element() == BOUND
    assert len(bitzero(20).period) == BOUND
    for build in (
        lambda: finite_set([3, BOUND + 1]),
        lambda: cofinite_excluding([BOUND + 1]),
        lambda: upfrom(BOUND + 1),
        lambda: interval(1, BOUND + 1),
        lambda: bitzero(21),
        lambda: parse_set_literal(f"upfrom:{BOUND + 1}"),
        lambda: parse_set_literal("bitzero:21"),
    ):
        with pytest.raises(ValueError, match="past the set bound"):
            build()


@pytest.mark.parametrize("p, q", [(BOUND + 5, 1), (0, BOUND + 5)])
def test_a_periodic_literal_past_the_bound_is_refused(p, q):
    text = f"periodic:p={p},q={q},pre={'0' * p},per={'0' * (q - 1)}1"
    with pytest.raises(SetBoundExceeded, match="past the set bound"):
        parse_set_literal(text)


def test_a_periodic_literal_at_the_bound_is_read():
    s = parse_set_literal(f"periodic:p={BOUND - 1},q=1,pre={'0' * (BOUND - 1)},per=1")
    assert s == upfrom(BOUND)
    assert len(parse_set_literal(f"periodic:p=0,q={BOUND},pre=,per={'0' * (BOUND - 1)}1").period) == BOUND


def test_the_set_bound_is_a_typed_error():
    # A CombineKitError for library callers, and still a ValueError.
    assert issubclass(SetBoundExceeded, CombineKitError) and issubclass(SetBoundExceeded, ValueError)
    with pytest.raises(SetBoundExceeded, match="period length 2"):
        bitzero(21)
    t_eq_p = next(t for t in default_catalog() if t.name == "T_eq_P")
    with pytest.raises(SetBoundExceeded, match="member 1048577 is past the set bound"):
        t_eq_p.decide_cube(to_dnf(parse_formula(f"(P {BOUND + 1})"))[0])
