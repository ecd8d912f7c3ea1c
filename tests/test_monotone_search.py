"""The scans against the size-by-size loops they replaced.

`SpectrumView.max_finite`, `SpectrumView.minmod`'s search and the cs,
gentle and quasi-gentle runners give the same answers, witnesses, loop
counts and errors as the loops, which survive here as references.  The
`decide_at_least` search asks O(log n) queries that never go past the scan
bound + 1, and the membership scans jump between members, so their query
counts do not grow with the size scanned.  Each comparison lowers the
bound, ``spectra.BOUND``, to a cap around the answer."""

import collections
import math
import random
from functools import partial

import pytest

from combinekit import spectra
from combinekit.brute import random_cube
from combinekit.catalog import CapOrUnboundedTheory, ExactSizeTheory, MaxSizeTheory, MinSizeTheory, SizeCapTheory
from combinekit.combine import METHODS
from combinekit.errors import CapabilityMissing, IterationCapExceeded, SetBoundExceeded
from combinekit.formulas import Cube, PredicateId, PredicateLiteral
from combinekit.registry import RegistryError, load_registry
from combinekit.sets import ALEPH0, evens, odds
from combinekit.spectra import SpectrumView

REFERENCE_CAP = 64


class Counted:
    """A theory whose ``decide_at_least`` records every size asked."""

    def __init__(self, theory):
        self.theory, self.asked = theory, []

    def __getattr__(self, name):
        return getattr(self.theory, name)

    def decide_at_least(self, cube, k):
        self.asked.append(k)
        return self.theory.decide_at_least(cube, k)


def counted_view(theory, cube) -> SpectrumView:
    return SpectrumView(Counted(theory), cube)


def linear_max_finite(v, cap):
    """`max_finite` as a linear scan: ask k = 1, 2, ... until it fails."""
    k = 0
    while v.owner.decide_at_least(v.subject, k + 1):
        k += 1
        if k > cap:
            raise IterationCapExceeded("max_finite", cap)
    return k if k >= 1 else None


def linear_quasi_gentle(v1, v2, cap):
    """The quasi-gentle scan asking both sides `decide_at_least` at every n;
    (ok, card, sizes scanned) as the runner returns them."""
    n = 1
    while v1.owner.decide_at_least(v1.subject, n) and v2.owner.decide_at_least(v2.subject, n):
        if v1.contains(n) and v2.contains(n):
            return True, n, n - 1
        n += 1
        if n > cap:
            raise IterationCapExceeded("quasi-gentle interleaved scan", cap)
    return False, None, n - 1


def linear_cs(v1, v2, cap):
    """The cs runner asking both sides `contains` at every size up to the
    top (found by the linear `max_finite`)."""
    inf1 = v1.contains(ALEPH0)
    if inf1 and v2.contains(ALEPH0):
        return True, ALEPH0, 0
    k = linear_max_finite(v2 if inf1 else v1, cap) or 0
    for n in range(1, k + 1):
        if v1.contains(n) and v2.contains(n):
            return True, n, k
    return False, None, k


def linear_minmod(v, cap):
    """`SpectrumView.minmod` with its search asking `spec_finite` at every size."""
    if not v.sat():
        return None
    closed = v.owner.minmod_cube(v.subject)
    if closed is not None:
        return closed
    if v.owner.infinite_only(v.subject):
        return ALEPH0
    if not v.owner.certificate.cfs:
        raise CapabilityMissing(v.owner.name, "minmod")
    for k in range(1, cap + 1):
        if v.owner.spec_finite(v.subject, k):
            return k
    raise IterationCapExceeded("minmod", cap)


def linear_gentle(v1, v2):
    """The gentle runner walking side 1's exact spectrum size by size."""
    spec1 = v1.exact()
    bounded = spec1.finite_part.is_finite() and not spec1.has_inf
    top = (spec1.finite_part if bounded else spec1.finite_part.complement()).max_element() or 0
    members = [n for n in range(1, top + 1) if spec1.finite_part.contains(n)]
    for scanned, n in enumerate(members, 1):
        if v2.contains(n):
            return True, n, scanned
    if bounded:
        return False, None, len(members)
    return v2.owner.decide_at_least(v2.subject, top + 1), None, len(members)


def outcome(run, *args):
    try:
        return "ok", run(*args)
    except Exception as e:  # compared by type and message
        return type(e), str(e)


def caps_around(answer: int | None) -> list[int]:
    a = REFERENCE_CAP if answer is None else answer
    return sorted({max(a - 1, 0), a, a + 1})


def theories(theory_list):
    return list(theory_list) + [
        MaxSizeTheory(40), ExactSizeTheory(33), MinSizeTheory(5), MaxSizeTheory(1)
    ]


def test_max_finite_matches_the_linear_scan(theory_list, monkeypatch):
    rng = random.Random(3601)
    for t in theories(theory_list):
        cubes = [Cube(())] + [random_cube(t, rng) for _ in range(6)]
        for c in cubes:
            ref = outcome(linear_max_finite, counted_view(t, c), REFERENCE_CAP)
            for cap in caps_around(ref[1] if ref[0] == "ok" else None):
                want = outcome(linear_max_finite, counted_view(t, c), cap)
                v = counted_view(t, c)
                monkeypatch.setattr(spectra, "BOUND", cap)
                assert outcome(v.max_finite) == want, (t.name, c, cap)
                assert max(v.owner.asked, default=0) <= cap + 1, (t.name, c, cap)


def side_pairs(pool, rng):
    """Each theory's cubes on either side, against a bounded, an exact, an
    unbounded and a catalog partner."""
    for t in pool:
        for c in [Cube(())] + [random_cube(t, rng) for _ in range(3)]:
            partners = [
                MaxSizeTheory(rng.randint(1, 40)),
                ExactSizeTheory(rng.randint(1, 40)),
                MinSizeTheory(rng.randint(1, 8)),
                rng.choice(pool),
            ]
            for p in partners:
                d = random_cube(p, rng) if rng.random() < 0.5 else Cube(())
                yield (t, c), (p, d)
                yield (p, d), (t, c)


def test_quasi_gentle_matches_the_linear_scan(theory_list, monkeypatch):
    run = METHODS["quasi-gentle"][1]
    for sides in side_pairs(theories(theory_list), random.Random(3602)):
        check_quasi_gentle(monkeypatch, run, *sides)


def check_quasi_gentle(monkeypatch, run, side1, side2):
    lin1 = counted_view(*side1)
    ref = outcome(linear_quasi_gentle, lin1, counted_view(*side2), REFERENCE_CAP)
    reached = len(lin1.owner.asked)  # the last size the scan reached
    for cap in caps_around(None if ref[0] is IterationCapExceeded else reached):
        lin1 = counted_view(*side1)
        want = outcome(linear_quasi_gentle, lin1, counted_view(*side2), cap)
        v1, v2 = counted_view(*side1), counted_view(*side2)
        monkeypatch.setattr(spectra, "BOUND", cap)
        got = outcome(run, v1, v2)
        assert got == want, (side1, side2, cap)
        n = len(lin1.owner.asked)
        for v in (v1, v2):
            assert all(k <= cap + 1 for k in v.owner.asked), (side1, side2, cap)
            assert len(v.owner.asked) <= 4 * math.log2(max(n, 1)) + 4, (n, v.owner.asked)


def test_max_finite_of_a_million_asks_at_most_45_queries(monkeypatch):
    v = counted_view(MaxSizeTheory(1_000_000), Cube(()))
    assert v.max_finite() == 1_000_000
    assert len(v.owner.asked) <= 45 and max(v.owner.asked, default=0) <= 2**20 + 1
    monkeypatch.setattr(spectra, "BOUND", 999_999)
    with pytest.raises(IterationCapExceeded, match="max_finite"):
        counted_view(MaxSizeTheory(1_000_000), Cube(())).max_finite()


def test_the_largest_representable_top_is_found_within_the_bound():
    # The scans stop at the set bound because no finite top lies past it:
    # a size cap one past the bound cannot be built, by hand or by name.
    v = counted_view(load_registry(None).resolve("T_leq_1048576"), Cube(()))
    assert v.max_finite() == 2**20 == spectra.BOUND
    assert len(v.owner.asked) <= 45 and max(v.owner.asked, default=0) <= 2**20 + 1
    with pytest.raises(SetBoundExceeded):
        MaxSizeTheory(2**20 + 1)
    with pytest.raises(RegistryError, match="past the set bound 1048576"):
        load_registry(None).resolve("T_leq_1048577")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 40, 100, 1000])
def test_quasi_gentle_scan_to_n_asks_logarithmically_many_queries(n):
    # Side 1 reaches every size and side 2 is {n}: the scan ends at n.
    v1, v2 = counted_view(MinSizeTheory(1), Cube(())), counted_view(ExactSizeTheory(n), Cube(()))
    assert METHODS["quasi-gentle"][1](v1, v2) == (True, n, n - 1)
    for v in (v1, v2):
        assert len(v.owner.asked) <= 4 * math.log2(n) + 4, v.owner.asked


def test_cs_matches_the_linear_scan(theory_list, monkeypatch):
    run = METHODS["cs"][1]
    for side1, side2 in side_pairs(theories(theory_list), random.Random(4901)):
        ref = outcome(linear_cs, counted_view(*side1), counted_view(*side2), REFERENCE_CAP)
        top = ref[1][2] if ref[0] == "ok" else None  # the top the scan covered
        for cap in caps_around(top):
            want = outcome(linear_cs, counted_view(*side1), counted_view(*side2), cap)
            monkeypatch.setattr(spectra, "BOUND", cap)
            assert outcome(run, counted_view(*side1), counted_view(*side2)) == want, (side1, side2, cap)


def test_gentle_matches_the_linear_scan(theory_list):
    run = METHODS["gentle"][1]
    for side1, side2 in side_pairs(theories(theory_list), random.Random(4902)):
        want = outcome(linear_gentle, counted_view(*side1), counted_view(*side2))
        assert outcome(run, counted_view(*side1), counted_view(*side2)) == want, (side1, side2)


def test_minmod_search_matches_the_linear_scan(theory_list, monkeypatch):
    rng = random.Random(4903)
    for t in theories(theory_list):
        for c in [Cube(())] + [random_cube(t, rng) for _ in range(6)]:
            ref = outcome(linear_minmod, counted_view(t, c), REFERENCE_CAP)
            found = ref[1] if ref[0] == "ok" and isinstance(ref[1], int) else None
            for cap in caps_around(found):
                want = outcome(linear_minmod, counted_view(t, c), cap)
                monkeypatch.setattr(spectra, "BOUND", cap)
                assert outcome(counted_view(t, c).minmod) == want, (t.name, c, cap)


class Queried:
    """A theory that counts the queries asked of it, by name."""

    def __init__(self, theory):
        self.theory, self.calls = theory, collections.Counter()

    def __getattr__(self, name):
        attr = getattr(self.theory, name)
        if not callable(attr):
            return attr

        def query(*args):
            self.calls[name] += 1
            return attr(*args)

        return query


def scan_queries(n: int) -> dict:
    """Each scan's answer and the queries it asks of each side, with T_eq_n
    or T_leq_n against T_geq_1."""
    out = {}
    for bounded in (ExactSizeTheory(n), MaxSizeTheory(n)):
        runs = {
            "cs": lambda b, g: METHODS["cs"][1](b, g),
            "quasi-gentle": lambda b, g: METHODS["quasi-gentle"][1](g, b),
            "smcs": lambda b, g: METHODS["smcs"][1](g, b),
            "max_finite": lambda b, g: b.max_finite(),
        }
        for name, run in runs.items():
            b, g = SpectrumView(Queried(bounded), Cube(())), SpectrumView(Queried(MinSizeTheory(1)), Cube(()))
            result = run(b, g)
            out[type(bounded).__name__, name] = result, sum(b.owner.calls.values()), sum(g.owner.calls.values())
    return out


def test_membership_scans_ask_no_more_queries_at_the_set_bound():
    # The scans jump to each side's next member, so a scan to 2^20 asks no
    # more of either side than a scan to 2^10.
    small, large = scan_queries(2**10), scan_queries(2**20)
    for n, scans in ((2**10, small), (2**20, large)):
        assert {key: result for key, (result, *_) in scans.items()} == {
            ("ExactSizeTheory", "cs"): (True, n, n),
            ("ExactSizeTheory", "quasi-gentle"): (True, n, n - 1),
            ("ExactSizeTheory", "smcs"): (True, n, n),
            ("ExactSizeTheory", "max_finite"): n,
            ("MaxSizeTheory", "cs"): (True, 1, n),
            ("MaxSizeTheory", "quasi-gentle"): (True, 1, 0),
            ("MaxSizeTheory", "smcs"): (True, n, n),
            ("MaxSizeTheory", "max_finite"): n,
        }
    for key, (_, *asked) in large.items():
        assert all(a <= s for a, s in zip(asked, small[key][1:])), (key, asked, small[key])


def test_evens_against_odds_stop_after_one_common_period():
    # No size lies in both, and both reach every size: the walk ends past
    # one common period, where the size-by-size scan alternated to the bound.
    v1 = SpectrumView(Queried(SizeCapTheory(evens())), Cube(()))
    v2 = SpectrumView(Queried(SizeCapTheory(odds())), Cube(()))
    with pytest.raises(IterationCapExceeded, match="quasi-gentle interleaved scan exceeded iteration cap 1048576"):
        METHODS["quasi-gentle"][1](v1, v2)
    for v in (v1, v2):
        assert sum(v.owner.calls.values()) <= 8, v.owner.calls


def linear_next(ask, lo, hi):
    """The least size in [lo, hi] at which ``ask`` holds, asked size by size."""
    for k in range(lo, hi + 1):
        if ask(k):
            return k
    return None


def test_next_finite_and_next_member_match_the_linear_scans(theory_list):
    rng = random.Random(4904)
    for t in theories(theory_list):
        for c in [Cube(())] + [random_cube(t, rng) for _ in range(6)]:
            v = SpectrumView(t, c)
            for _ in range(6):
                lo, hi = rng.randint(1, 12), rng.randint(0, 40)
                want = outcome(linear_next, partial(t.spec_finite, c), lo, hi)
                assert outcome(t.next_finite, c, lo, hi) == want, (t.name, c, lo, hi)
                want = outcome(linear_next, v.contains, lo, hi)
                assert outcome(v.next_member, lo, hi) == want, (t.name, c, lo, hi)


def test_an_oracle_reach_is_searched_only_as_far_as_a_closed_one():
    # Side 1 reaches 1000 by its oracle test, side 2 only 3 in closed form:
    # the walk ends at 3, and side 1 is never asked past twice that.
    capped = Cube((PredicateLiteral(PredicateId("P", (1000,)), True),))
    v1, v2 = counted_view(CapOrUnboundedTheory(), capped), counted_view(MaxSizeTheory(3), Cube(()))
    assert METHODS["quasi-gentle"][1](v1, v2) == (True, 1, 0)
    assert METHODS["quasi-gentle"][1](v2, v1) == (True, 1, 0)
    assert 0 < len(v1.owner.asked) <= 6 and max(v1.owner.asked) <= 6, v1.owner.asked
