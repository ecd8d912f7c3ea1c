"""The monotone `decide_at_least` search against the linear scans it
replaced: `SpectrumView.max_finite` and the quasi-gentle scan give the
same answers, witnesses, loop counts and errors, in O(log n) queries
that never go past the scan bound + 1.  Each comparison lowers the bound,
``spectra.BOUND``, to a cap around the answer."""

import math
import random

import pytest

from combinekit import spectra
from combinekit.brute import random_cube
from combinekit.catalog import ExactSizeTheory, MaxSizeTheory, MinSizeTheory
from combinekit.combine import METHODS
from combinekit.errors import IterationCapExceeded, SetBoundExceeded
from combinekit.formulas import Cube
from combinekit.registry import RegistryError, load_registry
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
                assert max(v.owner.asked) <= cap + 1, (t.name, c, cap)


def test_quasi_gentle_matches_the_linear_scan(theory_list, monkeypatch):
    rng = random.Random(3602)
    pool = theories(theory_list)
    run = METHODS["quasi-gentle"][1]
    for t in pool:
        for c in [Cube(())] + [random_cube(t, rng) for _ in range(3)]:
            # Each catalog cube on either side, against a bounded, an
            # exact, an unbounded and a catalog partner.
            partners = [
                MaxSizeTheory(rng.randint(1, 40)),
                ExactSizeTheory(rng.randint(1, 40)),
                MinSizeTheory(rng.randint(1, 8)),
                rng.choice(pool),
            ]
            for p in partners:
                d = random_cube(p, rng) if rng.random() < 0.5 else Cube(())
                for sides in (((t, c), (p, d)), ((p, d), (t, c))):
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
    assert len(v.owner.asked) <= 45 and max(v.owner.asked) <= 2**20 + 1
    monkeypatch.setattr(spectra, "BOUND", 999_999)
    with pytest.raises(IterationCapExceeded, match="max_finite"):
        counted_view(MaxSizeTheory(1_000_000), Cube(())).max_finite()


def test_the_largest_representable_top_is_found_within_the_bound():
    # The scans stop at the set bound because no finite top lies past it:
    # a size cap one past the bound cannot be built, by hand or by name.
    v = counted_view(load_registry(None).resolve("T_leq_1048576"), Cube(()))
    assert v.max_finite() == 2**20 == spectra.BOUND
    assert len(v.owner.asked) <= 45 and max(v.owner.asked) <= 2**20 + 1
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
