import pytest

from combinekit.brute import brute_spectrum, random_cube
from combinekit.catalog import (
    EqualityTheory,
    ExactSizeTheory,
    InfiniteOnlyTheory,
    MaxSizeTheory,
    MinSizeTheory,
)
from combinekit.errors import CapabilityMissing, IterationCapExceeded
from combinekit.formulas import Cube, EqualityLiteral, neq_clique, parse_formula, to_dnf
from combinekit.sets import ALEPH0, empty_set, evens, finite_set, upfrom
from combinekit.spectra import ExactSpectrum, view

TOP = Cube(())
XY_DISTINCT = Cube((EqualityLiteral("x", "y", False),))


def test_exact_spectrum_enforces_compactness():
    with pytest.raises(ValueError):
        ExactSpectrum(evens(), False)
    ExactSpectrum(evens(), True)
    ExactSpectrum(finite_set([2]), False)


def test_exact_spectrum_shapes_and_json():
    s = ExactSpectrum(finite_set([2, 3]), False)
    assert s.finite_or_cofinite()
    assert s.to_json() == {"finite_part": "finite:[2,3]", "has_inf": False}
    t = ExactSpectrum(upfrom(2), True)
    assert t.finite_or_cofinite()
    u = ExactSpectrum(empty_set(), True)  # only the infinite cardinality
    assert not u.finite_or_cofinite()
    assert u.has_inf and not u.finite_part.contains(3)


def test_spec_contains_examples():
    assert view(ExactSizeTheory(3), TOP).contains(3)
    tinf = InfiniteOnlyTheory()
    assert not view(tinf, XY_DISTINCT).contains(5)
    assert view(tinf, XY_DISTINCT).contains(ALEPH0)


def test_spec_contains_capability_gating():
    from combinekit.catalog import CapOrUnboundedTheory, TaggedInfinityTheory

    tsi = TaggedInfinityTheory()
    v = view(tsi, TOP)
    with pytest.raises(CapabilityMissing):
        v.contains(3)
    tcfs = CapOrUnboundedTheory()
    v2 = view(tcfs, TOP)
    with pytest.raises(CapabilityMissing):
        v2.contains(ALEPH0)
    with pytest.raises(CapabilityMissing):
        v2.exact()


def test_max_finite_examples():
    assert view(MaxSizeTheory(3), TOP).max_finite() == 3
    assert view(ExactSizeTheory(4), TOP).max_finite() == 4
    with pytest.raises(IterationCapExceeded):
        view(EqualityTheory(), TOP).max_finite()
    assert view(MaxSizeTheory(2), neq_clique(["a", "b", "c"], 3)).max_finite() is None


def test_minmod_examples():
    teq = EqualityTheory()
    assert view(teq, neq_clique(["x", "y", "z"], 3)).minmod() == 3
    assert view(teq, to_dnf(parse_formula("(= x y)"))[0]).minmod() == 1
    assert view(InfiniteOnlyTheory(), TOP).minmod() is ALEPH0
    assert view(MaxSizeTheory(2), neq_clique(["a", "b", "c"], 3)).minmod() is None


def test_minmod_consistency_property(catalog, rng):
    for name in ("T_eq", "T_geq_2", "T_eq_P", "T_leq_3", "T_cs", "T_ns_4"):
        t = catalog[name]
        for _ in range(40):
            c = random_cube(t, rng)
            v = view(t, c)
            m = v.minmod()
            if isinstance(m, int):
                assert t.spec_finite(c, m)
                assert all(not t.spec_finite(c, j) for j in range(1, m))


def test_exact_spectrum_examples():
    got = view(MaxSizeTheory(3), XY_DISTINCT).exact()
    assert got == ExactSpectrum(finite_set([2, 3]), False)
    got = view(MinSizeTheory(2), TOP).exact()
    assert got.finite_part == upfrom(2)
    assert got.has_inf
    bad = Cube((EqualityLiteral("x", "x", False),))
    assert view(MaxSizeTheory(3), bad).exact().is_empty()


def test_exact_agrees_with_contains_pointwise(catalog, rng):
    for name in ("T_eq", "T_eq_P", "T_leq_3", "T_geq_2", "T_eq_3", "T_ns_4", "toy"):
        t = catalog[name]
        for _ in range(30):
            c = random_cube(t, rng)
            spec = view(t, c).exact()
            bound = len(spec.finite_part.preperiod) + 2 * len(spec.finite_part.period)
            for k in range(1, bound + 1):
                assert spec.finite_part.contains(k) == t.spec_finite(c, k)


def test_every_materialized_spectrum_satisfies_compactness(catalog, rng):
    for t in catalog.values():
        for _ in range(25):
            c = random_cube(t, rng)
            spec = t.cube_spectrum_exact(c)
            if spec is not None and spec.finite_part.is_infinite():
                assert spec.has_inf


def test_window_agreement_with_brute(catalog, rng):
    for name in ("T_eq_3", "T_inf", "T_leq_3", "toy"):
        t = catalog[name]
        for _ in range(30):
            c = random_cube(t, rng)
            w = brute_spectrum(t, c, 6)
            for k in range(1, 7):
                assert t.spec_finite(c, k) == (k in w)
