"""Acceptance suite: every criterion runs at its stated scale and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see
the lines."""

import random
import time

import pytest

from combinekit.brute import brute_combined_formula_sat, brute_spectrum, random_cube
from combinekit.catalog import (
    EqualityTheory,
    ExactSizeTheory,
    GapIndexTheory,
    MaxSizeTheory,
    MinSizeTheory,
    SizeCapTheory,
    SizePinTheory,
    StepTheory,
    TwoSizeTheory,
    toy_inner_theory,
)
from combinekit.classify import (
    bitzero_filter,
    filter_chain_demo,
    probe_certificate,
    referee,
    refute_class,
    strongest_classes,
)
from combinekit.combine import (
    CS,
    GENTLE,
    NELSON_OPPEN,
    SHINY,
    SMCS,
    combine_decide,
    method_applicable,
    n_shiny,
    quasi_gentle,
)
from combinekit.diagonal import intersect_from_run, run_diagonalization
from combinekit.errors import IterationCapExceeded, MethodNotApplicable
from combinekit.filters import NO, YES, filter_includes, frechet
from combinekit.formulas import (
    And,
    Cube,
    EqualityLiteral,
    Or,
    PredicateLiteral,
    enumerate_arrangements,
)
from combinekit.properties import (
    CLASSES,
    LATTICE_EDGES,
    CertificateViolation,
    certificate,
    class_ancestors,
)
from combinekit.sets import ALL, evens, finite_set
from combinekit.theories import FormulaEnumeration


def report(n: int, ok: bool, detail: str):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1: oracle equivalence ------------------------------------------------------


def test_criterion_1_oracle_equivalence(theory_list):
    start = time.time()
    rng = random.Random(1)
    assert len(theory_list) >= 18
    mismatches = 0
    withheld = 0
    total = 0
    for t in theory_list:
        for _ in range(500):
            bad, skipped = referee(t, random_cube(t, rng), 6)
            total += 1
            mismatches += bad
            withheld += skipped
    elapsed = time.time() - start
    # The withheld count is a fingerprint of the capability surface: a size
    # the certificates used to withhold and now answer moves it.
    report(
        1,
        mismatches == 0 and withheld == 1898 and elapsed < 60,
        f"{len(theory_list)} theories x 500 cubes ({total} total), "
        f"{mismatches} mismatches, {withheld} withheld queries, {elapsed:.1f}s",
    )


# -- 2: method soundness against the brute window ---------------------------------


def _random_formula(t1, t2, rng):
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


SOUNDNESS_TRIPLES = [
    (MaxSizeTheory(3), MaxSizeTheory(2), CS),
    (MaxSizeTheory(3), MaxSizeTheory(2), quasi_gentle()),
    (MaxSizeTheory(3), SizePinTheory(), GENTLE),
    (ExactSizeTheory(3), ExactSizeTheory(5), CS),
    (ExactSizeTheory(3), SizePinTheory(), GENTLE),
    (StepTheory(4, 4), ExactSizeTheory(4), n_shiny(4)),
    (StepTheory(4, 4), SizePinTheory(), n_shiny(4)),
    (MinSizeTheory(2), TwoSizeTheory(2, 5), SMCS),
    (MinSizeTheory(2), ExactSizeTheory(5), SMCS),
    (EqualityTheory(), MaxSizeTheory(3), SHINY),
    (EqualityTheory(), ExactSizeTheory(4), SHINY),
    (MaxSizeTheory(3), SizeCapTheory(evens()), quasi_gentle()),
    (MaxSizeTheory(3), SizeCapTheory(evens()), CS),
]


def test_criterion_2_method_soundness():
    rng = random.Random(2)
    assert len(SOUNDNESS_TRIPLES) >= 10
    checked = 0
    for t1, t2, method in SOUNDNESS_TRIPLES:
        assert method_applicable(method, t1, t2) or method_applicable(method, t2, t1)
        for _ in range(200):
            formula = _random_formula(t1, t2, rng)
            got = combine_decide(t1, t2, formula, method).sat
            want = brute_combined_formula_sat(t1, t2, formula, 6)
            assert got == want, (t1.name, t2.name, method.label(), formula)
            checked += 1
    report(2, True, f"{len(SOUNDNESS_TRIPLES)} triples x 200 formulas ({checked} checks) agree with the brute window")


# -- 3: cross-method agreement ------------------------------------------------------


def test_criterion_3_method_cross_agreement():
    rng = random.Random(3)
    groups = [
        (MinSizeTheory(2), MinSizeTheory(3), [NELSON_OPPEN, SHINY, CS, SMCS]),
        (MaxSizeTheory(3), SizeCapTheory(evens()), [GENTLE, CS, quasi_gentle()]),
    ]
    agreements = 0
    for t1, t2, methods in groups:
        for m in methods:
            assert method_applicable(m, t1, t2) or method_applicable(m, t2, t1), m.label()
        for _ in range(200):
            formula = _random_formula(t1, t2, rng)
            verdicts = {m.label(): combine_decide(t1, t2, formula, m).sat for m in methods}
            assert len(set(verdicts.values())) == 1, (formula, verdicts)
            agreements += 1
    report(3, True, f"2 groups x 200 formulas ({agreements} checks): all applicable methods agree")


# -- 4: the worked gap-index example -------------------------------------------------


def test_criterion_4_worked_example():
    inner = toy_inner_theory()
    th = GapIndexTheory(inner)
    q, nq = th.resolver("Q"), th.resolver("NOTQ")
    spec_q = inner.exact_spectrum(th.inner_cube(q))
    gaps_q = [spec_q.finite_part.nth_excluded(i) for i in range(1, 5)]
    assert gaps_q == [1, 2, 3, 5]
    spec_nq = inner.exact_spectrum(th.inner_cube(nq))
    gaps_nq = [spec_nq.finite_part.nth_excluded(i) for i in range(1, 4)]
    assert gaps_nq == [1, 2, None]

    def pin(fid, n):
        from combinekit.formulas import PredicateId

        return Cube((PredicateLiteral(PredicateId("P", (fid, n)), True),))

    assert brute_spectrum(th, pin(q, 2), 6) == {2}
    assert brute_spectrum(th, pin(q, 4), 6) == {5}
    assert brute_spectrum(th, pin(nq, 3), 6) == set()
    assert th.decide_cube(pin(nq, 3))
    report(4, True, "gap values 1,2,3,5 / 1,2,none and pinned spectra {2}, {5} reproduced")


# -- 5: combinatorial ground truth ----------------------------------------------------


def test_criterion_5_bell_numbers():
    got = [
        sum(1 for _ in enumerate_arrangements([f"v{i}" for i in range(n)]))
        for n in range(1, 7)
    ]
    assert got == [1, 2, 5, 15, 52, 203]
    report(5, True, f"arrangement counts for 1..6 variables: {got}")


# -- 6: membership table, lattice edges, placements ------------------------------------

# Marked cells of the membership table: (theory, [probe flags that must pass]).
TABLE_MARKED = {
    "T_gt_2_P": ["decidable", "SI", "smooth", "finitely-witnessable"],
    "T_eq_P": ["decidable", "CFS", "ID", "gentle"],
    "T_mn_2_5": ["decidable", "ID"],
    "T_leq_S_evens": ["decidable", "CFS"],
    "T_inf": ["decidable", "CFS", "ID", "smooth"],
    "Th_of(toy)": ["decidable", "CFS"],
    "T_eq_3": ["decidable"],
}

# Cells known to be outside each theory, with how the refutation shows up.
TABLE_REFUTED = {
    ("T_gt_2_P", "CFS"): "paper-level",
    ("T_eq_P", "SI"): "fail",
    ("T_mn_2_5", "CFS"): "paper-level",
    ("T_mn_2_5", "SI"): "fail",
    ("T_leq_S_evens", "ID"): "paper-level",
    ("T_inf", "gentle"): "fail",
    ("T_inf", "co-F-QG"): "fail",
    ("Th_of(toy)", "ID"): "paper-level",
    ("T_eq_3", "SI"): "fail",
}

EDGE_CONSTRUCTIONS = {
    ("n-decidable", "decidable"): dict(n_decidable_sizes=finite_set([4])),
    ("ID", "decidable"): dict(infinitely_decidable=True),
    ("CFS", "n-decidable"): dict(cfs=True),
    ("co-F-QG", "CFS"): dict(cofqg_set=evens()),
    ("CS", "CFS"): dict(cfs=True, infinitely_decidable=True),
    ("CS", "ID"): dict(cfs=True, infinitely_decidable=True),
    ("SI", "ID"): dict(stably_infinite=True),
    ("F-QG", "co-F-QG"): dict(fqg_set=ALL),
    ("gentle", "F-QG"): dict(gentle=True),
    ("gentle", "CS"): dict(gentle=True),
    ("SM+CS", "CS"): dict(smooth=True, cfs=True),
    ("SM+CS", "SI"): dict(smooth=True, cfs=True),
    ("n-shiny", "gentle"): dict(n_shiny_param=4),
    ("shiny", "n-shiny"): dict(shiny=True),
    ("shiny", "SM+CS"): dict(shiny=True),
}

# Example-theory placements and, per theory, the classes whose refutation
# rests only on the undecidable parameters (everything else refutes with a
# structural witness).
PLACEMENTS = {
    "T_d_4": ("decidable", {"n-decidable", "CFS", "ID", "CS", "co-F-QG", "F-QG", "gentle", "n-shiny"}),
    "T_d_3": ("n-decidable", {"CFS", "ID", "CS", "co-F-QG", "F-QG", "gentle", "n-shiny"}),
    "T_cfs": ("CFS", {"ID", "CS"}),
    "T_mn_4_5": ("ID", {"n-decidable", "CFS", "CS", "co-F-QG", "F-QG", "gentle"}),
    "T_leq_S_evens": ("co-F-QG", {"ID", "CS"}),
    "T_cs": ("CS", set()),
    "T_si": ("SI", {"n-decidable", "CFS", "CS", "co-F-QG", "F-QG", "gentle", "SM+CS", "n-shiny", "shiny"}),
    "T_leq_S_all": ("F-QG", {"ID", "CS", "gentle"}),
    "T_leq_3": ("gentle", set()),
    "T_inf": ("SM+CS", set()),
    "T_ns_4": ("n-shiny", set()),
    "T_geq_2": ("shiny", set()),
}


def test_criterion_6_table_lattice_placements(catalog):
    # (a) every marked table cell passes its probe
    for name, flags in TABLE_MARKED.items():
        rows = {r["flag"]: r["verdict"] for r in probe_certificate(catalog[name], samples=25)}
        for flag in flags:
            assert rows.get(flag) in ("pass", "probe-pass"), (name, flag, rows.get(flag))
    # ... and the refuted cells are withheld or failing as documented
    for (name, cls), how in TABLE_REFUTED.items():
        t = catalog[name]
        assert not t.certificate.member(cls, n=4, filt=frechet()), (name, cls)
        verdict, _ = refute_class(t, cls, n=4)
        expected = "paper-level" if how == "paper-level" else "fail"
        assert verdict == expected, (name, cls, verdict)

    # (b) all 15 inclusion edges enforced by certificate closure
    assert len(LATTICE_EDGES) == 15
    for edge, kwargs in EDGE_CONSTRUCTIONS.items():
        lower, upper = edge
        cert = certificate(**kwargs)
        assert cert.member(lower, n=4, filt=frechet())
        assert cert.member(upper, n=4, filt=frechet())
    with pytest.raises(CertificateViolation):
        certificate(shiny=True, smooth=False)
    with pytest.raises(CertificateViolation):
        certificate(gentle=True, cfs=False)

    # (c) every example theory sits at its class and fails every
    # non-ancestor class, paper-level only where documented
    for name, (placement, expected_paper) in PLACEMENTS.items():
        t = catalog[name]
        assert placement in strongest_classes(t), name
        ancestors = class_ancestors(placement)
        for extra in strongest_classes(t):
            ancestors |= class_ancestors(extra)
        paper_level = set()
        for cls in CLASSES:
            if cls in ancestors:
                continue
            assert not t.certificate.member(cls, n=4, filt=frechet()), (name, cls)
            verdict, _ = refute_class(t, cls, n=4)
            assert verdict in ("fail", "paper-level"), (name, cls, verdict)
            if verdict == "paper-level":
                paper_level.add(cls)
        assert paper_level == expected_paper, (name, sorted(paper_level))
    report(
        6,
        True,
        f"{sum(len(v) for v in TABLE_MARKED.values())} marked cells pass, 15 edges enforced, "
        f"{len(PLACEMENTS)} placements with documented paper-level separations",
    )


# -- 7: diagonalization invariants --------------------------------------------------------


def test_criterion_7_diagonalization():
    theory = MaxSizeTheory(2)
    enum = FormulaEnumeration(theory)
    state = run_diagonalization(theory, 50, enum)
    assert len(state.skipped) >= 50
    assert not (state.sat & state.unsat)
    assert not (state.sat & state.prom)
    assert not (state.unsat & state.prom)
    again = run_diagonalization(theory, 50, FormulaEnumeration(theory))
    assert state.digest() == again.digest()
    assert state.digest()[:12] == "5b4a04c4e5f9"
    checked = 0
    for fid in range(1, state.i):
        verdict = intersect_from_run(theory, fid, enum)
        spectrum = brute_spectrum(theory, enum.cube(fid), 6)  # spectra live in [1,2]
        assert max(spectrum, default=0) <= 2
        hits = bool(spectrum & state.s_prefix)
        assert (verdict == "nonempty") == hits, fid
        checked += 1
    report(
        7,
        True,
        f"50 rounds: {len(state.skipped)} skips, disjoint buckets, stable digest "
        f"{state.digest()[:12]}, {checked} verdicts re-derived by brute",
    )


# -- 8: degenerate-case regressions ----------------------------------------------------------


def test_criterion_8_degenerate_regressions():
    from combinekit.formulas import parse_formula
    from combinekit.sets import odds

    tns, tp = StepTheory(4, 4), SizePinTheory()
    verdict = combine_decide(tns, tp, parse_formula("(and (pred P) (P 5))"), n_shiny(4))
    assert not verdict.sat

    te = SizeCapTheory(evens())
    to = SizeCapTheory(odds(), family="Q")
    with pytest.raises(MethodNotApplicable):
        combine_decide(te, to, parse_formula("(= x x)"), quasi_gentle())
    te.certificate = certificate(fqg_set=ALL)
    to.certificate = certificate(cofqg_set=ALL)
    with pytest.raises(IterationCapExceeded) as e:
        combine_decide(te, to, parse_formula("(= x x)"), quasi_gentle())
    assert e.value.cap == 2**20
    report(8, True, "single-size shape answers unsat at once; mis-certified pair stops at the set bound")


# -- 9: generated-filter structure --------------------------------------------------------------


def test_criterion_9_filter_structure():
    import itertools

    universe = [1, 2, 3, 4, 5]
    subsets = []
    for r in range(len(universe) + 1):
        subsets.extend(set(c) for c in itertools.combinations(universe, r))
    pairs = 0
    for s1 in subsets:
        for s2 in subsets:
            want = YES if s1 <= s2 else NO
            assert filter_includes(bitzero_filter(s1), bitzero_filter(s2)) == want, (s1, s2)
            pairs += 1
    demo = filter_chain_demo(5)
    assert demo["ok"]
    report(9, True, f"{pairs} inclusion verdicts match index-set inclusion; chain/antichain demo clean")
