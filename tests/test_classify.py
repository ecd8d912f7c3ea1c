import itertools
import random
from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace

import pytest

from combinekit import classify
from combinekit.brute import brute_spectrum
from combinekit.cli import main
from combinekit.catalog import (
    BigModelTagTheory,
    EqualityTheory,
    InfiniteOnlyTheory,
    MaxSizeTheory,
    SizePinTheory,
    StepTheory,
)
from combinekit.classify import (
    DEFAULT_PROBE_SAMPLES,
    bitzero_filter,
    build_lattice,
    filter_chain_demo,
    probe_certificate,
    refute_class,
)
from combinekit.errors import CapabilityMissing
from combinekit.filters import NO, YES, FreeFilter, filter_includes, frechet
from combinekit.formulas import EqualityLiteral
from combinekit.properties import (
    CLASSES,
    LATTICE_EDGES,
    CertificateViolation,
    PropertyCertificate,
    certificate,
    class_ancestors,
)
from combinekit.registry import Registry
from combinekit.sets import (
    ALL,
    EMPTY,
    bitzero,
    cofinite_excluding,
    empty_set,
    evens,
    finite_set,
    odds,
    parse_set_literal,
    upfrom,
)
from combinekit.spectra import ExactSpectrum
from combinekit.theories import Theory


# -- certificate closure: all fifteen inclusion edges ---------------------------


def _member(cert, cls, n=4):
    return cert.member(cls, n=n, filt=frechet())


EDGE_WITNESS_CERTS = {
    # For each edge (lower, upper): a certificate construction that is in
    # the lower class; closure must force membership in the upper class.
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


@pytest.mark.parametrize("edge", LATTICE_EDGES)
def test_each_inclusion_edge_enforced_by_closure(edge):
    lower, upper = edge
    cert = certificate(**EDGE_WITNESS_CERTS[edge])
    assert _member(cert, lower), f"construction should land in {lower}"
    assert _member(cert, upper), f"{lower} membership must imply {upper}"


def test_certificate_violations_rejected():
    with pytest.raises(CertificateViolation):
        certificate(shiny=True, smooth=False)
    with pytest.raises(CertificateViolation):
        certificate(shiny=True, gentle=False)
    with pytest.raises(CertificateViolation):
        certificate(gentle=True, cfs=False)
    with pytest.raises(CertificateViolation):
        certificate(gentle=True, fqg_set=EMPTY)
    with pytest.raises(CertificateViolation):
        certificate(stably_infinite=True, infinitely_decidable=False)
    with pytest.raises(CertificateViolation):
        certificate(never_infinite=True, stably_infinite=True)
    with pytest.raises(CertificateViolation):
        certificate(never_infinite=True, smooth=True)
    with pytest.raises(CertificateViolation):
        certificate(smooth=True, stably_infinite=False)
    with pytest.raises(CertificateViolation):
        certificate(fqg_set=ALL, cofqg_set=EMPTY)
    with pytest.raises(CertificateViolation):
        certificate(cofqg_set=evens(), cfs=False)


def test_member_needs_its_parameter():
    cert = certificate(shiny=True)
    for cls, kw in (("n-decidable", {"filt": frechet()}), ("n-shiny", {}), ("F-QG", {"n": 4}), ("co-F-QG", {})):
        with pytest.raises(ValueError):
            cert.member(cls, **kw)
    with pytest.raises(ValueError):
        cert.member("polite")
    assert cert.member("n-shiny", n=4) and cert.member("F-QG", filt=frechet())


def test_certificate_stores_plain_flags_as_bools():
    for flag in ("shiny", "never_infinite", "finitely_witnessable"):
        cert = certificate(**{flag: None})
        assert getattr(cert, flag) is False
        assert cert == certificate()
        assert getattr(certificate(**{flag: 1}), flag) is True


def test_class_ancestors():
    assert class_ancestors("shiny") == frozenset(CLASSES)
    assert class_ancestors("decidable") == frozenset({"decidable"})
    assert "SI" not in class_ancestors("gentle")


# -- probe examples ---------------------------------------------------------------


def test_probe_gentle_passes_for_bounded_theory(catalog):
    rows = probe_certificate(catalog["T_leq_3"], samples=25)
    verdicts = {r["flag"]: r["verdict"] for r in rows}
    assert verdicts["gentle"] == "pass"
    assert "SI" not in verdicts  # unclaimed flags are not probed


def test_probe_smcs_for_infinite_only_theory(catalog):
    rows = probe_certificate(catalog["T_inf"], samples=25)
    verdicts = {r["flag"]: r["verdict"] for r in rows}
    assert verdicts["smooth"] == "probe-pass"
    assert verdicts["CFS"] == "pass"
    assert verdicts["ID"] == "pass"


def test_probe_rows_have_schema(catalog):
    rows = probe_certificate(catalog["T_cs"], samples=20)
    for r in rows:
        assert set(r) == {"theory", "flag", "verdict", "evidence"}
        assert r["verdict"] in ("pass", "fail", "probe-pass")


def test_whole_catalog_probes_clean(theory_list):
    for t in theory_list:
        for row in probe_certificate(t, samples=20):
            assert row["verdict"] != "fail", row


def test_probes_enumerate_each_cube_window_once(theory_list, monkeypatch):
    calls = []

    def counting(theory, cube, bound):
        calls.append(cube)
        return brute_spectrum(theory, cube, bound)

    monkeypatch.setattr("combinekit.classify.brute_spectrum", counting)
    for t in theory_list:
        calls.clear()
        probe_certificate(t, samples=25)
        assert len(calls) == len(set(calls)), t.name


def _missing(*args):
    raise CapabilityMissing("T_leq_3", "spec_finite")


# (flag, catalog theory, instance patches that make its claim false, evidence).
# The empty cube is sampled first, so most failures name {}.
FALSE_CLAIMS = [
    ("decidable", MaxSizeTheory(3), {"decide_cube": lambda c: False},
     "decide says unsat but a finite model exists: {}"),
    ("CFS", MaxSizeTheory(3), {"spec_finite": lambda c, k: False},
     "finite membership of 1 disagrees with brute on {}"),
    ("CFS", MaxSizeTheory(3), {"spec_finite": _missing},
     "capability error: T_leq_3 does not support spec_finite"),
    ("ID", SizePinTheory(), {"spec_inf": lambda c: True, "decide_cube": lambda c: False},
     "infinite member claimed for unsatisfiable {}"),
    ("ID", MaxSizeTheory(3), {"spec_inf": lambda c: True},
     "never-infinite theory claims an infinite model of {}"),
    ("SI", EqualityTheory(), {"spec_inf": lambda c: False}, "satisfiable {} lacks an infinite model"),
    ("smooth", EqualityTheory(), {"model_check": lambda size, preds: size != 2},
     "window spectrum of {} is not upward closed: [1, 3, 4, 5, 6]"),
    ("smooth", EqualityTheory(), {"spec_inf": lambda c: False}, "{} has finite models but no infinite one"),
    ("FMP", EqualityTheory(), {"model_check": lambda size, preds: False},
     "satisfiable {} has no model within the probe bound"),
    ("minmod", EqualityTheory(), {"minmod_cube": lambda c: 99}, "minimum model of {}: got 99, brute says 1"),
    ("gentle", MaxSizeTheory(3), {"exact_spectrum": lambda c: ExactSpectrum(evens(), True)},
     "spectrum of {} is neither finite nor cofinite"),
    ("gentle", MaxSizeTheory(3), {"model_check": lambda size, preds: size <= 2},
     "materialized spectrum of {} disagrees with brute at 3"),
    ("n-shiny", StepTheory(4, 4), {"nshiny_classify": lambda c: None}, "no shape for satisfiable {}"),
    ("n-shiny", StepTheory(4, 4), {"nshiny_classify": lambda c: (3, 1)}, "bad shape (3, 1) for {}"),
    ("n-shiny", StepTheory(4, 4), {"nshiny_classify": lambda c: (2, 1)},
     "shape (2, 1) disagrees with brute at 1 on {}"),
]


@pytest.mark.parametrize(
    "flag, theory, patches, evidence", FALSE_CLAIMS, ids=[f"{row[0]}-{i}" for i, row in enumerate(FALSE_CLAIMS)]
)
def test_probe_reports_each_false_claim(flag, theory, patches, evidence, monkeypatch):
    for name, fake in patches.items():
        monkeypatch.setattr(theory, name, fake)
    (row,) = [r for r in probe_certificate(theory, samples=20) if r["flag"] == flag]
    assert (row["verdict"], row["evidence"]) == ("fail", evidence)


def test_probe_reports_a_witness_transform_that_changes_satisfiability(monkeypatch):
    # An unsatisfiable "witness" for every cube with one positive predicate.
    monkeypatch.setattr(classify, "witness_tgtnp", lambda t, c: c.with_literals([EqualityLiteral("x", "x", False)]))
    (row,) = [r for r in probe_certificate(BigModelTagTheory(2), samples=20) if r["flag"] == "finitely-witnessable"]
    assert row["verdict"] == "fail"
    assert row["evidence"].startswith("witness transform changes satisfiability of {P_")


def test_probe_reports_a_witness_without_a_model_on_its_own_variables(monkeypatch):
    def row(**kw):
        (got,) = [r for r in probe_certificate(BigModelTagTheory(2), **kw) if r["flag"] == "finitely-witnessable"]
        return got["verdict"], got["evidence"]

    # The real transform passes, also with a bound below every witness's size.
    for bound in (2, 6):
        assert row(bound=bound) == ("probe-pass", "sampled probe clean")
    # The identity keeps satisfiability, but {P_k} has no variables to carry
    # the model that its tag may force past the threshold.
    monkeypatch.setattr(classify, "witness_tgtnp", lambda t, c: c)
    verdict, evidence = row()
    assert verdict == "fail" and evidence.startswith("witness {P_")


def test_probe_fails_a_finitely_witnessable_claim_without_a_witness_transform():
    # T_inf has no finite model at all; claiming the flag without a
    # transform to check it must not read as a clean probe.
    t = InfiniteOnlyTheory()
    t.certificate = PropertyCertificate(
        cfs=True, smooth=True, infinitely_decidable=True, stably_infinite=True, finitely_witnessable=True
    )
    rows = {r["flag"]: r for r in probe_certificate(t)}
    assert rows["finitely-witnessable"]["verdict"] == "fail"
    assert rows["finitely-witnessable"]["evidence"] == (
        "no witness transform for T_inf: witness_tgtnp covers T_gt_n_P only"
    )
    # The other claims are true of T_inf and still probe clean.
    assert all(r["verdict"] != "fail" for f, r in rows.items() if f != "finitely-witnessable")


# -- refutations --------------------------------------------------------------------


def test_refute_si_structurally(catalog):
    verdict, evidence = refute_class(catalog["T_leq_3"], "SI")
    assert verdict == "fail"
    assert "clique" in evidence


def test_refute_cofqg_structurally(catalog):
    verdict, _ = refute_class(catalog["T_cs"], "co-F-QG")
    assert verdict == "fail"
    verdict, _ = refute_class(catalog["T_inf"], "co-F-QG")
    assert verdict == "fail"
    verdict, _ = refute_class(catalog["T_cfs"], "co-F-QG")
    assert verdict == "fail"


def test_refute_gentle_structurally_for_infinite_only(catalog):
    verdict, _ = refute_class(catalog["T_inf"], "gentle")
    assert verdict == "fail"


def test_refute_nshiny_structurally(catalog):
    verdict, _ = refute_class(catalog["T_leq_3"], "n-shiny", n=4)
    assert verdict == "fail"
    verdict, _ = refute_class(catalog["T_mn_4_5"], "n-shiny", n=4)
    assert verdict == "fail"


def test_refute_fqg_for_evens_cap(catalog):
    verdict, _ = refute_class(catalog["T_leq_S_evens"], "F-QG")
    assert verdict == "fail"


def test_refutation_samples_once_and_reads_each_exact_spectrum_once(theory_list, monkeypatch):
    samples, exacts = [], []
    sample_cubes, exact_spectrum = classify.sample_cubes, Theory.exact_spectrum

    def sampling(*args):
        samples.append(args)
        return sample_cubes(*args)

    def exact(self, cube):
        exacts.append(cube)
        return exact_spectrum(self, cube)

    monkeypatch.setattr(classify, "sample_cubes", sampling)
    monkeypatch.setattr(Theory, "exact_spectrum", exact)
    for t in theory_list:
        for cls in ("F-QG", "shiny", "gentle"):
            samples.clear()
            exacts.clear()
            refute_class(t, cls)
            assert len(samples) == 1, (t.name, cls)
            assert len(exacts) == len(set(exacts)), (t.name, cls)
    # F-QG over T_eq runs its own search and then co-F-QG's on the same cubes.
    by_name = {t.name: t for t in theory_list}
    exacts.clear()
    refute_class(by_name["T_eq"], "F-QG")
    assert 0 < len(exacts) <= DEFAULT_PROBE_SAMPLES


def test_refutations_that_need_the_tag_set_are_paper_level(catalog):
    for name, cls in [
        ("T_mn_2_5", "CFS"),
        ("T_si", "CFS"),
        ("T_d_4", "ID"),
        ("T_leq_S_evens", "ID"),
        ("Th_of(toy)", "ID"),
        ("T_si", "shiny"),
    ]:
        verdict, _ = refute_class(catalog[name], cls)
        assert verdict == "paper-level", (name, cls)


# -- lattice --------------------------------------------------------------------------


def test_lattice_has_15_edges_with_witnesses(theory_list):
    rep = build_lattice(theory_list)
    assert len(rep.edges) == 15
    assert set(rep.witnesses) == {f"{lo}<{hi}" for lo, hi in rep.edges}


class _FaultyCertificate:
    """A certificate whose membership test itself fails."""

    def member(self, cls, **_):
        raise RuntimeError(f"membership test for {cls} failed")


def test_lattice_membership_fault_raises_and_exits_2(theory_list, monkeypatch, capsys):
    # Last in the catalog: every edge finds its witness before it, so only
    # the placement step reads its membership.
    faulty = SimpleNamespace(name="faulty", certificate=_FaultyCertificate())
    with pytest.raises(RuntimeError, match="membership test for decidable failed"):
        build_lattice([*theory_list, faulty])
    all_theories = Registry.all_theories
    monkeypatch.setattr(Registry, "all_theories", lambda self: [*all_theories(self), faulty])
    assert main(["lattice"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "membership test for decidable failed" in out.err


def test_lattice_placements_match_expected(theory_list):
    rep = build_lattice(theory_list)
    expected = {
        "T_d_4": ["decidable"],
        "T_d_3": ["n-decidable"],
        "T_cfs": ["CFS"],
        "T_mn_4_5": ["ID"],
        "T_cs": ["CS"],
        "T_si": ["SI"],
        "T_leq_3": ["gentle"],
        "T_inf": ["SM+CS"],
        "T_ns_4": ["n-shiny"],
        "T_geq_2": ["shiny"],
        "T_eq": ["shiny"],
    }
    for name, classes in expected.items():
        assert rep.placements[name] == classes, name


def test_lattice_size_cap_placements(theory_list, catalog):
    rep = build_lattice(theory_list)
    assert rep.placements[catalog["T_leq_S_evens"].name] == ["co-F-QG"]
    assert rep.placements[catalog["T_leq_S_all"].name] == ["F-QG"]


def test_lattice_dot_output(theory_list):
    dot = build_lattice(theory_list).to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 15


def test_strict_edge_witness_examples(theory_list, catalog):
    rep = build_lattice(theory_list)
    # a theory with computable finite spectra that is not co-quasi-gentle
    assert rep.witnesses["co-F-QG<CFS"] == "T_inf"
    # gentle but not n-shiny at the lattice cardinality
    w = rep.witnesses["n-shiny<gentle"]
    assert not catalog[w].certificate.is_n_shiny(4)
    # stably infinite only
    w = rep.witnesses["SM+CS<SI"]
    assert catalog[w].certificate.stably_infinite and not catalog[w].certificate.sm_cs


# -- filters ----------------------------------------------------------------------------


def test_frechet_membership():
    assert frechet().member(evens()) == NO
    assert frechet().member(finite_set([1, 2]).complement()) == YES


def test_generated_filter_membership_exact():
    f12 = bitzero_filter({1, 2})
    assert f12.member(bitzero(1)) == YES
    assert f12.member(bitzero(1).intersect(bitzero(2))) == YES
    assert f12.member(odds()) == NO
    assert f12.member(finite_set([2]).complement()) == YES  # cofinite refinement


def test_generators_must_have_infinite_intersections():
    with pytest.raises(ValueError):
        FreeFilter((evens(), odds()))


def test_filter_inclusion_examples():
    # strict inclusion with an explicit separating generator
    f1, f2, f12 = bitzero_filter({1}), bitzero_filter({2}), bitzero_filter({1, 2})
    assert filter_includes(f1, f12) == YES
    assert filter_includes(f12, f1) == NO
    assert bitzero_filter({1, 2}).member(bitzero(2)) == YES
    assert bitzero_filter({1}).member(bitzero(2)) == NO
    # incomparability of distinct singletons
    assert filter_includes(f1, f2) == NO
    assert filter_includes(f2, f1) == NO
    # the Fréchet filter sits below everything
    assert filter_includes(frechet(), bitzero_filter({3})) == YES


def test_filter_chain_demo_report():
    report = filter_chain_demo(5)
    assert report["ok"]
    assert len(report["chain"]) == 36
    assert len(report["antichain"]) == 20


@dataclass(frozen=True)
class _ReferenceFrechet:
    """The Fréchet filter as a type of its own: exactly the cofinite sets,
    and no generators."""

    name: str = "frechet"
    generators: tuple = ()

    def member(self, s):
        return YES if s.is_cofinite() else NO


def _eventually_periodic_samples(rng):
    sets = [evens(), odds(), empty_set(), *(bitzero(i) for i in range(1, 5))]
    sets += [upfrom(n) for n in (1, 2, 7, 40)]
    for _ in range(40):
        sets.append(finite_set(rng.sample(range(1, 30), rng.randint(0, 5))))
        sets.append(cofinite_excluding(rng.sample(range(1, 30), rng.randint(0, 5))))
        p, q = rng.randint(0, 5), rng.randint(1, 6)
        pre = "".join(rng.choice("01") for _ in range(p))
        per = "".join(rng.choice("01") for _ in range(q))
        sets.append(parse_set_literal(f"periodic:p={p},q={q},pre={pre},per={per}"))
    return sets


class _SubsetLoopFilter:
    """The replaced generator check: every nonempty generator subfamily
    must have an infinite intersection."""

    def __init__(self, generators):
        for size in range(1, len(generators) + 1):
            for combo in itertools.combinations(generators, size):
                if reduce(lambda a, b: a.intersect(b), combo).is_finite():
                    raise ValueError("generators lack the strong finite intersection property")
        self.generators = generators

    def member(self, s):
        core = reduce(lambda a, b: a.intersect(b), self.generators, upfrom(1))
        return YES if core.difference(s).is_finite() else NO


def test_core_check_matches_the_subset_loop():
    rng = random.Random(41)
    pool = [*(bitzero(i) for i in range(1, 6)), evens(), odds(), finite_set([2, 4, 6]), cofinite_excluding([1, 3])]
    probes = _eventually_periodic_samples(random.Random(43))
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        gens = tuple(rng.sample(pool, rng.randint(0, 6)))
        try:
            ref = _SubsetLoopFilter(gens)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                FreeFilter(gens)
            outcomes[False] += 1
            continue
        filt = FreeFilter(gens)
        assert [filt.member(s) for s in probes] == [ref.member(s) for s in probes], gens
        outcomes[True] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_frechet_is_the_free_filter_without_generators():
    samples = _eventually_periodic_samples(random.Random(23))
    ref = _ReferenceFrechet()
    for s in samples:
        assert frechet().member(s) == ref.member(s), s
    filters = [frechet(), ref, *(bitzero_filter(i) for i in ({1}, {2, 3}, {1, 2, 4}))]
    filters += [FreeFilter((s,)) for s in samples if not s.is_finite()]
    assert any(filter_includes(f, ref) == YES for f in filters[5:])
    assert any(filter_includes(f, ref) == NO for f in filters[5:])
    for f in filters:
        assert filter_includes(frechet(), f) == filter_includes(ref, f) == YES, f
        assert filter_includes(f, frechet()) == filter_includes(f, ref), f
