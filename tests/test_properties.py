"""Certificate construction: the dataclass closes itself under the lattice.

The differential test pins `PropertyCertificate` to a copy of the keyword
builder it replaced, which built a closed certificate from a separate
14-keyword function.
"""

import dataclasses
import random

import pytest

from combinekit.errors import CombineKitError
from combinekit.properties import (
    CLASS_TABLE,
    CLASSES,
    LATTICE_EDGES,
    CertificateViolation,
    PropertyCertificate,
    certificate,
    class_ancestors,
)
from combinekit.classify import bitzero_filter
from combinekit.filters import NO, YES
from combinekit.sets import ALL, EMPTY, bitzero, cofinite_excluding, evens, finite_set, odds, upfrom


def _reference_fields(
    *,
    cfs=None,
    infinitely_decidable=None,
    stably_infinite=None,
    smooth=None,
    fmp=None,
    minmod_computable=None,
    gentle=None,
    shiny=False,
    never_infinite=False,
    finitely_witnessable=False,
    n_shiny_param=None,
    n_decidable_sizes=None,
    fqg_set=None,
    cofqg_set=None,
):
    """The replaced keyword builder, returning the closed field values."""
    fields = {
        "cfs": cfs,
        "infinitely_decidable": infinitely_decidable,
        "stably_infinite": stably_infinite,
        "smooth": smooth,
        "fmp": fmp,
        "minmod_computable": minmod_computable,
        "gentle": gentle,
        "fqg_set": fqg_set,
        "cofqg_set": cofqg_set,
    }

    def force(name, value, why):
        if fields[name] is False or fields[name] == EMPTY:
            raise CertificateViolation(f"{name} denied but implied by {why}")
        if value is not None:
            fields[name] = value

    if shiny:
        force("fmp", True, "shiny")
        force("minmod_computable", True, "shiny")
    partial_set = any(r not in (None, EMPTY, ALL) for r in (fqg_set, cofqg_set))
    stated = {
        "shiny": shiny,
        "n-shiny": n_shiny_param is not None,
        "gentle": gentle,
        "F-QG": fqg_set == ALL,
        "co-F-QG": cofqg_set == ALL,
        "SI": stably_infinite or smooth,
        "ID": infinitely_decidable or never_infinite,
        "CFS": cfs or partial_set,
    }
    closed = frozenset().union(*(class_ancestors(c) for c, on in stated.items() if on))
    for cls, (_, _, forced) in CLASS_TABLE.items():
        if forced and cls in closed:
            force(*forced, f"{cls} in the lattice")
    if never_infinite and "SI" in closed:
        raise CertificateViolation("never_infinite contradicts stable infiniteness (and smoothness)")
    return dict(
        **{k: bool(v) for k, v in fields.items() if not k.endswith("_set")},
        shiny=bool(shiny),
        never_infinite=bool(never_infinite),
        finitely_witnessable=bool(finitely_witnessable),
        n_shiny_param=n_shiny_param,
        n_decidable_sizes=n_decidable_sizes or EMPTY,
        fqg_set=fields["fqg_set"] or EMPTY,
        cofqg_set=fields["cofqg_set"] or EMPTY,
    )


_FLAG = (None, True, True, False, 0, 1)
_FILTER_SETS = (None, EMPTY, ALL, ALL, evens(), odds())
_DOMAINS = {
    **dict.fromkeys(
        ("cfs", "infinitely_decidable", "stably_infinite", "smooth", "fmp", "minmod_computable", "gentle"), _FLAG
    ),
    **dict.fromkeys(("shiny", "never_infinite", "finitely_witnessable"), (None, True, False, 0, 1)),
    "n_shiny_param": (None, 1, 4),
    "n_decidable_sizes": (None, EMPTY, ALL, upfrom(3), finite_set([4]), cofinite_excluding([2])),
    "fqg_set": _FILTER_SETS,
    "cofqg_set": _FILTER_SETS,
}


def _outcome(build, kw):
    try:
        got = build(**kw)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e)
    if isinstance(got, PropertyCertificate):
        got = {f.name: getattr(got, f.name) for f in dataclasses.fields(got)}
    return {name: repr(value) for name, value in got.items()}


def test_construction_matches_the_replaced_builder():
    rng = random.Random(31)
    built, violations = 0, set()
    for _ in range(20_000):
        kw = {name: rng.choice(dom) for name, dom in _DOMAINS.items() if rng.random() < 0.5}
        want = _outcome(_reference_fields, kw)
        assert _outcome(PropertyCertificate, kw) == want, kw
        if isinstance(want, dict):
            built += 1
        else:
            violations.add(want)
    # A third or more construct, and every one of the ten violations is met:
    # two from shiny, seven forced classes, and never_infinite against SI.
    assert built >= 20_000 // 3
    assert len(violations) == 10 and {cls for cls, _ in violations} == {CertificateViolation}


def test_every_instance_is_closed():
    assert certificate is PropertyCertificate
    assert PropertyCertificate(gentle=True).cfs is True
    assert PropertyCertificate(gentle=True) == PropertyCertificate(cfs=True, infinitely_decidable=True, gentle=True)
    with pytest.raises(CertificateViolation, match="smooth denied but implied by SM\\+CS"):
        PropertyCertificate(shiny=True, smooth=False)
    with pytest.raises(TypeError):
        PropertyCertificate(True)  # keyword-only
    # replace() closes again, and a closed certificate is its own closure:
    # shiny reaches co-F-QG, which stores cofqg_set=ALL.
    assert certificate(shiny=True).cofqg_set == ALL
    assert dataclasses.replace(certificate(shiny=True)) == certificate(shiny=True)


def test_certificate_violation_is_a_typed_error():
    with pytest.raises(CertificateViolation) as info:
        certificate(shiny=True, smooth=False)
    assert isinstance(info.value, CombineKitError) and isinstance(info.value, ValueError)


def test_class_ancestors_is_the_upward_closure():
    for cls in CLASSES:
        out, changed = {cls}, True
        while changed:
            changed = False
            for lo, hi in LATTICE_EDGES:
                if lo in out and hi not in out:
                    out.add(hi)
                    changed = True
        assert class_ancestors(cls) == frozenset(out), cls


# -- the set-valued fields against the rule forms they replaced --------------


def _eval_ndec(rule, k):
    """The replaced n-decidability rule reader."""
    kind = rule[0]
    if kind == "all":
        return True
    if kind == "geq":
        return k >= rule[1]
    if kind == "except":
        return k not in rule[1]
    if kind == "only":
        return k in rule[1]
    return False


def _eval_filter_rule(rule, filt):
    """The replaced (co-)quasi-gentleness rule reader."""
    kind = rule[0]
    if kind == "all":
        return True
    if kind == "set-in-filter":
        return filt.member(rule[1]) == YES
    if kind == "complement-not-in-filter":
        return filt.member(rule[1].complement()) == NO
    return False


# The lattice golden's four filters.
_GOLDEN_FILTERS = tuple(bitzero_filter(ix) for ix in (set(), {1}, {1, 2}, {2}))
_RULE_SETS = (evens(), odds(), bitzero(1), bitzero(2), bitzero(3), upfrom(5), cofinite_excluding([1, 4]))


def test_n_decidable_sizes_match_the_replaced_rules():
    forms = [(("all",), ALL), (("none",), EMPTY)]
    for k in (1, 2, 3, 5, 9):
        forms.append((("geq", k), upfrom(k)))
    for members in ({2}, {1, 4}, {3, 5, 6}, set()):
        forms.append((("except", frozenset(members)), cofinite_excluding(members)))
        forms.append((("only", frozenset(members)), finite_set(members)))
    for rule, sizes in forms:
        cert = certificate(n_decidable_sizes=sizes)
        for n in range(1, 9):
            assert cert.is_n_decidable(n) == _eval_ndec(rule, n), (rule, n)
            assert cert.member("n-decidable", n=n) == _eval_ndec(rule, n), (rule, n)


def test_filter_sets_match_the_replaced_rules():
    # The kept forms: F-QG through set-in-filter, co-F-QG through
    # complement-not-in-filter, and "all"/"none" for both.
    fqg = [(("all",), ALL), (("none",), EMPTY), *((("set-in-filter", s), s) for s in _RULE_SETS)]
    cofqg = [(("all",), ALL), (("none",), EMPTY), *((("complement-not-in-filter", s), s) for s in _RULE_SETS)]
    seen = set()
    for filt in _GOLDEN_FILTERS:
        for rule, s in fqg:
            got = certificate(fqg_set=s).is_fqg(filt)
            assert got == _eval_filter_rule(rule, filt), (rule, filt.name)
            seen.add(("F-QG", got))
        for rule, s in cofqg:
            cert = certificate(cofqg_set=s)
            assert not cert.is_fqg(filt)  # a co-F-QG set alone never gives F-QG
            got = cert.is_cofqg(filt)
            assert got == _eval_filter_rule(rule, filt), (rule, filt.name)
            seen.add(("co-F-QG", got))
    assert len(seen) == 4
