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
from combinekit.sets import evens, finite_set


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
    n_decidable_rule=None,
    fqg_rule=None,
    cofqg_rule=None,
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
        "fqg_rule": fqg_rule,
        "cofqg_rule": cofqg_rule,
    }

    def force(name, value, why):
        if fields[name] is False or fields[name] == ("none",):
            raise CertificateViolation(f"{name} denied but implied by {why}")
        if value is not None:
            fields[name] = value

    if shiny:
        force("fmp", True, "shiny")
        force("minmod_computable", True, "shiny")
    partial_rule = any(r not in (None, ("none",), ("all",)) for r in (fqg_rule, cofqg_rule))
    stated = {
        "shiny": shiny,
        "n-shiny": n_shiny_param is not None,
        "gentle": gentle,
        "F-QG": fqg_rule == ("all",),
        "co-F-QG": cofqg_rule == ("all",),
        "SI": stably_infinite or smooth,
        "ID": infinitely_decidable or never_infinite,
        "CFS": cfs or partial_rule,
    }
    closed = frozenset().union(*(class_ancestors(c) for c, on in stated.items() if on))
    for cls, (_, _, forced) in CLASS_TABLE.items():
        if forced and cls in closed:
            force(*forced, f"{cls} in the lattice")
    if never_infinite and "SI" in closed:
        raise CertificateViolation("never_infinite contradicts stable infiniteness (and smoothness)")
    return dict(
        **{k: bool(v) for k, v in fields.items() if not k.endswith("_rule")},
        shiny=bool(shiny),
        never_infinite=bool(never_infinite),
        finitely_witnessable=bool(finitely_witnessable),
        n_shiny_param=n_shiny_param,
        n_decidable_rule=n_decidable_rule or ("none",),
        fqg_rule=fields["fqg_rule"] or ("none",),
        cofqg_rule=fields["cofqg_rule"] or ("none",),
    )


_FLAG = (None, True, True, False, 0, 1)
_FILTER_RULES = (None, ("none",), ("all",), ("all",), ("set-in-filter", evens()), ("complement-not-in-filter", evens()))
_DOMAINS = {
    **dict.fromkeys(
        ("cfs", "infinitely_decidable", "stably_infinite", "smooth", "fmp", "minmod_computable", "gentle"), _FLAG
    ),
    **dict.fromkeys(("shiny", "never_infinite", "finitely_witnessable"), (None, True, False, 0, 1)),
    "n_shiny_param": (None, 1, 4),
    "n_decidable_rule": (None, ("none",), ("all",), ("geq", 3), ("only", finite_set([4])), ("except", finite_set([2]))),
    "fqg_rule": _FILTER_RULES,
    "cofqg_rule": _FILTER_RULES,
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
    # replace() closes again: closed shiny stores cofqg_rule=("none",),
    # which the co-F-QG class it reaches rejects.
    with pytest.raises(CertificateViolation, match="cofqg_rule denied"):
        dataclasses.replace(certificate(shiny=True))


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
