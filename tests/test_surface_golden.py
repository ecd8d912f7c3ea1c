"""Golden digest of the probe, refutation, diagonal and parser surfaces.

Hashes every catalog theory's certificate probes and class refutations,
the diagonal construction's per-formula verdicts, filter inclusion, and
the message and offset of the ParseError raised for malformed predicate
forms.  A change that moves any verdict, evidence string or raise point
changes the digest.
"""

import hashlib

from combinekit.catalog import default_catalog, toy_inner_theory
from combinekit.classify import (
    bitzero_filter,
    filter_chain_demo,
    probe_certificate,
    refute_class,
)
from combinekit.diagonal import intersect_from_run
from combinekit.errors import ParseError
from combinekit.filters import filter_includes
from combinekit.formulas import parse_formula
from combinekit.properties import CLASSES
from combinekit.registry import load_registry
from combinekit.theories import FormulaEnumeration

GOLDEN = "f09e7e1358bf"

MALFORMED = (
    "(pred)",
    "(pred p 1)",
    "(pred P 0)",
    "(pred P x)",
    "(pred P 1",
    "(pred P FOO)",
    "(P 0)",
    "(P x)",
    "(P 1 (",
    "(P Q)",
    "(P 1))",
    "(Q inf 2",
)


def _answer(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except Exception as e:  # the raise point is part of the surface
        return type(e).__name__


def _lines():
    theories = default_catalog()
    filters = (None, bitzero_filter({1}), bitzero_filter({1, 2}))
    for t in theories:
        yield f"probe|{t.name}|" + _answer(probe_certificate, t, samples=25)
        for cls in CLASSES:
            for n in (1, 4):
                yield f"refute|{t.name}|{cls}|{n}|" + _answer(refute_class, t, cls, n=n)
        for filt in filters[1:]:
            for cls in ("F-QG", "co-F-QG"):
                yield f"refute|{t.name}|{cls}|{filt.name}|" + _answer(refute_class, t, cls, filt=filt)
    registry = load_registry()
    for name in ("T_leq_2", "T_leq_3", "toy", "T_eq_P"):
        t = toy_inner_theory() if name == "toy" else registry.resolve(name)
        enum = FormulaEnumeration(t)
        verdicts = [_answer(intersect_from_run, t, fid, enum) for fid in range(1, 41)]
        yield f"diagonal|{name}|" + ",".join(verdicts)
    yield "chain|" + repr(filter_chain_demo(4))
    for s1 in ({1}, {2}, {1, 2}, set()):
        for s2 in ({1}, {2}, {1, 2}, set()):
            verdict = filter_includes(bitzero_filter(s1), bitzero_filter(s2))
            yield f"inclusion|{sorted(s1)}|{sorted(s2)}|{verdict}"
    for text in MALFORMED:
        try:
            got = repr(parse_formula(text))
        except ParseError as e:
            got = f"{e}|{e.offset}"
        yield f"parse|{text}|{got}"


def surface_digest() -> str:
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:12]


def test_probe_refute_diagonal_parse_surface_digest():
    assert surface_digest() == GOLDEN
