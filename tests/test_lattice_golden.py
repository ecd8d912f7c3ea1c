"""Golden digest of the property-lattice surface.

Hashes three things: the closure `certificate()` computes (or the class
of the exception it raises) over seeded keyword combinations, the class
membership grid of every closed and every catalog certificate, and the
method applicability, hypothesis report and auto-selection over every
ordered catalog pair.  A change that moves any implication, membership
or method hypothesis changes the digest.
"""

import dataclasses
import hashlib
import itertools
import random

from combinekit.catalog import default_catalog
from combinekit.classify import bitzero_filter
from combinekit.combine import (
    CS,
    GENTLE,
    NELSON_OPPEN,
    SHINY,
    SMCS,
    hypothesis_diff,
    method_applicable,
    n_shiny,
    quasi_gentle,
    select_method,
)
from combinekit.properties import CLASSES, CertificateViolation, certificate
from combinekit.sets import ALL, EMPTY, bitzero, cofinite_excluding, finite_set, upfrom

GOLDEN = "1b7d75a4f1f2"

FILTERS = (
    bitzero_filter(set()),
    bitzero_filter({1}),
    bitzero_filter({1, 2}),
    bitzero_filter({2}),
)
TRI = (None, None, False, True)  # mostly "derive"
TRI_FLAGS = (
    "cfs",
    "infinitely_decidable",
    "stably_infinite",
    "smooth",
    "fmp",
    "minmod_computable",
    "gentle",
)
BOOL_FLAGS = ("shiny", "never_infinite", "finitely_witnessable")
NDEC_SIZES = (None, EMPTY, ALL, upfrom(3), cofinite_excluding([2]), finite_set([4]))
FILTER_SETS = (None, EMPTY, ALL, bitzero(1), bitzero(2))
CONSTRUCTIONS = 6000


def _grid(cert) -> str:
    return "".join(
        "1" if cert.member(cls, n=n, filt=filt) else "0"
        for cls in CLASSES
        for n in range(1, 7)
        for filt in FILTERS
    )


def _flags(cert) -> str:
    fields = [repr(getattr(cert, f.name)) for f in dataclasses.fields(cert)]
    return "|".join(fields + [repr(cert.cs), repr(cert.sm_cs)])


def _constructions():
    """The seeded keyword combinations the digest builds certificates from."""
    rng = random.Random(4)
    for _ in range(CONSTRUCTIONS):
        kw = {f: rng.choice(TRI) for f in TRI_FLAGS}
        kw.update({f: rng.random() < 0.2 for f in BOOL_FLAGS})
        kw["n_shiny_param"] = rng.choice((None, 1, 4))
        kw["n_decidable_sizes"] = rng.choice(NDEC_SIZES)
        kw["fqg_set"] = rng.choice(FILTER_SETS)
        kw["cofqg_set"] = rng.choice(FILTER_SETS)
        yield kw


def _certificate_lines():
    for kw in _constructions():
        try:
            cert = certificate(**kw)
            got = f"{_flags(cert)}|{_grid(cert)}"
        except Exception as e:  # which declarations are rejected is part of the surface
            got = type(e).__name__
        yield f"{sorted(kw.items(), key=lambda kv: kv[0])}|{got}"


METHODS = (
    SHINY,
    NELSON_OPPEN,
    GENTLE,
    SMCS,
    CS,
    *(n_shiny(n) for n in range(1, 7)),
    *(quasi_gentle(f) for f in FILTERS),
)


def _pair_lines(theories):
    for t1, t2 in itertools.product(theories, repeat=2):
        picked = select_method(t1, t2)
        auto = None if picked is None else (picked[0].label(), picked[1])
        cells = [
            f"{int(method_applicable(m, t1, t2))}:{hypothesis_diff(m, t1, t2)}" for m in METHODS
        ]
        yield f"{t1.name}|{t2.name}|{auto}|" + "|".join(cells)


def lattice_digest() -> str:
    theories = default_catalog()
    h = hashlib.sha256()
    for line in _certificate_lines():
        h.update(line.encode() + b"\n")
    for t in theories:
        h.update(f"{t.name}|{_grid(t.certificate)}\n".encode())
    for line in _pair_lines(theories):
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:12]


def test_lattice_surface_digest():
    assert lattice_digest() == GOLDEN


def test_every_closed_certificate_is_its_own_closure():
    closed = [t.certificate for t in default_catalog()]
    for kw in _constructions():
        try:
            closed.append(certificate(**kw))
        except CertificateViolation:
            pass
    assert len(closed) > 26
    for cert in closed:
        assert dataclasses.replace(cert) == cert, cert
