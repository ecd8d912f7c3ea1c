"""combinekit: spectrum-based disjoint theory combination.

Quantifier-free decision procedures for a catalog of cardinality-
constraining theories, all standard spectrum-intersection combination
methods behind one shell, a brute-force finite-model oracle to referee
them, property certificates with their inclusion lattice, and an
executable non-cofinite-set diagonalization.
"""

from .combine import (
    CS,
    GENTLE,
    NELSON_OPPEN,
    SHINY,
    SMCS,
    CombinationVerdict,
    Method,
    combine_decide,
    method_applicable,
    n_shiny,
    quasi_gentle,
    select_method,
)
from .errors import (
    CapabilityMissing,
    CombineKitError,
    IterationCapExceeded,
    MethodNotApplicable,
    ParseError,
    SetBoundExceeded,
    SignatureError,
)
from .formulas import (
    Arrangement,
    Cube,
    EqualityLiteral,
    PredicateId,
    PredicateLiteral,
    Signature,
    arrangement_to_cube,
    enumerate_arrangements,
    iter_dnf,
    neq_clique,
    parse_formula,
    split_by_signature,
    to_dnf,
)
from .sets import ALEPH0, Card, EvPeriodicSet, bitzero, evens, parse_set_literal, upfrom
from .spectra import ExactSpectrum, SpectrumView, view
from .theories import FOracle, Reading, Theory, identity_oracle

__version__ = "0.1.0"

__all__ = [
    "ALEPH0",
    "Arrangement",
    "CS",
    "CapabilityMissing",
    "Card",
    "CombinationVerdict",
    "CombineKitError",
    "Cube",
    "EqualityLiteral",
    "EvPeriodicSet",
    "ExactSpectrum",
    "FOracle",
    "GENTLE",
    "IterationCapExceeded",
    "Method",
    "MethodNotApplicable",
    "NELSON_OPPEN",
    "ParseError",
    "PredicateId",
    "PredicateLiteral",
    "Reading",
    "SHINY",
    "SMCS",
    "SetBoundExceeded",
    "SignatureError",
    "Signature",
    "SpectrumView",
    "Theory",
    "arrangement_to_cube",
    "bitzero",
    "combine_decide",
    "enumerate_arrangements",
    "evens",
    "identity_oracle",
    "iter_dnf",
    "method_applicable",
    "n_shiny",
    "neq_clique",
    "parse_formula",
    "parse_set_literal",
    "quasi_gentle",
    "select_method",
    "split_by_signature",
    "to_dnf",
    "upfrom",
    "view",
]
