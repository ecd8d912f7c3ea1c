"""Theory combination property certificates and their inclusion lattice.

A certificate records which combination-relevant properties a theory's
implementation actually supports.  `PropertyCertificate` is the one way
to build one (`certificate` is another name for it), and building one
closes the declared classes upward along the inclusion lattice
(`LATTICE_EDGES`, 15 edges): every implied property is filled in, and an
explicit denial of an implied property is rejected.  `CLASS_TABLE`
states each class's facts once: the parameter its membership needs, its
membership test, and the declared field that membership forces.

Parameterized properties are set-valued.  n-decidability holds on a set
of sizes; F-QG holds for the free filters that contain a set, and co-F-QG
for those that do not contain a set's complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import CombineKitError
from .filters import NO, YES, FreeFilter
from .sets import ALL, EMPTY, EvPeriodicSet

# (lower, upper) inclusion edges of the property lattice.
LATTICE_EDGES = (
    ("n-decidable", "decidable"),
    ("ID", "decidable"),
    ("CFS", "n-decidable"),
    ("co-F-QG", "CFS"),
    ("CS", "CFS"),
    ("CS", "ID"),
    ("SI", "ID"),
    ("F-QG", "co-F-QG"),
    ("gentle", "F-QG"),
    ("gentle", "CS"),
    ("SM+CS", "CS"),
    ("SM+CS", "SI"),
    ("n-shiny", "gentle"),
    ("shiny", "n-shiny"),
    ("shiny", "SM+CS"),
)

# The order-reversing involution on the lattice that the paper's Galois
# connection induces: a combination method whose side-1 theory is in a
# class needs its side-2 theory in the class's partner.
_PARTNER_PAIRS = (
    ("shiny", "decidable"),
    ("n-shiny", "n-decidable"),
    ("gentle", "CFS"),
    ("SM+CS", "ID"),
    ("F-QG", "co-F-QG"),
    ("CS", "CS"),
    ("SI", "SI"),
)
PARTNER = {a: b for pair in _PARTNER_PAIRS for a, b in (pair, pair[::-1])}


@dataclass(frozen=True, kw_only=True)
class PropertyCertificate:
    """A theory's place in the property lattice, closed when it is built.

    ``None`` means "derive"; an explicit ``False`` (or ``EMPTY``) that an
    implication forces raises :class:`CertificateViolation`.  The set
    fields: the theory is k-decidable for k in ``n_decidable_sizes``,
    F-QG for every filter that contains ``fqg_set``, and co-F-QG for
    every filter that does not contain ``cofqg_set``'s complement.
    Apart from the lattice edges, four implications hold: shiny gives
    fmp and minimal-model computability, smoothness gives SI, a
    never-infinite theory decides the infinite question, and
    quasi-gentleness for some filters needs computable finite spectra.
    A closed certificate is its own closure under ``dataclasses.replace``.

    Strong politeness has no node: for decidable theories it coincides
    with shininess (Casal & Rasga, JAR 2018).  ``finitely_witnessable``
    records only the witness transform that a classify probe checks.
    """

    cfs: bool | None = None
    infinitely_decidable: bool | None = None
    stably_infinite: bool | None = None
    smooth: bool | None = None
    fmp: bool | None = None
    minmod_computable: bool | None = None
    gentle: bool | None = None
    shiny: bool = False
    never_infinite: bool = False
    finitely_witnessable: bool = False
    n_shiny_param: int | None = None
    n_decidable_sizes: EvPeriodicSet | None = None
    fqg_set: EvPeriodicSet | None = None
    cofqg_set: EvPeriodicSet | None = None

    def __post_init__(self):
        fields = dict(vars(self))

        def force(name: str, value, why: str):
            if fields[name] is False or fields[name] == EMPTY:
                raise CertificateViolation(f"{name} denied but implied by {why}")
            fields[name] = value

        if self.shiny:
            force("fmp", True, "shiny")
            force("minmod_computable", True, "shiny")
        # The classes the declaration states, with the three non-edge
        # implications folded in: smooth -> SI, never infinite -> ID, and
        # (co-)F-QG for some filters -> CFS.
        partial = any(s not in (None, EMPTY, ALL) for s in (self.fqg_set, self.cofqg_set))
        stated = {
            "shiny": self.shiny,
            "n-shiny": self.n_shiny_param is not None,
            "gentle": self.gentle,
            "F-QG": self.fqg_set == ALL,
            "co-F-QG": self.cofqg_set == ALL,
            "SI": self.stably_infinite or self.smooth,
            "ID": self.infinitely_decidable or self.never_infinite,
            "CFS": self.cfs or partial,
        }
        closed = frozenset().union(*(class_ancestors(c) for c, on in stated.items() if on))
        for cls, (_, _, forced) in CLASS_TABLE.items():
            if forced and cls in closed:
                force(*forced, f"{cls} in the lattice")
        if self.never_infinite and "SI" in closed:
            raise CertificateViolation("never_infinite contradicts stable infiniteness (and smoothness)")
        for name, value in fields.items():
            if name.endswith(("_sizes", "_set")):
                value = EMPTY if value is None else value
            elif name != "n_shiny_param":
                value = bool(value)
            object.__setattr__(self, name, value)

    # -- derived classes -----------------------------------------------

    @property
    def cs(self) -> bool:
        return self.cfs and self.infinitely_decidable

    @property
    def sm_cs(self) -> bool:
        return self.smooth and self.cs

    def is_n_decidable(self, k: int) -> bool:
        return self.cfs or k in self.n_decidable_sizes

    def is_n_shiny(self, n: int) -> bool:
        return self.shiny or self.n_shiny_param == n

    def is_fqg(self, filt: FreeFilter) -> bool:
        return self.gentle or filt.member(self.fqg_set) == YES

    def is_cofqg(self, filt: FreeFilter) -> bool:
        return self.is_fqg(filt) or filt.member(self.cofqg_set.complement()) == NO

    def member(self, cls: str, *, n: int | None = None, filt: FreeFilter | None = None) -> bool:
        """Membership of this theory in a lattice class; n-decidable and
        n-shiny need ``n``, F-QG and co-F-QG need ``filt``."""
        if cls not in CLASS_TABLE:
            raise ValueError(f"unknown class {cls!r}")
        param, test, _ = CLASS_TABLE[cls]
        arg = {"n": n, "filt": filt}.get(param)
        if param is not None and arg is None:
            raise ValueError(f"membership in {cls} needs {param}")
        return test(self, arg)


# Each lattice class, top to bottom, as (the parameter its membership
# needs, its test, the declared field that membership forces with the
# value it forces, or None).
CLASS_TABLE = {
    "decidable": (None, lambda c, _: True, None),
    "n-decidable": ("n", PropertyCertificate.is_n_decidable, None),
    "CFS": (None, lambda c, _: c.cfs, ("cfs", True)),
    "ID": (None, lambda c, _: c.infinitely_decidable, ("infinitely_decidable", True)),
    "co-F-QG": ("filt", PropertyCertificate.is_cofqg, ("cofqg_set", ALL)),
    "CS": (None, lambda c, _: c.cs, None),
    "SI": (None, lambda c, _: c.stably_infinite, ("stably_infinite", True)),
    "F-QG": ("filt", PropertyCertificate.is_fqg, ("fqg_set", ALL)),
    "gentle": (None, lambda c, _: c.gentle, ("gentle", True)),
    "SM+CS": (None, lambda c, _: c.sm_cs, ("smooth", True)),
    "n-shiny": ("n", PropertyCertificate.is_n_shiny, None),
    "shiny": (None, lambda c, _: c.shiny, None),
}
CLASSES = tuple(CLASS_TABLE)  # lattice node names, top to bottom


@cache
def class_ancestors(cls: str) -> frozenset[str]:
    """The class and everything reachable upward from it."""
    return frozenset({cls}).union(*(class_ancestors(hi) for lo, hi in LATTICE_EDGES if lo == cls))


class CertificateViolation(CombineKitError, ValueError):
    """An explicit flag contradicts a lattice implication."""


certificate = PropertyCertificate
