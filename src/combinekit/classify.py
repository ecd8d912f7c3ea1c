"""Catalog-level property verification: certificate probes, the property
inclusion lattice with strictness witnesses, and generated-filter
structure demonstrations.

Probes are sampled evidence, never proofs: a clean run of a claimed
capability reports ``pass`` (or ``probe-pass`` for properties that only
admit bounded corroboration, like smoothness), a sampled counterexample
reports ``fail``.  Refutations of unclaimed classes distinguish
structural witnesses from separations that rest on the undecidable
parameters, which are reported as paper-level only.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .brute import brute_sat_at, brute_spectrum, random_cube
from .catalog import BigModelTagTheory, witness_tgtnp
from .errors import CapabilityMissing
from .filters import NO, YES, FreeFilter, filter_includes, frechet
from .formulas import Cube, PredicateLiteral
from .properties import CLASSES, LATTICE_EDGES
from .sets import bitzero, finite_set, upfrom
from .spectra import ExactSpectrum, view
from .theories import Theory

DEFAULT_PROBE_SAMPLES = 40
DEFAULT_PROBE_BOUND = 6


def sample_cubes(theory: Theory, count: int, rng: random.Random) -> list[Cube]:
    """Deterministic probe inputs: the empty cube, a few single positive
    predicates, then random cubes."""
    cubes = [Cube(())]
    for _ in range(4):
        pid = theory.sample_pred(rng)
        if pid is not None:
            cubes.append(Cube((PredicateLiteral(pid, True),)))
    while len(cubes) < count:
        cubes.append(random_cube(theory, rng))
    return cubes[:count]


def _shape_ok_for_nshiny(spec: ExactSpectrum, n: int) -> bool:
    if spec.is_empty():
        return True
    if not spec.has_inf:
        return spec.finite_part == finite_set([n])
    fp = spec.finite_part
    m = fp.min_element()
    if m is None:
        return False  # only the infinite cardinality: not a legal shape
    if fp == upfrom(m):
        return True
    if m != n:
        return False
    rest = fp.difference(finite_set([n]))
    k = rest.min_element()
    return k is not None and k >= n + 2 and rest == upfrom(k)


def _first(cubes, check) -> str | None:
    """The first counterexample text the per-cube check reports, or None."""
    return next(filter(None, map(check, cubes)), None)


# -- per-flag corroboration probes -------------------------------------------


def probe_certificate(
    theory: Theory,
    samples: int = DEFAULT_PROBE_SAMPLES,
    bound: int = DEFAULT_PROBE_BOUND,
    seed: int = 0,
) -> list[dict]:
    """Run the matching sampled probe for every claimed certificate flag.

    Probes report and never throw; capability errors inside a probe are
    themselves a failure of the claimed flag.
    """
    cubes = sample_cubes(theory, samples, random.Random(seed))
    cert = theory.certificate
    # Every probe that reads a cube's brute window reads the same one.
    window = functools.cache(lambda c: brute_spectrum(theory, c, bound))

    def decidable(c):
        if not theory.decide_cube(c) and window(c):
            return f"decide says unsat but a finite model exists: {c}"

    def cfs(c):
        w = window(c)
        for k in range(1, bound + 1):
            if theory.spec_finite(c, k) != (k in w):
                return f"finite membership of {k} disagrees with brute on {c}"

    def infinitely_decidable(c):
        got = theory.spec_inf(c)
        if got and not theory.decide_cube(c):
            return f"infinite member claimed for unsatisfiable {c}"
        if cert.never_infinite and got:
            return f"never-infinite theory claims an infinite model of {c}"

    def stably_infinite(c):
        if theory.decide_cube(c) and not theory.spec_inf(c):
            return f"satisfiable {c} lacks an infinite model"

    def smooth(c):
        w = window(c)
        if w and not all(k in w for k in range(min(w), bound + 1)):
            return f"window spectrum of {c} is not upward closed: {sorted(w)}"
        if w and not theory.spec_inf(c):
            return f"{c} has finite models but no infinite one"

    def fmp(c):
        if theory.decide_cube(c) and not window(c):
            return f"satisfiable {c} has no model within the probe bound"

    def minmod(c):
        w = window(c)
        if w and (got := view(theory, c).minmod()) != min(w):
            return f"minimum model of {c}: got {got}, brute says {min(w)}"

    def gentle(c):
        spec = theory.exact_spectrum(c)
        if not spec.finite_or_cofinite():
            return f"spectrum of {c} is neither finite nor cofinite"
        w = window(c)
        for k in range(1, bound + 1):
            if spec.finite_part.contains(k) != (k in w):
                return f"materialized spectrum of {c} disagrees with brute at {k}"

    def n_shiny(c):
        shape = theory.nshiny_classify(c)
        if shape is None:
            return f"no shape for satisfiable {c}" if theory.decide_cube(c) else None
        t, k = shape
        if t not in (0, 1, 2) or k < 1:
            return f"bad shape {shape} for {c}"
        w = window(c)
        for kk in range(1, bound + 1):
            expect = (t in (1, 2) and kk >= k) or (t in (0, 1) and kk == cert.n_shiny_param)
            if (kk in w) != expect:
                return f"shape {shape} disagrees with brute at {kk} on {c}"

    def finitely_witnessable(c):
        if not isinstance(theory, BigModelTagTheory):
            return f"no witness transform for {theory.name}: witness_tgtnp covers T_gt_n_P only"
        if len(c.positive_preds()) == 1:
            w = witness_tgtnp(theory, c)
            sat = theory.decide_cube(w)
            if theory.decide_cube(c) != sat:
                return f"witness transform changes satisfiability of {c}"
            # A satisfiable witness has a model carried by its own variables.
            m = len(w.variables())
            if sat and m <= bound and not any(brute_sat_at(theory, w, k) for k in range(1, m + 1)):
                return f"witness {w} of {c} has no model of size at most its {m} variables"

    # (flag, claimed, per-cube check, verdict when clean) in report order;
    # shiny has no check of its own, it rests on the rows above it.
    table = (
        ("decidable", True, decidable, "pass"),
        ("CFS", cert.cfs, cfs, "pass"),
        ("ID", cert.infinitely_decidable, infinitely_decidable, "pass"),
        ("SI", cert.stably_infinite, stably_infinite, "pass"),
        ("smooth", cert.smooth, smooth, "probe-pass"),
        ("FMP", cert.fmp, fmp, "probe-pass"),
        ("minmod", cert.minmod_computable, minmod, "pass"),
        ("gentle", cert.gentle, gentle, "pass"),
        ("n-shiny", cert.n_shiny_param is not None or cert.shiny, n_shiny, "pass"),
        ("shiny", cert.shiny, None, "probe-pass"),
        ("finitely-witnessable", cert.finitely_witnessable, finitely_witnessable, "probe-pass"),
    )
    rows = []
    for flag, claimed, check, clean in table:
        if not claimed:
            continue
        try:
            bad = _first(cubes, check) if check else None
        except CapabilityMissing as e:
            bad = f"capability error: {e}"
        evidence = bad or ("sampled probe clean" if check else "smooth+FMP+minmod probes above")
        verdict = "fail" if bad else clean
        rows.append({"theory": theory.name, "flag": flag, "verdict": verdict, "evidence": evidence})
    return rows


# -- class refutation ----------------------------------------------------------

_WITHHELD = "capability withheld (depends on the undecidable parameters)"
_NO_SPECTRA = "spectra unavailable without the undecidable parameters"

# Refutation walks the lattice: outside an upper class means outside every
# class below it.  Per class: the paper-level reason if nothing is found, and
# the search order, where "own" runs the class's structural search and
# (upper, prefix) refutes an upper class, prefixing its evidence.  shiny does
# not try SI: SM+CS tries it first, on the same cubes.
REFUTATION: dict[str, tuple[str, tuple]] = {
    **dict.fromkeys(("n-decidable", "CFS", "ID"), (_WITHHELD, ())),
    "CS": ("computable-spectra components withheld", ()),
    "SI": ("no bounded satisfiable cube found", ("own",)),
    "SM+CS": (
        "smoothness holds on samples; computable-spectra part withheld",
        (("SI", "not stably infinite"), "own"),
    ),
    "gentle": ("exact spectra unavailable without the undecidable parameters", ("own",)),
    "F-QG": (_NO_SPECTRA, ("own", ("co-F-QG", "not even co-quasi-gentle"))),
    "co-F-QG": (_NO_SPECTRA, ("own",)),
    "n-shiny": ("shapes unavailable without the undecidable parameters", ("own",)),
    "shiny": (
        "minimal-model computability withheld",
        (("SM+CS", "outside SM+CS"), ("n-shiny", "outside n-shiny")),
    ),
}


def refute_class(
    theory: Theory, cls: str, *, n: int = 4, filt: FreeFilter | None = None
) -> tuple[str, str]:
    """Evidence that the theory is outside the class.

    Returns ('fail', witness) for a structural counterexample, or
    ('paper-level', reason) when the separation rests on withheld,
    undecidability-backed capabilities.  Call only on non-member classes.
    """
    if cls not in REFUTATION:
        raise ValueError(f"cannot refute membership in {cls!r}")
    filt = filt or frechet()
    bound = DEFAULT_PROBE_BOUND
    cubes = sample_cubes(theory, DEFAULT_PROBE_SAMPLES, random.Random(0))

    def dies_at(c):
        """The first clique size that kills the cube, proving its spectrum
        is bounded (hence misses the infinite cardinality); None if none up
        to bound + 1 does."""
        if not theory.decide_cube(c) or theory.decide_at_least(c, bound + 1):
            return None
        return view(theory, c).max_finite() + 1

    @functools.cache
    def exact(c):
        spec = theory.cube_spectrum_exact(c)
        if spec is None and theory.certificate.cfs:
            # A provably bounded spectrum materializes through finite
            # membership alone: the clique death point caps it.
            j = dies_at(c)
            if j is not None:
                members = [k for k in range(1, j) if theory.spec_finite(c, k)]
                spec = ExactSpectrum(finite_set(members), False)
        return spec

    def stably_infinite(c):
        j = dies_at(c)
        if j is not None:
            return f"{c} is satisfiable but dies at clique size {j}"

    def smooth(c):
        w = brute_spectrum(theory, c, bound)
        if w and not all(k in w for k in range(min(w), bound + 1)):
            return f"window spectrum of {c} not upward closed: {sorted(w)}"

    def gentle(c):
        spec = exact(c)
        if spec is not None and not spec.finite_or_cofinite():
            return f"spectrum of {c} is {spec.to_json()}"

    def fqg(c):
        spec = exact(c)
        if spec is not None and spec.has_inf and filt.member(spec.finite_part) == NO:
            return f"infinite spectrum of {c} has finite part outside the filter"

    def co_fqg(c):
        spec = exact(c)
        if spec is not None and spec.has_inf and filt.member(spec.finite_part.complement()) == YES:
            return f"infinite spectrum of {c} misses a filter member: {c}"

    def n_shiny(c):
        spec = exact(c)
        if spec is not None and not _shape_ok_for_nshiny(spec, n):
            return f"spectrum of {c} has an invalid shape for {n}-shininess"

    own = {"SI": stably_infinite, "SM+CS": smooth, "gentle": gentle, "F-QG": fqg,
           "co-F-QG": co_fqg, "n-shiny": n_shiny}

    def walk(cls):
        """Refute cls on the shared cubes, stepping up the lattice as listed."""
        reason, order = REFUTATION[cls]
        for step in order:
            if step == "own":
                bad = _first(cubes, own[cls])
            else:
                upper, prefix = step
                verdict, ev = walk(upper)
                bad = f"{prefix}: {ev}" if verdict == "fail" else None
            if bad:
                return "fail", bad
        return "paper-level", reason

    return walk(cls)


# -- lattice -------------------------------------------------------------------


def strongest_classes(theory: Theory, *, n: int = 4, filt: FreeFilter | None = None) -> list[str]:
    """Minimal lattice classes the certificate claims (no claimed class below)."""
    filt = filt or frechet()
    member = {
        cls: theory.certificate.member(cls, n=n, filt=filt) for cls in CLASSES
    }
    out = []
    for cls, ok in member.items():
        if not ok:
            continue
        below = [lo for lo, hi in LATTICE_EDGES if hi == cls]
        if not any(member[lo] for lo in below):
            out.append(cls)
    return out


@dataclass(frozen=True)
class LatticeReport:
    n: int
    filter_name: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    witnesses: dict
    placements: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "filter": self.filter_name,
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "witnesses": dict(sorted(self.witnesses.items())),
            "placements": dict(sorted(self.placements.items())),
        }

    def to_dot(self) -> str:
        lines = ["digraph property_lattice {", "  rankdir=BT;"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for lo, hi in self.edges:
            label = self.witnesses.get(f"{lo}<{hi}", "")
            attr = f' [label="{label}"]' if label else ""
            lines.append(f'  "{lo}" -> "{hi}"{attr};')
        lines.append("}")
        return "\n".join(lines)


def build_lattice(
    catalog: list[Theory], *, n: int = 4, filt: FreeFilter | None = None
) -> LatticeReport:
    """The property inclusion lattice with strictness witnesses drawn from
    the catalog: each edge is annotated with a theory placed exactly at
    its upper class (so provably outside the lower one)."""
    filt = filt or frechet()
    placements = {t.name: strongest_classes(t, n=n, filt=filt) for t in catalog}
    witnesses: dict[str, str] = {}
    for lo, hi in LATTICE_EDGES:
        for t in catalog:
            cert = t.certificate
            if cert.member(hi, n=n, filt=filt) and not cert.member(lo, n=n, filt=filt):
                witnesses[f"{lo}<{hi}"] = t.name
                break
    return LatticeReport(
        n=n,
        filter_name=filt.name,
        nodes=CLASSES,
        edges=LATTICE_EDGES,
        witnesses=witnesses,
        placements=placements,
    )


# -- generated filter structure -------------------------------------------------


def bitzero_filter(indices: frozenset[int] | set[int]) -> FreeFilter:
    """The free filter generated by the chosen zero-bit sets; the empty
    index set gives the Fréchet filter."""
    idx = sorted(indices)
    name = "F{" + ",".join(map(str, idx)) + "}" if idx else "frechet"
    return FreeFilter(tuple(bitzero(i) for i in idx), name)


def filter_chain_demo(depth: int = 5) -> dict:
    """Chain and antichain patterns among bitzero-generated filters.

    Verifies that inclusion of generated filters tracks inclusion of the
    generating index sets: nested prefixes give a strict chain, distinct
    singletons are pairwise incomparable.
    """
    if depth > 12:
        raise ValueError("depth is capped at 12")

    def row(s1: set[int], s2: set[int]) -> dict:
        f1, f2 = bitzero_filter(s1), bitzero_filter(s2)
        verdict, expected = filter_includes(f1, f2), YES if s1 <= s2 else NO
        return {"left": f1.name, "right": f2.name, "verdict": verdict, "expected": expected}

    prefixes = [set(range(1, t + 1)) for t in range(depth + 1)]
    chain = [row(a, b) for a in prefixes for b in prefixes]
    bits = range(1, depth + 1)
    antichain = [row({i}, {j}) for i in bits for j in bits if i != j]
    ok = all(r["verdict"] == r["expected"] for r in chain + antichain)
    return {"depth": depth, "chain": chain, "antichain": antichain, "ok": ok}
