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

import random
from dataclasses import dataclass

from .brute import brute_spectrum, random_cube
from .errors import CapabilityMissing, IterationCapExceeded
from .filters import NO, YES, FreeFilter, filter_includes, frechet, generated
from .formulas import Cube, PredicateLiteral
from .properties import CLASSES, LATTICE_EDGES
from .properties import class_ancestors  # noqa: F401  (re-exported)
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


def _report(theory: Theory, flag: str, verdict: str, evidence: str) -> dict:
    return {"theory": theory.name, "flag": flag, "verdict": verdict, "evidence": evidence}


def _bounded_above(theory: Theory, cube: Cube, bound: int) -> int | None:
    """The first clique size that kills the cube, proving its spectrum is
    bounded (hence misses the infinite cardinality); None if none up to
    bound + 1 does."""
    if not theory.decide_cube(cube):
        return None
    try:
        return view(theory, cube).max_finite(bound) + 1
    except IterationCapExceeded as e:
        if e.operation != "max_finite":
            raise
        return None


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
    rng = random.Random(seed)
    cubes = sample_cubes(theory, samples, rng)
    cert = theory.certificate
    rows = []

    def run(flag: str, fn, kind: str = "pass"):
        try:
            bad = fn()
        except CapabilityMissing as e:
            rows.append(_report(theory, flag, "fail", f"capability error: {e}"))
            return
        if bad is None:
            rows.append(_report(theory, flag, kind, "sampled probe clean"))
        else:
            rows.append(_report(theory, flag, "fail", bad))

    def probe_decidable():
        for c in cubes:
            got = theory.decide_cube(c)
            if not got and brute_spectrum(theory, c, bound):
                return f"decide says unsat but a finite model exists: {c}"
        return None

    run("decidable", probe_decidable)

    if cert.cfs:
        def probe_cfs():
            for c in cubes:
                w = brute_spectrum(theory, c, bound)
                for k in range(1, bound + 1):
                    if theory.spec_finite(c, k) != (k in w):
                        return f"finite membership of {k} disagrees with brute on {c}"
            return None

        run("CFS", probe_cfs)

    if cert.infinitely_decidable:
        def probe_id():
            for c in cubes:
                got = theory.spec_inf(c)
                if got and not theory.decide_cube(c):
                    return f"infinite member claimed for unsatisfiable {c}"
                if cert.never_infinite and got:
                    return f"never-infinite theory claims an infinite model of {c}"
            return None

        run("ID", probe_id)

    if cert.stably_infinite:
        def probe_si():
            for c in cubes:
                if theory.decide_cube(c) and not theory.spec_inf(c):
                    return f"satisfiable {c} lacks an infinite model"
            return None

        run("SI", probe_si)

    if cert.smooth:
        def probe_smooth():
            for c in cubes:
                w = brute_spectrum(theory, c, bound)
                if w and not all(k in w for k in range(min(w), bound + 1)):
                    return f"window spectrum of {c} is not upward closed: {sorted(w)}"
                if w and not theory.spec_inf(c):
                    return f"{c} has finite models but no infinite one"
            return None

        run("smooth", probe_smooth, kind="probe-pass")

    if cert.fmp:
        def probe_fmp():
            for c in cubes:
                if theory.decide_cube(c) and not brute_spectrum(theory, c, bound):
                    return f"satisfiable {c} has no model within the probe bound"
            return None

        run("FMP", probe_fmp, kind="probe-pass")

    if cert.minmod_computable:
        def probe_minmod():
            for c in cubes:
                w = brute_spectrum(theory, c, bound)
                if w:
                    got = view(theory, c).minmod()
                    if got != min(w):
                        return f"minimum model of {c}: got {got}, brute says {min(w)}"
            return None

        run("minmod", probe_minmod)

    if cert.gentle:
        def probe_gentle():
            for c in cubes:
                spec = theory.exact_spectrum(c)
                if not spec.finite_or_cofinite():
                    return f"spectrum of {c} is neither finite nor cofinite"
                w = brute_spectrum(theory, c, bound)
                for k in range(1, bound + 1):
                    if spec.finite_part.contains(k) != (k in w):
                        return f"materialized spectrum of {c} disagrees with brute at {k}"
            return None

        run("gentle", probe_gentle)

    if cert.n_shiny_param is not None or cert.shiny:
        def probe_nshiny():
            n0 = cert.n_shiny_param
            for c in cubes:
                shape = theory.nshiny_classify(c)
                if shape is None:
                    if theory.decide_cube(c):
                        return f"no shape for satisfiable {c}"
                    continue
                t, k = shape
                if t not in (0, 1, 2) or k < 1:
                    return f"bad shape {shape} for {c}"
                w = brute_spectrum(theory, c, bound)
                for kk in range(1, bound + 1):
                    expect = t in (1, 2) and kk >= k
                    if t in (0, 1) and n0 is not None and kk == n0:
                        expect = True
                    if (kk in w) != expect:
                        return f"shape {shape} disagrees with brute at {kk} on {c}"
            return None

        run("n-shiny", probe_nshiny)

    if cert.shiny:
        rows.append(_report(theory, "shiny", "probe-pass", "smooth+FMP+minmod probes above"))

    if cert.finitely_witnessable:
        def probe_witness():
            from .catalog import BigModelTagTheory, witness_tgtnp

            if not isinstance(theory, BigModelTagTheory):
                return None
            for c in cubes:
                if len(c.positive_preds()) != 1:
                    continue
                w = witness_tgtnp(theory, c)
                if theory.decide_cube(c) != theory.decide_cube(w):
                    return f"witness transform changes satisfiability of {c}"
            return None

        run("finitely-witnessable", probe_witness, kind="probe-pass")

    return rows


# -- class refutation ----------------------------------------------------------


def refute_class(
    theory: Theory, cls: str, *, n: int = 4, filt: FreeFilter | None = None
) -> tuple[str, str]:
    """Evidence that the theory is outside the class.

    Returns ('fail', witness) for a structural counterexample, or
    ('paper-level', reason) when the separation rests on withheld,
    undecidability-backed capabilities.  Call only on non-member classes.
    """
    filt = filt or frechet()
    bound = DEFAULT_PROBE_BOUND
    cubes = sample_cubes(theory, DEFAULT_PROBE_SAMPLES, random.Random(0))

    def exact_specs():
        for c in cubes:
            spec = theory.cube_spectrum_exact(c)
            if spec is None and theory.certificate.cfs:
                # A provably bounded spectrum materializes through finite
                # membership alone: the clique death point caps it.
                j = _bounded_above(theory, c, bound)
                if j is not None:
                    members = [k for k in range(1, j) if theory.spec_finite(c, k)]
                    spec = ExactSpectrum(finite_set(members), False)
            if spec is not None:
                yield c, spec

    if cls in ("CFS", "n-decidable", "ID"):
        return "paper-level", "capability withheld (depends on the undecidable parameters)"
    if cls == "SI":
        for c in cubes:
            j = _bounded_above(theory, c, bound)
            if j is not None:
                return "fail", f"{c} is satisfiable but dies at clique size {j}"
        return "paper-level", "no bounded satisfiable cube found"
    if cls == "SM+CS":
        verdict, ev = refute_class(theory, "SI", n=n, filt=filt)
        if verdict == "fail":
            return verdict, f"not stably infinite: {ev}"
        for c in cubes:
            w = brute_spectrum(theory, c, bound)
            if w and not all(k in w for k in range(min(w), bound + 1)):
                return "fail", f"window spectrum of {c} not upward closed: {sorted(w)}"
        return "paper-level", "smoothness holds on samples; computable-spectra part withheld"
    if cls == "gentle":
        for c, spec in exact_specs():
            if not spec.finite_or_cofinite():
                return "fail", f"spectrum of {c} is {spec.to_json()}"
        return "paper-level", "exact spectra unavailable without the undecidable parameters"
    if cls == "F-QG":
        for c, spec in exact_specs():
            if spec.has_inf and filt.member(spec.finite_part) == NO:
                return "fail", f"infinite spectrum of {c} has finite part outside the filter"
        verdict, ev = refute_class(theory, "co-F-QG", n=n, filt=filt)
        if verdict == "fail":
            return verdict, f"not even co-quasi-gentle: {ev}"
        return "paper-level", "spectra unavailable without the undecidable parameters"
    if cls == "co-F-QG":
        for c, spec in exact_specs():
            if spec.has_inf and filt.member(spec.finite_part.complement()) == YES:
                return "fail", f"infinite spectrum of {c} misses a filter member: {c}"
        return "paper-level", "spectra unavailable without the undecidable parameters"
    if cls == "n-shiny":
        for c, spec in exact_specs():
            if not _shape_ok_for_nshiny(spec, n):
                return "fail", f"spectrum of {c} has an invalid shape for {n}-shininess"
        return "paper-level", "shapes unavailable without the undecidable parameters"
    if cls == "shiny":
        for parent in ("SM+CS", "n-shiny", "SI"):
            verdict, ev = refute_class(theory, parent, n=n, filt=filt)
            if verdict == "fail":
                return verdict, f"outside {parent}: {ev}"
        return "paper-level", "minimal-model computability withheld"
    if cls == "CS":
        return "paper-level", "computable-spectra components withheld"
    raise ValueError(f"cannot refute membership in {cls!r}")


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
    inconsistent: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "filter": self.filter_name,
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "witnesses": dict(sorted(self.witnesses.items())),
            "placements": dict(sorted(self.placements.items())),
            "inconsistent": list(self.inconsistent),
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
    placements: dict[str, list[str]] = {}
    inconsistent: list[str] = []
    for t in catalog:
        try:
            placements[t.name] = strongest_classes(t, n=n, filt=filt)
        except Exception as e:  # certificate closure violations surface here
            inconsistent.append(f"{t.name}: {e}")
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
        inconsistent=tuple(inconsistent),
    )


# -- generated filter structure -------------------------------------------------


def bitzero_filter(indices: frozenset[int] | set[int]) -> FreeFilter:
    """The free filter generated by the chosen zero-bit sets; the empty
    index set gives the Fréchet filter."""
    idx = sorted(indices)
    if not idx:
        return frechet()
    return generated(tuple(bitzero(i) for i in idx), name="F{" + ",".join(map(str, idx)) + "}")


def filter_chain_demo(depth: int = 5) -> dict:
    """Chain and antichain patterns among bitzero-generated filters.

    Verifies that inclusion of generated filters tracks inclusion of the
    generating index sets: nested prefixes give a strict chain, distinct
    singletons are pairwise incomparable.
    """
    if depth > 12:
        raise ValueError("depth is capped at 12")
    chain_rows = []
    for t1 in range(0, depth + 1):
        for t2 in range(0, depth + 1):
            f1 = bitzero_filter(set(range(1, t1 + 1)))
            f2 = bitzero_filter(set(range(1, t2 + 1)))
            got = filter_includes(f1, f2)
            expected = YES if t1 <= t2 else NO
            chain_rows.append(
                {"left": f1.name, "right": f2.name, "verdict": got, "expected": expected}
            )
    anti_rows = []
    for i in range(1, depth + 1):
        for j in range(1, depth + 1):
            if i == j:
                continue
            fi, fj = bitzero_filter({i}), bitzero_filter({j})
            anti_rows.append(
                {
                    "left": fi.name,
                    "right": fj.name,
                    "verdict": filter_includes(fi, fj),
                    "expected": NO,
                }
            )
    ok = all(r["verdict"] == r["expected"] for r in chain_rows + anti_rows)
    return {"depth": depth, "chain": chain_rows, "antichain": anti_rows, "ok": ok}


def generated_filter_inclusion(s1: set[int], s2: set[int]) -> str:
    """Inclusion verdict between two bitzero-generated filters."""
    return filter_includes(bitzero_filter(s1), bitzero_filter(s2))
