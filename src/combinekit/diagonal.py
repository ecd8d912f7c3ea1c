"""Iterative construction of a non-cofinite parameter set.

Against a fixed theory with computable finite spectra, the construction
alternates between classifying the next enumerated formula (already
satisfied by the set built so far / impossible from here on / promised)
and processing the next number (fulfilling promises by adding sizes to
the set, then deliberately skipping one).  Each round skips at least one
number, so the limit set is never cofinite, yet emptiness of a formula's
spectrum against the set stays decidable: run until the formula is
classified and read off its bucket.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import CapabilityMissing
from .formulas import Cube
from .theories import FormulaEnumeration, Theory


@dataclass(frozen=True)
class DiagState:
    s_prefix: frozenset[int]
    sat: frozenset[int]
    unsat: frozenset[int]
    prom: frozenset[int]
    i: int
    j: int
    skipped: tuple[int, ...]

    def __post_init__(self):
        if self.sat & self.unsat or self.sat & self.prom or self.unsat & self.prom:
            raise ValueError("formula buckets must stay disjoint")

    def to_json(self) -> dict:
        return {
            "S": sorted(self.s_prefix),
            "SAT": sorted(self.sat),
            "UNSAT": sorted(self.unsat),
            "PROM": sorted(self.prom),
            "i": self.i,
            "j": self.j,
            "skipped": list(self.skipped),
        }

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()


def initial_state() -> DiagState:
    return DiagState(frozenset(), frozenset(), frozenset(), frozenset(), 1, 1, ())


def _check_theory(theory: Theory):
    if not theory.certificate.cfs:
        raise CapabilityMissing(theory.name, "diagonalization", "needs computable finite spectra")


def _has_model_in(theory: Theory, cube: Cube, sizes: frozenset[int]) -> bool:
    return any(theory.spec_finite(cube, s) for s in sorted(sizes))


def process_formula(state: DiagState, theory: Theory, enum: FormulaEnumeration) -> DiagState:
    """Classify formula i: satisfied by the current set, impossible from
    size j on, or promised for later fulfillment."""
    _check_theory(theory)
    phi = enum.cube(state.i)
    sat, unsat, prom = state.sat, state.unsat, state.prom
    if _has_model_in(theory, phi, state.s_prefix):
        sat = sat | {state.i}
    elif not theory.decide_at_least(phi, state.j):
        unsat = unsat | {state.i}
    else:
        prom = prom | {state.i}
    return DiagState(state.s_prefix, sat, unsat, prom, state.i + 1, state.j, state.skipped)


def process_number(state: DiagState, theory: Theory, enum: FormulaEnumeration) -> DiagState:
    """Fulfill promises at consecutive sizes, then skip one number.

    While some promised formula has a model of the current size j, add j
    to the set and move that formula to the satisfied bucket; the j at
    loop exit is recorded as skipped and passed over.
    """
    _check_theory(theory)
    s, sat, prom, j = state.s_prefix, state.sat, state.prom, state.j
    while True:
        hit = None
        for k in sorted(prom):
            if theory.spec_finite(enum.cube(k), j):
                hit = k
                break
        if hit is None:
            break
        s = s | {j}
        sat = sat | {hit}
        prom = prom - {hit}
        j += 1
    return DiagState(s, sat, state.unsat, prom, state.i, j + 1, state.skipped + (j,))


def run_diagonalization(
    theory: Theory, rounds: int, enum: FormulaEnumeration | None = None
) -> DiagState:
    """Alternate formula and number processing for the given number of
    rounds; the last state of :func:`run_rounds`."""
    for state in run_rounds(theory, rounds, enum):
        pass
    return state


def run_rounds(
    theory: Theory, rounds: int, enum: FormulaEnumeration | None = None
):
    """Yield the state after each round (prefix runner for the CLI)."""
    if rounds < 1:
        raise ValueError("need at least one round")
    _check_theory(theory)
    enum = enum or FormulaEnumeration(theory)
    state = initial_state()
    for _ in range(rounds):
        state = process_formula(state, theory, enum)
        state = process_number(state, theory, enum)
        yield state


def intersect_from_run(
    theory: Theory, formula_id: int, enum: FormulaEnumeration | None = None
) -> str:
    """'empty' or 'nonempty': whether the formula's spectrum misses the
    constructed set (and the infinite cardinality) entirely.

    Each round classifies one formula, so the construction classifies
    this one in round ``formula_id``; the unsat bucket means empty, the
    other two mean nonempty.
    """
    if formula_id < 1:
        raise ValueError("formula ids are 1-based")
    state = run_diagonalization(theory, formula_id, enum)
    if formula_id in state.unsat:
        return "empty"
    return "nonempty"
