import pytest

from combinekit.brute import brute_spectrum
from combinekit.catalog import MaxSizeTheory, TaggedInfinityTheory
from combinekit.diagonal import (
    initial_state,
    intersect_from_run,
    process_formula,
    process_number,
    run_diagonalization,
    run_rounds,
)
from combinekit.errors import CapabilityMissing
from combinekit.formulas import neq_clique
from combinekit.theories import FormulaEnumeration


def clique(n):
    return neq_clique([f"w{i}" for i in range(1, n + 1)], n)


def test_process_formula_promises_top():
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    state = process_formula(initial_state(), t, enum)
    assert state.prom == {1} and state.i == 2
    assert not state.sat and not state.unsat


def test_process_formula_buckets_unsatisfiable_from_j():
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    # position the enumeration at the three-element clique
    fid = enum.id_of(clique(3))
    state = initial_state()
    while state.i < fid:
        state = process_formula(state, t, enum)
        state = process_number(state, t, enum)
    state = process_formula(state, t, enum)
    assert fid in state.unsat
    assert not brute_spectrum(t, clique(3), 6)


def test_process_formula_sat_branch_when_size_already_chosen():
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    state = initial_state()
    state = process_formula(state, t, enum)  # promises the empty cube
    state = process_number(state, t, enum)  # fulfills it with size 1
    assert state.s_prefix == {1}
    fid = state.i
    state = process_formula(state, t, enum)
    # the next cube has a model of size 1, already in the set
    assert fid in state.sat


def test_process_number_trace():
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    state = process_formula(initial_state(), t, enum)
    state = process_number(state, t, enum)
    assert state.s_prefix == {1}
    assert state.sat == {1}
    assert state.prom == frozenset()
    assert state.j == 3
    assert state.skipped == (2,)


def test_process_number_empty_promises_just_skips():
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    state = initial_state()
    state = state.__class__(
        state.s_prefix, state.sat, state.unsat, state.prom, state.i, 5, state.skipped
    )
    out = process_number(state, t, enum)
    assert out.skipped == (5,)
    assert out.j == 6


def test_two_promises_fulfilled_at_consecutive_sizes():
    t = MaxSizeTheory(3)
    enum = FormulaEnumeration(t)
    id1, id2 = enum.id_of(clique(1)), enum.id_of(clique(2))
    state = initial_state()
    state = state.__class__(
        frozenset(), frozenset(), frozenset(), frozenset({id1, id2}), 1, 1, ()
    )
    out = process_number(state, t, enum)
    assert out.s_prefix == {1, 2}
    assert out.sat == {id1, id2}
    assert out.prom == frozenset()
    assert out.skipped == (3,)


def test_run_requires_positive_rounds_and_cfs():
    with pytest.raises(ValueError):
        run_diagonalization(MaxSizeTheory(2), 0)
    with pytest.raises(CapabilityMissing):
        run_diagonalization(TaggedInfinityTheory(), 1)


def test_fifty_rounds_skip_fifty_numbers():
    state = run_diagonalization(MaxSizeTheory(2), 50)
    assert len(state.skipped) >= 50
    assert len(set(state.skipped)) == len(state.skipped)
    assert all(s < state.j for s in state.skipped)
    assert not (state.sat & state.unsat or state.sat & state.prom or state.unsat & state.prom)
    assert state.s_prefix.isdisjoint(state.skipped)


def test_determinism_across_runs():
    a = run_diagonalization(MaxSizeTheory(2), 50)
    b = run_diagonalization(MaxSizeTheory(2), 50)
    assert a == b
    assert a.digest() == b.digest()


def test_run_consistency_buckets_never_move():
    t = MaxSizeTheory(2)
    prev = None
    for state in run_rounds(t, 30):
        if prev is not None:
            assert prev.sat <= state.sat
            assert prev.unsat <= state.unsat
            assert prev.prom <= state.prom | state.sat  # promises only resolve to sat
        prev = state


def test_intersect_from_run_examples():
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    assert intersect_from_run(t, 1, enum) == "nonempty"  # the empty cube
    assert intersect_from_run(t, enum.id_of(clique(3)), enum) == "empty"
    # Round one always skips the number 2 (the empty cube's promise is
    # fulfilled at size 1), so a spectrum of exactly {2} misses the set.
    assert intersect_from_run(t, enum.id_of(clique(2)), enum) == "empty"


def test_intersect_from_run_promise_path():
    t = MaxSizeTheory(4)
    enum = FormulaEnumeration(t)
    fid = enum.id_of(clique(2))
    assert intersect_from_run(t, fid, enum) == "nonempty"
    # and the promise was really fulfilled by adding a size to the set
    state = initial_state()
    while state.i <= fid:
        state = process_formula(state, t, enum)
        was_promised = fid in state.prom
        state = process_number(state, t, enum)
    assert fid in state.sat and was_promised
    assert any(t.spec_finite(clique(2), s) for s in state.s_prefix)


def test_intersect_from_run_agrees_with_brute_recomputation():
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    final = run_diagonalization(t, 40, enum)
    for fid in range(1, final.i):
        verdict = intersect_from_run(t, fid, enum)
        spectrum = brute_spectrum(t, enum.cube(fid), 6)  # all spectra live in [1,2]
        hits_set = bool(spectrum & final.s_prefix)
        if verdict == "empty":
            assert not hits_set, fid
        else:
            assert hits_set, fid


def test_whole_enumeration_on_t_leq_2_is_refereed():
    # Every cube of T_leq_2's enumeration is classified, one round each.
    t = MaxSizeTheory(2)
    enum = FormulaEnumeration(t)
    state = run_diagonalization(t, enum.size, enum)
    assert (len(state.sat), len(state.unsat), len(state.prom)) == (64, 4032, 0)
    assert len(state.skipped) == enum.size == 4096
    assert state.s_prefix.isdisjoint(state.skipped)
    for fid in range(1, enum.size + 1):
        spectrum = brute_spectrum(t, enum.cube(fid), 6)  # all spectra live in [1,2]
        assert bool(spectrum & state.s_prefix) == (fid in state.sat), fid
