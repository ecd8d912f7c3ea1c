"""Checks on the benchmark itself: the tracer reaches every call site,
tracing leaves verdicts alone, and inputs repeat for a seed.

Run from the repository root:

    python3 -m pytest bench/test_trace_coverage.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Combine, Referee, Scan  # noqa: E402


def traced_round(cls, seed=11):
    """One round untraced, then the same round traced from a fresh load."""
    _, workload = run.load(cls, seed)
    plain = run.run_pass(workload, rounds=1)
    plain_counters = workload.counters()
    tracer = Tracer()
    try:
        _, workload = run.load(cls, seed, tracer)
        traced = run.run_pass(workload, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    return workload, tracer, plain, traced, plain_counters


@pytest.fixture(scope="module")
def combine_round():
    return traced_round(Combine)


@pytest.fixture(scope="module")
def scan_round():
    return traced_round(Scan)


@pytest.fixture(scope="module")
def referee_round():
    return traced_round(Referee)


def test_arrangements_yielded_equal_verdict_counts(combine_round):
    workload, tracer, _, traced, _ = combine_round
    assert workload.arrangements_tried > 0
    assert tracer.counts["formulas.enumerate_arrangements.yielded"] == workload.arrangements_tried
    assert tracer.counts["combine.arrangements_tried"] == workload.arrangements_tried
    assert tracer.calls["combine.combine_decide"] == len(traced.times)


def test_loop_iterations_match_verdict_stats(combine_round, scan_round):
    for workload, tracer, _, _, _ in (combine_round, scan_round):
        assert workload.loop_iterations > 0
        assert tracer.counts["combine.loop_iterations"] == workload.loop_iterations


@pytest.mark.parametrize("which", ["referee_round", "combine_round", "scan_round"])
def test_traced_and_untraced_verdicts_are_identical(which, request):
    workload, _, plain, traced, plain_counters = request.getfixturevalue(which)
    assert plain.failed == traced.failed == 0
    assert plain.verdicts == traced.verdicts
    assert plain.fingerprint() == traced.fingerprint()
    assert plain_counters == workload.counters()


def test_every_layer_is_reached(referee_round, combine_round, scan_round):
    expect = {
        "referee": (referee_round, ["catalog.decide_cube", "catalog.spec_finite", "catalog.spec_inf",
                                    "theories.minmod_equalities", "brute.brute_spectrum",
                                    "brute.brute_sat_at", "sets.EvPeriodicSet"]),
        "combine": (combine_round, ["formulas.parse_formula", "formulas.to_dnf",
                                    "formulas.split_by_signature", "formulas.enumerate_arrangements",
                                    "formulas.arrangement_to_cube", "combine.combine_decide",
                                    "formulas.clique_extension", "spectra.minmod",
                                    "brute.brute_combined_formula_sat"]),
        "scan": (scan_round, ["diagonal.process_formula", "diagonal.process_number",
                              "spectra.max_finite", "spectra.minmod", "formulas.clique_extension",
                              "theories.minmod_equalities", "brute.brute_spectrum"]),
    }
    for name, ((_, tracer, _, _, _), layers) in expect.items():
        missing = [layer for layer in layers if not tracer.calls.get(layer)]
        assert not missing, (name, missing)


def test_call_time_import_in_max_finite_is_wrapped():
    # spectra.max_finite imports clique_extension when it runs; a scan to
    # n asks for cliques 1..n+1, and every clique reaches minmod_equalities.
    _, workload = run.load(Scan, 3)
    op = next(o for o in workload.round_ops(0) if o.kind == "max_finite" and o.aux <= o.n)
    tracer = Tracer()
    tracer.install()
    tracer.install_theories(workload.theories())
    try:
        mf, _ = workload.execute(op)
    finally:
        tracer.uninstall()
    assert mf == op.n
    assert tracer.calls["spectra.max_finite"] == 1
    assert tracer.calls["formulas.clique_extension"] == op.n + 1
    assert tracer.calls["theories.minmod_equalities"] >= op.n + 1


@pytest.mark.parametrize("cls", [Combine, Scan])
def test_uninstall_restores_every_name(cls):
    _, workload = run.load(cls, 1)
    ck = workload.ck
    owners = [vars(ck).values(), [ck.spectra.SpectrumView, ck.sets.EvPeriodicSet], workload.theories()]
    owners = [o for group in owners for o in group]
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    tracer.install()
    tracer.install_theories(workload.theories())
    assert [dict(vars(o)) for o in owners] != before
    tracer.uninstall()
    assert [dict(vars(o)) for o in owners] == before


def test_each_theory_instance_is_wrapped_once(scan_round):
    # Scan lists T_leq_2 twice (the diagonal's theory and leq[2]); the
    # registry hands out one instance, so a second wrapper would count
    # every call twice and nest a span of the same name in itself.
    workload, tracer, _, _, _ = scan_round
    assert workload.diag_theory is workload.leq[2]
    names, parent = tracer.span_name, tracer.span_parent
    theory_names = {i for i, n in enumerate(tracer.names) if n.startswith("catalog.")}
    nested = [
        s for s in range(len(names))
        if names[s] in theory_names and parent[s] >= 0 and names[parent[s]] == names[s]
    ]
    assert tracer.spans_dropped == 0 and not nested
    decide = tracer.names.index("catalog.decide_cube")
    assert tracer.calls["catalog.decide_cube"] == sum(1 for n in names if n == decide)


@pytest.mark.parametrize("cls", [Referee, Combine, Scan])
def test_inputs_repeat_for_a_seed(cls):
    _, a = run.load(cls, 5)
    _, b = run.load(cls, 5)
    _, c = run.load(cls, 6)
    tokens = lambda w: [w.input_token(op) for op in w.round_ops(0)]  # noqa: E731
    assert tokens(a) == tokens(b)
    assert tokens(a) != tokens(c)
    assert len(a.round_ops(0)) == len(c.round_ops(0))


def test_benchmark_json_names_match_the_output(referee_round, combine_round, scan_round):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"ops_per_s", "op_p50_ms", "op_p99_ms", "setup_s", "peak_rss_mib"}
    produced = set()
    for workload, tracer, _, _, _ in (referee_round, combine_round, scan_round):
        produced |= set(run.layer_values(tracer, workload))
    assert {m["name"] for m in spec["per_layer"]} <= produced
