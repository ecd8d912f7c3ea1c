import json
import re
import shlex
from pathlib import Path

import pytest

from combinekit import cli
from combinekit.brute import brute_sat_at
from combinekit.catalog import MaxSizeTheory
from combinekit.cli import main
from combinekit.combine import select_method
from combinekit.properties import certificate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_sat_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "decide", "T=P", "(and (P 3) (distinct x y))")
    assert code == 0
    assert json.loads(out.strip()) == {"sat": True}
    code, out, _ = run_cli(capsys, "decide", "T=P", "(and (P 2) (P 3))")
    assert code == 1
    assert json.loads(out.strip()) == {"sat": False}


def test_decide_unknown_theory_exits_2(capsys):
    code, _, err = run_cli(capsys, "decide", "bogus", "(= x x)")
    assert code == 2
    assert "unknown theory" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "Th_of(toy)", "(pred P 999999 1)"],
        ["decide", "Th_of(toy)", "(and (pred P 999999 1) (distinct x y))"],
        ["spectrum", "Th_of(toy)", "(pred P 999999 1)"],
    ],
)
def test_formula_id_past_the_inner_enumeration_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "formula id 999999 is past the 16384 cubes of toy" in err


@pytest.mark.parametrize(
    "theory, formula",
    [("T_eq_P", "(P 1048577)"), ("T_leq_1048577", "(= x x)"), ("T_geq_1048577", "(= x x)")],
)
def test_a_size_past_the_set_bound_exits_2(capsys, theory, formula):
    code, out, err = run_cli(capsys, "decide", theory, formula)
    assert code == 2 and out == ""
    assert "past the set bound 1048576" in err


def test_decide_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "decide", "T_eq", "(= x")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "formula",
    [
        # Gentle finds side 1 empty (four distinct elements under a cap of 3)
        # and never asks side 2 about its predicate.
        "(and (distinct x y z w) (P inf))",
        # The cube's equalities are inconsistent, so it has no arrangement.
        "(and (= x y) (= y z) (not (= x z)) (P inf))",
    ],
)
def test_a_malformed_predicate_is_an_error_whatever_the_method_reads(capsys, formula):
    code, out, err = run_cli(capsys, "combine", "T_leq_3", "T_eq_P", formula)
    assert code == 2 and out == ""
    assert "T_eq_P has no infinite-index predicate P_inf" in err


def test_combine_subcommand_examples(capsys):
    code, out, _ = run_cli(
        capsys, "combine", "T_leq_3", "T_eq_P", "(and (pred P 2) (distinct x y))", "--method", "gentle"
    )
    assert code == 0
    verdict = json.loads(out.strip())
    assert verdict["sat"] and verdict["witness"]["card"] == 2
    code, out, _ = run_cli(capsys, "combine", "T_geq_2", "T_eq_5", "(= x x)", "--method", "smcs")
    assert code == 0
    assert json.loads(out.strip())["witness"]["card"] == 5
    code, out, _ = run_cli(capsys, "combine", "Teq", "T_leq_1", "(distinct x y)", "--method", "shiny")
    assert code == 1


def test_combine_not_applicable_exits_2(capsys):
    code, _, err = run_cli(capsys, "combine", "T_eq_P", "T_si", "(= x x)", "--method", "shiny")
    assert code == 2
    assert "hypotheses" in err


def test_spectrum_worked_example(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "Th_of(toy)", "(pred P Q 4)", "--upto", "6")
    assert code == 0
    got = json.loads(out.strip())
    assert got["finite_part"] == [5]


def test_spectrum_decides_each_withheld_size_once(capsys, monkeypatch):
    calls = []

    def counting(theory, cube, k):
        calls.append(k)
        return brute_sat_at(theory, cube, k)

    monkeypatch.setattr("combinekit.brute.brute_sat_at", counting)
    monkeypatch.setattr("combinekit.cli.brute_sat_at", counting)
    code, out, _ = run_cli(capsys, "spectrum", "T_si", "(pred P 1)", "--upto", "12")
    assert code == 0
    assert out == '{"finite_part": [], "has_inf": true, "upto": 12}\n'
    assert len(calls) <= 12  # one cube: at most one brute decision per size


@pytest.mark.parametrize("theory", ["T_leq_S_evens", "T_d_4", "T_cfs", "Th_of(toy)", "complete_shiny"])
def test_spectrum_foreign_predicate_exits_2(capsys, theory):
    # Only a withheld size falls back to the brute window; a predicate the
    # theory does not own is an error, not a size with no models.
    code, out, err = run_cli(capsys, "spectrum", theory, "(pred Z 2)")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "does not own" in err


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("combinekit ")]
    assert len(examples) == 9
    for argv in examples:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


def test_lattice_dot_is_parseable_with_15_edges(capsys):
    code, out, _ = run_cli(capsys, "--format", "dot", "lattice")
    assert code == 0
    nodes, edges = parse_dot(out)
    assert len(edges) == 15
    for lo, hi in edges:
        assert lo in nodes and hi in nodes


def parse_dot(text):
    """Minimal DOT reader: quoted node declarations and edges."""
    assert text.strip().startswith("digraph")
    assert text.strip().endswith("}")
    nodes = set()
    edges = []
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        m = re.match(r'^"([^"]+)" -> "([^"]+)"(?: \[label="[^"]*"\])?$', line)
        if m:
            edges.append((m.group(1), m.group(2)))
            continue
        m = re.match(r'^"([^"]+)"$', line)
        if m:
            nodes.add(m.group(1))
    return nodes, edges


def test_lattice_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "lattice")
    assert code == 0
    rep = json.loads(out.strip())
    assert len(rep["edges"]) == 15
    assert rep["placements"]["T_geq_2"] == ["shiny"]


def test_diagonal_subcommand(capsys):
    code, out, _ = run_cli(capsys, "diagonal", "--theory", "T_leq_2", "--rounds", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    states, digest = lines[:-1], lines[-1]
    assert len(states) == 3
    assert len(states[-1]["skipped"]) == 3
    assert "digest" in digest


def test_brute_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "brute-check", "--theory", "T_eq_P", "--samples", "60")
    assert code == 0
    report = json.loads(out.strip())
    assert report["status"] == "pass" and report["mismatches"] == 0


def test_filters_subcommand(capsys):
    code, out, _ = run_cli(capsys, "filters", "--depth", "4")
    assert code == 0
    assert json.loads(out.strip())["ok"]


def test_classify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "classify", "T_leq_3", "--samples", "10")
    assert code == 0
    rows = json.loads(out.strip())
    assert any(r["flag"] == "gentle" and r["verdict"] == "pass" for r in rows)


def test_seeded_outputs_are_byte_identical(capsys):
    a = run_cli(capsys, "--seed", "9", "brute-check", "--theory", "T_cs", "--samples", "40")
    b = run_cli(capsys, "--seed", "9", "brute-check", "--theory", "T_cs", "--samples", "40")
    assert a == b
    assert a[0] == 0
    # combine reads no seed; its output is byte-identical without one.
    c = run_cli(capsys, "combine", "T_leq_3", "T_eq_P", "(pred P 2)")
    d = run_cli(capsys, "combine", "T_leq_3", "T_eq_P", "(pred P 2)")
    assert c == d and c[0] == 0


def test_config_file_adds_theories(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "registry.json"
    cfg.write_text(
        json.dumps(
            {
                "theories": {
                    "caps_odd": {"kind": "T_leq_S", "S": "odds", "F": {"kind": "identity"}},
                    "pin_q": {"kind": "T_eq_P", "family": "Q"},
                }
            }
        )
    )
    code, out, _ = run_cli(capsys, "--config", str(cfg), "decide", "caps_odd", "(P 3)")
    assert code == 0
    monkeypatch.setenv("COMBINEKIT_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "decide", "pin_q", "(pred Q 4)")
    assert code == 0


@pytest.mark.parametrize("formula, code, sat", [("(P 50000)", 0, True), ("(P 15000)", 1, False)])
def test_a_far_size_cap_decides_without_a_scan(tmp_path, capsys, formula, code, sat):
    cfg = tmp_path / "cap_far.json"
    cfg.write_text(json.dumps({"theories": {"cap_far": {"kind": "T_leq_S", "S": "upfrom:20000"}}}))
    got, out, err = run_cli(capsys, "--config", str(cfg), "decide", "cap_far", formula)
    assert (got, err) == (code, "")
    assert json.loads(out) == {"sat": sat}


def test_verdict_json_round_trips(capsys):
    _, out, _ = run_cli(capsys, "combine", "T_leq_3", "T_eq_P", "(pred P 2)")
    v = json.loads(out.strip())
    assert set(v) == {"sat", "method", "witness", "stats"}
    assert json.loads(json.dumps(v)) == v


def test_combine_miscertified_theory_exits_2(capsys, monkeypatch):
    # A certificate that wrongly calls T_inf shiny: it has no finite
    # minimal model, so the shiny procedure stops instead of answering.
    load = cli.load_registry

    def miscertified(path):
        registry = load(path)
        registry.resolve("T_inf").certificate = certificate(shiny=True)
        return registry

    monkeypatch.setattr("combinekit.cli.load_registry", miscertified)
    code, _, err = run_cli(capsys, "combine", "T_inf", "T_eq_P", "(= x x)", "--method", "shiny")
    assert code == 2
    assert err.startswith("error:") and "minmod" in err


def test_combine_method_outside_certificate_exits_2(capsys):
    code, out, err = run_cli(capsys, "combine", "T_leq_3", "T_eq_5", "(= x x)", "--method", "shiny")
    assert (code, out) == (2, "")
    assert err == (
        "error: (T_leq_3, T_eq_5) fails shiny hypotheses; (T_eq_5, T_leq_3) fails shiny hypotheses\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("combine", "T_leq_3", "T_eq_5", "(= x x)", "--method", "shiny", "--override"),
        ("--format", "text", "decide", "T_eq_P", "(P 3)"),
        # Scans stop at the set bound; there is no budget to set.
        ("--cap", "7", "combine", "T_leq_3", "T_eq_P", "(P 2)"),
    ],
)
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--cap", "--cap=7"])
def test_an_unknown_global_flag_is_named_not_its_value(capsys, flag):
    # argparse would set --cap aside and read 7 as the subcommand.
    with pytest.raises(SystemExit) as e:
        main([flag, "7", "combine", "T_leq_3", "T_eq_P", "(P 2)"])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith("error: unrecognized arguments: --cap\n")


def test_the_global_flags_still_work_ahead_of_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "registry.json"
    cfg.write_text(json.dumps({"theories": {"pin_q": {"kind": "T_eq_P", "family": "Q"}}}))
    for argv, head in (
        (("--K", "8", "brute-check", "--theory", "T_eq", "--samples", "5"), '{"K": 8'),
        (("--seed", "3", "classify", "T_eq"), "[{"),
        (("--seed", "-3", "classify", "T_eq"), "[{"),  # a value that starts with '-'
        ((f"--config={cfg}", "decide", "pin_q", "(pred Q 4)"), '{"sat": true}'),
        (("--format", "dot", "lattice"), "digraph"),
        (("--form", "dot", "lattice"), "digraph"),  # argparse's own abbreviations
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith(head), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("combine", "T_leq_3", "T_eq_P", "(P 2)"),
        ("decide", "T_eq_P", "(P 3)"),
        ("spectrum", "T_eq_P", "(P 3)"),
        ("filters",),
    ],
)
def test_format_dot_outside_lattice_exits_2(capsys, argv):
    # Only lattice reads --format; elsewhere the flag would be ignored.
    code, out, err = run_cli(capsys, "--format", "dot", *argv)
    assert (code, out) == (2, "")
    assert err == "error: --format applies only to lattice\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--K", "2", "spectrum", "T_eq_P", "(P 3)"), "--K applies only to classify, brute-check"),
        (("--K", "6", "decide", "T_leq_3", "(= x x)"), "--K applies only to classify, brute-check"),
        (("--K", "3", "combine", "T_leq_3", "T_eq_P", "(P 2)"), "--K applies only to classify, brute-check"),
        (("--seed", "5", "decide", "T_eq", "(= x y)"), "--seed applies only to classify, brute-check"),
        (("--seed", "0", "diagonal", "--rounds", "1"), "--seed applies only to classify, brute-check"),
        (("--format", "json", "combine", "T_leq_3", "T_eq_P", "(P 2)"), "--format applies only to lattice"),
    ],
)
def test_a_global_flag_the_subcommand_ignores_exits_2(capsys, argv, err):
    # Even the default value is refused when given: the subcommand never reads it.
    code, out, got = run_cli(capsys, *argv)
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_scoped_flags_keep_their_defaults(capsys):
    code, out, _ = run_cli(capsys, "brute-check", "--theory", "T_cs", "--samples", "5")
    assert code == 0 and json.loads(out)["K"] == 6
    code, out, _ = run_cli(capsys, "--K", "3", "brute-check", "--theory", "T_cs", "--samples", "5")
    assert code == 0 and json.loads(out)["K"] == 3
    argv = ("brute-check", "--theory", "T_cs", "--samples", "5")
    assert run_cli(capsys, *argv) == run_cli(capsys, "--seed", "0", *argv)
    code, out, _ = run_cli(capsys, "lattice")
    assert code == 0 and json.loads(out)["edges"]


@pytest.mark.parametrize("theory, withheld", [("T_si", 64), ("T_gt_2_P", 16)])
def test_brute_check_counts_withheld_sizes_and_infinite_only_models(capsys, theory, withheld):
    # Both theories withhold some finite sizes, which are counted and not
    # compared; a T_si cube with no model in the window is sat only because
    # spec_inf says it has an infinite one.
    code, out, _ = run_cli(capsys, "brute-check", "--theory", theory, "--samples", "40")
    report = json.loads(out)
    assert (code, report["mismatches"], report["withheld_queries"]) == (0, 0, withheld)


def test_brute_check_flags_infinite_only_with_finite_models(capsys, monkeypatch):
    # Claiming that every model is infinite contradicts the finite models
    # the brute window finds.
    monkeypatch.setattr(MaxSizeTheory, "infinite_only", lambda self, cube: True)
    code, out, _ = run_cli(capsys, "brute-check", "--theory", "T_leq_3", "--samples", "20")
    assert code == 2
    report = json.loads(out.strip())
    assert report["status"] == "fail" and report["mismatches"] > 0


def _config_run(tmp_path, capsys, config):
    cfg = tmp_path / "registry.json"
    cfg.write_text(json.dumps(config))
    return run_cli(capsys, "--config", str(cfg), "decide", "T_eq", "(= x x)")


def test_config_entry_missing_key_exits_2(tmp_path, capsys):
    code, _, err = _config_run(tmp_path, capsys, {"theories": {"x": {"kind": "T_eq_n"}}})
    assert code == 2
    assert err.startswith("error:") and "'x'" in err and "'n'" in err


def test_config_theories_not_an_object_exits_2(tmp_path, capsys):
    code, _, err = _config_run(tmp_path, capsys, {"theories": ["a"]})
    assert code == 2
    assert err.startswith("error:") and "theories" in err


def test_config_unknown_key_exits_2(tmp_path, capsys):
    code, _, err = _config_run(tmp_path, capsys, {"theories": {}, "cap": 1})
    assert code == 2
    assert "cap" in err


def test_combine_method_forms(capsys):
    for method in ("no", "nelson-oppen"):
        code, out, _ = run_cli(capsys, "combine", "T_inf", "T_si", "(= x x)", "--method", method)
        assert code == 0 and json.loads(out.strip())["method"] == "nelson-oppen"
    code, out, _ = run_cli(capsys, "combine", "T_eq_4", "T_leq_5", "(= x x)", "--method", "n-shiny(4)")
    assert code == 0 and json.loads(out.strip())["method"].startswith("n-shiny(4)")
    for method in ("quasi-gentle", "quasi-gentle(frechet)"):
        code, out, _ = run_cli(capsys, "combine", "T_leq_3", "T_eq_P", "(pred P 2)", "--method", method)
        assert code == 0 and json.loads(out.strip())["method"] == "quasi-gentle(frechet)"


def test_every_label_auto_selection_prints_parses_back(theory_list):
    labels = set()
    for t1 in theory_list:
        for t2 in theory_list:
            picked = select_method(t1, t2)
            if t1 is not t2 and picked is not None:
                method = picked[0]
                assert cli._method_from_flag(method.label()) == method
                labels.add(method.label())
    assert {"quasi-gentle(frechet)", "n-shiny(4)", "nelson-oppen"} <= labels


def test_combine_method_syntax_is_strict(capsys):
    for method in ("n-shiny", "n-shiny4", "n-shiny(0)", "quasi-gentleXYZ", "Gentle", "n-shiny(x)"):
        code, _, err = run_cli(capsys, "combine", "T_leq_3", "T_eq_P", "(pred P 2)", "--method", method)
        assert code == 2, method
        assert "unknown method" in err and "n-shiny(<n>)" in err


def test_internal_fault_exits_2_not_unsat(capsys, monkeypatch):
    def broken(path):
        raise KeyError("boom")

    monkeypatch.setattr("combinekit.cli.load_registry", broken)
    code, _, err = run_cli(capsys, "decide", "T_eq", "(= x x)")
    assert code == 2
    assert err.startswith("error: KeyError")


@pytest.mark.parametrize(
    "argv",
    [
        ("--K", "-3", "classify", "T_leq_3"),
        ("classify", "T_eq", "--samples", "0"),
        ("--K", "0", "brute-check", "--theory", "T_eq_P"),
        ("spectrum", "T_eq_P", "(P 3)", "--upto", "-2"),
        ("brute-check", "--theory", "T_eq", "--samples", "0"),
        ("diagonal", "--rounds", "0"),
        ("lattice", "--n", "0"),
        ("filters", "--depth", "0"),
        ("--K", "two", "classify", "T_eq"),
    ],
)
def test_vacuous_count_and_bound_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "must be >= 1" in err or "not an integer" in err
