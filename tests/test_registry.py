import json

import pytest

from combinekit.catalog import (
    ExactSizeTheory,
    InfiniteOnlyTheory,
    MaxSizeTheory,
    MinSizeTheory,
    SingletonOrInfiniteTheory,
    SizeCapTheory,
    StepTheory,
    TwoSizeTheory,
)
from combinekit.formulas import Cube, PredicateId, PredicateLiteral
from combinekit.registry import Registry, RegistryError, theory_from_json
from combinekit.sets import evens, upfrom
from combinekit.theories import Theory

# Every JSON kind, with the registry name of the handle it should equal
# (None where the registry has no name for that definition).
KINDS = [
    ({"kind": "T_eq"}, "T_eq"),
    ({"kind": "Teq"}, "T_eq"),
    ({"kind": "T_inf"}, "T_inf"),
    ({"kind": "T_eq_n", "n": 3}, "T_eq_3"),
    ({"kind": "T_leq_n", "n": 3}, "T_leq_3"),
    ({"kind": "T_geq_n", "n": 2}, "T_geq_2"),
    ({"kind": "T_eq_P"}, "T_eq_P"),
    ({"kind": "T_gt_n_P", "n": 2}, "T_gt_2_P"),
    ({"kind": "T_mn", "m": 2, "n": 5}, "T_mn_2_5"),
    ({"kind": "T_leq_S", "S": "evens"}, "T_leq_S_evens"),
    ({"kind": "T_leq_S", "S": "all", "F": {"kind": "identity"}}, "T_leq_S_all"),
    ({"kind": "T_leq_S", "S": "evens", "F": {"kind": "double"}}, None),
    ({"kind": "Th_of", "inner": "toy"}, "Th_of(toy)"),
    ({"kind": "Th_of", "inner": {"kind": "toy"}}, "Th_of(toy)"),
    ({"kind": "T_d", "n": 4}, "T_d_4"),
    ({"kind": "T_cfs"}, "T_cfs"),
    ({"kind": "T_si"}, "T_si"),
    ({"kind": "T_cs"}, "T_cs"),
    ({"kind": "T_ns", "n": 4}, "T_ns_4"),
    ({"kind": "T_step", "pin": 4, "floor": 3}, "T_step_4_3"),
    ({"kind": "T_geq_F"}, "T_geq_F"),
    ({"kind": "toy"}, "toy"),
    ({"kind": "complete", "role": "shiny-complete"}, "complete_shiny"),
    ({"kind": "complete", "role": "SI-complete"}, "complete_si"),
    ({"kind": "complete", "role": "ID-complete"}, "complete_id"),
    ({"kind": "complete", "role": "CS-complete"}, "complete_cs"),
    ({"kind": "complete", "role": "n-shiny-complete", "n": 4}, "complete_nshiny_4"),
    # Integer names outside the default catalog, built from the name's kind and fields.
    ({"kind": "T_eq_n", "n": 7}, "T_eq_7"),
    ({"kind": "T_leq_n", "n": 9}, "T_leq_9"),
    ({"kind": "T_geq_n", "n": 4}, "T_geq_4"),
    ({"kind": "T_gt_n_P", "n": 3}, "T_gt_3_P"),
    ({"kind": "T_mn", "m": 3, "n": 7}, "T_mn_3_7"),
    ({"kind": "T_d", "n": 5}, "T_d_5"),
    ({"kind": "T_ns", "n": 6}, "T_ns_6"),
    ({"kind": "T_step", "pin": 6, "floor": 2}, "T_step_6_2"),
    ({"kind": "complete", "role": "n-shiny-complete", "n": 2}, "complete_nshiny_2"),
]
INTEGER_NAMES = [name for _, name in KINDS[-9:]]


@pytest.mark.parametrize("spec, name", KINDS, ids=[f"{s['kind']}-{i}" for i, (s, _) in enumerate(KINDS)])
def test_every_json_kind_builds(spec, name):
    registry = Registry()
    built = Registry({"mine": spec}).resolve("mine")
    if name is not None:
        handle = registry.resolve(name)
        assert built.name == handle.name
        assert built.signature == handle.signature
        assert built.certificate == handle.certificate


def test_integer_names_are_built_on_demand():
    registry = Registry()
    assert not set(INTEGER_NAMES) & set(registry.names())
    for name in INTEGER_NAMES:
        assert registry.resolve(name) is registry.resolve(name)
    assert set(INTEGER_NAMES) <= set(registry.names())


def test_a_built_name_returns_the_handle_registered_under_its_name():
    registry = Registry()
    ns4, leq3 = registry.resolve("T_ns_4"), registry.resolve("T_leq_3")
    for _ in range(3):
        assert registry.resolve("T_step_4_4") is ns4
        assert registry.resolve("T_leq_03") is leq3
    assert registry.resolve("T_ns_4") is ns4 and registry.resolve("T_leq_3") is leq3
    assert len(registry.all_theories()) == 26


# The theories a cube with no positive predicate constrains: one has an
# unguarded axiom, or a bare predicate that a cube may leave unmentioned.
NOT_PREDICATE_FREE = (
    InfiniteOnlyTheory,
    ExactSizeTheory,
    MaxSizeTheory,
    MinSizeTheory,
    TwoSizeTheory,
    SizeCapTheory,
    SingletonOrInfiniteTheory,
    StepTheory,
)


def test_the_predicate_free_shape_is_read_from_the_theory():
    catalog = Registry().all_theories()
    built = [Registry({"mine": spec}).resolve("mine") for spec, _ in KINDS]
    assert len(catalog) == 26
    for t in catalog + built:
        part, shape, _ = t.read(Cube(()))
        assert (part, shape) == (None, t.predicate_free), t
        overrides = t.predicate_free is not Theory.predicate_free
        assert overrides == isinstance(t, NOT_PREDICATE_FREE), t


def test_doubling_oracle_caps_at_twice_the_index():
    double = theory_from_json({"kind": "T_leq_S", "S": "evens", "F": {"kind": "double"}})
    identity = theory_from_json({"kind": "T_leq_S", "S": "evens"})
    p2 = Cube((PredicateLiteral(PredicateId("P", (2,))),))
    assert double.spec_finite(p2, 4) and not double.spec_finite(p2, 6)
    assert not identity.spec_finite(p2, 4)


def test_family_renames_the_owned_predicates():
    t = theory_from_json({"kind": "T_eq_P", "family": "Q7"})
    assert t.name == "T_eq_P[Q7]"
    assert t.signature.owns(PredicateId("Q7", (3,)))


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "T_leq_n", "n": 3.7}, "n"),
        ({"kind": "T_leq_n", "n": True}, "n"),
        ({"kind": "T_eq_n", "n": "3"}, "n"),
        ({"kind": "T_mn", "m": 2.0, "n": 5}, "m"),
        ({"kind": "T_step", "pin": 4, "floor": None}, "floor"),
        ({"kind": "T_step", "pin": [4], "floor": 3}, "pin"),
        ({"kind": "complete", "role": "n-shiny-complete", "n": 4.5}, "n"),
    ],
)
def test_integer_fields_must_be_json_integers(spec, field):
    with pytest.raises(RegistryError, match=f"field '{field}' must be a JSON integer"):
        Registry({"bad": spec})


@pytest.mark.parametrize("family", ["p", 5, "", "P Q", "P\n", "7", None, ["P"]])
def test_family_outside_the_parser_grammar_is_rejected(family):
    with pytest.raises(RegistryError, match="family"):
        Registry({"bad": {"kind": "T_eq_P", "family": family}})


def test_integer_names_take_ascii_digits_only():
    # A name like T_leq_٣ would otherwise build T_leq_3 and answer for it.
    with pytest.raises(RegistryError, match="unknown theory"):
        Registry().resolve("T_leq_٣")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "T_leq_S", "S": 5},
        {"kind": "T_leq_S", "S": "evens", "F": 3},
        {"kind": "T_d", "n": 2, "F": ["double"]},
        {"kind": "T_cfs", "F": "double"},
        {"kind": "T_geq_F", "F": {"kind": "triple"}},
        {"kind": "T_eq_n"},
        {"kind": "T_leq_n"},
        {"kind": "T_geq_n"},
        {"kind": "T_gt_n_P"},
        {"kind": "T_mn", "n": 5},
        {"kind": "T_d"},
        {"kind": "T_ns"},
        {"kind": "T_step", "pin": 3},
        {"kind": "Th_of"},
        {"kind": "Th_of", "inner": 3},
        {"kind": "Th_of", "inner": {"kind": "T_si"}},
        {"kind": "Th_of", "inner": {"kind": "T_leq_n", "n": 0}},
        {"kind": "complete"},
        {"kind": "complete", "role": 3},
        {"kind": "complete", "role": "bogus"},
        {"kind": "complete", "role": "n-shiny-complete"},
        {"kind": "T_eq_n", "n": 0},
        {"kind": "T_leq_n", "n": 0},
        {"kind": "T_geq_n", "n": 0},
        {"kind": "T_gt_n_P", "n": 0},
        {"kind": "T_mn", "m": 5, "n": 5},
        {"kind": "T_d", "n": 0},
        {"kind": "T_ns", "n": 0},
        {"kind": "T_step", "pin": 0, "floor": 1},
        {"kind": "T_step", "pin": 2, "floor": 3},
        # Fields the kind does not read.
        {"kind": "T_leq_n", "n": 3, "family": "Q"},
        {"kind": "T_eq_P", "n": 9, "pin": 4},
        {"kind": "T_geq_n", "n": 2, "F": {"kind": "double"}},
        {"kind": "Th_of", "inner": {"kind": "T_leq_n", "n": 3, "family": "Q"}},
    ],
    ids=lambda spec: json.dumps(spec, sort_keys=True),
)
def test_a_bad_field_is_a_registry_error(spec):
    # Missing, mistyped and rejected fields alike, for a library caller
    # and through a config.
    with pytest.raises(RegistryError):
        theory_from_json(spec, Registry())
    with pytest.raises(RegistryError, match="theory 'bad'"):
        Registry({"bad": spec})


def test_an_unread_field_is_named():
    with pytest.raises(RegistryError, match="T_leq_n does not read field 'family'"):
        Registry({"bad": {"kind": "T_leq_n", "n": 3, "family": "Q"}})
    with pytest.raises(RegistryError, match="T_eq_P does not read field 'n', 'pin'"):
        theory_from_json({"kind": "T_eq_P", "n": 9, "pin": 4})
    with pytest.raises(RegistryError, match="T_geq_n does not read field 'F'"):
        theory_from_json({"kind": "Th_of", "inner": {"kind": "T_geq_n", "n": 2, "F": {"kind": "double"}}})
    # A null oracle is the identity oracle, as an absent one is.
    assert theory_from_json({"kind": "T_cfs", "F": None}).name == theory_from_json({"kind": "T_cfs"}).name


def test_aliases_resolve_to_the_catalog_handles_and_are_not_listed():
    registry = Registry()
    for alias, name in (("T=P", "T_eq_P"), ("Teq", "T_eq"), ("Tinf", "T_inf")):
        assert registry.resolve(alias) is registry.resolve(name)
    assert registry.resolve("T_leq_S_evens").s == evens()
    assert registry.resolve("T_leq_S_all").s == upfrom(1)
    aliases = {"T=P", "Teq", "Tinf", "T_leq_S_evens", "T_leq_S_all"}
    assert not aliases & set(registry.names())
    assert len(registry.all_theories()) == 26


def test_a_config_entry_named_like_an_alias_is_not_shadowed():
    registry = Registry({"T=P": {"kind": "T_leq_n", "n": 3}, "T_leq_S_evens": {"kind": "T_leq_n", "n": 4}})
    assert (registry.resolve("T=P").name, registry.resolve("T_leq_S_evens").name) == ("T_leq_3", "T_leq_4")
