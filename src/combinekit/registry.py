"""Theory registry: resolve names and JSON definitions to theory handles.

The default catalog is always available; a JSON config (see
``read_config``) can add parameterized entries.  Every other theory is
built from its JSON definition through one table, ``_KINDS``; an integer
name such as ``T_step_6_2`` is the definition its ``_NAMES`` row spells.
``T=P``, ``Teq``, ``Tinf``, ``T_leq_S_evens`` and ``T_leq_S_all`` are
aliases.
"""

from __future__ import annotations

import json
import os
import re

from .catalog import (
    BigModelTagTheory,
    CapOrUnboundedTheory,
    CompositeTestTheory,
    EqualityTheory,
    ExactSizeTheory,
    GapIndexTheory,
    InfiniteOnlyTheory,
    MaxSizeTheory,
    MinSizeTheory,
    MixedTagTheory,
    OracleFloorTheory,
    SingletonOrInfiniteTheory,
    SizeCapTheory,
    SizePinTheory,
    StepTheory,
    TaggedInfinityTheory,
    TwoSizeTheory,
    default_catalog,
    toy_inner_theory,
)
from .errors import CombineKitError
from .formulas import FAMILY_RE
from .sets import parse_set_literal
from .theories import FOracle, Theory, doubling_oracle, identity_oracle

CONFIG_ENV_VAR = "COMBINEKIT_CONFIG"


class RegistryError(CombineKitError):
    pass


def _field(spec: dict, key: str, kind: type = int):
    """The field ``key``, present and of exactly this JSON type.  Like
    every field reader, it takes what it reads out of the definition."""
    if key not in spec:
        raise RegistryError(f"missing field {key!r}")
    value = spec.pop(key)
    if type(value) is not kind:  # rejects floats and, since bool subclasses int, true/false
        what = {int: "integer", str: "string", dict: "object"}[kind]
        raise RegistryError(f"field {key!r} must be a JSON {what}, got {value!r}")
    return value


def _family(spec: dict) -> str:
    """The definition's predicate family; ``P`` when absent."""
    fam = spec.pop("family", "P")
    if not isinstance(fam, str) or not FAMILY_RE.fullmatch(fam):
        raise RegistryError(f"family {fam!r} is not an uppercase letter followed by letters or digits")
    return fam


def _oracle(spec: dict) -> FOracle:
    """The definition's size-bound oracle ``F``; identity when absent or
    null.  A key of ``F`` other than its ``kind`` is refused."""
    oracle = {} if spec.get("F") is None else dict(_field(spec, "F", dict))
    spec.pop("F", None)
    kind = oracle.pop("kind", "identity")
    if kind not in ("identity", "double"):
        raise RegistryError(f"unknown oracle kind {kind!r}")
    if oracle:
        raise RegistryError(f"oracle {kind} does not read field {', '.join(map(repr, sorted(oracle)))}")
    return identity_oracle() if kind == "identity" else doubling_oracle()


def _inner(spec: dict, registry: "Registry | None") -> Theory:
    """A ``Th_of`` inner theory: a registry name or a nested definition."""
    if not isinstance(spec.get("inner"), str):
        return theory_from_json(_field(spec, "inner", dict), registry)
    if registry is None:
        raise RegistryError("inner theory reference needs a registry")
    return registry.resolve(_field(spec, "inner", str))


# Each JSON kind and its constructor, called with (definition, registry).
_KINDS = {
    "T_eq": lambda s, reg: EqualityTheory(),
    "T_inf": lambda s, reg: InfiniteOnlyTheory(),
    "T_eq_n": lambda s, reg: ExactSizeTheory(_field(s, "n")),
    "T_leq_n": lambda s, reg: MaxSizeTheory(_field(s, "n")),
    "T_geq_n": lambda s, reg: MinSizeTheory(_field(s, "n")),
    "T_eq_P": lambda s, reg: SizePinTheory(_family(s)),
    "T_gt_n_P": lambda s, reg: BigModelTagTheory(_field(s, "n"), _family(s)),
    "T_mn": lambda s, reg: TwoSizeTheory(_field(s, "m"), _field(s, "n"), _family(s)),
    "T_leq_S": lambda s, reg: SizeCapTheory(parse_set_literal(_field(s, "S", str)), _oracle(s), _family(s)),
    "Th_of": lambda s, reg: GapIndexTheory(_inner(s, reg), _family(s)),
    "T_d": lambda s, reg: MixedTagTheory(_field(s, "n"), _oracle(s), _family(s)),
    "T_cfs": lambda s, reg: CapOrUnboundedTheory(_oracle(s), _family(s)),
    "T_si": lambda s, reg: TaggedInfinityTheory(_family(s)),
    "T_cs": lambda s, reg: SingletonOrInfiniteTheory(_family(s)),
    "T_ns": lambda s, reg: StepTheory(*2 * [_field(s, "n")], _family(s)),
    "T_step": lambda s, reg: StepTheory(_field(s, "pin"), _field(s, "floor"), _family(s)),
    "T_geq_F": lambda s, reg: OracleFloorTheory(_oracle(s), _family(s)),
    "toy": lambda s, reg: toy_inner_theory(),
    "complete": lambda s, reg: CompositeTestTheory(
        _field(s, "role", str), n=_field(s, "n") if "n" in s else None
    ),
}
_KINDS["Teq"] = _KINDS["T_eq"]

# Integer names: each is the JSON definition of its kind, with the
# named groups as its integer fields.
_NAMES = [
    (r"T_eq_(?P<n>[0-9]+)", {"kind": "T_eq_n"}),
    (r"T_leq_(?P<n>[0-9]+)", {"kind": "T_leq_n"}),
    (r"T_geq_(?P<n>[0-9]+)", {"kind": "T_geq_n"}),
    (r"T_gt_(?P<n>[0-9]+)_P", {"kind": "T_gt_n_P"}),
    (r"T_mn_(?P<m>[0-9]+)_(?P<n>[0-9]+)", {"kind": "T_mn"}),
    (r"T_d_(?P<n>[0-9]+)", {"kind": "T_d"}),
    (r"T_ns_(?P<n>[0-9]+)", {"kind": "T_ns"}),
    (r"T_step_(?P<pin>[0-9]+)_(?P<floor>[0-9]+)", {"kind": "T_step"}),
    (r"complete_nshiny_(?P<n>[0-9]+)", {"kind": "complete", "role": "n-shiny-complete"}),
]

_ALIASES = {
    "T=P": "T_eq_P", "Teq": "T_eq", "Tinf": "T_inf",
    "T_leq_S_evens": "T_leq_S(periodic:p=0,q=2,pre=,per=01)", "T_leq_S_all": "T_leq_S(cofinite-excluding:[])",
}


def theory_from_json(spec: dict, registry: "Registry | None" = None) -> Theory:
    """Build a theory handle from its JSON definition; RegistryError for
    a missing, mistyped or unread field or a value the theory rejects."""
    if not isinstance(spec, dict):
        raise RegistryError(f"a theory definition is a JSON object, not {spec!r}")
    spec = dict(spec)  # what no field reader takes out of this copy is unread
    kind = spec.pop("kind", None)
    build = _KINDS.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise RegistryError(f"unknown theory kind {kind!r}")
    try:
        theory = build(spec, registry)
    except ValueError as e:
        raise RegistryError(f"{kind}: {e}") from e
    if spec:
        raise RegistryError(f"{kind} does not read field {', '.join(map(repr, sorted(spec)))}")
    return theory


def read_config(path: str) -> dict:
    """The theory definitions of a JSON registry config,
    ``{"theories": {name: definition, ...}}``.  Run settings (``--K``,
    ``--seed``, ``--format``) are CLI flags only."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise RegistryError(f"{path}: the config must be a JSON object")
    unknown = sorted(set(raw) - {"theories"})
    if unknown:
        raise RegistryError(f"{path}: unknown config keys {unknown}; only 'theories' is read")
    theories = raw.get("theories", {})
    if not isinstance(theories, dict):
        raise RegistryError(f"{path}: 'theories' must map names to theory definitions")
    return theories


class Registry:
    """Named theory handles: default catalog + config additions."""

    def __init__(self, theories: dict | None = None):
        self._theories: dict[str, Theory] = {t.name: t for t in default_catalog()}
        for name, spec in (theories or {}).items():
            try:
                self._theories[name] = theory_from_json(spec, self)
            except CombineKitError as e:
                raise RegistryError(f"theory {name!r}: {e}") from e

    def names(self) -> list[str]:
        return sorted(self._theories)

    def resolve(self, name: str) -> Theory:
        name = name.strip()
        name = name if name in self._theories else _ALIASES.get(name, name)  # no alias hides a config entry
        if name in self._theories:
            return self._theories[name]
        for pattern, kind in _NAMES:
            m = re.fullmatch(pattern, name)
            if m:
                fields = {key: int(value) for key, value in m.groupdict().items()}
                t = theory_from_json({**kind, **fields}, self)
                return self._theories.setdefault(t.name, t)  # one handle per canonical name
        raise RegistryError(f"unknown theory {name!r}; known: {', '.join(self.names())}")

    def all_theories(self) -> list[Theory]:
        """Each handle once, in the order of its first name."""
        return list({id(t): t for _, t in sorted(self._theories.items())}.values())


def load_registry(config_path: str | None = None) -> Registry:
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    return Registry(read_config(path) if path else None)
