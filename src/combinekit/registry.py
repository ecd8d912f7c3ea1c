"""Theory registry: resolve names and JSON definitions to theory handles.

The default catalog is always available; a JSON config (see
``RunConfig``) can add parameterized entries.  Names follow the
catalog's own naming (``T_eq_P``, ``T_leq_3``, ``T_mn_2_5``, ...), with
a few spellings normalized (``T=P``, ``Teq``, ``Th_of(toy)``).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

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


def _oracle_from_json(spec) -> FOracle:
    if spec is None:
        return identity_oracle()
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return identity_oracle()
    if kind == "double":
        return doubling_oracle()
    raise RegistryError(f"unknown oracle kind {kind!r}")


def _int_field(spec: dict, key: str) -> int:
    value = spec[key]
    if type(value) is not int:  # rejects floats and, since bool subclasses int, true/false
        raise RegistryError(f"field {key!r} must be a JSON integer, got {value!r}")
    return value


def theory_from_json(spec: dict, registry: "Registry | None" = None) -> Theory:
    """Build a theory handle from its JSON definition."""
    if not isinstance(spec, dict):
        raise RegistryError(f"a theory definition is a JSON object, not {spec!r}")
    kind = spec.get("kind")
    fam = spec.get("family", "P")
    if not isinstance(fam, str) or not FAMILY_RE.fullmatch(fam):
        raise RegistryError(f"family {fam!r} is not an uppercase letter followed by letters or digits")
    if kind in ("T_eq", "Teq"):
        return EqualityTheory()
    if kind == "T_inf":
        return InfiniteOnlyTheory()
    if kind == "T_eq_n":
        return ExactSizeTheory(_int_field(spec, "n"))
    if kind == "T_leq_n":
        return MaxSizeTheory(_int_field(spec, "n"))
    if kind == "T_geq_n":
        return MinSizeTheory(_int_field(spec, "n"))
    if kind == "T_eq_P":
        return SizePinTheory(fam)
    if kind == "T_gt_n_P":
        return BigModelTagTheory(_int_field(spec, "n"), fam)
    if kind == "T_mn":
        return TwoSizeTheory(_int_field(spec, "m"), _int_field(spec, "n"), fam)
    if kind == "T_leq_S":
        return SizeCapTheory(parse_set_literal(spec["S"]), _oracle_from_json(spec.get("F")), fam)
    if kind == "Th_of":
        inner_spec = spec["inner"]
        if isinstance(inner_spec, str):
            if registry is None:
                raise RegistryError("inner theory reference needs a registry")
            inner = registry.resolve(inner_spec)
        else:
            inner = theory_from_json(inner_spec, registry)
        return GapIndexTheory(inner, fam)
    if kind == "T_d":
        return MixedTagTheory(_int_field(spec, "n"), _oracle_from_json(spec.get("F")), fam)
    if kind == "T_cfs":
        return CapOrUnboundedTheory(_oracle_from_json(spec.get("F")), fam)
    if kind == "T_si":
        return TaggedInfinityTheory(fam)
    if kind == "T_cs":
        return SingletonOrInfiniteTheory(fam)
    if kind == "T_ns":
        return StepTheory(_int_field(spec, "n"), _int_field(spec, "n"), fam)
    if kind == "T_step":
        return StepTheory(_int_field(spec, "pin"), _int_field(spec, "floor"), fam)
    if kind == "T_geq_F":
        return OracleFloorTheory(_oracle_from_json(spec.get("F")), fam)
    if kind == "toy":
        return toy_inner_theory()
    if kind == "complete":
        return CompositeTestTheory(spec["role"], n=_int_field(spec, "n") if "n" in spec else None)
    raise RegistryError(f"unknown theory kind {kind!r}")


_DYNAMIC_PATTERNS: list[tuple[re.Pattern, callable]] = [
    (re.compile(r"^T_eq_(\d+)$"), lambda m: ExactSizeTheory(int(m.group(1)))),
    (re.compile(r"^T_leq_(\d+)$"), lambda m: MaxSizeTheory(int(m.group(1)))),
    (re.compile(r"^T_geq_(\d+)$"), lambda m: MinSizeTheory(int(m.group(1)))),
    (re.compile(r"^T_gt_(\d+)_P$"), lambda m: BigModelTagTheory(int(m.group(1)))),
    (re.compile(r"^T_mn_(\d+)_(\d+)$"), lambda m: TwoSizeTheory(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^T_d_(\d+)$"), lambda m: MixedTagTheory(int(m.group(1)))),
    (re.compile(r"^T_ns_(\d+)$"), lambda m: StepTheory(int(m.group(1)), int(m.group(1)))),
    (re.compile(r"^T_step_(\d+)_(\d+)$"), lambda m: StepTheory(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^complete_nshiny_(\d+)$"), lambda m: CompositeTestTheory("n-shiny-complete", n=int(m.group(1)))),
]

_ALIASES = {
    "T=P": "T_eq_P",
    "Teq": "T_eq",
    "Tinf": "T_inf",
}


@dataclass
class RunConfig:
    """A JSON registry config: ``{"theories": {name: definition, ...}}``.
    Run settings (``--K``, ``--cap``, ``--seed``, ``--format``) are CLI
    flags only."""

    theories: dict = field(default_factory=dict)

    @staticmethod
    def from_file(path: str) -> "RunConfig":
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
        return RunConfig(theories)


class Registry:
    """Named theory handles: default catalog + config additions."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self._theories: dict[str, Theory] = {}
        for t in default_catalog():
            self._theories[t.name] = t
        # Convenience spellings for the size-cap entries.
        from .sets import evens, upfrom

        for t in list(self._theories.values()):
            if isinstance(t, SizeCapTheory):
                if t.s == evens():
                    self._theories["T_leq_S_evens"] = t
                elif t.s == upfrom(1):
                    self._theories["T_leq_S_all"] = t
        for name, spec in self.config.theories.items():
            try:
                self._theories[name] = theory_from_json(spec, self)
            except KeyError as e:
                raise RegistryError(f"theory {name!r}: missing key {e}") from e
            except (CombineKitError, TypeError, ValueError) as e:
                raise RegistryError(f"theory {name!r}: {e}") from e

    def names(self) -> list[str]:
        return sorted(self._theories)

    def resolve(self, name: str) -> Theory:
        name = name.strip()
        name = _ALIASES.get(name, name)
        if name in self._theories:
            return self._theories[name]
        for pattern, build in _DYNAMIC_PATTERNS:
            m = pattern.match(name)
            if m:
                t = build(m)
                self._theories[t.name] = t
                return t
        raise RegistryError(f"unknown theory {name!r}; known: {', '.join(self.names())}")

    def all_theories(self) -> list[Theory]:
        seen: set[int] = set()
        out = []
        for name in sorted(self._theories):
            t = self._theories[name]
            if id(t) not in seen:
                seen.add(id(t))
                out.append(t)
        return out


def load_registry(config_path: str | None = None) -> Registry:
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    config = RunConfig.from_file(path) if path else RunConfig()
    return Registry(config)
