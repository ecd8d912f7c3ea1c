"""Command-line front end.

Subcommands: decide, combine, spectrum, classify, lattice, diagonal,
brute-check.  Output is JSON (or DOT for the lattice); exit codes follow
solver conventions: 0 satisfiable / success, 1 unsatisfiable, 2 error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from .brute import brute_sat_at, random_cube
from .classify import DEFAULT_PROBE_BOUND, build_lattice, filter_chain_demo, probe_certificate, referee
from .combine import METHODS, Method, combine_decide, n_shiny, quasi_gentle
from .diagonal import run_rounds
from .errors import CapabilityMissing, CombineKitError
from .formulas import iter_dnf, parse_formula, to_dnf
from .registry import Registry, load_registry
from .theories import Theory

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_ERROR = 2


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _parse_for(text: str, *theories: Theory):
    """Parse with the resolver of the first theory that has one."""
    resolver = next(filter(None, (getattr(t, "resolver", None) for t in theories)), None)
    return parse_formula(text, resolver)


def _positive_int(text: str) -> int:
    """The type of every count and bound flag: an integer >= 1, so that no
    bound makes a check vacuous."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _method_from_flag(name: str) -> Method | None:
    """``auto``, a method label as verdicts print it, ``no``, a bare
    ``quasi-gentle`` or ``n-shiny(<n>)``; bare ``n-shiny`` has no default n."""
    if name == "auto":
        return None
    labelled = {m.label(): m for m in (Method(kind) for kind in METHODS if kind != "n-shiny")}
    named = {"no": Method("nelson-oppen"), **labelled, "quasi-gentle": quasi_gentle()}
    if name in named:
        return named[name]
    m = re.fullmatch(r"n-shiny\(([1-9][0-9]*)\)", name)
    if m:
        return n_shiny(int(m.group(1)))
    accepted = ["auto", *named, "n-shiny(<n>)"]
    raise CombineKitError(f"unknown method {name!r}; accepted: {', '.join(accepted)}")


def cmd_decide(args, registry: Registry) -> int:
    theory = registry.resolve(args.theory)
    f = _parse_for(args.formula, theory)
    sat = any(theory.decide_cube(c) for c in iter_dnf(f))
    _emit({"sat": sat})
    return EXIT_SAT if sat else EXIT_UNSAT


def cmd_combine(args, registry: Registry) -> int:
    t1 = registry.resolve(args.theory1)
    t2 = registry.resolve(args.theory2)
    f = _parse_for(args.formula, t1, t2)
    method = _method_from_flag(args.method)
    verdict = combine_decide(t1, t2, f, method)
    _emit(verdict.to_json())
    return EXIT_SAT if verdict.sat else EXIT_UNSAT


def cmd_spectrum(args, registry: Registry) -> int:
    theory = registry.resolve(args.theory)
    f = _parse_for(args.formula, theory)
    cubes = to_dnf(f)
    finite = set()
    for k in range(1, args.upto + 1):
        for c in cubes:
            try:
                hit = theory.spec_finite(c, k)
            except CapabilityMissing:
                hit = brute_sat_at(theory, c, k)
            if hit:
                finite.add(k)
                break
    has_inf = None
    if theory.certificate.infinitely_decidable:
        has_inf = any(theory.spec_inf(c) for c in cubes)
    _emit({"finite_part": sorted(finite), "has_inf": has_inf, "upto": args.upto})
    return EXIT_SAT


def cmd_classify(args, registry: Registry) -> int:
    rows = []
    names = args.theories or [t.name for t in registry.all_theories()]
    for name in names:
        rows.extend(
            probe_certificate(registry.resolve(name), samples=args.samples, bound=args.K, seed=args.seed)
        )
    _emit(rows)
    return EXIT_ERROR if any(r["verdict"] == "fail" for r in rows) else EXIT_SAT


def cmd_lattice(args, registry: Registry) -> int:
    report = build_lattice(registry.all_theories(), n=args.n)
    if args.format == "dot":
        print(report.to_dot())
    else:
        _emit(report.to_json())
    return EXIT_SAT


def cmd_diagonal(args, registry: Registry) -> int:
    theory = registry.resolve(args.theory)
    state = None
    for state in run_rounds(theory, args.rounds):
        _emit(state.to_json())
    if state is not None:
        _emit({"digest": state.digest()})
    return EXIT_SAT


def cmd_brute_check(args, registry: Registry) -> int:
    theory = registry.resolve(args.theory)
    rng = random.Random(args.seed)
    counts = [referee(theory, random_cube(theory, rng), args.K) for _ in range(args.samples)]
    mismatches, withheld = map(sum, zip(*counts))
    _emit(
        {
            "theory": theory.name,
            "samples": args.samples,
            "K": args.K,
            "mismatches": mismatches,
            "withheld_queries": withheld,
            "status": "pass" if mismatches == 0 else "fail",
        }
    )
    return EXIT_SAT if mismatches == 0 else EXIT_ERROR


def cmd_filters(args, registry: Registry) -> int:
    _emit(filter_chain_demo(args.depth))
    return EXIT_SAT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="combinekit", description=__doc__)
    p.add_argument("--config", help="registry config path (or set COMBINEKIT_CONFIG)")
    # No parser defaults: `main` refuses each where `_READERS` says it is unread.
    p.add_argument("--format", choices=["json", "dot"])
    p.add_argument("--seed", type=int)
    p.add_argument("--K", type=_positive_int, help="brute-force size bound")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="satisfiability of a formula in one theory")
    d.add_argument("theory")
    d.add_argument("formula")
    d.set_defaults(fn=cmd_decide)

    c = sub.add_parser("combine", help="joint satisfiability over a disjoint union")
    c.add_argument("theory1")
    c.add_argument("theory2")
    c.add_argument("formula")
    c.add_argument("--method", default="auto", help="auto, a method label, no, quasi-gentle, or n-shiny(<n>)")
    c.set_defaults(fn=cmd_combine)

    s = sub.add_parser("spectrum", help="window view of a formula's spectrum")
    s.add_argument("theory")
    s.add_argument("formula")
    s.add_argument("--upto", type=_positive_int, default=6)
    s.set_defaults(fn=cmd_spectrum)

    cl = sub.add_parser("classify", help="run certificate probes")
    cl.add_argument("theories", nargs="*")
    cl.add_argument("--samples", type=_positive_int, default=25)
    cl.set_defaults(fn=cmd_classify)

    la = sub.add_parser("lattice", help="emit the property lattice")
    la.add_argument("--n", type=_positive_int, default=4)
    la.set_defaults(fn=cmd_lattice)

    di = sub.add_parser("diagonal", help="run the non-cofinite set construction")
    di.add_argument("--theory", default="T_leq_2")
    di.add_argument("--rounds", type=_positive_int, default=5)
    di.set_defaults(fn=cmd_diagonal)

    b = sub.add_parser("brute-check", help="oracle agreement suite for one theory")
    b.add_argument("--theory", required=True)
    b.add_argument("--samples", type=_positive_int, default=100)
    b.set_defaults(fn=cmd_brute_check)

    fi = sub.add_parser("filters", help="generated-filter chain/antichain demo")
    fi.add_argument("--depth", type=_positive_int, default=5)
    fi.set_defaults(fn=cmd_filters)

    return p


# Each global flag's destination: the subcommands that read it, and its default.
_READERS = {"K": (("classify", "brute-check"), DEFAULT_PROBE_BOUND), "seed": (("classify", "brute-check"), 0),
            "format": (("lattice",), "json")}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    i = 0
    while i < len(argv) and argv[i].startswith("-"):  # else argparse reads an unknown flag's value as the command
        flag = argv[i].split("=", 1)[0]
        if not any(o.startswith(flag) for o in parser._option_string_actions):
            parser.error(f"unrecognized arguments: {flag}")
        i += 1 if "=" in argv[i] else 2
    args = parser.parse_args(argv)
    try:
        for dest, (readers, default) in _READERS.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif args.command not in readers:
                raise CombineKitError(f"--{dest} applies only to {', '.join(readers)}")
        registry = load_registry(args.config)
        return args.fn(args, registry)
    except (CombineKitError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
    except Exception as e:  # an internal fault still exits 2, never 1 ("unsat")
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
