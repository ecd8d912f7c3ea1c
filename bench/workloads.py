"""The three benchmark workloads: input generators, ops and referees.

A workload is built from the loaded combinekit modules, its registry and
the seed.  It hands out rounds of ops: round ``r`` is a fixed mix of op
kinds and sizes, with contents drawn from ``Random(f"{name}:{seed}:{r}")``,
so a round never depends on timing and the same seed gives the same
inputs.  ``execute`` is the timed op; ``check`` referees its result after
the op timer stops, with an oracle that is independent of the procedure
it checks:

* ``referee``: the brute-force finite-model oracle (``brute_spectrum``
  runs inside the op, as ``combinekit brute-check`` does);
* ``combine``: ``brute.brute_combined_formula_sat`` (no DNF, no splitting,
  no arrangements) over a window that is exact for each pair, plus the
  verdict the generator planted;
* ``scan``: closed forms known from the generator's own parameters, and a
  ``brute_spectrum`` re-derivation of every diagonal bucket.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


class BenchmarkError(RuntimeError):
    """The benchmark itself is inconsistent (not a program failure)."""


def size_band(n: int) -> str:
    """Doubling bands 1-2, 3-4, 5-8, 9-16, ... for growth-order buckets."""
    lo = 1
    while 2 * lo < n:
        lo *= 2
    return f"{lo + 1 if lo > 1 else 1}-{2 * lo}"


class Workload:
    name = ""
    # Nominal seconds per round, measured on a 2-vCPU Xeon VM when the
    # benchmark was defined.  It turns --seconds into a fixed round count,
    # so the work in a run never depends on the machine's speed.
    round_seconds = 1.0
    trace_rounds = 1

    def __init__(self, ck, registry, seed: int):
        self.ck = ck
        self.seed = seed
        self.withheld = 0
        self.arrangements_tried = 0
        self.loop_iterations = 0
        self.sat_verdicts = 0

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def theories(self) -> list:
        raise NotImplementedError

    def round_ops(self, r: int) -> list:
        raise NotImplementedError

    def counters(self) -> dict:
        return {
            "catalog.withheld": self.withheld,
            "combine.arrangements_tried": self.arrangements_tried,
            "combine.loop_iterations": self.loop_iterations,
            "combine.sat_verdicts": self.sat_verdicts,
        }

    def _count_verdict(self, verdict):
        self.arrangements_tried += verdict.stats["arrangements_tried"]
        self.loop_iterations += verdict.stats["loop_iterations"]
        self.sat_verdicts += int(verdict.sat)


# -- referee ---------------------------------------------------------------------


class Referee(Workload):
    """Every catalog theory against the brute oracle on seeded tiny cubes."""

    name = "referee"
    K = 6
    CUBES_PER_THEORY = 8
    round_seconds = 0.05
    trace_rounds = 40

    def __init__(self, ck, registry, seed):
        super().__init__(ck, registry, seed)
        self._theories = registry.all_theories()
        self._missing = ck.errors.CapabilityMissing

    def theories(self):
        return self._theories

    def round_ops(self, r):
        rng = self.rng(r)
        random_cube = self.ck.brute.random_cube
        return [
            (t, random_cube(t, rng))
            for _ in range(self.CUBES_PER_THEORY)
            for t in self._theories
        ]

    def bucket(self, op):
        return op[0].name

    def input_token(self, op):
        return f"{op[0].name}|{op[1]}"

    def execute(self, op):
        t, c = op
        cert = t.certificate
        sat = t.decide_cube(c)
        finite = []
        withheld = 0
        for k in range(1, self.K + 1):
            try:
                finite.append(t.spec_finite(c, k))
            except self._missing:
                if cert.is_n_decidable(k):
                    raise  # the certificate promised this answer
                withheld += 1
                finite.append(None)
        inf = t.spec_inf(c) if cert.infinitely_decidable else None
        window = self.ck.brute.brute_spectrum(t, c, self.K)
        return sat, finite, inf, window, withheld

    def check(self, op, result):
        t, c = op
        sat, finite, inf, window, withheld = result
        self.withheld += withheld
        ok = all(got is None or got == (k in window) for k, got in enumerate(finite, 1))
        ok = ok and (sat or not window) and (sat or not inf)
        if sat and not window:
            # As `combinekit brute-check`: a sat cube without a model up to
            # K needs an infinite one.
            ok = ok and (bool(inf) or t.infinite_only(c))
        return ok, "sat" if sat else "unsat"


# -- combine ---------------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    """A theory pair, the method it is run under (None: auto-selection),
    its joint model sizes and the predicate rule of its predicate side.

    ``sizes`` lists the finite sizes both theories admit; ``None`` means
    every size from ``min_size`` up.  Predicate rules:
    ``pin``: unary P_i, at most one true, P_i forces size i;
    ``tag_min``: unary P_i, at most one true, odd i forces size >= ``tag``;
    ``tag_eq``: unary P_i, at most one true, odd i forces size ``tag``;
    ``nullary``: one nullary Q that forces size ``tag`` when true.
    """

    method: str | None
    left: str
    right: str
    sizes: tuple[int, ...] | None
    rule: str | None = None
    tag: int = 0
    min_size: int = 1

    def label(self) -> str:
        return f"{self.method or 'auto'}:{self.left}+{self.right}"

    def max_size(self, v: int) -> int:
        return max(self.sizes) if self.sizes else v

    def window(self, v: int) -> int:
        """A brute window that is exact for this pair: every satisfiable
        formula over v variables has a joint model no larger than this."""
        if self.sizes:
            return max(self.sizes)
        return max(v, self.min_size, self.tag)


COMBINE_PAIRS = (
    Pair("nelson-oppen", "T_geq_2", "T_gt_2_P", None, "tag_min", tag=3, min_size=2),
    Pair("gentle", "T_eq_P", "T_leq_3", (1, 2, 3), "pin"),
    Pair("cs", "T_eq_5", "toy", (5,), "nullary", tag=4),
    Pair("smcs", "T_geq_2", "T_mn_2_5", (2, 5), "tag_eq", tag=5),
    Pair("n-shiny", "T_eq_5", "T_mn_2_5", (5,), "tag_eq", tag=5),
    Pair("quasi-gentle", "T_geq_2", "T_leq_3", (2, 3)),
    Pair("shiny", "T_eq", "T_mn_4_5", (4, 5), "tag_eq", tag=5),
    Pair(None, "T_mn_4_5", "T_geq_2", (4, 5), "tag_eq", tag=5),
)

# Per pair and shared-variable count: (sat ops, unsat ops, disjunctions).
# Every cube of an unsat formula tries all Bell(v) arrangements, so the
# heavy counts stay small and the disjunctions shrink as v grows.  The
# many small formulas put the median inside one dense cluster of costs,
# and the eight v = 7 unsat ops per round hold the 99th percentile.
COMBINE_MIX = {
    2: (16, 8, 2),
    3: (16, 8, 2),
    4: (5, 3, 2),
    5: (3, 1, 2),
    6: (2, 1, 1),
    7: (1, 1, 0),
}
PRED_INDICES = range(1, 7)


def _eq(a: str, b: str, positive: bool) -> str:
    return f"(= {a} {b})" if positive else f"(not (= {a} {b}))"


def _pred(pair: Pair, i: int, positive: bool) -> str:
    atom = "(Q)" if pair.rule == "nullary" else f"(P {i})"
    return atom if positive else f"(not {atom})"


def _true_pred_allowed(pair: Pair, i: int, k: int) -> bool:
    if pair.rule == "pin":
        return i == k
    if pair.rule == "tag_min":
        return i % 2 == 0 or k >= pair.tag
    if pair.rule == "tag_eq":
        return i % 2 == 0 or k == pair.tag
    if pair.rule == "nullary":
        return k == pair.tag
    return False


def unsat_reasons(pair: Pair, v: int) -> list[str]:
    """Ways to make a formula over v variables unsatisfiable for the pair,
    each known from the pair's semantics alone."""
    out = []
    if v >= 3:
        out.append("transitive")
    if pair.sizes and v > max(pair.sizes):
        out.append("clique")
    if pair.rule in ("pin", "tag_min", "tag_eq"):
        out.append("two_preds")
    if pair.rule == "pin":
        out.append("pin_too_big")
    if pair.rule == "nullary" and pair.tag not in pair.sizes:
        out.append("forced_size")
    return out


def make_formula(rng: random.Random, pair: Pair, v: int, reason: str | None, d: int) -> str:
    """Formula text over x1..xv: a chain of literals touching every
    variable, extra literals, and d binary disjunctions over atoms the
    conjunctive part does not use.  With ``reason`` None every conjunct
    is true in a planted joint model; otherwise the conjunctive part is
    unsatisfiable for that reason.  Every cube of the DNF mentions all v
    variables and the DNF has exactly 2**d cubes."""
    xs = [f"x{i}" for i in range(1, v + 1)]
    # Plant a model: c classes, a joint size k >= c, predicate truths.
    c = rng.randint(1, min(v, pair.max_size(v)))
    sizes = [s for s in pair.sizes if s >= c] if pair.sizes else [max(c, pair.min_size)]
    k = rng.choice(sizes)
    cls = list(range(c)) + [rng.randrange(c) for _ in range(v - c)]
    rng.shuffle(cls)
    value = dict(zip(xs, cls))
    true_pred = None
    if pair.rule:
        allowed = [i for i in PRED_INDICES if _true_pred_allowed(pair, i, k)]
        if pair.rule == "nullary":
            allowed = allowed[:1]
        if allowed and rng.random() < 0.6:
            true_pred = rng.choice(allowed)
    pred_atoms = [] if not pair.rule else ([1] if pair.rule == "nullary" else list(PRED_INDICES))

    lits: dict[tuple, bool] = {}  # atom -> polarity; atoms ("eq", a, b) / ("p", i)

    def eq_atom(a, b):
        return ("eq",) + tuple(sorted((a, b)))

    order = xs[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        lits[eq_atom(a, b)] = value[a] == value[b]
    for _ in range(v // 2):
        a, b = rng.sample(xs, 2) if v >= 2 else (xs[0], xs[0])
        lits[eq_atom(a, b)] = value[a] == value[b]
    if pair.rule:
        if true_pred is not None and rng.random() < 0.7:
            lits[("p", true_pred)] = True
        for i in rng.sample(pred_atoms, min(len(pred_atoms), rng.randint(0, 2))):
            lits.setdefault(("p", i), i == true_pred)

    if reason == "transitive":
        a, b, e = rng.sample(xs, 3)
        lits[eq_atom(a, b)] = True
        lits[eq_atom(b, e)] = True
        lits[eq_atom(a, e)] = False
    elif reason == "clique":
        for a, b in itertools.combinations(rng.sample(xs, max(pair.sizes) + 1), 2):
            lits[eq_atom(a, b)] = False
    elif reason == "two_preds":
        for i in rng.sample(pred_atoms, 2):
            lits[("p", i)] = True
    elif reason == "pin_too_big":
        for i in pred_atoms:
            lits.pop(("p", i), None)
        lits[("p", rng.choice([i for i in pred_atoms if i > max(pair.sizes)]))] = True
    elif reason == "forced_size":
        lits[("p", 1)] = True
    elif reason is not None:
        raise BenchmarkError(f"unknown unsat reason {reason!r}")

    def truth(atom):
        if atom[0] == "eq":
            return value[atom[1]] == value[atom[2]]
        return atom[1] == true_pred

    free = [eq_atom(a, b) for a, b in itertools.combinations(xs, 2)]
    free += [("p", i) for i in pred_atoms]
    free = [a for a in free if a not in lits]
    rng.shuffle(free)

    def text(atom, positive):
        if atom[0] == "eq":
            return _eq(atom[1], atom[2], positive)
        return _pred(pair, atom[1], positive)

    parts = [text(a, p) for a, p in lits.items()]
    for j in range(min(d, len(free) // 2)):
        a, b = free[2 * j], free[2 * j + 1]
        first = text(a, truth(a))  # true in the planted model
        second = text(b, rng.random() < 0.5)
        pair_txt = [first, second]
        rng.shuffle(pair_txt)
        parts.append(f"(or {' '.join(pair_txt)})")
    rng.shuffle(parts)
    return f"(and {' '.join(parts)})" if len(parts) > 1 else parts[0]


@dataclass(frozen=True)
class CombineOp:
    pair: int
    v: int
    planted_sat: bool
    text: str


class Combine(Workload):
    """Seeded formula text over fixed theory pairs, one pair per method
    plus auto-selection; one op is parse_formula + combine_decide."""

    name = "combine"
    round_seconds = 3.5
    trace_rounds = 1

    def __init__(self, ck, registry, seed):
        super().__init__(ck, registry, seed)
        self.pairs = [(p, registry.resolve(p.left), registry.resolve(p.right)) for p in COMBINE_PAIRS]
        combine = ck.combine
        self.methods = []
        for p, _, _ in self.pairs:
            if p.method is None:
                self.methods.append(None)
            elif p.method == "n-shiny":
                self.methods.append(combine.n_shiny(5))
            elif p.method == "quasi-gentle":
                self.methods.append(combine.quasi_gentle())
            else:
                self.methods.append(combine.Method(p.method))

    def theories(self):
        out = []
        for _, t1, t2 in self.pairs:
            out += [t for t in (t1, t2) if all(t is not o for o in out)]
        return out

    def slots(self, r: int) -> list[tuple[int, int, bool, int, int]]:
        """(pair, v, planted sat, disjunctions, slot number) for round r.
        The mix does not depend on the seed.  v = 8 has one unsat op per
        round, on a pair that rotates with r; it has no sat ops, because
        where a sat formula finds its first good arrangement among 4,140
        is random and would swing a whole round's time."""
        out = []
        n = len(COMBINE_PAIRS)
        for p in range(n):
            for v, (n_sat, n_unsat, d) in COMBINE_MIX.items():
                if not unsat_reasons(COMBINE_PAIRS[p], v):
                    n_sat, n_unsat = n_sat + n_unsat, 0
                out += [(p, v, True, d)] * n_sat + [(p, v, False, d)] * n_unsat
        out.append((r % n, 8, False, 0))
        return [s + (i,) for i, s in enumerate(out)]

    def round_ops(self, r):
        rng = self.rng(r)
        ops = []
        for p, v, sat, d, slot in self.slots(r):
            pair = COMBINE_PAIRS[p]
            reason = None
            if not sat:
                reasons = unsat_reasons(pair, v)
                reason = reasons[(slot + r) % len(reasons)]
            ops.append(CombineOp(p, v, sat, make_formula(rng, pair, v, reason, d)))
        rng.shuffle(ops)
        return ops

    def bucket(self, op):
        return f"v={op.v} {'sat' if op.planted_sat else 'unsat'}"

    def input_token(self, op):
        return f"{COMBINE_PAIRS[op.pair].label()}|{op.text}"

    def execute(self, op):
        _, t1, t2 = self.pairs[op.pair]
        f = self.ck.formulas.parse_formula(op.text)
        return f, self.ck.combine.combine_decide(t1, t2, f, self.methods[op.pair])

    def check(self, op, result):
        f, verdict = result
        self._count_verdict(verdict)
        pair, t1, t2 = self.pairs[op.pair]
        truth = self.ck.brute.brute_combined_formula_sat(t1, t2, f, pair.window(op.v))
        if truth != op.planted_sat:
            raise BenchmarkError(f"generator planted {op.planted_sat} for {op.text!r}")
        return verdict.sat == truth, "sat" if verdict.sat else "unsat"


# -- scan ------------------------------------------------------------------------

# (low n, high n, ops) per band, per op kind.  A band's ops split it into
# equal slices and each draws its n within its own slice, so a round's
# scan lengths, and with them its cost, barely move with the seed.
SCAN_BANDS = ((2, 4, 12), (5, 8, 10), (9, 16, 7), (17, 24, 3), (25, 32, 2), (33, 40, 2))
SCAN_KINDS = ("max_finite", "smcs", "cs", "quasi-gentle")
DIAG_ROUNDS = 80
SCAN_MAX_N = 40


@dataclass(frozen=True)
class ScanOp:
    kind: str
    n: int
    aux: int  # clique size of the cube, or the floor m of T_geq_m
    text: str  # formula text (combine kinds), the cube (max_finite) or ""
    cube: object = None  # the max_finite input cube


class Scan(Workload):
    """Unbounded cardinality scans: the diagonal construction on T_leq_2,
    SpectrumView.max_finite/minmod on T_leq_n cubes, and combine_decide
    under smcs, cs and quasi-gentle with drawn scan lengths."""

    name = "scan"
    round_seconds = 2.6
    trace_rounds = 1

    def __init__(self, ck, registry, seed):
        super().__init__(ck, registry, seed)
        self.diag_theory = registry.resolve("T_leq_2")
        self.enum = ck.theories.FormulaEnumeration(self.diag_theory)
        self.leq = {n: registry.resolve(f"T_leq_{n}") for n in range(1, SCAN_MAX_N + 1)}
        self.eq = {n: registry.resolve(f"T_eq_{n}") for n in range(1, SCAN_MAX_N + 1)}
        self.geq = {m: registry.resolve(f"T_geq_{m}") for m in range(1, SCAN_MAX_N + 4)}
        combine = ck.combine
        self.methods = {
            "smcs": combine.SMCS,
            "cs": combine.CS,
            "quasi-gentle": combine.quasi_gentle(),
        }
        self.state = None
        self.digests: set[str] = set()
        self._spectra: dict[int, set[int]] = {}

    def theories(self):
        return (
            [self.diag_theory]
            + list(self.leq.values())
            + list(self.eq.values())
            + list(self.geq.values())
        )

    def round_ops(self, r):
        rng = self.rng(r)
        ops = []
        for kind in SCAN_KINDS:
            slot = 0
            for lo, hi, count in SCAN_BANDS:
                width = hi - lo + 1
                for i in range(count):
                    first = lo + width * i // count
                    n = rng.randint(first, max(first, lo + width * (i + 1) // count - 1))
                    # Every fourth op of a kind is unsatisfiable; max_finite
                    # keeps its unsat cubes small (their clique exceeds n).
                    unsat = slot % 4 == 3 and (kind != "max_finite" or n <= 8)
                    slot += 1
                    if kind == "max_finite":
                        c = n + rng.randint(1, 3) if unsat else rng.randint(1, min(n, 6))
                        cube = self._cube(rng, c)
                        ops.append(ScanOp(kind, n, c, str(cube), cube))
                    else:
                        m = n + rng.randint(1, 3) if unsat else rng.randint(1, n)
                        var = rng.choice("xyzw")
                        ops.append(ScanOp(kind, n, m, f"(= {var} {var})"))
        rng.shuffle(ops)
        # Diagonal rounds keep their order, spread evenly among the rest.
        step = len(ops) / DIAG_ROUNDS
        for i in reversed(range(DIAG_ROUNDS)):
            ops.insert(int(i * step), ScanOp("diagonal", i, 0, ""))
        return ops

    def _cube(self, rng: random.Random, c: int):
        """A cube whose least model has exactly c elements: a disequality
        clique over c class representatives (so at least c) and extra
        variables placed in those classes (so c suffice)."""
        eq = self.ck.formulas.EqualityLiteral
        reps = [f"a{i}" for i in range(1, c + 1)]
        lits = [eq(a, b, False) for a, b in itertools.combinations(reps, 2)]
        for j in range(rng.randint(0, 3)):
            home = rng.choice(reps)
            lits.append(eq(f"b{j}", home, True))
            other = [r for r in reps if r != home]
            if other:
                lits.append(eq(f"b{j}", rng.choice(other), False))
        if not lits:
            lits.append(eq("a1", "a1", True))
        return self.ck.formulas.Cube(tuple(lits))

    def bucket(self, op):
        if op.kind == "diagonal":
            j = self.state.j if self.state is not None and op.n else 1
            return f"diagonal j={size_band(j)}"
        return f"{op.kind} n={size_band(op.n)}"

    def input_token(self, op):
        return f"{op.kind}|{op.n}|{op.aux}|{op.text}"

    def execute(self, op):
        ck = self.ck
        if op.kind == "diagonal":
            before = ck.diagonal.initial_state() if op.n == 0 else self.state
            state = ck.diagonal.process_formula(before, self.diag_theory, self.enum)
            state = ck.diagonal.process_number(state, self.diag_theory, self.enum)
            self.state = state
            return before, state
        if op.kind == "max_finite":
            v = ck.spectra.view(self.leq[op.n], op.cube)
            return v.max_finite(), v.minmod()
        f = ck.formulas.parse_formula(op.text)
        if op.kind == "cs":
            t1, t2 = self.eq[op.n], self.geq[op.aux]
        else:
            t1, t2 = self.geq[op.aux], self.eq[op.n]
        return ck.combine.combine_decide(t1, t2, f, self.methods[op.kind])

    def _brute_spectrum(self, fid: int) -> set[int]:
        if fid not in self._spectra:
            cube = self.enum.cube(fid)
            self._spectra[fid] = self.ck.brute.brute_spectrum(self.diag_theory, cube, 6)
        return self._spectra[fid]

    def check(self, op, result):
        if op.kind == "diagonal":
            before, after = result
            fid = before.i
            spectrum = self._brute_spectrum(fid)  # T_leq_2 spectra live in [1, 2]
            if fid in after.sat:
                ok = bool(spectrum & after.s_prefix)
            elif fid in after.unsat:
                ok = not spectrum & after.s_prefix and max(spectrum, default=0) < before.j
            else:
                ok = fid in after.prom and max(spectrum, default=0) >= before.j
            ok = ok and after.i == fid + 1 and after.j > before.j
            if op.n == DIAG_ROUNDS - 1:
                self.digests.add(after.digest())
                ok = ok and len(self.digests) == 1
            return ok, f"{fid}:{'sat' if fid in after.sat else 'unsat' if fid in after.unsat else 'prom'}"
        if op.kind == "max_finite":
            mf, mm = result
            fits = op.aux <= op.n
            ok = mf == (op.n if fits else None) and mm == (op.aux if fits else None)
            return ok, f"{mf}:{mm}"
        self._count_verdict(result)
        return result.sat == (op.aux <= op.n), "sat" if result.sat else "unsat"

    def diagonal_digest(self) -> str | None:
        return next(iter(self.digests)) if len(self.digests) == 1 else None


WORKLOADS = {w.name: w for w in (Referee, Combine, Scan)}
