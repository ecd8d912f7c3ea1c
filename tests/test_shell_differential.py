"""The lazy shell against in-test copies of the eager code it replaced.

The parser tokenizes without offsets and recovers a token's offset only
when it raises; lowering streams literal tuples and normalizes each cube
when it is reached; the split keeps each side's literals in the cube's
order; and the combination shell runs the method on the sides' readings
at each block count instead of on joined arrangement cubes.  Each copy
below is the code as it stood before, so every test here is a
differential: same formulas, same errors, same cubes, same verdict JSON,
except that the shell skips a cube one side refutes, so its counts of
arrangements and loop iterations may only fall.
"""

import itertools
import json
import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from combinekit.combine import (
    METHODS,
    CombinationVerdict,
    _candidate_methods,
    _orient,
    combine_decide,
    hypothesis_diff,
    select_method,
)
from combinekit.errors import CombineKitError, MethodNotApplicable, ParseError, SignatureError
from combinekit.formulas import (
    FAMILY_RE,
    And,
    Cube,
    EqualityLiteral,
    Not,
    Or,
    PredicateId,
    PredicateLiteral,
    Signature,
    _TOKEN_RE,
    _VAR_RE,
    arrangement_to_cube,
    enumerate_arrangements,
    iter_dnf,
    parse_formula,
    split_by_signature,
    to_dnf,
)
from combinekit.spectra import view

# -- the eager code, as it was ----------------------------------------------------


def reference_parse(text, resolver=None):
    tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)] + [(None, len(text))]
    pos = 0

    def take():
        nonlocal pos
        tok, off = tokens[pos]
        if tok is None:
            raise ParseError("unexpected end of input", off)
        pos += 1
        return tok, off

    def items(read, at_end="unexpected end of input"):
        nonlocal pos
        out = []
        while tokens[pos][0] != ")":
            if tokens[pos][0] is None:
                raise ParseError(at_end, len(text))
            out.append(read())
        pos += 1
        return out

    def no_item():
        tok, off = take()
        raise ParseError(f"expected ')', got {tok!r}", off)

    def variable(tok, off):
        if not _VAR_RE.match(tok):
            raise ParseError(f"bad variable {tok!r}", off)
        return tok

    def index():
        tok, off = take()
        if tok == "inf":
            return "inf"
        if tok.isascii() and tok.isdigit():
            if int(tok) < 1:
                raise ParseError(f"non-positive index {tok}", off)
            return int(tok)
        if not FAMILY_RE.match(tok):
            raise ParseError(f"bad index {tok!r}", off)
        if resolver is None:
            raise ParseError(f"no resolver for formula reference {tok!r}", off)
        try:
            ix = resolver(tok)
        except KeyError:
            raise ParseError(f"unknown formula reference {tok!r}", off)
        if type(ix) is not int or ix < 1:
            raise ParseError(f"formula reference {tok!r} resolved to {ix!r}, not a positive id", off)
        return ix

    def expr():
        tok, off = take()
        if tok != "(":
            raise ParseError(f"expected '(', got {tok!r}", off)
        head, hoff = take()
        if head in ("and", "or"):
            kids = tuple(items(expr, "unterminated list"))
            if not kids:
                raise ParseError(f"empty ({head})", hoff)
            return And(kids) if head == "and" else Or(kids)
        if head == "distinct":
            vs = items(lambda: variable(*take()))
            if len(vs) < 2:
                raise ParseError("(distinct ...) needs at least two variables", hoff)
            lits = tuple(EqualityLiteral(x, y, False) for x, y in itertools.combinations(vs, 2))
            return And(lits) if len(lits) > 1 else lits[0]
        if head == "=":
            a, b = take(), take()
            f = EqualityLiteral(variable(*a), variable(*b), True)
        elif head == "not":
            f = Not(expr())
        else:
            fam, foff = take() if head == "pred" else (head, hoff)
            if not FAMILY_RE.match(fam):
                what = "unknown predicate family" if head == "pred" else "unknown operator"
                raise ParseError(f"{what} {fam!r}", foff)
            return PredicateLiteral(PredicateId(fam, tuple(items(index))))
        items(no_item)
        return f

    f = expr()
    tok, off = tokens[pos]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", off)
    return f


def reference_to_dnf(f):
    out, seen = [], set()
    for c in _reference_dnf(f, False):
        if c.contradictory or c in seen:
            continue
        seen.add(c)
        out.append(c)
    return out


def _reference_dnf(f, negate):
    if isinstance(f, Not):
        return _reference_dnf(f.child, not negate)
    if not isinstance(f, (And, Or)):
        return [Cube((f.negate() if negate else f,))]
    parts = [_reference_dnf(c, negate) for c in f.children]
    if isinstance(f, Or) != negate:
        return [c for part in parts for c in part]
    return [
        Cube(tuple(itertools.chain.from_iterable(c.literals for c in combo)))
        for combo in itertools.product(*parts)
    ]


def reference_split(cube, sig1, sig2):
    if not sig1.disjoint_from(sig2):
        overlap = sorted(sig1.families & sig2.families)
        raise SignatureError(f"signatures overlap on {overlap}; rename a family")
    lits1, lits2 = [], []
    for lit in cube.literals:
        if isinstance(lit, EqualityLiteral):
            lits1.append(lit)
            lits2.append(lit)
        elif sig1.owns(lit.pred):
            lits1.append(lit)
        elif sig2.owns(lit.pred):
            lits2.append(lit)
        else:
            raise SignatureError(f"predicate {lit.pred} owned by neither signature")
    c1, c2 = Cube(tuple(lits1)), Cube(tuple(lits2))
    return c1, c2, c1.variables() & c2.variables()


def reference_combine(t1, t2, f, method=None):
    if method is None:
        picked = select_method(t1, t2)
        if picked is None:
            raise MethodNotApplicable(f"no method applies to ({t1.name}, {t2.name})")
        method, swapped = picked
    else:
        swapped = _orient(method, t1, t2)
        if swapped is None:
            raise MethodNotApplicable(hypothesis_diff(method, t1, t2))
    if swapped:
        t1, t2 = t2, t1
    run = METHODS[method.kind][1]
    if method.kind == "n-shiny":
        run = partial(run, n=method.n)
    stats = {"arrangements_tried": 0, "loop_iterations": 0}
    label = method.label() + (" [sides swapped]" if swapped else "")
    for cube in reference_to_dnf(f):
        c1, c2, shared = reference_split(cube, t1.signature, t2.signature)
        tried_blocks = set()
        for arr in enumerate_arrangements(shared, cube):
            stats["arrangements_tried"] += 1
            if len(arr.blocks) in tried_blocks:
                continue
            tried_blocks.add(len(arr.blocks))
            delta = arrangement_to_cube(arr)
            a1, a2 = c1.join(delta), c2.join(delta)
            ok, card, scanned = run(view(t1, a1), view(t2, a2))
            stats["loop_iterations"] += scanned
            if ok:
                witness = (arr, card) if card is not None else None
                return CombinationVerdict(True, witness, label, stats)
    return CombinationVerdict(False, None, label, stats)


def _outcome(fn):
    try:
        return fn()
    except CombineKitError as e:
        return (type(e).__name__, str(e), getattr(e, "offset", None))


# -- parsing ---------------------------------------------------------------------

TEMPLATES = (
    "(and (= x y) (P 3))",
    "(or (not (= a b)) (pred Q 2 inf))",
    "(distinct x y z)",
    "(pred P Q 4)",
    "(and (P 1) (or (= u v) (distinct u v w)))",
    "(not (P inf))",
    "(pred R 2 5 9)",
    "(and (P) (= é x))",
)
NOISE = (
    "(", ")", "()", "0", "00", "-1", "²", "inf", "Q", "Zed", "Missing", "x", "X", "1x",
    "and", "or", "not", "pred", "distinct", "=", "lower", "é",
)
ERROR_KINDS = (
    "unexpected end of input",
    "unterminated list",
    "expected ')'",
    "bad variable",
    "non-positive index",
    "bad index",
    "no resolver",
    "unknown formula reference",
    "resolved to",
    "expected '('",
    "empty (",
    "(distinct ...) needs",
    "unknown predicate family",
    "unknown operator",
    "trailing input",
)


def _mutate(text, rng):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1 :]
        elif op == 1:
            text = text[:i] + f" {rng.choice(NOISE)} " + text[i:]
        elif op == 2:
            text = text[:i]
        else:
            toks = text.split(" ")
            j = rng.randrange(len(toks))
            toks[j] = rng.choice(NOISE)
            text = " ".join(toks)
    return text


def test_parse_errors_keep_their_message_and_offset():
    rng = random.Random(21)
    resolver = {"Q": 7, "Zed": 0}.__getitem__
    kinds = set()
    errors = 0
    for _ in range(4000):
        text = _mutate(rng.choice(TEMPLATES), rng)
        res = rng.choice((None, resolver))
        want = _outcome(lambda: repr(reference_parse(text, res)))
        got = _outcome(lambda: repr(parse_formula(text, res)))
        assert got == want, text
        if isinstance(want, tuple):
            errors += 1
            kinds |= {k for k in ERROR_KINDS if k in want[1]}
    assert errors > 2000
    assert kinds == set(ERROR_KINDS)


# -- lowering --------------------------------------------------------------------

LEAVES = [
    PredicateLiteral(PredicateId("P", (1,))),
    PredicateLiteral(PredicateId("P", (2,))),
    PredicateLiteral(PredicateId("P", (1,)), False),
    EqualityLiteral("x", "y"),
    EqualityLiteral("y", "z"),
    EqualityLiteral("x", "z", False),
    EqualityLiteral("x", "x", False),
]

formula_strategy = st.recursive(
    st.sampled_from(LEAVES),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(lambda ks: And(tuple(ks)), st.lists(kids, max_size=3)),
        st.builds(lambda ks: Or(tuple(ks)), st.lists(kids, max_size=3)),
    ),
    max_leaves=14,
)


def _cube_literals(cubes):
    return [c.literals for c in cubes]


@given(formula_strategy)
@settings(max_examples=200, deadline=None)
def test_lazy_lowering_yields_the_eager_cubes(f):
    want = reference_to_dnf(f)
    assert _cube_literals(iter_dnf(f)) == _cube_literals(want)
    assert to_dnf(f) == want


def _wide_formula(rng, d):
    """A conjunction of literals, Nots and d disjunctions of small parts."""
    def small(depth):
        if depth == 0 or rng.random() < 0.5:
            lit = rng.choice(LEAVES)
            return Not(lit) if rng.random() < 0.3 else lit
        kids = tuple(small(depth - 1) for _ in range(rng.randint(1, 3)))
        node = And(kids) if rng.random() < 0.5 else Or(kids)
        return Not(node) if rng.random() < 0.2 else node

    parts = [small(1) for _ in range(rng.randint(0, 3))]
    parts += [Or((small(1), small(1))) for _ in range(d)]
    rng.shuffle(parts)
    f = And(tuple(parts))
    return Not(Not(f)) if rng.random() < 0.2 else f


def test_lazy_lowering_matches_eager_with_up_to_eight_disjunctions():
    rng = random.Random(8)
    for d in range(9):
        for _ in range(8):
            f = _wide_formula(rng, d)
            assert _cube_literals(iter_dnf(f)) == _cube_literals(reference_to_dnf(f)), f


def test_split_sides_are_the_normalized_cubes():
    rng = random.Random(3)
    sig1, sig2 = Signature(frozenset({("P", 1)})), Signature(frozenset({("Q", 1)}))
    pool = LEAVES + [PredicateLiteral(PredicateId("Q", (k,)), k % 2 == 0) for k in (1, 2, 3)]
    for _ in range(500):
        cube = Cube(tuple(rng.sample(pool, rng.randint(0, 6))))
        got, want = split_by_signature(cube, sig1, sig2), reference_split(cube, sig1, sig2)
        assert got == want
        for side in got[:2]:
            assert side.literals == Cube(side.literals).literals
            assert side.contradictory == Cube(side.literals).contradictory


# -- the combination shell ------------------------------------------------------------


def _accepts(theory, pid):
    try:
        theory.check_pred(pid)
    except SignatureError:
        return False
    return True


def _joint_formula(t1, t2, rng):
    """A well-formed formula over both signatures with 1 to 3 disjunctions:
    every predicate is one its owner accepts."""
    vs = ["x", "y", "z", "w"][: rng.randint(1, 4)]
    preds = []
    for t in (t1, t2):
        for _ in range(2):
            pid = t.sample_pred(rng)
            if pid is not None and _accepts(t, pid):
                preds.append(pid)

    def atom():
        if preds and rng.random() < 0.4:
            lit = PredicateLiteral(rng.choice(preds))
        else:
            lit = EqualityLiteral(rng.choice(vs), rng.choice(vs))
        return lit if rng.random() < 0.6 else Not(lit)

    parts = [atom() for _ in range(rng.randint(1, 4))]
    parts += [Or((atom(), atom())) for _ in range(rng.randint(1, 3))]
    rng.shuffle(parts)
    return And(tuple(parts))


def _verdict_json(decide):
    """The verdict's JSON without its stats, and the stats; or the error."""
    def run():
        out = decide().to_json()
        stats = out.pop("stats")
        return json.dumps(out, sort_keys=True), stats
    return _outcome(run)


def test_combine_json_matches_the_arrangement_cube_loop(theory_list):
    """Verdict, method, witness and error as the reference gives them; the
    two counts may only fall, because a cube that one side refutes is
    skipped before its arrangement walk."""
    rng = random.Random(21)
    pairs = runs = fell = 0
    for t1 in theory_list:
        for t2 in theory_list:
            if t1 is t2 or select_method(t1, t2) is None:
                continue
            pairs += 1
            methods = [None] + [
                m for kind in METHODS for m in _candidate_methods(kind, t1, t2)
                if _orient(m, t1, t2) is not None
            ]
            for method in methods:
                for _ in range(5 if method is None else 2):
                    f = _joint_formula(t1, t2, rng)
                    want = _verdict_json(lambda: reference_combine(t1, t2, f, method))
                    got = _verdict_json(lambda: combine_decide(t1, t2, f, method))
                    assert len(got) == len(want) and got[0] == want[0], (t1.name, t2.name, method, f)
                    if len(want) == 2:
                        assert all(got[1][k] <= n for k, n in want[1].items()), (t1.name, t2.name, method, f)
                        fell += got[1] != want[1]
                    else:
                        assert got == want, (t1.name, t2.name, method, f)
                    runs += 1
    assert pairs == 292
    assert runs > 2000 and fell > 0
