"""Exact algebra of eventually periodic subsets of the positive naturals.

An :class:`EvPeriodicSet` is determined by an explicit membership bitmap
over ``[1, p]`` (the preperiod) followed by a repeating bitmap of length
``q >= 1``.  The representation is canonicalized (minimal period, then
minimal preperiod), so structural equality coincides with extensional
equality.  All Boolean operations, size classification, minima and
``nth_excluded`` are exact.

Domain cardinalities additionally use ``Card``: a positive int or the
distinguished :data:`ALEPH0` value for countably infinite domains.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParseError, SetBoundExceeded


class _Aleph0:
    """The countably infinite cardinality (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALEPH0"

    def __deepcopy__(self, memo):
        return self


ALEPH0 = _Aleph0()

# A domain cardinality: a positive natural, or ALEPH0.
Card = int | _Aleph0


def is_finite_card(c: Card) -> bool:
    return isinstance(c, int)


def card_to_json(c: Card):
    return "inf" if c is ALEPH0 else c


@dataclass(frozen=True)
class EvPeriodicSet:
    """An eventually periodic subset of the positive naturals.

    ``preperiod[i]`` is membership of ``i + 1``; for ``n > len(preperiod)``
    membership is ``period[(n - p - 1) % q]``.  Instances canonicalize on
    construction.
    """

    preperiod: tuple[bool, ...]
    period: tuple[bool, ...]

    def __post_init__(self):
        if len(self.period) < 1:
            raise ValueError("period length must be >= 1")
        pre, per = _canonicalize(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    # -- membership and iteration -------------------------------------

    def contains(self, n: int) -> bool:
        if n < 1:
            raise ValueError(f"universe is the positive naturals, got {n}")
        p = len(self.preperiod)
        if n <= p:
            return self.preperiod[n - 1]
        return self.period[(n - p - 1) % len(self.period)]

    __contains__ = contains

    def elements(self, upto: int) -> Iterator[int]:
        """Members in increasing order, up to and including `upto`."""
        n = self.min_from(1)
        while n is not None and n <= upto:
            yield n
            n = self.min_from(n + 1)

    # -- Boolean algebra ----------------------------------------------

    def _zip(self, other: "EvPeriodicSet", op) -> "EvPeriodicSet":
        p = max(len(self.preperiod), len(other.preperiod))
        q = math.lcm(len(self.period), len(other.period))
        pre = tuple(op(self.contains(n), other.contains(n)) for n in range(1, p + 1))
        per = tuple(op(self.contains(n), other.contains(n)) for n in range(p + 1, p + q + 1))
        return EvPeriodicSet(pre, per)

    def union(self, other: "EvPeriodicSet") -> "EvPeriodicSet":
        return self._zip(other, lambda a, b: a or b)

    def intersect(self, other: "EvPeriodicSet") -> "EvPeriodicSet":
        return self._zip(other, lambda a, b: a and b)

    def difference(self, other: "EvPeriodicSet") -> "EvPeriodicSet":
        return self._zip(other, lambda a, b: a and not b)

    def complement(self) -> "EvPeriodicSet":
        return EvPeriodicSet(
            tuple(not b for b in self.preperiod), tuple(not b for b in self.period)
        )

    # -- size classification ------------------------------------------

    def is_empty(self) -> bool:
        return not any(self.preperiod) and not any(self.period)

    def is_finite(self) -> bool:
        return not any(self.period)

    def is_infinite(self) -> bool:
        return any(self.period)

    def is_cofinite(self) -> bool:
        return all(self.period)

    # -- order queries -------------------------------------------------

    def min_element(self) -> int | None:
        return self.min_from(1)

    def min_from(self, n: int) -> int | None:
        """Least element >= n (n >= 1); None when there is none.  Scans
        the preperiod from n, then the period from n's place in it with
        wrap-around, each by ``tuple.index``."""
        pre, per = self.preperiod, self.period
        if n <= len(pre):
            try:
                return pre.index(True, n - 1) + 1
            except ValueError:
                n = len(pre) + 1
        if True not in per:
            return None
        i = (n - len(pre) - 1) % len(per)
        try:
            return n + per.index(True, i) - i
        except ValueError:
            return n + per.index(True) + len(per) - i

    def max_element(self) -> int | None:
        """Greatest element of a finite set; None when empty or infinite.
        A canonical finite set's preperiod ends at its greatest member."""
        if not self.is_finite():
            return None
        return len(self.preperiod) or None

    def nth_excluded(self, n: int) -> int | None:
        """The n-th element (1-based) of the complement, or None if the
        complement has fewer than n elements."""
        if n < 1:
            raise ValueError("index must be >= 1")
        comp = self.complement()
        p, q = len(comp.preperiod), len(comp.period)
        head = list(comp.elements(p))
        if n <= len(head):
            return head[n - 1]
        cycle = [m for m in range(p + 1, p + q + 1) if comp.contains(m)]
        if not cycle:
            return None
        laps, i = divmod(n - len(head) - 1, len(cycle))
        return cycle[i] + laps * q

    # -- serialization --------------------------------------------------

    def to_literal(self) -> str:
        if self.is_finite():
            return "finite:[" + ",".join(str(n) for n in self.elements(len(self.preperiod))) + "]"
        if self.is_cofinite():
            comp = self.complement()
            members = ",".join(str(n) for n in comp.elements(len(comp.preperiod)))
            return "cofinite-excluding:[" + members + "]"
        pre = "".join("1" if b else "0" for b in self.preperiod)
        per = "".join("1" if b else "0" for b in self.period)
        return f"periodic:p={len(self.preperiod)},q={len(self.period)},pre={pre},per={per}"

    def __repr__(self) -> str:
        return f"EvPeriodicSet({self.to_literal()!r})"


def _canonicalize(pre: tuple[bool, ...], per: tuple[bool, ...]):
    per = list(per)
    q = len(per)
    for d in range(1, q + 1):
        if q % d == 0 and per == per[:d] * (q // d):
            per = per[:d]
            q = d
            break
    pre = list(pre)
    while pre and pre[-1] == per[-1]:
        per = [per[-1]] + per[:-1]
        pre.pop()
    return tuple(pre), tuple(per)


# -- factories ----------------------------------------------------------

# The largest member and the longest period a factory builds: a set is a
# dense bitmap.  No finite spectrum element lies past it, so it is also
# where every unbounded spectrum scan stops.
BOUND = 2**20


def _within_bound(n: int) -> int:
    if n > BOUND:
        raise SetBoundExceeded(f"member {n} is past the set bound {BOUND}")
    return n


def empty_set() -> EvPeriodicSet:
    return EvPeriodicSet((), (False,))


def finite_set(members: Iterable[int]) -> EvPeriodicSet:
    present = set(members)
    if not present:
        return empty_set()
    if min(present) < 1:
        raise ValueError("members must be positive naturals")
    pre = tuple(n in present for n in range(1, _within_bound(max(present)) + 1))
    return EvPeriodicSet(pre, (False,))


def cofinite_excluding(excluded: Iterable[int]) -> EvPeriodicSet:
    return finite_set(excluded).complement()


def upfrom(n: int) -> EvPeriodicSet:
    """All naturals >= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return EvPeriodicSet((False,) * (_within_bound(n) - 1), (True,))


def interval(a: int, b: int) -> EvPeriodicSet:
    """The finite interval [a, b]; empty if b < a."""
    if b < a:
        return empty_set()
    return finite_set(range(max(a, 1), _within_bound(b) + 1))


def evens() -> EvPeriodicSet:
    return EvPeriodicSet((), (False, True))


def odds() -> EvPeriodicSet:
    return EvPeriodicSet((), (True, False))


# The shared empty and universal sets; an instance is immutable.
EMPTY = empty_set()
ALL = upfrom(1)


def bitzero(i: int) -> EvPeriodicSet:
    """Positive naturals whose i-th binary bit is 0 (bit 1 = least significant).

    bitzero(1) is the even numbers.  Any finite family with distinct
    indices has infinite intersection, which makes these sets suitable
    generators for free filters.
    """
    if i < 1:
        raise ValueError("bit index must be >= 1")
    if i >= BOUND.bit_length():  # checked before 2**i is built
        raise SetBoundExceeded(f"period length 2**{i} is past the set bound {BOUND}")
    q = 2**i
    per = tuple(((n >> (i - 1)) & 1) == 0 for n in range(1, q + 1))
    return EvPeriodicSet((), per)


_LITERAL_RE = re.compile(
    r"^periodic:p=([0-9]+),q=([0-9]+),pre=([01]*),per=([01]+)$"
)


def parse_set_literal(text: str) -> EvPeriodicSet:
    """Parse the textual set forms used in configs.

    Accepted: ``finite:[..]``, ``cofinite-excluding:[..]``,
    ``periodic:p=..,q=..,pre=..,per=..``, ``bitzero:<i>``, ``upfrom:<n>``,
    ``evens``, ``odds``, ``all``, ``empty``.
    """
    t = text.strip()
    if t == "evens":
        return evens()
    if t == "odds":
        return odds()
    if t == "all":
        return upfrom(1)
    if t == "empty":
        return empty_set()
    if t.startswith("finite:[") and t.endswith("]"):
        return finite_set(_int_list(t[len("finite:[") : -1], text))
    if t.startswith("cofinite-excluding:[") and t.endswith("]"):
        return cofinite_excluding(_int_list(t[len("cofinite-excluding:[") : -1], text))
    if t.startswith("bitzero:"):
        return bitzero(_positive(t[len("bitzero:") :], text))
    if t.startswith("upfrom:"):
        return upfrom(_positive(t[len("upfrom:") :], text))
    m = _LITERAL_RE.match(t)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if max(p, q) > BOUND:  # checked before the bitmaps are built
            raise SetBoundExceeded(f"preperiod {p} or period {q} is past the set bound {BOUND}")
        pre, per = m.group(3), m.group(4)
        if len(pre) != p or len(per) != q:
            raise ParseError(f"bitmap lengths disagree with p/q in {text!r}")
        return EvPeriodicSet(tuple(c == "1" for c in pre), tuple(c == "1" for c in per))
    raise ParseError(f"unrecognized set literal {text!r}")


def _int_list(body: str, src: str) -> list[int]:
    body = body.strip()
    if not body:
        return []
    if not body.isascii():  # int() alone admits digits like '٣'
        raise ParseError(f"bad integer list in {src!r}")
    try:
        return [int(tok) for tok in body.split(",")]
    except ValueError as e:
        raise ParseError(f"bad integer list in {src!r}") from e


def _positive(body: str, src: str) -> int:
    if not body.isascii():  # int() alone admits digits like '٣'
        raise ParseError(f"bad number in {src!r}")
    try:
        n = int(body)
    except ValueError as e:
        raise ParseError(f"bad number in {src!r}") from e
    if n < 1:
        raise ParseError(f"index must be positive in {src!r}")
    return n
