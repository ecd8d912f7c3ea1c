"""Timing spans installed around combinekit's public functions from outside.

The tracer patches each traced name wherever it is looked up: in the
module that defines it and in every ``combinekit`` module that imported
it by name.  Class methods are patched on the class, and theory methods
on the handle instances the benchmark passes in, so internal call sites
(``self.decide_cube``, ``from .formulas import clique_extension`` at call
time) reach the wrappers too.  Nothing under ``src/`` changes.

Spans (name, start, end, parent span, op id) are kept in memory in
compact arrays, up to a cap, and written out when the run ends.  Per-name
call counts, self time (span time minus the time of wrapped child spans)
and work counts are aggregated for every span, capped or not, overall and
per input-size bucket.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# (defining module, attribute, metric name, post hook name or None)
FUNCTIONS = (
    ("theories", "minmod_equalities", "theories.minmod_equalities", "_post_literals_in"),
    ("formulas", "clique_extension", "formulas.clique_extension", "_post_literals_out"),
    ("formulas", "enumerate_arrangements", "formulas.enumerate_arrangements", None),
    ("formulas", "arrangement_to_cube", "formulas.arrangement_to_cube", None),
    ("formulas", "parse_formula", "formulas.parse_formula", None),
    ("formulas", "to_dnf", "formulas.to_dnf", "_post_cubes_out"),
    ("formulas", "split_by_signature", "formulas.split_by_signature", None),
    ("combine", "combine_decide", "combine.combine_decide", "_post_verdict"),
    ("diagonal", "process_formula", "diagonal.process_formula", "_post_diag_state"),
    ("diagonal", "process_number", "diagonal.process_number", "_post_diag_state"),
    ("brute", "brute_spectrum", "brute.brute_spectrum", None),
    ("brute", "brute_sat_at", "brute.brute_sat_at", None),
    ("brute", "brute_combined_formula_sat", "brute.brute_combined_formula_sat", None),
    ("registry", "load_registry", "registry.load_registry", None),
    ("catalog", "default_catalog", "catalog.default_catalog", None),
)

# (module, class, method, metric name)
CLASS_METHODS = (
    ("spectra", "SpectrumView", "max_finite", "spectra.max_finite"),
    ("spectra", "SpectrumView", "minmod", "spectra.minmod"),
)

# Every public method of EvPeriodicSet reports under one summed name.
SET_CLASS = ("sets", "EvPeriodicSet", "sets.EvPeriodicSet")

THEORY_METHODS = (
    "decide_cube",
    "spec_finite",
    "spec_inf",
    "exact_spectrum",
    "minmod_cube",
    "nshiny_classify",
    "infinite_only",
    "model_check",
)


SPAN_CAP = 100_000
_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.spans_dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.buckets: dict[str, dict] = {}
        self.op_id = -1
        self.bucket = "setup"
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self.t0 = time.perf_counter()

    # -- span bookkeeping ----------------------------------------------------

    def begin_op(self, op_id: int, bucket: str):
        self.op_id = op_id
        self.bucket = bucket

    def add_count(self, name: str, value: float = 1):
        self.counts[name] = self.counts.get(name, 0) + value
        layers = self._bucket()["counts"]
        layers[name] = layers.get(name, 0) + value

    def _bucket(self) -> dict:
        b = self.buckets.get(self.bucket)
        if b is None:
            b = self.buckets[self.bucket] = {"calls": {}, "self_s": {}, "counts": {}}
        return b

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.span_name) < SPAN_CAP:
            ix = self._name_ix.get(name)
            if ix is None:
                ix = self._name_ix[name] = len(self.names)
                self.names.append(name)
            span = len(self.span_name)
            self.span_name.append(ix)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
        else:
            span = -1
            self.spans_dropped += 1
        frame = [span, name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, new_call: bool = True):
        end = time.perf_counter()
        span, name, child, start = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if span >= 0:
            self.span_start[span] = start - self.t0
            self.span_end[span] = end - self.t0
        own = duration - child
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        b = self._bucket()
        b["self_s"][name] = b["self_s"].get(name, 0.0) + own
        if new_call:
            self.calls[name] = self.calls.get(name, 0) + 1
            b["calls"][name] = b["calls"].get(name, 0) + 1

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name: str, post=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Time each resume of the generator; count one call per
            # generator and one `yielded` per item handed out.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame, new_call=first)
                        first = False
                    tracer.add_count(name + ".yielded")
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(name, args, result)
            return result

        return wrapper

    def _post_literals_in(self, name, args, result):
        self.add_count(name + ".literals_in", len(args[0].literals))

    def _post_literals_out(self, name, args, result):
        self.add_count(name + ".literals_out", len(result.literals))

    def _post_cubes_out(self, name, args, result):
        self.add_count(name + ".cubes_out", len(result))

    def _post_verdict(self, name, args, result):
        self.add_count("combine.arrangements_tried", result.stats["arrangements_tried"])
        self.add_count("combine.loop_iterations", result.stats["loop_iterations"])
        self.add_count("combine.sat_verdicts", int(result.sat))

    def _post_diag_state(self, name, args, result):
        self.counts["diagonal.max_j"] = max(self.counts.get("diagonal.max_j", 0), result.j)

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced module-level name and class method."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "combinekit"]
        for mod_name, attr, name, post in FUNCTIONS:
            orig = getattr(sys.modules[f"combinekit.{mod_name}"], attr)
            wrapper = self._wrap(orig, name, getattr(self, post) if post else None)
            for mod in loaded:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, wrapper)
        for mod_name, cls_name, attr, name in CLASS_METHODS:
            cls = getattr(sys.modules[f"combinekit.{mod_name}"], cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))
        mod_name, cls_name, name = SET_CLASS
        cls = getattr(sys.modules[f"combinekit.{mod_name}"], cls_name)
        for attr, member in list(cls.__dict__.items()):
            public = not attr.startswith("_") or attr == "__contains__"
            if public and inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name))

    def install_theories(self, theories):
        """Wrap the methods of the handle instances the benchmark passes to
        the program.  The registry caches the theories it builds, so one
        instance may be listed under several names; it is wrapped once."""
        seen = {id(owner) for owner, _, _ in self._undo}
        for theory in theories:
            if id(theory) in seen:
                continue
            seen.add(id(theory))
            for attr in THEORY_METHODS:
                self._patch(theory, attr, self._wrap(getattr(theory, attr), f"catalog.{attr}"))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def spans_json(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "rows": [
                [n, round(s, 9), round(e, 9), p, o]
                for n, s, e, p, o in zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
                )
            ],
            "dropped": self.spans_dropped,
        }
