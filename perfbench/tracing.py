"""Per-layer tracing by wrapping groupwalk's public functions from outside.

Nothing under ``src/`` changes: `Tracer.install` replaces each named
function in every groupwalk module namespace that binds it (so calls made
through ``from .x import f`` and intra-module calls are caught too) and
each named method on its class.

Every timed call records a span (id, parent span, job id, name, start,
end) in flat arrays, and adds to per-name totals: calls, total seconds and
self seconds (total minus the time covered by wrapped callees).  Calls of
recursive functions are counted only, without spans.
"""

from __future__ import annotations

import json
import time
from array import array

# (module, attribute) -> how it is wrapped.  "span" records a timed span;
# "count" only counts calls.  Extra counters read the returned value.
TARGETS = [
    ("cli", "main", "span"),
    ("machines", "run_program", "span"),
    ("machines", "build_skeleton", "span"),
    ("machines", "approx_members", "span"),
    ("kgroup", "kword_from_index", "span"),
    ("kgroup", "many_one_index", "span"),
    ("kgroup", "conj_bit", "span"),
    ("kgroup", "analyze_word", "span"),
    ("kgroup", "word_footprint", "span"),
    ("kgroup", "conj_reduction", "span"),
    ("kgroup", "wp_k", "span"),
    ("subshift", "make_pattern", "span"),
    ("groups", "ball", "span"),
    ("groups", "is_identity", "span"),
    ("groups", "element_order", "span"),
    ("groups", "word_problem_prefix", "span"),
    ("grigorchuk", "portrait", "count"),
    ("automata", "step", "span"),
    ("automata", "run", "span"),
    ("automata", "membership_test", "span"),
    ("automata", "predictor", "span"),
    ("automata", "CanonicalBackend.equal", "count"),
    ("automata", "OracleBackend.equal", "count"),
]


def _extra_counters(name, result, extra):
    if name == "machines.run_program":
        extra["machines.run_program.steps"] += result.steps
        extra["machines.run_program.capped"] += 0 if result.halted else 1
    elif name == "subshift.make_pattern":
        extra["subshift.make_pattern.cells"] += len(result.bits)
    elif name == "groups.ball":
        extra["groups.ball.elements"] += len(result)


EXTRA_NAMES = (
    "machines.run_program.steps",
    "machines.run_program.capped",
    "subshift.make_pattern.cells",
    "groups.ball.elements",
)


class Tracer:
    """Span recorder; `enabled` gates recording without unwrapping."""

    def __init__(self):
        self.enabled = False
        self.job = -1  # -1 marks set-up spans
        self.names = []
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.extra = {n: 0 for n in EXTRA_NAMES}
        self._stack = []  # [span id, seconds covered by wrapped callees]
        self._next_id = 1
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_job = array("l")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")

    def _register(self, name):
        self.names.append(name)
        self.stats[name] = [0, 0.0, 0.0]
        return len(self.names) - 1

    def _counting(self, name, fn):
        st = self.stats[name]

        def wrapper(*args, **kwargs):
            if self.enabled:
                st[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timing(self, name, fn):
        idx = self._register(name)
        st = self.stats[name]
        clock = time.perf_counter
        stack = self._stack
        extra = self.extra

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_job.append(self.job)
                self.span_name.append(idx)
                self.span_start.append(t0)
                self.span_end.append(t1)
            _extra_counters(name, result, extra)
            return result

        return wrapper

    def install(self, package):
        """Wrap every target in the imported groupwalk package."""
        modules = [getattr(package, m) for m in (
            "cli", "groups", "grigorchuk", "subshift", "kgroup", "machines", "automata",
        )]
        for mod_name, attr, how in TARGETS:
            name = f"{mod_name}.{attr}"
            module = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._register(name)
                setattr(cls, meth, self._counting(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            if how == "count":
                self._register(name)
                wrapped = self._counting(name, original)
            else:
                wrapped = self._timing(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def snapshot(self):
        """Copy of the per-name totals and extra counters."""
        out = {name: list(v) for name, v in self.stats.items()}
        out.update({name: [v] for name, v in self.extra.items()})
        return out

    def write_spans(self, path):
        """Columnar JSON of every recorded span; times are perf_counter seconds."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "id": self.span_id.tolist(),
                    "parent": self.span_parent.tolist(),
                    "job": self.span_job.tolist(),
                    "name": self.span_name.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
                separators=(",", ":"),
            )


def per_job_delta(before, after):
    """Per-name change between two snapshots, dropping names that did not move."""
    out = {}
    for name, vals in after.items():
        prev = before.get(name, [0] * len(vals))
        diff = [round(a - b, 6) if isinstance(a, float) else a - b for a, b in zip(vals, prev)]
        if any(diff):
            out[name] = diff
    return out
