"""Span tracing from outside the program, for the traced benchmark run.

Each layer is measured by wrapping the name its caller looks up at call
time: a module-level function is replaced in every `conceptgraph` module
that binds it, a method is replaced on its class.  Nothing is wrapped until
`install` runs, and `uninstall` puts every original back, so an untraced run
executes the program unmodified.

A recorded span keeps its name, start, end and parent in flat arrays.  The
synthesizer's evaluator runs millions of top-level calls per ensemble, so
its spans and the enumerator's are leaves: only the outermost call of a
recursion is timed, and it adds its count and time to the totals and to
its parent's child time without being stored.  A span's self time is its
duration minus the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import sys
import time
from array import array
from typing import Callable, Optional

CLOCK = time.perf_counter

# (span name, owner, attribute, options); owner is "module" or "module.Class".
SPANS = (
    ("cli.main", "cli", "main", {}),
    ("inducer.ingest", "inducer", "ingest", {}),
    ("inducer.parse", "inducer", "parse", {"tokens_arg": 1}),
    ("inducer.resegment", "inducer", "_resegment_blobs", {}),
    ("inducer.induce_repeats", "inducer", "induce_repeats", {}),
    ("inducer.abstract_common", "inducer", "abstract_common", {}),
    ("inducer.record_associations", "inducer", "record_associations", {}),
    ("inducer.refine", "inducer", "refine", {}),
    ("mdl.model_dl", "mdl", "model_dl", {}),
    ("mdl.description_dl", "mdl", "description_dl", {}),
    ("mdl.graph_report", "mdl", "graph_report", {}),
    ("core.tick_weights", "core.ConceptGraph", "tick_weights", {}),
    ("storage.load", "storage", "load", {}),
    ("storage.save", "storage", "save", {"file_bytes": True}),
    ("fnsynth.synthesize", "fnsynth", "synthesize", {"learned": True}),
    ("fnsynth.enum", "fnsynth._Enumerator", "terms_of", {"leaf_terms": "returned"}),
    ("fnsynth.eval", "fnsynth._Evaluator", "eval", {"leaf_terms": "evaluated"}),
)

# Call counters without spans: cheap, high-frequency graph edits and the gate.
COUNTERS = (
    ("core.add.calls", "core.ConceptGraph", "add"),
    ("core.pop_last.calls", "core.ConceptGraph", "pop_last"),
    ("inducer.gate.tried", "inducer", "_gated_add"),
)

SPAN_NAMES = tuple(name for name, *_ in SPANS)

EXTRA_METRICS = (
    ("inducer.parse.tokens", "count", "lower"),
    ("inducer.resegment.parse_calls", "count", "lower"),
    ("core.add.calls", "count", "lower"),
    ("core.pop_last.calls", "count", "lower"),
    ("inducer.gate.tried", "count", "lower"),
    ("inducer.gate.kept", "count", "higher"),
    ("inducer.gate.accept_ratio", "ratio", "higher"),
    ("storage.file_bytes", "bytes", "lower"),
    ("fnsynth.enum.terms", "count", "lower"),
    ("fnsynth.eval.terms", "count", "lower"),
    ("fnsynth.useful_ratio", "ratio", "higher"),
    ("other.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.s", "s", "lower"), (f"{name}.self_s", "s", "lower"),
                 (f"{name}.calls", "count", "lower")]
    return spec + list(EXTRA_METRICS)


def _resolve(mods: dict, owner: str):
    module, _, cls = owner.partition(".")
    target = mods[module]
    return getattr(target, cls) if cls else target


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.child = array("d")     # time covered by direct children
        self.stack: list[int] = []
        self.leaf_s: dict[str, float] = {}
        self.leaf_calls: dict[str, int] = {}
        self.top_leaf_s = 0.0       # leaf time outside any recorded span
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------
    # installing wrappers

    def install(self) -> None:
        for name, owner, attr, opts in SPANS:
            self._patch(owner, attr, lambda fn, n=name, o=opts: self._span(n, fn, **o))
        for name, owner, attr in COUNTERS:
            self._patch(owner, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original, _ = self._patches.pop()
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the program unwrapped inside the block (output checks)."""
        for holder, attr, original, _ in reversed(self._patches):
            setattr(holder, attr, original)
        try:
            yield
        finally:
            for holder, attr, _, wrapper in self._patches:
                setattr(holder, attr, wrapper)

    def _patch(self, owner: str, attr: str, make: Callable) -> None:
        holder = _resolve(self.mods, owner)
        original = getattr(holder, attr)
        wrapper = make(original)
        if "." in owner:
            holders = [holder]
        else:  # every module that bound the function by name
            holders = [m for key, m in sys.modules.items()
                       if (key == "conceptgraph" or key.startswith("conceptgraph."))
                       and getattr(m, attr, None) is original]
        for h in holders:
            self._patches.append((h, attr, original, wrapper))
            setattr(h, attr, wrapper)

    def _counter(self, name: str, fn: Callable) -> Callable:
        counters = self.counters
        counters[name] = 0
        if name == "inducer.gate.tried":
            counters["inducer.gate.kept"] = 0

            def gate(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[name] += 1
                if result[0]:
                    counters["inducer.gate.kept"] += 1
                return result
            return gate

        def count(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return count

    def _span(self, name: str, fn: Callable, *, tokens_arg: Optional[int] = None,
              file_bytes: bool = False, learned: bool = False,
              leaf_terms: Optional[str] = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, names, child, stack = (
            self.start, self.end, self.parent, self.name, self.child, self.stack)
        counters = self.counters

        if leaf_terms is not None:
            self.leaf_s[name] = 0.0
            self.leaf_calls[name] = 0
            leaf_s, leaf_calls = self.leaf_s, self.leaf_calls
            terms_key = f"{name}.terms"
            counters[terms_key] = 0
            count_terms = leaf_terms == "evaluated"  # else terms returned
            active = [False]
            last = [None]

            def leaf(*args, **kwargs):
                if active[0]:
                    return fn(*args, **kwargs)
                if count_terms and args[1] is not last[0]:
                    last[0] = args[1]  # consecutive calls evaluate one term
                    counters[terms_key] += 1
                active[0] = True
                t0 = CLOCK()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = CLOCK() - t0
                    active[0] = False
                    leaf_s[name] += dur
                    leaf_calls[name] += 1
                    if stack:
                        child[stack[-1]] += dur
                    else:
                        self.top_leaf_s += dur
                if not count_terms:
                    counters[terms_key] += len(result)
                return result
            return leaf

        def traced(*args, **kwargs):
            if tokens_arg is not None:
                counters["inducer.parse.tokens"] = (
                    counters.get("inducer.parse.tokens", 0) + len(args[tokens_arg]))
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            child.append(0.0)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            if file_bytes:
                counters["storage.file_bytes"] = os.path.getsize(args[1])
            if learned and result is not None:
                counters["fnsynth.learned"] = counters.get("fnsynth.learned", 0) + 1
            return result
        return traced

    # ------------------------------------------------------------------
    # results

    def metrics(self, traced_wall_s: float, untraced_s: float,
                overhead_s: float) -> dict[str, float]:
        """Per-layer totals; self times plus other.self_s equal traced_wall_s."""
        totals = {name: 0.0 for name in SPAN_NAMES}
        selfs = dict(totals)
        calls = {name: 0 for name in SPAN_NAMES}
        reseg_parse = 0
        reseg_id = self.names.index("inducer.resegment")
        parse_id = self.names.index("inducer.parse")
        top_level = 0.0
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            totals[name] += dur
            selfs[name] += dur - self.child[i]
            calls[name] += 1
            p = self.parent[i]
            if p < 0:
                top_level += dur
            elif self.name[i] == parse_id and self.name[p] == reseg_id:
                reseg_parse += 1
        for name, secs in self.leaf_s.items():
            totals[name] = selfs[name] = secs
            calls[name] = self.leaf_calls[name]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = totals[name]
            out[f"{name}.self_s"] = selfs[name]
            out[f"{name}.calls"] = calls[name]
        c = self.counters
        tried = c.get("inducer.gate.tried", 0)
        kept = c.get("inducer.gate.kept", 0)
        eval_terms = c.get("fnsynth.eval.terms", 0)
        out.update({
            "inducer.parse.tokens": c.get("inducer.parse.tokens", 0),
            "inducer.resegment.parse_calls": reseg_parse,
            "core.add.calls": c.get("core.add.calls", 0),
            "core.pop_last.calls": c.get("core.pop_last.calls", 0),
            "inducer.gate.tried": tried,
            "inducer.gate.kept": kept,
            "inducer.gate.accept_ratio": kept / tried if tried else 0.0,
            "storage.file_bytes": c.get("storage.file_bytes", 0),
            "fnsynth.enum.terms": c.get("fnsynth.enum.terms", 0),
            "fnsynth.eval.terms": eval_terms,
            "fnsynth.useful_ratio": (c.get("fnsynth.learned", 0) / eval_terms
                                     if eval_terms else 0.0),
            "other.self_s": traced_wall_s - top_level - self.top_leaf_s,
            "trace.wall_s": traced_wall_s,
            "trace.untraced_s": untraced_s,
            "trace.overhead_s": overhead_s,
        })
        return out

    def write(self, path: str, metrics: dict[str, float]) -> None:
        """Gzipped JSON lines: a header with the per-layer table and the leaf
        totals, then one `[id, parent, name, start_s, end_s]` per span."""
        base = self.start[0] if len(self.start) else 0.0
        header = {"per_layer": metrics,
                  "leaf_spans": {n: {"s": self.leaf_s[n], "calls": self.leaf_calls[n]}
                                 for n in self.leaf_s},
                  "span_fields": ["id", "parent", "name", "start_s", "end_s"]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                handle.write(json.dumps([i, self.parent[i], self.names[self.name[i]],
                                         round(self.start[i] - base, 9),
                                         round(self.end[i] - base, 9)]) + "\n")
