"""Per-layer tracing from outside the program.

Spans are recorded around calls into each layer's public entry points, by
replacing the module attributes the CLI and the certifier call and, for the
engine, the methods ``step()`` calls through ``self``.  Nothing under
``src/`` is edited.  Spans stay in memory as (name, start, end, parent,
instance) tuples; work counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# Span name -> per-layer time metric (its self time).
SPAN_METRICS = {
    "cli.run": "cli.run.self_s",
    "cli.certify": "cli.certify.self_s",
    "cli.opt": "cli.opt.self_s",
    "instance.parse": "instance.parse_s",
    "engine.init": "engine.init_s",
    "engine.run": "engine.other_s",
    "engine.next_event": "engine.next_event_s",
    "engine.process_tight": "engine.process_tight_s",
    "engine.advance": "engine.advance_s",
    "engine.trace_write": "engine.trace_write_s",
    "engine.trace_read": "engine.trace_read_s",
    "certify.replay": "certify.replay_s",
    "certify.paths": "certify.paths_s",
    "offline.hungarian": "offline.hungarian_s",
    "offline.brute": "offline.brute_s",
}

COUNTS = (
    "engine.pairs",
    "engine.next_event.calls",
    "engine.next_event.pairs_visited",
    "engine.tight_scan.passes",
    "engine.tight_scan.pairs_visited",
    "engine.merges",
    "engine.matches",
    "engine.events.grow",
    "engine.trace_bytes",
    "certify.pair_checks",
)


def eligible_pair_count(inst) -> int:
    """Pairs (u < v) with opposite (or both zero) polarities, in O(n)."""
    signs = Counter(r.sgn for r in inst.requests)
    zeros = signs[0]
    return zeros * (zeros - 1) // 2 + signs[1] * signs[-1]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, instance)
        self.counts = Counter()
        self.instance = None
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.instance)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- installing the probes ------------------------------------------------

    def install(self, modules) -> None:
        """Replace the layer entry points in ``modules`` (name -> module)."""
        cli, engine, certify = modules["cli"], modules["engine"], modules["certify"]
        self._patch(cli, "parse_instance", self.wrap("instance.parse", cli.parse_instance))
        self._patch(cli, "GreedyDualEngine", self._engine_factory(cli.GreedyDualEngine, engine))
        self._patch(cli, "events_to_jsonl", self._trace_writer(cli.events_to_jsonl))
        self._patch(cli, "events_from_jsonl", self.wrap("engine.trace_read", cli.events_from_jsonl))
        self._patch(cli, "certify_events", self._certifier(cli.certify_events, engine))
        self._patch(certify, "marked_path", self.wrap("certify.paths", certify.marked_path))
        self._patch(cli, "opt_brute", self.wrap("offline.brute", cli.opt_brute))
        self._patch(cli, "opt_hungarian", self.wrap("offline.hungarian", cli.opt_hungarian))

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, replacement):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def _engine_factory(self, engine_cls, engine_mod):
        counts = self.counts

        def make(inst, *args, **kwargs):
            eng = self.call("engine.init", engine_cls, inst, *args, **kwargs)
            counts["engine.pairs"] += eligible_pair_count(inst)
            self._instrument(eng, engine_mod)
            return eng

        return make

    def _instrument(self, eng, engine_mod):
        # step() reaches these through self, so they are replaced on the
        # instance; the bound originals run unchanged.
        counts = self.counts
        next_event, process_tight, advance_to = eng.next_event, eng.process_tight, eng.advance_to

        def traced_next_event():
            counts["engine.next_event.calls"] += 1
            counts["engine.next_event.pairs_visited"] += len(eng.live_pairs)
            return self.call("engine.next_event", next_event)

        def traced_process_tight():
            before = len(eng.events)
            result = self.call("engine.process_tight", process_tight)
            kinds = Counter(ev.kind for ev in eng.events[before:])
            passes = kinds[engine_mod.MERGE] + 1  # one rescan per merge, one that finds nothing
            counts["engine.tight_scan.passes"] += passes
            counts["engine.tight_scan.pairs_visited"] += passes * len(eng.live_pairs)
            counts["engine.merges"] += kinds[engine_mod.MERGE]
            counts["engine.matches"] += kinds[engine_mod.MATCH]
            return result

        def traced_advance_to(t):
            before = len(eng.events)
            result = self.call("engine.advance", advance_to, t)
            counts["engine.events.grow"] += sum(1 for ev in eng.events[before:] if ev.kind == engine_mod.GROW)
            return result

        eng.next_event = traced_next_event
        eng.process_tight = traced_process_tight
        eng.advance_to = traced_advance_to
        eng.run = self.wrap("engine.run", eng.run)

    def _trace_writer(self, events_to_jsonl):
        def write(result):
            text = self.call("engine.trace_write", events_to_jsonl, result)
            self.counts["engine.trace_bytes"] += len(text.encode())
            return text

        return write

    def _certifier(self, certify_events, engine_mod):
        def replay(inst, events):
            # The replay sweeps every eligible pair after each growth event
            # and at each settled instant (every clock advance, plus the
            # final settle), so this count is computed from the trace.
            grows = sum(1 for ev in events if ev.kind == engine_mod.GROW)
            advances, clock = 0, 0
            for ev in events:
                if ev.t > clock:
                    advances, clock = advances + 1, ev.t
            self.counts["certify.pair_checks"] += (grows + advances + 1) * eligible_pair_count(inst)
            return self.call("certify.replay", certify_events, inst, events)

        return replay

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span metric: duration minus the time covered by
        direct children."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[SPAN_METRICS[name]] += (end - start) - child[i]
        return dict(totals)
