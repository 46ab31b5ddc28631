"""Event-driven dual-growth matching engine.

The engine partitions arrived requests into active sets and grows one dual
variable per active set that still contains free (unmatched) requests, at
unit rate.  When the accumulated values on some eligible cross-set pair reach
the pair's budget (distance plus arrival gap), the two sets merge, the
triggering edge is marked, and free requests inside the merged set are
matched greedily.

Exact mode keeps the clock, the request potentials, the pair budgets and
each set's ``y`` as Python ints over one shared scale ``S``: an int ``x``
stands for ``x / S``.  ``S`` starts as the scale of ``Instance.grid``, the
lcm of the denominators of the arrival times and of the metric's inputs
(positions, a ring's circumference, matrix entries), so the distance table
is computed on ints from the first distance.  It grows by a factor ``k``
(every stored int with it, into new lists: the grid is shared with the
certifier) when a time off the grid appears: a tight time half a step off,
or an off-grid ``advance_to``.  The run's totals are summed on the grid
too.  Fractions are built only where values leave the engine:
event times, the ``y`` of each ``SetRecord`` once the run ends,
``RunResult``, and the times taken and returned by ``next_event`` and
``advance_to``.  Every comparison is exact.  Float
mode runs the same code on binary64 values; a pair with budget ``c`` goes
tight when its value reaches ``c - tol(c)``, the budget-pair form of the
tolerance rule stated in ``scalars``.

A run is single-threaded and deterministic: ``step`` admits every arrival of
an instant in index order, then scans once for tight pairs, which merge in
lexicographic order.  The engine keeps only the *candidates* of each pair of
active sets {A, B}: the eligible pairs between them whose slack is within a
band of the least slack between them.  Every member of a set gains the same
dual value, so the pairs of {A, B} lose slack at one rate and keep their
order; the first of them to go tight merges A and B, and the others then
never cross again.  The band is 0 in exact mode, which keeps ties, and ``2 *
tol(c)`` for a pair of budget ``c`` in float mode, where rounding may reorder
pairs that close.  Candidates are grouped by set when a request arrives; a
merge of A and B into C drops {A, B} and, for each other active set X, looks
up {A, X} and {B, X} (either may be missing) and folds them into {C, X}, which
keeps the band of their union.

In exact mode every candidate of a bucket has the bucket's least slack for
the bucket's whole life.  A bucket is born holding only ties: an arrival
keeps the pairs tied at the least slack so far, and a fold keeps ties (see
below).  All its pairs then lose slack at one rate, and a rescale multiplies
every slack by one factor, so ties stay ties.  Hence one head candidate
gives a bucket's least slack, and the fold reads only the heads of {A, X}
and {B, X}: {C, X} is the list with the smaller head slack, or both lists,
A's first, on a tie.  No exact step ranks candidates by slack; float mode
keeps ranking them (``_band``) at each arrival and fold.

A set's growth flag never changes while it is active, so a bucket's rate
``r`` (its growing sets) is fixed for its life, and so is the time its least
slack closes.  ``_due`` holds, for every bucket with ``r >= 1``, twice that
time, scaled: ``2 * clock + 2 * slack / r`` as of the bucket's write.  The
event search reads the buckets due first, then only those due by twice the
clock plus the least key found there; the tight scan reads only the buckets
due by twice the clock.  Both read a bucket's candidates with the
expressions a scan of every candidate would use, so the key and the tight
pairs are that scan's.  In exact mode a due time is exact.  In float mode it
is a lower bound: the slack is the least slack less twice ``tol(B)``, for
``B`` the largest distance plus the arrival span, which bounds every budget:
one ``tol`` for the tight test and one for rounding drift.  Each value a
candidate's key sums is at most its budget ``c`` plus ``tol(c)``
(potentials are not negative and a live pair is within budget); each clock
move adds to each endpoint's potential one rounded difference and one
rounded sum, each off by at most half an ulp of such a value; and a run
moves the clock once per arrival instant and once per merge instant, at
most ``2n`` times for ``n`` requests.  So the drift stays below ``2n *
2**-52 * c``, within ``tol(c) = 1e-9 * max(1, c)`` while ``n`` is below two
million.  Sums with the clock round to binary64, which keeps these bounds:
rounding is monotone.

The event log is the one record of growth intervals, marks and matches;
``SetRecord`` keeps only each set's sum ``y``, and ``growing`` the ids of the
sets that grow.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .instance import MPMD, Instance, decode_json
from .scalars import EXACT, Scalar, dump_scalar, eq, parse_scalar, tol

ARRIVAL = "arrival"
GROW = "grow-interval"
TIGHT = "tight"
MERGE = "merge"
MATCH = "match"

# 2 / r for r growing endpoints: slack * _TWO_OVER[r] is twice the time left
# until the pair goes tight, and stays integral in exact mode.
_TWO_OVER = (0, 2, 1)


def _eligible_pairs(neutral: int, positive: int, negative: int) -> int:
    """How many eligible pairs join the given numbers of requests of each
    polarity."""
    return positive * negative + neutral * (neutral - 1) // 2


def _band(cands: list, pot: list, margin) -> tuple:
    """The float band of ``cands``: the ``(u, v, budget)`` triples whose
    slack under the potentials ``pot`` is at most the least slack plus twice
    their own ``tol``, and that least slack.  ``margin`` is at least twice
    the tol of every budget (the engine's ``_margin``), so a slack above the
    least plus ``margin`` is outside the band without a ``tol`` call."""
    slacks = [c - pot[u] - pot[v] for u, v, c in cands]
    least = min(slacks)
    edge = least + margin
    return [p for p, s in zip(cands, slacks) if s <= edge and s <= least + 2 * tol(p[2])], least


class _LivePairs:
    """Sized view of the eligible pairs among arrived requests whose ends sit
    in different active sets: its length, counted from the polarities of each
    active set's members.  The engine keeps only candidates, not these pairs;
    callers that count them, such as the benchmark's tracer, read this."""

    def __init__(self, polarity: dict):
        self._polarity = polarity  # active set -> [neutral, positive, negative] member counts

    def __len__(self) -> int:
        counts = self._polarity.values()
        totals = [sum(c[i] for c in counts) for i in range(3)]
        return _eligible_pairs(*totals) - sum(_eligible_pairs(*c) for c in counts)


class EngineInvariantError(RuntimeError):
    """An internal invariant broke mid-run.  Signals a bug, not bad input."""


@dataclass(frozen=True)
class EventRecord:
    t: Scalar
    kind: str
    payload: dict


@dataclass
class SetRecord:
    """One ever-active set: members, surplus, accumulated dual value.

    Mutated only by the engine that owns it; treat as read-only afterwards.
    ``free`` is current while the set is active; an inactive set keeps what
    it held at its merge, though the merged set may have matched those
    requests since.  In exact mode ``y`` is a scaled int while the run lasts
    and its value, a Fraction, in the finished run's ``all_sets``.
    """

    set_id: int
    members: frozenset
    sur: int
    y: Scalar
    free: set


@dataclass(frozen=True)
class RunResult:
    """Everything a run produced.  The fields cannot be reassigned, but
    ``all_sets`` holds the engine's own ``SetRecord`` objects, which are
    mutable."""

    variant: str
    mode: str
    m: int
    matching: tuple  # ((u, v, match_time), ...) of the match events, in log order, u < v
    all_sets: tuple  # SetRecord log, index == set_id
    event_log: tuple  # the one record of growth intervals, marks and matches
    marked_edges: tuple  # ((u, v, mark_time), ...) of the tight events, in log order, u < v
    connection_cost: Scalar
    waiting_cost: Scalar
    total_cost: Scalar
    dual_objective: Scalar

    @property
    def num_sets(self) -> int:
        return len(self.all_sets)

    @property
    def num_marked_edges(self) -> int:
        return len(self.marked_edges)

    def summary(self) -> dict:
        mode = self.mode
        return {
            "connection_cost": dump_scalar(self.connection_cost, mode),
            "waiting_cost": dump_scalar(self.waiting_cost, mode),
            "total_cost": dump_scalar(self.total_cost, mode),
            "dual_objective": dump_scalar(self.dual_objective, mode),
            "m": self.m,
            "num_sets": self.num_sets,
            "num_marked_edges": self.num_marked_edges,
        }


_TIMES = ("from", "to")  # the payload fields that hold times
_LINE = dict.fromkeys(("t", "kind", "payload")).keys()  # the fields of a trace line, ordered and set-like

# A time's JSON text as json.dumps writes it, but strict: NaN or infinity raises ValueError.
_encode = json.JSONEncoder(allow_nan=False).encode

# The line of each kind whose payload has the engine's fields in the
# engine's order, to fill with the time's text and the payload's values.
_LINES = {
    ARRIVAL: (("u",), '{"t": %s, "kind": "arrival", "payload": {"u": %s}}\n'),
    TIGHT: (("u", "v"), '{"t": %s, "kind": "tight", "payload": {"u": %s, "v": %s}}\n'),
    MERGE: (("set", "a", "b"), '{"t": %s, "kind": "merge", "payload": {"set": %s, "a": %s, "b": %s}}\n'),
    MATCH: (("u", "v"), '{"t": %s, "kind": "match", "payload": {"u": %s, "v": %s}}\n'),
    GROW: (("set", "from", "to"), '{"t": %s, "kind": "grow-interval", "payload": {"set": %s, "from": %s, "to": %s}}\n'),
}
_GROW_FIELDS, _GROW_LINE = _LINES[GROW]  # the writer's growth path, with its times
# The writer's view of each other form: its fields, the type of each value (int), its line.
_FORMS = {kind: (fields, (int,) * len(fields), line) for kind, (fields, line) in _LINES.items() if kind != GROW}


def events_to_jsonl(result: RunResult) -> str:
    """The event log as JSON lines: per event, the bytes ``json.dumps`` gives
    ``{"t": t, "kind": kind, "payload": payload}`` with every time dumped by
    ``dump_scalar``.  An event whose payload has its kind's fields in the
    engine's order, with an ``int`` in each field that is not a time, fills
    its kind's form; any other event (a bool index, a string value, a field
    of its own) goes through the strict encoder whole.  On the forms each
    time's text is computed once per time object, which is once per instant:
    the engine logs one object for all the events of an instant, and the log
    keeps each alive, so its id is not reused.  A NaN or infinite time raises
    ValueError."""
    mode, texts = result.mode, {}

    def text(t):
        s = texts.get(id(t))
        if s is None:
            s = texts[id(t)] = _encode(dump_scalar(t, mode))
        return s

    lines = []
    append = lines.append
    last = last_from = object()  # the last time and growth start written, as ``at`` and ``start``
    for ev in result.event_log:
        t, kind, payload = ev.t, ev.kind, ev.payload
        if t is not last:
            last, at = t, text(t)
        if kind == GROW and tuple(payload) == _GROW_FIELDS and type(payload["set"]) is int:
            begin, end = payload["from"], payload["to"]
            if begin is not last_from:
                last_from, start = begin, text(begin)
            append(_GROW_LINE % (at, payload["set"], start, at if end is t else text(end)))
            continue
        form = _FORMS.get(kind)
        if form is not None and tuple(payload) == form[0] and tuple(map(type, payload.values())) == form[1]:
            append(form[2] % (at, *payload.values()))
        else:
            payload = {k: dump_scalar(x, mode) if k in _TIMES else x for k, x in payload.items()}
            append(_encode({"t": dump_scalar(t, mode), "kind": kind, "payload": payload}) + "\n")
    return "".join(lines)


def _line_pattern():
    """One pattern for the lines ``events_to_jsonl`` writes from its forms,
    and, by the index of the last group it fills, each kind and its fields.
    A time is a JSON number or a string with no escape; an index is a JSON
    int."""
    time = r'(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|"[^"\\\x00-\x1f]*")'
    index = r"(-?(?:0|[1-9][0-9]*))"
    ends, alternatives, kinds = set(), [], {}
    last = 1  # group 1 is the line's time; the fields of a kind follow in theirs
    for kind, (fields, line) in _LINES.items():
        # The text before the time, then the text after the time and after each field.
        head, *after = line.removesuffix("\n").split("%s")
        ends.add((head, after[-1]))
        values = (time if k in _TIMES else index for k in fields)
        between = after[1:-1] + [""]  # the tail follows the last field
        alternatives.append(re.escape(after[0]) + "".join(v + re.escape(text) for v, text in zip(values, between)))
        kinds[last + len(fields)] = (kind, fields, last)
        last += len(fields)
    ((head, tail),) = ends  # every form shares them
    return re.compile(f"{re.escape(head)}{time}(?:{'|'.join(alternatives)}){re.escape(tail)}"), kinds


_LINE_PATTERN, _LINE_KINDS = _line_pattern()


def _token_value(token: str):
    """The JSON value of a time token of ``_LINE_PATTERN``, as ``json`` reads it."""
    if token[0] == '"':
        return token[1:-1]
    return float(token) if "." in token or "e" in token or "E" in token else int(token)


class _Tokens(dict):
    """Time token of ``_LINE_PATTERN`` -> its time in ``mode``, parsed on first use."""

    def __init__(self, mode: str):
        super().__init__()
        self.mode = mode

    def __missing__(self, token: str):
        t = self[token] = parse_scalar(_token_value(token), self.mode)
        return t


def _decode_line(line: str, time) -> EventRecord:
    """The record of one trace line read as JSON, with each time read by
    ``time`` from its JSON value: the general path of ``events_from_jsonl``."""
    doc = decode_json(line)
    if not isinstance(doc, dict):
        raise ValueError(f"line must be an object, got {type(doc).__name__}")
    if doc.keys() != _LINE:
        missing = [k for k in _LINE if k not in doc]
        raise ValueError(f"missing field {missing[0]!r}" if missing else f"unknown fields {sorted(doc.keys() - _LINE)}")
    raw, kind = doc["payload"], doc["kind"]
    if not isinstance(raw, dict):
        raise ValueError(f"payload must be an object, got {type(raw).__name__}")
    if not isinstance(kind, str):
        raise ValueError(f"kind must be a string, got {type(kind).__name__}")
    payload = {k: (time(v) if k in _TIMES else v) for k, v in raw.items()}
    return EventRecord(t=time(doc["t"]), kind=kind, payload=payload)


def events_from_jsonl(text: str, mode: str):
    """Parse a trace back into EventRecords (for post-hoc verification).
    A line must be an object with exactly the fields ``t``, ``kind`` and
    ``payload``, and no object in it may repeat a key, else ValueError names
    the line.

    A line in the writer's own form (``_LINE_PATTERN``: one of the five
    kinds, the engine's fields in the engine's order, each index a JSON int,
    each time a JSON number or a string with no escape, the writer's spacing)
    is read from its tokens, each time token parsed once per trace and keyed
    by its text, so ``-0.0`` and ``0.0`` stay distinct.  Any other line, and
    a matched line whose values fail to parse, takes the general path
    (``_decode_line``): ``json`` reads it, and a "p/q" string or an int time
    is parsed once per trace, kept by value.  Both paths give the same
    records, and every refusal comes from the general path."""
    events, times = [], {}
    append, match, kinds = events.append, _LINE_PATTERN.fullmatch, _LINE_KINDS

    def time(raw):
        # Any JSON value other than a string or an int is parsed each time, as
        # equal keys would merge 0.0 with -0.0 and true with 1.
        if type(raw) is not str and type(raw) is not int:
            return parse_scalar(raw, mode)
        t = times.get(raw)
        if t is None:
            t = times[raw] = parse_scalar(raw, mode)
        return t

    tokens = _Tokens(mode)
    for lineno, line in enumerate(text.splitlines(), 1):
        m = match(line)
        if m is not None:
            last = m.lastindex
            kind, fields, first = kinds[last]
            g = m.groups()
            try:
                if kind == GROW:
                    sid, start, end = g[first:last]
                    payload = {"set": int(sid), "from": tokens[start], "to": tokens[end]}
                else:
                    payload = dict(zip(fields, map(int, g[first:last])))
                append(EventRecord(tokens[g[0]], kind, payload))
                continue
            except (TypeError, ValueError):
                pass  # the general path reads the line and names the failure
        if not line.strip():
            continue
        try:
            append(_decode_line(line, time))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    return events


class GreedyDualEngine:
    """Stepwise simulator; ``run`` drives it to completion.

    With ``self_check=True`` every step feeds its events to the certifier's
    replay, which checks the instant the step closed, and the engine's own
    caches are compared with the replayed state.  When the run ends or any
    check raises, guards included, the engine asks the replay for its verdict
    (the stop-sweep rule lives in one certify function, ``stop_sweep``).
    The first breach raises EngineInvariantError("<property>: <detail>").
    """

    def __init__(self, inst: Instance, self_check: bool = False):
        self.inst = inst
        self.mode = inst.mode
        self.self_check = self_check
        n = len(inst.requests)
        self._exact = self.mode == EXACT
        # Distances over distinct positions only: requests often share them.
        self._grid = grid = inst.grid  # shared and immutable: ``_rescale`` replaces it
        # How far a due time's slack lies below the least slack (see above): twice
        # the tol of a bound on every budget, the largest distance plus the arrival span.
        self._margin = 0 if self._exact or not n else 2 * tol(max(map(max, grid.dist)) + (max(grid.atime) - min(grid.atime)))
        self._zero = 0 if self._exact else 0.0  # scaled
        self._clock = self._zero  # self.clock in units of 1 / scale
        self.potential = [self._zero] * n  # accumulated dual value over sets containing u, scaled
        self.clock = self._external(self._zero)
        self.next_arrival = 0
        self.assign = [None] * n  # request index -> active set_id
        self.sets: list[SetRecord] = []
        self.growing: set[int] = set()  # ids of the active sets with a free request
        self.events: list[EventRecord] = []
        # The candidates (u, v, scaled budget), u < v, of each pair of active
        # sets a < b with an eligible pair between them.
        self._buckets: dict[tuple, list] = {}
        # Twice the time each bucket with a growing set is due, scaled (see above).
        self._due: dict[tuple, Scalar] = {}
        # Active set -> [neutral, positive, negative] members, counted by
        # ``live_pairs`` and compared with the replay by ``_self_check``.
        self._polarity: dict[int, list] = {}
        self.live_pairs = _LivePairs(self._polarity)
        if self_check:
            from .certify import _Replay  # certify imports this module

            self._replay = _Replay(inst)
            self._banded = {}  # the candidate pairs of each bucket the last check saw

    # -- scaled values ----------------------------------------------------

    def _internal(self, t) -> Scalar:
        """Scaled value of ``t``, growing the scale first if ``t`` is off it."""
        if not self._exact:
            return t
        den = t.denominator
        if self._grid.scale % den:
            self._rescale(den // gcd(self._grid.scale, den))
        return t.numerator * (self._grid.scale // den)

    def _external(self, x, div: int = 1) -> Scalar:
        """The value a scaled ``x`` stands for, divided by ``div``."""
        if self._exact:
            return Fraction(x, self._grid.scale * div)
        return x / div if div != 1 else x

    def _rescale(self, k: int) -> None:
        self._grid = self._grid.rescaled(k)
        self._clock *= k
        self.potential = [p * k for p in self.potential]
        for rec in self.sets:
            rec.y *= k
        self._buckets = {key: [(u, v, c * k) for u, v, c in cands] for key, cands in self._buckets.items()}
        self._due = {key: d * k for key, d in self._due.items()}

    # -- event location ---------------------------------------------------

    def next_event(self):
        """Earliest of the next arrival and the next predicted tight pair.

        Returns (time, kind) with kind 'arrival' or 'tight', arrivals winning
        ties; None once everything has arrived and matched.  A state with
        unmatched requests but nothing to wait for is a stuck-state bug.
        """
        arrivals_left = self.next_arrival < len(self._grid.atime)
        key = self._least_tight_key()
        if key is not None:
            # Twice the tight time, scaled.  Doubling is exact in binary64, so
            # in float mode t2 / 2 is the float clock + slack / r.
            t2 = 2 * self._clock + key
            if not self._exact and t2 < 2 * self._clock:
                t2 = 2 * self._clock
            if not arrivals_left or 2 * self._grid.atime[self.next_arrival] > t2:
                return (self._external(t2, 2), TIGHT)
        if arrivals_left:
            return (self.inst.requests[self.next_arrival].atime, ARRIVAL)
        if self.growing:
            raise EngineInvariantError(
                "stuck-state: free requests remain but no growth can trigger a merge"
            )
        return None

    def _least_tight_key(self):
        """Least ``2 * slack / r`` over candidates with r >= 1 growing
        endpoints: twice the time until the first one goes tight.  A bucket
        due later than twice the clock plus the least key has no smaller key.
        The bucket due first has a key at most ``2 * margin`` above its due
        time less twice the clock, plus rounding far below the margin, so the
        search reads the buckets due by ``3 * margin`` after it, and then, if
        the least key they give reaches further, the buckets due by there."""
        due = self._due
        if not due:
            return None
        reach = min(due.values()) + 3 * self._margin
        best = self._least_key([key for key, d in due.items() if d <= reach])
        last = 2 * self._clock + best
        if last > reach:
            more = [key for key, d in due.items() if reach < d <= last]
            if more:
                best = min(best, self._least_key(more))
        return best

    def _least_key(self, keys):
        """Least ``2 * slack / r`` over the candidates of the buckets ``keys``."""
        pot, growing, buckets = self.potential, self.growing, self._buckets
        best = None
        for a, b in keys:
            f = _TWO_OVER[(a in growing) + (b in growing)]
            for u, v, cost in buckets[a, b]:
                key = (cost - pot[u] - pot[v]) * f
                if best is None or key < best:
                    best = key
        return best

    # -- state transitions ------------------------------------------------

    def advance_to(self, t) -> None:
        """Move the clock to ``t``, growing every active growing set by the
        elapsed span.  No event may sit strictly inside the span."""
        if self._exact:
            t = Fraction(t)
        t_in = self._internal(t)
        if t_in < self._clock:
            raise EngineInvariantError(f"clock would move backwards: {self.clock} -> {t}")
        if t_in == self._clock:
            return
        delta = t_in - self._clock
        pot = self.potential
        for sid in sorted(self.growing):
            rec = self.sets[sid]
            rec.y += delta
            for u in rec.members:
                pot[u] += delta
            self._log(t, GROW, {"set": sid, "from": self.clock, "to": t})
        self.clock, self._clock = t, t_in

    def _admit(self, u: int) -> None:
        req = self.inst.requests[u]
        if u != self.next_arrival:
            raise EngineInvariantError(f"arrivals must be admitted in order; expected {self.next_arrival}, got {u}")
        if self._grid.atime[u] != self._clock:
            raise EngineInvariantError(f"arrival of {u} at clock {self.clock}, but atime is {req.atime}")
        self.next_arrival += 1
        sid = len(self.sets)
        rec = SetRecord(set_id=sid, members=frozenset({u}), sur=1, y=self._zero, free={u})
        self.sets.append(rec)
        self.growing.add(sid)
        self.assign[u] = sid
        grid = self._grid
        self._polarity[sid] = counts = [0, 0, 0]
        counts[grid.sgn[u]] = 1
        # Every earlier request sits in another active set: all pairs cross.
        # One pass groups them by set.  Exact mode keeps the pairs tied at the
        # least slack so far, which leaves the ties at the final least.  Float
        # mode keeps the pairs within the band of the least slack so far, and
        # the band of the final least trims the rest; the margin is at least
        # any band, so a slack past it needs no tol call.
        row, pid, atime, sgn, assign = grid.dist[grid.pid[u]], grid.pid, grid.atime, grid.sgn, self.assign
        pot, margin, au, partner = self.potential, self._margin, atime[u], -sgn[u]
        found = [None] * sid  # set -> [least slack, (v, u, budget), ...]
        sets = []  # the sets in ``found``, as first found
        exact = self._exact
        if exact:
            for v in range(u):
                if sgn[v] == partner:
                    c = row[pid[v]] + (au - atime[v])
                    s = c - pot[v]  # u's potential is 0
                    x = assign[v]
                    e = found[x]
                    if e is None:
                        found[x] = [s, (v, u, c)]
                        sets.append(x)
                    elif s < e[0]:
                        found[x] = [s, (v, u, c)]
                    elif s == e[0]:
                        e.append((v, u, c))
        else:
            for v in range(u):
                if sgn[v] == partner:
                    c = row[pid[v]] + (au - atime[v])
                    s = c - pot[v]
                    x = assign[v]
                    e = found[x]
                    if e is None:
                        found[x] = [s, (v, u, c)]
                        sets.append(x)
                    elif s <= e[0]:
                        e[0] = s
                        e.append((v, u, c))
                    elif s <= e[0] + margin and s <= e[0] + 2 * tol(c):
                        e.append((v, u, c))
        buckets, due, growing, two_clock = self._buckets, self._due, self.growing, 2 * self._clock
        for x in sets:
            e = found[x]
            buckets[x, sid] = e[1:] if exact or len(e) == 2 else _band(e[1:], pot, margin)[0]
            due[x, sid] = two_clock + (e[0] - margin) * _TWO_OVER[1 + (x in growing)]  # the new set grows
        self._log(self.clock, ARRIVAL, {"u": u})

    def process_tight(self) -> None:
        """Merge-and-match until no eligible cross-set pair is tight.

        One scan per instant: a merge moves no potential, so the pairs tight
        now are the pairs tight after any merge at this instant.  They merge
        in (min index, max index) order, skipping those an earlier merge
        made internal.
        """
        tight = self._tight_pairs()
        if not tight:
            return
        tight.sort()
        assign = self.assign
        for u, v in tight:
            if assign[u] != assign[v]:
                self._merge(u, v)

    def _tight_pairs(self) -> list:
        """The candidates that are tight now, as (u, v), of the buckets due
        by now.  A bucket of two sets that do not grow has none: it was made
        by a fold from candidates that were not tight, and its potentials
        stay as they were."""
        pot, buckets, now = self.potential, self._buckets, 2 * self._clock
        due = [buckets[key] for key, d in self._due.items() if d <= now]
        if self._exact:
            return [(u, v) for cands in due for u, v, cost in cands if pot[u] + pot[v] == cost]
        return [(u, v) for cands in due for u, v, cost in cands if pot[u] + pot[v] >= cost - tol(cost)]

    def _merge(self, u: int, v: int) -> None:
        a = self.sets[self.assign[u]]
        b = self.sets[self.assign[v]]
        if a.set_id > b.set_id:
            a, b = b, a
        self._log(self.clock, TIGHT, {"u": u, "v": v})

        sid = len(self.sets)
        members = a.members | b.members
        rec = SetRecord(set_id=sid, members=members, sur=0, y=self._zero, free=a.free | b.free)
        self.sets.append(rec)
        self._log(self.clock, MERGE, {"set": sid, "a": a.set_id, "b": b.set_id})

        self._match_free(rec)
        rec.sur = len(rec.free)
        self.growing.discard(a.set_id)
        self.growing.discard(b.set_id)
        if rec.sur:  # a request stays free once it matched all it could; ``_fold`` reads this
            self.growing.add(sid)
        self._fold(a.set_id, b.set_id, sid)
        for w in members:
            self.assign[w] = sid

    def _fold(self, a: int, b: int, c: int) -> None:
        """Give the new set ``c`` the buckets of its children ``a`` < ``b``:
        {a, b} goes, and for each other active set x, {a, x} and {b, x}
        (one may be missing, not both: the merge joins an eligible pair, so
        ``c`` holds a partner for every member of x) become {c, x}, the band
        of their union, due at its new rate.  An exact bucket holds only ties
        (see above), so its head has its least slack, and the band of the
        union is the child with the smaller head slack, or both, a's first,
        on a tie.  Whether ``c`` grows is read from ``growing``, where
        ``_merge`` put it once ``c`` matched what it could."""
        buckets, due, polarity, growing = self._buckets, self._due, self._polarity, self.growing
        pa, pb = polarity.pop(a), polarity.pop(b)
        del buckets[a, b]  # the tight pair that merges a and b is one of its candidates
        due.pop((a, b), None)
        grows = c in growing
        pot, margin, two_clock, exact = self.potential, self._margin, 2 * self._clock, self._exact
        for x in polarity:
            ka = (x, a) if x < a else (a, x)
            kb = (x, b) if x < b else (b, x)
            ca = buckets.pop(ka, None)
            if ca is not None:
                due.pop(ka, None)
            cb = buckets.pop(kb, None)
            if cb is not None:
                due.pop(kb, None)
            r = grows + (x in growing)
            if ca is None or cb is None:
                cands = cb if ca is None else ca
                if len(cands) > 1 and not exact:
                    cands, least = _band(cands, pot, margin)
                elif r:
                    u, v, cost = cands[0]
                    least = cost - pot[u] - pot[v]
            elif exact:
                u, v, cost = ca[0]
                least = cost - pot[u] - pot[v]
                u, v, cost = cb[0]
                head = cost - pot[u] - pot[v]
                if head < least:
                    cands, least = cb, head
                else:
                    cands = ca if least < head else ca + cb
            else:
                cands, least = _band(ca + cb, pot, margin)
            buckets[x, c] = cands
            if r:
                due[x, c] = two_clock + (least - margin) * _TWO_OVER[r]
        polarity[c] = [pa[0] + pb[0], pa[1] + pb[1], pa[2] + pb[2]]

    def _match_free(self, rec: SetRecord) -> None:
        # FIFO: earliest-arrived free request first, then the earliest free
        # request it may be matched with (arrival order == index order).
        order = sorted(rec.free)
        while len(order) >= 2:
            x = order[0]
            partner = None
            for w in order[1:]:
                if self.inst.eligible(x, w):
                    partner = w
                    break
            if partner is None:
                return
            order.remove(x)
            order.remove(partner)
            rec.free.discard(x)
            rec.free.discard(partner)
            self._log(self.clock, MATCH, {"u": min(x, partner), "v": max(x, partner)})

    # -- driving ----------------------------------------------------------

    def step(self) -> bool:
        """Process one event (an arrival batch or a tight instant).

        A step must move the clock forward, or keep it and log an event; any
        other step (one that changes nothing, or a clock turned NaN by an
        overflow) would repeat forever, so it raises EngineInvariantError
        instead."""
        try:
            ev = self.next_event()
            if ev is None:
                return False
            clock, logged = self.clock, len(self.events)
            t, kind = ev
            self.advance_to(t)
            if kind == ARRIVAL:
                atime = self._grid.atime
                while self.next_arrival < len(atime) and atime[self.next_arrival] == self._clock:
                    self._admit(self.next_arrival)
            self.process_tight()
            if not (self.clock > clock or self.clock == clock and len(self.events) > logged):
                raise EngineInvariantError(
                    f"stalled: {kind} event at {t} took the clock from {clock} to {self.clock} "
                    f"and logged {len(self.events) - logged} events"
                )
            if self.self_check:
                self._self_check()
            return True
        except EngineInvariantError as exc:
            raise self._breach() or exc from None

    def run(self) -> RunResult:
        while self.step():
            pass
        try:
            result = self._result()
        except EngineInvariantError as exc:
            raise self._breach() or exc from None
        if breach := self._breach():
            raise breach
        return result

    def _result(self) -> RunResult:
        inst = self.inst
        # Match and tight events both log their pair as u < v.
        matching = tuple((ev.payload["u"], ev.payload["v"], ev.t) for ev in self.events if ev.kind == MATCH)
        marked = tuple((ev.payload["u"], ev.payload["v"], ev.t) for ev in self.events if ev.kind == TIGHT)
        if 2 * len(matching) != len(inst.requests):
            raise EngineInvariantError("run ended with unmatched requests")
        # Sums on the grid: scaled ints in exact mode, where each match time
        # is on the grid, as every event time is.
        dist, pid, atime, internal = self._grid.dist, self._grid.pid, self._grid.atime, self._internal
        connection = waiting = dual = self._zero
        for u, v, t in matching:
            t = internal(t)
            connection += dist[pid[u]][pid[v]]
            waiting += (t - atime[u]) + (t - atime[v])
        for rec in self.sets:
            dual += rec.sur * rec.y
            rec.y = self._external(rec.y)
        connection, waiting, total, dual = map(self._external, (connection, waiting, connection + waiting, dual))
        result = RunResult(
            variant=inst.variant,
            mode=self.mode,
            m=inst.m,
            matching=matching,
            all_sets=tuple(self.sets),
            event_log=tuple(self.events),
            marked_edges=marked,
            connection_cost=connection,
            waiting_cost=waiting,
            total_cost=total,
            dual_objective=dual,
        )
        if self.self_check:
            self._self_check(result)
        return result

    def _log(self, t, kind, payload) -> None:
        self.events.append(EventRecord(t=t, kind=kind, payload=payload))

    # -- self-check (debug mode) --------------------------------------------

    def _self_check(self, result: RunResult = None) -> None:
        """Drive the certifier's replay over the event log, to the endgame
        given the finished ``result``, then compare the engine caches a replay
        cannot see with its active sets.  The first breach raises EngineInvariantError.

        A bucket that one fold spoils and a later fold of the same instant
        replaces is never checked, and cannot reach a trace: a step scans for
        tight pairs once, before its first merge, so only the step's later
        folds read it, and every bucket the step ends with is checked here,
        with its due time (a new one against its cross pairs)."""
        replay = self._replay
        if report := replay.drive(self.events, result is not None, result):
            raise EngineInvariantError(f"{report.prop}: {report.detail}")
        arrived, assign, rpot, active = self.next_arrival, replay.assign, replay.potential, replay.active
        for u in range(arrived):
            cached, replayed = self._external(self.potential[u]), replay.external(rpot[u])
            if not eq(cached, replayed, self.mode):
                raise EngineInvariantError(f"potential: request {u}: cached {cached}, replayed {replayed}")
        # The growing sets must be the replayed active sets with a free request.
        if self.growing != (replayed := {a for a, rec in active.items() if rec.free}):
            raise EngineInvariantError(f"growth-flag: growing sets {sorted(self.growing)}, replayed {sorted(replayed)}")
        # ``_polarity``, which ``live_pairs`` counts, must hold each replayed
        # active set's [neutral, positive, negative] members, read from its
        # size and summed polarity, and there must be one bucket per pair of
        # sets whose counts allow an eligible pair.
        grid, buckets, mpmd = replay.grid, self._buckets, self.inst.variant == MPMD
        dist, pid, atime, sgn = grid.dist, grid.pid, grid.atime, grid.sgn
        counts = {}
        for a, rec in active.items():
            size, pol = len(rec.members), rec.pol
            counts[a] = [size, 0, 0] if mpmd else [0, (size + pol) // 2, (size - pol) // 2]
        linked = {  # ``active`` is in set-id order, so a < b
            (a, b)
            for (a, x), (b, y) in combinations(counts.items(), 2)
            if x[0] and y[0] or x[1] and y[2] or x[2] and y[1]
        }
        not_cross = "live-pairs: live pairs are not the eligible cross-set pairs"
        if self._polarity != counts or buckets.keys() != linked:
            raise EngineInvariantError(not_cross)
        # Each candidate must be listed once, an eligible pair u < v of arrived
        # requests that joins its bucket's sets, at its budget.  A bucket the
        # last check did not see must hold the least-slack band of its pairs,
        # built from the replay's members, potentials and grid.  Float rounding
        # may later move a pair across the edge of its band, so a bucket the
        # last check saw must hold what that check saw.
        banded, cost = {}, self._grid.cost
        for (a, b), cands in buckets.items():
            pairs = banded[a, b] = {(u, v) for u, v, _ in cands}
            if len(pairs) != len(cands):
                raise EngineInvariantError(not_cross)
            for u, v, c in cands:
                if not 0 <= u < v < arrived or sgn[u] != -sgn[v] or {assign[u], assign[v]} != {a, b}:
                    raise EngineInvariantError(not_cross)
                if c != cost(u, v):
                    raise EngineInvariantError(f"live-pairs: pair ({u}, {v}): cached budget {self._external(c)}")
            band = self._banded.get((a, b))
            if band is None:
                cross = []  # the eligible pairs (u, v, replayed budget) between sets a and b
                for x in active[a].members:
                    row, tx, partner = dist[pid[x]], atime[x], -sgn[x]
                    for y in active[b].members:
                        if sgn[y] == partner:
                            c = row[pid[y]] + abs(tx - atime[y])
                            cross.append((x, y, c) if x < y else (y, x, c))
                if self._exact:  # a band of 0: the pairs at the least slack
                    slack = {(u, v): c - rpot[u] - rpot[v] for u, v, c in cross}
                    least = min(slack.values())
                    band = {pair for pair, s in slack.items() if s == least}
                else:
                    band = {(u, v) for u, v, _ in _band(cross, rpot, self._margin)[0]}
            if pairs != band:
                raise EngineInvariantError(f"live-pairs: sets {(a, b)}: candidates are not the least-slack band")
        self._banded = banded
        # Exactly the buckets with a growing set must have a due time: in
        # exact mode twice the time their least replayed slack closes, in
        # float mode no later than twice the first time one of their
        # candidates meets the tight test under the replayed potentials.
        due, two_clock = self._due, 2 * replay.clock
        if due.keys() != {key for key in buckets if key[0] in replayed or key[1] in replayed}:
            raise EngineInvariantError("due-time: the buckets with a due time are not the buckets with a growing set")
        for key, d in due.items():
            f = _TWO_OVER[(key[0] in replayed) + (key[1] in replayed)]
            budgets = [(u, v, grid.cost(u, v)) for u, v, _ in buckets[key]]
            if self._exact:  # the band check made the candidates the pairs at the least slack
                d = Fraction(d, self._grid.scale)
                at = two_clock + replay.external(f * min(c - rpot[u] - rpot[v] for u, v, c in budgets))
                wrong = d != at
            else:
                at = min(two_clock + (c - tol(c) - rpot[u] - rpot[v]) * f for u, v, c in budgets)
                wrong = d > at
            if wrong:
                raise EngineInvariantError(f"due-time: sets {key}: due at {d / 2}, replayed {at / 2}")

    def _breach(self):
        """Under self-check, the replay's stop-sweep verdict, asked when the run
        ends or any check raises: the error to raise in place of any other, if
        a pair is over budget."""
        if self.self_check and (report := self._replay.stop_sweep()):
            return EngineInvariantError(f"{report.prop}: {report.detail}")


def run(inst: Instance, self_check: bool = False) -> RunResult:
    """Run the matching engine on ``inst`` to completion."""
    return GreedyDualEngine(inst, self_check=self_check).run()
