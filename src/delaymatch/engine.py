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
lexicographic order.  The scans visit only the *candidates* of each pair of
active sets {A, B}: the eligible pairs between them whose slack is within a
band of the least slack between them.  Every member of a set gains the same
dual value, so the pairs of {A, B} lose slack at one rate and keep their
order; the first of them to go tight merges A and B, and the others then
never cross again.  The band is 0 in exact mode, which keeps ties, and ``2 *
tol(c)`` for a pair of budget ``c`` in float mode, where rounding may reorder
pairs that close.  Candidates are grouped by set when a request arrives; a
merge of A and B into C drops {A, B} and, for each other active set X, looks
up {A, X} and {B, X} (either may be missing) and folds them into {C, X}, which
keeps the band of their union.  The event log is the one record of
growth intervals, marks and matches; ``SetRecord`` keeps only each set's sum
``y``, and ``growing`` the ids of the sets that grow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .instance import Instance, decode_json
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


def _band(cands: list, pot: list, band_tol) -> list:
    """The ``(u, v, budget)`` triples of ``cands`` whose slack under the
    potentials ``pot`` is at most the least slack plus twice their own
    ``band_tol``: ``scalars.tol``, or None in exact mode, for a band of 0."""
    slacks = [c - pot[u] - pot[v] for u, v, c in cands]
    least = min(slacks)
    if slacks.count(least) == len(slacks):  # all tied: nothing to trim
        return cands
    if band_tol is None:
        return [p for p, s in zip(cands, slacks) if s == least]
    return [p for p, s in zip(cands, slacks) if s <= least + 2 * band_tol(p[2])]


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


def events_to_jsonl(result: RunResult) -> str:
    """The event log as JSON lines: per event, the bytes ``json.dumps`` gives
    ``{"t": t, "kind": kind, "payload": payload}`` with every time dumped by
    ``dump_scalar``.  The kinds and the payload's other fields are the
    engine's names and ints.  Each time's text is computed once per time
    object, which is once per instant: the engine logs one object for all
    the events of an instant, and the log keeps each alive, so its id is not
    reused.  A NaN or infinite time raises ValueError."""
    mode, texts = result.mode, {}

    def text(t):
        s = texts.get(id(t))
        if s is None:
            s = texts[id(t)] = _encode(dump_scalar(t, mode))
        return s

    lines = []
    for ev in result.event_log:
        payload = ", ".join(f'"{k}": {text(x) if k in _TIMES else x}' for k, x in ev.payload.items())
        lines.append(f'{{"t": {text(ev.t)}, "kind": "{ev.kind}", "payload": {{{payload}}}}}\n')
    return "".join(lines)


def events_from_jsonl(text: str, mode: str):
    """Parse a trace back into EventRecords (for post-hoc verification).
    A line must be an object with exactly the fields ``t``, ``kind`` and
    ``payload``, and no object in it may repeat a key, else ValueError names
    the line.  Each distinct time string is parsed once per trace."""
    events, times = [], {}

    def time(raw):
        # A "p/q" string or an int is kept by value; any other JSON value is
        # parsed each time, as equal keys would merge 0.0 with -0.0 and true with 1.
        if type(raw) is not str and type(raw) is not int:
            return parse_scalar(raw, mode)
        t = times.get(raw)
        if t is None:
            t = times[raw] = parse_scalar(raw, mode)
        return t

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
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
            events.append(EventRecord(t=time(doc["t"]), kind=kind, payload=payload))
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
        self._band_tol = None if self._exact else tol  # see ``_band``
        # Distances over distinct positions only: requests often share them.
        grid = inst.grid  # shared and immutable: ``_rescale`` builds new lists
        self._scale, self._pid, self._dist, self._atime, self._sgn = grid.scale, grid.pid, grid.dist, grid.atime, grid.sgn
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
        self._polarity: dict[int, list] = {}  # active set -> [neutral, positive, negative] members
        self.live_pairs = _LivePairs(self._polarity)
        if self_check:
            from .certify import _Replay  # certify imports this module

            self._replay = _Replay(inst)
            self._banded, self._banded_sets = {}, 0  # the last check's buckets, and how many sets it saw

    # -- scaled values ----------------------------------------------------

    def _internal(self, t) -> Scalar:
        """Scaled value of ``t``, growing the scale first if ``t`` is off it."""
        if not self._exact:
            return t
        den = t.denominator
        if self._scale % den:
            self._rescale(den // gcd(self._scale, den))
        return t.numerator * (self._scale // den)

    def _external(self, x, div: int = 1) -> Scalar:
        """The value a scaled ``x`` stands for, divided by ``div``."""
        if self._exact:
            return Fraction(x, self._scale * div)
        return x / div if div != 1 else x

    def _rescale(self, k: int) -> None:
        self._scale *= k
        self._clock *= k
        self.potential = [p * k for p in self.potential]
        self._atime = [t * k for t in self._atime]
        self._dist = [[d * k for d in row] for row in self._dist]
        for rec in self.sets:
            rec.y *= k
        self._buckets = {key: [(u, v, c * k) for u, v, c in cands] for key, cands in self._buckets.items()}

    # -- event location ---------------------------------------------------

    def next_event(self):
        """Earliest of the next arrival and the next predicted tight pair.

        Returns (time, kind) with kind 'arrival' or 'tight', arrivals winning
        ties; None once everything has arrived and matched.  A state with
        unmatched requests but nothing to wait for is a stuck-state bug.
        """
        arrivals_left = self.next_arrival < len(self._atime)
        key = self._least_tight_key()
        if key is not None:
            # Twice the tight time, scaled.  Doubling is exact in binary64, so
            # in float mode t2 / 2 is the float clock + slack / r.
            t2 = 2 * self._clock + key
            if not self._exact and t2 < 2 * self._clock:
                t2 = 2 * self._clock
            if not arrivals_left or 2 * self._atime[self.next_arrival] > t2:
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
        endpoints: twice the time until the first one goes tight."""
        pot, growing, two_over = self.potential, self.growing, _TWO_OVER
        best = None
        for (a, b), cands in self._buckets.items():
            r = (a in growing) + (b in growing)
            if r:
                f = two_over[r]
                for u, v, cost in cands:
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
        if self._atime[u] != self._clock:
            raise EngineInvariantError(f"arrival of {u} at clock {self.clock}, but atime is {req.atime}")
        self.next_arrival += 1
        sid = len(self.sets)
        rec = SetRecord(set_id=sid, members=frozenset({u}), sur=1, y=self._zero, free={u})
        self.sets.append(rec)
        self.growing.add(sid)
        self.assign[u] = sid
        sgn = self._sgn
        self._polarity[sid] = counts = [0, 0, 0]
        counts[sgn[u]] = 1
        # Every earlier request sits in another active set: all pairs cross.
        # One pass groups them by set, keeping the pairs within the band of
        # the least slack so far; the band of the final least trims the rest.
        row, pid, atime, assign = self._dist[self._pid[u]], self._pid, self._atime, self.assign
        pot, band_tol, au, partner = self.potential, self._band_tol, atime[u], -sgn[u]
        found = [None] * sid  # set -> [least slack, (v, u, budget), ...]
        sets = []  # the sets in ``found``, as first found
        for v in range(u):
            if sgn[v] == partner:
                c = row[pid[v]] + (au - atime[v])
                s = c - pot[v]  # u's potential is 0
                x = assign[v]
                e = found[x]
                if e is None:
                    found[x] = [s, (v, u, c)]
                    sets.append(x)
                elif s <= e[0]:
                    e[0] = s
                    e.append((v, u, c))
                elif band_tol and s <= e[0] + 2 * band_tol(c):
                    e.append((v, u, c))
        buckets = self._buckets
        for x in sets:
            e = found[x]
            buckets[x, sid] = [e[1]] if len(e) == 2 else _band(e[1:], pot, band_tol)
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
        """The candidates that are tight now, as (u, v)."""
        pot, buckets = self.potential, self._buckets.values()
        if self._exact:
            return [(u, v) for cands in buckets for u, v, cost in cands if pot[u] + pot[v] == cost]
        return [(u, v) for cands in buckets for u, v, cost in cands if pot[u] + pot[v] >= cost - tol(cost)]

    def _merge(self, u: int, v: int) -> None:
        a = self.sets[self.assign[u]]
        b = self.sets[self.assign[v]]
        if a.set_id > b.set_id:
            a, b = b, a
        self._log(self.clock, TIGHT, {"u": u, "v": v})

        sid = len(self.sets)
        members = a.members | b.members
        self._fold(a.set_id, b.set_id, sid)
        neutral, positive, negative = self._polarity[sid]
        rec = SetRecord(
            set_id=sid, members=members, sur=neutral % 2 + abs(positive - negative), y=self._zero, free=a.free | b.free
        )
        self.growing.discard(a.set_id)
        self.growing.discard(b.set_id)
        self.sets.append(rec)
        self._log(self.clock, MERGE, {"set": sid, "a": a.set_id, "b": b.set_id})

        self._match_free(rec)
        if rec.free:
            self.growing.add(sid)
        for w in members:
            self.assign[w] = sid

    def _fold(self, a: int, b: int, c: int) -> None:
        """Give the new set ``c`` the buckets of its children ``a`` < ``b``:
        {a, b} goes, and for each other active set x, {a, x} and {b, x}
        (either may be missing) become {c, x}, the band of their union."""
        buckets, polarity = self._buckets, self._polarity
        pa, pb = polarity.pop(a), polarity.pop(b)
        del buckets[a, b]  # the tight pair that merges a and b is one of its candidates
        pot, band_tol = self.potential, self._band_tol
        for x in polarity:
            ca = buckets.pop((x, a) if x < a else (a, x), None)
            cb = buckets.pop((x, b) if x < b else (b, x), None)
            cands = cb if ca is None else ca if cb is None else ca + cb
            if cands is not None:
                buckets[x, c] = cands if len(cands) == 1 else _band(cands, pot, band_tol)
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
                n = len(self._atime)
                while self.next_arrival < n and self._atime[self.next_arrival] == self._clock:
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
        dist, pid, atime, internal = self._dist, self._pid, self._atime, self._internal
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
        cannot see.  The first breach raises EngineInvariantError."""
        replay = self._replay
        if report := replay.drive(self.events, result is not None, result):
            raise EngineInvariantError(f"{report.prop}: {report.detail}")
        arrived, assign, buckets = self.next_arrival, replay.assign, self._buckets
        for u in range(arrived):
            cached, replayed = self._external(self.potential[u]), replay.external(replay.potential[u])
            if not eq(cached, replayed, self.mode):
                raise EngineInvariantError(f"potential: request {u}: cached {cached}, replayed {replayed}")
        members = {}  # replayed active set -> its arrived members
        for u in range(arrived):
            members.setdefault(assign[u], []).append(u)
        # The growing sets must be the replayed active sets with a free request.
        if self.growing != (replayed := {a for a in members if replay.sets[a].free}):
            raise EngineInvariantError(f"growth-flag: growing sets {sorted(self.growing)}, replayed {sorted(replayed)}")
        # There must be one bucket per pair of replayed active sets with an
        # eligible pair of arrived requests between them, and as many such
        # pairs as ``live_pairs`` counts.
        grid, sets = replay.grid, sorted(members)
        dist, pid, atime, sgn = grid.dist, grid.pid, grid.atime, grid.sgn
        cross = {}  # (a, b) -> the eligible pairs (u, v, replayed budget) between sets a < b
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                pairs = []
                for x in members[a]:
                    row, tx, partner = dist[pid[x]], atime[x], -sgn[x]
                    for y in members[b]:
                        if sgn[y] == partner:
                            c = row[pid[y]] + abs(tx - atime[y])
                            pairs.append((x, y, c) if x < y else (y, x, c))
                if pairs:
                    cross[a, b] = pairs
        not_cross = "live-pairs: live pairs are not the eligible cross-set pairs"
        if (
            buckets.keys() != cross.keys()
            or self._polarity.keys() != members.keys()
            or len(self.live_pairs) != sum(map(len, cross.values()))
        ):
            raise EngineInvariantError(not_cross)
        # Each candidate must be one of its bucket's pairs, listed once.
        for key, cands in buckets.items():
            pairs = {(u, v) for u, v, _ in cross[key]}
            if len({(u, v) for u, v, _ in cands} & pairs) != len(cands):
                raise EngineInvariantError(not_cross)
        dist, pid, atime = self._dist, self._pid, self._atime
        for cands in buckets.values():
            for u, v, c in cands:
                if c != dist[pid[u]][pid[v]] + abs(atime[u] - atime[v]):
                    raise EngineInvariantError(f"live-pairs: pair ({u}, {v}): cached budget {self._external(c)}")
        # And each bucket must hold the least-slack band of its pairs as it
        # stood when the bucket was built, at the step that made its newer
        # set.  Float rounding may later move a pair across the edge of its
        # band, so an older bucket must hold what the last check saw.
        banded, old = {}, self._banded_sets
        for key, cands in buckets.items():
            banded[key] = {(u, v) for u, v, _ in cands}
            if key[1] < old:
                band = self._banded.get(key)
            else:
                band = {(u, v) for u, v, _ in _band(cross[key], replay.potential, self._band_tol)}
            if banded[key] != band:
                raise EngineInvariantError(f"live-pairs: sets {key}: candidates are not the least-slack band")
        self._banded, self._banded_sets = banded, len(replay.sets)

    def _breach(self):
        """Under self-check, the replay's stop-sweep verdict, asked when the run
        ends or any check raises: the error to raise in place of any other, if
        a pair is over budget."""
        if self.self_check and (report := self._replay.stop_sweep()):
            return EngineInvariantError(f"{report.prop}: {report.detail}")


def run(inst: Instance, self_check: bool = False) -> RunResult:
    """Run the matching engine on ``inst`` to completion."""
    return GreedyDualEngine(inst, self_check=self_check).run()
