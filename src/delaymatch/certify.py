"""Independent certification of engine runs.

The certifier replays an event log against the instance it claims to solve,
rebuilding every dual variable, potential, active set, marked edge, and match
from the events alone.  It never reads engine caches, so a bug (or a tampered
trace) has to re-derive consistent state to slip through.  Checks fall into
three groups:

* admissibility of each event against the replayed state (clock discipline,
  arrival order, growth bookkeeping, tight pairs at budget, merge references);
* state properties: at each settled instant, surplus counts and
  potential-equals-waiting for free requests; where the replay stops, dual
  feasibility of every arrived eligible pair;
* endgame properties: waiting cost equals the dual objective, matched pairs
  connect through the marked forest cheaply, and the total cost respects the
  guarantee factor (2m + 1).

Admission alone keeps the laminar structure the certificate rests on, so no
later check tests it again.  An arrival admits only the next request, into a
new singleton set.  A tight event names an eligible pair across two active
sets whose value is at its budget, and the next event must merge exactly the
two active sets that hold that pair.  By induction, after every event:

* the active sets partition the arrived requests, and ``assign`` names each
  request's active set;
* the marked edges inside each active set form a spanning tree of its
  members (each merge adds one edge between two distinct trees), and no
  marked edge crosses active sets;
* each marked edge's value is at its budget: the merge records the
  potentials the tight event tested, with no event in between, and the
  edge's value stays their sum (see ``_Replay._rows``).

Each entry of ``_Replay.marked`` is ``(u, v, C)``: the tight pair a merge
marked and the set C that merge created.  The endgame routes each matched
pair with ``marked_path`` through the merge tree this builds
(``_Replay.router``): the marked forest is rooted once, and a pair's path is
the two parent chains up to their meeting point.  An edge marked by C joins
members of C's two children, so the sets it leaves are those on the two
merge-tree chains from its ends' singletons up to C; counting them per path
edge gives every set's crossings.  Without the router, ``marked_path`` is
the reference route, a search of the whole forest and a count against every
set; ``marked_path_check`` uses it.

The first failed check wins: certification returns a ViolationReport naming
the property, a witness, and the index of the offending event.  Clean replays
return a DualCertificate with the re-derived totals and per-pair slacks.

``_Replay.drive`` feeds the replay: ``certify`` hands it a whole trace, the
engine's self-check its growing log after every step.  An instant settles
when the clock leaves it, the run ends or the self-check closes a step, but
only if an event was applied since the last settle, so each instant is
checked once.  Pair budgets come from ``Instance.grid`` (``Grid.cost``,
``Grid.pairs``), which the engine reads too but cannot change; the endgame
sums ``metric.distance`` over the matched pairs, apart from the grid, once
per pair as it routes them, and the cross-check compares the run's totals
with that sum.  The waiting cost is summed on the grid, from the match times
and the arrival times each arrival event was checked against.

In exact mode the replay computes on Python ints over a scale ``S``: an int
``x`` stands for ``x / S``.  The clock, the grid, potentials, and each set's
``y``, growth end and record of its members' potentials are scaled.  ``S``
starts as the scale of ``Instance.grid``: the lcm of the denominators of the
arrival times and of the metric's inputs (positions, a ring's circumference,
matrix entries).  Trace times are read as they are; a time not of the mode
(``is_scalar``) or an index that is not an int breaks the trace shape.  When
an event time or a growth endpoint with denominator ``den`` falls off the
grid, ``S`` grows by ``k = den // gcd(S, den)`` and every scaled int is
multiplied by ``k`` into new containers (``Grid.rescaled``); the shared grid
stays as it was.  None of it is engine code, so one bug cannot fool both.
Fractions are built only for witnesses and messages and the totals.  A
``DualCertificate`` keeps the scaled slacks and the scale: ``edge_slacks``
and ``min_slack`` build Fractions when read, and ``to_json`` prints each
slack from its int with ``scalars.dump_ratio``.
Float mode runs the same code on the floats themselves, with no scale.

Dual feasibility is checked once, where the replay stops: at the end, at
its first violation, or where an engine guard or cache check raises under
self-check.  Values only rise (growth needs ``from < to``, a merge freezes
the pairs it joins, an inactive set never grows) and budgets are fixed, so
a pair within budget there was within budget after every earlier event.
No value is kept per pair: ``_Replay._rows`` reads a pair across active
sets from its potentials, and a pair inside one from the record of the set
whose merge joined it, the two potentials it held then; each row is filled
by one walk up its first request's chain of sets.  A pair is judged
against its budget by the budget-pair form of the tolerance rule stated in
``scalars``, the form the engine's tightness test uses: in float mode,
within budget is ``value <= cost + tol(cost)``, and a tight pair must also
reach ``cost - tol(cost)``.  ``_Replay.stop_sweep``, which ``certify`` and
the self-check both call, holds this rule: if a pair fails, the reference
replay (``per_event``) reruns exactly the input ``drive`` was handed, with a
full sweep after every growth event and settle, and its report stands.

``certify`` walks the pairs once.  After a clean ``drive``, one sweep of
``_Replay._rows`` (``_Replay.sweep``) builds each pair's ``(u, v, slack)``
row of the certificate and tests the pair with the stop sweep's rule,
``_first_over_budget``; if any pair is over budget, ``stop_sweep`` gives
the verdict as above.  A ``drive`` that reports a violation goes to
``stop_sweep`` with it.  The least slack is computed once per certificate,
when first read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter

from .engine import ARRIVAL, GROW, MATCH, MERGE, TIGHT, EventRecord, RunResult
from .instance import MPMD, Instance
from .scalars import Scalar, dump_ratio, dump_scalar, eq, is_scalar, leq, tol

GUARANTEE_SLOPE = 2  # total cost is bounded by (2m + 1) times the dual objective


@dataclass(frozen=True)
class DualCertificate:
    """A verified run: re-derived totals plus the slack of every constraint.

    The slacks are kept as the replay computed them: scaled ints over
    ``scale`` in exact mode, floats in float mode (``scale`` None).  Reading
    ``edge_slacks`` or ``min_slack`` builds their values; ``to_json`` prints
    them straight from the ints."""

    mode: str
    m: int
    connection_cost: Scalar
    waiting_cost: Scalar
    total_cost: Scalar
    dual_objective: Scalar
    num_events: int
    num_sets: int
    num_marked_edges: int
    slacks: tuple  # ((u, v, scaled slack), ...) sorted by pair, final values
    scale: int  # None in float mode

    @property
    def ok(self) -> bool:
        return True

    @property
    def edge_slacks(self) -> tuple:
        """((u, v, slack), ...) sorted by pair, final values."""
        scale = self.scale
        if scale is None:
            return self.slacks
        return tuple((u, v, Fraction(s, scale)) for u, v, s in self.slacks)

    @cached_property
    def min_slack(self):
        least = min(map(itemgetter(2), self.slacks), default=None)
        return least if least is None or self.scale is None else Fraction(least, self.scale)

    def to_json(self) -> dict:
        mode, scale = self.mode, self.scale

        def dump(s):
            return dump_scalar(s, mode) if scale is None else dump_ratio(s, scale)

        return {**self.scalar_fields(), "edge_slacks": [[u, v, dump(s)] for u, v, s in self.slacks]}

    def scalar_fields(self) -> dict:
        """The fields of ``to_json`` before ``edge_slacks``, in its order."""
        mode, least = self.mode, self.min_slack
        return {
            "ok": True,
            "m": self.m,
            "connection_cost": dump_scalar(self.connection_cost, mode),
            "waiting_cost": dump_scalar(self.waiting_cost, mode),
            "total_cost": dump_scalar(self.total_cost, mode),
            "dual_objective": dump_scalar(self.dual_objective, mode),
            "num_events": self.num_events,
            "num_sets": self.num_sets,
            "num_marked_edges": self.num_marked_edges,
            "min_slack": None if least is None else dump_scalar(least, mode),
        }


@dataclass(frozen=True)
class ViolationReport:
    """The earliest property breach found while replaying a run."""

    prop: str
    detail: str
    witness: dict
    event_index: int  # index into the event log; -1 for endgame checks

    @property
    def ok(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {
            "ok": False,
            "property": self.prop,
            "detail": self.detail,
            "witness": self.witness,
            "event_index": self.event_index,
        }


@dataclass(frozen=True)
class PathCheck:
    """Marked-forest route for one matched pair, with the bound inputs."""

    pair: tuple
    path: tuple  # request indices from u to v through the marked forest
    path_length: Scalar
    distance: Scalar
    max_crossings: int  # worst number of times the path leaves any one set


class _Violation(Exception):
    def __init__(self, prop, detail, witness, event_index):
        super().__init__(f"{prop}: {detail}")
        self.report = ViolationReport(prop, detail, witness, event_index)


class _RSet:
    __slots__ = (
        "set_id",
        "members",
        "children",
        "pol",
        "sur",
        "y",
        "free",
        "growth_end",
        "parent",
    )

    def __init__(self, set_id, members, children, pol, sur, free, clock, zero):
        self.set_id = set_id
        self.members = members  # member -> its scaled potential when the set was made
        self.children = children  # the two sets its merge joined; () for an arrival's
        self.pol = pol  # the members' summed polarity
        self.sur = sur
        self.y = zero
        self.free = free
        self.growth_end = clock
        self.parent = None  # the set its merge created; None while active


class _Replay:
    def __init__(self, inst: Instance, per_event=False):
        self.inst = inst
        self.per_event = per_event  # the reference: a full sweep after each growth and settle
        self.mode = inst.mode
        n = len(inst.requests)
        self.grid = inst.grid  # shared and immutable: ``_rescale`` replaces it
        self.zero = 0.0 if self.grid.scale is None else 0
        # Scaled: the clock, the grid, the potentials, and each set's
        # member potentials, ``y`` and ``growth_end``.
        self._clock = self.zero
        self.clock = self.external(self.zero)  # the time of the last clock move, as the trace gave it
        self.next_arrival = 0
        self.potential = [self.zero] * n
        self.assign = [None] * n
        self.sets: list[_RSet] = []
        self.active = {}  # set id -> its record, for the active sets, in set-id order
        self.leaf = []  # request -> the singleton set its arrival created
        self.marked = []  # (u, v, the set created by the merge that marked it), in trace order
        self.matching = []
        self.pending_tight = None
        self.index = -1
        self.applied = 0  # events applied so far: the cursor of ``feed``
        self.settled = 0  # ``applied`` at the last settle
        self.handed = ((), 0, False, None)  # ``drive``'s last input: (events, count, end, result)

    # -- scaled values ---------------------------------------------------------

    def scaled(self, t):
        """The scaled value of time ``t``, growing the scale first if ``t``
        is off it.  A time that is not a scalar of the mode breaks the trace."""
        if not is_scalar(t, self.mode):
            self._fail("trace-shape", f"time {t!r} is not a scalar of {self.mode} mode", type=type(t).__name__)
        scale = self.grid.scale
        if scale is None:
            return t
        den = t.denominator
        if scale % den:
            self._rescale(den // gcd(scale, den))
            scale = self.grid.scale
        return t.numerator * (scale // den)

    def external(self, x):
        """The value a scaled ``x`` stands for."""
        return self.grid.value(x)

    def _rescale(self, k):
        """Multiply the scale, and every scaled value with it, by ``k``."""
        self.grid = self.grid.rescaled(k)
        self._clock *= k
        self.potential = [p * k for p in self.potential]
        for rec in self.sets:
            rec.members = {w: p * k for w, p in rec.members.items()}
            rec.y *= k
            rec.growth_end *= k

    # -- plumbing ----------------------------------------------------------

    def _fail(self, prop, detail, **witness):
        raise _Violation(prop, detail, self._dump_witness(witness), self.index)

    def _dump_witness(self, witness):
        return {k: dump_scalar(v, self.mode) if isinstance(v, Fraction) else v for k, v in witness.items()}

    # -- event admission ----------------------------------------------------

    def feed(self, events):
        """Apply the events of the log ``events`` past the ones already
        applied; the log may have grown since the previous call."""
        handlers, known = self._HANDLERS, self._FIELDS
        for i in range(self.applied, len(events)):
            self.index = i
            ev = events[i]
            if not (isinstance(ev, EventRecord) and isinstance(ev.payload, dict)):
                self._fail("trace-shape", "event is not an EventRecord with an object payload", type=type(ev).__name__)
            kind = ev.kind
            handler = handlers.get(kind) if isinstance(kind, str) else None
            if handler is None:
                self._fail("trace-shape", f"unknown event kind {kind!r}", kind=kind)
            if not ev.payload.keys() <= known[kind]:
                extra = sorted(map(str, ev.payload.keys() - known[kind]))
                self._fail("trace-shape", f"{kind} event has unknown fields {extra}", fields=extra)
            if kind != MERGE and self.pending_tight is not None:
                self._fail("trace-shape", "tight event not followed by its merge")
            handler(self, ev)
            self.applied = i + 1

    def drive(self, events, end=False, result=None):
        """Feed ``events``, then settle the last instant or, with ``end``, run
        the endgame and, given the run's ``result``, the cross-check.  Returns
        the first violation's report, or None."""
        self.handed = (events, len(events), end, result)
        try:
            self.feed(events)
            if not end:
                self._settle()
            else:
                self.finish()
                if result is not None:
                    _cross_check(self, result)
        except _Violation as exc:
            return exc.report

    def _move_clock(self, t, scaled):
        """Move the clock to ``t``, whose scaled value is ``scaled``."""
        if scaled < self._clock:
            self._fail("trace-shape", "clock moved backwards", at=t, clock=self.clock)
        if scaled > self._clock:
            self._settle()
            self.clock, self._clock = t, scaled

    def _require_settled(self, t, kind):
        # The time object the clock last moved to is at the clock.
        if t is not self.clock and self.scaled(t) != self._clock:
            self._fail(
                "trace-shape",
                f"{kind} event at {dump_scalar(t, self.mode)} but clock is "
                f"{dump_scalar(self.clock, self.mode)}",
                at=t,
                clock=self.clock,
            )

    def _ev_arrival(self, ev):
        u = ev.payload.get("u")
        n = len(self.inst.requests)
        if type(u) is not int or not 0 <= u < n:
            self._fail("trace-shape", "arrival of unknown request", u=u)
        if u != self.next_arrival:
            self._fail("trace-shape", f"arrival out of order: expected {self.next_arrival}, got {u}", u=u)
        t = self.scaled(ev.t)
        if t != self.grid.atime[u]:
            req = self.inst.requests[u]
            self._fail("trace-shape", f"request {u} arrived at the wrong time", u=u, at=ev.t, atime=req.atime)
        self._move_clock(ev.t, t)
        self.next_arrival += 1
        sid = len(self.sets)
        rec = _RSet(sid, {u: self.zero}, (), self.grid.sgn[u], 1, {u}, self._clock, self.zero)
        self.sets.append(rec)
        self.active[sid] = rec
        self.assign[u] = sid
        self.leaf.append(sid)

    def _ev_grow(self, ev):
        payload, at = ev.payload, ev.t
        sid, start, end = payload.get("set"), payload.get("from"), payload.get("to")
        if type(sid) is not int or not 0 <= sid < len(self.sets):
            self._fail("trace-shape", "growth of unknown set", set=sid)
        rec = self.sets[sid]
        if start is None or end is None:
            self._fail("trace-shape", "growth interval missing an endpoint", set=sid)
        scale, scaled = self.grid.scale, self.scaled
        t = self._clock if at is self.clock else scaled(at)
        a = scaled(start)
        b = t if end is at else scaled(end)
        if self.grid.scale != scale:  # the scale grew under the first ones
            t, a, b = scaled(at), scaled(start), scaled(end)
        if b != t:
            self._fail("trace-shape", "growth interval must end at the event time", set=sid, to=end, at=at)
        if not a < b:
            self._fail("trace-shape", "empty growth interval", set=sid)
        if rec.parent is not None:
            self._fail("trace-shape", f"set {sid} grew after deactivation", set=sid)
        if not rec.free:
            self._fail("trace-shape", f"set {sid} grew with no free request", set=sid)
        if a != rec.growth_end:
            self._fail(
                "trace-shape",
                f"set {sid} growth starts at {dump_scalar(start, self.mode)}, "
                f"expected {dump_scalar(self.external(rec.growth_end), self.mode)}",
                set=sid,
            )
        if t != self._clock:
            self._move_clock(at, t)
        delta = b - a
        rec.y += delta
        rec.growth_end = b
        potential = self.potential
        for u in rec.members:
            potential[u] += delta
        if self.per_event:
            self._sweep_feasibility(f"over budget after growth of set {sid}")

    def _ev_tight(self, ev):
        u, v = ev.payload.get("u"), ev.payload.get("v")
        self._require_settled(ev.t, "tight")
        n = len(self.inst.requests)
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            self._fail("trace-shape", "tight pair out of range", u=u, v=v)
        if self.assign[u] is None or self.assign[v] is None:
            self._fail("trace-shape", "tight pair not fully arrived", u=u, v=v)
        if not self.inst.eligible(u, v):
            self._fail("trace-shape", f"tight pair ({u}, {v}) is not eligible", u=u, v=v)
        if self.assign[u] == self.assign[v]:
            self._fail("trace-shape", f"tight pair ({u}, {v}) lies inside one active set", u=u, v=v)
        # Across two active sets, a pair's value is its two potentials.
        value, cost = self.potential[u] + self.potential[v], self.grid.cost(u, v)
        if not self._at_budget(value, cost):
            value, cost = self.external(value), self.external(cost)
            self._fail(
                "marked-tightness",
                f"pair ({u}, {v}) declared tight at value {dump_scalar(value, self.mode)}, "
                f"budget {dump_scalar(cost, self.mode)}",
                u=u,
                v=v,
                value=value,
                budget=cost,
            )
        self.pending_tight = (min(u, v), max(u, v))

    def _ev_merge(self, ev):
        sid, a, b = ev.payload.get("set"), ev.payload.get("a"), ev.payload.get("b")
        self._require_settled(ev.t, "merge")
        if self.pending_tight is None:
            self._fail("trace-shape", "merge without a preceding tight event")
        if type(sid) is not int or sid != len(self.sets):
            self._fail("trace-shape", f"merge created set {sid}, expected {len(self.sets)}", set=sid)
        if not (type(a) is int and type(b) is int and 0 <= a < len(self.sets) and 0 <= b < len(self.sets)):
            self._fail("trace-shape", "merge of unknown sets", a=a, b=b)
        ra, rb = self.sets[a], self.sets[b]
        if a == b or ra.parent is not None or rb.parent is not None:
            self._fail("trace-shape", f"merge of sets {a} and {b} not currently active", a=a, b=b)
        tu, tv = self.pending_tight
        if {self.assign[tu], self.assign[tv]} != {a, b}:
            self._fail(
                "trace-shape",
                f"merge of sets {a} and {b} does not join the tight pair ({tu}, {tv})",
                a=a,
                b=b,
            )
        # The children are disjoint: the new set's surplus is the parity of
        # its size, or in the bipartite variant its absolute polarity.  It
        # records its members' potentials, which fix the values of the pairs
        # it joins (see ``_rows``).
        potential, pol = self.potential, ra.pol + rb.pol
        members = {w: potential[w] for child in (ra, rb) for w in child.members}
        sur = len(members) % 2 if self.inst.variant == MPMD else abs(pol)
        rec = _RSet(sid, members, (a, b), pol, sur, ra.free | rb.free, self._clock, self.zero)
        self.sets.append(rec)
        ra.parent = rb.parent = sid
        del self.active[a], self.active[b]
        self.active[sid] = rec
        for w in members:
            self.assign[w] = sid
        self.marked.append((tu, tv, sid))
        self.pending_tight = None

    def _ev_match(self, ev):
        u, v = ev.payload.get("u"), ev.payload.get("v")
        self._require_settled(ev.t, "match")
        n = len(self.inst.requests)
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v):
            self._fail("matching-validity", "match pair out of range", u=u, v=v)
        if not self.inst.eligible(u, v):
            self._fail("matching-validity", f"matched pair ({u}, {v}) is not eligible", u=u, v=v)
        # An arrived request is matched once its active set no longer holds it free.
        a, b, sets = self.assign[u], self.assign[v], self.sets
        if (a is not None and u not in sets[a].free) or (b is not None and v not in sets[b].free):
            self._fail("matching-validity", f"request matched twice in pair ({u}, {v})", u=u, v=v)
        if a is None or a != b:
            self._fail(
                "matching-validity",
                f"pair ({u}, {v}) matched across active sets",
                u=u,
                v=v,
            )
        rec = sets[a]
        rec.free.discard(u)
        rec.free.discard(v)
        self.matching.append((min(u, v), max(u, v), self.clock))

    _HANDLERS = {ARRIVAL: _ev_arrival, GROW: _ev_grow, TIGHT: _ev_tight, MERGE: _ev_merge, MATCH: _ev_match}
    _FIELDS = {ARRIVAL: {"u"}, GROW: {"set", "from", "to"}, TIGHT: {"u", "v"}, MERGE: {"set", "a", "b"}, MATCH: {"u", "v"}}

    # -- settled-instant checks ----------------------------------------------

    def _settle(self):
        """Check the settled instant, unless no event was applied since the
        last settle: the state is then the one that passed."""
        if self.settled == self.applied:
            return
        self.settled = self.applied
        self._check_surplus()
        self._check_potential()
        if self.per_event:
            self._sweep_feasibility("exceeds its budget")

    def _check_surplus(self):
        for rec in self.active.values():
            # ``sur`` is ``surplus`` of the set's members, which never change.
            if len(rec.free) != rec.sur:
                self._fail(
                    "surplus",
                    f"set {rec.set_id} has {len(rec.free)} free requests, surplus {rec.sur}",
                    set=rec.set_id,
                    free=sorted(rec.free),
                    surplus=rec.sur,
                )

    def _check_potential(self):
        clock, atime, potential, mode = self._clock, self.grid.atime, self.potential, self.mode
        assign, sets = self.assign, self.sets
        for u, value, arrived in zip(range(self.next_arrival), potential, atime):
            bound = clock - arrived
            if value == bound or (value < bound and u not in sets[assign[u]].free):
                continue
            if not leq(value, bound, mode):
                value, bound = self.external(value), self.external(bound)
                self._fail(
                    "potential",
                    f"request {u} accumulated {dump_scalar(value, mode)}, waited {dump_scalar(bound, mode)}",
                    u=u,
                    value=value,
                    waited=bound,
                )
            if u in sets[assign[u]].free and not eq(value, bound, mode):
                value, bound = self.external(value), self.external(bound)
                self._fail(
                    "potential",
                    f"free request {u} accumulated {dump_scalar(value, mode)}, waited {dump_scalar(bound, mode)}",
                    u=u,
                    value=value,
                    waited=bound,
                )

    def _at_budget(self, x, c):
        """Whether a pair of value ``x`` is tight at its budget ``c``: equal in
        exact mode, within ``tol(c)`` of it in float mode (see ``scalars``)."""
        if self.grid.scale is not None:
            return x == c
        t = tol(c)
        return c - t <= x <= c + t

    def within_budgets(self):
        """The stop sweep: every arrived pair within its budget."""
        return self._first_over_budget() is None

    def stop_sweep(self, report=None):
        """The verdict where the replay stopped: ``report`` when every arrived
        pair is within its budget, else the report (None included) of the
        reference replay over exactly the input ``drive`` was handed."""
        if self.within_budgets():
            return report
        events, count, end, result = self.handed
        return _Replay(self.inst, per_event=True).drive(events[:count], end, result)

    def _sweep_feasibility(self, breach):
        if over := self._first_over_budget():
            u, v, x, c = over
            value, budget = self.external(x), self.external(c)
            self._fail("dual-feasibility", f"pair ({u}, {v}) {breach}", u=u, v=v, value=value, budget=budget)

    def _first_over_budget(self, rows=None):
        """The first (u, v, value, budget) over budget among ``rows``, by
        default the ``_rows`` of the arrived pairs: beyond it in exact mode,
        beyond ``c + tol(c)`` in float mode (see ``scalars``)."""
        exact = self.grid.scale is not None
        for u, v, c, x in self._rows(self.next_arrival) if rows is None else rows:
            if x > c and (exact or x > c + tol(c)):
                return u, v, x, c
        return None

    def _rows(self, n):
        """Yield ``(u, v, budget, value)``, scaled, for the eligible pairs
        u < v among the first ``n`` requests, in ``Grid.pairs`` order.

        A pair across two active sets takes its two potentials; a pair inside
        one, its two entries in the set whose merge joined it: nothing that
        grows after holds one end and not the other.  The row of ``u`` is
        filled by one walk up ``u``'s sets, each merge joining ``u`` to the
        members of the other child.  Only appended records are read, so the
        rows hold wherever the replay stopped."""
        potential, sets, leaf = self.potential, self.sets, self.leaf
        row_of = None
        for u, v, c in self.grid.pairs(n):
            if u != row_of:
                row_of, pu = u, potential[u]
                row = [pu + p for p in potential]
                rec = sets[leaf[u]]
                while rec.parent is not None:
                    up = sets[rec.parent]
                    a, b = up.children
                    held = up.members
                    x = held[u]
                    for w in sets[b if a == rec.set_id else a].members:
                        row[w] = x + held[w]
                    rec = up
            yield u, v, c, row[v]

    # -- endgame ---------------------------------------------------------------

    def finish(self):
        """Settle the last instant, run the endgame checks, and keep the
        run's totals as ``connection``, ``waiting`` and ``dual``."""
        self.index = -1
        if self.pending_tight is not None:
            self._fail("trace-shape", "trace ends on a dangling tight event")
        self._settle()
        n = len(self.inst.requests)
        if self.next_arrival != n:
            self._fail("matching-validity", f"only {self.next_arrival} of {n} requests arrived")
        unmatched = [u for u in range(n) if u in self.sets[self.assign[u]].free]
        if unmatched:
            self._fail("matching-validity", "run ended with unmatched requests", unmatched=unmatched)
        # The waiting cost is summed on the grid, whose arrival times the
        # arrival events matched; the connection cost apart from it, by
        # ``_check_paths``.
        atime, scaled = self.grid.atime, self.scaled
        waiting = self.zero
        for u, v, t in self.matching:
            t = scaled(t)
            waiting += (t - atime[u]) + (t - atime[v])
        dual = self.zero
        for rec in self.sets:
            dual += rec.sur * rec.y
        self.waiting, self.dual = self.external(waiting), self.external(dual)
        self._check_waiting_equals_dual()
        self._check_paths()
        self._check_total_bound()

    def _check_waiting_equals_dual(self):
        waiting, dual = self.waiting, self.dual
        if not eq(waiting, dual, self.mode):
            self._fail(
                "waiting-equals-dual",
                f"waiting cost {dump_scalar(waiting, self.mode)} differs from dual objective "
                f"{dump_scalar(dual, self.mode)}",
                waiting=waiting,
                dual=dual,
            )

    def _check_paths(self):
        """Route each matched pair through the marked forest and check its
        bounds, summing the pairs' distances, in match order, as the
        replay's ``connection`` cost."""
        inst, marked, sets = self.inst, self.marked, self.sets
        dual, route = self.dual, self.router()
        twice, connection = 2 * dual, self.external(self.zero)
        for u, v, _ in self.matching:
            check = marked_path(inst, marked, sets, (u, v), route)
            if check is None:
                self._fail("path-bound", f"no marked path joins matched pair ({u}, {v})", u=u, v=v)
            connection += check.distance
            if not leq(check.distance, check.path_length, self.mode):
                self._fail(
                    "path-bound",
                    f"pair ({u}, {v}): distance exceeds its marked path",
                    u=u,
                    v=v,
                    distance=check.distance,
                    path_length=check.path_length,
                )
            if check.max_crossings > 2:
                self._fail(
                    "path-bound",
                    f"pair ({u}, {v}): marked path crosses one set {check.max_crossings} times",
                    u=u,
                    v=v,
                )
            if not leq(check.distance, twice, self.mode):
                self._fail(
                    "path-bound",
                    f"pair ({u}, {v}): distance exceeds twice the dual objective",
                    u=u,
                    v=v,
                    distance=check.distance,
                    dual=dual,
                )
        self.connection = connection

    def _check_total_bound(self):
        total = self.connection + self.waiting
        bound = (GUARANTEE_SLOPE * self.inst.m + 1) * self.dual
        if not leq(total, bound, self.mode):
            self._fail(
                "total-bound",
                f"total cost {dump_scalar(total, self.mode)} exceeds the guarantee "
                f"{dump_scalar(bound, self.mode)}",
                total=total,
                bound=bound,
            )

    def router(self):
        """Root the marked forest once and return ``route(u, v)`` for
        ``marked_path``: the marked path from ``u`` to ``v`` and its maximum
        crossings of any set, or None when no marked path joins them.

        The path is the two parent chains up to their meeting point.  An edge
        marked by the merge that created set C joins a member of each of C's
        two children, so the sets it leaves are those on the two merge-tree
        chains from its ends' singletons up to C, exclusive.  Counting them
        for every path edge gives every set's crossings."""
        n = len(self.inst.requests)
        adj = [[] for _ in range(n)]
        for x, w, c in self.marked:
            adj[x].append((w, c))
            adj[w].append((x, c))
        # up[x] is x's parent in the rooted forest, joined by an edge that the
        # merge creating set up_set[x] marked; depth[x] is its distance to the root.
        up, up_set, depth = [None] * n, [None] * n, [None] * n
        for root in range(n):
            if depth[root] is not None:
                continue
            depth[root] = 0
            queue = [root]
            for x in queue:
                for w, c in adj[x]:
                    if depth[w] is None:
                        up[w], up_set[w], depth[w] = x, c, depth[x] + 1
                        queue.append(w)
        parent = [rec.parent for rec in self.sets]
        leaf = self.leaf

        def route(u, v):
            left, right = [u], [v]
            a, b = u, v
            while depth[a] > depth[b]:
                a = up[a]
                left.append(a)
            while depth[b] > depth[a]:
                b = up[b]
                right.append(b)
            while a != b:
                if up[a] is None:
                    return None
                a, b = up[a], up[b]
                left.append(a)
                right.append(b)
            exits = []  # every set a path edge leaves, once per edge that leaves it
            for chain in (left, right):
                for x in chain[:-1]:
                    top = up_set[x]
                    for end in (x, up[x]):
                        s = leaf[end]
                        while s != top:
                            exits.append(s)
                            s = parent[s]
            return left + right[-2::-1], max(Counter(exits).values(), default=0)

        return route

    def sweep(self):
        """The one sweep of a clean ending: each eligible pair's scaled slack,
        ``((u, v, slack), ...)`` sorted by pair, and whether a pair is over
        budget.  ``_first_over_budget`` reads the rows as they are kept, and
        the rows past the first pair over budget are kept after it."""
        rows, slacks = self._rows(len(self.inst.requests)), []
        keep = slacks.append

        def kept():
            for u, v, c, x in rows:
                keep((u, v, c - x))
                yield u, v, c, x

        over = self._first_over_budget(kept()) is not None
        slacks += [(u, v, c - x) for u, v, c, x in rows]
        return tuple(slacks), over


def marked_path(inst, marked, sets, pair, route=None):
    """Route ``pair`` through the marked forest; None when disconnected.

    With ``route``, a replay's ``router()``, the path and its crossings come
    from the merge tree: this is how the certifier routes each matched pair.
    Without it the forest is searched whole and the path's crossings are
    counted against every set in ``sets``, active or not (engine SetRecords
    or replay records; only ``members`` is read): the reference route, which
    ``marked_path_check`` uses.
    """
    u, v = pair
    found = _search(marked, sets, u, v) if route is None else route(u, v)
    if found is None:
        return None
    path, max_cross = found
    grid = inst.grid
    length = 0
    for x, w in zip(path, path[1:]):
        length += grid.cost(x, w)
    distance = inst.metric.distance(inst.requests[u].pos, inst.requests[v].pos)
    return PathCheck(
        pair=(u, v),
        path=tuple(path),
        path_length=grid.value(length),
        distance=distance,
        max_crossings=max_cross,
    )


def _search(marked, sets, u, v):
    """(path, max crossings) of the marked path from ``u`` to ``v`` found by a
    search of the whole forest, or None when there is none."""
    adj = {}
    for a, b, _ in marked:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    prev = {u: None}
    queue = [u]
    while queue:
        nxt = []
        for x in queue:
            for w in adj.get(x, ()):
                if w not in prev:
                    prev[w] = x
                    nxt.append(w)
        queue = nxt
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    path.reverse()
    max_cross = 0
    for rec in sets:
        members = rec.members
        cross = sum(1 for x, w in zip(path, path[1:]) if (x in members) != (w in members))
        max_cross = max(max_cross, cross)
    return path, max_cross


def marked_path_check(inst: Instance, result: RunResult, pair) -> PathCheck:
    """Public path probe for one matched pair of a finished run."""
    u, v = pair
    check = marked_path(inst, result.marked_edges, result.all_sets, (min(u, v), max(u, v)))
    if check is None:
        raise ValueError(f"no marked path joins ({u}, {v})")
    return check


def _certify(inst: Instance, events, result=None):
    replay = _Replay(inst)
    report = replay.drive(events, True, result)
    if report is not None:  # the stop-sweep verdict stands
        return replay.stop_sweep(report)
    slacks, over = replay.sweep()
    if over and (report := replay.stop_sweep()) is not None:
        return report
    return DualCertificate(
        mode=inst.mode,
        m=inst.m,
        connection_cost=replay.connection,
        waiting_cost=replay.waiting,
        total_cost=replay.connection + replay.waiting,
        dual_objective=replay.dual,
        num_events=len(events),
        num_sets=len(replay.sets),
        num_marked_edges=len(replay.marked),
        slacks=slacks,
        scale=replay.grid.scale,
    )


def certify_events(inst: Instance, events) -> DualCertificate | ViolationReport:
    """Replay a raw event sequence (e.g. a parsed trace file) and certify it."""
    return _certify(inst, list(events))


def certify(inst: Instance, result: RunResult) -> DualCertificate | ViolationReport:
    """Certify a finished run, cross-checking its reported totals."""
    return _certify(inst, result.event_log, result)


def _cross_check(replay: _Replay, result: RunResult):
    """The run's reported aggregates must equal the replayed ones.  Runs
    after ``replay.finish()``, so a breach carries event index -1."""
    checks = [
        ("connection_cost", replay.connection, result.connection_cost),
        ("waiting_cost", replay.waiting, result.waiting_cost),
        ("dual_objective", replay.dual, result.dual_objective),
        ("total_cost", replay.connection + replay.waiting, result.total_cost),
    ]
    fail, mode = replay._fail, replay.mode
    for name, derived, reported in checks:
        if not eq(derived, reported, mode):
            fail(
                "summary-consistency",
                f"reported {name} {dump_scalar(reported, mode)} differs from replayed {dump_scalar(derived, mode)}",
                field=name,
                reported=reported,
                derived=derived,
            )
    if tuple(replay.matching) != tuple(result.matching):
        fail(
            "summary-consistency",
            "reported matching differs from the replayed one",
            reported=[[u, v] for u, v, _ in result.matching],
        )
    if [(u, v) for u, v, _ in replay.marked] != [(u, v) for u, v, _ in result.marked_edges]:
        fail(
            "summary-consistency",
            "reported marked edges differ from the replayed ones",
            reported=[[u, v] for u, v, _ in result.marked_edges],
        )
    if len(replay.sets) != result.num_sets:
        fail(
            "summary-consistency",
            f"reported {result.num_sets} sets, replay created {len(replay.sets)}",
            reported=result.num_sets,
            derived=len(replay.sets),
        )


@dataclass(frozen=True)
class RatioReport:
    """Cost ratios of one run against its dual bound and, optionally, the
    offline optimum.  Ratios are None when the denominator is zero."""

    mode: str
    m: int
    total_cost: Scalar
    dual_objective: Scalar
    opt_value: Scalar  # None when no offline optimum was supplied
    ratio_vs_dual: Scalar
    ratio_vs_opt: Scalar
    bound_factor: int  # 2m + 1
    within_bound: bool

    def to_json(self) -> dict:
        mode = self.mode

        def dump(x):
            return None if x is None else dump_scalar(x, mode)

        return {
            "m": self.m,
            "total_cost": dump(self.total_cost),
            "dual_objective": dump(self.dual_objective),
            "opt_value": dump(self.opt_value),
            "ratio_vs_dual": dump(self.ratio_vs_dual),
            "ratio_vs_opt": dump(self.ratio_vs_opt),
            "bound_factor": self.bound_factor,
            "within_bound": self.within_bound,
        }


def ratio_report(inst: Instance, result: RunResult, opt_value=None) -> RatioReport:
    """Compare a run's total cost against its dual objective and an optional
    offline optimum.  ``within_bound`` tests total <= (2m + 1) * reference,
    preferring the optimum when given (the dual never exceeds it)."""
    total = result.total_cost
    dual = result.dual_objective
    factor = GUARANTEE_SLOPE * inst.m + 1
    ratio_dual = None if not dual else total / dual
    ratio_opt = None if (opt_value is None or not opt_value) else total / opt_value
    reference = opt_value if opt_value is not None else dual
    within = leq(total, factor * reference, inst.mode)
    return RatioReport(
        mode=inst.mode,
        m=inst.m,
        total_cost=total,
        dual_objective=dual,
        opt_value=opt_value,
        ratio_vs_dual=ratio_dual,
        ratio_vs_opt=ratio_opt,
        bound_factor=factor,
        within_bound=within,
    )
