"""Event-driven dual-growth matching engine.

The engine partitions arrived requests into active sets and grows one dual
variable per active set that still contains free (unmatched) requests, at
unit rate.  When the accumulated values on some eligible cross-set pair reach
the pair's budget (distance plus arrival gap), the two sets merge, the
triggering edge is marked, and free requests inside the merged set are
matched greedily.

Exact mode keeps the clock, the request potentials and the pair budgets as
Python ints over one shared scale ``S``: an int ``x`` stands for ``x / S``.
``S`` starts as the lcm of the denominators of the arrival times and of the
distances, read as the instance holds them (ints and Fractions), and grows by
a factor ``k`` (every stored int with it) when a time off the grid appears: a
tight time half a step off, or an off-grid ``advance_to``.  Fractions are
built only where values leave the engine: event times, ``SetRecord`` fields,
``RunResult``, and the times taken and returned by ``next_event``,
``advance_to`` and ``constraint_value``.  Every comparison is exact.  Float
mode runs the same code on binary64 values; its tightness test follows the
relative tolerance rule of ``scalars``.

A run is single-threaded and deterministic: ``step`` admits every arrival of
an instant in index order, then scans once for tight pairs, which merge in
lexicographic order.  The scans visit only the *candidates* of each pair of
active sets {A, B}: the eligible pairs between them whose slack is within a
band of the least slack between them.  Every member of a set gains the same
dual value, so the pairs of {A, B} lose slack at one rate and keep their
order; the first of them to go tight merges A and B, and the others then
never cross again.  The band is 0 in exact mode, which keeps ties, and twice
a pair's tightness tolerance in float mode, where rounding may reorder pairs
that close.  Candidates are grouped by set when a request arrives; a merge of
A and B into C folds {A, X} and {B, X} into {C, X}, which keeps the band of
their union, and drops {A, B}.  The event log is the one record of each set's
growth intervals; ``SetRecord`` keeps only their sum ``y``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .instance import Instance, require_finite_budgets, surplus
from .scalars import EPS_TIGHT, EXACT, Scalar, dump_scalar, eq, parse_scalar

GROWING = "active-growing"
NONGROWING = "active-nongrowing"
INACTIVE = "inactive"

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


def _band(cands: list, pot: list, eps) -> list:
    """The ``(u, v, budget)`` triples of ``cands`` whose slack under the
    potentials ``pot`` is at most the least slack plus twice their own float
    tolerance; ``eps`` is ``EPS_TIGHT``, or 0 in exact mode."""
    slacks = [c - pot[u] - pot[v] for u, v, c in cands]
    least = min(slacks)
    if slacks.count(least) == len(slacks):  # all tied: nothing to trim
        return cands
    return [p for p, s in zip(cands, slacks) if s <= least + 2 * (eps * p[2] if p[2] > 1.0 else eps)]


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
    """One ever-active set: members, surplus, accumulated dual value, links.

    Mutated only by the engine that owns it; treat as read-only afterwards.
    """

    set_id: int
    members: frozenset
    sur: int
    y: Scalar
    free: set
    parent: int = None  # set_id this one merged into

    @property
    def status(self) -> str:
        return INACTIVE if self.parent is not None else GROWING if self.free else NONGROWING


@dataclass(frozen=True)
class RunResult:
    """Everything a run produced; immutable and safe to hand across threads."""

    variant: str
    mode: str
    m: int
    matching: tuple  # ((u, v, match_time), ...) in match order, u < v
    all_sets: tuple  # SetRecord log, index == set_id
    event_log: tuple
    marked_edges: tuple  # ((u, v, mark_time), ...)
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


# json.dumps's own bytes, but strict: a NaN or infinite time raises ValueError.
_encode = json.JSONEncoder(allow_nan=False).encode


def event_to_json(ev: EventRecord, mode: str) -> str:
    payload = {
        k: (dump_scalar(v, mode) if k in ("from", "to") else v)
        for k, v in ev.payload.items()
    }
    return _encode({"t": dump_scalar(ev.t, mode), "kind": ev.kind, "payload": payload})


def events_to_jsonl(result: RunResult) -> str:
    return "".join(event_to_json(ev, result.mode) + "\n" for ev in result.event_log)


def events_from_jsonl(text: str, mode: str):
    """Parse a trace back into EventRecords (for post-hoc verification)."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            raw, kind = doc["payload"], doc["kind"]
            if not isinstance(raw, dict):
                raise ValueError(f"payload must be an object, got {type(raw).__name__}")
            if not isinstance(kind, str):
                raise ValueError(f"kind must be a string, got {type(kind).__name__}")
            payload = {k: (parse_scalar(v, mode) if k in ("from", "to") else v) for k, v in raw.items()}
            events.append(EventRecord(t=parse_scalar(doc["t"], mode), kind=kind, payload=payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    return events


class GreedyDualEngine:
    """Stepwise simulator; ``run`` drives it to completion.

    With ``self_check=True`` every step feeds its events to the certifier's
    replay, which checks the instant the step closed, and the engine's own
    caches are compared with the replayed state; dual feasibility is swept
    when the run ends or any check raises, the engine's own guards included.
    The first breach raises EngineInvariantError("<property>: <detail>").
    """

    def __init__(self, inst: Instance, self_check: bool = False):
        self.inst = inst
        self.mode = inst.mode
        self.self_check = self_check
        reqs = inst.requests
        n = len(reqs)
        self._exact = self.mode == EXACT
        self._eps = 0 if self._exact else EPS_TIGHT  # the band's tolerance factor
        # Distances over distinct positions only: requests often share them.
        ids = {}
        self._pid = [ids.setdefault(r.pos, len(ids)) for r in reqs]
        points = list(ids)
        dist = [[None] * len(points) for _ in points]
        for i, p in enumerate(points):
            for j in range(i, len(points)):
                dist[i][j] = dist[j][i] = inst.metric.distance(p, points[j])
        atimes = [r.atime for r in reqs]
        require_finite_budgets(self.mode, dist, atimes)
        if self._exact:
            self._zero = Fraction(0)
            self._scale = scale = lcm(*(t.denominator for t in atimes), *(d.denominator for row in dist for d in row))
            self._dist = [[d.numerator * (scale // d.denominator) for d in row] for row in dist]
            self._atime = [t.numerator * (scale // t.denominator) for t in atimes]
            self._clock = 0  # self.clock in units of 1 / scale
            self.potential = [0] * n  # accumulated dual value over sets containing u, scaled
        else:
            self._zero = 0.0
            self._dist = dist
            self._atime = atimes
            self._clock = 0.0
            self.potential = [0.0] * n
        self._sgn = [r.sgn for r in reqs]
        self.clock = self._zero
        self.next_arrival = 0
        self.assign = [None] * n  # request index -> active set_id
        self._grows = [0] * n  # 1 while the active set of u is growing
        self.sets: list[SetRecord] = []
        self.growing: set[int] = set()  # ids of the active sets with a free request
        self.marked = []  # (u, v, mark_time)
        self.matching = []  # (u, v, match_time)
        self.matched = [False] * n
        self.events: list[EventRecord] = []
        # The candidates (u, v, scaled budget), u < v, of each pair of active
        # sets a < b with an eligible pair between them.
        self._buckets: dict[tuple, list] = {}
        self._near: dict[int, set] = {}  # active set -> the sets it shares a bucket with
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
        if not all(self.matched):
            raise EngineInvariantError(
                "stuck-state: free requests remain but no growth can trigger a merge"
            )
        return None

    def _least_tight_key(self):
        """Least ``2 * slack / r`` over candidates with r >= 1 growing
        endpoints: twice the time until the first one goes tight."""
        pot, grows, two_over = self.potential, self._grows, _TWO_OVER
        best = None
        for cands in self._buckets.values():
            u, v, _ = cands[0]
            r = grows[u] + grows[v]  # the same for every pair of the bucket
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
        delta, delta_in = t - self.clock, t_in - self._clock
        pot = self.potential
        for sid in sorted(self.growing):
            rec = self.sets[sid]
            rec.y += delta
            for u in rec.members:
                pot[u] += delta_in
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
        self._grows[u] = 1
        sgn = self._sgn
        self._polarity[sid] = counts = [0, 0, 0]
        counts[sgn[u]] = 1
        # Every earlier request sits in another active set: all pairs cross.
        # One pass groups them by set, keeping the pairs within the band of
        # the least slack so far; the band of the final least trims the rest.
        row, pid, atime, assign = self._dist[self._pid[u]], self._pid, self._atime, self.assign
        pot, eps, au, partner = self.potential, self._eps, atime[u], -sgn[u]
        found = [None] * sid  # set -> [least slack, (v, u, budget), ...]
        near = self._near
        near[sid] = sets = set()
        for v in range(u):
            if sgn[v] == partner:
                c = row[pid[v]] + (au - atime[v])
                s = c - pot[v]  # u's potential is 0
                x = assign[v]
                e = found[x]
                if e is None:
                    found[x] = [s, (v, u, c)]
                    sets.add(x)
                elif s <= e[0]:
                    e[0] = s
                    e.append((v, u, c))
                elif eps and s <= e[0] + 2 * (eps * c if c > 1.0 else eps):
                    e.append((v, u, c))
        buckets = self._buckets
        for x in sets:
            near[x].add(sid)
            e = found[x]
            buckets[x, sid] = [e[1]] if len(e) == 2 else _band(e[1:], pot, eps)
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
        # The scalars tolerance rule, with the budget as the magnitude.
        return [
            (u, v)
            for cands in buckets
            for u, v, cost in cands
            if pot[u] + pot[v] >= cost - (EPS_TIGHT * cost if cost > 1.0 else EPS_TIGHT)
        ]

    def _merge(self, u: int, v: int) -> None:
        a = self.sets[self.assign[u]]
        b = self.sets[self.assign[v]]
        if a.set_id > b.set_id:
            a, b = b, a
        self._log(self.clock, TIGHT, {"u": u, "v": v})

        sid = len(self.sets)
        members = a.members | b.members
        rec = SetRecord(
            set_id=sid, members=members, sur=surplus(self.inst, members), y=self._zero, free=a.free | b.free
        )
        for child in (a, b):
            child.parent = sid
            self.growing.discard(child.set_id)
        self.sets.append(rec)
        self._fold(a.set_id, b.set_id, sid)
        self.marked.append((min(u, v), max(u, v), self.clock))
        self._log(self.clock, MERGE, {"set": sid, "a": a.set_id, "b": b.set_id})

        self._match_free(rec)
        grows = int(bool(rec.free))
        if grows:
            self.growing.add(sid)
        for w in members:
            self.assign[w] = sid
            self._grows[w] = grows

    def _fold(self, a: int, b: int, c: int) -> None:
        """Give the new set ``c`` the buckets of its children ``a`` and ``b``:
        {a, x} and {b, x} become {c, x}, the band of their union, and {a, b}
        goes."""
        buckets, near, polarity = self._buckets, self._near, self._polarity
        pa, pb = polarity.pop(a), polarity.pop(b)
        polarity[c] = [pa[0] + pb[0], pa[1] + pb[1], pa[2] + pb[2]]
        near_a, near_b = near.pop(a), near.pop(b)
        if b in near_a:
            near_a.discard(b)
            near_b.discard(a)
            del buckets[a, b]
        union = {}  # x -> the candidates of {a, x} and {b, x}
        for child, xs in ((a, near_a), (b, near_b)):
            for x in xs:
                near_x = near[x]
                near_x.discard(child)
                near_x.add(c)
                cands = buckets.pop((x, child) if x < child else (child, x))
                union[x] = union[x] + cands if x in union else cands
        near[c] = near_a | near_b
        pot, eps = self.potential, self._eps
        for x, cands in union.items():
            buckets[x, c] = cands if len(cands) == 1 else _band(cands, pot, eps)

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
            self.matched[x] = self.matched[partner] = True
            pair = (min(x, partner), max(x, partner))
            self.matching.append((pair[0], pair[1], self.clock))
            self._log(self.clock, MATCH, {"u": pair[0], "v": pair[1]})

    def constraint_value(self, u: int, v: int) -> Scalar:
        """Accumulated dual value charged against the (u, v) budget: the sum
        of the endpoint potentials while the pair crosses active sets, frozen
        at the merge that first put both endpoints in one active set.

        The frozen value is derived: the y of the set that joined u and v,
        and of every set it merged into, has since been added to both
        potentials."""
        n = len(self.inst.requests)
        if not (0 <= u < n and 0 <= v < n) or u == v or not self.inst.eligible(u, v):
            raise ValueError(f"pair ({u}, {v}) is not eligible")
        value = self._external(self.potential[u] + self.potential[v])
        if self.assign[u] is not None and self.assign[u] == self.assign[v]:
            joined = next(rec for rec in self.sets if u in rec.members and v in rec.members)
            value -= 2 * self._chain_y(joined.set_id)
        return value

    def _chain_y(self, sid: int) -> Scalar:
        """Sum of y over set ``sid`` and every set it merged into."""
        total = self._zero
        while sid is not None:
            rec = self.sets[sid]
            total += rec.y
            sid = rec.parent
        return total

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
        if any(not m for m in self.matched):
            raise EngineInvariantError("run ended with unmatched requests")
        zero = self._zero
        connection = zero
        waiting = zero
        for u, v, t in self.matching:
            connection += inst.metric.distance(inst.requests[u].pos, inst.requests[v].pos)
            waiting += (t - inst.requests[u].atime) + (t - inst.requests[v].atime)
        dual = zero
        for rec in self.sets:
            dual += rec.sur * rec.y
        result = RunResult(
            variant=inst.variant,
            mode=self.mode,
            m=inst.m,
            matching=tuple(self.matching),
            all_sets=tuple(self.sets),
            event_log=tuple(self.events),
            marked_edges=tuple(self.marked),
            connection_cost=connection,
            waiting_cost=waiting,
            total_cost=connection + waiting,
            dual_objective=dual,
        )
        if self.self_check:
            self._self_check(result)
        return result

    def _log(self, t, kind, payload) -> None:
        self.events.append(EventRecord(t=t, kind=kind, payload=payload))

    # -- self-check (debug mode) --------------------------------------------

    def _self_check(self, result: RunResult = None) -> None:
        """Feed the event log to the certifier's replay, which applies the
        events it has not seen, and settle the instant the step closed, or,
        given the finished ``result``, run the replay's endgame and summary
        checks.  Then compare the engine caches a replay cannot see.  The
        first breach raises EngineInvariantError; ``_breach`` sweeps dual
        feasibility."""
        from .certify import _drive

        replay = self._replay
        self._fed, self._ended = len(self.events), result  # for the reference replay in ``_breach``
        if report := _drive(replay, self.events, result is not None, result):
            raise EngineInvariantError(f"{report.prop}: {report.detail}")
        arrived, assign, buckets = self.next_arrival, replay.assign, self._buckets
        for u in range(arrived):
            cached, replayed = self._external(self.potential[u]), replay.external(replay.potential[u])
            if not eq(cached, replayed, self.mode):
                raise EngineInvariantError(f"potential: request {u}: cached {cached}, replayed {replayed}")
            if self._grows[u] != bool(replay.sets[assign[u]].free):
                raise EngineInvariantError(f"growth-flag: request {u}: cached flag disagrees with set {assign[u]}")
        # There must be one bucket per pair of replayed active sets with an
        # eligible pair of arrived requests between them, each listed among
        # both sets' neighbours, and as many such pairs as ``live_pairs``
        # counts.
        members = {}  # replayed set -> its arrived members
        for u in range(arrived):
            members.setdefault(assign[u], []).append(u)
        cost, sets = replay.cost, sorted(members)
        cross = {}  # (a, b) -> the eligible pairs (u, v, replayed budget) between sets a < b
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                keys = ((x, y) if x < y else (y, x) for x in members[a] for y in members[b])
                if pairs := [(*k, cost[k]) for k in keys if k in cost]:
                    cross[a, b] = pairs
        near = {(a, x) if a < x else (x, a) for a, xs in self._near.items() for x in xs}
        not_cross = "live-pairs: live pairs are not the eligible cross-set pairs"
        if (
            buckets.keys() != cross.keys()
            or self._near.keys() != members.keys()
            or near != cross.keys()
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
                band = {(u, v) for u, v, _ in _band(cross[key], replay.potential, self._eps)}
            if banded[key] != band:
                raise EngineInvariantError(f"live-pairs: sets {key}: candidates are not the least-slack band")
        self._banded, self._banded_sets = banded, len(replay.sets)

    def _breach(self):
        """Under self-check, the stop sweep, made when the run ends or any
        check raises: if it fails, the error to raise in place of any other,
        the report of a reference replay rerun over the replay's input."""
        if not self.self_check or self._replay.within_budgets():
            return None
        from .certify import _drive, _Replay

        report = _drive(_Replay(self.inst, per_event=True), self.events[: self._fed], self._ended is not None, self._ended)
        return None if report is None else EngineInvariantError(f"{report.prop}: {report.detail}")


def run(inst: Instance, self_check: bool = False) -> RunResult:
    """Run the matching engine on ``inst`` to completion."""
    return GreedyDualEngine(inst, self_check=self_check).run()
