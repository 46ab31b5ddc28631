"""Mutation tests for ``self_check=True``: each engine subclass below injects
one bug class, and the per-step check must raise EngineInvariantError for it
on every instance of a small mixed corpus.  Errors the engine raises on its
own when its state has already gone wrong (a stall, a stuck state, a clock
moving backwards) do not count as a catch."""

import pytest

from delaymatch.certify import _Replay, certify
from delaymatch.engine import GROW, MATCH, MERGE, TIGHT, EngineInvariantError, GreedyDualEngine
from delaymatch.generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD

ENGINE_FAULTS = ("stalled:", "stuck-state:", "clock would move backwards", "run ended with unmatched")


def _corpus():
    out = [gen_tightness_instance(4), gen_tightness_instance(6, variant=MBPMD), gen_ring_instance(8)]
    for kind in ("line", "ring", "matrix", "euclidean"):
        for seed, variant in enumerate((MPMD, MBPMD)):
            out.append(gen_random_instance(seed=seed, m=3 + seed, variant=variant, metric_kind=kind))
    out.append(gen_random_instance(seed=11, m=10, metric_kind="line"))
    out.append(gen_random_instance(seed=3, m=6, metric_kind="euclidean"))
    return out


CORPUS = _corpus()


class InflatedPotential(GreedyDualEngine):
    """Credits request 0 with twice the growth of its set."""

    def advance_to(self, t):
        before = self.potential[0]
        super().advance_to(t)
        self.potential[0] += self.potential[0] - before


class BudgetWithoutGap(GreedyDualEngine):
    """Budgets a newly arrived request's candidates by distance alone."""

    def _admit(self, u):
        super()._admit(u)
        dist, pid = self._grid.dist, self._grid.pid
        for key, cands in self._buckets.items():
            self._buckets[key] = [(a, b, dist[pid[a]][pid[b]] if b == u else c) for a, b, c in cands]


class WrongGrowthFlag(GreedyDualEngine):
    """Flips whether a merged set is growing."""

    def _merge(self, u, v):
        super()._merge(u, v)
        self.growing ^= {self.sets[-1].set_id}


class _MisLogging(GreedyDualEngine):
    """Rewrites (or drops, on None) the first logged event of ``kind``."""

    kind = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._done = False

    def _log(self, t, kind, payload):
        if kind == self.kind and not self._done:
            self._done = True
            payload = self.rewrite(payload)
            if payload is None:
                return
        super()._log(t, kind, payload)


class DroppedGrow(_MisLogging):
    kind = GROW

    def rewrite(self, payload):
        return None


class GrowUnderWrongSet(_MisLogging):
    kind = GROW

    def rewrite(self, payload):
        return {**payload, "set": payload["set"] + 1}


class UnloggedMerge(_MisLogging):
    kind = MERGE

    def rewrite(self, payload):
        return None


class MislabeledMatch(_MisLogging):
    """Logs the first match with another request in place of ``v``."""

    kind = MATCH

    def rewrite(self, payload):
        u, v = payload["u"], payload["v"]
        return {"u": u, "v": next(w for w in range(len(self.inst.requests)) if w not in (u, v))}


BUGS = (
    InflatedPotential,
    BudgetWithoutGap,
    WrongGrowthFlag,
    DroppedGrow,
    GrowUnderWrongSet,
    UnloggedMerge,
    MislabeledMatch,
)


class _BucketsFault(GreedyDualEngine):
    """Rewrites the buckets once, after the first tight scan where
    ``rewrite`` returns a new map (None leaves the map as it is)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._done = False

    def process_tight(self):
        before = {key: list(cands) for key, cands in self._buckets.items()}
        super().process_tight()
        if not self._done:
            buckets = self.rewrite(before, self._buckets)
            if buckets is not None:
                self._done = True
                self._buckets = buckets


class DroppedLivePair(_BucketsFault):
    """Drops the first bucket."""

    def rewrite(self, before, buckets):
        return dict(list(buckets.items())[1:]) if buckets else None


class DuplicatedLivePair(_BucketsFault):
    """Lists the first candidate of the first bucket twice."""

    def rewrite(self, before, buckets):
        if not buckets:
            return None
        key, cands = next(iter(buckets.items()))
        return {**buckets, key: cands + cands[:1]}


class InternalLivePair(_BucketsFault):
    """Keeps the first candidate a merge made internal, in its old bucket."""

    def rewrite(self, before, buckets):
        assign = self.assign
        internal = [(key, p) for key, cands in before.items() for p in cands if assign[p[0]] == assign[p[1]]]
        if not internal:
            return None
        key, p = internal[0]
        return {**buckets, key: [p]}


class UnarrivedLivePair(_BucketsFault):
    """Lists a pair of the last request before it arrives, at its budget, in
    the first bucket."""

    def rewrite(self, before, buckets):
        w = len(self.inst.requests) - 1
        partners = [u for u in range(self.next_arrival) if self.inst.eligible(u, w)]
        if not buckets or w < self.next_arrival or not partners:
            return None
        u = partners[0]
        budget = self._grid.cost(u, w)
        key, cands = next(iter(buckets.items()))
        return {**buckets, key: cands + [(u, w, budget)]}


LIVE_PAIR_BUGS = (DroppedLivePair, DuplicatedLivePair, InternalLivePair, UnarrivedLivePair)


class OvershotTight(GreedyDualEngine):
    """Once, returns from ``next_event`` a tight time a quarter of the gap
    past the predicted one, when no arrival comes first."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._done = False

    def next_event(self):
        ev = super().next_event()
        if ev is None or ev[1] != TIGHT or self._done:
            return ev
        late = ev[0] + (ev[0] - self.clock) / 4
        if self.next_arrival < len(self.inst.requests) and self.inst.requests[self.next_arrival].atime <= late:
            return ev
        self._done = True
        return late, TIGHT


class HiddenPair(GreedyDualEngine):
    """Keeps the first candidate out of the event search and the tight scan,
    so the engine lets it pass its budget.  A bucket it leaves empty loses
    its due time too."""

    hidden = None

    def _without_hidden(self, scan):
        buckets, due = self._buckets, self._due
        if self.hidden is None and buckets:
            self.hidden = next(iter(buckets.values()))[0]
        kept, kept_due = dict(buckets), dict(due)
        for key, cands in kept.items():
            if self.hidden in cands:
                rest = [p for p in cands if p != self.hidden]
                if rest:
                    buckets[key] = rest
                else:
                    del buckets[key]
                    due.pop(key, None)
        try:
            return scan()
        finally:
            buckets.clear()
            buckets.update(kept)
            due.clear()
            due.update(kept_due)

    def _least_tight_key(self):
        return self._without_hidden(super()._least_tight_key)

    def _tight_pairs(self):
        return self._without_hidden(super()._tight_pairs)


class LateDueTime(GreedyDualEngine):
    """Once, after a tight scan, records the first bucket's due time one
    scaled unit late."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._done = False

    def process_tight(self):
        super().process_tight()
        if self._due and not self._done:
            self._done = True
            self._due[next(iter(self._due))] += 1


class DroppedDueTime(GreedyDualEngine):
    """Forgets the due time of the bucket the second arrival makes."""

    def _admit(self, u):
        super()._admit(u)
        if u == 1:
            del self._due[0, 1]


class FoldKeepsLoser(GreedyDualEngine):
    """Folds {a, x} and {b, x} into {c, x} by keeping the candidates of both
    whole, not the band of their union."""

    fired = False

    def _fold(self, a, b, c):
        before = dict(self._buckets)
        super()._fold(a, b, c)
        for x, y in list(self._buckets):
            if y == c:
                whole = before.get((min(a, x), max(a, x)), []) + before.get((min(b, x), max(b, x)), [])
                if len(whole) > len(self._buckets[x, y]):
                    self.fired = True
                    self._buckets[x, y] = whole


class FoldKeepsLargerHead(GreedyDualEngine):
    """Folds exact {a, x} and {b, x} into {c, x} by keeping the child whose
    head has the larger slack, where the two heads differ."""

    fired = False

    def _fold(self, a, b, c):
        before, pot = dict(self._buckets), self.potential
        super()._fold(a, b, c)
        if not self._exact:
            return
        for x in self._polarity:
            ca, cb = before.get((min(a, x), max(a, x))), before.get((min(b, x), max(b, x)))
            if ca and cb:
                sa, sb = (cost - pot[u] - pot[v] for u, v, cost in (ca[0], cb[0]))
                if sa != sb:
                    self.fired = True
                    self._buckets[x, c] = ca if sa > sb else cb


class OldBucketLosesACandidate(GreedyDualEngine):
    """Once, after a tight scan, drops the last candidate of the first bucket
    with two or more whose sets both predate the last self-check."""

    spoilt = None  # the key of the bucket it spoilt

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._checked = 0  # how many sets there were at the last self-check

    def _self_check(self, result=None):
        super()._self_check(result)
        self._checked = len(self.sets)

    def process_tight(self):
        super().process_tight()
        if self.spoilt is None:
            for key, cands in self._buckets.items():
                if key[1] < self._checked and len(cands) > 1:
                    self.spoilt = key
                    self._buckets[key] = cands[:-1]
                    break


# What a feasibility sweep after every growth event reports for each CORPUS
# instance (None: the run completes).
OVERSHOT_TIGHT = {
    0: "dual-feasibility: pair (0, 2) over budget after growth of set 3",
    1: "dual-feasibility: pair (0, 2) over budget after growth of set 3",
    2: None,
    3: "dual-feasibility: pair (0, 1) over budget after growth of set 1",
    4: "dual-feasibility: pair (0, 3) over budget after growth of set 3",
    5: "dual-feasibility: pair (0, 1) over budget after growth of set 1",
    6: "dual-feasibility: pair (0, 3) over budget after growth of set 3",
    7: "dual-feasibility: pair (0, 3) over budget after growth of set 4",
    8: "dual-feasibility: pair (0, 1) over budget after growth of set 1",
    9: "dual-feasibility: pair (0, 2) over budget after growth of set 2",
    10: "dual-feasibility: pair (1, 2) over budget after growth of set 2",
    11: "dual-feasibility: pair (1, 2) over budget after growth of set 2",
    12: "dual-feasibility: pair (2, 3) over budget after growth of set 3",
}
HIDDEN_PAIR = {
    0: "dual-feasibility: pair (0, 1) over budget after growth of set 1",
    1: "dual-feasibility: pair (0, 1) over budget after growth of set 1",
    2: None,
    3: "dual-feasibility: pair (0, 1) over budget after growth of set 0",
    4: "dual-feasibility: pair (0, 3) over budget after growth of set 0",
    5: "dual-feasibility: pair (0, 1) over budget after growth of set 0",
    6: "dual-feasibility: pair (0, 3) over budget after growth of set 0",
    7: None,
    8: "dual-feasibility: pair (0, 1) over budget after growth of set 0",
    9: "dual-feasibility: pair (0, 1) over budget after growth of set 8",
    10: "dual-feasibility: pair (0, 1) over budget after growth of set 0",
    11: None,
    12: "dual-feasibility: pair (0, 1) over budget after growth of set 1",
}


def test_clean_engine_passes_its_self_check():
    for inst in CORPUS:
        GreedyDualEngine(inst, self_check=True).run()


@pytest.mark.parametrize("bug", BUGS, ids=lambda cls: cls.__name__)
def test_self_check_catches_injected_bug(bug):
    missed = []
    for i, inst in enumerate(CORPUS):
        try:
            bug(inst, self_check=True).run()
        except EngineInvariantError as exc:
            if str(exc).startswith(ENGINE_FAULTS):
                missed.append((i, str(exc)))
        else:
            missed.append((i, "ran to completion"))
    assert not missed, missed


def test_self_check_names_a_wrong_growth_flag():
    for inst in CORPUS:
        with pytest.raises(EngineInvariantError, match="^growth-flag: "):
            WrongGrowthFlag(inst, self_check=True).run()


@pytest.mark.parametrize("bug", LIVE_PAIR_BUGS, ids=lambda cls: cls.__name__)
def test_self_check_catches_wrong_live_pairs(bug):
    """A bucket dropped, or a candidate duplicated, internal or of an
    unarrived request, is named as a live-pairs breach."""
    wrong = []
    for i, inst in enumerate(CORPUS):
        try:
            bug(inst, self_check=True).run()
        except EngineInvariantError as exc:
            if str(exc) != "live-pairs: live pairs are not the eligible cross-set pairs":
                wrong.append((i, str(exc)))
        else:
            wrong.append((i, "ran to completion"))
    assert not wrong, wrong


def test_self_check_catches_a_fold_that_keeps_the_losing_candidates():
    """Extra candidates change no trace, so only the band check can see them.
    On the two tightness instances every bucket a faulty fold makes is folded
    again at the same instant, and each step ends with true bands; there the
    run completes with the clean engine's trace."""
    not_band = r"^live-pairs: sets \(\d+, \d+\): candidates are not the least-slack band$"
    for i, inst in enumerate(CORPUS):
        eng = FoldKeepsLoser(inst, self_check=True)
        if i < 2:
            assert eng.run().event_log == GreedyDualEngine(inst).run().event_log
        else:
            with pytest.raises(EngineInvariantError, match=not_band):
                eng.run()
        assert eng.fired, i


def test_self_check_names_a_fold_that_keeps_the_larger_head():
    """An exact fold reads one head per child; keeping the wrong child
    leaves candidates above the bucket's least slack, which changes no trace
    until the bucket is due.  It fires on every exact instance.  On the two
    tightness instances, as for ``FoldKeepsLoser``, each instant at which it
    fires ends with one active set and no bucket, so no check sees a spoilt
    bucket, and the run completes with the clean engine's trace."""
    not_band = r"^live-pairs: sets \(\d+, \d+\): candidates are not the least-slack band$"
    for i, inst in enumerate(CORPUS):
        eng = FoldKeepsLargerHead(inst, self_check=True)
        if i < 2:
            assert eng.run().event_log == GreedyDualEngine(inst).run().event_log
        elif eng._exact:
            with pytest.raises(EngineInvariantError, match=not_band):
                eng.run()
        else:
            eng.run()
        assert eng.fired == eng._exact, i


@pytest.mark.parametrize("bug", [FoldKeepsLoser, FoldKeepsLargerHead], ids=lambda cls: cls.__name__)
def test_a_fold_fault_that_a_later_fold_replaces_leaves_no_trace(bug):
    """On the two tightness instances every bucket a faulty fold spoils is
    folded again at the same instant, before the step ends: stepped in
    lockstep with the clean engine, the faulty one holds the same bucket
    pairs, due times, potentials and growing sets after every step, so the
    self-check, which runs between steps, has nothing to see."""

    def pairs(eng):
        return {key: {(u, v) for u, v, _ in cands} for key, cands in eng._buckets.items()}

    for inst in CORPUS[:2]:
        clean, faulty = GreedyDualEngine(inst), bug(inst)
        while clean.step():
            assert faulty.step()
            assert pairs(faulty) == pairs(clean)
            assert faulty._due == clean._due
            assert faulty.potential == clean.potential
            assert faulty.growing == clean.growing
        assert not faulty.step()
        assert faulty.fired


def test_self_check_holds_an_old_bucket_to_the_last_check():
    """A bucket whose sets both predate the last check builds no cross pairs:
    it must hold the candidates that check saw.  One dropped candidate
    changes no trace until the bucket is due; the self-check names the
    bucket at the step that spoilt it."""
    spoilt = []
    for i, inst in enumerate(CORPUS):
        eng = OldBucketLosesACandidate(inst, self_check=True)
        try:
            eng.run()
        except EngineInvariantError as exc:
            assert eng.spoilt is not None, (i, str(exc))
            assert str(exc) == f"live-pairs: sets {eng.spoilt}: candidates are not the least-slack band", i
            spoilt.append(i)
        else:
            assert eng.spoilt is None, i
    assert spoilt


def test_self_check_names_a_late_due_time():
    """A due time one scaled unit late changes no trace until its bucket is
    due; the self-check names it at the step that wrote it."""
    late = r"^due-time: sets \(\d+, \d+\): due at "
    for inst in CORPUS:
        with pytest.raises(EngineInvariantError, match=late):
            LateDueTime(inst, self_check=True).run()


def test_self_check_names_a_dropped_due_time():
    """A bucket with a growing set and no due time is named at the step
    that made it: the arrivals of requests 0 and 1 at time 0."""
    eng = DroppedDueTime(gen_tightness_instance(4), self_check=True)
    with pytest.raises(EngineInvariantError) as info:
        eng.run()
    assert str(info.value) == "due-time: the buckets with a due time are not the buckets with a growing set"
    assert [(ev.t, ev.kind) for ev in eng.events] == [(0, "arrival"), (0, "arrival")]


@pytest.mark.parametrize(
    "bug, expected",
    [(OvershotTight, OVERSHOT_TIGHT), (HiddenPair, HIDDEN_PAIR)],
    ids=["OvershotTight", "HiddenPair"],
)
def test_self_check_names_a_breach_as_a_per_event_sweep_does(bug, expected):
    """Both bugs put a pair over budget where no other replay check fails at
    once.  After an overshot tight time the engine's next prediction lies
    behind its clock, so its own guard raises first; a hidden pair mostly
    goes unseen until the run ends.  The self-check sweeps feasibility when
    the run ends or any check raises, guards included, and names the breach
    as a sweep after every growth event does."""
    reported = {}
    for i, inst in enumerate(CORPUS):
        try:
            bug(inst, self_check=True).run()
            reported[i] = None
        except EngineInvariantError as exc:
            reported[i] = str(exc)
    assert reported == expected


@pytest.mark.parametrize(
    "inst",
    [gen_tightness_instance(6), gen_random_instance(seed=1, m=20, metric_kind="line")],
    ids=["tightness-6", "line-20"],
)
def test_each_instant_settles_once(inst, monkeypatch):
    """The replay checks each settled instant once, whether the self-check
    feeds it step by step or ``certify`` replays the finished trace."""
    check_surplus, calls = _Replay._check_surplus, []

    def counted(replay):
        calls.append(replay.clock)
        check_surplus(replay)

    monkeypatch.setattr(_Replay, "_check_surplus", counted)
    res = GreedyDualEngine(inst, self_check=True).run()
    instants = sorted({ev.t for ev in res.event_log})
    assert calls == instants
    calls.clear()
    assert certify(inst, res).ok
    assert calls == instants
