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
        dist, pid = self._dist, self._pid
        for key, cands in self._buckets.items():
            self._buckets[key] = [(a, b, dist[pid[a]][pid[b]] if b == u else c) for a, b, c in cands]


class WrongGrowthFlag(GreedyDualEngine):
    """Flips the cached growth flag of every member of a merged set."""

    def _merge(self, u, v):
        super()._merge(u, v)
        for w in self.sets[-1].members:
            self._grows[w] = 1 - self._grows[w]


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
        budget = self._dist[self._pid[u]][self._pid[w]] + abs(self._atime[u] - self._atime[w])
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
    so the engine lets it pass its budget."""

    hidden = None

    def _without_hidden(self, scan):
        buckets = self._buckets
        if self.hidden is None and buckets:
            self.hidden = next(iter(buckets.values()))[0]
        kept = dict(buckets)
        for key, cands in kept.items():
            if self.hidden in cands:
                rest = [p for p in cands if p != self.hidden]
                if rest:
                    buckets[key] = rest
                else:
                    del buckets[key]
        try:
            return scan()
        finally:
            buckets.clear()
            buckets.update(kept)

    def _least_tight_key(self):
        return self._without_hidden(super()._least_tight_key)

    def _tight_pairs(self):
        return self._without_hidden(super()._tight_pairs)


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
    check_partition, calls = _Replay._check_partition, []

    def counted(replay):
        calls.append(replay.clock)
        check_partition(replay)

    monkeypatch.setattr(_Replay, "_check_partition", counted)
    res = GreedyDualEngine(inst, self_check=True).run()
    instants = sorted({ev.t for ev in res.event_log})
    assert calls == instants
    calls.clear()
    assert certify(inst, res).ok
    assert calls == instants
