"""Differential tests of the engine's event search: the least-slack buckets
must give the traces of a flat scan over every live eligible cross-set pair,
the engine's earlier event search, kept here as the reference."""

import random

import pytest
from hypothesis import given, settings

from delaymatch.certify import certify
from delaymatch.engine import _TWO_OVER, EngineInvariantError, GreedyDualEngine, events_to_jsonl, run
from delaymatch.generators import gen_random_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD, make_instance
from delaymatch.metric import EuclideanMetric
from delaymatch.scalars import EPS_TIGHT, FLOAT, tol
from test_golden_traces import reference_jsonl
from test_properties import instances


class FlatScanEngine(GreedyDualEngine):
    """Locates events by scanning every live pair: the eligible pairs of
    arrived requests in different active sets, extended on each arrival and
    pruned after merges.  The buckets are kept but never read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flat = []  # (u, v, scaled budget)

    def _rescale(self, k):
        super()._rescale(k)
        self.flat = [(u, v, c * k) for u, v, c in self.flat]

    def _admit(self, u):
        super()._admit(u)
        row, pid, atime, sgn = self._dist[self._pid[u]], self._pid, self._atime, self._sgn
        au, partner = atime[u], -sgn[u]
        self.flat += [(v, u, row[pid[v]] + (au - atime[v])) for v in range(u) if sgn[v] == partner]

    def _least_tight_key(self):
        pot, growing, assign = self.potential, self.growing, self.assign
        best = None
        for u, v, cost in self.flat:
            r = (assign[u] in growing) + (assign[v] in growing)
            if r:
                key = (cost - pot[u] - pot[v]) * _TWO_OVER[r]
                if best is None or key < best:
                    best = key
        return best

    def _tight_pairs(self):
        pot = self.potential
        if self._exact:
            return [(u, v) for u, v, cost in self.flat if pot[u] + pot[v] == cost]
        return [(u, v) for u, v, cost in self.flat if pot[u] + pot[v] >= cost - tol(cost)]

    def process_tight(self):
        super().process_tight()
        assign = self.assign
        self.flat = [p for p in self.flat if assign[p[0]] != assign[p[1]]]


class TiesOnly(GreedyDualEngine):
    """Buckets that keep only exact ties in float mode too: no band."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._band_tol = None


class FoldCounter(GreedyDualEngine):
    """Counts the folds that meet another active set with no bucket for one
    of the children, and the folds whose children share no bucket."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.folds = self.misses = self.unjoined = 0

    def _fold(self, a, b, c):
        keys = self._buckets.keys()
        self.folds += 1
        self.unjoined += (a, b) not in keys
        self.misses += any(
            (min(a, x), max(a, x)) not in keys or (min(b, x), max(b, x)) not in keys
            for x in self._polarity
            if x not in (a, b)
        )
        super()._fold(a, b, c)


def outcome(engine, inst):
    """The events an engine logs until it finishes or raises, and the error."""
    eng = engine(inst)
    try:
        while eng.step():
            pass
    except EngineInvariantError as exc:
        return eng.events, str(exc)
    return eng.events, None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(max_m=6))
def test_exact_traces_match_the_flat_scan(inst):
    assert events_to_jsonl(GreedyDualEngine(inst).run()) == events_to_jsonl(FlatScanEngine(inst).run())


OFFSETS = (0.0, 1e-12, -1e-12, 3e-10, 1e-9, 2e-9)


def near_tie_instance(seed):
    """Float line requests at three base points plus offsets near the
    tightness tolerance, at times a few apart plus offsets of 1e-12: pairs of
    one bucket differ in slack by about the band."""
    rng = random.Random(seed)
    m = rng.randint(2, 6)
    bases = rng.sample([0.0, 1.0, 2.5, 3.0, 10.0, 100.0], 3)
    variant = rng.choice((MPMD, MBPMD))
    signs = [0] * (2 * m) if variant == MPMD else rng.sample([1] * m + [-1] * m, 2 * m)
    times = sorted(rng.choice((0.0, 0.5, 1.0, 2.0)) + rng.choice((0.0, 1e-12)) for _ in signs)
    triples = [(rng.choice(bases) + rng.choice(OFFSETS), t, s) for t, s in zip(times, signs)]
    return make_instance(variant, {"kind": "line"}, triples, mode=FLOAT)


def test_float_near_tie_traces_match_the_flat_scan():
    """The band keeps every pair rounding may make the first to go tight.
    Buckets of exact ties alone give other traces on this family."""
    ties_differ = 0
    for seed in range(1000):
        inst = near_tie_instance(seed)
        reference = outcome(FlatScanEngine, inst)
        assert outcome(GreedyDualEngine, inst) == reference, seed
        ties_differ += outcome(TiesOnly, inst) != reference
    assert ties_differ > 300


def test_float_near_tie_traces_match_the_reference_encoder():
    """Near-tie times print with all their digits: the writer gives the
    reference encoder's bytes on the whole family."""
    for seed in range(1000):
        result = run(near_tie_instance(seed))
        assert events_to_jsonl(result) == reference_jsonl(result), seed


# Near-tie runs that end with ``total-bound``: each has pairs whose budgets
# are below the absolute tolerance, so they are tight at arrival with no dual
# grown, and their summed connection exceeds one tolerance.
TOTAL_BOUND_SEEDS = (28, 2356, 2988)


def test_float_near_tie_buckets_pass_the_self_check():
    """Each bucket holds the band the self-check recomputes from the replay
    when the bucket is built, every pair the engine logs tight is tight to
    the certifier, and no run fails any check but the known ``total-bound``
    ones, under the self-check and under ``certify``."""
    for seed in range(1000):
        inst = near_tie_instance(seed)
        known = seed in TOTAL_BOUND_SEEDS
        try:
            result = run(inst, self_check=True)
        except EngineInvariantError as exc:
            assert known and str(exc).startswith("total-bound: "), (seed, str(exc))
            result = run(inst)
        verdict = certify(inst, result)
        assert verdict.ok or (known and verdict.prop == "total-bound"), (seed, verdict.to_json())


@pytest.mark.parametrize("seed", TOTAL_BOUND_SEEDS)
def test_near_tie_runs_with_budgets_below_the_tolerance_exceed_the_total_bound(seed):
    inst = near_tie_instance(seed)
    assert min(c for _, _, c in inst.grid.pairs(len(inst.requests))) < EPS_TIGHT
    verdict = certify(inst, run(inst))
    assert (verdict.prop, verdict.event_index) == ("total-bound", -1)
    with pytest.raises(EngineInvariantError, match="^total-bound: "):
        run(inst, self_check=True)


def test_stalled_float_runs_match_the_flat_scan():
    """The 20 shifted instances of the float stall test stall at the same
    event, with the same message, after the same events."""
    stalled = 0
    for seed in range(20):
        base = gen_random_instance(seed=seed, m=6, metric_kind="euclidean")
        inst = make_instance(MPMD, EuclideanMetric(), [(r.pos, r.atime + 1e9, 0) for r in base.requests], mode=FLOAT)
        events, error = outcome(GreedyDualEngine, inst)
        assert (events, error) == outcome(FlatScanEngine, inst), seed
        stalled += error is not None and error.startswith("stalled: ")
    assert stalled == 20


def test_tight_time_follows_the_band_rule():
    """Positions 0, 1e-12, 10 and 100: pairs (0, 2) and (1, 2) share a bucket
    and differ in slack by 1e-12, within the band.  When (1, 2) goes tight,
    (0, 2) is within the tightness tolerance too and sorts first; buckets of
    exact ties keep only (1, 2), which has the least slack."""
    inst = make_instance(MPMD, {"kind": "line"}, [(0, 0, 0), (1e-12, 0, 0), (10, 0, 0), (100, 0, 0)], mode=FLOAT)
    tight = [(ev.t, ev.payload) for ev in GreedyDualEngine(inst).run().event_log if ev.kind == "tight"]
    assert (9.999999999999, {"u": 0, "v": 2}) in tight
    assert tight == [(ev.t, ev.payload) for ev in FlatScanEngine(inst).run().event_log if ev.kind == "tight"]
    assert (9.999999999999, {"u": 1, "v": 2}) in [
        (ev.t, ev.payload) for ev in TiesOnly(inst).run().event_log if ev.kind == "tight"
    ]


def test_folds_look_up_the_buckets_a_merge_may_miss():
    """In the bipartite variant two sets whose members share one polarity
    share no bucket, so a fold meets active sets with no bucket for one of
    the children.  The merging children always share one: the tight pair is
    among its candidates.  Under the self-check, which compares the buckets
    with the replay after every step, the runs log the unchecked runs'
    events."""
    insts = [gen_tightness_instance(20, variant=MBPMD)]
    for seed in range(3):
        for kind in ("line", "ring", "matrix"):
            for m in (20, 30):
                insts.append(gen_random_instance(seed=seed, m=m, metric_kind=kind, variant=MBPMD))
    folds = misses = 0
    for inst in insts:
        eng = FoldCounter(inst, self_check=True)
        assert eng.run().event_log == GreedyDualEngine(inst).run().event_log
        assert eng.unjoined == 0
        folds, misses = folds + eng.folds, misses + eng.misses
    assert 0 < misses < folds
