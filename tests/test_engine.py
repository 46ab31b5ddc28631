import json
from dataclasses import replace
from fractions import Fraction
from math import inf, nan

import pytest

from delaymatch import engine
from delaymatch.engine import (
    ARRIVAL,
    GROW,
    MATCH,
    MERGE,
    TIGHT,
    EngineInvariantError,
    GreedyDualEngine,
    events_from_jsonl,
    events_to_jsonl,
    run,
)
from delaymatch.certify import _Replay, certify
from delaymatch.generators import gen_random_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD, InstanceError, make_instance
from delaymatch.metric import EuclideanMetric
from delaymatch.scalars import FLOAT

LINE = {"kind": "line"}


def line_instance(triples, variant=MPMD):
    return make_instance(variant, LINE, triples)


def test_symmetric_pair_meets_in_the_middle():
    # both wait distance/2, so connection == waiting == dual
    inst = line_instance([(0, 0, 0), (6, 0, 0)])
    res = run(inst, self_check=True)
    assert res.connection_cost == 6
    assert res.waiting_cost == 6
    assert res.total_cost == 12
    assert res.dual_objective == 6
    assert res.matching == ((0, 1, Fraction(3)),)


def test_budget_includes_arrival_gap():
    # dist 2, gap 1: first request grows alone until the second arrives
    inst = line_instance([(0, 0, 0), (2, 1, 0)])
    res = run(inst, self_check=True)
    assert res.matching == ((0, 1, Fraction(2)),)
    assert res.connection_cost == 2
    assert res.waiting_cost == (2 - 0) + (2 - 1)
    assert res.dual_objective == res.waiting_cost


def test_colocated_simultaneous_requests_match_instantly():
    inst = line_instance([(4, 1, 0), (4, 1, 0)])
    res = run(inst, self_check=True)
    assert res.total_cost == 0
    assert res.matching == ((0, 1, Fraction(1)),)


def test_simultaneous_tight_pairs_resolve_in_index_order():
    inst = line_instance([(0, 0, 0), (2, 0, 0), (10, 0, 0), (12, 0, 0)])
    res = run(inst, self_check=True)
    assert res.matching == ((0, 1, Fraction(1)), (2, 3, Fraction(1)))
    assert res.connection_cost == 4
    assert res.dual_objective == 4


def test_fifo_matching_prefers_earliest_free_requests():
    # all at one point: merging picks the lowest-index free request first
    inst = line_instance(
        [(0, 0, 1), (0, 0, 1), (0, 0, -1), (0, 0, -1)], variant=MBPMD
    )
    res = run(inst, self_check=True)
    assert [(u, v) for u, v, _ in res.matching] == [(0, 2), (1, 3)]


def test_odd_subset_keeps_growing_until_partner_arrives():
    # {+, +, -} leaves one free request whose set keeps growing
    inst = line_instance(
        [(0, 0, 1), (0, 0, 1), (0, 0, -1), (8, 2, -1)], variant=MBPMD
    )
    res = run(inst, self_check=True)
    assert [(u, v) for u, v, _ in res.matching] == [(0, 2), (1, 3)]
    children = {ev.payload[k] for ev in res.event_log if ev.kind == MERGE for k in ("a", "b")}
    assert all(not s.free for s in res.all_sets if s.set_id not in children)


def test_event_log_shape():
    inst = gen_tightness_instance(4)
    res = run(inst)
    kinds = {ev.kind for ev in res.event_log}
    assert kinds <= {ARRIVAL, GROW, TIGHT, MERGE, MATCH}
    events = list(res.event_log)
    # every tight is immediately followed by the merge it triggered
    for i, ev in enumerate(events):
        if ev.kind == TIGHT:
            assert events[i + 1].kind == MERGE
            assert events[i + 1].t == ev.t
    # arrivals appear in index order at their arrival times
    arrivals = [ev for ev in events if ev.kind == ARRIVAL]
    assert [ev.payload["u"] for ev in arrivals] == list(range(len(inst.requests)))
    for ev in arrivals:
        assert ev.t == inst.requests[ev.payload["u"]].atime
    # clock never regresses
    times = [ev.t for ev in events]
    assert times == sorted(times)


def test_grow_intervals_partition_each_sets_lifetime():
    inst = gen_random_instance(seed=3, m=4, variant=MPMD, metric_kind="line")
    res = run(inst, self_check=True)
    for rec in res.all_sets:
        intervals = [
            (ev.payload["from"], ev.payload["to"])
            for ev in res.event_log
            if ev.kind == GROW and ev.payload["set"] == rec.set_id
        ]
        total = sum((b - a for a, b in intervals), Fraction(0))
        assert total == rec.y
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2  # ordered, non-overlapping


def test_summary_keys_and_types():
    inst = gen_tightness_instance(4)
    s = run(inst).summary()
    assert sorted(s) == [
        "connection_cost",
        "dual_objective",
        "m",
        "num_marked_edges",
        "num_sets",
        "total_cost",
        "waiting_cost",
    ]
    assert s["m"] == 4
    assert s["total_cost"] == "23/2"


def test_stepwise_constraint_values():
    """Stepping the engine by hand: the pair's value, as the certifier's
    replay derives it from the log so far, rises while the pair crosses
    active sets and is frozen at its merge."""
    inst = line_instance([(0, 0, 0), (4, 0, 0)])
    eng = GreedyDualEngine(inst)
    replay = _Replay(inst)

    def value():
        assert replay.drive(eng.events) is None
        return replay.external(replay.pair_value(0, 1))

    assert eng.next_event() == (Fraction(0), ARRIVAL)
    assert eng.step()  # both arrivals at t=0
    assert value() == 0
    eng.advance_to(Fraction(1))
    assert value() == 2
    assert eng.next_event() == (Fraction(2), "tight")
    assert eng.step()  # the merge at t=2
    assert value() == 4  # frozen at the merge value
    assert eng.next_event() is None
    res = eng.run()  # already settled; run just assembles the result
    assert res.total_cost == 8


def test_clock_cannot_move_backwards():
    inst = line_instance([(0, 0, 0), (4, 0, 0)])
    eng = GreedyDualEngine(inst)
    eng.step()
    eng.advance_to(Fraction(1))
    with pytest.raises(EngineInvariantError):
        eng.advance_to(Fraction(1, 2))


def test_arrivals_must_be_admitted_in_order_at_their_times():
    inst = line_instance([(0, 0, 0), (4, 1, 0)])
    eng = GreedyDualEngine(inst)
    with pytest.raises(EngineInvariantError):
        eng._admit(1)


def test_run_is_deterministic_in_process():
    inst = gen_random_instance(seed=9, m=5, variant=MBPMD, metric_kind="ring")
    a = run(inst)
    b = run(inst)
    assert a.event_log == b.event_log
    assert a.matching == b.matching
    assert a.summary() == b.summary()


def test_event_jsonl_round_trip():
    inst = gen_tightness_instance(4)
    res = run(inst)
    text = events_to_jsonl(res)
    back = events_from_jsonl(text, res.mode)
    assert back == list(res.event_log)


def test_events_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        events_from_jsonl('{"kind": "arrival"}\n', "exact")
    with pytest.raises(ValueError):
        events_from_jsonl("not json\n", "exact")


@pytest.mark.parametrize(
    "line, error",
    [
        ('{"kind": "arrival", "payload": {"u": 1}}', "missing field 't'"),
        ('{"t": 0, "payload": {"u": 1}}', "missing field 'kind'"),
        ('{"t": 0, "kind": "arrival"}', "missing field 'payload'"),
        ('{"t": 0, "kind": "arrival", "payload": {"u": 1}, "extra": 1}', "unknown fields ['extra']"),
        ('[0, "arrival", {"u": 1}]', "line must be an object, got list"),
        ('{"t": 5, "t": 0, "kind": "arrival", "payload": {"u": 1}}', "repeated key 't'"),
        ('{"t": 0, "kind": "arrival", "payload": {"u": 3, "u": 1}}', "repeated key 'u'"),
    ],
    ids=["no-t", "no-kind", "no-payload", "extra-field", "list", "two-t", "two-u"],
)
def test_a_trace_line_of_another_shape_is_named(line, error):
    """A line is an object with exactly ``t``, ``kind`` and ``payload``."""
    text = '{"t": 0, "kind": "arrival", "payload": {"u": 0}}\n' + line + "\n"
    with pytest.raises(ValueError) as info:
        events_from_jsonl(text, "exact")
    assert str(info.value) == f"trace line 2: {error}"


@pytest.mark.parametrize("bad", [nan, inf, -inf])
def test_a_non_finite_time_is_not_written(bad):
    """The writer is strict JSON: a NaN or infinite event time, or growth
    endpoint, raises ValueError instead of printing NaN or Infinity."""
    res = run(make_instance(MPMD, LINE, [(0, 0, 0), (1, 0, 0)], mode=FLOAT))
    log = list(res.event_log)
    grow = next(i for i, ev in enumerate(log) if ev.kind == GROW)
    for i, ev in ((0, replace(log[0], t=bad)), (grow, replace(log[grow], payload={**log[grow].payload, "to": bad}))):
        with pytest.raises(ValueError):
            events_to_jsonl(replace(res, event_log=(*log[:i], ev, *log[i + 1 :])))


def test_each_time_is_written_once_per_instant(monkeypatch):
    res = run(gen_random_instance(seed=1, m=12, metric_kind="ring"))
    dumped = []
    dump = engine.dump_scalar
    monkeypatch.setattr(engine, "dump_scalar", lambda t, mode: (dumped.append(t), dump(t, mode))[1])
    events_to_jsonl(res)
    assert sorted(dumped) == sorted({ev.t for ev in res.event_log})


def test_each_distinct_time_string_is_parsed_once(monkeypatch):
    res = run(gen_random_instance(seed=1, m=12, metric_kind="ring"))
    text = events_to_jsonl(res)
    parsed = []
    parse = engine.parse_scalar
    monkeypatch.setattr(engine, "parse_scalar", lambda raw, mode: (parsed.append(raw), parse(raw, mode))[1])
    assert events_from_jsonl(text, res.mode) == list(res.event_log)
    assert any(type(raw) is str for raw in parsed)  # off-grid times are "p/q" strings
    assert len(parsed) == len(set(parsed))


def test_a_bad_time_string_is_named_at_its_first_line():
    lines = events_to_jsonl(run(gen_tightness_instance(4))).splitlines(keepends=True)
    for i in (2, 4):  # lines 3 and 5
        doc = json.loads(lines[i])
        doc["t"] = "1/0"
        lines[i] = json.dumps(doc) + "\n"
    with pytest.raises(ValueError, match=r"^trace line 3: bad rational literal '1/0'"):
        events_from_jsonl("".join(lines), "exact")


def test_marked_edges_one_per_merge():
    inst = gen_tightness_instance(10)
    res = run(inst)
    merges = [ev for ev in res.event_log if ev.kind == MERGE]
    assert len(merges) == res.num_marked_edges
    # a perfect matching over 2m requests in one component needs 2m - 1 edges
    assert res.num_sets == len(inst.requests) + len(merges)


class NoTightSearch(GreedyDualEngine):
    """An event search that never finds a tight pair."""

    def _least_tight_key(self):
        return None


class EndsAtOnce(GreedyDualEngine):
    """Reports no next event, with every request still to come."""

    def next_event(self):
        return None


@pytest.mark.parametrize("self_check", [False, True], ids=["plain", "self-checked"])
def test_a_free_request_with_no_event_ahead_is_a_stuck_state(self_check):
    # After both arrivals the sets still grow, but nothing can go tight.
    with pytest.raises(EngineInvariantError, match="^stuck-state: "):
        NoTightSearch(line_instance([(0, 0, 0), (4, 0, 0)]), self_check=self_check).run()


def test_a_run_that_ends_with_free_requests_is_refused():
    with pytest.raises(EngineInvariantError, match="^run ended with unmatched requests$"):
        EndsAtOnce(line_instance([(0, 0, 0), (4, 0, 0)])).run()


def test_step_without_progress_raises_instead_of_spinning():
    # With every arrival shifted by 1e9 the float clock resolves only about
    # 1e-7, while the budgets do not see the shift and stay near 1, so their
    # tolerance is about 1e-9.  The tight scan then misses the pair
    # next_event calls tight, and a step would change nothing; it must raise
    # rather than repeat.  The step cap keeps a spinning engine from hanging
    # the test.
    stalled = 0
    for seed in range(20):
        base = gen_random_instance(seed=seed, m=6, metric_kind="euclidean")
        inst = make_instance(
            MPMD,
            EuclideanMetric(),
            [(r.pos, r.atime + 1e9, 0) for r in base.requests],
            mode=FLOAT,
        )
        eng = GreedyDualEngine(inst)
        try:
            for _ in range(1000):
                if not eng.step():
                    break
            else:
                pytest.fail(f"seed {seed}: 1000 steps without finishing or raising")
        except EngineInvariantError as exc:
            assert str(exc).startswith("stalled: "), exc
            stalled += 1
            continue
        assert certify(inst, eng.run()).ok, seed
    assert stalled > 0


@pytest.mark.parametrize(
    "triples",
    [
        [(-1e308, 0, 0), (1e308, 0, 0)],  # the clock would go to inf, then NaN
        [(-1e308, 0, 0), (1e308, 0, 0), (0, 1, 0), (1, 2, 0)],  # the run would end at an infinite clock
    ],
    ids=["far-pair", "far-and-near-pairs"],
)
def test_overflowing_budget_is_refused_before_the_first_event(triples):
    # Finite positions whose distance overflows binary64: the budget is inf.
    inst = make_instance(MPMD, LINE, triples, mode=FLOAT)
    refused = "^float budgets overflow: the largest distance plus the arrival span exceeds binary64 range$"
    for build in (lambda: GreedyDualEngine(inst), lambda: run(inst, self_check=True), lambda: inst.grid):
        with pytest.raises(InstanceError, match=refused):
            build()


def test_overflowing_clock_is_refused_before_the_first_event():
    # Every budget is finite, but after the arrivals at 1e308 the next tight
    # time, located as twice the clock plus twice the time left, is inf.
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (0, 0, 0), (0, 1e308, 0), (1, 1e308, 0)], mode=FLOAT)
    refused = (
        "^float clock overflow: twice the largest [|]arrival time[|] plus the budget bound exceeds binary64 range$"
    )
    for build in (lambda: GreedyDualEngine(inst), lambda: run(inst, self_check=True), lambda: inst.grid):
        with pytest.raises(InstanceError, match=refused):
            build()
    # Late arrivals that stay inside the bound run to the end.
    a, d = 2.0**1021, 2.0**1020
    inside = make_instance(MPMD, LINE, [(0, 0, 0), (0, 0, 0), (0, a, 0), (d, a, 0)], mode=FLOAT)
    assert run(inside, self_check=True).matching == ((0, 1, 0.0), (2, 3, a + d / 2))


def test_overflowing_total_cost_is_refused_before_the_first_event():
    # Every budget and the clock stay finite, but the pair meets at 7.5e307
    # and connection plus waiting is 3e308: beyond 2 * m times the budget
    # bound, which bounds the total, is beyond binary64 range.
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (1.5e308, 0, 0)], mode=FLOAT)
    refused = "^float cost overflow: 2 [*] m times the budget bound exceeds binary64 range$"
    for build in (lambda: GreedyDualEngine(inst), lambda: run(inst, self_check=True), lambda: inst.grid):
        with pytest.raises(InstanceError, match=refused):
            build()
    # At half the range the total is 1.5e308 and the run ends.
    half = make_instance(MPMD, LINE, [(0, 0, 0), (0.75e308, 0, 0)], mode=FLOAT)
    assert run(half, self_check=True).total_cost == 1.5e308


@pytest.mark.parametrize("kind", ["line", "ring", "matrix"])
def test_an_exact_run_is_on_the_grid_and_only_the_certifier_calls_distance(kind, monkeypatch):
    """The engine and the budget table compute on the grid, with no call of
    ``distance``; each set's ``y`` is a scaled int until the run ends.  The
    certifier's endgame still sums ``distance`` over the matched pairs, the
    reference its cross-check compares the engine's totals with."""
    inst = gen_random_instance(seed=1, m=12, metric_kind=kind, variant=MBPMD)
    calls = []
    distance = type(inst.metric).distance
    monkeypatch.setattr(type(inst.metric), "distance", lambda self, a, b: (calls.append((a, b)), distance(self, a, b))[1])
    eng = GreedyDualEngine(inst)
    while eng.step():
        pass
    assert all(type(rec.y) is int for rec in eng.sets)
    res = eng.run()
    assert all(type(rec.y) is Fraction for rec in res.all_sets)
    assert list(inst.grid.pairs(len(inst.requests)))
    assert calls == []
    assert certify(inst, res).ok
    reqs = inst.requests
    assert calls[: inst.m] == [(reqs[u].pos, reqs[v].pos) for u, v, _ in res.matching]
