from fractions import Fraction

import pytest

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
from delaymatch.certify import certify
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
    assert all(not s.free for s in res.all_sets if s.status != "inactive")


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
    inst = line_instance([(0, 0, 0), (4, 0, 0)])
    eng = GreedyDualEngine(inst)
    assert eng.next_event() == (Fraction(0), ARRIVAL)
    assert eng.step()  # both arrivals at t=0
    assert eng.constraint_value(0, 1) == 0
    eng.advance_to(Fraction(1))
    assert eng.constraint_value(0, 1) == 2
    assert eng.next_event() == (Fraction(2), "tight")
    assert eng.step()  # the merge at t=2
    assert eng.constraint_value(0, 1) == 4  # frozen at the merge value
    assert eng.next_event() is None
    res = eng.run()  # already settled; run just assembles the result
    assert res.total_cost == 8


def test_constraint_value_rejects_ineligible_pairs():
    inst = line_instance([(0, 0, 1), (1, 0, 1), (2, 0, -1), (3, 0, -1)], variant=MBPMD)
    eng = GreedyDualEngine(inst)
    with pytest.raises(ValueError):
        eng.constraint_value(0, 1)


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


def test_marked_edges_one_per_merge():
    inst = gen_tightness_instance(10)
    res = run(inst)
    merges = [ev for ev in res.event_log if ev.kind == MERGE]
    assert len(merges) == res.num_marked_edges
    # a perfect matching over 2m requests in one component needs 2m - 1 edges
    assert res.num_sets == len(inst.requests) + len(merges)


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
    for build in (lambda: GreedyDualEngine(inst), lambda: run(inst, self_check=True), lambda: inst.budgets):
        with pytest.raises(InstanceError, match=refused):
            build()


def test_overflowing_clock_is_refused_before_the_first_event():
    # Every budget is finite, but after the arrivals at 1e308 the next tight
    # time, located as twice the clock plus twice the time left, is inf.
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (0, 0, 0), (0, 1e308, 0), (1, 1e308, 0)], mode=FLOAT)
    refused = (
        "^float clock overflow: twice the largest [|]arrival time[|] plus the budget bound exceeds binary64 range$"
    )
    for build in (lambda: GreedyDualEngine(inst), lambda: run(inst, self_check=True), lambda: inst.budgets):
        with pytest.raises(InstanceError, match=refused):
            build()
    # Late arrivals that stay inside the bound run to the end.
    a, d = 2.0**1021, 2.0**1020
    inside = make_instance(MPMD, LINE, [(0, 0, 0), (0, 0, 0), (0, a, 0), (d, a, 0)], mode=FLOAT)
    assert run(inside, self_check=True).matching == ((0, 1, 0.0), (2, 3, a + d / 2))
