"""Metamorphic checks in exact mode: scaling an instance by c (positions,
arrival times, ring circumference, matrix entries) and shifting every arrival
by d >= 0 maps each event time t to c*t + d and leaves everything else alone.
The matching and the event sequence are unchanged, and total cost and dual
objective scale by c (waiting is a difference of times, so d cancels)."""

from fractions import Fraction

import pytest

from delaymatch.engine import run
from delaymatch.generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD, make_instance
from delaymatch.metric import LineMetric, MatrixMetric, RingMetric

FACTORS = (Fraction(1, 3), Fraction(7, 5), Fraction(1, 2**40), Fraction(10**6))
SHIFTS = (Fraction(0), Fraction(5, 3), Fraction(1000))


def transform(inst, c, d):
    metric = inst.metric
    if metric.kind == "matrix":  # points are row indices; the entries scale
        scaled = MatrixMetric(dist=tuple(tuple(x * c for x in row) for row in metric.dist))
        requests = [(r.pos, r.atime * c + d, r.sgn) for r in inst.requests]
    else:
        scaled = LineMetric() if metric.kind == "line" else RingMetric(h=metric.h * c)
        requests = [(r.pos * c, r.atime * c + d, r.sgn) for r in inst.requests]
    return make_instance(inst.variant, scaled, requests, mode=inst.mode)


def _corpus():
    out = [gen_tightness_instance(10), gen_tightness_instance(6, variant=MBPMD), gen_ring_instance(8)]
    for kind in ("line", "ring", "matrix"):
        for variant in (MPMD, MBPMD):
            for seed in range(5):
                out.append(gen_random_instance(seed=seed, m=2 + 2 * seed, variant=variant, metric_kind=kind))
    return out


CORPUS = _corpus()


def _times(ev):
    return [ev.t] + [ev.payload[k] for k in ("from", "to") if k in ev.payload]


@pytest.mark.parametrize("c", FACTORS, ids=str)
@pytest.mark.parametrize("d", SHIFTS, ids=str)
def test_scaling_and_shifting_map_every_event_time(c, d):
    for inst in CORPUS:
        base = run(inst)
        moved = run(transform(inst, c, d))
        where = f"{inst.metric.kind}/{inst.variant}/m={inst.m}"
        assert [(u, v) for u, v, _ in moved.matching] == [(u, v) for u, v, _ in base.matching], where
        assert [ev.kind for ev in moved.event_log] == [ev.kind for ev in base.event_log], where
        for a, b in zip(base.event_log, moved.event_log):
            assert [c * t + d for t in _times(a)] == _times(b), (where, a, b)
            assert {k: v for k, v in a.payload.items() if k not in ("from", "to")} == {
                k: v for k, v in b.payload.items() if k not in ("from", "to")
            }, where
        assert [c * t + d for _, _, t in base.matching] == [t for _, _, t in moved.matching], where
        assert moved.total_cost == c * base.total_cost, where
        assert moved.dual_objective == c * base.dual_objective, where
