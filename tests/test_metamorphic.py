"""Metamorphic checks: scaling an instance by c (positions, arrival times,
ring circumference, matrix entries) and shifting every arrival by d >= 0 maps
each event time t to c*t + d and leaves everything else alone.  The matching
and the event sequence are unchanged, and total cost and dual objective scale
by c (waiting is a difference of times, so d cancels).  So do every pair's
budget and charged value, hence the certificate's slacks, and the offline
optimum.  In exact mode all of this holds exactly; in float mode the matching
holds, the run certifies and the costs scale within 1e-6 relative, over a
ladder of scales and shifts.  Moving every line position, or rotating every
ring position, by 1/7 changes no distance, so it changes no output byte,
though the exact grid's scale, taken from the positions, grows by 7."""

import json
from fractions import Fraction

import pytest

from delaymatch.certify import certify
from delaymatch.engine import events_to_jsonl, run
from delaymatch.generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD, make_instance
from delaymatch.metric import EuclideanMetric, LineMetric, MatrixMetric, RingMetric
from delaymatch.offline import BRUTE_LIMIT, opt_brute, opt_hungarian
from delaymatch.scalars import FLOAT

FACTORS = (Fraction(1, 3), Fraction(7, 5), Fraction(1, 2**40), Fraction(10**6))
SHIFTS = (Fraction(0), Fraction(5, 3), Fraction(1000))
FLOAT_SCALES = (1e-3, 1.0, 1e4, 1e6, 1e8, 1e12)
FLOAT_SHIFTS = (1e3, 1e6)


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


def _opt(inst):
    """The offline optimum where a solver applies, else None."""
    if inst.variant == MBPMD:
        return opt_hungarian(inst)
    return opt_brute(inst) if len(inst.requests) <= BRUTE_LIMIT else None


@pytest.fixture(scope="module")
def bases():
    """Run, certificate and optimum of each corpus instance."""
    out = []
    for inst in CORPUS:
        res = run(inst)
        out.append((res, certify(inst, res), _opt(inst)))
    return out


def _times(ev):
    return [ev.t] + [ev.payload[k] for k in ("from", "to") if k in ev.payload]


@pytest.mark.parametrize("c", FACTORS, ids=str)
@pytest.mark.parametrize("d", SHIFTS, ids=str)
def test_scaling_and_shifting_map_every_event_time(c, d, bases):
    for inst, (base, base_cert, base_opt) in zip(CORPUS, bases):
        moved_inst = transform(inst, c, d)
        moved = run(moved_inst)
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
        cert = certify(moved_inst, moved)
        assert cert.ok, (where, cert.to_json())
        assert cert.dual_objective == c * base_cert.dual_objective, where
        assert cert.edge_slacks == tuple((u, v, c * s) for u, v, s in base_cert.edge_slacks), where
        if base_opt is not None:
            moved_opt = _opt(moved_inst)
            assert moved_opt.pairs == base_opt.pairs, where
            assert moved_opt.value == c * base_opt.value, where


FLOAT_BASES = [gen_random_instance(seed=seed, m=6, metric_kind="euclidean") for seed in range(20)]


def euclidean_transform(inst, c, d):
    requests = [((r.pos[0] * c, r.pos[1] * c), r.atime * c + d, r.sgn) for r in inst.requests]
    return make_instance(inst.variant, EuclideanMetric(), requests, mode=FLOAT)


@pytest.mark.parametrize(
    "c, d",
    [(c, 0.0) for c in FLOAT_SCALES] + [(1.0, d) for d in FLOAT_SHIFTS],
    ids=lambda x: f"{x:g}",
)
def test_float_mode_holds_at_every_scale_and_shift(c, d):
    for seed, inst in enumerate(FLOAT_BASES):
        base = run(inst)
        moved_inst = euclidean_transform(inst, c, d)
        moved = run(moved_inst)
        assert [(u, v) for u, v, _ in moved.matching] == [(u, v) for u, v, _ in base.matching], seed
        assert certify(moved_inst, moved).ok, seed
        assert moved.total_cost == pytest.approx(c * base.total_cost, rel=1e-6), seed
        assert moved.dual_objective == pytest.approx(c * base.dual_objective, rel=1e-6), seed


def shift_positions(inst, d):
    """Every line position moved by ``d``, every ring position rotated by it."""
    metric = inst.metric
    move = (lambda p: p + d) if metric.kind == "line" else (lambda p: metric.normalize(p + d))
    return make_instance(inst.variant, metric, [(move(r.pos), r.atime, r.sgn) for r in inst.requests], mode=inst.mode)


@pytest.mark.parametrize(
    "inst",
    [inst for inst in CORPUS if inst.metric.kind in ("line", "ring")],
    ids=lambda inst: f"{inst.metric.kind}-{inst.variant}-m{inst.m}",
)
def test_moving_every_position_by_a_seventh_changes_no_byte(inst):
    moved = shift_positions(inst, Fraction(1, 7))
    assert moved.grid.scale == 7 * inst.grid.scale  # a grid the outputs must not show
    base, res = run(inst), run(moved)
    assert events_to_jsonl(res) == events_to_jsonl(base)
    assert json.dumps(certify(moved, res).to_json()) == json.dumps(certify(inst, base).to_json())
