import json
import random
import re
from fractions import Fraction
from math import inf, nan

import pytest

from delaymatch.certify import certify
from delaymatch.engine import run
from delaymatch.generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from delaymatch.instance import (
    MBPMD,
    MPMD,
    InstanceError,
    dump_instance,
    edge_cost,
    instance_json,
    make_instance,
    parse_instance,
    surplus,
)
from delaymatch.metric import EuclideanMetric, InvalidPointError, LineMetric, MatrixMetric, RingMetric
from delaymatch.scalars import EXACT, FLOAT

LINE = {"kind": "line"}


def line_instance(triples, variant=MPMD):
    return make_instance(variant, LINE, triples)


def test_eligibility_ignores_polarity_in_plain_variant():
    inst = line_instance([(0, 0, 0), (1, 0, 0)])
    assert inst.eligible(0, 1)


def test_eligibility_requires_opposite_polarity_in_bipartite_variant():
    inst = line_instance([(0, 0, 1), (1, 0, 1), (2, 1, -1), (3, 1, -1)], variant=MBPMD)
    assert not inst.eligible(0, 1)
    assert inst.eligible(0, 2)
    assert not inst.eligible(2, 3)


def test_edge_cost_is_distance_plus_arrival_gap():
    inst = line_instance([(0, 0, 0), (5, 3, 0)])
    assert edge_cost(inst, 0, 1) == 5 + 3
    assert edge_cost(inst, 1, 0) == 8


def test_edge_cost_none_for_ineligible_pairs():
    inst = line_instance([(0, 0, 1), (1, 0, 1), (0, 1, -1), (1, 1, -1)], variant=MBPMD)
    assert edge_cost(inst, 0, 1) is None
    assert edge_cost(inst, 0, 2) == 1


def test_edge_cost_rejects_bad_indices():
    inst = line_instance([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(InstanceError):
        edge_cost(inst, 0, 0)
    with pytest.raises(InstanceError):
        edge_cost(inst, 0, 9)


def test_surplus_is_parity_in_plain_variant():
    inst = line_instance([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    assert surplus(inst, {0}) == 1
    assert surplus(inst, {0, 1}) == 0
    assert surplus(inst, {0, 1, 2}) == 1


def test_surplus_is_absolute_sign_sum_in_bipartite_variant():
    inst = line_instance([(0, 0, 1), (1, 0, 1), (2, 1, -1), (3, 1, -1)], variant=MBPMD)
    assert surplus(inst, {0, 1}) == 2
    assert surplus(inst, {0, 2}) == 0
    assert surplus(inst, {0, 1, 2}) == 1


def test_odd_request_count_rejected():
    with pytest.raises(InstanceError):
        line_instance([(0, 0, 0)])


def test_decreasing_arrival_times_rejected():
    with pytest.raises(InstanceError):
        line_instance([(0, 5, 0), (1, 3, 0)])


def test_negative_arrival_time_rejected():
    with pytest.raises(InstanceError):
        line_instance([(0, -1, 0), (1, 0, 0)])


def test_polarity_domain_enforced():
    with pytest.raises(InstanceError):
        line_instance([(0, 0, 1), (1, 0, -1)])  # mpmd wants 0
    with pytest.raises(InstanceError):
        line_instance([(0, 0, 0), (1, 0, 0)], variant=MBPMD)


def test_unbalanced_bipartite_rejected():
    with pytest.raises(InstanceError):
        line_instance([(0, 0, 1), (1, 0, 1)], variant=MBPMD)


def test_euclidean_rejects_exact_mode():
    with pytest.raises(InstanceError):
        make_instance(MPMD, {"kind": "euclidean"}, [((0, 0), 0, 0), ((1, 1), 0, 0)], mode=EXACT)


# One builder per scalar an instance holds: the instance whose ``field`` is x.
SCALAR_FIELDS = {
    "arrival time": lambda x, mode: make_instance(MPMD, LineMetric(), [(0, 0, 0), (1, x, 0)], mode=mode),
    "line position": lambda x, mode: make_instance(MPMD, LineMetric(), [(0, 0, 0), (x, 1, 0)], mode=mode),
    "ring position": lambda x, mode: make_instance(MPMD, RingMetric(h=2), [(0, 0, 0), (x, 1, 0)], mode=mode),
    "ring circumference": lambda x, mode: make_instance(
        MPMD, RingMetric(h=x), [(0, 0, 0), (Fraction(1, 2) if mode == EXACT else 0.5, 1, 0)], mode=mode
    ),
    "matrix entry": lambda x, mode: make_instance(
        MPMD, MatrixMetric(dist=((0, x), (x, 0))), [(0, 0, 0), (1, 1, 0)], mode=mode
    ),
    "euclidean coordinate": lambda x, mode: make_instance(
        MPMD, EuclideanMetric(), [((0, 0), 0, 0), ((1, x), 1, 0)], mode=mode
    ),
}

# Per mode: values every field holds, and values no field may hold.  Float
# mode holds only what binary64 holds as a finite value.
SCALAR_VALUES = {
    EXACT: ((1, Fraction(1)), (1.0, True)),
    FLOAT: ((1, 1.0), (Fraction(1), True, nan, inf, -inf, 10**400)),
}


@pytest.mark.parametrize(
    "mode, field",
    # The plane has no exact mode at all (test_euclidean_rejects_exact_mode).
    [(mode, field) for mode in SCALAR_VALUES for field in SCALAR_FIELDS if (mode, field) != (EXACT, "euclidean coordinate")],
)
def test_every_scalar_must_be_of_the_mode(field, mode):
    build = SCALAR_FIELDS[field]
    good, bad = SCALAR_VALUES[mode]
    for x in good:
        assert build(x, mode).mode == mode
    for x in bad:
        if field == "ring circumference" and x == -inf:  # the ring refuses it before any instance exists
            with pytest.raises(InvalidPointError, match="^ring circumference must be positive"):
                build(x, mode)
            continue
        # the error names the request or the field
        with pytest.raises(InstanceError, match=r"^(request 1: |ring circumference |matrix entry \(0, 1\) )"):
            build(x, mode)


@pytest.mark.parametrize("doc", [{"kind": "ring", "h": 1.5}, {"kind": "matrix", "dist": [[0, 0.5], [0.5, 0]]}])
def test_float_in_an_exact_metric_document_is_an_instance_error(doc):
    with pytest.raises(InstanceError, match="^bad metric: "):
        make_instance(MPMD, doc, [(0, 0, 0), (0, 1, 0)], mode=EXACT)


def test_float_inputs_in_exact_mode_fail_at_construction_not_at_certification():
    # Line m=3 with float positions and times: built in exact mode, this one
    # used to run and then fail its own certification with waiting-equals-dual.
    rng = random.Random(1)
    requests = [(round(rng.uniform(0, 10), 3), t, 0) for t in sorted(round(rng.uniform(0, 10), 1) for _ in range(6))]
    with pytest.raises(InstanceError, match="^request 0: arrival time 1.3 is not a scalar of exact mode$"):
        make_instance(MPMD, LineMetric(), requests, mode=EXACT)
    # The decimals those floats were rounded to, as rationals, build and certify.
    inst = make_instance(MPMD, LineMetric(), [(Fraction(str(p)), Fraction(str(t)), 0) for p, t, _ in requests])
    assert certify(inst, run(inst)).ok


@pytest.mark.parametrize(
    "dist, row",
    [([0, 1], "row 0 must be a list, got 0"), ([[0, 1], "10"], "row 1 must be a list, got '10'"), ([[0, 1], {"1": 0, "0": 1}], "row 1 ")],
    ids=["flat", "string-row", "object-row"],
)
def test_matrix_row_that_is_not_a_list_is_a_bad_metric(dist, row):
    metric = {"kind": "matrix", "dist": dist}
    with pytest.raises(InstanceError, match=f"^bad metric: matrix {re.escape(row)}"):
        make_instance(MPMD, metric, [(0, 0, 0), (1, 0, 0)])
    doc = {"variant": MPMD, "metric": metric, "requests": [{"pos": 0, "atime": 0}, {"pos": 1, "atime": 0}]}
    with pytest.raises(InstanceError, match=f"^bad metric: matrix {re.escape(row)}"):
        parse_instance(doc)


def test_broken_matrix_metric_rejected():
    with pytest.raises(InstanceError):
        make_instance(MPMD, {"kind": "matrix", "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}, [(0, 0, 0), (1, 0, 0)])


def test_parse_rejects_unknown_fields():
    doc = {
        "variant": MPMD,
        "metric": {"kind": "line"},
        "requests": [{"pos": 0, "atime": 0, "sgn": 0}, {"pos": 1, "atime": 0, "sgn": 0}],
        "comment": "nope",
    }
    with pytest.raises(InstanceError):
        parse_instance(doc)
    # A misspelt request field is refused, not ignored.
    del doc["comment"]
    doc["requests"][0] = {"pos": 0, "atime": 0, "atme": 5}
    with pytest.raises(InstanceError, match=r"^request 0: unknown fields \['atme'\]$"):
        parse_instance(doc)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"variant": "mpmd", "metric": {"kind": "line"}, "requests": [], "requests": []}', "requests"),
        ('{"variant": "mpmd", "metric": {"kind": "ring", "h": 2, "h": 1}, "requests": []}', "h"),
        ('{"variant": "mpmd", "metric": {"kind": "line"}, "requests": [{"pos": 0, "pos": 1, "atime": 0}]}', "pos"),
    ],
    ids=["requests", "metric-field", "request-field"],
)
def test_a_repeated_key_is_refused(text, key):
    for doc in (text, text.encode()):
        with pytest.raises(InstanceError, match=rf"^not valid JSON: repeated key '{key}'$"):
            parse_instance(doc)


@pytest.mark.parametrize(
    "metric, unknown",
    [
        ({"kind": "ring", "h": 1, "H": 3}, "ring metric: unknown fields ['H']"),
        ({"kind": "line", "hh": 5}, "line metric: unknown fields ['hh']"),
        ({"kind": "matrix", "dist": [[0, 1], [1, 0]], "x": 1}, "matrix metric: unknown fields ['x']"),
        ({"kind": "euclidean", "h": 1}, "euclidean metric: unknown fields ['h']"),
    ],
)
def test_unknown_metric_fields_are_refused_by_both_entry_points(metric, unknown):
    doc = {"variant": MPMD, "metric": metric, "requests": [{"pos": 0, "atime": 0}, {"pos": 1, "atime": 0}]}
    if metric["kind"] == "euclidean":
        doc["requests"] = [{"pos": [0, 0], "atime": 0}, {"pos": [1, 0], "atime": 0}]
    with pytest.raises(InstanceError) as parsed:
        parse_instance(doc)
    with pytest.raises(InstanceError) as made:
        make_instance(MPMD, metric, [(r["pos"], r["atime"], 0) for r in doc["requests"]])
    assert str(parsed.value) == str(made.value) == f"bad metric: {unknown}"


def test_parse_dump_round_trip():
    inst = line_instance([(Fraction(1, 2), Fraction(0), 0), (Fraction(5, 2), Fraction(3, 4), 0)])
    doc = dump_instance(inst)
    again = parse_instance(doc)
    assert dump_instance(again) == doc
    assert again.mode == EXACT
    assert again.requests[1].pos == Fraction(5, 2)
    # the JSON text form parses too
    third = parse_instance(instance_json(inst))
    assert dump_instance(third) == doc


def test_document_mode_beats_caller_default():
    doc = dump_instance(line_instance([(0, 0, 0), (1, 0, 0)]))
    assert doc["mode"] == EXACT
    inst = parse_instance(doc, default=FLOAT)
    assert inst.mode == EXACT
    del doc["mode"]
    assert parse_instance(doc, default=FLOAT).mode == FLOAT
    assert parse_instance(doc).mode == EXACT  # line defaults to exact


def test_euclidean_defaults_to_float_mode():
    doc = {
        "variant": MPMD,
        "metric": {"kind": "euclidean"},
        "requests": [
            {"pos": [0.0, 0.0], "atime": 0, "sgn": 0},
            {"pos": [1.0, 1.0], "atime": 0.5, "sgn": 0},
        ],
    }
    inst = parse_instance(doc)
    assert inst.mode == FLOAT
    assert isinstance(inst.requests[1].atime, float)


def test_m_counts_pairs():
    inst = line_instance([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    assert inst.m == 2
    assert len(list(inst.grid.pairs(4))) == 6


@pytest.mark.parametrize(
    "inst",
    [
        gen_tightness_instance(6),
        gen_tightness_instance(6, variant=MBPMD),
        gen_ring_instance(8),
        *(
            gen_random_instance(seed=seed, m=6, variant=variant, metric_kind=kind)
            for kind in ("line", "ring", "matrix", "euclidean")
            for seed, variant in enumerate((MPMD, MBPMD))
        ),
    ],
    ids=lambda inst: f"{inst.metric.kind}-{inst.variant}",
)
def test_grid_pairs_are_edge_cost_over_eligible_pairs(inst):
    n = len(inst.requests)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    grid = inst.grid
    listed = list(grid.pairs(n))
    # Only eligible pairs, every one of them, in lexicographic order.
    assert [(u, v) for u, v, _ in listed] == [(u, v) for u, v in pairs if edge_cost(inst, u, v) is not None]
    assert all(inst.eligible(u, v) for u, v, _ in listed)
    # The pairs among the first k requests are those of all n with v < k.
    assert list(grid.pairs(n // 2)) == [p for p in listed if p[1] < n // 2]
    exact = inst.mode == EXACT
    if exact:
        assert all(type(x) is int for x in (*grid.atime, *(c for _, _, c in listed)))
    else:
        assert grid.scale is None
    # Each budget over the scale is the pair's edge_cost (bit for bit in float
    # mode), and ``cost`` gives it for either order of the pair.
    assert all((Fraction(c, grid.scale) if exact else c) == edge_cost(inst, u, v) for u, v, c in listed)
    assert all(grid.cost(u, v) == c == grid.cost(v, u) for u, v, c in listed)
    assert [Fraction(t, grid.scale) if exact else t for t in grid.atime] == [r.atime for r in inst.requests]
    assert grid.sgn == tuple(r.sgn for r in inst.requests)
    assert all(type(f) is tuple for f in (grid.pid, grid.dist, *grid.dist, grid.atime, grid.sgn))
    assert inst.grid is grid  # built once per instance


def test_grid_scale_is_the_lcm_of_arrival_and_metric_input_denominators():
    # Positions with denominators 3, 4, 1 and 5; arrival times with 2.  (The
    # distances' denominators, 12, 3, 15, 4, 20 and 5, have the same lcm.)
    inst = line_instance(
        [(Fraction(1, 3), 0, 0), (Fraction(3, 4), Fraction(1, 2), 0), (0, 1, 0), (Fraction(1, 5), 1, 0)]
    )
    grid = inst.grid
    assert grid.scale == 60
    assert grid.atime == (0, 30, 60, 60)
    assert all(Fraction(c, 60) == edge_cost(inst, u, v) for u, v, c in grid.pairs(4))


@pytest.mark.parametrize(
    "metric, positions, scale",
    [
        # The positions sit on thirds and the distances on integers.
        ({"kind": "line"}, [Fraction(1, 3), Fraction(4, 3), Fraction(7, 3), Fraction(10, 3)], 6),
        # h on sevenths, the positions on integers.
        ({"kind": "ring", "h": "22/7"}, [0, 1, 2, 3], 14),
        # Only the entries between the positions count: 1/5 is not one of them.
        ({"kind": "matrix", "dist": [[0, "1/3", "1/5"], ["1/3", 0, "1/3"], ["1/5", "1/3", 0]]}, [0, 1, 1, 0], 6),
    ],
    ids=["line", "ring", "matrix"],
)
def test_grid_scale_takes_the_metric_inputs_and_the_arrival_times(metric, positions, scale):
    atimes = [0, Fraction(1, 2), 1, Fraction(3, 2)]
    inst = make_instance(MPMD, metric, [(p, t, 0) for p, t in zip(positions, atimes)])
    grid = inst.grid
    assert grid.scale == scale
    assert all(Fraction(c, scale) == edge_cost(inst, u, v) for u, v, c in grid.pairs(4))
