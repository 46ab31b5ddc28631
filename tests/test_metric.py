import json
from fractions import Fraction

import pytest

from delaymatch.generators import gen_random_instance
from delaymatch.instance import instance_json, parse_instance
from delaymatch.metric import (
    EuclideanMetric,
    InvalidPointError,
    LineMetric,
    MatrixMetric,
    RingMetric,
    default_mode,
    dump_metric,
    parse_metric,
    validate_metric,
)
from delaymatch.scalars import EXACT, FLOAT


def test_line_distance_is_absolute_difference():
    m = LineMetric()
    assert m.distance(Fraction(3), Fraction(-2)) == 5
    assert m.distance(Fraction(1, 2), Fraction(1, 2)) == 0


def test_ring_distance_wraps_the_short_way():
    m = RingMetric(Fraction(1))
    assert m.distance(Fraction(1, 8), Fraction(7, 8)) == Fraction(1, 4)
    assert m.distance(Fraction(0), Fraction(1, 2)) == Fraction(1, 2)
    # positions are taken modulo the circumference
    assert m.distance(Fraction(9, 8), Fraction(1, 8)) == 0


def test_ring_rejects_nonpositive_circumference():
    with pytest.raises(InvalidPointError):
        RingMetric(Fraction(0))


def test_euclidean_distance():
    m = EuclideanMetric()
    assert m.distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_matrix_distance_looks_up_entries():
    m = MatrixMetric(((0, 2), (2, 0)))
    assert m.distance(0, 1) == 2
    with pytest.raises(InvalidPointError):
        m.check_point(5, EXACT)


def test_matrix_validation_catches_axiom_breaches():
    asym = MatrixMetric(((0, 1), (2, 0)))
    assert validate_metric(asym).axiom == "symmetry"
    tri = MatrixMetric(((0, 1, 5), (1, 0, 1), (5, 1, 0)))
    assert validate_metric(tri).axiom == "triangle"
    neg = MatrixMetric(((0, -1), (-1, 0)))
    assert validate_metric(neg).axiom == "negative"
    diag = MatrixMetric(((1, 2), (2, 0)))
    assert validate_metric(diag).axiom == "identity"
    ok = MatrixMetric(((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    assert validate_metric(ok) is None


def test_metric_violation_describes_itself():
    v = validate_metric(MatrixMetric(((0, 1, 5), (1, 0, 1), (5, 1, 0))))
    text = v.describe()
    assert "triangle" in text


def test_parse_dump_round_trip():
    for doc, mode in [
        ({"kind": "line"}, EXACT),
        ({"kind": "ring", "h": "5/2"}, EXACT),
        ({"kind": "euclidean"}, FLOAT),
        ({"kind": "matrix", "dist": [[0, 2], [2, 0]]}, EXACT),
    ]:
        metric = parse_metric(doc, mode)
        again = parse_metric(dump_metric(metric, mode), mode)
        assert dump_metric(again, mode) == dump_metric(metric, mode)


def test_parse_rejects_unknown_kind_and_bad_payload():
    with pytest.raises(InvalidPointError):
        parse_metric({"kind": "hyperbolic"}, EXACT)
    with pytest.raises(InvalidPointError):
        parse_metric({"kind": "matrix"}, EXACT)


def test_default_mode_is_float_only_for_euclidean():
    assert default_mode("euclidean") == FLOAT
    assert default_mode("line") == EXACT
    assert default_mode("ring") == EXACT
    assert default_mode("matrix") == EXACT


def test_point_parsing_per_kind():
    line = LineMetric()
    assert line.parse_point("7/3", EXACT) == Fraction(7, 3)
    eu = EuclideanMetric()
    assert eu.parse_point([1.5, -2.0], FLOAT) == (1.5, -2.0)
    with pytest.raises(InvalidPointError):
        eu.parse_point([1.0], FLOAT)
    mat = MatrixMetric(((0, 2), (2, 0)))
    assert mat.parse_point(1, EXACT) == 1
    with pytest.raises(InvalidPointError):
        mat.check_point(2, EXACT)  # decoding is typed; range lives in check_point
    with pytest.raises(InvalidPointError):
        mat.parse_point(True, EXACT)


H = Fraction(7, 3)
GRID_CASES = {
    # Negative, int and Fraction line positions.
    "line": (LineMetric(), [Fraction(-7, 3), 0, 5, Fraction(1, 2), Fraction(-1, 6), -4], EXACT),
    "line-ints": (LineMetric(), [0, 5, -3], EXACT),
    # Arcs that take the wrap: 2 - 0 and 9/4 - 1/5 exceed h / 2.
    "ring": (RingMetric(H), [Fraction(0), Fraction(1, 5), Fraction(2), Fraction(7, 6), Fraction(9, 4)], EXACT),
    "ring-ints": (RingMetric(Fraction(5)), [0, 4, 1], EXACT),
    "matrix": (
        MatrixMetric(
            ((0, Fraction(1, 2), Fraction(4, 3)), (Fraction(1, 2), 0, Fraction(5, 6)), (Fraction(4, 3), Fraction(5, 6), 0))
        ),
        [2, 0, 1],
        EXACT,
    ),
    "line-one": (LineMetric(), [Fraction(3, 4)], EXACT),
    "ring-one": (RingMetric(H), [Fraction(1, 3)], EXACT),
    "matrix-one": (MatrixMetric(((0, Fraction(1, 2)), (Fraction(1, 2), 0))), [1], EXACT),
    "line-float": (LineMetric(), [-2.5, 0.1, 3, 1e-12, -7], FLOAT),
    "ring-float": (RingMetric(7 / 3), [0.0, 0.2, 2.0, 7 / 6, 2.25], FLOAT),
    "matrix-float": (MatrixMetric(((0.0, 0.5, 1.25), (0.5, 0.0, 0.75), (1.25, 0.75, 0.0))), [2, 0, 1], FLOAT),
    "euclidean": (EuclideanMetric(), [(0.0, 0.0), (3.0, 4.0), (-1.5, 0.1), (1e-9, 2.0)], FLOAT),
    "euclidean-one": (EuclideanMetric(), [(1.0, 2.0)], FLOAT),
    "line-float-one": (LineMetric(), [0.25], FLOAT),
    # An instance with no requests has no points.
    **{f"{m.kind}-none": (m, [], EXACT) for m in (LineMetric(), RingMetric(H), MatrixMetric(((0,),)))},
}


@pytest.mark.parametrize("metric, points, mode", GRID_CASES.values(), ids=GRID_CASES)
def test_grid_is_the_distance_of_every_pair(metric, points, mode, monkeypatch):
    """Exact mode: each entry over the scale is the distance.  Float mode:
    each entry is the distance, bit for bit.  Neither calls ``distance``."""
    calls = []
    distance = type(metric).distance
    monkeypatch.setattr(type(metric), "distance", lambda self, a, b: (calls.append((a, b)), distance(self, a, b))[1])
    scale, rows = metric.grid(points, mode)
    monkeypatch.undo()
    n = len(points)
    assert len(rows) == n and all(len(row) == n for row in rows)
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            d = metric.distance(p, q)
            if mode == EXACT:
                assert type(rows[i][j]) is int and Fraction(rows[i][j], scale) == d, (p, q)
            else:
                assert type(rows[i][j]) is type(d) and repr(rows[i][j]) == repr(d), (p, q)
    assert calls == []
    assert (scale is None) == (mode == FLOAT)


def test_the_plane_has_no_exact_grid():
    with pytest.raises(InvalidPointError):
        EuclideanMetric().grid([(0, 0)], EXACT)


def _float_instances():
    """The float instances of the benchmark's float-plane corpus at seeds 1
    and 2, the near-tie family, and the acceptance corpus's line, ring and
    matrix instances read in float mode."""
    from test_engine import perfbench_instances
    from test_event_search import near_tie_instance

    out = [inst for seed in (1, 2) for inst in perfbench_instances(seed, ["float-plane"])]
    out += [near_tie_instance(seed) for seed in range(200)]
    for seed in range(168):
        for kind in ("line", "matrix", "ring"):
            variant = "mbpmd" if seed % 2 else "mpmd"
            doc = json.loads(instance_json(gen_random_instance(seed=seed, m=seed % 5 + 1, variant=variant, metric_kind=kind)))
            out.append(parse_instance({**doc, "mode": FLOAT}))
    return out


def test_float_grid_is_the_per_pair_distance_table():
    """Each instance's grid is, bit for bit and type for type, the table of
    ``distance`` over its distinct positions."""
    kinds = set()
    for inst in _float_instances():
        kinds.add(inst.metric.kind)
        points = sorted({r.pos for r in inst.requests})
        scale, rows = inst.metric.grid(points, FLOAT)
        table = [[inst.metric.distance(p, q) for q in points] for p in points]
        assert [[(type(x), repr(x)) for x in row] for row in rows] == [[(type(x), repr(x)) for x in row] for row in table]
    assert kinds == {"euclidean", "line", "ring", "matrix"}
