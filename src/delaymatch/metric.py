"""Metric spaces instances live on.

Four kinds: an explicit distance matrix, the real line, the Euclidean plane
and a ring of fixed circumference.  Matrix/line/ring support exact rational
arithmetic; the plane produces irrational distances and is float-only.
``check_point`` asks ``scalars.is_scalar`` whether a position or coordinate
is a scalar of the instance's mode; no kind keeps a type rule of its own.
``grid`` tabulates the distances over a list of distinct points in
comprehensions of its kind's distance expression, with no method call per
pair; in exact mode line, ring and matrix put their inputs on one integer
grid first, so no Fraction arithmetic builds the table.  Metric objects are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .scalars import EXACT, FLOAT, Scalar, dump_scalar, is_scalar, parse_scalar


class InvalidPointError(ValueError):
    """A point does not fit the declared metric kind."""


@dataclass(frozen=True)
class MetricViolation:
    """Names the metric axiom a distance matrix breaks, and where."""

    axiom: str  # 'shape' | 'identity' | 'symmetry' | 'triangle' | 'negative'
    points: tuple

    def describe(self) -> str:
        return f"{self.axiom} violated at {self.points}"


class Metric:
    """Common surface: ``distance``, ``grid``, ``check_point``, ``validate``."""

    kind: str

    def distance(self, a, b) -> Scalar:
        raise NotImplementedError

    def grid(self, points, mode: str) -> tuple:
        """``(scale, rows)``: the square table of distances over the distinct
        ``points``.  In float mode ``scale`` is None and ``rows[i][j]`` is
        ``distance(points[i], points[j])`` bit for bit, from the kind's own
        expression (``_rows``) with no method call per pair.  In exact mode
        ``rows[i][j]`` is an int that stands for the distance times the int
        ``scale``; the kinds compute it on their scaled inputs
        (``_exact_grid``), with no Fraction arithmetic."""
        if mode == EXACT:
            return self._exact_grid(points)
        return None, self._rows(points)

    def _rows(self, points) -> list:
        raise NotImplementedError

    def _exact_grid(self, points) -> tuple:
        raise InvalidPointError(f"{self.kind} metric has no exact distances")

    def check_point(self, p, mode: str) -> None:
        """Raise InvalidPointError unless ``p`` is a point of this metric in ``mode``."""
        raise NotImplementedError

    def validate(self) -> Optional[MetricViolation]:
        """None when the metric axioms hold; a report otherwise."""
        return None

    def parse_point(self, value, mode: str):
        raise NotImplementedError

    def dump_point(self, p, mode: str):
        raise NotImplementedError

    def payload(self, mode: str) -> dict:
        """JSON payload merged into ``{"kind": ...}``."""
        return {}


@dataclass(frozen=True)
class LineMetric(Metric):
    """The real line; points are scalars, distance is absolute difference."""

    kind: str = "line"

    def distance(self, a, b):
        return abs(a - b)

    def _rows(self, points):
        return [[abs(a - b) for b in points] for a in points]

    def _exact_grid(self, points):
        # The scale is the lcm of the positions' denominators.
        scale, xs = _on_grid(points)
        return scale, self._rows(xs)

    def check_point(self, p, mode):
        if not is_scalar(p, mode):
            raise InvalidPointError(f"line point must be a scalar of {mode} mode, got {p!r}")

    def parse_point(self, value, mode):
        return parse_scalar(value, mode)

    def dump_point(self, p, mode):
        return dump_scalar(p, mode)


@dataclass(frozen=True)
class RingMetric(Metric):
    """A circle of circumference ``h``; distance is the shorter arc.

    Point values are arc positions, normalized into [0, h) at construction
    so equal positions compare equal.
    """

    h: Scalar
    kind: str = "ring"

    def __post_init__(self):
        if self.h <= 0:
            raise InvalidPointError(f"ring circumference must be positive, got {self.h}")

    def normalize(self, p):
        q = p % self.h
        # A float just below 0 leaves a remainder that rounds up to h.
        return q - self.h if q == self.h else q

    def distance(self, a, b):
        d = abs(a - b)
        return min(d, self.h - d)

    def _rows(self, points, h=None):
        # ``distance`` with ``h`` for the circumference, the scaled one on the exact grid.
        h = self.h if h is None else h
        return [[min(d, h - d) for d in [abs(a - b) for b in points]] for a in points]

    def _exact_grid(self, points):
        # The scale is the lcm of the denominators of h and the positions.
        scale, (h, *xs) = _on_grid([self.h, *points])
        return scale, self._rows(xs, h)

    def check_point(self, p, mode):
        if not is_scalar(p, mode):
            raise InvalidPointError(f"ring point must be a scalar of {mode} mode, got {p!r}")
        if not (0 <= p < self.h):
            raise InvalidPointError(f"ring position {p} outside [0, {self.h})")

    def parse_point(self, value, mode):
        return self.normalize(parse_scalar(value, mode))

    def dump_point(self, p, mode):
        return dump_scalar(p, mode)

    def payload(self, mode):
        return {"h": dump_scalar(self.h, mode)}


@dataclass(frozen=True)
class EuclideanMetric(Metric):
    """The plane; points are (x, y) pairs.  Float mode only."""

    kind: str = "euclidean"

    def distance(self, a, b):
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def _rows(self, points):
        # One hypot per unordered pair, mirrored: the hypot calls are most of the cost.
        hypot = math.hypot
        upper = [[hypot(ax - bx, ay - by) for bx, by in points[i:]] for i, (ax, ay) in enumerate(points)]
        return [[upper[j][i - j] for j in range(i)] + row for i, row in enumerate(upper)]

    def check_point(self, p, mode):
        if not isinstance(p, tuple) or len(p) != 2 or not all(is_scalar(c, mode) for c in p):
            raise InvalidPointError(f"euclidean point must be an (x, y) pair of {mode} scalars, got {p!r}")

    def parse_point(self, value, mode):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise InvalidPointError(f"euclidean point must be [x, y], got {value!r}")
        return (parse_scalar(value[0], mode), parse_scalar(value[1], mode))

    def dump_point(self, p, mode):
        return [dump_scalar(p[0], mode), dump_scalar(p[1], mode)]


@dataclass(frozen=True)
class MatrixMetric(Metric):
    """An explicit symmetric distance matrix; points are row indices."""

    dist: tuple
    kind: str = "matrix"

    @property
    def size(self) -> int:
        return len(self.dist)

    def distance(self, a, b):
        return self.dist[a][b]

    def _rows(self, points):
        rows = [self.dist[p] for p in points]
        return [[row[q] for q in points] for row in rows]

    def _exact_grid(self, points):
        # The scale is the lcm of the denominators of the entries the points index.
        n = len(points)
        scale, xs = _on_grid([self.dist[p][q] for p in points for q in points])
        return scale, [xs[i * n : (i + 1) * n] for i in range(n)]

    def check_point(self, p, mode):
        if isinstance(p, bool) or not isinstance(p, int):
            raise InvalidPointError(f"matrix point must be an index, got {p!r}")
        if not 0 <= p < self.size:
            raise InvalidPointError(f"matrix index {p} outside 0..{self.size - 1}")

    def validate(self):
        n = self.size
        for row in self.dist:
            if len(row) != n:
                return MetricViolation("shape", (n, len(row)))
        for i in range(n):
            if self.dist[i][i] != 0:
                return MetricViolation("identity", (i,))
            for j in range(n):
                if self.dist[i][j] < 0:
                    return MetricViolation("negative", (i, j))
                if self.dist[i][j] != self.dist[j][i]:
                    return MetricViolation("symmetry", (i, j))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.dist[i][j] > self.dist[i][k] + self.dist[k][j]:
                        return MetricViolation("triangle", (i, j, k))
        return None

    def parse_point(self, value, mode):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidPointError(f"matrix point must be an integer index, got {value!r}")
        return value

    def dump_point(self, p, mode):
        return p

    def payload(self, mode):
        return {"dist": [[dump_scalar(x, mode) for x in row] for row in self.dist]}


def _on_grid(values) -> tuple:
    """``(scale, ints)``: the lcm of the denominators of the exact scalars
    ``values``, and each value times it."""
    scale = math.lcm(*{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def validate_metric(metric: Metric) -> Optional[MetricViolation]:
    """Exhaustive axiom check for matrix metrics; built-ins hold by construction."""
    return metric.validate()


def _refuse_unknown(doc: dict, *fields) -> None:
    """Raise unless ``doc`` has no fields but ``kind`` and ``fields``."""
    unknown = set(doc) - {"kind", *fields}
    if unknown:
        raise InvalidPointError(f"{doc['kind']} metric: unknown fields {sorted(unknown)}")


def parse_metric(doc: dict, mode: str) -> Metric:
    """Build a metric from its JSON form, raising on malformed payloads and
    on fields its kind does not have."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidPointError(f"metric must be an object with a 'kind', got {doc!r}")
    kind = doc["kind"]
    if kind == "line":
        _refuse_unknown(doc)
        return LineMetric()
    if kind == "euclidean":
        _refuse_unknown(doc)
        return EuclideanMetric()
    if kind == "ring":
        _refuse_unknown(doc, "h")
        if "h" not in doc:
            raise InvalidPointError("ring metric needs a circumference 'h'")
        return RingMetric(h=parse_scalar(doc["h"], mode))
    if kind == "matrix":
        _refuse_unknown(doc, "dist")
        rows = doc.get("dist")
        if not isinstance(rows, list) or not rows:
            raise InvalidPointError("matrix metric needs a nonempty 'dist' matrix")
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise InvalidPointError(f"matrix row {i} must be a list, got {row!r}")
        dist = tuple(tuple(parse_scalar(x, mode) for x in row) for row in rows)
        return MatrixMetric(dist=dist)
    raise InvalidPointError(f"unknown metric kind {kind!r}")


def dump_metric(metric: Metric, mode: str) -> dict:
    doc = {"kind": metric.kind}
    doc.update(metric.payload(mode))
    return doc


def default_mode(kind) -> str:
    """The mode of a metric ``kind`` when none is given: exact for
    matrix/line/ring, float for the plane."""
    return FLOAT if kind == "euclidean" else EXACT
