"""Request sequences, eligibility, validation and JSON serialization.

An instance is a metric, a numeric mode and an even-length list of requests
in nondecreasing arrival order.  The bipartite variant ("mbpmd") carries
balanced +1/-1 polarities; the plain variant ("mpmd") has polarity 0
everywhere.  Every scalar is of the mode (``scalars.is_scalar``: exact mode
holds no float, float mode no NaN, infinity or int beyond binary64 range),
checked once at construction, positions through ``Metric.check_point``.
Instances are immutable after construction.  ``grid`` puts the instance on
one integer grid in exact mode: the distinct positions' distance table and
the arrival times, computed on ints from the first distance.  ``budgets``,
the pair budgets on that grid (``Budgets``), is built on first use and
shared by the certifier and the offline solvers; the engine builds its own
table from its own call to ``grid``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .metric import (
    Metric,
    InvalidPointError,
    default_mode,
    dump_metric,
    parse_metric,
    validate_metric,
)
from .scalars import EXACT, MODES, Scalar, ScalarError, dump_scalar, is_scalar, parse_scalar

MPMD = "mpmd"
MBPMD = "mbpmd"
VARIANTS = (MPMD, MBPMD)


class InstanceError(ValueError):
    """The document or constructor arguments do not form a valid instance."""


def _unique_keys(pairs: list) -> dict:
    """An object's ``(key, value)`` pairs as a dict; ValueError names a key
    given twice, which ``json.loads`` would let the last value win."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return doc


# ``json.loads`` of a str, but an object that repeats a key raises ValueError.
# Instance documents, trace lines and summaries are read through it.
decode_json = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


@dataclass(frozen=True)
class Request:
    """One arriving demand: stable index, location, arrival time, polarity."""

    index: int
    pos: object
    atime: Scalar
    sgn: int = 0


@dataclass(frozen=True)
class Instance:
    variant: str
    mode: str
    metric: Metric
    requests: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _validate(self)

    @property
    def m(self) -> int:
        return len(self.requests) // 2

    def eligible(self, u: int, v: int) -> bool:
        """Whether requests u and v may be matched with each other."""
        if u == v:
            return False
        return self.requests[u].sgn == -self.requests[v].sgn

    def grid(self) -> tuple:
        """``(scale, pid, dist, atime)``: the instance on one grid.  ``pid[u]``
        indexes request u's position among the distinct positions, first seen
        first; ``dist`` is ``Metric.grid`` over those positions, and ``atime``
        the arrival times.  In exact mode every value is an int times
        ``scale``: the metric's grid scale times the least ``k`` that puts the
        arrival times on the grid too.  In float mode ``scale`` is None and
        the values are the metric's and the instance's.  Float budgets that
        may overflow are refused (``require_finite_budgets``).  Each call
        builds new lists."""
        reqs = self.requests
        ids = {}
        pid = [ids.setdefault(r.pos, len(ids)) for r in reqs]
        scale, dist = self.metric.grid(list(ids), self.mode)
        atime = [r.atime for r in reqs]
        require_finite_budgets(self.mode, dist, atime)
        if scale is not None:
            den = lcm(*{t.denominator for t in atime})
            k = den // gcd(scale, den)
            if k != 1:
                scale *= k
                dist = [[d * k for d in row] for row in dist]
            atime = [t.numerator * (scale // t.denominator) for t in atime]
        return scale, pid, dist, atime

    @cached_property
    def budgets(self) -> Budgets:
        """The instance on its grid; built once per instance, never mutated."""
        scale, pid, dist, atime = self.grid()
        sgn = [r.sgn for r in self.requests]
        cost = {
            (u, v): row[pv] + abs(atime[u] - atime[v])
            for u, row in enumerate(dist[p] for p in pid)
            for v, pv in enumerate(pid[u + 1 :], u + 1)
            if sgn[u] == -sgn[v]
        }
        return Budgets(scale, tuple(atime), cost)


@dataclass(frozen=True)
class Budgets:
    """The arrival times and, for each eligible pair u < v in lexicographic
    order, its ``edge_cost``: in exact mode as ints times the scale of
    ``Instance.grid``, the lcm of the denominators of the arrival times and
    of the metric's inputs (positions, a ring's ``h``, the matrix entries
    between the positions); in float mode as they are."""

    scale: Optional[int]  # None in float mode
    atime: tuple
    cost: dict

    def value(self, x) -> Scalar:
        """The value a sum ``x`` of this table's entries stands for."""
        return x if self.scale is None else Fraction(x, self.scale)


def require_finite_budgets(mode, dist, atimes) -> None:
    """Refuse float budgets that may overflow: a budget is at most the largest
    distance in the rows ``dist`` plus the arrival span.  Refuse too a float
    clock that may overflow: the engine locates the next tight time as twice
    the clock plus twice the time left, and once every request has arrived
    that sum is at most twice the last arrival time plus the budget bound
    (arrival times are sorted and not negative).  Refuse last a float total
    cost that may overflow: of the ``m`` matched pairs, the connection cost
    is at most ``m`` times the largest distance, and the waiting cost equals
    the dual objective, which by weak duality is at most the offline optimum,
    itself at most ``m`` budgets (match the requests any eligible way), so
    the total is at most ``2 * m`` times the budget bound."""
    if mode == EXACT or not atimes:
        return
    bound = max(map(max, dist)) + (atimes[-1] - atimes[0])
    if not is_scalar(bound, mode):
        raise InstanceError("float budgets overflow: the largest distance plus the arrival span exceeds binary64 range")
    if not is_scalar(2 * atimes[-1] + bound, mode):
        raise InstanceError(
            "float clock overflow: twice the largest |arrival time| plus the budget bound exceeds binary64 range"
        )
    if not is_scalar(len(atimes) * bound, mode):
        raise InstanceError("float cost overflow: 2 * m times the budget bound exceeds binary64 range")


def edge_cost(inst: Instance, u: int, v: int) -> Optional[Scalar]:
    """Constraint budget dist + |arrival gap|, or None for an ineligible pair.

    Ineligibility (equal nonzero polarities) is a value, not a failure.
    """
    n = len(inst.requests)
    if not (0 <= u < n and 0 <= v < n):
        raise InstanceError(f"request index out of range: ({u}, {v})")
    if u == v:
        raise InstanceError(f"edge endpoints must differ, got ({u}, {v})")
    if not inst.eligible(u, v):
        return None
    ru, rv = inst.requests[u], inst.requests[v]
    return inst.metric.distance(ru.pos, rv.pos) + abs(ru.atime - rv.atime)


def surplus(inst: Instance, members) -> int:
    """Requests left over by a maximum matching inside ``members``.

    Plain variant: parity of the set size.  Bipartite: absolute polarity
    imbalance.
    """
    members = set(members)
    for u in members:
        if not 0 <= u < len(inst.requests):
            raise InstanceError(f"request index out of range: {u}")
    if inst.variant == MPMD:
        return len(members) % 2
    return abs(sum(inst.requests[u].sgn for u in members))


def _validate(inst: Instance) -> None:
    if inst.variant not in VARIANTS:
        raise InstanceError(f"unknown variant {inst.variant!r}")
    if inst.mode not in MODES:
        raise InstanceError(f"unknown mode {inst.mode!r}")
    if inst.metric.kind == "euclidean" and inst.mode == EXACT:
        raise InstanceError("euclidean metrics produce irrational distances; use float mode")
    metric = inst.metric

    def require_scalar(x, what):
        if not is_scalar(x, inst.mode):
            raise InstanceError(f"{what} {x!r} is not a scalar of {inst.mode} mode")

    if metric.kind == "ring":
        require_scalar(metric.h, "ring circumference")
    if metric.kind == "matrix":
        for i, row in enumerate(metric.dist):
            for j, x in enumerate(row):
                require_scalar(x, f"matrix entry ({i}, {j})")
    violation = validate_metric(metric)
    if violation is not None:
        raise InstanceError(f"metric invalid: {violation.describe()}")
    if len(inst.requests) % 2 != 0:
        raise InstanceError(f"request count must be even, got {len(inst.requests)}")
    prev = None
    balance = 0
    for i, req in enumerate(inst.requests):
        if req.index != i:
            raise InstanceError(f"request {i} carries index {req.index}")
        require_scalar(req.atime, f"request {i}: arrival time")
        try:
            metric.check_point(req.pos, inst.mode)
        except InvalidPointError as exc:
            raise InstanceError(f"request {i}: {exc}") from None
        if req.atime < 0:
            raise InstanceError(f"request {i}: negative arrival time {req.atime}")
        if prev is not None and req.atime < prev:
            raise InstanceError(
                f"arrival times must be nondecreasing; request {i} arrives at "
                f"{req.atime} after {prev}"
            )
        prev = req.atime
        if inst.variant == MPMD:
            if req.sgn != 0:
                raise InstanceError(f"request {i}: polarity must be 0 in mpmd")
        else:
            if req.sgn not in (-1, 1):
                raise InstanceError(f"request {i}: polarity must be +1/-1 in mbpmd")
            balance += req.sgn
    if inst.variant == MBPMD and balance != 0:
        raise InstanceError(f"unbalanced polarities: sum of signs is {balance}")


def make_instance(variant, metric, requests, mode=None) -> Instance:
    """Build an instance from (pos, atime, sgn) triples, indexing in order.

    ``metric`` may be a Metric or a metric document like {"kind": "line"}.
    """
    if mode is None:
        mode = default_mode(metric.get("kind") if isinstance(metric, dict) else metric.kind)
    if isinstance(metric, dict):
        try:
            metric = parse_metric(metric, mode)
        except (InvalidPointError, ScalarError) as exc:
            raise InstanceError(f"bad metric: {exc}") from None
    reqs = tuple(
        Request(index=i, pos=pos, atime=atime, sgn=sgn)
        for i, (pos, atime, sgn) in enumerate(requests)
    )
    return Instance(variant=variant, mode=mode, metric=metric, requests=reqs)


def parse_instance(doc, default: str = None) -> Instance:
    """Validate an instance document (dict or JSON text) into an Instance.

    ``default`` overrides the metric-derived default mode when the document
    does not declare one (the CLI wires DM_MODE through here).
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = decode_json(doc if isinstance(doc, str) else doc.decode())
        except ValueError as exc:  # bad JSON, a repeated key or bytes that are not UTF-8
            raise InstanceError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceError(f"instance document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"variant", "mode", "metric", "requests"}
    if unknown:
        raise InstanceError(f"unknown instance fields: {sorted(unknown)}")
    variant = doc.get("variant")
    if variant not in VARIANTS:
        raise InstanceError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if "metric" not in doc:
        raise InstanceError("instance document lacks a 'metric'")

    mode = doc.get("mode")
    if mode is None:
        # Payload scalars are parsed in the mode we settle on, so peek at the
        # kind before constructing the metric.
        kind = doc["metric"].get("kind") if isinstance(doc["metric"], dict) else None
        mode = default if default is not None else default_mode(kind)
    if mode not in MODES:
        raise InstanceError(f"mode must be one of {MODES}, got {mode!r}")

    try:
        metric = parse_metric(doc["metric"], mode)
    except (InvalidPointError, ScalarError) as exc:
        raise InstanceError(f"bad metric: {exc}") from None

    raw = doc.get("requests")
    if not isinstance(raw, list):
        raise InstanceError("'requests' must be a list")
    reqs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or not {"pos", "atime"} <= set(entry):
            raise InstanceError(f"request {i} must be an object with pos and atime")
        if unknown := set(entry) - {"pos", "atime", "sgn"}:
            raise InstanceError(f"request {i}: unknown fields {sorted(unknown)}")
        sgn = entry.get("sgn", 0)
        if isinstance(sgn, bool) or not isinstance(sgn, int):
            raise InstanceError(f"request {i}: sgn must be an integer")
        try:
            pos = metric.parse_point(entry["pos"], mode)
            atime = parse_scalar(entry["atime"], mode)
        except (InvalidPointError, ScalarError) as exc:
            raise InstanceError(f"request {i}: {exc}") from None
        reqs.append(Request(index=i, pos=pos, atime=atime, sgn=sgn))
    return Instance(variant=variant, mode=mode, metric=metric, requests=tuple(reqs))


def dump_instance(inst: Instance) -> dict:
    """The JSON-ready document; ``parse_instance`` round-trips it exactly."""
    return {
        "variant": inst.variant,
        "mode": inst.mode,
        "metric": dump_metric(inst.metric, inst.mode),
        "requests": [
            {
                "pos": inst.metric.dump_point(r.pos, inst.mode),
                "atime": dump_scalar(r.atime, inst.mode),
                "sgn": r.sgn,
            }
            for r in inst.requests
        ],
    }


def instance_json(inst: Instance) -> str:
    """Canonical serialized form (byte-deterministic for equal instances)."""
    return json.dumps(dump_instance(inst), indent=2) + "\n"
