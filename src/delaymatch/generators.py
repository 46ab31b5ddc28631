"""Instance generators: adversarial constructions and seeded random corpora."""

from __future__ import annotations

import random
from fractions import Fraction

from .instance import MBPMD, MPMD, Instance, InstanceError, make_instance
from .metric import EuclideanMetric, LineMetric, MatrixMetric, RingMetric
from .scalars import EXACT, FLOAT


def gen_tightness_instance(m: int, variant: str = MPMD) -> Instance:
    """Two-point stress schedule on which the dual-growth engine pays about
    m/2 times the offline optimum.

    Points p, q at distance 2.  With eps = 1/m, a request lands on each point
    at time 0 and then at 1 + (2j-3)*eps for j = 2..m.  In the bipartite
    variant the requests at p alternate +, -, +, ... and q mirrors them with
    opposite signs, so every co-released pair is eligible.
    """
    if m < 2 or m % 2 != 0:
        raise InstanceError(f"tightness schedule needs an even m >= 2, got {m}")
    eps = Fraction(1, m)
    metric = MatrixMetric(dist=((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))))
    requests = []
    for j in range(1, m + 1):
        t = Fraction(0) if j == 1 else 1 + (2 * j - 3) * eps
        sgn_p = 0 if variant == MPMD else (1 if j % 2 == 1 else -1)
        requests.append((0, t, sgn_p))
        requests.append((1, t, -sgn_p))
    return make_instance(variant, metric, requests, mode=EXACT)


def gen_ring_instance(m: int, covered_half: str = "cw") -> Instance:
    """Ring schedule whose early requests pin down a maximally stretched
    greedy spanning path, followed by cheap repeat pairs at its two leaves.

    Circumference 1, eps = 1/(m * 2^(m-1)).  Phase 1 places two antipodal
    requests at time 0 and then m/2 - 2 requests, the j-th at time
    (2(j-1)/m) * eps, each at the midpoint of the arc not yet covered; the
    covered arc starts as the half from 0 going clockwise to 1/2
    (``covered_half='ccw'`` picks the other half) and extends to each new
    midpoint.  Phase 2 repeats all phase-1 positions at time eps.  Phase 3
    releases m/2 pairs at the two leaves of the covered arc, pair k at time
    eps * (1 + k).
    """
    if m < 6 or m % 2 != 0:
        raise InstanceError(f"ring schedule needs an even m >= 6, got {m}")
    if covered_half not in ("cw", "ccw"):
        raise InstanceError(f"covered_half must be 'cw' or 'ccw', got {covered_half!r}")
    h = Fraction(1)
    eps = Fraction(1, m * 2 ** (m - 1))
    metric = RingMetric(h=h)

    positions = [Fraction(0), Fraction(1, 2)]
    times = [Fraction(0), Fraction(0)]
    # Track the covered arc as [start, end] clockwise; growth happens at `end`.
    start, end = (Fraction(0), Fraction(1, 2))
    if covered_half == "ccw":
        start, end = (Fraction(1, 2), Fraction(1))
    for j in range(3, m // 2 + 1):
        gap = h - (end - start)
        mid = (end + gap / 2) % h
        positions.append(mid)
        times.append(Fraction(2 * (j - 1), m) * eps)
        end = end + gap / 2  # un-normalized so the arc length stays end - start

    requests = [(pos, t, 0) for pos, t in zip(positions, times)]
    requests += [(pos, eps, 0) for pos in positions]
    p, q = start % h, end % h
    for k in range(1, m // 2 + 1):
        t = eps * (1 + k)
        requests.append((p, t, 0))
        requests.append((q, t, 0))
    return make_instance(MPMD, metric, requests, mode=EXACT)


def gen_random_instance(seed: int, m: int, variant: str = MPMD, metric_kind: str = "line") -> Instance:
    """Seed-deterministic random instance with sorted arrivals and, for the
    bipartite variant, balanced polarities.

    Arrival times lie in [0, 10] and positions span 10 units.  Exact metrics
    draw both from the grid of eighths so the rationals stay small; the
    euclidean kind switches the instance to float mode.
    """
    if m < 1:
        raise InstanceError(f"m must be >= 1, got {m}")
    rng = random.Random(seed)
    n = 2 * m
    grid = 8
    time_horizon = spread = 10

    if metric_kind == "euclidean":
        mode = FLOAT
        metric = EuclideanMetric()
        times = sorted(rng.uniform(0, time_horizon) for _ in range(n))
        positions = [(rng.uniform(0, spread), rng.uniform(0, spread)) for _ in range(n)]
    elif metric_kind == "line":
        mode = EXACT
        metric = LineMetric()
        times = sorted(Fraction(rng.randint(0, time_horizon * grid), grid) for _ in range(n))
        positions = [Fraction(rng.randint(0, spread * grid), grid) for _ in range(n)]
    elif metric_kind == "ring":
        mode = EXACT
        metric = RingMetric(h=Fraction(spread))
        times = sorted(Fraction(rng.randint(0, time_horizon * grid), grid) for _ in range(n))
        positions = [Fraction(rng.randint(0, spread * grid - 1), grid) for _ in range(n)]
    elif metric_kind == "matrix":
        mode = EXACT
        npts = rng.randint(2, 5)
        raw = [[Fraction(0)] * npts for _ in range(npts)]
        for i in range(npts):
            for j in range(i + 1, npts):
                d = Fraction(rng.randint(1, spread * grid), grid)
                raw[i][j] = raw[j][i] = d
        for k in range(npts):  # metric closure keeps the triangle inequality
            for i in range(npts):
                for j in range(npts):
                    via = raw[i][k] + raw[k][j]
                    if via < raw[i][j]:
                        raw[i][j] = via
        metric = MatrixMetric(dist=tuple(tuple(row) for row in raw))
        times = sorted(Fraction(rng.randint(0, time_horizon * grid), grid) for _ in range(n))
        positions = [rng.randint(0, npts - 1) for _ in range(n)]
    else:
        raise InstanceError(f"unknown metric kind {metric_kind!r}")

    if variant == MBPMD:
        sgns = [1] * m + [-1] * m
        rng.shuffle(sgns)
    elif variant == MPMD:
        sgns = [0] * n
    else:
        raise InstanceError(f"unknown variant {variant!r}")

    requests = list(zip(positions, times, sgns))
    return make_instance(variant, metric, requests, mode=mode)
