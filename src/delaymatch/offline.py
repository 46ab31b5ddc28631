"""Offline optimum: the min-cost perfect matching an all-knowing solver pays.

A matched pair is served as soon as both endpoints have arrived, so its cost
is dist + |arrival gap| -- exactly the constraint budget.  Two routes: an
exhaustive search over perfect matchings (any variant, up to 12 requests) and
an assignment solver for the bipartite variant (any size, exact arithmetic).

Both solvers read the pair costs from ``Instance.grid`` (``Grid.cost``): in
exact mode ints, every budget times the grid's scale ``S`` (the lcm of the
denominators of the arrival times and of the metric's inputs), built on ints
from the first distance, with the optimum returned as ``Fraction(total, S)``
(``Grid.value``), an empty sum included.  Scaling by a positive constant
keeps every comparison, so ties break, and pairs come out, as over the
rationals.  Float mode solves on the budgets as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import MBPMD, Instance
from .scalars import Scalar

BRUTE_LIMIT = 12


class BruteForceSizeError(ValueError):
    """Instance too large for exhaustive matching enumeration."""


class VariantError(ValueError):
    """Solver called on a variant it does not support."""


@dataclass(frozen=True)
class OptSolution:
    pairs: tuple  # ((u, v), ...) with u < v, sorted
    value: Scalar
    method: str  # 'brute' | 'hungarian'


def opt_brute(inst: Instance) -> OptSolution:
    """Global minimum by enumerating perfect matchings in lexicographic order.

    Ties keep the lexicographically least pair list.  Refuses instances with
    more than 12 requests: the search visits (2m-1)!! matchings in the plain
    variant and m! in the bipartite one.
    """
    n = len(inst.requests)
    if n > BRUTE_LIMIT:
        hint = (
            "use opt_hungarian"
            if inst.variant == MBPMD
            else "no exact fallback for large mpmd instances"
        )
        raise BruteForceSizeError(
            f"{n} requests exceed the brute-force limit of {BRUTE_LIMIT}; {hint}"
        )
    grid = inst.grid

    best_pairs = None
    best_value = None

    def search(unmatched, chosen, acc):
        nonlocal best_pairs, best_value
        if not unmatched:
            if best_value is None or acc < best_value:
                best_value = acc
                best_pairs = tuple(chosen)
            return
        u = unmatched[0]
        rest = unmatched[1:]
        for i, v in enumerate(rest):
            if not inst.eligible(u, v):
                continue
            chosen.append((u, v))
            search(rest[:i] + rest[i + 1 :], chosen, acc + grid.cost(u, v))
            chosen.pop()

    search(tuple(range(n)), [], 0)
    if best_pairs is None:
        # Unreachable for valid instances: balanced polarity always admits
        # a perfect matching.
        raise VariantError("no eligible perfect matching exists")
    return OptSolution(pairs=best_pairs, value=grid.value(best_value), method="brute")


def opt_hungarian(inst: Instance) -> OptSolution:
    """Optimal assignment of positive to negative requests (bipartite only).

    Runs in the instance's numeric mode; with exact rationals the value is
    exact and agrees with opt_brute wherever both run.
    """
    if inst.variant != MBPMD:
        raise VariantError("the assignment solver needs the bipartite variant")
    pos = [r.index for r in inst.requests if r.sgn == 1]
    neg = [r.index for r in inst.requests if r.sgn == -1]
    grid = inst.grid
    matrix = [[grid.cost(p, q) for q in neg] for p in pos]
    assignment, value = _solve_assignment(matrix)
    pairs = sorted(
        (min(pos[i], neg[j]), max(pos[i], neg[j])) for i, j in assignment
    )
    return OptSolution(pairs=tuple(pairs), value=grid.value(value), method="hungarian")


def _solve_assignment(matrix):
    """Min-cost perfect assignment via shortest augmenting paths with
    row/column potentials.  Works over ints, Fractions and floats.

    Returns ([(row, col), ...], total cost).
    """
    n = len(matrix)
    big = sum(abs(c) for row in matrix for c in row) + 1  # acts as +infinity
    u = [0] * (n + 1)  # row potentials, 1-based
    v = [0] * (n + 1)  # column potentials
    match = [0] * (n + 1)  # match[col] = row assigned to col, 0 = free
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [big] * (n + 1)
        used = [False] * (n + 1)
        way = [0] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = big
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = matrix[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = [(match[j] - 1, j - 1) for j in range(1, n + 1)]
    total = sum(matrix[i][j] for i, j in assignment)
    return assignment, total
