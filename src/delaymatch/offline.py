"""Offline optimum: the min-cost perfect matching an all-knowing solver pays.

A matched pair is served as soon as both endpoints have arrived, so its cost
is dist + |arrival gap| -- exactly the constraint budget.  Two routes: an
exhaustive search over perfect matchings (any variant, up to 12 requests) and
an assignment solver for the bipartite variant (any size, exact arithmetic).

In exact mode both solvers work on Python ints: every budget times ``S``, the
lcm of the budgets' denominators, and the optimum is returned as
``Fraction(total, S)``.  Scaling by a positive constant keeps every
comparison, so ties break, and pairs come out, as over the rationals.  Float
mode solves on the budgets as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .instance import MBPMD, Instance
from .scalars import EXACT, Scalar

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
    if n == 0:
        return OptSolution(pairs=(), value=0, method="brute")

    costs, scale = _scaled_budgets(inst)

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
            c = costs.get((u, v))
            if c is None:
                continue
            chosen.append((u, v))
            search(rest[:i] + rest[i + 1 :], chosen, acc + c)
            chosen.pop()

    search(tuple(range(n)), [], 0)
    if best_pairs is None:
        # Unreachable for valid instances: balanced polarity always admits
        # a perfect matching.
        raise VariantError("no eligible perfect matching exists")
    return OptSolution(pairs=best_pairs, value=_unscaled(best_value, scale), method="brute")


def opt_hungarian(inst: Instance) -> OptSolution:
    """Optimal assignment of positive to negative requests (bipartite only).

    Runs in the instance's numeric mode; with exact rationals the value is
    exact and agrees with opt_brute wherever both run.
    """
    if inst.variant != MBPMD:
        raise VariantError("the assignment solver needs the bipartite variant")
    pos = [r.index for r in inst.requests if r.sgn == 1]
    neg = [r.index for r in inst.requests if r.sgn == -1]
    if not pos:
        return OptSolution(pairs=(), value=0, method="hungarian")
    cost, scale = _scaled_budgets(inst)
    matrix = [[cost[min(p, q), max(p, q)] for q in neg] for p in pos]
    assignment, value = _solve_assignment(matrix)
    pairs = sorted(
        (min(pos[i], neg[j]), max(pos[i], neg[j])) for i, j in assignment
    )
    return OptSolution(pairs=tuple(pairs), value=_unscaled(value, scale), method="hungarian")


def _scaled_budgets(inst: Instance):
    """``({(u, v): budget}, S)`` over the eligible pairs: in exact mode each
    budget times ``S``, the lcm of their denominators, as an int; in float
    mode the budgets as they are, with S None."""
    if inst.mode != EXACT:
        return {(u, v): c for u, v, c in inst.budgets}, None
    budgets = [(u, v, Fraction(c) if isinstance(c, float) else c) for u, v, c in inst.budgets]
    scale = lcm(*{c.denominator for _, _, c in budgets})
    return {(u, v): c.numerator * (scale // c.denominator) for u, v, c in budgets}, scale


def _unscaled(total, scale):
    """The value a solver's ``total`` over ``_scaled_budgets`` stands for."""
    return total if scale is None else Fraction(total, scale)


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
