import hashlib
import json
from fractions import Fraction

import pytest

from delaymatch.generators import gen_random_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD, edge_cost, make_instance
from delaymatch.offline import (
    BRUTE_LIMIT,
    BruteForceSizeError,
    VariantError,
    opt_brute,
    opt_hungarian,
)
from delaymatch.scalars import EXACT, dump_scalar

LINE = {"kind": "line"}


def test_brute_picks_the_cheaper_pairing():
    # distance pairing (0-1, 2-3) costs 2 + 2; crossing (0-2, 1-3) costs 2 + 2 + waits
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (2, 0, 0), (10, 0, 0), (12, 0, 0)])
    sol = opt_brute(inst)
    assert sol.value == 4
    assert sol.pairs == ((0, 1), (2, 3))
    assert sol.method == "brute"


def test_brute_counts_waiting_between_arrivals():
    # matching the co-located pair still pays the arrival gap
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (0, 3, 0)])
    sol = opt_brute(inst)
    assert sol.value == 3


def test_brute_respects_polarity():
    inst = make_instance(
        MBPMD, LINE, [(0, 0, 1), (0, 0, 1), (5, 0, -1), (5, 0, -1)], mode="exact"
    )
    sol = opt_brute(inst)
    assert sol.value == 10
    assert sol.pairs == ((0, 2), (1, 3))


def test_brute_empty_instance():
    inst = make_instance(MPMD, LINE, [])
    sol = opt_brute(inst)
    assert sol.value == 0
    assert sol.pairs == ()


def test_brute_refuses_oversized_instances():
    inst = gen_random_instance(seed=0, m=BRUTE_LIMIT // 2 + 1, variant=MPMD)
    with pytest.raises(BruteForceSizeError):
        opt_brute(inst)


def test_hungarian_requires_bipartite_variant():
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (1, 0, 0)])
    with pytest.raises(VariantError):
        opt_hungarian(inst)


def test_hungarian_matches_brute_on_small_instances():
    for seed in range(40):
        inst = gen_random_instance(
            seed=seed, m=1 + seed % 5, variant=MBPMD, metric_kind=("line", "ring", "matrix")[seed % 3]
        )
        b = opt_brute(inst)
        h = opt_hungarian(inst)
        assert h.value == b.value, (seed, h.value, b.value)
        assert h.method == "hungarian"


def test_hungarian_on_tightness_family():
    for m in (4, 10):
        inst = gen_tightness_instance(m, variant=MBPMD)
        assert opt_hungarian(inst).value == 2 * (1 + Fraction(m - 1, m))


def test_hungarian_pairs_form_a_perfect_matching():
    inst = gen_random_instance(seed=5, m=6, variant=MBPMD, metric_kind="line")
    sol = opt_hungarian(inst)
    seen = [u for pair in sol.pairs for u in pair]
    assert sorted(seen) == list(range(12))
    for u, v in sol.pairs:
        assert inst.eligible(u, v)


def test_solvers_agree_and_price_their_pairs():
    """On small exact instances of every exact metric kind, both variants and
    ten seeds, the two solvers return the same optimum, each value is the
    ``Fraction`` sum of ``edge_cost`` over the returned pairs, and the
    solutions are the ones the solvers gave in ``Fraction`` arithmetic
    (pinned by digest)."""
    rows = []
    for kind in ("line", "ring", "matrix"):
        for variant in (MPMD, MBPMD):
            for seed in range(10):
                inst = gen_random_instance(seed=seed, m=1 + seed % 6, variant=variant, metric_kind=kind)
                assert len(inst.requests) <= BRUTE_LIMIT
                sols = [opt_brute(inst)]
                if variant == MBPMD:
                    sols.append(opt_hungarian(inst))
                    assert sols[1].value == sols[0].value, (kind, seed)
                for sol in sols:
                    priced = sum((Fraction(edge_cost(inst, u, v)) for u, v in sol.pairs), Fraction(0))
                    assert sol.value == priced, (kind, variant, seed, sol.method)
                    rows.append([kind, variant, seed, sol.method, [list(p) for p in sol.pairs], dump_scalar(sol.value, EXACT)])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "096e05d041d934a54cc74710b4b8e18742dc71a8703b2afb9b6114d7295fe441"
