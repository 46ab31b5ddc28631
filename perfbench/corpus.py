"""Workload corpora: the instances each workload runs, derived from its seed.

The seed only feeds the random generator family; the tightness and ring
schedules are fixed by their size, so their pinned references hold on every
seed.  ``tiny`` corpora keep the same shape at a size the self-test can run
in a second.
"""

from __future__ import annotations

from dataclasses import dataclass

ONLINE_EXACT = "online-exact"
CERTIFIED_SWEEP = "certified-sweep"
FLOAT_PLANE = "float-plane"
WORKLOADS = (ONLINE_EXACT, CERTIFIED_SWEEP, FLOAT_PLANE)


@dataclass(frozen=True)
class Spec:
    """One corpus instance: a generator call plus the commands it gets."""

    name: str  # file stem inside the work directory, unique per corpus
    family: str  # tightness | ring | random
    params: tuple  # ((keyword, value), ...) for the generator
    opt: bool = False  # also time `delaymatch opt` on it


def _random(name, seed, m, metric, variant="mpmd", opt=False):
    params = (("seed", seed), ("m", m), ("metric_kind", metric), ("variant", variant))
    return Spec(name, "random", params, opt)


def corpus(workload: str, seed: int, tiny: bool = False) -> list:
    if workload == ONLINE_EXACT:
        return _online_exact(seed, tiny)
    if workload == CERTIFIED_SWEEP:
        return _certified_sweep(seed, tiny)
    if workload == FLOAT_PLANE:
        return _float_plane(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _online_exact(seed, tiny):
    # Three exact-mode regimes: line (the float shadow filters most pairs),
    # the two-point tightness schedule (many simultaneously tight pairs) and
    # the ring schedule (the shadow filters almost nothing; big denominators).
    line_m, tight_m, ring_ms = (8, 6, (6,)) if tiny else (100, 150, (64, 72))
    specs = [_random(f"line-{i}", seed * 100 + i, line_m, "line") for i in range(2 if tiny else 5)]
    specs.append(Spec(f"tightness-{tight_m}", "tightness", (("m", tight_m),)))
    specs += [Spec(f"ring-{m}", "ring", (("m", m),)) for m in ring_ms]
    return specs


def _certified_sweep(seed, tiny):
    sizes = (7,) if tiny else (20, 24, 28, 30)  # 2m > 12 keeps mbpmd on the assignment solver
    specs = []
    for kind in ("line", "ring", "matrix"):
        for variant in ("mpmd", "mbpmd"):
            for i, m in enumerate(sizes):
                specs.append(
                    _random(f"{kind}-{variant}-{i}", seed * 100 + i, m, kind, variant, variant == "mbpmd")
                )
    # Small enough for exhaustive enumeration (2m <= 12).
    brute = ((5, "line", "mpmd"), (6, "line", "mpmd"), (6, "ring", "mbpmd"), (4, "matrix", "mpmd"))
    for i, (m, kind, variant) in enumerate(brute[:1] if tiny else brute):
        specs.append(_random(f"brute-{kind}-{variant}-{i}", seed * 100 + 50 + i, m, kind, variant, True))
    # Float mode, so the certifier's tolerance path runs.
    for i, variant in enumerate(("mpmd", "mbpmd") if tiny else ("mpmd", "mpmd", "mbpmd", "mbpmd")):
        m = 3 if tiny else 20
        specs.append(
            _random(f"euclidean-{variant}-{i}", seed * 100 + 60 + i, m, "euclidean", variant, variant == "mbpmd")
        )
    return specs


def _float_plane(seed, tiny):
    m, count = (6, 2) if tiny else (100, 6)
    return [_random(f"euclidean-{i}", seed * 100 + i, m, "euclidean") for i in range(count)]


def build(spec: Spec, generators):
    """Generate the instance for ``spec`` with the program's own generators."""
    kwargs = dict(spec.params)
    if spec.family == "random":
        return generators.gen_random_instance(**kwargs)
    if spec.family == "tightness":
        return generators.gen_tightness_instance(**kwargs)
    if spec.family == "ring":
        return generators.gen_ring_instance(**kwargs)
    raise ValueError(f"unknown generator family {spec.family!r}")
