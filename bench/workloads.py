"""The four workloads: their jobs, drawn from a seed by the benchmark's own arithmetic.

A job is a dict with the CLI ``argv`` and the inputs the checks need.  The
program receives only ``argv``.  A run is made of whole *rounds*: every
round of a workload has the same jobs up to what the seed draws, so the
mix of jobs, and with it every end-to-end metric, is the same in every run
and for every seed.  The seed's generator draws each round afresh (the
family entries, the grid values and the exact scalars) and its order, so
a run averages over several draws instead of resting on one.

The jobs of a round are chosen so that the median and the reported tail
percentile of the job times fall well inside a group of jobs of like cost,
not near the edge between two groups (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import arith

# Exact scalars in the CLI's syntax, by kind.  A job's cost depends on the
# kind of its parameters far more than on their values (a binomial fills
# more coefficients of Q(w_m) than a root of unity), so each job fixes the
# kinds and the seed draws the values.  Exponents stay below phi(m), where
# w^j is a single basis element and never rational.
RATIONALS = ("1", "-1", "2", "3/2", "-1/3", "5/4")


def _phi(m: int) -> int:
    return len(arith.units(m))


def draw_scalar(rng, m: int, kind: str) -> str:
    if kind == "rational":
        return rng.choice(RATIONALS)
    j = rng.randrange(1, _phi(m))
    w = f"w^{j}" if j > 1 else "w"
    if kind == "root":
        return rng.choice(("", "-")) + w
    a, b = rng.choice(("", "2*", "1/2*")), rng.choice(("+ 1", "- 1", "+ 3/2", "- 2"))
    return f"{a}{w} {b}"  # kind == "binomial"


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: list            # one round
    tail_pct: int         # percentile reported as job_tail_s
    warmup: list          # argv of the untimed warm-up job

    @property
    def min_rounds(self) -> int:
        """Rounds that leave at least ten job samples beyond the tail percentile."""
        min_jobs = -(-10 * 100 // (100 - self.tail_pct))
        return -(-min_jobs // len(self.jobs))


def _pairs(I) -> str:
    return "+".join(f"({i},{k})" for i, k in I)


def _ells(L) -> str:
    return "+".join(str(ell) for ell in L)


def _random_clique(rng, candidates, size, m):
    """A multiset of `size` pairwise-related pairs drawn from `candidates`."""
    chosen = [rng.choice(candidates)]
    while len(chosen) < size:
        pool = [p for p in candidates if all(arith.related(p, c, m) for c in chosen)]
        chosen.append(rng.choice(pool))
    return tuple(sorted(chosen))


def _random_I(rng, m, size):
    return _random_clique(rng, arith.support_J(m), size, m)


def _random_K(rng, m, size_I, size_L):
    n = m // 2
    odd_k = [p for p in arith.support_J(m) if p[1] % 2]
    while True:
        I = _random_clique(rng, odd_k, size_I, m)
        ells = [ell for ell in arith.odd_ells(m) if all(i * ell % m == n for i, _ in I)]
        if ells:
            return I, tuple(sorted(rng.choice(ells) for _ in range(size_L)))


def _verify_job(m, family, I=(), L=(), params=None):
    argv = ["verify", "--m", str(m), "--family", family]
    if I:
        argv += ["--I", _pairs(I)]
    if L:
        argv += ["--L", _ells(L)]
    for name, value in (params or {}).items():
        argv.append(f"--{name}={value}")  # "=": a value may start with "-"
    return {"kind": "verify", "m": m, "family": family, "I": list(I), "L": list(L),
            "params": dict(params or {}), "argv": argv}


def survey(rng):
    jobs = []
    for m, size in ((12, 1), (12, 2), (12, 3), (16, 2), (16, 3), (20, 1), (20, 2), (20, 3)):
        argv = ["classify", "--m", str(m), "--max-size", str(size)]
        jobs.append({"kind": "classify", "m": m, "max_size": size, "argv": argv})
    return Workload("survey", jobs, 75, ["classify", "--m", "12", "--max-size", "1"])


def orbits(rng):
    jobs = []
    for m, grids in ((12, ("cyclo", "default", "cyclo")), (16, ("cyclo", "default")),
                     (20, ("cyclo", "default", "cyclo"))):
        for kind in grids:
            grid = ["0", "1"] if kind == "default" else ["0", draw_scalar(rng, m, "root")]
            argv = ["iso", "--m", str(m), "--max-size", "2", "--grid", ",".join(grid)]
            jobs.append({"kind": "iso", "m": m, "max_size": 2, "grid": grid, "argv": argv})
    return Workload("orbits", jobs, 75, ["iso", "--m", "12", "--max-size", "1"])


def certify_deep(rng):
    """Zero-datum A-, L- and K-families with |I| + |L| = 6.

    The modulus of each job is fixed: it sets the size of the compiled rules
    and with it the peak memory, which should not depend on the seed.
    """
    size, jobs = 6, []
    for family, m in (("c", 24), ("c", 48), ("b", 48), ("d", 36), ("d", 48)):
        if family == "c":
            jobs.append(_verify_job(m, "c", I=_random_I(rng, m, size)))
        elif family == "b":
            L = sorted(rng.choice(arith.odd_ells(m)) for _ in range(size))
            jobs.append(_verify_job(m, "b", L=L))
        else:
            size_I = rng.randint(1, size - 1)
            I, L = _random_K(rng, m, size_I, size - size_I)
            jobs.append(_verify_job(m, "d", I=I, L=L))
    return Workload("certify-deep", jobs, 75,
                    ["verify", "--m", "12", "--family", "c", "--I", "(1,6)"])


# Each stratum of certify-params fixes |I| + |L|, the free parameters of the
# family, as (lambda, gamma) for c and (lambda, gamma, theta, mu) for d, and
# the kind of each parameter's value.  The cost of a job grows with both, so
# fixing them keeps the cost of a round nearly the same for every seed; each
# profile occurs at every m of the workload.
PARAMS = ("lambda", "gamma", "theta", "mu")
C_STRATA = (
    (1, (1, 0), ("binomial", "rational")),
    (2, (3, 1), ("root", "rational")),
    (3, (3, 1), ("rational", "binomial")),
    (4, (6, 3), ("root", "rational")),
)
D_STRATA = (
    (2, {(0, 0, 1, 0), (0, 0, 0, 1)}, ("rational", "rational", "binomial", "binomial")),
    (3, {(1, 0, 1, 1)}, ("rational", "rational", "root", "binomial")),
    (4, {(1, 0, 1, 1)}, ("root", "rational", "rational", "root")),
)


def _profile(m, I, L=()):
    free = arith.free_parameter_count(m, I, L)
    return tuple(free[name] for name in PARAMS[: 4 if L else 2])


def certify_params(rng):
    """Families c and d with |I| + |L| <= 4 and nonzero parameters at m = 12..48.

    A round has 35 jobs, seven strata at five moduli: with 35 jobs of
    distinct costs the median and p90 of a run's job times fall in the
    middle of one job's samples, not on the edge between two.

    The families are the same for every seed: one per stratum and modulus,
    drawn once from a fixed generator among those with the stratum's
    free-parameter profile.  Which family a job verifies moves its cost by up
    to 1.8x, so a seed that drew them would move the percentiles of a run.
    The seed draws every parameter value and the order of the jobs.
    """
    families = random.Random("certify-params:families")
    jobs = []
    for m in (12, 20, 24, 36, 48):
        for size, profile, kinds in C_STRATA:
            I = _random_I(families, m, size)
            while _profile(m, I) != profile:
                I = _random_I(families, m, size)
            params = {name: draw_scalar(rng, m, kind) for name, kind in zip(PARAMS, kinds)}
            jobs.append(_verify_job(m, "c", I=I, params=params))
        for size, profiles, kinds in D_STRATA:
            while True:
                size_I = families.randint(1, size - 1)
                I, L = _random_K(families, m, size_I, size - size_I)
                if _profile(m, I, L) in profiles:
                    break
            params = {name: draw_scalar(rng, m, kind) for name, kind in zip(PARAMS, kinds)}
            jobs.append(_verify_job(m, "d", I=I, L=L, params=params))
    return Workload("certify-params", jobs, 90,
                    ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "1"])


WORKLOADS = {
    "survey": survey,
    "orbits": orbits,
    "certify-deep": certify_deep,
    "certify-params": certify_params,
}


def make(name: str, seed: int) -> tuple[Workload, random.Random]:
    """The workload's first round for this seed, and the generator that draws the rest."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng), rng


def draw(name: str, rng: random.Random) -> list[dict]:
    """A fresh round of the workload, in an order drawn from `rng`."""
    jobs = list(WORKLOADS[name](rng).jobs)
    rng.shuffle(jobs)
    return jobs
