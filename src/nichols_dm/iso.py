"""Isomorphism classes of the lifting families under the (Z/m)^x action.

A unit l acts on J-pairs by (i,k) -> (li, l^-1 k), folded into the range
1 <= i < n by i -> m - i when li lands at or above n, and on odd l-labels
through l^-1 with the same folding.  `act_datum` carries a whole lifting
datum along: each parameter entry moves to the image of its indices, with
lambda/gamma and theta/mu crossing over according to which side of n the
indices land on.  Two presentations in one family are isomorphic exactly
when some unit carries one datum onto the other; the orbits of
`iso_classes` are the images under the units, and a member's witness is
the least unit that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Optional, Sequence

from .classify import Pair, in_J
from .errors import DomainError
from .lifting import (FAMILIES, LiftingDatum, _scalar, family_members, free_parameter_keys,
                      parameter_shape)

__all__ = [
    "UnitModM",
    "act_ell",
    "act_pair",
    "is_isomorphic_A",
    "is_isomorphic_B",
    "is_isomorphic_L",
    "iso_classes",
    "units",
]


@dataclass(frozen=True)
class UnitModM:
    m: int
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.m)
        if gcd(self.value, self.m) != 1:
            raise DomainError(f"{self.value} is not a unit mod {self.m}")

    @property
    def inverse(self) -> int:
        return pow(self.value, -1, self.m)

    def __mul__(self, other: "UnitModM") -> "UnitModM":
        if self.m != other.m:
            raise DomainError("units over different moduli")
        return UnitModM(self.m, self.value * other.value)


def units(m: int) -> list[UnitModM]:
    return [UnitModM(m, v) for v in range(1, m) if gcd(v, m) == 1]


def act_pair(unit: UnitModM, pair: Pair) -> Pair:
    """l . (i,k) = (li, l^-1 k) folded below n; stays inside J."""
    m = unit.m
    n = m // 2
    if not in_J(m, pair):
        raise DomainError(f"{pair} is not in J for m = {m}")
    i, k = pair
    li = (unit.value * i) % m
    lk = (unit.inverse * k) % m
    if li == 0 or li == n:
        raise RuntimeError(f"unit action degenerated on {pair}: li = {li}")
    folded = (li, lk) if li < n else ((m - li) % m, lk)
    return folded


def act_ell(unit: UnitModM, r: int) -> int:
    """l . r = l^-1 r folded below n; preserves odd labels in [1, n)."""
    m = unit.m
    n = m // 2
    if not (1 <= r < n and r % 2 == 1):
        raise DomainError(f"l-label must be odd in [1, n), got {r}")
    v = (unit.inverse * r) % m
    return v if v < n else m - v


def act_I(unit: UnitModM, I: Sequence[Pair]) -> tuple[Pair, ...]:
    return tuple(sorted(act_pair(unit, p) for p in I))


def act_L(unit: UnitModM, L: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(act_ell(unit, r) for r in L))


def act_datum(unit: UnitModM, datum: LiftingDatum) -> Optional[LiftingDatum]:
    """l . (I, L, datum): every entry moves to the image of its indices.

    A lambda/gamma entry keyed (p,q,i,k) moves to l.(p,q) + l.(i,k), a
    theta/mu entry keyed (p,q,r) to l.(p,q) + (l.r,).  lambda and gamma
    (theta and mu) cross over when the two indices fold to opposite sides
    of n.  Returns None when a nonzero entry lands on an entry that
    `parameter_shape` forces to zero: no datum of the image family matches.
    """
    m, n = unit.m, unit.m // 2
    I, L = act_I(unit, datum.I), act_L(unit, datum.L)
    moved: dict[str, dict] = {"lambda": {}, "gamma": {}, "theta": {}, "mu": {}}
    for name, other, items in (
        ("lambda", "gamma", datum.lam),
        ("gamma", "lambda", datum.gam),
        ("theta", "mu", datum.theta),
        ("mu", "theta", datum.mu),
    ):
        for key, value in items:
            p_low = (unit.value * key[0]) % m < n
            if len(key) == 4:
                img = act_pair(unit, key[:2]) + act_pair(unit, key[2:])
                same_side = p_low == ((unit.value * key[2]) % m < n)
            else:
                img = act_pair(unit, key[:2]) + (act_ell(unit, key[2]),)
                same_side = p_low == ((unit.inverse * key[2]) % m < n)
            moved[name if same_side else other][img] = value
    if any(moved.values()):
        shape = parameter_shape(m, I, L)
        if any(shape[name][key] == "zero" for name in moved for key in moved[name]):
            return None
    lam, gam, theta, mu = (tuple(sorted(moved[name].items())) for name in moved)
    return LiftingDatum(m, I, L, lam, gam, theta, mu)


# the is_isomorphic_* below are read by bench/tracing.py; goes with ROADMAP item 2
def _first_unit(d1: LiftingDatum, d2: LiftingDatum) -> tuple[bool, Optional[UnitModM]]:
    for unit in units(d1.m):
        if act_datum(unit, d1) == d2:
            return True, unit
    return False, None


# read by bench/tracing.py; goes with ROADMAP item 2
def is_isomorphic_A(
    m: int, I, lam, gamma, I2, lam2, gamma2
) -> tuple[bool, Optional[UnitModM]]:
    """A-type presentations: the least unit carrying the first datum onto the second."""
    def datum(I, lam, gamma) -> LiftingDatum:
        if isinstance(lam, LiftingDatum):
            return lam
        return LiftingDatum.build(m, I, lam=lam, gamma=gamma)

    return _first_unit(datum(I, lam, gamma), datum(I2, lam2, gamma2))


# read by bench/tracing.py; goes with ROADMAP item 2
def is_isomorphic_B(
    m: int, first: tuple, second: tuple
) -> tuple[bool, Optional[UnitModM]]:
    """B-type data (I, L, datum) vs (I', L', datum'): the least unit carrying one to the other."""
    d1, d2 = first[2], second[2]
    if not isinstance(d1, LiftingDatum) or not isinstance(d2, LiftingDatum):
        raise DomainError("B-type comparison expects LiftingDatum instances")
    return _first_unit(d1, d2)


# read by bench/tracing.py; goes with ROADMAP item 2
def is_isomorphic_L(m: int, L, L2) -> tuple[bool, Optional[UnitModM]]:
    """Bosonizations of M_L are isomorphic iff some unit carries L to L'."""
    return _first_unit(LiftingDatum.zero(m, (), L), LiftingDatum.zero(m, (), L2))


# -- orbit enumeration --------------------------------------------------------


def _grid_data(m: int, I, L, grid) -> list[LiftingDatum]:
    keys = free_parameter_keys(m, I, L)
    if not keys:
        return [LiftingDatum.zero(m, I, L)]
    out = []
    for values in product(grid, repeat=len(keys)):
        params: dict = {"lambda": {}, "gamma": {}, "theta": {}, "mu": {}}
        for (name, key), value in zip(keys, values):
            params[name][key] = value
        out.append(
            LiftingDatum.build(
                m,
                I,
                L,
                lam=params["lambda"],
                gamma=params["gamma"],
                theta=params["theta"],
                mu=params["mu"],
            )
        )
    return out


def _entry(d: LiftingDatum) -> dict:
    params = {name: entries for name, entries in d.parameters_json().items() if entries}
    return {"I": [list(p) for p in d.I], "L": list(d.L), "parameters": params}


def iso_classes(
    m: int,
    r_max: int,
    parameter_grid: Sequence = (0, 1),
    families: str = "abcd",
) -> list[dict]:
    """Orbit decomposition of the graded family instances under the unit action.

    `families` is a nonempty subset of "abcd"; `lifting.family_members`
    lists the members of each.  The parameter grid is read once, up front,
    so a malformed value is rejected even when no member has a free
    parameter; it is applied to the free parameters of each family member.  Orbits come from the action itself: the first instance not yet
    placed is the representative, and the images of it under the units,
    taken in ascending order, claim the unplaced instances they hit.  Each
    member's witness is therefore the least unit carrying the representative
    onto it; members are listed in instance order, and repeated grid values
    give repeated members.
    """
    if not families or not set(families) <= set(FAMILIES):
        raise DomainError(f"families must be a nonempty subset of {FAMILIES!r}, got {families!r}")
    grid = [_scalar(m, value) for value in parameter_grid]
    instances = [
        (fam, d)
        for fam in FAMILIES
        if fam in families
        for I, L in family_members(m, fam, r_max)
        for d in _grid_data(m, I, L, grid)
    ]

    positions: dict[tuple, list[int]] = {}
    for idx, inst in enumerate(instances):
        positions.setdefault(inst, []).append(idx)
    witness: list[Optional[UnitModM]] = [None] * len(instances)
    orbits: list[dict] = []
    for idx, (fam, datum) in enumerate(instances):
        if witness[idx] is not None:
            continue
        members = []
        for unit in units(m):
            for jdx in positions.get((fam, act_datum(unit, datum)), ()):
                if witness[jdx] is None:
                    witness[jdx] = unit
                    members.append(jdx)
        members.sort()
        orbits.append(
            {
                "family": fam,
                "representative": _entry(datum),
                "orbit_size": len(members),
                "members": [
                    {**_entry(instances[jdx][1]), "witness_unit": witness[jdx].value}
                    for jdx in members
                ],
            }
        )
    return orbits
