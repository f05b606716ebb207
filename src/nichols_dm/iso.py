"""Isomorphism classes of the lifting families under the (Z/m)^x action.

A unit l acts on J-pairs by (i,k) -> (li, l^-1 k), folded into the range
1 <= i < n by i -> m - i when li lands at or above n, and on odd l-labels
through l^-1 with the same folding.  On parameters it acts by slot maps
(`_slots`, `_image`), which both `iso_classes` and the `is_isomorphic_*`
checks use.  Orbits are the images under the units; a member's witness is
the least unit reaching it.

Within one `iso_classes` call each thing is computed once: a pair's image
under a unit (`_PairImages`, filled by `act_pair`, which alone holds the
fold with `act_ell`), a member's free keys and their positions
(`_positions`), and the image member and slot map of a (unit, member) that
a representative reaches.  A unit's inverse is computed once per `UnitModM`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd
from typing import Mapping, Optional, Sequence

from .classify import Pair, in_J
from .errors import DomainError
from .cyclo import CycloNumber, format_scalar
from .lifting import (FAMILIES, LiftingDatum, _canonical, _scalar, family_members,
                      free_parameter_keys, parameters_json)

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

    @cached_property
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


_CROSSED = {"lambda": "gamma", "gamma": "lambda", "theta": "mu", "mu": "theta"}


class _PairImages(dict):
    """pair -> act_pair(unit, pair) for one unit, each image computed on first use."""

    def __init__(self, unit: UnitModM):
        super().__init__()
        self.unit = unit

    def __missing__(self, pair: Pair) -> Pair:
        image = self[pair] = act_pair(self.unit, pair)
        return image


def _positions(keys: Sequence) -> dict:
    """Each free key's position among `keys`."""
    return {key: pos for pos, key in enumerate(keys)}


def _slots(images: _PairImages, keys: Sequence, position: Mapping) -> list[Optional[int]]:
    """Each free key's position in the image member, `position` being
    `_positions` of that member's free keys and `images` the unit's pair images.

    name[(p,q,i,k)] lands on l.(p,q) + l.(i,k) and name[(p,q,r)] on
    l.(p,q) + (l.r,), lambda/gamma (theta/mu) crossing over when the two
    indices fold to opposite sides of n.  An image is looked up under its
    canonical key (`lifting._canonical`), the one key its entry is stored
    under; a forced-zero image has no position (None).
    """
    unit = images.unit
    m, n = unit.m, unit.m // 2
    slots = []
    for name, key in keys:
        p_low = (unit.value * key[0]) % m < n
        if len(key) == 4:
            img = images[key[:2]] + images[key[2:]]
            same_side = p_low == ((unit.value * key[2]) % m < n)
        else:
            img = images[key[:2]] + (act_ell(unit, key[2]),)
            same_side = p_low == ((unit.inverse * key[2]) % m < n)
        name = name if same_side else _CROSSED[name]
        slots.append(position.get((name, _canonical(img))))
    return slots


def _image(values: Sequence, slots: Sequence, size: int, zero) -> Optional[tuple]:
    """`values` moved along `slots` into `size` target slots, `zero` in those
    left unfilled; None when a nonzero value meets a None slot (no image)."""
    out = [zero] * size
    for value, slot in zip(values, slots):
        if slot is not None:
            out[slot] = value
        elif value != zero:
            return None
    return tuple(out)


# the is_isomorphic_* below are read by bench/tracing.py; goes with ROADMAP item 2
def _first_unit(d1: LiftingDatum, d2: LiftingDatum) -> tuple[bool, Optional[UnitModM]]:
    keys1, keys2 = (free_parameter_keys(d.m, d.I, d.L) for d in (d1, d2))
    values1 = [d1.value(*key) for key in keys1]
    values2 = tuple(d2.value(*key) for key in keys2)
    position = _positions(keys2)
    zero = CycloNumber.zero(d1.m)
    for unit in units(d1.m):
        if (d1.m, act_I(unit, d1.I), act_L(unit, d1.L)) == (d2.m, d2.I, d2.L) and (
            _image(values1, _slots(_PairImages(unit), keys1, position), len(keys2), zero)
            == values2
        ):
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


def iso_classes(
    m: int,
    r_max: int,
    parameter_grid: Sequence = (0, 1),
    families: str = "abcd",
) -> list[dict]:
    """Orbit decomposition of the graded family instances under the unit action.

    `families` is a nonempty subset of "abcd"; `lifting.family_members`
    lists the members of each.  The parameter grid is read once, up front,
    so a malformed or empty grid is rejected even when no member has a free
    parameter.  An instance is (member index, grid index per free key of
    the member); equal grid values share the index of their first
    occurrence, so repeated grid values give repeated, equal instances.
    The image member and the `_slots` are computed once per (unit, member)
    that a representative reaches, a pair's image once per unit, and a
    member's key positions once.

    The first instance not yet placed is a representative; its images under
    the units, in ascending order, claim the unplaced instances they hit, so
    each member's witness is the least unit carrying the representative onto
    it.  Members are listed in instance order.
    """
    if not families or not set(families) <= set(FAMILIES):
        raise DomainError(f"families must be a nonempty subset of {FAMILIES!r}, got {families!r}")
    grid = [_scalar(m, value) for value in parameter_grid]
    if not grid:
        raise DomainError("the parameter grid is empty")
    first = [grid.index(value) for value in grid]
    zero = next((j for j, value in enumerate(grid) if not value), None)
    texts = [format_scalar(value) for value in grid]
    members = []  # (family, I, L, free keys, their _positions)
    index: dict[tuple, int] = {}
    for fam in FAMILIES:
        if fam in families:
            for I, L in family_members(m, fam, r_max):
                index.setdefault((fam, I, L), len(members))
                keys = free_parameter_keys(m, I, L)
                members.append((fam, I, L, keys, _positions(keys)))
    instances = [
        (index[fam, I, L], values)
        for fam, I, L, keys, _ in members
        for values in product(first, repeat=len(keys))
    ]

    def entry(instance: tuple) -> dict:
        _, I, L, keys, _ = members[instance[0]]
        params = parameters_json((key, texts[v]) for key, v in zip(keys, instance[1]) if v != zero)
        return {"I": [list(p) for p in I], "L": list(L), "parameters": params}

    positions: dict[tuple, list[int]] = {}
    for idx, inst in enumerate(instances):
        positions.setdefault(inst, []).append(idx)
    actions: dict[tuple[int, int], tuple[int, list]] = {}
    witness: list[Optional[UnitModM]] = [None] * len(instances)
    orbits: list[dict] = []
    unit_images = [_PairImages(unit) for unit in units(m)]
    for idx, (source, values) in enumerate(instances):
        if witness[idx] is not None:
            continue
        claimed = []
        for images in unit_images:
            unit = images.unit
            if (unit.value, source) not in actions:
                fam, I, L, keys, _ = members[source]
                I2 = tuple(sorted(images[pair] for pair in I))
                target = index[fam, I2, act_L(unit, L)]
                actions[unit.value, source] = target, _slots(images, keys, members[target][4])
            target, slots = actions[unit.value, source]
            # a grid without zero leaves None in an unfilled slot: no instance
            image = _image(values, slots, len(members[target][3]), zero)
            for jdx in positions.get((target, image), ()):
                if witness[jdx] is None:
                    witness[jdx] = unit
                    claimed.append(jdx)
        claimed.sort()
        entries = [entry(instances[jdx]) for jdx in claimed]
        orbits.append(
            {
                "family": members[source][0],
                "representative": entries[0],  # the identity claims idx, the least
                "orbit_size": len(claimed),
                "members": [
                    {**e, "witness_unit": witness[jdx].value} for e, jdx in zip(entries, claimed)
                ],
            }
        )
    return orbits
