from collections import Counter
from itertools import product
from typing import Optional, Sequence

import pytest

from nichols_dm import iso, lifting
from nichols_dm.cli import _parse_param
from nichols_dm.classify import (
    are_equivalent,
    enumerate_I,
    enumerate_K,
    enumerate_L,
    support_J,
)
from nichols_dm.cyclo import CycloNumber
from nichols_dm.errors import DomainError
from nichols_dm.iso import (
    UnitModM,
    _PairImages,
    _image,
    _positions,
    _slots,
    act_I,
    act_L,
    act_ell,
    act_pair,
    is_isomorphic_A,
    is_isomorphic_B,
    is_isomorphic_L,
    iso_classes,
    units,
)
from nichols_dm.lifting import (
    FAMILIES,
    LiftingDatum,
    _scalar,
    family_members,
    free_parameter_keys,
    parameter_shape,
)


def test_unit_validation():
    with pytest.raises(DomainError):
        UnitModM(12, 2)
    assert [u.value for u in units(12)] == [1, 5, 7, 11]
    assert UnitModM(12, 5).inverse == 5
    assert UnitModM(12, 7).inverse == 7


def test_act_pair_examples():
    one = UnitModM(12, 1)
    for pair in support_J(12):
        assert act_pair(one, pair) == pair
    assert act_pair(UnitModM(12, 5), (1, 6)) == (5, 6)
    assert act_pair(UnitModM(12, 7), (1, 6)) == (5, 6)
    with pytest.raises(DomainError):
        act_pair(one, (1, 5))


def test_act_ell_examples():
    assert act_ell(UnitModM(12, 1), 3) == 3
    assert act_ell(UnitModM(12, 5), 1) == 5
    assert act_ell(UnitModM(12, 5), 3) == 3
    assert act_ell(UnitModM(12, 7), 1) == 5
    with pytest.raises(DomainError):
        act_ell(UnitModM(12, 5), 2)


@pytest.mark.parametrize("m", [12, 16, 20, 36, 48, 64])
def test_act_pair_is_group_action_preserving_J(m):
    J = support_J(m)
    us = units(m)
    for u1 in us:
        for u2 in us:
            for pair in J:
                step = act_pair(u2, pair)
                assert step in J
                assert act_pair(u1, step) == act_pair(u1 * u2, pair)


@pytest.mark.parametrize("m", [12, 16, 20, 36, 48, 64])
def test_act_ell_is_group_action_preserving_range(m):
    n = m // 2
    odd = [r for r in range(1, n) if r % 2]
    us = units(m)
    for u1 in us:
        for u2 in us:
            for r in odd:
                step = act_ell(u2, r)
                assert 1 <= step < n and step % 2 == 1
                assert act_ell(u1, step) == act_ell(u1 * u2, r)


@pytest.mark.parametrize("m", [12, 20, 48])
def test_action_preserves_relation(m):
    J = support_J(m)
    for unit in units(m):
        for p in J:
            for q in J:
                if are_equivalent(p, q, m):
                    assert are_equivalent(act_pair(unit, p), act_pair(unit, q), m)


def test_is_isomorphic_A_identity_and_zero():
    verdict, witness = is_isomorphic_A(12, [(1, 6)], 1, None, [(1, 6)], 1, None)
    assert verdict and witness.value == 1
    # zero datum is never isomorphic to a nonzero one
    verdict, _ = is_isomorphic_A(12, [(1, 6)], 0, None, [(1, 6)], 1, None)
    assert not verdict
    verdict, _ = is_isomorphic_A(12, [(1, 6)], 1, None, [(1, 6)], "w^4", None)
    assert not verdict


def test_is_isomorphic_A_transport():
    # (1,6) with lambda moves to (5,6) with the same lambda through l = 5
    verdict, witness = is_isomorphic_A(12, [(1, 6)], 1, None, [(5, 6)], 1, None)
    assert verdict and witness.value == 5
    verdict, _ = is_isomorphic_A(12, [(1, 6)], 1, None, [(5, 6)], 0, None)
    assert not verdict
    # different underlying families never match
    verdict, _ = is_isomorphic_A(12, [(1, 6)], 0, None, [(3, 6)], 0, None)
    assert not verdict


def test_is_isomorphic_B_cases():
    d_mu = LiftingDatum.build(12, [(2, 3)], [3], mu=1)
    d_mu0 = LiftingDatum.zero(12, [(2, 3)], [3])
    d_th = LiftingDatum.build(12, [(2, 9)], [3], theta=1)
    d_th0 = LiftingDatum.zero(12, [(2, 9)], [3])
    ok, w = is_isomorphic_B(12, ([(2, 3)], [3], d_mu), ([(2, 3)], [3], d_mu))
    assert ok and w.value == 1
    ok, _ = is_isomorphic_B(12, ([(2, 3)], [3], d_mu0), ([(2, 3)], [3], d_mu))
    assert not ok
    # mu on (2,3) side corresponds to theta on the (2,9) side through l = 7
    ok, w = is_isomorphic_B(12, ([(2, 3)], [3], d_mu), ([(2, 9)], [3], d_th))
    assert ok and w.value == 7
    ok, _ = is_isomorphic_B(12, ([(2, 3)], [3], d_mu), ([(2, 9)], [3], d_th0))
    assert not ok


def test_stabilizer_of_K_instance():
    # units fixing (I, L) = ({(2,3)}, {3}): l in {1, 5}
    I, L = ((2, 3),), (3,)
    stab = [
        u.value
        for u in units(12)
        if act_I(u, I) == I and act_L(u, L) == L
    ]
    assert stab == [1, 5]
    # the zero datum is fixed by the whole stabilizer; mu = 1 only by l = 1
    d0 = LiftingDatum.zero(12, I, L)
    d1 = LiftingDatum.build(12, I, L, mu=1)
    ok, w = is_isomorphic_B(12, (I, L, d0), (I, L, d0))
    assert ok and w.value == 1
    assert [u.value for u in units(12) if _parent_act_datum(u, d0) == d0] == [1, 5]
    assert [u.value for u in units(12) if _parent_act_datum(u, d1) == d1] == [1]
    # l = 5 folds (2,3) and keeps 3 low, so mu(2,3,3) crosses over to
    # theta(2,3,3), which the delta guard forces to zero: no image datum
    assert _parent_act_datum(UnitModM(12, 5), d1) is None


# -- the pairwise criterion the unit action replaced, kept as an oracle -------


def _lambda_gamma_match(
    m: int, I, unit: UnitModM, d1: LiftingDatum, d2: LiftingDatum
) -> bool:
    n = m // 2
    zero = CycloNumber.zero(m)
    for pq in set(I):
        for ik in set(I):
            p, q = pq
            i, k = ik
            img = act_pair(unit, pq) + act_pair(unit, ik)
            same_side = (((unit.value * p) % m) < n) == (((unit.value * i) % m) < n)
            guard_l = (q + k) % m == 0  # delta_{q, m-k}
            guard_g = (q - k) % m == 0  # delta_{q, k}
            lam = d1.value("lambda", pq + ik) if guard_l else zero
            gam = d1.value("gamma", pq + ik) if guard_g else zero
            lam2 = d2.value("lambda", img) if guard_l else zero
            gam2 = d2.value("gamma", img) if guard_g else zero
            if same_side:
                if lam != lam2 or gam != gam2:
                    return False
            else:
                if lam != gam2 or gam != lam2:
                    return False
    return True


def _theta_mu_match(
    m: int, I, L, unit: UnitModM, d1: LiftingDatum, d2: LiftingDatum
) -> bool:
    n = m // 2
    zero = CycloNumber.zero(m)
    for pq in set(I):
        for r in set(L):
            p, q = pq
            img = act_pair(unit, pq) + (act_ell(unit, r),)
            p_low = ((unit.value * p) % m) < n
            r_low = ((unit.inverse * r) % m) < n
            guard_t = (q + r) % m == 0  # delta_{q, m-r}
            guard_m = (q - r) % m == 0  # delta_{q, r}
            th = d1.value("theta", pq + (r,)) if guard_t else zero
            mu = d1.value("mu", pq + (r,)) if guard_m else zero
            th2 = d2.value("theta", img)
            mu2 = d2.value("mu", img)
            if p_low and r_low:
                ok = th == (th2 if guard_t else zero) and mu == (mu2 if guard_m else zero)
            elif not p_low and not r_low:
                ok = th == (th2 if guard_m else zero) and mu == (mu2 if guard_t else zero)
            elif p_low and not r_low:
                ok = th == (mu2 if guard_t else zero) and mu == (th2 if guard_m else zero)
            else:
                ok = th == (mu2 if guard_m else zero) and mu == (th2 if guard_t else zero)
            if not ok:
                return False
    return True


# -- the datum route that the slot maps replaced, kept as an oracle -----------
# A LiftingDatum per grid point and a whole-datum action per (unit, datum),
# which shares no key-image code with the slot maps it checks.


def _parent_act_datum(unit: UnitModM, datum: LiftingDatum) -> Optional[LiftingDatum]:
    """l . (I, L, datum): every entry moves to the image of its indices.

    A lambda/gamma entry keyed (p,q,i,k) moves to l.(p,q) + l.(i,k), a
    theta/mu entry keyed (p,q,r) to l.(p,q) + (l.r,).  lambda and gamma
    (theta and mu) cross over when the two indices fold to opposite sides
    of n.  Returns None when a nonzero entry lands on an entry that
    `parameter_shape` forces to zero: no datum of the image family matches.
    """
    m, n = unit.m, unit.m // 2
    I, L = act_I(unit, datum.I), act_L(unit, datum.L)
    other = {"lambda": "gamma", "gamma": "lambda", "theta": "mu", "mu": "theta"}
    moved: dict[tuple, object] = {}
    for (name, key), value in datum.params:
        p_low = (unit.value * key[0]) % m < n
        if len(key) == 4:
            img = act_pair(unit, key[:2]) + act_pair(unit, key[2:])
            same_side = p_low == ((unit.value * key[2]) % m < n)
        else:
            img = act_pair(unit, key[:2]) + (act_ell(unit, key[2]),)
            same_side = p_low == ((unit.inverse * key[2]) % m < n)
        moved[name if same_side else other[name], lifting._canonical(img)] = value
    if moved:
        shape = parameter_shape(m, I, L)
        if any(shape[name][key] == "zero" for name, key in moved):
            return None
    return LiftingDatum(m, I, L, tuple(sorted(moved.items())))


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
    return {"I": [list(p) for p in d.I], "L": list(d.L), "parameters": d.parameters_json()}


def _reference_iso_classes(
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
            for jdx in positions.get((fam, _parent_act_datum(unit, datum)), ()):
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


_ORACLE_GRIDS = {
    "0,1": ("0", "1"),
    "0,1,1": ("0", "1", "1"),
    "0,0,1": ("0", "0", "1"),
    "1,-1": ("1", "-1"),
    "1,w": ("1", "w"),
    "0,w^3": ("0", "w^3"),
    "w^2 - 1,0": ("w^2 - 1", "0"),  # zero last: a nonzero instance is placed first
    "3/2": ("3/2",),
    "empty": (),
}


def _oracle_cases():
    """(m, r_max, families, grid) for the comparison with the datum route.

    Every grid up to size 3 at m = 12 and up to size 2 at m = 16..28, with
    size 3 at m = 16, 20 for family (d).  A size-3 family (c) on a grid of
    three values takes the datum route up to a minute, so it runs only once.
    """
    sizes = {12: (1, 2, 3), 16: (1, 2), 20: (1, 2), 24: (2,), 28: (2,)}
    cases = [
        (m, r, f, g)
        for m, rs in sizes.items()
        for r in rs
        for f in (("abcd", "cd", "d") if m == 12 else ("abcd", "d"))
        for g in _ORACLE_GRIDS
        if not (r == 3 and "c" in f and len(_ORACLE_GRIDS[g]) > 2)
    ]
    cases += [(m, 3, "d", g) for m in (16, 20) for g in _ORACLE_GRIDS]
    cases += [(16, 3, "cd", g) for g in ("0,1", "1,-1", "3/2", "empty")]
    return cases + [(12, 3, "abcd", "0,1,1")]


@pytest.mark.parametrize("m, r_max, families, grid", _oracle_cases())
def test_iso_classes_matches_datum_route(m, r_max, families, grid):
    values = _ORACLE_GRIDS[grid]
    if not values:  # rejected, where the datum route lists only the members without a free key
        with pytest.raises(DomainError, match="grid is empty"):
            iso_classes(m, r_max, values, families)
        return
    assert iso_classes(m, r_max, values, families) == _reference_iso_classes(
        m, r_max, values, families
    )


def _counting(counts: Counter, name: str, func):
    def counted(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)

    return counted


def test_iso_classes_work_per_member_not_per_grid_point(monkeypatch):
    counts: Counter = Counter()
    shape = _counting(counts, "parameter_shape", lifting.parameter_shape)
    monkeypatch.setattr(lifting, "parameter_shape", shape)
    build = _counting(counts, "build", LiftingDatum.build)
    monkeypatch.setattr(LiftingDatum, "build", staticmethod(build))
    calls = []
    for grid in (("0", "1"), ("0", "1", "-1", "w^3")):
        counts.clear()
        assert iso_classes(20, 2, grid)
        assert counts["build"] == 0
        calls.append(counts["parameter_shape"])
    assert calls[0] == calls[1] > 0


def test_iso_classes_act_once_per_unit_and_pair(monkeypatch):
    # each pair's image under a unit is computed once per call, and each
    # member's slot positions once, not once per (unit, member) reaching it
    counts: Counter = Counter()
    pairs: Counter = Counter()

    def act(unit, pair):
        pairs[unit.value, pair] += 1
        return act_pair(unit, pair)

    monkeypatch.setattr(iso, "act_pair", act)
    monkeypatch.setattr(iso, "_positions", _counting(counts, "positions", iso._positions))
    assert iso_classes(20, 2, ("0", "1"))
    members = sum(1 for fam in FAMILIES for _ in family_members(20, fam, 2))
    assert pairs and max(pairs.values()) == 1
    assert counts["positions"] == members


@pytest.mark.parametrize(
    "m, grid, members",
    [(12, ("0", "1"), 89), (20, ("0", "1"), 252), (20, ("0", "w^3", "-1"), 928)],
)
def test_iso_classes_write_each_member_once(monkeypatch, m, grid, members):
    # the representative reuses its own member entry, so the parameter
    # writer runs once per member and not once more per orbit
    counts: Counter = Counter()
    monkeypatch.setattr(iso, "parameters_json", _counting(counts, "write", iso.parameters_json))
    orbits = iso_classes(m, 2, grid)
    assert sum(len(orbit["members"]) for orbit in orbits) == members
    assert counts["write"] == members
    for orbit in orbits:
        first = dict(orbit["members"][0])
        assert first.pop("witness_unit") == 1 and first == orbit["representative"]


_KEYED_FLAGS = {"lambda": "lam", "gamma": "gamma", "theta": "theta", "mu": "mu"}


def test_iso_parameters_round_trip_through_keyed_flags():
    # a member's "parameters", fed back as keyed --lambda/--gamma/--theta/--mu
    # flags, build a datum whose own writer prints the same table
    members = 0
    for m in (12, 20):
        for grid in (("0", "1"), ("0", "w^3"), ("1", "-1"), ("0", "3/2", "-1")):
            for orbit in iso_classes(m, 2, grid):
                for member in orbit["members"]:
                    given = {
                        _KEYED_FLAGS[name]: _parse_param(
                            m, ";".join(f"{key}={value}" for key, value in entries.items())
                        )
                        for name, entries in member["parameters"].items()
                    }
                    I = [tuple(pair) for pair in member["I"]]
                    datum = LiftingDatum.build(m, I, member["L"], **given)
                    assert datum.parameters_json() == member["parameters"], (m, grid, member)
                    members += 1
    assert members == 2247


def _grid_instances(m: int, grid, r_max: int = 2) -> list[LiftingDatum]:
    """Every datum of the families (a)-(d) up to size r_max on the grid."""
    families = [(I, ()) for I in enumerate_I(m, r_max)]
    families += list(enumerate_K(m, r_max))
    families += [((), L) for L in enumerate_L(m, r_max)]
    return [d for I, L in families for d in _grid_data(m, I, L, grid)]


def _slot_point(d: LiftingDatum) -> tuple:
    """(I, L, the datum's values at its free keys), what the slot maps act on."""
    return d.I, d.L, tuple(d.value(*key) for key in free_parameter_keys(d.m, d.I, d.L))


def _slot_act(u: UnitModM, x: tuple) -> Optional[tuple]:
    """The image of `x` along the slot maps of `iso`, or None when it has none."""
    I, L, values = x
    target = (act_I(u, I), act_L(u, L))
    keys, target_keys = free_parameter_keys(u.m, I, L), free_parameter_keys(u.m, *target)
    slots = _slots(_PairImages(u), keys, _positions(target_keys))
    image = _image(values, slots, len(target_keys), CycloNumber.zero(u.m))
    return None if image is None else (*target, image)


@pytest.mark.parametrize(
    "m, grid",
    [
        (12, ("0", "1")),
        (12, ("0", "w^3")),
        (12, ("0", "1", "-1")),
        (16, ("0", "1")),
        (20, ("0", "1")),
    ],
)
def test_act_datum_agrees_with_pairwise_oracle(m, grid):
    data = _grid_instances(m, grid)
    by_family: dict = {}
    for d in data:
        by_family.setdefault((d.I, d.L), []).append(d)
    accepted = 0
    for a in data:
        x = _slot_point(a)
        for u in units(m):
            image = _slot_act(u, x)
            for b in by_family[(act_I(u, a.I), act_L(u, a.L))]:
                oracle = _lambda_gamma_match(m, a.I, u, a, b) and _theta_mu_match(
                    m, a.I, a.L, u, a, b
                )
                assert (image == _slot_point(b)) == oracle, (u.value, a, b)
                accepted += oracle
    assert accepted > len(data)


@pytest.mark.parametrize("m, grid, pairs", [(12, ("0", "1", "-1"), 32993), (20, ("0", "1"), 9592)])
def test_is_isomorphic_B_matches_datum_route(m, grid, pairs):
    # each datum a of families (c), (d) against every datum b of a member
    # that a unit carries a's member to: the verdict and the witness are
    # those of the first unit whose datum-route image of a is b
    us = units(m)
    data: dict = {}
    for fam in "cd":
        for I, L in family_members(m, fam, 2):
            data[I, L] = _grid_data(m, I, L, grid)
    compared = 0
    for a in (a for family in data.values() for a in family):
        images = [_parent_act_datum(u, a) for u in us]
        for target in {(act_I(u, a.I), act_L(u, a.L)) for u in us}:
            for b in data[target]:
                u = next((u for u, image in zip(us, images) if image == b), None)
                assert is_isomorphic_B(m, (a.I, a.L, a), (b.I, b.L, b)) == (u is not None, u)
                compared += 1
    assert compared == pairs


@pytest.mark.parametrize("m, grid", [(12, ("0", "1", "-1")), (20, ("0", "1"))])
def test_act_datum_is_group_action(m, grid):
    us = units(m)
    for d in _grid_instances(m, grid):
        x = _slot_point(d)
        assert _slot_act(us[0], x) == x
        for u2 in us:
            y = _slot_act(u2, x)
            if y is None:
                continue
            for u1 in us:
                assert _slot_act(u1, y) == _slot_act(u1 * u2, x)


def test_is_isomorphic_L_orbits():
    ok, w = is_isomorphic_L(12, [1], [5])
    assert ok and w.value == 5
    ok, _ = is_isomorphic_L(12, [1], [3])
    assert not ok
    ok, _ = is_isomorphic_L(12, [3], [3])
    assert ok


def test_iso_classes_L_singletons():
    orbits = [o for o in iso_classes(12, 1, families="b")]
    reps = sorted(tuple(o["representative"]["L"]) for o in orbits)
    assert reps == [(1,), (3,)]
    sizes = {tuple(o["representative"]["L"]): o["orbit_size"] for o in orbits}
    assert sizes[(1,)] == 2 and sizes[(3,)] == 1


def test_iso_classes_family_a():
    orbits = iso_classes(12, 1, families="a")
    reps = sorted(tuple(map(tuple, o["representative"]["I"])) for o in orbits)
    assert reps == [((2, 3),), ((3, 2),)]
    assert all(o["orbit_size"] == 2 for o in orbits)


def test_iso_classes_bosonization_criterion():
    # family (c) singles at m = 12 on the {0,1} grid: lambda = 0 and lambda = 1
    # always fall in different orbits
    orbits = iso_classes(12, 1, families="c")
    for orbit in orbits:
        params = [m["parameters"] for m in orbit["members"]]
        zero_flags = {not p for p in params}
        assert len(zero_flags) == 1


def test_iso_classes_family_d():
    orbits = iso_classes(12, 2, families="d")
    assert len(orbits) == 2
    assert all(o["orbit_size"] == 2 for o in orbits)
    # one orbit is the pair of bosonizations, the other the deformed pair
    sizes = sorted(len(o["representative"]["parameters"]) for o in orbits)
    assert sizes == [0, 1]


def test_is_isomorphic_A_is_equivalence_on_grid():
    # reflexive/symmetric/transitive across the {0,1} grid of family-(c) singles
    instances = []
    for I in [((1, 6),), ((3, 6),), ((5, 6),)]:
        for lam in (0, 1):
            instances.append((I, LiftingDatum.build(12, I, lam=lam)))
    verdicts = {}
    for a, (I1, d1) in enumerate(instances):
        for b, (I2, d2) in enumerate(instances):
            verdicts[(a, b)], _ = is_isomorphic_A(12, I1, d1, None, I2, d2, None)
    for a in range(len(instances)):
        assert verdicts[(a, a)]
        for b in range(len(instances)):
            assert verdicts[(a, b)] == verdicts[(b, a)]
            for c in range(len(instances)):
                if verdicts[(a, b)] and verdicts[(b, c)]:
                    assert verdicts[(a, c)]


def test_iso_dimension_cross_validation():
    # isomorphic A-type presentations certify the same dimension
    from nichols_dm.lifting import presentation_A
    from nichols_dm.rewrite import compile, dimension

    verdict, _ = is_isomorphic_A(12, [(1, 6)], 1, None, [(5, 6)], 1, None)
    assert verdict
    d1 = dimension(compile(presentation_A(12, [(1, 6)], lam=1)))
    d2 = dimension(compile(presentation_A(12, [(5, 6)], lam=1)))
    assert d1.dimension == d2.dimension == 96
