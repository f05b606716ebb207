import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import gcd
from typing import Callable, Optional

from nichols_dm.dihedral import DihedralGroup, GroupElement, class_of, conjugacy_classes
from nichols_dm.errors import DomainError
from nichols_dm.rack import Rack, conjugation_rack, is_type_D

# -- oracles: racks on Z/n, self-distributivity and an isomorphism search ------
#
# They check conjugation_rack: its tables are self-distributive, a reflection
# class of D_2k is the dihedral rack on Z/2k, and relabelling a class by an
# automorphism of D_m gives an isomorphic rack.


def op(rack: Rack, i: int, j: int) -> int:
    return rack.table[i][j]


def check_self_distributive(rack: Rack) -> None:
    """i > (j > k) = (i > j) > (i > k) for all triples; DomainError otherwise."""
    for i in range(rack.size):
        for j in range(rack.size):
            for k in range(rack.size):
                if rack.table[i][rack.table[j][k]] != rack.table[rack.table[i][j]][rack.table[i][k]]:
                    raise DomainError(
                        f"self-distributivity fails at ({i}, {j}, {k})"
                    )


def left_translation_cycle_type(rack: Rack, i: int) -> tuple[int, ...]:
    perm = rack.table[i]
    seen = [False] * rack.size
    cycles = []
    for start in range(rack.size):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        cycles.append(length)
    return tuple(sorted(cycles))


def dihedral_rack(n: int) -> Rack:
    """The rack on Z/n with i > j = 2i - j."""
    if n < 1:
        raise DomainError(f"dihedral rack needs n >= 1, got {n}")
    table = tuple(tuple((2 * i - j) % n for j in range(n)) for i in range(n))
    return Rack(n, table)


def affine_rack(n: int, aut: int | Callable[[int], int]) -> Rack:
    """Affine rack on Z/n: x > y = g(y) + (x - g(x)) for an automorphism g."""
    if n < 1:
        raise DomainError(f"affine rack needs n >= 1, got {n}")
    if isinstance(aut, int):
        mult = aut % n
        if gcd(mult, n) != 1:
            raise DomainError(f"multiplication by {aut} is not an automorphism of Z/{n}")
        g = lambda x: (mult * x) % n
    else:
        g = lambda x: aut(x) % n
        images = [g(x) for x in range(n)]
        if sorted(images) != list(range(n)):
            raise DomainError("map is not a bijection of Z/n")
        for x in range(n):
            for y in range(n):
                if g((x + y) % n) != (g(x) + g(y)) % n:
                    raise DomainError("map is not additive on Z/n")
    table = tuple(
        tuple((g(y) + x - g(x)) % n for y in range(n)) for x in range(n)
    )
    return Rack(n, table)


def rack_isomorphism(a: Rack, b: Rack) -> Optional[dict[int, int]]:
    """A rack isomorphism a -> b as an index map, or None.

    Backtracking on images, pruned by left-translation cycle types.
    """
    if a.size != b.size:
        return None
    types_a = [left_translation_cycle_type(a, i) for i in range(a.size)]
    types_b = [left_translation_cycle_type(b, i) for i in range(b.size)]
    if sorted(types_a) != sorted(types_b):
        return None
    mapping: dict[int, int] = {}
    used = [False] * b.size

    def consistent(i: int, img: int) -> bool:
        for j, jm in mapping.items():
            if op(a, i, j) in mapping and mapping[op(a, i, j)] != op(b, img, jm):
                return False
            if op(a, j, i) in mapping and mapping[op(a, j, i)] != op(b, jm, img):
                return False
        return True

    def extend(i: int) -> bool:
        if i == a.size:
            for x in range(a.size):
                for y in range(a.size):
                    if mapping[op(a, x, y)] != op(b, mapping[x], mapping[y]):
                        return False
            return True
        for img in range(b.size):
            if used[img] or types_a[i] != types_b[img]:
                continue
            if not consistent(i, img):
                continue
            mapping[i] = img
            used[img] = True
            if extend(i + 1):
                return True
            del mapping[i]
            used[img] = False
        return False

    return dict(mapping) if extend(0) else None


def test_dihedral_rack_formula():
    r3 = dihedral_rack(3)
    assert op(r3, 0, 1) == 2
    for n in (1, 2, 5, 8):
        rk = dihedral_rack(n)
        assert all(op(rk, i, i) == i for i in range(n))


def test_dihedral_rack_is_affine_inversion():
    for n in (3, 5, 6, 12):
        assert affine_rack(n, n - 1).table == dihedral_rack(n).table


def test_affine_rack_examples():
    assert affine_rack(5, 1).table == tuple(
        tuple(y for y in range(5)) for _ in range(5)
    )  # identity automorphism: x > y = y
    # Z/5 with doubling: 1 > 3 = 2*3 + (1 - 2) = 0
    assert op(affine_rack(5, 2), 1, 3) == 0
    with pytest.raises(DomainError):
        affine_rack(6, 2)  # 2 is not invertible mod 6
    with pytest.raises(DomainError):
        affine_rack(5, lambda x: 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.integers(1, 19))
def test_affine_rack_axioms_random(n, mult):
    if gcd(mult, n) != 1:
        with pytest.raises(DomainError):
            affine_rack(n, mult)
    else:
        check_self_distributive(affine_rack(n, mult))  # Rack checks the bijections


def test_conjugation_racks_are_self_distributive():
    for m in range(12, 49):
        G = DihedralGroup(m)
        for cls in conjugacy_classes(G):
            check_self_distributive(conjugation_rack(G, cls))


def test_self_distributivity_oracle_rejects_a_bijective_table():
    # each left translation of this table is a bijection, but
    # 0 > (1 > 0) = 1 while (0 > 1) > (0 > 0) = 0
    table = ((1, 0, 2), (0, 1, 2), (0, 1, 2))
    with pytest.raises(DomainError, match="self-distributivity fails"):
        check_self_distributive(Rack(3, table))


def test_conjugation_rack_rotations_trivial():
    G = DihedralGroup(12)
    rk = conjugation_rack(G, class_of(G, G.r(2)))
    assert rk.size == 2
    assert all(op(rk, i, j) == j for i in range(2) for j in range(2))


def test_conjugation_rack_reflections():
    G = DihedralGroup(12)
    rk = conjugation_rack(G, class_of(G, G.s()))
    assert rk.size == 6
    iso = rack_isomorphism(rk, dihedral_rack(6))
    assert iso is not None


def test_conjugation_rack_equivariance():
    # relabeling a class by the group automorphism r -> r^5, s -> s gives an isomorphic rack
    G = DihedralGroup(12)
    phi = {g: GroupElement(G.m, g.eps, 5 * g.rot) for g in G.elements()}
    for rep in (G.s(), G.s(1)):
        cls = class_of(G, rep)
        image = [phi[g] for g in cls.elements]
        assert rack_isomorphism(conjugation_rack(G, cls), conjugation_rack(G, image)) is not None


def test_rack_isomorphism_negative():
    assert rack_isomorphism(dihedral_rack(4), dihedral_rack(5)) is None
    G = DihedralGroup(8)
    trivial4 = conjugation_rack(G, [G.r(b) for b in (1, 3, 5, 7)])
    assert rack_isomorphism(trivial4, dihedral_rack(4)) is None


def test_type_d_reflection_classes_d12():
    G = DihedralGroup(12)
    verdict, witness = is_type_D(G, class_of(G, G.s()))
    assert verdict
    p, q = witness.first, witness.second
    assert (p * q) * (p * q) != (q * p) * (q * p)
    verdict_sr, _ = is_type_D(G, class_of(G, G.s(1)))
    assert verdict_sr


def test_type_d_rotation_classes_false():
    G = DihedralGroup(12)
    for cls in conjugacy_classes(G):
        if not cls.is_reflection_class:
            verdict, witness = is_type_D(G, cls)
            assert not verdict and witness is None


def test_type_d_witness_is_deterministic_lex_first():
    G = DihedralGroup(12)
    verdict, witness = is_type_D(G, class_of(G, G.s()))
    assert verdict
    assert (witness.first, witness.second) == (G.s(), G.s(2))


def test_embedded_dihedral_rack_type_d():
    # the full reflection set of D_m realizes the dihedral rack D_m inside Z/m x| Z/2
    for k in (3, 4, 5):
        G = DihedralGroup(2 * k)
        reflections = [g for g in G.elements() if g.eps == 1]
        rk = conjugation_rack(G, reflections)
        assert rack_isomorphism(rk, dihedral_rack(2 * k)) is not None
        verdict, _ = is_type_D(G, reflections)
        assert verdict


def test_rack_validation():
    with pytest.raises(DomainError):
        dihedral_rack(0)
