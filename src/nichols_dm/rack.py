"""Finite racks and the type-D criterion for conjugacy classes.

A rack is a set with a self-distributive operation x > y whose left
translations are bijections.  Conjugacy classes are racks under
x > y = x y x^-1; a class is of type D when it contains elements p, q
with (pq)^2 != (qp)^2 that are not conjugate in the subgroup <p, q>.
Type-D classes force infinite-dimensional Nichols algebras, so the
witness pair doubles as a certificate.

In D_m the test is a closed form, not a search of <p, q>.  Rotations
commute, and a rotation times a reflection squares to 1 either way, so
only two reflections p = s r^a, q = s r^b can qualify.  With
d = (b - a) mod m, pq = r^d and qp = r^-d, so (pq)^2 != (qp)^2 iff
4d != 0 mod m.  <p, q> = <s r^a, r^g> with g = gcd(d, m), in which p
is conjugate to s r^(a + 2jg) only, so q is not conjugate to p iff
m / g is even.  A reflection class of D_m is therefore of type D
exactly when m = 4t with t >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional, Sequence

from .dihedral import ConjugacyClass, DihedralGroup, GroupElement
from .errors import DomainError

__all__ = [
    "Rack",
    "TypeDWitness",
    "affine_rack",
    "conjugation_rack",
    "dihedral_rack",
    "is_type_D",
    "rack_isomorphism",
]


@dataclass(frozen=True)
class Rack:
    """Rack on indices 0..size-1; table[i][j] = i > j."""

    size: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple = ()

    def __post_init__(self):
        if len(self.table) != self.size or any(len(row) != self.size for row in self.table):
            raise DomainError("rack table shape does not match size")
        for i, row in enumerate(self.table):
            if sorted(row) != list(range(self.size)):
                raise DomainError(f"left translation by {i} is not a bijection")
        for i in range(self.size):
            for j in range(self.size):
                for k in range(self.size):
                    if self.table[i][self.table[j][k]] != self.table[self.table[i][j]][self.table[i][k]]:
                        raise DomainError(
                            f"self-distributivity fails at ({i}, {j}, {k})"
                        )

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def left_translation_cycle_type(self, i: int) -> tuple[int, ...]:
        perm = self.table[i]
        seen = [False] * self.size
        cycles = []
        for start in range(self.size):
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
    return Rack(n, table, labels=tuple(range(n)))


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
    return Rack(n, table, labels=tuple(range(n)))


def conjugation_rack(G: DihedralGroup, cls: ConjugacyClass | Sequence[GroupElement]) -> Rack:
    """The conjugation rack on a conjugacy class (or any conjugation-closed set)."""
    elems = tuple(sorted(cls.elements if isinstance(cls, ConjugacyClass) else cls))
    index = {g: i for i, g in enumerate(elems)}
    table = []
    for x in elems:
        row = []
        for y in elems:
            z = x * y * x.inverse()
            if z not in index:
                raise DomainError(f"set is not closed under conjugation: {x} > {y} = {z}")
            row.append(index[z])
        table.append(tuple(row))
    return Rack(len(elems), tuple(table), labels=elems)


def rack_isomorphism(a: Rack, b: Rack) -> Optional[dict[int, int]]:
    """A rack isomorphism a -> b as an index map, or None.

    Backtracking on images, pruned by left-translation cycle types.
    """
    if a.size != b.size:
        return None
    types_a = [a.left_translation_cycle_type(i) for i in range(a.size)]
    types_b = [b.left_translation_cycle_type(i) for i in range(b.size)]
    if sorted(types_a) != sorted(types_b):
        return None
    mapping: dict[int, int] = {}
    used = [False] * b.size

    def consistent(i: int, img: int) -> bool:
        for j, jm in mapping.items():
            if a.op(i, j) in mapping and mapping[a.op(i, j)] != b.op(img, jm):
                return False
            if a.op(j, i) in mapping and mapping[a.op(j, i)] != b.op(jm, img):
                return False
        return True

    def extend(i: int) -> bool:
        if i == a.size:
            for x in range(a.size):
                for y in range(a.size):
                    if mapping[a.op(x, y)] != b.op(mapping[x], mapping[y]):
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


@dataclass(frozen=True)
class TypeDWitness:
    first: GroupElement
    second: GroupElement


def is_type_D(
    G: DihedralGroup, cls: ConjugacyClass | Sequence[GroupElement]
) -> tuple[bool, Optional[TypeDWitness]]:
    """The lexicographically first pair p, q of the class that makes it type D.

    Pairs are taken in sorted order, so the witness is reproducible.  Only
    two reflections can qualify; `_type_d_pair` decides a pair in closed form.
    """
    elems = sorted(cls.elements if isinstance(cls, ConjugacyClass) else cls)
    reflections = [g for g in elems if g.eps]
    for p in reflections:
        for q in reflections:
            if _type_d_pair(p, q):
                return True, TypeDWitness(p, q)
    return False, None


def _type_d_pair(p: GroupElement, q: GroupElement) -> bool:
    """(pq)^2 != (qp)^2 and q not conjugate to p in <p, q>, for reflections p, q.

    q = s r^(a + d) is conjugate to p = s r^a in <p, q> iff d is a
    multiple of gcd(2g, m), g = gcd(d, m), i.e. iff m / g is odd (see the
    module docstring).
    """
    m = p.m
    d = (q.rot - p.rot) % m
    return 4 * d % m != 0 and (m // gcd(d, m)) % 2 == 0
