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
from typing import Optional, Sequence

from .dihedral import ConjugacyClass, DihedralGroup, GroupElement
from .errors import DomainError

__all__ = [
    "Rack",
    "conjugation_rack",
    "is_type_D",
]


@dataclass(frozen=True)
class Rack:
    """Rack on indices 0..size-1; table[i][j] = i > j.

    The shape and the bijectivity of left translations are checked;
    self-distributivity is not, since every rack built here is a
    conjugation rack, self-distributive by construction.
    """

    size: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.table) != self.size or any(len(row) != self.size for row in self.table):
            raise DomainError("rack table shape does not match size")
        for i, row in enumerate(self.table):
            if sorted(row) != list(range(self.size)):
                raise DomainError(f"left translation by {i} is not a bijection")


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
    return Rack(len(elems), tuple(table))


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
