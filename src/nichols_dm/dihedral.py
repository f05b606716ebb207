"""The dihedral group D_m of order 2m and its representation theory.

Elements are kept in the normal form s^eps r^rot (reflection first), with
s^2 = 1 = r^m and s r s = r^-1.  Group operations work for any m >= 3;
the classification pipeline elsewhere additionally requires m = 4t with
t >= 3.

Classes and centralizers come from closed forms, not from a search of the
group; they hold for every m >= 3.  Conjugation acts by
r^j (s r^b) r^-j = s r^(b-2j) and s (r^a) s = r^-a, so:

  classes        {e}, {r^a, r^-a} for 1 <= a <= m/2 (a single element when
                 2a = 0 mod m), and the reflections s r^b with b of one
                 parity (m even: {s r^even}, {s r^odd}; m odd: all of them).
                 The canonical representative is the least element:
                 e, r^a with a <= m/2, s, s r.
  centralizers   all of D_m for r^a with 2a = 0 mod m, <r> for the other
                 rotations, and {r^j, s r^(b+j) : 2j = 0 mod m} for s r^b,
                 i.e. {e, r^n, s r^b, s r^(b+n)} when m = 2n.
  coset reps     the least g in (eps, rot) order with g sigma g^-1 = tau,
                 used by ydmod.induce: e for tau = sigma and s otherwise when
                 sigma is a rotation; r^j with 2j = b - c mod m when
                 sigma = s r^b and tau = s r^c, i.e. j = d/2 for even
                 d = (b - c) mod m and j = (d + m)/2 for odd d (odd m only).
  domains        rep.represents(G, sigma) reads the centralizer forms above
                 without building one, and ydmod.induce checks its pairing
                 with it: an Irrep (on all of D_m) represents the centralizer
                 of r^a with 2a = 0 mod m, a CyclicCharacter (on <r>) that of
                 any other rotation, and the KleinFourCharacter built at s r^c
                 that of s r^b for b = c mod n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cyclo import CycloNumber
from .errors import DomainError

__all__ = [
    "CyclicCharacter",
    "ConjugacyClass",
    "DihedralGroup",
    "GroupElement",
    "Irrep",
    "KleinFourCharacter",
    "centralizer",
    "conjugacy_classes",
    "g_element",
    "g_encode",
    "g_inv",
    "g_mul",
    "irreps",
]


@dataclass(frozen=True, order=True)
class GroupElement:
    """s^eps r^rot in D_m; ordering is lexicographic in (eps, rot)."""

    m: int
    eps: int
    rot: int

    def __post_init__(self):
        if self.m < 3:
            raise DomainError(f"dihedral modulus must be >= 3, got {self.m}")
        object.__setattr__(self, "eps", self.eps & 1)
        object.__setattr__(self, "rot", self.rot % self.m)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.m != other.m:
            raise DomainError("elements of different dihedral groups")
        # s^a r^b . s^c r^d = s^(a+c) r^((-1)^c b + d)
        rot = (other.rot - self.rot) if other.eps else (self.rot + other.rot)
        return GroupElement(self.m, self.eps ^ other.eps, rot)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.m, self.eps, self.rot if self.eps else -self.rot)

    @property
    def is_identity(self) -> bool:
        return self.eps == 0 and self.rot == 0

    def __str__(self):
        if self.eps == 0:
            return "e" if self.rot == 0 else f"r^{self.rot}"
        return "s" if self.rot == 0 else f"s r^{self.rot}"

    def __repr__(self):
        return f"GroupElement(D_{self.m}: {self})"


# The int code of D_m, used in rewrite's inner loops: s^eps r^rot is
# eps*m + rot with 0 <= rot < m, in the (eps, rot) order of GroupElement.


def g_encode(m: int, eps: int, rot: int) -> int:
    return (eps & 1) * m + rot % m


def g_mul(m: int, a: int, b: int) -> int:
    e1, b1 = divmod(a, m)
    e2, b2 = divmod(b, m)
    rot = (b2 - b1) if e2 else (b1 + b2)
    return (e1 ^ e2) * m + rot % m


def g_inv(m: int, a: int) -> int:
    eps, rot = divmod(a, m)
    return a if eps else (-rot) % m


def g_element(m: int, a: int) -> GroupElement:
    eps, rot = divmod(a, m)
    return GroupElement(m, eps, rot)


@dataclass(frozen=True)
class DihedralGroup:
    """D_m = <s, r | s^2 = 1 = r^m, s r s = r^-1>, of order 2m."""

    m: int

    def __post_init__(self):
        if self.m < 3:
            raise DomainError(f"dihedral group needs m >= 3, got {self.m}")

    @property
    def n(self) -> int:
        if self.m % 2:
            raise DomainError(f"n = m/2 needs even m, got {self.m}")
        return self.m // 2

    @property
    def t(self) -> int:
        if self.m % 4:
            raise DomainError(f"t = m/4 needs m divisible by 4, got {self.m}")
        return self.m // 4

    @property
    def is_classification_modulus(self) -> bool:
        return self.m % 4 == 0 and self.m >= 12

    def require_classification_modulus(self) -> "DihedralGroup":
        """This group, once m = 4t with t >= 3 is checked."""
        if not self.is_classification_modulus:
            raise DomainError(
                f"classification requires m = 4t with t >= 3, got m = {self.m}"
            )
        return self

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self.m, 0, 0)

    def r(self, b: int = 1) -> GroupElement:
        return GroupElement(self.m, 0, b)

    def s(self, b: int = 0) -> GroupElement:
        return GroupElement(self.m, 1, b)

    def elements(self) -> Iterator[GroupElement]:
        for eps in (0, 1):
            for rot in range(self.m):
                yield GroupElement(self.m, eps, rot)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: GroupElement
    elements: tuple[GroupElement, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def name(self) -> str:
        rep = self.representative
        if rep.is_identity:
            return "e"
        if rep.eps == 0:
            return f"r^{rep.rot}"
        return "s" if rep.rot == 0 else "sr"

    @property
    def is_reflection_class(self) -> bool:
        return self.representative.eps == 1

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.elements

    def __iter__(self):
        return iter(self.elements)


def _require_member(G: DihedralGroup, sigma: GroupElement):
    if sigma.m != G.m:
        raise DomainError("elements of different dihedral groups")


def class_of(G: DihedralGroup, sigma: GroupElement) -> ConjugacyClass:
    """Conjugacy class of sigma, with the canonical representative first."""
    _require_member(G, sigma)
    if sigma.eps == 0:
        elems = tuple(G.r(b) for b in sorted({sigma.rot, -sigma.rot % G.m}))
    else:
        step = 2 - G.m % 2
        elems = tuple(G.s(b) for b in range(sigma.rot % step, G.m, step))
    return ConjugacyClass(elems[0], elems)


def conjugacy_classes(G: DihedralGroup) -> list[ConjugacyClass]:
    """All conjugacy classes, identity first, then rotations, then reflections."""
    rotations = [class_of(G, G.r(a)) for a in range(G.m // 2 + 1)]
    return rotations + [class_of(G, G.s(b)) for b in range(2 - G.m % 2)]


@dataclass(frozen=True)
class Centralizer:
    sigma: GroupElement
    elements: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.elements


def centralizer(G: DihedralGroup, sigma: GroupElement) -> Centralizer:
    """Centralizer of sigma, its elements in sorted order."""
    _require_member(G, sigma)
    if sigma.eps == 0 and 2 * sigma.rot % G.m == 0:
        elems = tuple(G.elements())
    elif sigma.eps == 0:
        elems = tuple(G.r(b) for b in range(G.m))
    else:
        halves = (0, G.m // 2) if G.m % 2 == 0 else (0,)  # the j with r^2j = e
        reflections = sorted((sigma.rot + j) % G.m for j in halves)
        elems = tuple(G.r(j) for j in halves) + tuple(G.s(b) for b in reflections)
    return Centralizer(sigma, elems)


# -- irreducible representations --------------------------------------------


@dataclass(frozen=True)
class Irrep:
    """An irreducible representation of D_m (m even): 4 linear + (n-1) two-dim."""

    group: DihedralGroup
    kind: str
    index: int

    def __post_init__(self):
        if self.group.m % 2:
            raise DomainError("irrep tables are implemented for even m")
        if self.kind == "linear":
            if self.index not in (1, 2, 3, 4):
                raise DomainError(f"linear characters are indexed 1..4, got {self.index}")
        elif self.kind == "two_dim":
            if not 1 <= self.index < self.group.n:
                raise DomainError(f"two-dim irreps need 1 <= l < n, got {self.index}")
        else:
            raise DomainError(f"unknown irrep kind {self.kind!r}")

    @property
    def degree(self) -> int:
        return 1 if self.kind == "linear" else 2

    @property
    def name(self) -> str:
        return f"chi_{self.index}" if self.kind == "linear" else f"rho_{self.index}"

    def monomial_action(self, a: GroupElement) -> tuple[tuple[int, CycloNumber], ...]:
        """Column j of the matrix as (row, scalar); all irreps here are monomial."""
        _require_member(self.group, a)
        m = self.group.m
        if self.kind == "linear":
            half = m // 2
            exp = 0
            if self.index in (2, 4) and a.eps:
                exp += half
            if self.index in (3, 4) and a.rot % 2:
                exp += half
            return ((0, CycloNumber.root(m, exp)),)
        ell = self.index
        cols = [(0, CycloNumber.root(m, ell * a.rot)), (1, CycloNumber.root(m, -ell * a.rot))]
        if a.eps:
            cols = [(1 - row, scalar) for row, scalar in cols]
        return tuple(cols)

    def evaluate(self, a: GroupElement) -> tuple[tuple[CycloNumber, ...], ...]:
        """Dense row-major matrix over CycloNumber."""
        d = self.degree
        m = self.group.m
        rows = [[CycloNumber.zero(m) for _ in range(d)] for _ in range(d)]
        for col, (row, scalar) in enumerate(self.monomial_action(a)):
            rows[row][col] = scalar
        return tuple(tuple(r) for r in rows)

    def character(self, a: GroupElement) -> CycloNumber:
        total = CycloNumber.zero(self.group.m)
        for col, (row, scalar) in enumerate(self.monomial_action(a)):
            if row == col:
                total = total + scalar
        return total

    def represents(self, G: DihedralGroup, sigma: GroupElement) -> bool:
        """True when this is a representation of the centralizer of sigma in G."""
        return (
            self.group == G
            and sigma.m == G.m
            and sigma.eps == 0
            and 2 * sigma.rot % G.m == 0
        )


def irreps(G: DihedralGroup) -> list[Irrep]:
    """The 4 linear characters of Table-style and the n-1 two-dimensional irreps."""
    out = [Irrep(G, "linear", i) for i in (1, 2, 3, 4)]
    out.extend(Irrep(G, "two_dim", ell) for ell in range(1, G.n))
    return out


@dataclass(frozen=True)
class CyclicCharacter:
    """Character chi_(k) of the rotation subgroup <r> = Z/m, chi_(k)(r) = w^k."""

    group: DihedralGroup
    k: int

    degree = 1

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % self.group.m)

    @property
    def name(self) -> str:
        return f"chi_({self.k})"

    def value(self, a: GroupElement) -> CycloNumber:
        _require_member(self.group, a)
        if a.eps:
            raise DomainError(f"{a} is not in the rotation subgroup")
        return CycloNumber.root(self.group.m, self.k * a.rot)

    def monomial_action(self, a: GroupElement) -> tuple[tuple[int, CycloNumber], ...]:
        return ((0, self.value(a)),)

    def represents(self, G: DihedralGroup, sigma: GroupElement) -> bool:
        """True when this is a representation of the centralizer of sigma in G."""
        return (
            self.group == G
            and sigma.m == G.m
            and sigma.eps == 0
            and 2 * sigma.rot % G.m != 0
        )


@dataclass(frozen=True)
class KleinFourCharacter:
    """Character of the centralizer <sigma> x <r^n> = Z/2 x Z/2 of a reflection.

    sign_sigma and sign_central are the values (+1 or -1) on sigma and on
    the central rotation r^n.
    """

    group: DihedralGroup
    sigma: GroupElement
    sign_sigma: int
    sign_central: int

    degree = 1

    def __post_init__(self):
        if self.group.m % 2:
            raise DomainError("reflection centralizers of this shape need even m")
        _require_member(self.group, self.sigma)
        if self.sigma.eps != 1:
            raise DomainError(f"{self.sigma} is not a reflection")
        if self.sign_sigma not in (1, -1) or self.sign_central not in (1, -1):
            raise DomainError("signs must be +1 or -1")

    @property
    def name(self) -> str:
        tag = {1: "e", -1: "s"}
        return f"{tag[self.sign_sigma]}x{tag[self.sign_central]}"

    def value(self, a: GroupElement) -> CycloNumber:
        G = self.group
        _require_member(G, a)
        half = G.m // 2
        exp = 0
        rot = a.rot
        if a.eps:
            if self.sign_sigma < 0:
                exp += half
            rot = (rot - self.sigma.rot) % G.m
        if rot == half:
            if self.sign_central < 0:
                exp += half
        elif rot != 0:
            raise DomainError(f"{a} is not in the centralizer of {self.sigma}")
        return CycloNumber.root(G.m, exp)

    def monomial_action(self, a: GroupElement) -> tuple[tuple[int, CycloNumber], ...]:
        return ((0, self.value(a)),)

    def represents(self, G: DihedralGroup, sigma: GroupElement) -> bool:
        """True when this is a representation of the centralizer of sigma in G."""
        return (
            self.group == G
            and sigma.m == G.m
            and sigma.eps == 1
            and (sigma.rot - self.sigma.rot) % (G.m // 2) == 0
        )


def centralizer_representations(G: DihedralGroup, cls: ConjugacyClass) -> list:
    """All irreducible representations of the centralizer of cls.representative."""
    sigma = cls.representative
    if sigma.eps == 0:
        if 2 * sigma.rot % G.m == 0:
            return irreps(G)
        return [CyclicCharacter(G, k) for k in range(G.m)]
    return [
        KleinFourCharacter(G, sigma, a, b)
        for a in (1, -1)
        for b in (1, -1)
    ]
