"""Yetter-Drinfeld modules over D_m: induction, braidings, and finiteness.

An irreducible module M(O, rho) is induced from a conjugacy class O and an
irreducible representation rho of the centralizer of its canonical
representative sigma; induce accepts rho when rho.represents(G, sigma), a
closed-form test that builds no centralizer (nichols_dm.dihedral states
the forms).  The basis is indexed by (coset, vector) pairs, the
coaction sends the i-th block to sigma_i = g_i sigma g_i^-1, and the group
acts through the coset factorization g g_i = g_j gamma.  The braiding is
c(u (x) v) = deg(u).v (x) u.  A module keeps its summands, each a class and
a representation; the basis, its indices and the coset transversal are
built on first use, by the braiding, which irreducible_verdict never needs.
irreducible_verdict decides one irreducible from its class and the scalar
rho(sigma); the finite/infinite rule for that scalar is real_class_dimension,
which classify.irreducible_survey applies to the exponents it computes in
closed form, with no representation object.

Every centralizer representation used here is monomial, so group actions
and braidings are scaled permutations of the basis; every coefficient is a
root of unity ``CycloNumber.root(m, a)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .cyclo import CycloNumber
from .dihedral import ConjugacyClass, DihedralGroup, GroupElement
from .dihedral import centralizer  # noqa: F401 -- bench/test_checks.py reads ydmod.centralizer
from .errors import DomainError
from .rack import is_type_D

__all__ = [
    "Finite",
    "Infinite",
    "YDModule",
    "braiding",
    "direct_sum",
    "induce",
    "nichols_dimension",
    "real_class_dimension",
]


@dataclass(frozen=True)
class YDSummand:
    cls: ConjugacyClass
    rep: object

    @cached_property
    def sigmas(self) -> tuple[GroupElement, ...]:
        sigma = self.cls.representative
        return (sigma,) + tuple(x for x in self.cls.elements if x != sigma)

    @cached_property
    def coset_reps(self) -> tuple[GroupElement, ...]:
        sigma = self.cls.representative
        G = DihedralGroup(sigma.m)
        return tuple(_coset_rep(G, sigma, target) for target in self.sigmas)

    @property
    def label(self) -> str:
        return f"M({self.cls.name}, {self.rep.name})"

    @property
    def dim(self) -> int:
        return len(self.sigmas) * self.rep.degree


class YDModule:
    """A finite direct sum of irreducible Yetter-Drinfeld modules over D_m."""

    def __init__(self, group: DihedralGroup, summands: Sequence[YDSummand]):
        self.group = group
        self.summands = tuple(summands)

    @cached_property
    def basis(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (si, ci, vi)
            for si, summand in enumerate(self.summands)
            for ci in range(len(summand.sigmas))
            for vi in range(summand.rep.degree)
        )

    @cached_property
    def _index(self) -> dict[tuple[int, int, int], int]:
        return {b: i for i, b in enumerate(self.basis)}

    @cached_property
    def _sigma_index(self) -> list[dict[GroupElement, int]]:
        return [{sig: i for i, sig in enumerate(s.sigmas)} for s in self.summands]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def label(self) -> str:
        return " + ".join(s.label for s in self.summands)

    def degree(self, idx: int) -> GroupElement:
        si, ci, _ = self.basis[idx]
        return self.summands[si].sigmas[ci]

    def act(self, g: GroupElement, idx: int) -> tuple[int, CycloNumber]:
        """g . e_idx as (target index, coefficient); actions here are monomial."""
        si, ci, vi = self.basis[idx]
        summand = self.summands[si]
        u = g * summand.coset_reps[ci]
        sigma = summand.sigmas[0]
        target_sigma = u * sigma * u.inverse()
        cj = self._sigma_index[si][target_sigma]
        gamma = summand.coset_reps[cj].inverse() * u
        row, scalar = summand.rep.monomial_action(gamma)[vi]
        return self._index[(si, cj, row)], scalar

    def braid(self, a: int, b: int) -> tuple[tuple[int, int], CycloNumber]:
        """c(e_a (x) e_b) = coeff * (e_b' (x) e_a)."""
        b2, coeff = self.act(self.degree(a), b)
        return (b2, a), coeff

    def __repr__(self):
        return f"YDModule(D_{self.group.m}, {self.label}, dim={self.dim})"


def induce(G: DihedralGroup, cls: ConjugacyClass, rep) -> YDModule:
    """The irreducible module M(O, rho); rho must represent the centralizer of O."""
    return YDModule(G, (_summand(G, cls, rep),))


def _summand(G: DihedralGroup, cls: ConjugacyClass, rep) -> YDSummand:
    sigma = cls.representative
    if not hasattr(rep, "represents") or not rep.represents(G, sigma):
        raise DomainError(f"{rep!r} is not a representation of the centralizer of {sigma}")
    return YDSummand(cls, rep)


def _coset_rep(G: DihedralGroup, sigma: GroupElement, target: GroupElement) -> GroupElement:
    """The least g (in sorted order) with g sigma g^-1 = target, in closed form."""
    if sigma.eps == 0:
        return G.identity if target == sigma else G.s()
    d = (sigma.rot - target.rot) % G.m
    return G.r(d // 2 if d % 2 == 0 else (d + G.m) // 2)


def direct_sum(modules: Sequence[YDModule]) -> YDModule:
    if not modules:
        raise DomainError("direct sum needs at least one module")
    group = modules[0].group
    if any(mod.group != group for mod in modules):
        raise DomainError("summands live over different groups")
    summands = [s for mod in modules for s in mod.summands]
    return YDModule(group, summands)


@dataclass(frozen=True)
class BraidingData:
    module: YDModule
    is_diagonal: bool
    matrix: Optional[tuple[tuple[CycloNumber, ...], ...]]


def braiding(M: YDModule) -> BraidingData:
    """Braiding on all basis pairs; matrix Q is set when c is diagonal."""
    d = M.dim
    rows = []
    diagonal = True
    for a in range(d):
        row = []
        for b in range(d):
            (b2, _a2), coeff = M.braid(a, b)
            if b2 != b:
                diagonal = False
            row.append(coeff)
        rows.append(tuple(row))
    return BraidingData(M, diagonal, tuple(rows) if diagonal else None)


@dataclass(frozen=True)
class Finite:
    dimension: int

    @property
    def is_finite(self) -> bool:
        return True


@dataclass(frozen=True)
class Infinite:
    rule: str  # RealClassScalar | TypeD | RomboDiagram
    summands: tuple[str, ...]
    witness: object

    @property
    def is_finite(self) -> bool:
        return False


def irreducible_verdict(G: DihedralGroup, cls: ConjugacyClass, rep) -> Finite | Infinite:
    """Decide dim B(M(O, rho)), m = 4t >= 12, with no module and no braiding.

    A reflection class is of type D.  Otherwise sigma acts by a scalar c, and
    real_class_dimension decides: finite exactly when c = -1.
    """
    G.require_classification_modulus()
    label = _summand(G, cls, rep).label
    if cls.is_reflection_class:
        verdict, witness = is_type_D(G, cls)
        if not verdict:
            raise RuntimeError(f"reflection class {cls.name} unexpectedly not of type D")
        return Infinite("TypeD", (label,), witness)
    action = rep.monomial_action(cls.representative)
    if any(row != col for col, (row, _) in enumerate(action)):
        raise DomainError(f"{label}: sigma does not act diagonally on the block")
    scalar = action[0][1]
    if any(other != scalar for _, other in action[1:]):
        raise DomainError(f"{label}: sigma does not act by a scalar")
    dimension = real_class_dimension(cls.size, rep.degree, scalar == -1)
    if dimension is None:
        return Infinite("RealClassScalar", (label,), scalar)
    return Finite(dimension)


def real_class_dimension(size: int, degree: int, minus_one: bool) -> int | None:
    """dim B(M(O, rho)) for a rotation class O on which sigma acts by a scalar c.

    Every class of D_m is real (Andruskiewitsch-Zhang, Proc. AMS 135, 2007),
    so B is finite, of dimension 2^(|O| deg rho), exactly when c = -1
    (`minus_one`); None means infinite, certified by RealClassScalar with
    witness c.  irreducible_verdict and classify.irreducible_survey both
    decide a rotation row by this rule.
    """
    return 2 ** (size * degree) if minus_one else None


def nichols_dimension(M: YDModule) -> Finite | Infinite:
    """Decide dim B(M) for M over D_m, m = 4t >= 12.

    irreducible_verdict decides each summand, reflection classes first (TypeD,
    then RealClassScalar).  A sum of two or more summands of scalar -1 is
    Finite(2^dim M) exactly when its braiding is -flip; otherwise RomboDiagram
    names an edge of the generalized Dynkin diagram (a 4-cycle).
    """
    G = M.group
    G.require_classification_modulus()
    if not M.summands:
        raise DomainError("empty module")

    for summand in sorted(M.summands, key=lambda s: not s.cls.is_reflection_class):
        verdict = irreducible_verdict(G, summand.cls, summand.rep)
        if not verdict.is_finite or len(M.summands) == 1:
            return verdict

    data = braiding(M)
    if not data.is_diagonal:
        raise RuntimeError("rotation-class braiding unexpectedly non-diagonal")
    Q = data.matrix
    for i in range(M.dim):
        for j in range(i + 1, M.dim):
            label = Q[i][j] * Q[j][i]
            if label != 1:
                pair = (M.summands[M.basis[i][0]].label, M.summands[M.basis[j][0]].label)
                return Infinite("RomboDiagram", pair, label)
    return Finite(2**M.dim)
