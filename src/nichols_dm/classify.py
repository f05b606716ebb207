"""Combinatorics of the finite-dimensional classification over D_m, m = 4t.

The support set J = {(i, k) : w^(ik) = -1} indexes the two-dimensional
modules M_{i,k} over the rotation pair classes; the relation
(i,k) ~ (p,q) <=> w^(iq+pk) = 1 (transitive only when m is a power of two)
controls which direct sums stay finite-dimensional.  Families:

  I-families: multisets of pairwise-related J-pairs             (dim 4^|I|)
  L-families: multisets of odd l with 1 <= l < n                (dim 4^|L|)
  K-families: (I, L) with every k odd and (i, l) in J throughout (dim 4^(|I|+|L|))

Multiset reading: repeats are allowed, entries are kept sorted.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Sequence

from .cyclo import CycloNumber
from .dihedral import CyclicCharacter, DihedralGroup, Irrep, class_of
from .errors import DomainError
from .rack import is_type_D
from .ydmod import YDModule, direct_sum, induce, real_class_dimension

__all__ = [
    "N_i",
    "are_equivalent",
    "enumerate_I",
    "enumerate_K",
    "enumerate_L",
    "in_J",
    "support_J",
    "theorem_A_report",
]

Pair = tuple[int, int]


def in_J(m: int, pair: Pair) -> bool:
    i, k = pair
    n = m // 2
    return 1 <= i <= n - 1 and 1 <= k <= m - 1 and (i * k) % m == n


def support_J(m: int) -> list[Pair]:
    """All (i, k), 1 <= i <= n-1, 1 <= k <= m-1, with ik = n mod m."""
    DihedralGroup(m).require_classification_modulus()
    n = m // 2
    return [(i, k) for i in range(1, n) for k in range(1, m) if (i * k) % m == n]


def N_i(m: int, i: int) -> set[int]:
    """{k : 0 <= k <= m-1, chi_(k)(r^i) = -1} = solutions of ik = n mod m."""
    n = m // 2
    if not 1 <= i <= n - 1:
        raise DomainError(f"need 1 <= i <= n-1 = {n - 1}, got {i}")
    return {k for k in range(m) if (i * k) % m == n}


def _related(m: int, p1: Pair, p2: Pair) -> bool:
    """(i,k) ~ (p,q) iff iq + pk = 0 mod m, for pairs already known to lie in J."""
    (i, k), (p, q) = p1, p2
    return (i * q + p * k) % m == 0


def are_equivalent(p1: Pair, p2: Pair, m: int) -> bool:
    """(i,k) ~ (p,q) iff iq + pk = 0 mod m; both pairs must lie in J."""
    for p in (p1, p2):
        if not in_J(m, p):
            raise DomainError(f"{p} is not in J for m = {m}")
    return _related(m, p1, p2)


def _sorted_multisets(items, compatible, size):
    def grow(prefix: tuple, start: int):
        if len(prefix) == size:
            yield prefix
            return
        for idx in range(start, len(items)):
            candidate = items[idx]
            if all(candidate in compatible[p] for p in prefix):
                yield from grow(prefix + (candidate,), idx)

    yield from grow((), 0)


def enumerate_I(m: int, r_max: int) -> Iterator[tuple[Pair, ...]]:
    """All I-families of size 1..r_max in canonical (size, lexicographic) order.

    An I-family is a multiset of J-pairs that are pairwise related under ~;
    the search extends sorted prefixes by pairwise-compatible entries.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    pairs = support_J(m)
    compatible = {p: {q for q in pairs if _related(m, p, q)} for p in pairs}
    for size in range(1, r_max + 1):
        yield from _sorted_multisets(pairs, compatible, size)


def enumerate_L(m: int, r_max: int) -> Iterator[tuple[int, ...]]:
    """All L-families (multisets of odd 1 <= l < n) of size 1..r_max."""
    DihedralGroup(m).require_classification_modulus()
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    odd = [ell for ell in range(1, m // 2) if ell % 2]
    for size in range(1, r_max + 1):
        yield from combinations_with_replacement(odd, size)


def enumerate_K(m: int, r_max: int) -> Iterator[tuple[tuple[Pair, ...], tuple[int, ...]]]:
    """All (I, L) with |I|, |L| >= 1 and |I| + |L| <= r_max satisfying the K conditions.

    For each I with every k odd, the admissible ells (odd l with (i, l) in J
    for every i of I) are found once; the L are their sorted multisets, by
    size, which is the order of the L-families they are filtered from.
    """
    if r_max < 2:
        return
    odd = [ell for ell in range(1, m // 2) if ell % 2]
    for I in enumerate_I(m, r_max - 1):
        if any(k % 2 == 0 for _, k in I):
            continue
        ells = [ell for ell in odd if all(in_J(m, (i, ell)) for i, _ in I)]
        for size in range(1, r_max - len(I) + 1):
            for L in combinations_with_replacement(ells, size):
                yield I, L


def is_valid_I(m: int, I: Sequence[Pair]) -> bool:
    pairs = list(I)
    return bool(pairs) and all(in_J(m, p) for p in pairs) and all(
        _related(m, a, b) for a in pairs for b in pairs
    )


def is_valid_L(m: int, L: Sequence[int]) -> bool:
    n = m // 2
    return bool(L) and all(1 <= ell < n and ell % 2 for ell in L)


def is_valid_K(m: int, I: Sequence[Pair], L: Sequence[int]) -> bool:
    return (
        is_valid_I(m, I)
        and is_valid_L(m, L)
        and all(k % 2 for _, k in I)
        and all(in_J(m, (i, ell)) for i, _ in I for ell in L)
    )


def module_of(G: DihedralGroup, I: Sequence[Pair], L: Sequence[int]) -> YDModule:
    """The direct sum of M_{i,k} for (i, k) in I, then M_l for l in L, in the order given."""
    blocks = [induce(G, class_of(G, G.r(i)), CyclicCharacter(G, k)) for i, k in I]
    blocks += [induce(G, class_of(G, G.r(G.n)), Irrep(G, "two_dim", ell)) for ell in L]
    return direct_sum(blocks)


def irreducible_survey(m: int) -> list[dict]:
    """Every irreducible M(O, rho) over D_m with its verdict; builds no module and no rep.

    The rows follow conjugacy_classes and centralizer_representations, and
    are written from integers.  On a rotation class sigma acts by a scalar
    w^a, and real_class_dimension decides: finite exactly when w^a = -1, i.e.
    a = n (mod m), n = m/2.  The exponent a of each row, in closed form:

      e          chi_1..chi_4 and rho_l: a = 0, as every rep is trivial at e.
      r^i        chi_(k), k = 0..m-1, 1 <= i < n: a = ik mod m.
      r^n        chi_1..chi_4: a = 0, since chi_3, chi_4 are -1 only on odd
                 rotations and n = 2t is even; rho_l: a = nl mod m (its two
                 diagonal entries w^(nl), w^(-nl) agree, as 2nl = 0 mod m).
      s, sr      of type D: every Klein-four row shares the class's
                 is_type_D witness.

    A RealClassScalar witness str(w^a) is formatted once per a in a call.
    """
    G = DihedralGroup(m).require_classification_modulus()
    n = m // 2
    witnesses: dict[int, str] = {}
    rows = []

    def add(cls_name: str, size: int, rep_name: str, degree: int, a: int):
        dimension = real_class_dimension(size, degree, a == n)
        if dimension is not None:
            rows.append({"class": cls_name, "class_size": size, "rep": rep_name,
                         "rep_degree": degree, "verdict": "finite", "dimension": dimension})
            return
        witness = witnesses.get(a)
        if witness is None:
            witness = witnesses[a] = str(CycloNumber.root(m, a))
        rows.append({"class": cls_name, "class_size": size, "rep": rep_name,
                     "rep_degree": degree, "verdict": "infinite",
                     "certificate": "RealClassScalar", "witness": witness})

    # the irreps of D_m as (name, degree, l), l = 0 for the linear characters
    irreps = [(f"chi_{j}", 1, 0) for j in (1, 2, 3, 4)]
    irreps += [(f"rho_{ell}", 2, ell) for ell in range(1, n)]
    for name, degree, _ in irreps:
        add("e", 1, name, degree, 0)
    chis = [f"chi_({k})" for k in range(m)]
    for i in range(1, n):
        cls_name = f"r^{i}"
        for k, name in enumerate(chis):
            add(cls_name, 2, name, 1, i * k % m)
    for name, degree, ell in irreps:
        add(f"r^{n}", 1, name, degree, n * ell % m)
    for b, cls_name in ((0, "s"), (1, "sr")):
        verdict, pair = is_type_D(G, class_of(G, G.s(b)))
        if not verdict:
            raise RuntimeError(f"reflection class {cls_name} unexpectedly not of type D")
        witness = f"({pair.first}, {pair.second})"
        for name in ("exe", "exs", "sxe", "sxs"):
            rows.append({"class": cls_name, "class_size": n, "rep": name, "rep_degree": 1,
                         "verdict": "infinite", "certificate": "TypeD", "witness": witness})
    return rows


def theorem_A_report(m: int, r_max: int) -> dict:
    """The full classification report: J, the N_i, all families, and Table-style verdicts."""
    G = DihedralGroup(m).require_classification_modulus()
    n, t = G.n, G.t
    families_I = [
        {"I": list(I), "dim_module": 2 * len(I), "dim_nichols": 4 ** len(I)}
        for I in enumerate_I(m, r_max)
    ]
    families_L = [
        {"L": list(L), "dim_module": 2 * len(L), "dim_nichols": 4 ** len(L)}
        for L in enumerate_L(m, r_max)
    ]
    families_K = [
        {
            "I": list(I),
            "L": list(L),
            "dim_module": 2 * (len(I) + len(L)),
            "dim_nichols": 4 ** (len(I) + len(L)),
        }
        for I, L in enumerate_K(m, r_max)
    ]
    return {
        "m": m,
        "n": n,
        "t": t,
        "J": support_J(m),
        "N": {i: sorted(N_i(m, i)) for i in range(1, n)},
        "odd_ells": [ell for ell in range(1, n) if ell % 2],
        "families": {"I": families_I, "L": families_L, "K": families_K},
        "irreducibles": irreducible_survey(m),
    }
