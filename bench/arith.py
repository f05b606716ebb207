"""The benchmark's own arithmetic of D_m, kept apart from the package.

Job generation and the correctness checks use only these definitions, so
a job's output is checked against a computation the program did not make.
Conventions: m = 4t >= 12, n = m/2, pairs (i, k) with 1 <= i < n.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import gcd


def support_J(m: int) -> list[tuple[int, int]]:
    """J = {(i, k) : 1 <= i < n, 1 <= k < m, ik = n (mod m)}, sorted."""
    n = m // 2
    return [(i, k) for i in range(1, n) for k in range(1, m) if i * k % m == n]


def related(a: tuple[int, int], b: tuple[int, int], m: int) -> bool:
    """The pair relation (i,k) ~ (p,q) <=> iq + pk = 0 (mod m)."""
    return (a[0] * b[1] + b[0] * a[1]) % m == 0


def pairwise_related(pairs, m: int) -> bool:
    return all(related(a, b, m) for a, b in combinations(pairs, 2))


def odd_ells(m: int) -> list[int]:
    return [ell for ell in range(1, m // 2) if ell % 2]


def I_families(m: int, r_max: int) -> list[tuple]:
    """Pairwise-related multisets of J-pairs, by size, then lexicographic."""
    J = support_J(m)
    return [
        combo
        for r in range(1, r_max + 1)
        for combo in combinations_with_replacement(J, r)
        if pairwise_related(combo, m)
    ]


def L_families(m: int, r_max: int) -> list[tuple]:
    """Multisets of odd labels 1 <= l < n, by size, then lexicographic."""
    return [
        combo
        for r in range(1, r_max + 1)
        for combo in combinations_with_replacement(odd_ells(m), r)
    ]


def K_families(m: int, r_max: int) -> list[tuple]:
    """(I, L) with |I|, |L| >= 1, |I| + |L| <= r_max, every k odd, every (i, l) in J."""
    n = m // 2
    out = []
    for I in I_families(m, r_max - 1):
        if any(k % 2 == 0 for _, k in I):
            continue
        for L in L_families(m, r_max - len(I)):
            if all(i * ell % m == n for i, _ in I for ell in L):
                out.append((I, L))
    return out


def units(m: int) -> list[int]:
    return [u for u in range(1, m) if gcd(u, m) == 1]


def act_pair(u: int, pair: tuple[int, int], m: int) -> tuple[int, int]:
    """(i, k) -> (ui, u^-1 k), with the first entry folded below n."""
    n = m // 2
    i, k = pair
    ui, vk = u * i % m, pow(u, -1, m) * k % m
    return (ui, vk) if ui < n else (m - ui, vk)


def act_ell(u: int, ell: int, m: int) -> int:
    """l -> u^-1 l, folded below n."""
    v = pow(u, -1, m) * ell % m
    return v if v < m // 2 else m - v


def act_I(u: int, I, m: int) -> tuple:
    return tuple(sorted(act_pair(u, tuple(p), m) for p in I))


def act_L(u: int, L, m: int) -> tuple:
    return tuple(sorted(act_ell(u, ell, m) for ell in L))


def free_parameter_count(m: int, I, L=()) -> dict[str, int]:
    """Number of free lifting parameters of each kind for the family (I, L).

    lambda_{pq,ik} needs q + k = 0 and p + i != 0, gamma_{pq,ik} needs
    q = k, p != i and |I| > 1; both are symmetric under (pq) <-> (ik), so
    a key and its transpose count once.  theta_{pq,l} needs q + l = 0 and
    mu_{pq,l} needs q = l (all mod m).
    """
    pairs = sorted(set(map(tuple, I)))
    ells = sorted(set(L))
    count = {"lambda": 0, "gamma": 0, "theta": 0, "mu": 0}
    for a in pairs:
        for b in pairs:
            if a > b:
                continue
            (p, q), (i, k) = a, b
            if (q + k) % m == 0 and (p + i) % m:
                count["lambda"] += 1
            if len(I) > 1 and (q - k) % m == 0 and (p - i) % m:
                count["gamma"] += 1
        for ell in ells:
            q = a[1]
            count["theta"] += (q + ell) % m == 0
            count["mu"] += (q - ell) % m == 0
    return count
