"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion.  Criterion 7 checks the pair relation ~ on J: reflexive,
symmetric, the footnote pk = iq = n, agreement with iq + pk = 0 mod m,
transitive exactly when m is a power of two (m = 12 counterexample
included), and I-families of size 2 and 3 equal to the brute-force
pairwise-related multisets, for m = 12..64.  Criterion 3 is also checked
against a breadth-first subgroup search on every class and on random
subsets of D_m, m = 3..64.
"""

import random
import time
from itertools import combinations, combinations_with_replacement

import pytest

from nichols_dm.classify import (
    N_i,
    are_equivalent,
    enumerate_I,
    enumerate_K,
    enumerate_L,
    is_valid_I,
    is_valid_K,
    is_valid_L,
    module_of,
    support_J,
)
from nichols_dm.cyclo import CycloNumber
from nichols_dm.dihedral import (
    DihedralGroup,
    GroupElement,
    centralizer_representations,
    class_of,
    conjugacy_classes,
    irreps,
)
from nichols_dm.iso import (
    act_ell,
    act_pair,
    is_isomorphic_A,
    iso_classes,
    units,
)
from nichols_dm.lifting import (
    LiftingDatum,
    free_parameter_keys,
    presentation_A,
    presentation_B,
)
from nichols_dm.rack import is_type_D
from nichols_dm.rewrite import (
    compile,
    dimension,
    hopf_check,
)
from nichols_dm.ydmod import Finite, Infinite, induce, nichols_dimension

from oracles import skew_primitives, yang_baxter_holds

CLASSIFICATION_MS = [12, 16, 20]
ALL_MS = [m for m in range(12, 65) if m % 4 == 0]


def _table2_expected(G, cls, rep):
    """Independent oracle for the classification table, row by row."""
    sigma = cls.representative
    if sigma.eps == 1:
        return ("infinite", "TypeD")
    if sigma.rot == 0:
        return ("infinite", "RealClassScalar")
    if sigma.rot == G.n:
        if rep.kind == "two_dim" and rep.index % 2 == 1:
            return ("finite", 4)
        return ("infinite", "RealClassScalar")
    if (sigma.rot * rep.k) % G.m == G.n:
        return ("finite", 4)
    return ("infinite", "RealClassScalar")


def test_criterion_1_table2_reproduction():
    for m in CLASSIFICATION_MS:
        start = time.monotonic()
        G = DihedralGroup(m)
        for cls in conjugacy_classes(G):
            for rep in centralizer_representations(G, cls):
                result = nichols_dimension(induce(G, cls, rep))
                expected = _table2_expected(G, cls, rep)
                if expected[0] == "finite":
                    assert result == Finite(expected[1]), (m, cls.name, rep.name)
                else:
                    assert isinstance(result, Infinite), (m, cls.name, rep.name)
                    assert result.rule == expected[1], (m, cls.name, rep.name)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"m={m} took {elapsed:.2f}s"
    print("PASS criterion 1: classification table reproduced for m = 12, 16, 20")


def test_criterion_2_N_sets_m12():
    assert N_i(12, 2) == {3, 9}
    assert N_i(12, 3) == {2, 6, 10}
    assert N_i(12, 4) == set()
    assert N_i(12, 1) == {6}
    assert N_i(12, 5) == {6}
    print("PASS criterion 2: N_i sets at m = 12 match exactly")


def _generated_subgroup(*gens):
    """<gens> by breadth-first search: the oracle for conjugacy inside <p, q>."""
    elems = {GroupElement(gens[0].m, 0, 0)}
    frontier = list(elems)
    gen_list = list(gens)
    while frontier:
        new = []
        for a in frontier:
            for g in gen_list:
                c = a * g
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return sorted(elems)


def _type_d_by_search(elems, firsts):
    """The first pair (p, q), p in firsts and q in elems, both sorted, with
    (pq)^2 != (qp)^2 and q not conjugate to p in the generated <p, q>."""
    for p in sorted(firsts):
        for q in sorted(elems):
            pq, qp = p * q, q * p
            if pq * pq == qp * qp:
                continue
            if not any(h * p * h.inverse() == q for h in _generated_subgroup(p, q)):
                return True, (p, q)
    return False, None


def test_criterion_3_type_d():
    start = time.monotonic()
    for m in ALL_MS:
        G = DihedralGroup(m)
        for rep in (G.s(), G.s(1)):
            verdict, witness = is_type_D(G, class_of(G, rep))
            assert verdict, (m, rep)
            p, q = witness.first, witness.second
            assert (p * q) * (p * q) != (q * p) * (q * p)
            subgroup = _generated_subgroup(p, q)
            assert not any(h * p * h.inverse() == q for h in subgroup)
        for cls in conjugacy_classes(G):
            if not cls.is_reflection_class:
                verdict, witness = is_type_D(G, cls)
                assert not verdict and witness is None, (m, cls.name)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"type-D sweep took {elapsed:.2f}s"
    print("PASS criterion 3: type-D verdicts with verified witnesses, m = 12..64")


def test_type_d_closed_form_matches_subgroup_search():
    # Conjugating a witness by g gives a witness, so in a conjugacy class the
    # lexicographically first witness, if any, starts at the least element:
    # the search over a class may fix p there.  Subsets get the full scan.
    rng = random.Random(15)
    for m in range(3, 65):
        G = DihedralGroup(m)
        group = list(G.elements())
        cases = [(cls.elements, [min(cls.elements)]) for cls in conjugacy_classes(G)]
        for _ in range(10):
            subset = rng.sample(group, rng.randint(1, min(12, len(group))))
            cases.append((subset, subset))
        for elems, firsts in cases:
            verdict, witness = is_type_D(G, elems)
            found = (witness.first, witness.second) if witness else None
            assert (verdict, found) == _type_d_by_search(elems, firsts), (m, elems)


def _b_family_grid(m, I, L):
    """All 0/1 assignments over the free parameters (all-zero and all-one included)."""
    keys = free_parameter_keys(m, I, L)
    from itertools import product

    out = []
    for values in product((0, 1), repeat=len(keys)):
        params = {"lambda": {}, "gamma": {}, "theta": {}, "mu": {}}
        for (name, key), value in zip(keys, values):
            params[name][key] = value
        out.append(params)
    return out


def test_criterion_4_dimension_equality():
    for lam in (0, 1):
        start = time.monotonic()
        P = presentation_A(12, [(1, 6)], lam=lam)
        dim, cert = dimension(compile(P))
        assert dim == 96 == 4 * 24, f"A_(1,6)(lambda={lam}) certified {dim}"
        assert time.monotonic() - start < 60.0
    grids = _b_family_grid(12, ((2, 3),), (3,))
    assert {tuple(sorted(g["mu"].values())) for g in grids} == {(0,), (1,)}
    for params in grids:
        start = time.monotonic()
        P = presentation_B(
            12, [(2, 3)], [3],
            lam=params["lambda"], gamma=params["gamma"],
            theta=params["theta"], mu=params["mu"],
        )
        dim, cert = dimension(compile(P))
        assert dim == 384 == 16 * 24
        assert time.monotonic() - start < 60.0
    print("PASS criterion 4: dimensions 96 and 384 certified with confluence")


def _criterion_4_presentations():
    out = [presentation_A(12, [(1, 6)], lam=lam) for lam in (0, 1)]
    for params in _b_family_grid(12, ((2, 3),), (3,)):
        out.append(
            presentation_B(
                12, [(2, 3)], [3],
                lam=params["lambda"], gamma=params["gamma"],
                theta=params["theta"], mu=params["mu"],
            )
        )
    return out


def test_criterion_5_hopf_consistency():
    for P in _criterion_4_presentations():
        R = compile(P)
        report = hopf_check(R)
        assert report.delta_ok and report.counit_ok and report.antipode_ok, (
            P.kind,
            report.failures,
        )
        assert skew_primitives(R, GroupElement(12, 0, 0)) == []
    print("PASS criterion 5: Hopf axioms hold; no identity-degree primitives")


def test_criterion_6_braid_equation():
    checked = 0
    for m in (12, 16):
        G = DihedralGroup(m)
        for I in enumerate_I(m, 2):
            assert is_valid_I(m, I)
            assert yang_baxter_holds(module_of(G, I, ()))
            checked += 1
        for L in enumerate_L(m, 2):
            assert is_valid_L(m, L)
            assert yang_baxter_holds(module_of(G, (), L))
            checked += 1
        for I, L in enumerate_K(m, 2):
            assert is_valid_K(m, I, L)
            assert yang_baxter_holds(module_of(G, I, L))
            checked += 1
    assert checked > 0
    print(f"PASS criterion 6: braid equation exact on {checked} modules")


def _related(m, a, b):
    """The pair relation straight from its arithmetic: iq + pk = 0 mod m."""
    (i, k), (p, q) = a, b
    return (i * q + p * k) % m == 0


def _non_transitive_triples(m, J):
    """All (a, b, c) in J^3 with a ~ b ~ c but a !~ c, from `_related` alone."""
    related = {a: {b for b in J if _related(m, a, b)} for a in J}
    return [
        (a, b, c)
        for a in J
        for b in related[a]
        for c in related[b]
        if c not in related[a]
    ]


def test_criterion_7_equivalence_relation_properties():
    """The pair relation ~ on J, and the I-families built from it.

    ~ is reflexive and symmetric and satisfies the footnote pk = iq = n.
    It is transitive exactly when m is a power of two: for m = 2^a,
    ik = n forces v2(i) + v2(k) = a - 1, so iq + pk = 0 iff v2(i) = v2(p).
    Otherwise it is not (m = 12: (1,6) ~ (3,6) ~ (3,10), (1,6) !~ (3,10)),
    so the classification enumerates I-families as pairwise-related
    multisets; that enumeration is checked against brute force.
    """
    failures = {}

    def fail(prop, detail):
        failures.setdefault(prop, detail)

    transitive_ms = []
    for m in ALL_MS:
        J = support_J(m)
        n = m // 2
        for p in J:
            if not are_equivalent(p, p, m):
                fail("reflexivity", f"m={m}: {p} !~ {p}")
        for p in J:
            for q in J:
                if are_equivalent(p, q, m) != are_equivalent(q, p, m):
                    fail("symmetry", f"m={m}: {p}, {q}")
                if are_equivalent(p, q, m) != _related(m, p, q):
                    fail("agreement with iq + pk = 0 mod m", f"m={m}: {p}, {q}")
                if are_equivalent(p, q, m):
                    i, k = p
                    pp, qq = q
                    if (pp * k) % m != n or (i * qq) % m != n:
                        fail("footnote pk = iq = n", f"m={m}: {p} ~ {q}")
        witnesses = _non_transitive_triples(m, J)
        if not witnesses:
            transitive_ms.append(m)
        power_of_two = m & (m - 1) == 0
        if power_of_two != (not witnesses):
            fail(
                "transitive iff m is a power of 2",
                f"m={m}: {len(witnesses)} non-transitive triples",
            )
        if m == 12 and ((1, 6), (3, 6), (3, 10)) not in witnesses:
            fail("m=12 counterexample", "(1,6) ~ (3,6) ~ (3,10), (1,6) !~ (3,10) not found")
        families = list(enumerate_I(m, 3))
        for r in (2, 3):
            got = [f for f in families if len(f) == r]
            expected = [
                c
                for c in combinations_with_replacement(J, r)
                if all(_related(m, a, b) for a, b in combinations(c, 2))
            ]
            if got != expected:
                extra = sorted(set(got) - set(expected))[:1]
                missing = sorted(set(expected) - set(got))[:1]
                fail(
                    f"pairwise-related {r}-families",
                    f"m={m}: {len(got)} enumerated, {len(expected)} expected, "
                    f"extra {extra}, missing {missing}",
                )
    if failures:
        report = "; ".join(f"{prop} fails at {detail}" for prop, detail in failures.items())
        print(f"FAIL criterion 7: {report}")
        pytest.fail(report)
    print(
        "PASS criterion 7: ~ is reflexive, symmetric, satisfies the footnote and "
        "matches iq + pk = 0 on J; transitive only at m = "
        f"{', '.join(map(str, transitive_ms))} (the powers of 2), with the m = 12 "
        "counterexample found; size-2 and size-3 I-families equal the "
        "pairwise-related multisets, m = 12..64"
    )


def test_criterion_8_isomorphism_actions():
    for m in ALL_MS:
        J = support_J(m)
        n = m // 2
        odd = [r for r in range(1, n) if r % 2]
        us = units(m)
        for u1 in us:
            for u2 in us:
                for pair in J:
                    step = act_pair(u2, pair)
                    assert step in J
                    assert act_pair(u1, step) == act_pair(u1 * u2, pair)
                for r in odd:
                    step = act_ell(u2, r)
                    assert 1 <= step < n and step % 2
                    assert act_ell(u1, step) == act_ell(u1 * u2, r)
        for u in us:
            for p in J:
                for q in J:
                    if are_equivalent(p, q, m):
                        assert are_equivalent(act_pair(u, p), act_pair(u, q), m)
    # Lemma-style bosonization criterion on the {0,1} grid at m = 12
    from itertools import product as iproduct

    for I in enumerate_I(12, 2):
        keys = free_parameter_keys(12, I)
        zero = LiftingDatum.zero(12, I)
        for values in iproduct((0, 1), repeat=len(keys)):
            params = {"lambda": {}, "gamma": {}}
            for (name, key), value in zip(keys, values):
                params[name][key] = value
            datum = LiftingDatum.build(
                12, I, lam=params["lambda"], gamma=params["gamma"]
            )
            verdict, _ = is_isomorphic_A(12, I, datum, None, I, zero, None)
            is_zero = not datum.params
            assert verdict == is_zero, (I, values)
    # L-singleton orbits at m = 12: {{1},{5}} and {{3}}
    orbits = iso_classes(12, 1, families="b")
    orbit_sets = sorted(
        sorted(tuple(member["L"]) for member in orbit["members"])
        for orbit in orbits
    )
    assert orbit_sets == [[(1,), (5,)], [(3,)]]
    print("PASS criterion 8: unit actions verified; bosonization criterion and orbits")


def test_criterion_9_irrep_inventory():
    for m in CLASSIFICATION_MS:
        G = DihedralGroup(m)
        reps = irreps(G)
        two_dim = [p for p in reps if p.kind == "two_dim"]
        linear = [p for p in reps if p.kind == "linear"]
        assert len(two_dim) == G.n - 1
        assert len(linear) == 4
        order = CycloNumber.from_rational(m, 2 * m)
        zero = CycloNumber.zero(m)
        for i, p in enumerate(reps):
            for q in reps[i:]:
                total = zero
                for g in G.elements():
                    total = total + p.character(g) * q.character(g.inverse())
                assert total == (order if p == q else zero)
    print("PASS criterion 9: irrep inventory and exact character orthogonality")
