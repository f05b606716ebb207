"""Correctness checks of one job's CLI output, against the benchmark's own arithmetic.

``check(job, code, doc)`` raises ``CheckFailure`` naming the first property
that does not hold.  Nothing here reads a stored copy of the program's
output: every expected value is recomputed from the job's inputs with
``arith`` or is a property the method must have.
"""

from __future__ import annotations

import json
from collections import Counter
from math import gcd

import arith


class CheckFailure(AssertionError):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailure(what)


def _pairs(items) -> tuple:
    return tuple(tuple(p) for p in items)


def check(job: dict, code: int, doc: dict):
    _require(doc.get("command") == job["kind"], f"command is {doc.get('command')!r}")
    {"classify": check_classify, "iso": check_iso, "verify": check_verify}[job["kind"]](
        job, code, doc
    )


# -- classify -----------------------------------------------------------------


def check_classify(job: dict, code: int, doc: dict):
    m, r_max = job["m"], job["max_size"]
    n, t = m // 2, m // 4
    _require(code == 0, f"exit code {code}")
    rep = doc["report"]
    _require((rep["m"], rep["n"], rep["t"]) == (m, n, t), "m, n, t")
    J = arith.support_J(m)
    _require(_pairs(rep["J"]) == tuple(J), "J differs from {(i,k) : ik = n mod m}")
    for i in range(1, n):
        expected = [k for k in range(1, m) if i * k % m == n]
        _require(rep["N"][str(i)] == expected, f"N_{i}")
    _require(rep["odd_ells"] == arith.odd_ells(m), "odd l-labels")

    fam = rep["families"]
    got_I = [_pairs(row["I"]) for row in fam["I"]]
    _require(got_I == arith.I_families(m, r_max),
             "I-families differ from the pairwise-related multisets of J")
    got_L = [tuple(row["L"]) for row in fam["L"]]
    _require(got_L == arith.L_families(m, r_max), "L-families")
    got_K = [(_pairs(row["I"]), tuple(row["L"])) for row in fam["K"]]
    _require(got_K == arith.K_families(m, r_max), "K-families")
    for row in fam["I"] + fam["L"] + fam["K"]:
        size = len(row.get("I", ())) + len(row.get("L", ()))
        _require(row["dim_module"] == 2 * size, f"dim_module of {row}")
        _require(row["dim_nichols"] == 4**size, f"dim_nichols of {row}")

    rows = rep["irreducibles"]
    _require(len(rows) == 2 * (n + 3) + (n - 1) * m + 8,
             f"{len(rows)} irreducible rows, expected 2(n+3) + (n-1)m + 8")
    keys = Counter((row["class"], row["rep"]) for row in rows)
    _require(max(keys.values()) == 1, "an irreducible (class, rep) appears twice")
    expected_finite = {(f"r^{i}", f"chi_({k})") for i, k in J}
    expected_finite |= {(f"r^{n}", f"rho_{ell}") for ell in arith.odd_ells(m)}
    _require(len(expected_finite) == len(J) + t, "|J| + t finite irreducibles")
    for row in rows:
        finite = (row["class"], row["rep"]) in expected_finite
        _require(row["verdict"] == ("finite" if finite else "infinite"),
                 f"verdict of M({row['class']}, {row['rep']})")
        if finite:
            _require(row["dimension"] == 4, f"dimension of M({row['class']}, {row['rep']})")
        else:
            _require(bool(row.get("certificate")), f"certificate of M({row['class']}, {row['rep']})")
    _require({(row["class"], row["rep"]) for row in rows} >= expected_finite,
             "a finite irreducible is missing")


# -- iso ------------------------------------------------------------------------


def _member_key(family, entry) -> tuple:
    return (family, _pairs(entry["I"]), tuple(entry["L"]),
            json.dumps(entry["parameters"], sort_keys=True))


def _unit_orbits(items, act, m) -> set:
    """Orbits of `items` under the unit group, computed by the benchmark."""
    seen, out = set(), set()
    for x in items:
        if x in seen:
            continue
        orbit = frozenset(act(u, x, m) for u in arith.units(m))
        seen |= orbit
        out.add(orbit)
    return out


def check_iso(job: dict, code: int, doc: dict):
    m, r_max, grid = job["m"], job["max_size"], job["grid"]
    n = m // 2
    _require(code == 0, f"exit code {code}")
    _require(doc["m"] == m and doc["grid"] == grid, "m and grid echo")
    orbits = doc["orbits"]
    seen = set()
    by_family: dict[str, list] = {f: [] for f in "abcd"}
    for orbit in orbits:
        fam, rep, members = orbit["family"], orbit["representative"], orbit["members"]
        _require(orbit["orbit_size"] == len(members), "orbit_size differs from its members")
        keys = [_member_key(fam, mem) for mem in members]
        _require(_member_key(fam, rep) in keys, "the representative is not a member")
        _require(seen.isdisjoint(keys) and len(set(keys)) == len(keys),
                 "orbits are not disjoint")
        seen.update(keys)
        for mem in members:
            u = mem["witness_unit"]
            _require(gcd(u, m) == 1, f"witness {u} is not a unit mod {m}")
            _require(arith.act_I(u, rep["I"], m) == tuple(sorted(_pairs(mem["I"])))
                     and arith.act_L(u, rep["L"], m) == tuple(sorted(mem["L"])),
                     f"witness {u} does not carry the representative onto the member")
        by_family[fam].append(orbit)

    # families a and b carry no parameters: recompute their orbits outright
    def members_of(fam, field):
        return {frozenset(_pairs(mem["I"]) if field == "I" else tuple(mem["L"])
                          for mem in orbit["members"]) for orbit in by_family[fam]}

    singles = [(p,) for p in arith.support_J(m) if p[1] != n]
    expected_a = _unit_orbits(singles, lambda u, I, m: arith.act_I(u, I, m), m)
    _require(members_of("a", "I") == expected_a, "family (a) orbits")
    expected_b = _unit_orbits(arith.L_families(m, r_max),
                              lambda u, L, m: arith.act_L(u, L, m), m)
    _require(members_of("b", "L") == expected_b, "family (b) orbits")

    # families c and d: every member of the grid appears, once per parameter choice
    def coverage(fam):
        return Counter((_pairs(mem["I"]), tuple(mem["L"]))
                       for orbit in by_family[fam] for mem in orbit["members"])

    expected_c = Counter()
    for I in arith.I_families(m, r_max):
        if len(I) == 1 and I[0][1] != n:
            continue
        expected_c[(I, ())] = len(grid) ** sum(arith.free_parameter_count(m, I).values())
    _require(coverage("c") == expected_c, "family (c) members on the grid")
    expected_d = Counter()
    for I, L in arith.K_families(m, r_max):
        expected_d[(I, L)] = len(grid) ** sum(arith.free_parameter_count(m, I, L).values())
    _require(coverage("d") == expected_d, "family (d) members on the grid")


# -- verify -------------------------------------------------------------------


def check_verify(job: dict, code: int, doc: dict):
    m = job["m"]
    size = len(job["I"]) + len(job["L"])
    _require(code == 0, f"exit code {code}")
    _require(doc["m"] == m and doc["family"] == job["family"], "m and family echo")
    _require(_pairs(doc["I"]) == tuple(sorted(map(tuple, job["I"])))
             and tuple(doc["L"]) == tuple(sorted(job["L"])), "I and L echo")
    dim = 4**size * 2 * m
    _require(doc["dimension"] == dim, f"dimension {doc['dimension']}, expected 4^{size}*2m = {dim}")
    _require(doc["expected"] == dim and doc["dimension_matches"] is True, "expected dimension")
    cert = doc["certificate"]
    _require(cert["normal_words"] == 4**size, f"normal_words {cert['normal_words']} != 4^{size}")
    _require(cert["dimension"] == dim, "certificate dimension")
    _require(cert["all_resolved"] is True, "completion left ambiguities unresolved")
    hopf = doc["hopf"]
    _require(hopf["delta_ok"] is True and hopf["counit_ok"] is True
             and hopf["antipode_ok"] is True and hopf["failures"] == [], "Hopf axioms")
    if job["params"]:
        _require(any(doc["parameters"].values()), "the lifting datum is zero")
