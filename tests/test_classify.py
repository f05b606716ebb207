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
    theorem_A_report,
)
from nichols_dm.cyclo import CycloNumber
from nichols_dm.dihedral import DihedralGroup
from nichols_dm.errors import DomainError
from nichols_dm.ydmod import Finite, nichols_dimension


def test_support_J_m12():
    assert support_J(12) == [(1, 6), (2, 3), (2, 9), (3, 2), (3, 6), (3, 10), (5, 6)]


def test_support_J_requires_classification_modulus():
    for m in (8, 11, 14):
        with pytest.raises(DomainError):
            support_J(m)


@pytest.mark.parametrize("m", [12, 16, 20, 24, 36, 64])
def test_support_J_agrees_with_N_i(m):
    pairs = {(i, k) for i in range(1, m // 2) for k in N_i(m, i) if k >= 1}
    assert pairs == set(support_J(m))


def test_N_i_values_m12():
    assert N_i(12, 2) == {3, 9}
    assert N_i(12, 3) == {2, 6, 10}
    assert N_i(12, 4) == set()
    assert N_i(12, 1) == {6} and N_i(12, 5) == {6}


@pytest.mark.parametrize("m", [12, 16, 20, 28])
def test_N_i_coprime_case(m):
    from math import gcd

    for i in range(1, m // 2):
        if gcd(i, m) == 1:
            assert N_i(m, i) == {m // 2}


def test_N_2_is_t_and_3t():
    for m in (12, 16, 20, 24):
        t = m // 4
        assert N_i(m, 2) == {t, 3 * t}


def test_equivalence_examples():
    assert are_equivalent((1, 6), (1, 6), 12)
    assert are_equivalent((1, 6), (5, 6), 12)
    assert not are_equivalent((2, 3), (1, 6), 12)
    with pytest.raises(DomainError):
        are_equivalent((1, 5), (1, 6), 12)


@pytest.mark.parametrize("m", [12, 16, 20, 32, 48, 64])
def test_equivalence_reflexive_symmetric(m):
    J = support_J(m)
    for p in J:
        assert are_equivalent(p, p, m)
    for p in J:
        for q in J:
            assert are_equivalent(p, q, m) == are_equivalent(q, p, m)


def test_relation_is_not_transitive_at_m12():
    # pinned counterexample: the relation is weaker than an equivalence, so
    # families must be enumerated as pairwise-related multisets (cliques)
    assert are_equivalent((3, 2), (3, 6), 12)
    assert are_equivalent((3, 6), (1, 6), 12)
    assert not are_equivalent((3, 2), (1, 6), 12)
    assert (1, 6) in [q for q in support_J(12) if are_equivalent((3, 6), q, 12)]
    assert (1, 6) not in [q for q in support_J(12) if are_equivalent((3, 2), q, 12)]


@pytest.mark.parametrize("m", [12, 16, 20, 32, 48, 64])
def test_equivalence_footnote(m):
    # (i,k) ~ (p,q) forces w^(pk) = w^(iq) = -1
    J = support_J(m)
    n = m // 2
    for (i, k) in J:
        for (p, q) in J:
            if are_equivalent((i, k), (p, q), m):
                assert (p * k) % m == n
                assert (i * q) % m == n


def test_enumerate_L_singletons_m12():
    singles = [L for L in enumerate_L(12, 1)]
    assert singles == [(1,), (3,), (5,)]
    assert len(singles) == 12 // 4  # t of them


def test_enumerate_I_m12():
    singles = list(enumerate_I(12, 1))
    assert singles == [((1, 6),), ((2, 3),), ((2, 9),), ((3, 2),), ((3, 6),), ((3, 10),), ((5, 6),)]
    pairs = [I for I in enumerate_I(12, 2) if len(I) == 2]
    assert (((1, 6), (5, 6))) in pairs
    assert (((2, 3), (2, 9))) in pairs
    assert all(are_equivalent(I[0], I[1], 12) for I in pairs)
    # multiset reading admits repeats
    assert ((1, 6), (1, 6)) in pairs


def _enumerate_I_by_prefix_filter(m, r_max):
    """Sorted multisets of J-pairs, each candidate tested against the whole prefix."""
    pairs = support_J(m)

    def grow(prefix, start, size):
        if len(prefix) == size:
            yield prefix
            return
        for idx in range(start, len(pairs)):
            candidate = pairs[idx]
            if all(are_equivalent(p, candidate, m) for p in prefix):
                yield from grow(prefix + (candidate,), idx, size)

    for size in range(1, r_max + 1):
        yield from grow((), 0, size)


@pytest.mark.parametrize("m", range(12, 49, 4))
def test_enumerate_I_matches_the_prefix_filter(m):
    for r_max in range(1, 5):
        assert list(enumerate_I(m, r_max)) == list(_enumerate_I_by_prefix_filter(m, r_max))


def test_enumerate_K_m12():
    ks = list(enumerate_K(12, 2))
    assert ks == [(((2, 3),), (3,)), (((2, 9),), (3,))]
    # k even never enters K
    assert all(k % 2 for (I, _) in ks for _, k in I)


def test_K_membership_examples():
    assert (((2, 3),), (3,)) in set(enumerate_K(12, 2))
    # (1,6) has even k, so no L can pair with it
    assert all(I != ((1, 6),) for I, _ in enumerate_K(12, 4))


def basis_range(M, si: int) -> range:
    """The indices of block si of M."""
    start = M._index[(si, 0, 0)]
    return range(start, start + M.summands[si].dim)


def test_build_M_I_labels_and_structure():
    G = DihedralGroup(12)
    M = module_of(G, [(1, 6)], ())
    a, b = basis_range(M, 0)
    # coaction degrees
    assert M.degree(a) == G.r(1) and M.degree(b) == G.r(11)
    # x.a = b, x.b = a, y.a = w^k a, y.b = w^-k b
    idx, coeff = M.act(G.s(), a)
    assert idx == b and coeff == 1
    idx, coeff = M.act(G.s(), b)
    assert idx == a and coeff == 1
    idx, coeff = M.act(G.r(), a)
    assert idx == a and coeff == CycloNumber.root(12, 6)
    idx, coeff = M.act(G.r(), b)
    assert idx == b and coeff == CycloNumber.root(12, -6)


def test_build_M_L_labels_and_structure():
    G = DihedralGroup(12)
    M = module_of(G, (), [3])
    c, d = basis_range(M, 0)
    assert M.degree(c) == M.degree(d) == G.r(6)
    idx, coeff = M.act(G.s(), c)
    assert idx == d and coeff == 1
    idx, coeff = M.act(G.r(), c)
    assert idx == c and coeff == CycloNumber.root(12, 3)
    idx, coeff = M.act(G.r(), d)
    assert idx == d and coeff == CycloNumber.root(12, -3)


def test_build_validations():
    assert not is_valid_I(12, [(1, 6), (2, 3)])  # not equivalent
    assert not is_valid_L(12, [2])  # even l
    assert not is_valid_K(12, [(1, 6)], [3])  # k even


@pytest.mark.parametrize("m", [12, 16])
def test_families_are_finite_with_predicted_dimension(m):
    G = DihedralGroup(m)
    for I in enumerate_I(m, 2):
        assert is_valid_I(m, I)
        res = nichols_dimension(module_of(G, I, ()))
        assert res == Finite(4 ** len(I))
    for L in enumerate_L(m, 2):
        assert is_valid_L(m, L)
        res = nichols_dimension(module_of(G, (), L))
        assert res == Finite(4 ** len(L))
    for I, L in enumerate_K(m, 3):
        assert is_valid_K(m, I, L)
        res = nichols_dimension(module_of(G, I, L))
        assert res == Finite(4 ** (len(I) + len(L)))


def test_finite_iff_equivalent_cross_check():
    from nichols_dm.dihedral import CyclicCharacter, class_of
    from nichols_dm.ydmod import direct_sum, induce

    m = 12
    G = DihedralGroup(m)
    J = support_J(m)
    for p1 in J:
        for p2 in J:
            M = direct_sum(
                [
                    induce(G, class_of(G, G.r(p1[0])), CyclicCharacter(G, p1[1])),
                    induce(G, class_of(G, G.r(p2[0])), CyclicCharacter(G, p2[1])),
                ]
            )
            assert nichols_dimension(M).is_finite == are_equivalent(p1, p2, m)


def test_theorem_A_report_m12():
    report = theorem_A_report(12, 1)
    assert len(report["J"]) == 7
    assert report["odd_ells"] == [1, 3, 5]
    assert report["N"][2] == [3, 9]
    assert len(report["families"]["I"]) == 7
    assert len(report["families"]["L"]) == 3
    rows = report["irreducibles"]
    # reflection-class rows all carry the TypeD certificate
    for row in rows:
        if row["class"] in ("s", "sr"):
            assert row["verdict"] == "infinite"
            assert row["certificate"] == "TypeD"
    finite_rows = [r for r in rows if r["verdict"] == "finite"]
    # t odd-l rows over r^n, plus the |J| chi_(k) rows
    assert len(finite_rows) == 3 + 7


def _survey_oracle(G, cls, rep) -> dict:
    """The verdict of one survey row, read off the class and representation alone."""
    from nichols_dm.rack import is_type_D

    if cls.is_reflection_class:
        verdict, witness = is_type_D(G, cls)
        assert verdict
        return {
            "verdict": "infinite",
            "certificate": "TypeD",
            "witness": f"({witness.first}, {witness.second})",
        }
    action = rep.monomial_action(cls.representative)
    assert all(row == col for col, (row, _) in enumerate(action))
    scalars = [scalar for _, scalar in action]
    assert all(scalar == scalars[0] for scalar in scalars)
    if scalars[0] == -1:
        return {"verdict": "finite", "dimension": 2 ** (cls.size * rep.degree)}
    return {"verdict": "infinite", "certificate": "RealClassScalar", "witness": str(scalars[0])}


# m = 64, 100 and 128 reach witnesses of phi(m) = 32, 40 and 64 terms
SURVEY_MODULI = [*range(12, 49, 4), 64, 100, 128]


@pytest.mark.parametrize("m", SURVEY_MODULI)
def test_irreducible_survey_matches_class_and_scalar_oracle(m):
    from nichols_dm.classify import irreducible_survey
    from nichols_dm.dihedral import centralizer_representations, conjugacy_classes

    G = DihedralGroup(m)
    pairs = [(cls, rep) for cls in conjugacy_classes(G) for rep in centralizer_representations(G, cls)]
    rows = irreducible_survey(m)
    assert len(rows) == len(pairs)
    for row, (cls, rep) in zip(rows, pairs):
        head = {"class": cls.name, "class_size": cls.size, "rep": rep.name, "rep_degree": rep.degree}
        assert row == {**head, **_survey_oracle(G, cls, rep)}


def _braiding_row(G, cls, rep) -> dict:
    """The verdict of one survey row, computed from the braiding of the induced module."""
    from nichols_dm.rack import is_type_D
    from nichols_dm.ydmod import braiding, induce

    M = induce(G, cls, rep)
    data = braiding(M)
    head = {"class": cls.name, "class_size": cls.size, "rep": rep.name, "rep_degree": rep.degree}
    if cls.is_reflection_class:
        assert not data.is_diagonal
        verdict, witness = is_type_D(G, cls)
        assert verdict
        witness = f"({witness.first}, {witness.second})"
        return {**head, "verdict": "infinite", "certificate": "TypeD", "witness": witness}
    assert data.is_diagonal
    Q, d = data.matrix, M.dim
    minus_flip = all(Q[i][i] == -1 for i in range(d)) and all(
        Q[i][j] * Q[j][i] == 1 for i in range(d) for j in range(i + 1, d)
    )
    if minus_flip:
        return {**head, "verdict": "finite", "dimension": 2**d}
    return {**head, "verdict": "infinite", "certificate": "RealClassScalar", "witness": str(Q[0][0])}


def _survey_pairs(G):
    from nichols_dm.dihedral import centralizer_representations, conjugacy_classes

    return [(cls, rep) for cls in conjugacy_classes(G) for rep in centralizer_representations(G, cls)]


@pytest.mark.parametrize("m", SURVEY_MODULI)
def test_irreducible_survey_matches_the_braiding_of_each_induced_module(m):
    from nichols_dm.classify import irreducible_survey

    G = DihedralGroup(m)
    expected = [_braiding_row(G, cls, rep) for cls, rep in _survey_pairs(G)]
    assert irreducible_survey(m) == expected


@pytest.mark.parametrize("m", [12, 20])
def test_irreducible_survey_builds_no_module(m, monkeypatch):
    from nichols_dm import classify, ydmod
    from nichols_dm.classify import irreducible_survey

    G = DihedralGroup(m)
    pairs = _survey_pairs(G)
    expected = [_braiding_row(G, cls, rep) for cls, rep in pairs]
    modules = [ydmod.induce(G, cls, rep) for cls, rep in pairs]
    results = [ydmod.nichols_dimension(M) for M in modules]

    def refuse(*args):
        raise AssertionError("a module, its braiding or its transversal was built")

    monkeypatch.setattr(ydmod, "induce", refuse)
    monkeypatch.setattr(classify, "induce", refuse)
    monkeypatch.setattr(ydmod, "braiding", refuse)
    monkeypatch.setattr(ydmod, "_coset_rep", refuse)
    assert irreducible_survey(m) == expected
    # a module of one summand takes the same verdict, with no braiding
    assert [ydmod.nichols_dimension(M) for M in modules] == results


@pytest.mark.parametrize("m", [12, 20, 48, 100])
def test_irreducible_survey_builds_no_rep_and_formats_each_witness_once(m, monkeypatch):
    from nichols_dm import classify, cyclo, dihedral
    from nichols_dm.classify import irreducible_survey

    expected = irreducible_survey(m)

    def refuse(*args, **kwargs):
        raise AssertionError("a representation object was built")

    for name in ("CyclicCharacter", "Irrep", "KleinFourCharacter"):
        monkeypatch.setattr(dihedral, name, refuse)
        monkeypatch.setattr(classify, name, refuse, raising=False)
    formatted = []
    format_scalar = cyclo.format_scalar

    def counting(a):
        formatted.append(a)
        return format_scalar(a)

    monkeypatch.setattr(cyclo, "format_scalar", counting)
    assert irreducible_survey(m) == expected
    assert 0 < len(formatted) <= m


def test_irreducible_survey_row_count():
    # e and r^n: 4 linear + (n-1) two-dimensional irreps; r^i, 0 < i < n: m
    # characters of <r>; s and sr: 4 Klein-four characters
    from nichols_dm.classify import irreducible_survey

    for m in range(12, 257, 4):
        n = m // 2
        assert len(irreducible_survey(m)) == 2 * (n + 3) + (n - 1) * m + 8


def _enumerate_K_by_filter(m, r_max):
    """Every L-family filtered by the K conditions, for each I with every k odd."""
    from nichols_dm.classify import in_J

    if r_max < 2:
        return
    for I in enumerate_I(m, r_max - 1):
        if any(k % 2 == 0 for _, k in I):
            continue
        for L in enumerate_L(m, r_max - len(I)):
            if all(in_J(m, (i, ell)) for i, _ in I for ell in L):
                yield I, L


@pytest.mark.parametrize("m", range(12, 49, 4))
def test_enumerate_K_matches_the_filtered_L_families(m):
    for r_max in range(1, 5):
        assert list(enumerate_K(m, r_max)) == list(_enumerate_K_by_filter(m, r_max))
