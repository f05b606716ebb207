import functools

import pytest

from nichols_dm import ydmod
from nichols_dm.cyclo import CycloNumber
from nichols_dm.dihedral import (
    CyclicCharacter,
    DihedralGroup,
    Irrep,
    KleinFourCharacter,
    centralizer_representations,
    class_of,
    conjugacy_classes,
)
from nichols_dm.errors import DomainError
from nichols_dm.rack import TypeDWitness
from nichols_dm.ydmod import (
    Finite,
    Infinite,
    braiding,
    direct_sum,
    induce,
    irreducible_verdict,
    nichols_dimension,
)

from oracles import yang_baxter_holds


def M_ik(G, i, k):
    return induce(G, class_of(G, G.r(i)), CyclicCharacter(G, k))


def M_ell(G, ell):
    return induce(G, class_of(G, G.r(G.n)), Irrep(G, "two_dim", ell))


@pytest.fixture
def d12():
    return DihedralGroup(12)


def test_rotation_pair_module(d12):
    M = M_ik(d12, 1, 6)
    assert M.dim == 2
    assert {M.degree(0), M.degree(1)} == {d12.r(1), d12.r(11)}


def test_central_class_module(d12):
    M = M_ell(d12, 1)
    assert M.dim == 2
    assert M.degree(0) == M.degree(1) == d12.r(6)


def test_reflection_class_module_dimension(d12):
    cls = class_of(d12, d12.s())
    M = induce(d12, cls, KleinFourCharacter(d12, d12.s(), 1, 1))
    assert M.dim == 6


def test_induce_rejects_wrong_centralizer(d12):
    with pytest.raises(DomainError):
        induce(d12, class_of(d12, d12.r(1)), Irrep(d12, "two_dim", 1))
    with pytest.raises(DomainError):
        induce(d12, class_of(d12, d12.r(6)), CyclicCharacter(d12, 6))


# Oracle for induce's domain check: the centralizer of sigma found by search,
# compared as a set with the elements the representation is defined on.


def _oracle_domain(rep):
    G = rep.group
    if isinstance(rep, Irrep):
        return set(G.elements())
    if isinstance(rep, CyclicCharacter):
        return {G.r(b) for b in range(G.m)}
    half = G.r(G.m // 2)
    return {G.identity, rep.sigma, half, rep.sigma * half}


@functools.lru_cache(maxsize=None)
def _brute_centralizer(G, sigma):
    return frozenset(g for g in G.elements() if g * sigma == sigma * g)


def _oracle_matches(G, sigma, rep):
    if sigma.m != G.m:  # sigma is not an element of G at all
        return False
    return _brute_centralizer(G, sigma) == _oracle_domain(rep)


def _candidate_reps(G):
    """Every centralizer representation of every class, every chi_(k), every Klein-four character."""
    reps = []
    for cls in conjugacy_classes(G):
        try:
            reps += centralizer_representations(G, cls)
        except DomainError:  # odd m: no irrep table, no Klein-four centralizers
            pass
    reps += [CyclicCharacter(G, k) for k in range(G.m)]
    if G.m % 2 == 0:
        reps += [
            KleinFourCharacter(G, G.s(b), a, c)
            for b in range(G.m)
            for a in (1, -1)
            for c in (1, -1)
        ]
    return reps


def _induce_agrees_with_oracle(G, cls, rep) -> bool:
    """Check induce against the oracle; return whether the pairing matched."""
    if _oracle_matches(G, cls.representative, rep):
        assert induce(G, cls, rep).dim == cls.size * rep.degree
        return True
    with pytest.raises(DomainError):
        induce(G, cls, rep)
    return False


@pytest.mark.parametrize("m", [12, 15, 16, 20, 24])
def test_induce_domain_check_matches_brute_force(m):
    G = DihedralGroup(m)
    reps = _candidate_reps(G)
    verdicts = [
        _induce_agrees_with_oracle(G, cls, rep)
        for cls in conjugacy_classes(G)
        for rep in reps
    ]
    assert any(verdicts) and not all(verdicts)


def test_induce_domain_check_rejects_another_group():
    d12, d16 = DihedralGroup(12), DihedralGroup(16)
    for G, H in ((d12, d16), (d16, d12)):
        for cls in conjugacy_classes(G):
            for rep in _candidate_reps(H):
                # a class of G with a representation over H, induced over either group
                assert not _induce_agrees_with_oracle(G, cls, rep)
                assert not _induce_agrees_with_oracle(H, cls, rep)


@pytest.mark.parametrize("m", [12, 16])
def test_yd_compatibility(m):
    # deg(g.v) = g deg(v) g^-1 on every induced irreducible, over both generators
    G = DihedralGroup(m)
    for cls in conjugacy_classes(G):
        for rep in centralizer_representations(G, cls):
            M = induce(G, cls, rep)
            for g in (G.s(), G.r()):
                for idx in range(M.dim):
                    target, _ = M.act(g, idx)
                    assert M.degree(target) == g * M.degree(idx) * g.inverse()


def test_action_is_group_homomorphism(d12):
    M = direct_sum([M_ik(d12, 1, 6), M_ell(d12, 3)])
    for a in d12.elements():
        for b in d12.elements():
            for idx in range(M.dim):
                i1, c1 = M.act(b, idx)
                i2, c2 = M.act(a, i1)
                j, c = M.act(a * b, idx)
                assert (i2, c2 * c1) == (j, c)


def test_minus_flip_braiding_on_pair_class(d12):
    data = braiding(M_ik(d12, 1, 6))
    assert data.is_diagonal
    minus_one = CycloNumber.root(12, 6)
    assert all(q == minus_one for row in data.matrix for q in row)


def test_braiding_matrix_of_two_pair_classes(d12):
    # the 4x4 coefficient matrix of M_{i,k} + M_{p,q}
    i, k, p, q = 2, 3, 1, 6
    M = direct_sum([M_ik(d12, i, k), M_ik(d12, p, q)])
    data = braiding(M)
    assert data.is_diagonal
    Q = data.matrix
    w = lambda e: CycloNumber.root(12, e)
    assert [Q[0][0], Q[0][1], Q[1][0], Q[1][1]] == [w(6)] * 4
    assert [Q[2][2], Q[2][3], Q[3][2], Q[3][3]] == [w(6)] * 4
    # cross blocks: chi_(q)(y^{+-i}) and chi_(k)(y^{+-p})
    assert Q[0][2] == w(i * q) and Q[0][3] == w(-i * q)
    assert Q[1][2] == w(-i * q) and Q[1][3] == w(i * q)
    assert Q[2][0] == w(p * k) and Q[2][1] == w(-p * k)
    assert Q[3][0] == w(-p * k) and Q[3][1] == w(p * k)


def test_reflection_class_braiding_not_diagonal(d12):
    M = induce(d12, class_of(d12, d12.s()), KleinFourCharacter(d12, d12.s(), 1, 1))
    data = braiding(M)
    assert not data.is_diagonal and data.matrix is None


def test_schur_scalar_position(d12):
    # the scalar irreducible_verdict reads is the diagonal entry of the braiding
    assert braiding(M_ik(d12, 1, 6)).matrix[0][0] == CycloNumber.root(12, 6)
    M = M_ik(d12, 1, 3)
    result = irreducible_verdict(d12, class_of(d12, d12.r(1)), CyclicCharacter(d12, 3))
    assert braiding(M).matrix[0][0] == result.witness == CycloNumber.root(12, 3)


def _dynkin_edges(Q):
    """Edges (i, j, q_ij q_ji) of the generalized Dynkin diagram, where that product is not 1."""
    products = ((i, j, Q[i][j] * Q[j][i]) for i in range(len(Q)) for j in range(i + 1, len(Q)))
    return [edge for edge in products if edge[2] != 1]


def test_dynkin_diagram_minus_flip(d12):
    M = direct_sum([M_ik(d12, 1, 6), M_ik(d12, 5, 6)])
    Q = braiding(M).matrix
    assert len(Q) == 4
    assert all(Q[i][i] == -1 for i in range(4))
    assert _dynkin_edges(Q) == []


def test_dynkin_diagram_four_cycle(d12):
    # inequivalent pairs: lam = w^(iq+pk) != 1 labels a 4-cycle
    M = direct_sum([M_ik(d12, 2, 3), M_ik(d12, 1, 6)])
    edges = _dynkin_edges(braiding(M).matrix)
    lam = CycloNumber.root(12, 2 * 6 + 1 * 3)
    labels = sorted((i, j) for i, j, _ in edges)
    assert labels == [(0, 2), (0, 3), (1, 2), (1, 3)]
    values = {(i, j): v for i, j, v in edges}
    assert values[(0, 2)] == lam and values[(1, 3)] == lam
    assert values[(0, 3)] == lam.inverse() and values[(1, 2)] == lam.inverse()


@pytest.mark.parametrize("m", [12, 16])
def test_yang_baxter_small_modules(m):
    G = DihedralGroup(m)
    mods = [
        M_ik(G, 1, G.n),
        M_ell(G, 1),
        direct_sum([M_ik(G, 1, G.n), M_ell(G, 3)]),
        induce(G, class_of(G, G.s()), KleinFourCharacter(G, G.s(), -1, 1)),
    ]
    for M in mods:
        assert yang_baxter_holds(M)


def test_nichols_dimension_finite_pair(d12):
    result = nichols_dimension(direct_sum([M_ik(d12, 1, 6), M_ik(d12, 5, 6)]))
    assert result == Finite(16)
    assert nichols_dimension(M_ik(d12, 1, 6)) == Finite(4)


def test_nichols_dimension_rombo(d12):
    result = nichols_dimension(direct_sum([M_ik(d12, 2, 3), M_ik(d12, 1, 6)]))
    assert isinstance(result, Infinite)
    assert result.rule == "RomboDiagram"
    assert result.witness == CycloNumber.root(12, 15)


def test_nichols_dimension_type_d(d12):
    for chi in centralizer_representations(d12, class_of(d12, d12.s())):
        result = nichols_dimension(induce(d12, class_of(d12, d12.s()), chi))
        assert isinstance(result, Infinite)
        assert result.rule == "TypeD"
        assert isinstance(result.witness, TypeDWitness)


def test_nichols_dimension_real_class_scalar(d12):
    result = nichols_dimension(M_ik(d12, 1, 3))  # w^3 != -1
    assert result == Infinite("RealClassScalar", ("M(r^1, chi_(3))",), CycloNumber.root(12, 3))
    for rep in centralizer_representations(d12, class_of(d12, d12.r(6))):
        res = nichols_dimension(induce(d12, class_of(d12, d12.r(6)), rep))
        if rep.kind == "two_dim" and rep.index % 2 == 1:
            assert res == Finite(4)
        else:
            assert isinstance(res, Infinite) and res.rule == "RealClassScalar"


def test_nichols_dimension_identity_class(d12):
    for rep in centralizer_representations(d12, class_of(d12, d12.identity)):
        res = nichols_dimension(induce(d12, class_of(d12, d12.identity), rep))
        assert isinstance(res, Infinite) and res.rule == "RealClassScalar"


def test_nichols_dimension_domain_guard():
    G = DihedralGroup(8)
    M = induce(G, class_of(G, G.r(1)), CyclicCharacter(G, 4))
    with pytest.raises(DomainError):
        nichols_dimension(M)


@pytest.mark.parametrize("m", [12, 20])
def test_rows_decided_before_the_braiding_build_no_transversal(m, monkeypatch):
    G = DihedralGroup(m)
    decided = []
    for cls in conjugacy_classes(G):
        for rep in centralizer_representations(G, cls):
            result = nichols_dimension(induce(G, cls, rep))
            if isinstance(result, Infinite) and result.rule in ("RealClassScalar", "TypeD"):
                decided.append((cls, rep, result))
    assert {result.rule for _, _, result in decided} == {"RealClassScalar", "TypeD"}

    def refuse(*args):
        raise AssertionError("the coset transversal was built")

    monkeypatch.setattr(ydmod, "_coset_rep", refuse)
    for cls, rep, result in decided:
        assert nichols_dimension(induce(G, cls, rep)) == result, (cls.name, rep.name)


class _FixedAction:
    """A stand-in representation whose action is the same columns at every element."""

    degree = 2
    name = "stub"

    def __init__(self, columns):
        self.columns = columns

    def represents(self, G, sigma):
        return True

    def monomial_action(self, a):
        return self.columns


@pytest.mark.parametrize(
    "columns, message",
    [
        (((1, 1), (0, 1)), "does not act diagonally"),
        (((0, 1), (1, -1)), "does not act by a scalar"),
    ],
)
def test_summand_scalar_rejects_a_non_scalar_action(d12, columns, message):
    one = CycloNumber.one(12)
    columns = tuple((row, one if c == 1 else -one) for row, c in columns)
    with pytest.raises(DomainError, match=f"M\\(r\\^6, stub\\): sigma {message}"):
        irreducible_verdict(d12, class_of(d12, d12.r(6)), _FixedAction(columns))
