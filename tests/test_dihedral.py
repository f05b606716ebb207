import pytest

from nichols_dm.cyclo import CycloNumber
from nichols_dm.dihedral import (
    ConjugacyClass,
    CyclicCharacter,
    DihedralGroup,
    GroupElement,
    Irrep,
    KleinFourCharacter,
    centralizer,
    centralizer_representations,
    class_of,
    conjugacy_classes,
    irreps,
)
from nichols_dm.errors import DomainError
from nichols_dm.ydmod import induce


@pytest.fixture
def d12():
    return DihedralGroup(12)


def test_presentation_relations(d12):
    e = d12.identity
    s, r = d12.s(), d12.r()
    assert s * s == e
    assert prod(r, 12) == e
    assert s * r * s == r.inverse()
    # s.r = r^(m-1).s as products; in normal form both equal s r^1
    assert s * r == d12.r(11) * s
    assert s * r == GroupElement(12, 1, 1)


def prod(g, n):
    out = GroupElement(g.m, 0, 0)
    for _ in range(n):
        out = out * g
    return out


def test_identity_and_rotation_product(d12):
    e = d12.identity
    for a in d12.elements():
        assert e * a == a
        assert a * e == a
    assert d12.r(5) * d12.r(9) == d12.r(2)


@pytest.mark.parametrize("m", [3, 4, 7, 12])
def test_group_axioms_exhaustive(m):
    G = DihedralGroup(m)
    elems = list(G.elements())
    for a in elems:
        assert a * a.inverse() == G.identity
        assert a.inverse() * a == G.identity
    for a in elems:
        for b in elems:
            for c in elems[:: max(1, len(elems) // 8)]:
                assert (a * b) * c == a * (b * c)


def test_conjugacy_classes_d12(d12):
    classes = conjugacy_classes(d12)
    by_name = {c.name: c for c in classes}
    assert class_of(d12, d12.r(6)).elements == (d12.r(6),)
    assert set(class_of(d12, d12.r(1)).elements) == {d12.r(1), d12.r(11)}
    assert class_of(d12, d12.s()).size == 6
    assert set(class_of(d12, d12.s())) == {d12.s(2 * j) for j in range(6)}
    assert set(by_name["sr"].elements) == {d12.s(2 * j + 1) for j in range(6)}
    # partition of the group
    seen = [g for c in classes for g in c.elements]
    assert len(seen) == len(set(seen)) == 24


@pytest.mark.parametrize("m", [8, 12, 16])
def test_class_size_times_centralizer(m):
    G = DihedralGroup(m)
    for cls in conjugacy_classes(G):
        cent = centralizer(G, cls.representative)
        assert cls.size * cent.order == 2 * m


def test_centralizers_d12(d12):
    assert set(centralizer(d12, d12.r(6)).elements) == set(d12.elements())
    cent_r = centralizer(d12, d12.r(1))
    assert set(cent_r.elements) == {d12.r(b) for b in range(12)}
    cent_s = centralizer(d12, d12.s())
    assert set(cent_s.elements) == {d12.identity, d12.s(), d12.r(6), d12.s(6)}


# -- closed forms against brute force over the whole group --------------------

ORACLE_MS = list(range(3, 25)) + [48]


def _brute_class(G, sigma):
    # the canonical representative (e, r^i with i <= m/2, s, s r) is the least element
    return tuple(sorted({g * sigma * g.inverse() for g in G.elements()}))


def _brute_centralizer(G, sigma):
    return tuple(g for g in sorted(G.elements()) if g * sigma == sigma * g)


def _brute_coset_rep(G, sigma, target):
    return next(g for g in sorted(G.elements()) if g * sigma * g.inverse() == target)


class _TrivialCharacter:
    """The trivial character of a centralizer, for inducing from any class."""

    degree = 1
    name = "1"

    def __init__(self, elements):
        self.elements = set(elements)

    def represents(self, G, sigma):
        return set(_brute_centralizer(G, sigma)) == self.elements

    def monomial_action(self, a):
        return ((0, CycloNumber.root(a.m, 0)),)


@pytest.mark.parametrize("m", ORACLE_MS)
def test_classes_match_brute_force(m):
    G = DihedralGroup(m)
    orbits = []
    for sigma in sorted(G.elements()):
        orbit = _brute_class(G, sigma)
        cls = class_of(G, sigma)
        assert (cls.representative, cls.elements) == (orbit[0], orbit), sigma
        if orbit not in orbits:
            orbits.append(orbit)
    orbits.sort(key=lambda orbit: orbit[0])
    got = [(c.representative, c.elements) for c in conjugacy_classes(G)]
    assert got == [(orbit[0], orbit) for orbit in orbits]


@pytest.mark.parametrize("m", ORACLE_MS)
def test_centralizers_match_brute_force(m):
    G = DihedralGroup(m)
    for sigma in G.elements():
        assert centralizer(G, sigma).elements == _brute_centralizer(G, sigma), sigma


def test_closed_forms_reject_elements_of_another_group(d12):
    # r^14 of D_16 must not be read as r^2 of D_12
    for closed_form in (class_of, centralizer):
        with pytest.raises(DomainError):
            closed_form(d12, DihedralGroup(16).r(14))
    # s r^7 of D_16 must not be read as s r^7 of D_12, whose centralizer has s r^1
    with pytest.raises(DomainError):
        KleinFourCharacter(d12, DihedralGroup(16).s(7), 1, 1)


def test_representations_reject_elements_of_another_group(d12):
    # without the check each reads the D_16 element modulo 12: w^3, -1 and a column
    D16 = DihedralGroup(16)
    cases = (
        lambda: CyclicCharacter(d12, 1).value(D16.r(3)),
        lambda: KleinFourCharacter(d12, d12.s(), 1, -1).value(D16.r(6)),
        lambda: Irrep(d12, "two_dim", 1).monomial_action(D16.s(13)),
    )
    for case in cases:
        with pytest.raises(DomainError, match="different dihedral groups"):
            case()


@pytest.mark.parametrize("m", ORACLE_MS)
def test_induced_cosets_match_brute_force(m):
    G = DihedralGroup(m)
    for cls in conjugacy_classes(G):
        sigma = cls.representative
        orbit = _brute_class(G, sigma)
        sigmas = (sigma,) + tuple(x for x in orbit if x != sigma)
        coset_reps = tuple(_brute_coset_rep(G, sigma, x) for x in sigmas)
        reps = [_TrivialCharacter(_brute_centralizer(G, sigma))]
        if m % 2 == 0:
            reps += centralizer_representations(G, cls)
        elif not cls.is_reflection_class and not sigma.is_identity:
            reps += [CyclicCharacter(G, k) for k in range(m)]
        for rep in reps:
            (summand,) = induce(G, cls, rep).summands
            assert (summand.sigmas, summand.coset_reps) == (sigmas, coset_reps), (cls.name, rep)


@pytest.mark.parametrize("m", ORACLE_MS)
def test_induced_cosets_of_a_class_listed_out_of_order(m):
    # a hand-built class whose representative is not its first element
    G = DihedralGroup(m)
    for canonical in conjugacy_classes(G):
        for sigma in canonical.elements[1:]:
            cls = ConjugacyClass(sigma, canonical.elements)
            sigmas = (sigma,) + tuple(x for x in canonical.elements if x != sigma)
            coset_reps = tuple(_brute_coset_rep(G, sigma, x) for x in sigmas)
            rep = _TrivialCharacter(_brute_centralizer(G, sigma))
            (summand,) = induce(G, cls, rep).summands
            assert (summand.sigmas, summand.coset_reps) == (sigmas, coset_reps), (cls.name, sigma)


def test_irrep_inventory_and_dimension_count(d12):
    reps = irreps(d12)
    two_dim = [p for p in reps if p.kind == "two_dim"]
    linear = [p for p in reps if p.kind == "linear"]
    assert len(two_dim) == d12.n - 1 == 5
    assert len(linear) == 4
    assert sum(p.degree**2 for p in reps) == 24


def test_two_dim_matrices(d12):
    rho = next(p for p in irreps(d12) if p.kind == "two_dim" and p.index == 1)
    w = CycloNumber.root(12, 1)
    mat_r = rho.evaluate(d12.r())
    assert mat_r[0][0] == w and mat_r[1][1] == w.inverse()
    assert not mat_r[0][1] and not mat_r[1][0]
    mat_s = rho.evaluate(d12.s())
    assert mat_s[0][1] == CycloNumber.one(12) and mat_s[1][0] == CycloNumber.one(12)
    assert not mat_s[0][0] and not mat_s[1][1]


def test_linear_character_table(d12):
    chi = {p.index: p for p in irreps(d12) if p.kind == "linear"}
    one = CycloNumber.one(12)
    for b in range(12):
        assert chi[1].character(d12.r(b)) == one
        assert chi[2].character(d12.r(b)) == one
        assert chi[3].character(d12.r(b)) == (one if b % 2 == 0 else -one)
        assert chi[4].character(d12.r(b)) == (one if b % 2 == 0 else -one)
    assert chi[3].character(d12.s()) == one
    assert chi[3].character(d12.s(1)) == -one
    assert chi[4].character(d12.s()) == -one
    assert chi[4].character(d12.s(1)) == one


@pytest.mark.parametrize("m", [8, 12, 24])
def test_irreps_are_homomorphisms(m):
    G = DihedralGroup(m)
    elems = list(G.elements())
    for rho in irreps(G):
        d = rho.degree
        mats = {a: rho.evaluate(a) for a in elems}
        for a in elems:
            ma = mats[a]
            for b in elems:
                mb, mab = mats[b], mats[a * b]
                for i in range(d):
                    for j in range(d):
                        acc = CycloNumber.zero(m)
                        for k in range(d):
                            acc = acc + ma[i][k] * mb[k][j]
                        assert acc == mab[i][j]


@pytest.mark.parametrize("m", [8, 12])
def test_character_orthogonality(m):
    G = DihedralGroup(m)
    reps = irreps(G)
    order = CycloNumber.from_rational(m, 2 * m)
    zero = CycloNumber.zero(m)
    for i, p in enumerate(reps):
        for q in reps[i:]:
            total = zero
            for g in G.elements():
                total = total + p.character(g) * q.character(g.inverse())
            assert total == (order if p == q else zero)


def test_cyclic_character(d12):
    chi = CyclicCharacter(d12, 5)
    assert chi.value(d12.r()) == CycloNumber.root(12, 5)
    assert chi.value(d12.r(3)) == CycloNumber.root(12, 15)
    with pytest.raises(DomainError):
        chi.value(d12.s())


def test_klein_four_characters(d12):
    sigma = d12.s()
    values = set()
    for chi in centralizer_representations(d12, class_of(d12, sigma)):
        assert isinstance(chi, KleinFourCharacter)
        vals = tuple(chi.value(g) for g in centralizer(d12, sigma).elements)
        values.add(vals)
    assert len(values) == 4
    chi = KleinFourCharacter(d12, sigma, -1, 1)
    assert chi.value(sigma) == CycloNumber.root(12, 6)
    assert chi.value(d12.r(6)) == CycloNumber.root(12, 0)
    with pytest.raises(DomainError):
        chi.value(d12.r(3))


def test_centralizer_representations_rotation(d12):
    cls = class_of(d12, d12.r(2))
    reps = centralizer_representations(d12, cls)
    assert len(reps) == 12
    assert all(isinstance(p, CyclicCharacter) for p in reps)
    central = class_of(d12, d12.r(6))
    assert len(centralizer_representations(d12, central)) == 9


def test_modulus_guards():
    with pytest.raises(DomainError):
        DihedralGroup(2)
    G = DihedralGroup(12)
    G.require_classification_modulus()
    for m in (4, 8, 14):
        with pytest.raises(DomainError):
            DihedralGroup(m).require_classification_modulus()
