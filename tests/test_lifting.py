import dataclasses
import re

import pytest

from nichols_dm.cli import _parse_param
from nichols_dm.cyclo import CycloNumber, format_scalar, parse_scalar
from nichols_dm.errors import CompletionError, DomainError
from nichols_dm.lifting import (
    FAMILIES,
    LiftingDatum,
    _canonical,
    family_members,
    family_presentation,
    free_parameter_keys,
    parameter_shape,
    presentation_A,
    presentation_B,
    presentation_L,
)
from nichols_dm.rewrite import compile, hopf_check

from oracles import general_hopf_check


def one(m=12):
    return CycloNumber.one(m)


def skew(pres, name):
    for v in pres.skew_generators:
        if v.name == name:
            return v
    raise KeyError(name)


def relation(pres, label):
    for rel in pres.relations:
        if rel.label == label:
            return rel
    raise KeyError(label)


def counit_residue(pres, rel):
    """Image of the relation under the counit; zero iff counital-consistent."""
    total = CycloNumber.zero(pres.m)
    skew_names = {v.name for v in pres.skew_generators}
    for coeff, word in rel.lhs:
        if not any(letter in skew_names for letter in word):
            total = total + coeff
    for coeff, _ in rel.rhs:
        total = total - coeff
    return total


def test_parameter_shape_single_in():
    # I = {(1,6)}: k = n, so the square deforms; gamma is pinned to zero
    shape = parameter_shape(12, [(1, 6)])
    assert shape["lambda"][(1, 6, 1, 6)] == "free"
    assert shape["gamma"][(1, 6, 1, 6)] == "zero"
    assert free_parameter_keys(12, [(1, 6)]) == [("lambda", (1, 6, 1, 6))]


def test_parameter_shape_single_k_not_n():
    # I = {(2,3)}: q = 3, m-k = 9, guard never fires
    assert free_parameter_keys(12, [(2, 3)]) == []


def test_parameter_shape_pair():
    shape = parameter_shape(12, [(1, 6), (5, 6)])
    assert shape["lambda"][(1, 6, 5, 6)] == "free"
    assert (5, 6, 1, 6) not in shape["lambda"]  # stored under its transpose (1, 6, 5, 6)
    assert shape["gamma"][(1, 6, 5, 6)] == "free"
    assert shape["gamma"][(1, 6, 1, 6)] == "zero"  # vanishing group factor h^0
    free = free_parameter_keys(12, [(1, 6), (5, 6)])
    assert ("lambda", (1, 6, 1, 6)) in free and ("lambda", (5, 6, 5, 6)) in free


def test_parameter_shape_theta_mu():
    shape = parameter_shape(12, [(2, 3)], [3])
    assert shape["theta"][(2, 3, 3)] == "zero"  # q = 3 != m - l = 9
    assert shape["mu"][(2, 3, 3)] == "free"  # q = l = 3
    shape9 = parameter_shape(12, [(2, 9)], [3])
    assert shape9["theta"][(2, 9, 3)] == "free"
    assert shape9["mu"][(2, 9, 3)] == "zero"


def test_datum_guard_violations():
    with pytest.raises(DomainError):
        LiftingDatum.build(12, [(2, 3)], lam={(2, 3, 2, 3): 1})
    with pytest.raises(DomainError):
        LiftingDatum.build(12, [(1, 6)], gamma={(1, 6, 1, 6): 1})
    with pytest.raises(DomainError):
        LiftingDatum.build(12, [(2, 3)], [3], theta={(2, 3, 3): 1})
    # symmetry violation across transposed keys
    with pytest.raises(DomainError):
        LiftingDatum.build(
            12, [(1, 6), (5, 6)], lam={(1, 6, 5, 6): 1, (5, 6, 1, 6): 2}
        )


def test_datum_symmetry_fill():
    datum = LiftingDatum.build(12, [(1, 6), (5, 6)], lam={(5, 6, 1, 6): 3})
    assert datum.value("lambda", (1, 6, 5, 6)) == CycloNumber.from_rational(12, 3)
    assert datum.value("lambda", (5, 6, 1, 6)) == CycloNumber.from_rational(12, 3)


_FLAGS = {"lambda": "lam", "gamma": "gamma", "theta": "theta", "mu": "mu"}


def _round_trip_cases():
    values = ("1", "-1", "w^3", "3/2")
    for m in (12, 20):
        for family in "cd":
            for I, L in family_members(m, family, 2):
                keys = free_parameter_keys(m, I, L)
                # each free entry takes each of the four values once
                for shift in range(len(values) if keys else 1):
                    given = {flag: {} for flag in _FLAGS.values()}
                    for j, (name, key) in enumerate(keys):
                        given[_FLAGS[name]][key] = values[(j + shift) % len(values)]
                    yield m, I, L, given


def test_parameters_json_round_trips_through_keyed_flags():
    # the parameters of a certificate, fed back as keyed --lambda/--gamma/
    # --theta/--mu flags, rebuild the datum they came from
    cases = 0
    for m, I, L, given in _round_trip_cases():
        datum = LiftingDatum.build(m, I, L, **given)
        flags = {
            _FLAGS[name]: ";".join(f"{key}={value}" for key, value in entries.items())
            for name, entries in datum.parameters_json().items()
        }
        parsed = {flag: _parse_param(m, text) for flag, text in flags.items()}
        again = LiftingDatum.build(m, I, L, **parsed)
        assert again == datum, (m, I, L, flags)
        cases += 1
    assert cases > 100


def test_datum_stores_each_entry_once_under_its_canonical_key():
    for m, I, L, given in _round_trip_cases():
        datum = LiftingDatum.build(m, I, L, **given)
        shape = parameter_shape(m, I, L)
        for (name, key), value in datum.params:
            assert key == _canonical(key), (m, I, L, name, key)
            assert shape[name][key] == "free" and value, (m, I, L, name, key)


def test_tied_entry_given_under_its_transpose_fills_both_keys():
    datum = LiftingDatum.build(12, [(1, 6), (5, 6)], gamma={(5, 6, 1, 6): "w^3"})
    assert datum.parameters_json()["gamma"] == {"1,6,5,6": "w^3", "5,6,1,6": "w^3"}
    assert datum == LiftingDatum.build(12, [(1, 6), (5, 6)], gamma={(1, 6, 5, 6): "w^3"})


@pytest.mark.parametrize(
    "I, L, given, printed",
    [
        (
            [(1, 24), (23, 24)],
            (),
            {"lam": {(23, 24, 1, 24): "w^5"}},
            {"lambda": {"1,24,23,24": "w^5", "23,24,1,24": "w^5"}},
        ),
        ([(8, 45)], (3,), {"theta": {(8, 45, 3): -1}}, {"theta": {"8,45,3": "-1"}}),
    ],
)
def test_parameters_json_prints_keys_as_joined_ints(I, L, given, printed):
    # multi-digit entries at m = 48: a key and a lambda key's transpose are
    # printed as ",".join(map(str, key)) prints them
    datum = LiftingDatum.build(48, I, L, **given)
    joined: dict = {}
    for (name, key), value in datum.params:
        for k in (key, key[2:] + key[:2]) if len(key) == 4 else (key,):
            joined.setdefault(name, {})[",".join(map(str, k))] = format_scalar(value)
    assert datum.parameters_json() == joined == printed


def test_theta_without_an_L_part_is_not_indexed():
    for name in ("theta", "mu"):
        message = f"{name} entry (1, 6, 3) is not indexed by this family"
        with pytest.raises(DomainError, match=re.escape(message)):
            LiftingDatum.build(12, [(1, 6)], **{name: {(1, 6, 3): 1}})


def test_presentation_A_single_in_relations():
    # I = {(i,n)}: x^2 = lam (1 - h^{2i}), y^2 = lam (1 - h^{-2i}), xy + yx = 0
    pres = presentation_A(12, [(1, 6)], lam=1)
    xx = relation(pres, "quad:xx:x(1,6)|x(1,6)")
    assert xx.lhs == ((one(), ("x(1,6)", "x(1,6)")),)
    assert xx.rhs == ((one(), (0, 0)), (-one(), (0, 2)))
    yy = relation(pres, "quad:yy:y(1,6)|y(1,6)")
    assert yy.rhs == ((one(), (0, 0)), (-one(), (0, 10)))
    xy = relation(pres, "quad:xy:x(1,6)|y(1,6)")
    assert xy.rhs == ()
    assert len(xy.lhs) == 2


def test_presentation_A_delta_guard_off():
    # q != m-k: the anticommutator is homogeneous for any datum
    pres = presentation_A(12, [(2, 3)])
    xx = relation(pres, "quad:xx:x(2,3)|x(2,3)")
    assert xx.rhs == ()


def test_presentation_A_coproduct_and_conjugation_metadata():
    pres = presentation_A(12, [(2, 3), (2, 9)], lam=1)
    x = skew(pres, "x(2,3)")
    assert x.cop_exp == 2 and x.h_exp == 3 and x.partner == "y(2,3)"
    y = skew(pres, "y(2,3)")
    assert y.cop_exp == 10 and y.h_exp == 9
    # cross relation carries lambda over h^{p+i}
    xx = relation(pres, "quad:xx:x(2,3)|x(2,9)")
    assert xx.rhs == ((one(), (0, 0)), (-one(), (0, 4)))


def test_presentation_A_rejects_bad_family():
    with pytest.raises(DomainError):
        presentation_A(12, [(1, 6), (2, 3)])
    with pytest.raises(DomainError):
        presentation_A(8, [(1, 4)])


def test_presentation_B_guards():
    pres = presentation_B(12, [(2, 3)], [3], mu=1)
    xz = relation(pres, "quad:xz:x(2,3)|z(3)")
    assert xz.rhs == ()  # theta guard off for q = 3
    xw = relation(pres, "quad:xw:x(2,3)|w(3)")
    assert xw.rhs == ((one(), (0, 0)), (-one(), (0, 8)))  # 1 - h^{n+p}, n+p = 8
    yz = relation(pres, "quad:yz:y(2,3)|z(3)")
    assert yz.rhs == ((one(), (0, 0)), (-one(), (0, 4)))  # 1 - h^{n-p}
    # x^2 = 0 = z^2 and z w + w z = 0 in the K-family
    assert relation(pres, "quad:xx:x(2,3)|x(2,3)").rhs == ()
    assert relation(pres, "quad:zz:z(3)|z(3)").rhs == ()
    assert relation(pres, "quad:ww:w(3)|w(3)").rhs == ()
    assert relation(pres, "quad:zw:z(3)|w(3)").rhs == ()
    z = skew(pres, "z(3)")
    assert z.cop_exp == 6 and z.h_exp == 3 and z.partner == "w(3)"


def test_presentation_B_validation():
    with pytest.raises(DomainError):
        presentation_B(12, [(1, 6)], [3])  # k even
    with pytest.raises(DomainError):
        presentation_B(12, [(2, 3)], [])


def test_counit_consistency():
    for pres in (
        presentation_A(12, [(1, 6)], lam=1),
        presentation_B(12, [(2, 3)], [3], mu="w^2 - 1"),
        presentation_L(12, [1, 3]),
    ):
        for rel in pres.relations:
            assert not counit_residue(pres, rel)


def _closure_cases():
    names = {"a": (), "b": (), "c": ("lam", "gamma"), "d": ("lam", "gamma", "theta", "mu")}
    for m in (12, 16):
        for family in FAMILIES:
            for I, L in family_members(m, family, 2):
                for value in (1, "w^3 - 2") if names[family] else (None,):
                    yield family_presentation(
                        m, family, I, L, **{name: value for name in names[family]}
                    )


def test_conjugation_closure():
    # applying g-conjugation (x <-> y, z <-> w, negate h exponents) maps each
    # quadratic relation onto a listed one with the same parameter; families
    # (a)-(d) up to size 2 at m = 12, 16, with nonzero data where there is any
    swap = {"x": "y", "y": "x", "z": "w", "w": "z"}
    for pres in _closure_cases():
        listed = {}
        for rel in pres.relations:
            if rel.label.startswith("quad:"):
                words = tuple(sorted(word for _, word in rel.lhs))
                listed[words] = rel
        for rel in pres.relations:
            if not rel.label.startswith("quad:"):
                continue
            mapped_words = tuple(
                sorted(tuple(swap[w[0]] + w[1:] for w in word) for _, word in rel.lhs)
            )
            image = listed[mapped_words]
            mapped_rhs = tuple((c, (eps, -exp % pres.m)) for c, (eps, exp) in rel.rhs)
            assert tuple(sorted(mapped_rhs, key=str)) == tuple(sorted(image.rhs, key=str))


def _counit_corruptions(pres):
    """pres, and copies whose relations gain pure-group terms.

    The added terms change the counit of a relation, or cancel under it
    (c at the identity against c at g h^i), or sit on the left as g h.
    The last copy adds 3/2 at the identity to each quadratic relation,
    which commutes with every letter, so that copy still compiles.
    """
    yield pres
    for k, text in enumerate(("1", "3/2", "w^3 - 2")):
        c = parse_scalar(pres.m, text)
        relations = []
        for i, rel in enumerate(pres.relations):
            if i % 3 == 0:
                rel = dataclasses.replace(rel, rhs=rel.rhs + ((c, (0, k)),))
            elif i % 3 == 1:
                rel = dataclasses.replace(rel, rhs=rel.rhs + ((c, (0, 0)), (-c, (1, i))))
            else:
                rel = dataclasses.replace(rel, lhs=rel.lhs + ((c, ("g", "h")),))
            relations.append(rel)
        yield dataclasses.replace(pres, relations=tuple(relations))
    c = parse_scalar(pres.m, "3/2")
    yield dataclasses.replace(pres, relations=tuple(
        dataclasses.replace(rel, rhs=rel.rhs + ((c, (0, 0)),)) if rel.label.startswith("quad:")
        else rel
        for rel in pres.relations
    ))


def test_hopf_check_counit_matches_the_relation_terms():
    # the counit lines against an oracle that sums each relation's
    # pure-group terms as written: the general route's on every copy,
    # against the uncorrupted system, and hopf_check's on every copy that
    # compiles; the first three corrupted copies each break an overlap, so
    # the 141 uncorrupted presentations and their 141 copies with 3/2 at
    # the identity compile, and the library reports counit lines on the copies
    library = general = counits = 0
    for pres in _closure_cases():
        R = compile(pres)
        for P in _counit_corruptions(pres):
            residues = [(rel.label, counit_residue(P, rel)) for rel in P.relations]
            expected = [f"counit:{label}:{c}" for label, c in residues if c]
            reports = [general_hopf_check(P, R)]
            general += 1
            try:
                reports.append(hopf_check(compile(P)))
                library += 1
                counits += bool(expected)
            except CompletionError:
                pass
            for report in reports:
                assert [f for f in report.failures if f.startswith("counit:")] == expected
                assert report.counit_ok == (not expected)
    assert (library, general, counits) == (282, 705, 141)


@pytest.mark.parametrize("m", [12, 16, 20])
def test_family_members_build_in_their_family_only(m):
    # enumeration and the membership check of the constructor are one rule:
    # each member builds in its own family and is rejected by the other three
    members = {family: list(family_members(m, family, 2)) for family in FAMILIES}
    assert members["a"] and members["b"] and members["c"]
    assert bool(members["d"]) == (m != 16)  # at m = 16 no (I, L) of size 2 is in the K-family
    for family, pairs in members.items():
        for I, L in pairs:
            assert family_presentation(m, family, I, L).I == I
            for other in FAMILIES.replace(family, ""):
                with pytest.raises(DomainError):
                    family_presentation(m, other, I, L)


def test_family_rule_rejects_unknown_letters():
    with pytest.raises(DomainError):
        family_presentation(12, "e", [(2, 3)])
    with pytest.raises(DomainError):
        list(family_members(12, "e", 1))


def test_bosonization_cases():
    pres = family_presentation(12, "a", [(2, 3)])
    assert pres.kind == "A" and pres.datum == LiftingDatum.zero(12, [(2, 3)])
    # agrees relation-by-relation with the zero-datum presentation
    ref = presentation_A(12, [(2, 3)])
    assert pres.relations == ref.relations
    pres_l = family_presentation(12, "b", L=[1])
    assert pres_l.kind == "L"
    z = skew(pres_l, "z(1)")
    assert z.cop_exp == 6  # Delta(z) = z x 1 + h^n x z
    with pytest.raises(DomainError):
        family_presentation(12, "a", [(1, 6)])  # k = n is family (c)


def test_multiset_generator_names():
    pres = presentation_A(12, [(1, 6), (1, 6)], lam=1)
    names = [v.name for v in pres.skew_generators]
    assert names == ["x(1,6)", "y(1,6)", "x(1,6)#2", "y(1,6)#2"]
    cross = relation(pres, "quad:xx:x(1,6)|x(1,6)#2")
    assert cross.rhs == ((one(), (0, 0)), (-one(), (0, 2)))


def test_json_shape():
    pres = presentation_A(12, [(1, 6)], lam="3/2")
    data = pres.to_json_dict()
    assert data["m"] == 12 and data["kind"] == "A"
    assert data["parameters"]["lambda"] == {"1,6,1,6": "3/2"}
    assert {g["name"] for g in data["generators"]} == {"g", "h", "x(1,6)", "y(1,6)"}
    labels = {r["label"] for r in data["relations"]}
    assert "group:ghg" in labels and "quad:xx:x(1,6)|x(1,6)" in labels


def test_theorem_B_catalogue_m12():
    members = {family: list(family_members(12, family, 2)) for family in FAMILIES}
    # (a) excludes k = n
    a_pairs = {I for I, _ in members["a"]}
    assert ((1, 6),) not in a_pairs and ((2, 3),) in a_pairs
    # (c) admits I = {(i,n)} with one free lambda
    assert (((1, 6),), ()) in members["c"]
    assert parameter_shape(12, [(1, 6)])["lambda"][(1, 6, 1, 6)] == "free"
    # (d) at m = 12: I within {(2,3),(2,9)} and L within multisets of {3}
    assert members["d"]
    for I, L in members["d"]:
        assert all(p in {(2, 3), (2, 9)} for p in I)
        assert set(L) == {3}


def _off_diagonal_cases():
    """(m, family, I, L, name, key) per free lambda/gamma key of a family (c)
    or (d) member at m = 12, 16, 20 up to size 2 whose transpose differs."""
    for m in (12, 16, 20):
        for family in "cd":
            for I, L in family_members(m, family, 2):
                for name, key in free_parameter_keys(m, I, L):
                    transpose = key[2:] + key[:2] if len(key) == 4 else key
                    if transpose != key:
                        yield m, family, I, L, name, key, transpose


def test_value_under_the_transpose_gives_the_same_datum():
    # a value given under a free key or under its transpose is one datum:
    # the same value at both keys, the same parameters and the same JSON
    cases = 0
    for m, family, I, L, name, key, transpose in _off_diagonal_cases():
        flag = _FLAGS[name]
        value = CycloNumber.root(m, 1) + 2
        pres = family_presentation(m, family, I, L, **{flag: {key: value}})
        other = family_presentation(m, family, I, L, **{flag: {transpose: value}})
        assert pres.datum == other.datum, (m, I, L, key)
        for d in (pres.datum, other.datum):
            assert d.value(name, key) == d.value(name, transpose) == value
        assert pres.datum.parameters_json() == other.datum.parameters_json()
        assert pres.to_json_dict() == other.to_json_dict()
        cases += 1
    assert cases > 50


_VANISH = "must vanish (delta guard / vanishing group factor)"


@pytest.mark.parametrize(
    "I, given, message",
    [
        ([(2, 3)], {"lam": {(2, 3, 2, 3): 1}}, f"lambda(2, 3, 2, 3) {_VANISH}"),
        ([(1, 6)], {"gamma": {(1, 6, 1, 6): 1}}, f"gamma(1, 6, 1, 6) {_VANISH}"),
        ([(2, 3)], {"theta": {(2, 3, 3): 1}}, f"theta(2, 3, 3) {_VANISH}"),
        ([(1, 6), (5, 6)], {"lam": {(1, 6, 5, 6): 1, (5, 6, 1, 6): 2}},
         "lambda(1, 6, 5, 6) violates the symmetry constraint"),
        # a forced zero or a missing index is named by the key as given
        ([(2, 3), (4, 3)], {"lam": {(4, 3, 2, 3): 1}}, f"lambda(4, 3, 2, 3) {_VANISH}"),
        ([(1, 6), (5, 6)], {"lam": {(5, 6, 9, 6): 1}},
         "lambda entry (5, 6, 9, 6) is not indexed by this family"),
        # two faults of two kinds: an unindexed key before a forced zero,
        # a forced zero before a symmetry violation, whatever the item order
        ([(2, 3)], {"lam": {(2, 3, 2, 3): 1, (2, 3, 4, 3): 1}},
         "lambda entry (2, 3, 4, 3) is not indexed by this family"),
        ([(1, 6), (5, 6)], {"gamma": {(1, 6, 5, 6): 1, (5, 6, 1, 6): 2, (5, 6, 5, 6): 1}},
         f"gamma(5, 6, 5, 6) {_VANISH}"),
        # two symmetry violations: the least free key is named
        ([(1, 6), (3, 6), (5, 6)],
         {"lam": {(3, 6, 5, 6): 1, (5, 6, 3, 6): 2, (5, 6, 1, 6): 1, (1, 6, 5, 6): 2}},
         "lambda(1, 6, 5, 6) violates the symmetry constraint"),
    ],
)
def test_datum_guard_violation_messages(I, given, message):
    L = [3] if "theta" in given else []
    with pytest.raises(DomainError) as err:
        LiftingDatum.build(12, I, L, **given)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "family, I, L, flag, keyed, message",
    [
        ("a", [(2, 3)], [], "lam", (2, 3, 2, 3), "family (a) bosonizations carry no parameters"),
        ("a", [(2, 3)], [], "gamma", (2, 3, 2, 3), "family (a) bosonizations carry no parameters"),
        ("b", [], [1], "theta", (1, 6, 1), "family (b) bosonizations carry no parameters"),
        ("b", [], [1], "mu", (1, 6, 1), "family (b) bosonizations carry no parameters"),
        ("c", [(1, 6)], [], "theta", (1, 6, 1), "family (c) has no theta/mu parameters"),
        ("c", [(1, 6)], [], "mu", (1, 6, 1), "family (c) has no theta/mu parameters"),
    ],
)
def test_family_without_a_parameter_rejects_it_even_when_zero(family, I, L, flag, keyed, message):
    # a zero broadcast used to pass and a zero keyed value to fail
    for value in (0, "0", {keyed: 0}, {keyed: 1}):
        with pytest.raises(DomainError) as err:
            family_presentation(12, family, I, L, **{flag: value})
        assert str(err.value) == message
    # None and an empty mapping set no entry
    for value in (None, {}):
        assert family_presentation(12, family, I, L, **{flag: value}).datum.params == ()


def test_a_key_given_twice_in_two_spellings_is_rejected():
    # int and str spellings of one key used to keep the last value silently
    for values in ((1, 2), (1, 1)):
        lam = {(1, 6, 1, 6): values[0], ("1", "6", "1", "6"): values[1]}
        with pytest.raises(DomainError) as err:
            LiftingDatum.build(12, [(1, 6)], lam=lam)
        assert str(err.value) == "lambda parameter key 1,6,1,6 is given twice"
    # a key and its transpose are two keys: equal values agree, unequal ones
    # break the symmetry
    I = [(1, 6), (5, 6)]
    datum = LiftingDatum.build(12, I, lam={(1, 6, 5, 6): 1, (5, 6, 1, 6): 1})
    assert datum == LiftingDatum.build(12, I, lam={(1, 6, 5, 6): 1})
    with pytest.raises(DomainError, match="violates the symmetry constraint"):
        LiftingDatum.build(12, I, lam={(1, 6, 5, 6): 1, ("5", "6", "1", "6"): 2})
