from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nichols_dm.cyclo import (
    CycloNumber,
    RootKind,
    RootPower,
    cyclo_add,
    cyclo_inv,
    cyclo_mul,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
    root_classify,
)
from nichols_dm.errors import DomainError


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)  # x + 1
    # derived by dividing x^12 - 1 by the proper-divisor cyclotomics
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


@pytest.mark.parametrize("m", list(range(1, 65)))
def test_cyclotomic_product_identity(m):
    prod = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (m - 1) + [1]
    assert prod == expected


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(DomainError):
        cyclotomic_polynomial(0)


def test_root_classify_examples():
    assert root_classify(RootPower(12, 0)) is RootKind.ONE
    assert root_classify(RootPower(12, 6)) is RootKind.MINUS_ONE
    assert root_classify(RootPower(12, 3)) is RootKind.OTHER
    # odd modulus never hits -1
    assert all(root_classify(RootPower(9, a)) is not RootKind.MINUS_ONE for a in range(9))


@pytest.mark.parametrize("m", list(range(1, 65)))
def test_root_classify_matches_cyclo(m):
    for a in range(m):
        is_minus_one = root_classify(RootPower(m, a)) is RootKind.MINUS_ONE
        assert is_minus_one == (not (RootPower(m, a).to_cyclo() + 1))


def test_exponent_homomorphism():
    m = 24
    for a in range(m):
        for b in range(0, m, 5):
            lhs = RootPower(m, a).to_cyclo() * RootPower(m, b).to_cyclo()
            assert lhs == RootPower(m, a + b).to_cyclo()


def test_phi_vanishes_at_root():
    for m in (1, 2, 3, 8, 12, 20, 36, 64):
        w = CycloNumber.root(m, 1)
        total = CycloNumber.zero(m)
        for e, c in enumerate(cyclotomic_polynomial(m)):
            total = total + w**e * c
        assert not total


def test_inverse_roots_and_root_sum():
    m = 12
    assert CycloNumber.root(m, 1) * CycloNumber.root(m, m - 1) == CycloNumber.one(m)
    total = CycloNumber.zero(m)
    for a in range(m):
        total = total + CycloNumber.root(m, a)
    assert not total
    assert not (CycloNumber.one(12) + CycloNumber.root(12, 6))


def test_field_inverse_and_zero_division():
    a = CycloNumber(12, [1, 2, 0, Fraction(1, 3)])
    assert cyclo_mul(a, cyclo_inv(a)) == CycloNumber.one(12)
    with pytest.raises(DomainError):
        cyclo_inv(CycloNumber.zero(12))
    with pytest.raises(DomainError):
        cyclo_add(CycloNumber.one(12), CycloNumber.one(8))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
)
def test_ring_axioms_m12(av, bv, cv):
    a, b, c = (CycloNumber(12, v) for v in (av, bv, cv))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


_FRACTIONS = st.fractions(max_denominator=12).filter(lambda q: abs(q.numerator) < 10**6)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([12, 16, 20, 36]), st.data())
def test_format_parse_roundtrip(m, data):
    vec = data.draw(st.lists(_FRACTIONS, min_size=1, max_size=len(CycloNumber.zero(m).coeffs)))
    a = CycloNumber(m, vec)
    assert parse_scalar(m, format_scalar(a)) == a


@settings(max_examples=100, deadline=None)
@given(st.lists(_FRACTIONS, min_size=4, max_size=4), st.data())
def test_space_between_digits_is_rejected(vec, data):
    text = format_scalar(CycloNumber(12, vec))
    cuts = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    if not cuts:
        return
    at = data.draw(st.sampled_from(cuts))
    with pytest.raises(DomainError):
        parse_scalar(12, text[:at] + " " + text[at:])


def test_scalar_whitespace_and_errors():
    w = CycloNumber.root(12, 1)
    # whitespace around signs between terms, after a leading sign, around '*'
    assert parse_scalar(12, " - 1/2 * w^2 +  3 ") == -w * w * Fraction(1, 2) + 3
    assert parse_scalar(12, "2w") == parse_scalar(12, "2 * w") == w * 2
    for text in ("1 1", "1 /2", "1/ 2", "w ^2", "w^ 2", "2 w", "2*", "--1",
                 "1 + - w", "", " ", "1junk", "w^2 w", "1/0", "w + 3/00"):
        with pytest.raises(DomainError):
            parse_scalar(12, text)


def test_format_examples():
    assert format_scalar(CycloNumber.from_rational(12, Fraction(3, 2))) == "3/2"
    assert format_scalar(CycloNumber.root(16, 5) - 1) == "w^5 - 1"
    # exponents at or above the field degree are stored reduced mod Phi_m
    assert format_scalar(CycloNumber.root(12, 5) - 1) == "w^3 - w - 1"
    assert format_scalar(CycloNumber.zero(12)) == "0"
    assert parse_scalar(12, "1/2*w^2 - w") == CycloNumber(12, [0, -1, Fraction(1, 2)])


def test_as_root_exponent():
    assert CycloNumber.root(20, 13).as_root_exponent() == 13
    assert (CycloNumber.root(12, 1) + 1).as_root_exponent() is None
    minus_one = CycloNumber.from_rational(12, -1)
    assert minus_one.as_root_exponent() == 6
