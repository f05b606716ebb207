from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nichols_dm import cyclo
from nichols_dm.cyclo import (
    CycloNumber,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
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
    # ydmod's verdicts test q_ii == -1 and q_ij q_ji == 1 on these values
    assert CycloNumber.root(12, 0) == 1 and CycloNumber.root(12, 12) == 1
    assert CycloNumber.root(12, 6) == -1 and CycloNumber.root(12, -6) == -1
    assert CycloNumber.root(12, 3) != 1 and CycloNumber.root(12, 3) != -1
    # odd modulus never hits -1
    assert all(CycloNumber.root(9, a) != -1 for a in range(9))


@pytest.mark.parametrize("m", list(range(1, 65)))
def test_root_classify_matches_cyclo(m):
    for a in range(m):
        w = CycloNumber.root(m, a)
        assert (w == 1) == (a == 0)
        assert (w == -1) == (2 * a == m)
        assert (w == -1) == (not (w + 1))


def test_exponent_homomorphism():
    m = 24
    for a in range(m):
        for b in range(0, m, 5):
            lhs = CycloNumber.root(m, a) * CycloNumber.root(m, b)
            assert lhs == CycloNumber.root(m, a + b)


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
    assert a * a.inverse() == CycloNumber.one(12)
    with pytest.raises(DomainError):
        CycloNumber.zero(12).inverse()
    with pytest.raises(DomainError):
        CycloNumber.one(12) + CycloNumber.one(8)


def test_inverse_dense_elements_roots_and_rationals_at_large_m():
    # dense elements go through the Galois norm; roots and rationals invert
    # in closed form, so m = 3600 (phi = 960) stays cheap.  (m = 3200 is left
    # to test_field_rows_are_built_on_demand, which counts the rows built.)
    for m in (96, 240):
        degree = len(CycloNumber.zero(m).num)
        a = CycloNumber(m, [Fraction((5 * j) % 7 - 3, 1 + j % 3) for j in range(degree)])
        assert a * a.inverse() == 1
    for a in (1, 7, 959, 960, 1800, 3599):
        w = CycloNumber.root(3600, a)
        assert w * w.inverse() == 1
    for q in (-1, 2, Fraction(-3, 2)):
        x = CycloNumber.from_rational(3600, q)
        assert x * x.inverse() == 1


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
    def exponents(x):
        return [a for a in range(x.m) if CycloNumber.root(x.m, a) == x]

    assert exponents(CycloNumber.root(20, 13)) == [13]
    assert exponents(CycloNumber.root(12, 1) + 1) == []
    minus_one = CycloNumber.from_rational(12, -1)
    assert exponents(minus_one) == [6]


# -- oracle: the Fraction-vector implementation that CycloNumber replaced ----
#
# Kept unchanged apart from its names and the branches that accepted the
# exponent-only root type, which the package no longer has.  Each value is a
# tuple of Fractions; _FractionField tabulates x^j mod Phi_m for
# j < max(m, 2*phi(m)) + 1.


class _FractionField:
    """Per-modulus context: reduction data for Q[x]/Phi_m(x)."""

    def __init__(self, m: int):
        self.m = m
        phi_poly = cyclotomic_polynomial(m)
        self.degree = len(phi_poly) - 1
        d = self.degree
        # x^j mod Phi_m for j = 0 .. max(m, 2d) - 1; enough for products and roots.
        top = [Fraction(-c) for c in phi_poly[:d]]  # x^d = sum top[j] x^j
        powers: list[tuple[Fraction, ...]] = []
        row = [Fraction(0)] * d
        if d > 0:
            row[0] = Fraction(1)
        powers.append(tuple(row))
        for _ in range(max(m, 2 * d)):
            lead = row[d - 1] if d > 0 else Fraction(0)
            row = [Fraction(0)] + row[:-1]
            if lead:
                row = [row[j] + lead * top[j] for j in range(d)]
            powers.append(tuple(row))
        self.powers = powers
        # Recognize pure root powers.
        self.root_lookup = {powers[j]: j % m for j in range(m)}


@lru_cache(maxsize=None)
def _fraction_field(m: int) -> _FractionField:
    return _FractionField(m)


_UNSET = object()


class FractionCyclo:
    """An element of Q(w_m), stored as a reduced vector of rationals."""

    __slots__ = ("m", "coeffs", "_root_memo")

    def __init__(self, m: int, coeffs: Iterable[Fraction | int]):
        field = _fraction_field(m)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > field.degree:
            reduced = [Fraction(0)] * field.degree
            for j, c in enumerate(vec):
                if c:
                    row = field.powers[j] if j < len(field.powers) else None
                    if row is None:
                        raise ValueError("coefficient vector too long")
                    for t in range(field.degree):
                        reduced[t] += c * row[t]
            vec = reduced
        else:
            vec = vec + [Fraction(0)] * (field.degree - len(vec))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "_root_memo", _UNSET)

    def __setattr__(self, name, value):
        raise AttributeError("FractionCyclo is immutable")

    # constructors (values are immutable, so the cached instances are shared)

    @staticmethod
    def zero(m: int) -> "FractionCyclo":
        return _fraction_rational(m, Fraction(0))

    @staticmethod
    def one(m: int) -> "FractionCyclo":
        return _fraction_rational(m, Fraction(1))

    @staticmethod
    def from_rational(m: int, value: Fraction | int) -> "FractionCyclo":
        return _fraction_rational(m, Fraction(value))

    @staticmethod
    def root(m: int, exponent: int) -> "FractionCyclo":
        return _fraction_root(m, exponent % m)

    # ring structure

    def _coerce(self, other) -> "FractionCyclo":
        if isinstance(other, FractionCyclo):
            if other.m != self.m:
                raise DomainError("cyclotomic numbers over different moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return FractionCyclo.from_rational(self.m, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        return FractionCyclo(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclo(self.m, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionCyclo(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return FractionCyclo.zero(self.m)
        ea = self.as_root_exponent()
        if ea is not None:
            eb = other.as_root_exponent()
            if eb is not None:
                return FractionCyclo.root(self.m, ea + eb)
        a, b = self.coeffs, other.coeffs
        d = len(a)
        conv = [Fraction(0)] * (2 * d - 1 if d else 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
        return FractionCyclo(self.m, conv)

    __rmul__ = __mul__

    def inverse(self) -> "FractionCyclo":
        if not self:
            raise DomainError("cannot invert zero")
        # extended Euclid over Q[x] against Phi_m, which is irreducible
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        a = list(self.coeffs)
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _degree(r1) > 0:
            q = _poly_quot(r0, r1)
            r0, r1 = r1, _trim(_poly_sub(r0, _poly_mul(q, r1)))
            s0, s1 = s1, _trim(_poly_sub(s0, _poly_mul(q, s1)))
        c = r1[0]
        inv = [x / c for x in s1]
        return FractionCyclo(self.m, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> "FractionCyclo":
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionCyclo.one(self.m)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # comparisons / utilities

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, FractionCyclo):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def as_root_exponent(self) -> int | None:
        """Exponent a with self == w^a, or None if not a single root of unity."""
        memo = self._root_memo
        if memo is _UNSET:
            memo = _fraction_field(self.m).root_lookup.get(self.coeffs)
            object.__setattr__(self, "_root_memo", memo)
        return memo

    def __str__(self):
        return fraction_format(self)

    def __repr__(self):
        return f"FractionCyclo({self.m}, {fraction_format(self)!r})"


@lru_cache(maxsize=None)
def _fraction_root(m: int, exponent: int) -> FractionCyclo:
    return FractionCyclo(m, _fraction_field(m).powers[exponent])


@lru_cache(maxsize=None)
def _fraction_rational(m: int, value: Fraction) -> FractionCyclo:
    return FractionCyclo(m, [value])


def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _degree(p: list[Fraction]) -> int:
    return len(p) - 1


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_quot(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    db, lead = _degree(b), b[-1]
    if _degree(a) < db:
        return [Fraction(0)]
    out = [Fraction(0)] * (_degree(a) - db + 1)
    for i in range(_degree(a), db - 1, -1):
        c = a[i] / lead
        out[i - db] = c
        if c:
            for j, d in enumerate(b):
                a[i - db + j] -= c * d
    return out


def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fraction_format(a: FractionCyclo) -> str:
    terms = []
    for e in range(len(a.coeffs) - 1, -1, -1):
        c = a.coeffs[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = _format_rational(mag)
        else:
            w = "w" if e == 1 else f"w^{e}"
            body = w if mag == 1 else f"{_format_rational(mag)}*{w}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def assert_canonical(x: CycloNumber) -> None:
    """num is phi(m) ints over one positive den in lowest terms; zero is 0/1."""
    assert len(x.num) == len(cyclotomic_polynomial(x.m)) - 1
    assert all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def assert_agrees(new: CycloNumber, old: FractionCyclo) -> None:
    assert_canonical(new)
    assert new.coeffs == old.coeffs
    assert bool(new) == bool(old)
    text = format_scalar(new)
    assert text == fraction_format(old)
    assert parse_scalar(new.m, text) == new
    if not any(new.num[1:]):  # rational: equal to its Fraction, with the same hash
        q = new.coeffs[0]
        assert new == q and hash(new) == hash(q)


_MODULI = list(range(1, 65)) + [96]


@st.composite
def _vector(draw, m):
    """Up to 2*phi(m) coefficients, so that the constructor reduces by Phi_m too."""
    d = len(cyclotomic_polynomial(m)) - 1
    small = st.fractions(max_denominator=30).filter(lambda q: abs(q.numerator) < 10**4)
    entry = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction), small)
    return draw(st.lists(entry, max_size=2 * d))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_MODULI), st.data())
def test_matches_fraction_oracle(m, data):
    av, bv = data.draw(_vector(m)), data.draw(_vector(m))
    a, b = CycloNumber(m, av), CycloNumber(m, bv)
    oa, ob = FractionCyclo(m, av), FractionCyclo(m, bv)
    assert_agrees(a, oa)
    assert_agrees(b, ob)
    assert (a == b) == (oa == ob)
    assert (a == CycloNumber(m, av)) and hash(a) == hash(CycloNumber(m, av))
    assert_agrees(a + b, oa + ob)
    assert_agrees(a - b, oa - ob)
    assert_agrees(-a, -oa)
    assert_agrees(a * b, oa * ob)
    q = data.draw(st.fractions(max_denominator=12))
    assert_agrees(a + q, oa + q)
    assert_agrees(a * q, oa * q)
    assert (a == q) == (oa == q)
    e, f = data.draw(st.integers(-2 * m, 2 * m)), data.draw(st.integers(0, m - 1))
    ra, rb = CycloNumber.root(m, e), CycloNumber.root(m, f)
    assert_agrees(ra, _fraction_root(m, e % m))
    assert_agrees(ra * rb, _fraction_root(m, e % m) * _fraction_root(m, f))
    assert_agrees(ra * a, _fraction_root(m, e % m) * oa)
    n = data.draw(st.integers(-3 if a else 0, 4))
    assert_agrees(a**n, oa**n)
    if a:
        assert_agrees(a.inverse(), oa.inverse())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_MODULI), st.data())
def test_root_times_non_root_matches_fraction_oracle(m, data):
    # exactly one factor is a root w^e: `*` shifts the other factor by e
    av = data.draw(_vector(m))
    a, oa = CycloNumber(m, av), FractionCyclo(m, av)
    e = data.draw(st.integers(0, m - 1))
    root = CycloNumber.root(m, e)
    assume(a._root_hint(cyclo._field(m)) is None)
    assert_agrees(root * a, _fraction_root(m, e) * oa)
    assert_agrees(a * root, oa * _fraction_root(m, e))


@pytest.mark.parametrize("m", [12, 24, 36, 48, 15])
def test_root_hint_is_never_wrong(m):
    # sums, differences and products of two roots, and their negatives: a
    # hint, where there is one, is an exponent of the value; for even m,
    # -w^a is found as w^(a + m/2)
    field = cyclo._field(m)
    roots = [CycloNumber.root(m, a) for a in range(m)]
    for a, ra in enumerate(roots):
        for rb in roots:
            for x in (ra + rb, ra - rb, ra * rb * 2, CycloNumber(m, (ra * rb).coeffs)):
                for y in (x, -x):
                    e = CycloNumber(m, y.coeffs)._root_hint(field)
                    assert e is None or y == roots[e], (m, y, e)


@pytest.mark.parametrize("m", [12, 24, 36, 48, 15])
def test_negated_root_is_found_through_its_root(m, monkeypatch):
    # on a field with no other row built, -w^a has the hint a + m/2 for even
    # m, found through the row of w^a, and builds no row; odd m has none
    monkeypatch.setattr(cyclo, "_FIELDS", {})
    field = cyclo._field(m)
    for a in range(0, m, 5):
        minus = -CycloNumber.root(m, a)
        rows = len(field.root_lookup)
        assert minus._root_hint(field) == ((a + m // 2) % m if m % 2 == 0 else None)
        assert len(field.root_lookup) == rows


@pytest.mark.parametrize("m", [12, 24, 36, 48])
def test_signed_root_fast_path_matches_the_convolution(m):
    # +-w^a times any value, by the shift or the root-times-root path, equals
    # the plain product of the coefficient vectors reduced by Phi_m
    field = cyclo._field(m)
    d = len(cyclotomic_polynomial(m)) - 1
    others = [CycloNumber(m, [(3 * j + k) % 7 - 3 for j in range(d)]) for k in range(4)]
    others += [CycloNumber.root(m, 5), -CycloNumber.root(m, m - 1),
               CycloNumber.from_rational(m, Fraction(-2, 3))]
    for a in range(m):
        for x in (CycloNumber.root(m, a), -CycloNumber.root(m, a)):
            assert x._root_hint(field) is not None
            for y in others:
                plain = CycloNumber(m, poly_mul(x.coeffs, y.coeffs))
                assert x * y == plain and y * x == plain, (m, x, y)
            assert x * x.inverse() == 1


def test_rational_hash_matches_fraction():
    assert CycloNumber.one(12) == 1
    assert len({CycloNumber.one(12), 1}) == 1
    assert len({CycloNumber.root(12, 0), 1, Fraction(1)}) == 1
    assert len({CycloNumber.from_rational(12, Fraction(-3, 2)), Fraction(-3, 2)}) == 1
    assert hash(CycloNumber.zero(48)) == hash(0)
    assert CycloNumber.root(12, 6) == -1 and hash(CycloNumber.root(12, 6)) == hash(-1)


@pytest.mark.parametrize("m", [12, 16])
def test_equal_scalars_hash_equal(m):
    rationals = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    values = (
        [CycloNumber.root(m, a) for a in range(m)]
        + [CycloNumber.from_rational(m, q) for q in rationals]
        + rationals
        + [int(q) for q in rationals if q.denominator == 1]
    )
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)


def test_field_rows_are_built_on_demand():
    # the old set-up tabulated max(m, 2*phi(m)) rows: 3200 of them here
    m = 3200
    one = CycloNumber.one(m)
    last = CycloNumber.root(m, m - 1)
    assert CycloNumber(m, [0, 1]) * last == one  # w * w^(m-1), by the integer product
    field = cyclo._field(m)
    assert len(field.roots) <= 3 and len(field.root_lookup) <= 3


def _cache_sizes() -> int:
    """Entries held by every module-level cache of nichols_dm.cyclo."""
    total = 0
    for value in vars(cyclo).values():
        if hasattr(value, "cache_info"):
            total += value.cache_info().currsize
        elif isinstance(value, dict):
            total += len(value)
            for field in value.values():
                total += len(getattr(field, "roots", ())) + len(getattr(field, "root_lookup", ()))
    return total


def test_new_rationals_grow_no_cache():
    parse_scalar(12, "1/2*w - 3")
    before = _cache_sizes()
    for p in range(2, 300):
        parse_scalar(12, f"{p}/{p + 1}*w - {p}/7")
        CycloNumber.from_rational(12, Fraction(p, 11))
    assert _cache_sizes() == before
