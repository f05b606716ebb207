"""Exact arithmetic in the cyclotomic field Q(w_m).

Two representations are provided.  ``RootPower`` is an exponent-only fast
path for single roots of unity (closed under multiplication), while
``CycloNumber`` is a full field element: a vector of rationals modulo the
m-th cyclotomic polynomial.  Everything is exact; there is no floating
point anywhere in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError

__all__ = [
    "CycloNumber",
    "RootKind",
    "RootPower",
    "cyclo_add",
    "cyclo_inv",
    "cyclo_mul",
    "cyclotomic_polynomial",
    "format_scalar",
    "parse_scalar",
    "root_classify",
]


def _poly_divide_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Divide integer polynomials (ascending coefficients), requiring a zero remainder."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise ValueError("nonzero remainder in exact polynomial division")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial Phi_m."""
    if m < 1:
        raise DomainError(f"cyclotomic polynomial needs m >= 1, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    result: Sequence[int] = poly
    for d in range(1, m):
        if m % d == 0:
            result = _poly_divide_exact(result, cyclotomic_polynomial(d))
    return tuple(result)


class _Field:
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
        # Recognize pure root powers (for RootPower round-trips).
        self.root_lookup = {powers[j]: j % m for j in range(m)}


@lru_cache(maxsize=None)
def _field(m: int) -> _Field:
    return _Field(m)


class RootKind(Enum):
    ONE = "one"
    MINUS_ONE = "minus_one"
    OTHER = "other"


@dataclass(frozen=True)
class RootPower:
    """The root of unity w^exponent for w a fixed primitive m-th root of 1."""

    m: int
    exponent: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"modulus must be positive, got {self.m}")
        object.__setattr__(self, "exponent", self.exponent % self.m)

    def __mul__(self, other: "RootPower") -> "RootPower":
        if self.m != other.m:
            raise DomainError("root powers over different moduli")
        return RootPower(self.m, self.exponent + other.exponent)

    def __pow__(self, n: int) -> "RootPower":
        return RootPower(self.m, self.exponent * n)

    def inverse(self) -> "RootPower":
        return RootPower(self.m, -self.exponent)

    def classify(self) -> RootKind:
        if self.exponent == 0:
            return RootKind.ONE
        if self.m % 2 == 0 and self.exponent == self.m // 2:
            return RootKind.MINUS_ONE
        return RootKind.OTHER

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    @property
    def is_minus_one(self) -> bool:
        return self.classify() is RootKind.MINUS_ONE

    def to_cyclo(self) -> "CycloNumber":
        return CycloNumber.root(self.m, self.exponent)

    def __str__(self):
        return format_scalar(self.to_cyclo())


def root_classify(a: RootPower) -> RootKind:
    """Classify w^a as 1, -1 or some other root of unity."""
    return a.classify()


_UNSET = object()


class CycloNumber:
    """An element of Q(w_m), stored as a reduced vector of rationals."""

    __slots__ = ("m", "coeffs", "_root_memo")

    def __init__(self, m: int, coeffs: Iterable[Fraction | int]):
        field = _field(m)
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
        raise AttributeError("CycloNumber is immutable")

    # constructors (values are immutable, so the cached instances are shared)

    @staticmethod
    def zero(m: int) -> "CycloNumber":
        return _cached_rational(m, Fraction(0))

    @staticmethod
    def one(m: int) -> "CycloNumber":
        return _cached_rational(m, Fraction(1))

    @staticmethod
    def from_rational(m: int, value: Fraction | int) -> "CycloNumber":
        return _cached_rational(m, Fraction(value))

    @staticmethod
    def root(m: int, exponent: int) -> "CycloNumber":
        return _cached_root(m, exponent % m)

    # ring structure

    def _coerce(self, other) -> "CycloNumber":
        if isinstance(other, CycloNumber):
            if other.m != self.m:
                raise DomainError("cyclotomic numbers over different moduli")
            return other
        if isinstance(other, RootPower):
            if other.m != self.m:
                raise DomainError("cyclotomic numbers over different moduli")
            return other.to_cyclo()
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.m, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        return CycloNumber(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.m, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNumber(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return CycloNumber.zero(self.m)
        ea = self.as_root_exponent()
        if ea is not None:
            eb = other.as_root_exponent()
            if eb is not None:
                return CycloNumber.root(self.m, ea + eb)
        a, b = self.coeffs, other.coeffs
        d = len(a)
        conv = [Fraction(0)] * (2 * d - 1 if d else 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
        return CycloNumber(self.m, conv)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
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
        return CycloNumber(self.m, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> "CycloNumber":
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloNumber.one(self.m)
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
        if isinstance(other, (int, Fraction, RootPower)):
            other = self._coerce(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def as_root_exponent(self) -> int | None:
        """Exponent a with self == w^a, or None if not a single root of unity."""
        memo = self._root_memo
        if memo is _UNSET:
            memo = _field(self.m).root_lookup.get(self.coeffs)
            object.__setattr__(self, "_root_memo", memo)
        return memo

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"CycloNumber({self.m}, {format_scalar(self)!r})"


@lru_cache(maxsize=None)
def _cached_root(m: int, exponent: int) -> CycloNumber:
    return CycloNumber(m, _field(m).powers[exponent])


@lru_cache(maxsize=None)
def _cached_rational(m: int, value: Fraction) -> CycloNumber:
    return CycloNumber(m, [value])


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


def cyclo_add(a: CycloNumber, b: CycloNumber) -> CycloNumber:
    return a + b


def cyclo_mul(a: CycloNumber, b: CycloNumber) -> CycloNumber:
    return a * b


def cyclo_inv(a: CycloNumber) -> CycloNumber:
    return a.inverse()


# -- fixed textual syntax: "3/2", "w^5 - 1", "1/2*w^2 + w" ------------------


def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(a: CycloNumber) -> str:
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


_COEF = r"[0-9]+(?:/[0-9]+)?"
_POWER = r"w(?:\^[0-9]+)?"
_TERM = rf"(?:{_COEF}(?:\s*\*\s*{_POWER}|{_POWER})?|{_POWER})"
# whitespace only around the signs between terms, after a leading sign and
# around '*'; never inside a number or a power of w
_SCALAR_RE = re.compile(rf"[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*")
_TERM_RE = re.compile(rf"([+-]?)(?:({_COEF})\*?)?(w(?:\^([0-9]+))?)?")


def parse_scalar(m: int, text: str) -> CycloNumber:
    """Parse the syntax emitted by format_scalar back into a CycloNumber.

    A scalar is a signed sum of terms ``c``, ``c*w^e``, ``cw^e`` or ``w^e``
    with ``c`` a non-negative integer or fraction and ``w`` alone meaning
    ``w^1``; the whole text must match.
    """
    s = text.strip().replace("−", "-")
    if not _SCALAR_RE.fullmatch(s):
        raise DomainError(f"cannot parse scalar {text!r}; expected e.g. 1/2*w^2 - w + 3")
    total = CycloNumber.zero(m)
    for chunk in re.split(r"(?=[+-])", re.sub(r"\s+", "", s)):
        if not chunk:
            continue
        sign, coef, power, exp = _TERM_RE.fullmatch(chunk).groups()
        try:
            value = Fraction(coef or 1)
            exp = int(exp or 1)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in scalar {text!r}") from None
        except ValueError as exc:  # more digits than int() reads
            raise DomainError(f"cannot read scalar {text!r}: {exc}") from None
        if sign == "-":
            value = -value
        if power:
            term = CycloNumber.root(m, exp) * value
        else:
            term = CycloNumber.from_rational(m, value)
        total = total + term
    return total
