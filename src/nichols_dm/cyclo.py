"""Exact arithmetic in the cyclotomic field Q(w_m).

``CycloNumber`` is the one scalar type: a field element in the power basis
``1, w, ..., w^(phi(m)-1)``, stored as a tuple of ints over one positive
common denominator, in lowest terms.  A root of unity is
``CycloNumber.root(m, a)``, one shared instance per exponent that
remembers ``a``, so a product of two roots adds exponents, a product of a
root ``w^a`` with any other value shifts that value's ints by ``a`` before
reducing, and a product with the shared ``one`` returns the other factor; comparing a value with
``1`` or ``-1`` reads its ints and builds nothing.  ``Phi_m`` is
monic with integer coefficients, so sums and products stay in integers; a
product is reduced by the sparse nonzero coefficients of ``Phi_m``, and the row
``x^a mod Phi_m`` of a root ``w^a`` is built the first time it is used.

``inverse`` is a closed form.  A root ``w^a`` inverts to ``w^-a`` and a
rational ``p/q`` to ``q/p``.  Any other ``a`` inverts through its Galois
norm: the automorphisms ``sigma_k: w -> w^k`` of Q(w_m), ``k`` a unit mod
``m``, permute the conjugates of ``a``, so ``N(a) = a * rest`` with
``rest = prod_{k != 1} sigma_k(a)`` is fixed by all of them and hence
rational, and ``a^-1 = rest / N(a)``.  ``sigma_k`` only moves exponents,
``w^j -> w^(jk mod m)``, so the conjugates and their product stay in
integers; no polynomial division is needed.  ``Fraction`` appears only at
the boundary: the constructor, the ``coeffs`` view, ``from_rational`` and
``parse_scalar``.  Everything is exact; there is no floating point
anywhere in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError

__all__ = [
    "CycloNumber",
    "cyclotomic_polynomial",
    "format_scalar",
    "parse_scalar",
]


def _poly_divide_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Divide integer polynomials (ascending coefficients), requiring a zero remainder."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    terms = [(j, d) for j, d in enumerate(den) if d]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, d in terms:
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
    """Per-modulus context for Q[x]/Phi_m(x).

    ``Phi_m`` is monic with integer coefficients, so every row
    ``x^a mod Phi_m`` is integral; a row is built only when ``w^a`` is first
    asked for.  ``root_lookup`` maps the rows built so far to their
    exponents (a negated row reads, for even m, as its exponent plus m/2): it
    feeds the fast paths of ``*`` (root times root, and a shift for root
    times anything) and nothing that decides a result.
    """

    __slots__ = ("m", "degree", "tail", "roots", "root_lookup", "zero", "one")

    def __init__(self, m: int):
        phi_poly = cyclotomic_polynomial(m)
        self.m = m
        self.degree = len(phi_poly) - 1
        # x^degree = -sum c_j x^j over the nonzero c_j below the top; Phi_m is
        # sparse (x^16 - x^8 + 1 at m = 48), so reduction walks these pairs only
        self.tail = tuple((j, c) for j, c in enumerate(phi_poly[:-1]) if c)
        self.roots: dict[int, CycloNumber] = {}
        self.root_lookup: dict[tuple[int, ...], int] = {}
        self.zero = _new(m, (0,) * self.degree, 1)
        self.one = self.root(0)

    def reduce(self, buf: list[int]) -> tuple[int, ...]:
        """The integer polynomial ``buf`` (ascending) mod Phi_m, as a row; ``buf`` is consumed."""
        d = self.degree
        if len(buf) <= d:
            return tuple(buf) + (0,) * (d - len(buf))
        tail = self.tail
        for k in range(len(buf) - 1, d - 1, -1):
            c = buf[k]
            if c:
                base = k - d
                for j, p in tail:
                    buf[base + j] -= c * p
        return tuple(buf[:d])

    def root(self, exponent: int) -> "CycloNumber":
        """w^exponent for 0 <= exponent < m, building its row on first use."""
        value = self.roots.get(exponent)
        if value is None:
            buf = [0] * (exponent + 1)
            buf[exponent] = 1
            row = self.reduce(buf)
            value = _new(self.m, row, 1)
            object.__setattr__(value, "_root_memo", exponent)
            self.roots[exponent] = value
            self.root_lookup[row] = exponent
        return value


_FIELDS: dict[int, _Field] = {}


def _field(m: int) -> _Field:
    field = _FIELDS.get(m)
    if field is None:
        field = _FIELDS[m] = _Field(m)
    return field


_UNSET = object()


class CycloNumber:
    """An element of Q(w_m): ``sum(num[j] * w^j) / den`` over ``j < phi(m)``.

    The form is canonical: ``num`` is a tuple of ints of length ``phi(m)``,
    ``den > 0``, ``gcd(num..., den) == 1``, and zero is ``(0, ..., 0) / 1``.
    So ``==`` compares tuples, and a rational value hashes like its
    ``Fraction``.  ``coeffs`` is the same vector as ``Fraction``s.
    """

    __slots__ = ("m", "num", "den", "_root_memo")

    def __init__(self, m: int, coeffs: Iterable[Fraction | int]):
        field = _field(m)
        vec = [Fraction(c) for c in coeffs]
        den = lcm(*(q.denominator for q in vec)) if vec else 1
        num, den = _canonical(field.reduce([q.numerator * (den // q.denominator) for q in vec]), den)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_root_memo", _UNSET)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of ``w^0 .. w^(phi(m)-1)`` as ``Fraction``s."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # constructors (values are immutable, so the cached instances are shared)

    @staticmethod
    def zero(m: int) -> "CycloNumber":
        return _field(m).zero

    @staticmethod
    def one(m: int) -> "CycloNumber":
        return _field(m).one

    @staticmethod
    def from_rational(m: int, value: Fraction | int) -> "CycloNumber":
        field = _field(m)
        if value == 0:
            return field.zero
        if value == 1:
            return field.one
        if isinstance(value, int):
            p, den = value, 1
        else:
            q = Fraction(value)
            p, den = q.numerator, q.denominator
        return _new(m, (p,) + (0,) * (field.degree - 1), den)

    @staticmethod
    def root(m: int, exponent: int) -> "CycloNumber":
        return _field(m).root(exponent % m)

    # ring structure

    def _coerce(self, other) -> "CycloNumber":
        if isinstance(other, CycloNumber):
            if other.m != self.m:
                raise DomainError("cyclotomic numbers over different moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.m, other)
        return NotImplemented

    def _plus(self, other, sign: int) -> "CycloNumber":
        da, db = self.den, other.den
        if da == db:
            num = [a + sign * b for a, b in zip(self.num, other.num)]
            return _make(self.m, num, da)
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        num = [a * sa + b * sb for a, b in zip(self.num, other.num)]
        return _make(self.m, num, da * sa)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.m, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = _field(self.m)
        if self is field.one:
            return other
        if other is field.one:
            return self
        if not self or not other:
            return field.zero
        ea, eb = self._root_hint(field), other._root_hint(field)
        if ea is not None and eb is not None:
            return field.root((ea + eb) % self.m)
        if ea is not None or eb is not None:  # times w^e: shift by e, then reduce
            e, x = (ea, other) if ea is not None else (eb, self)
            return _make(self.m, field.reduce([0] * e + list(x.num)), x.den)
        a, b = self.num, other.num
        terms = [(j, y) for j, y in enumerate(b) if y]
        conv = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    conv[i + j] += x * y
        return _make(self.m, field.reduce(conv), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if not self:
            raise DomainError("cannot invert zero")
        m = self.m
        field = _field(m)
        exponent = self._root_hint(field)
        if exponent is not None:
            return field.root(-exponent % m)
        num = self.num
        if not any(num[1:]):  # a rational p/q inverts to q/p
            p = num[0]
            return _new(m, (self.den if p > 0 else -self.den,) + num[1:], abs(p))
        # rest = prod of sigma_k(num) over the units k != 1, sigma_k: w -> w^k;
        # a * rest is the norm times a rational, so a^-1 = rest / (a * rest)
        rest = field.one
        for k in range(2, m):
            if gcd(k, m) == 1:
                buf = [0] * m
                for j, c in enumerate(num):
                    buf[j * k % m] += c
                rest = rest * _new(m, field.reduce(buf), 1)
        norm = self * rest  # rational
        p, q = norm.num[0], norm.den
        if p < 0:
            p, q = -p, -q
        return _make(m, [c * q for c in rest.num], p)

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
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, CycloNumber):
            return self.m == other.m and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):  # both forms are in lowest terms
            num = self.num
            return (num[0] == other.numerator and self.den == other.denominator
                    and not any(num[1:]))
        return NotImplemented

    def __hash__(self):
        if not any(self.num[1:]):  # rational: hash like the Fraction it equals
            return hash(Fraction(self.num[0], self.den))
        return hash((self.m, self.num, self.den))

    def root_exponent(self) -> int | None:
        """a with self == w^a, if found among the roots built so far; else None."""
        return self._root_hint(_field(self.m))

    def _root_hint(self, field: _Field) -> int | None:
        """Exponent a with self == w^a if w^a is among the roots built so far.

        For even m, -w^b = w^(b + m/2) is found through w^b as well.
        """
        memo = self._root_memo
        if memo is _UNSET:
            memo = None
            if self.den == 1:
                memo = field.root_lookup.get(self.num)
                if memo is None and self.m % 2 == 0:
                    memo = field.root_lookup.get(tuple(-c for c in self.num))
                    if memo is not None:
                        memo = (memo + self.m // 2) % self.m
            object.__setattr__(self, "_root_memo", memo)
        return memo

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"CycloNumber({self.m}, {format_scalar(self)!r})"


def _canonical(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Divide ``num`` and ``den > 0`` by their common content (zero becomes 0/1)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return num, den


def _new(m: int, num: tuple[int, ...], den: int) -> CycloNumber:
    """A CycloNumber from an already canonical ``num / den``."""
    out = object.__new__(CycloNumber)
    object.__setattr__(out, "m", m)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    object.__setattr__(out, "_root_memo", _UNSET)
    return out


def _make(m: int, num, den: int) -> CycloNumber:
    return _new(m, *_canonical(tuple(num), den))


# -- fixed textual syntax: "3/2", "w^5 - 1", "1/2*w^2 + w" ------------------


def format_scalar(a: CycloNumber) -> str:
    den = a.den
    terms = []
    for e in range(len(a.num) - 1, -1, -1):
        c = a.num[e]
        if not c:
            continue
        mag = abs(c)
        g = gcd(mag, den)
        p, q = mag // g, den // g
        coef = str(p) if q == 1 else f"{p}/{q}"
        if e == 0:
            body = coef
        else:
            w = "w" if e == 1 else f"w^{e}"
            body = w if mag == den else f"{coef}*{w}"
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


def _too_long(what: str, text: str) -> DomainError:
    """The error for a number in `text` with more digits than int() reads: it
    names the field and the digit count, not the digits."""
    digits = max(map(len, re.findall(r"\d+", text, re.ASCII)))
    return DomainError(f"cannot read {what}: a number of {digits} digits is too long")


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
        except ValueError:  # more digits than int() reads
            raise _too_long("scalar", text) from None
        if sign == "-":
            value = -value
        if power:
            term = CycloNumber.root(m, exp) * value
        else:
            term = CycloNumber.from_rational(m, value)
        total = total + term
    return total
