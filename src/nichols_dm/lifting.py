"""Quadratic lifting presentations over D_m: A-type, B-type and bosonizations.

A presentation is T(V)#kD_m, V spanned by x/y per J-pair and z/w per odd
l, modulo the delta-guarded quadratic relations.  A lifting datum is one
table of deformation parameters keyed by (name, key), name one of lambda,
gamma, theta, mu; a guard that never fires (or a vanishing group factor
1 - h^0) forces an entry to zero.  The symmetry lambda_{p,m-k,i,k} =
lambda_{i,k,p,m-k}, gamma_{p,k,i,k} = gamma_{i,k,p,k} makes a key and its
transpose one entry, stored once under its canonical key, the lesser of
the two (`_canonical`); a theta/mu key is its own canonical key.

`_build` writes each x/z generator and each displayed relation family
(xx, xy, zz, zw, xz, xw) once; conjugation by g (x <-> y, z <-> w,
h-exponents negated) derives the y/w generators and the yy, ww, yw and yz
relations, each placed right after the relation it comes from.

The rule that sorts (I, L) into the four families of the lifting theorem
lives here and nowhere else: `family_members` enumerates family (a), (b),
(c) or (d), and `family_presentation` checks membership and builds the
presentation.  (a) is I = {(i,k)} with k != n, (b) is any L, (c) is any
other I, and (d) is (I, L) in the K-family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Mapping, Sequence

from .classify import (
    Pair,
    enumerate_I,
    enumerate_K,
    enumerate_L,
    is_valid_I,
    is_valid_K,
    is_valid_L,
)
from .cyclo import CycloNumber, format_scalar, parse_scalar
from .dihedral import DihedralGroup
from .errors import DomainError

__all__ = [
    "FAMILIES",
    "LiftingDatum",
    "Presentation",
    "Relation",
    "family_members",
    "family_presentation",
    "free_parameter_keys",
    "parameters_json",
    "presentation_A",
    "presentation_B",
    "presentation_L",
]

LambdaKey = tuple[int, int, int, int]  # (p, q, i, k)
ThetaKey = tuple[int, int, int]  # (p, q, l)
_NAMES = ("lambda", "gamma", "theta", "mu")


def _scalar(m: int, value) -> CycloNumber:
    if isinstance(value, CycloNumber):
        if value.m != m:
            raise DomainError("scalar over the wrong cyclotomic field")
        return value
    if isinstance(value, str):
        return parse_scalar(m, value)
    if isinstance(value, (int, Fraction)):
        return CycloNumber.from_rational(m, value)
    raise DomainError(f"cannot interpret {value!r} as a scalar")


def _lambda_guard(m: int, key: LambdaKey) -> bool:
    p, q, i, k = key
    return (q + k) % m == 0 and (p + i) % m != 0


def _gamma_guard(m: int, key: LambdaKey) -> bool:
    p, q, i, k = key
    return q % m == k % m and (p - i) % m != 0


def _theta_guard(m: int, key: ThetaKey) -> bool:
    p, q, ell = key
    return (q + ell) % m == 0


def _mu_guard(m: int, key: ThetaKey) -> bool:
    p, q, ell = key
    return q % m == ell % m


def _transpose(key: LambdaKey) -> LambdaKey:
    p, q, i, k = key
    return (i, k, p, q)


def _canonical(key: tuple) -> tuple:
    """The key an entry is stored under: the lesser of a lambda/gamma key and
    its transpose, a theta/mu key itself."""
    return min(key, _transpose(key)) if len(key) == 4 else key


def parameter_shape(m: int, I: Sequence[Pair], L: Sequence[int] = ()) -> dict:
    """Each canonical parameter key, "free" or forced "zero" by its guard."""
    values_I = sorted(set(I))
    shape: dict[str, dict] = {name: {} for name in _NAMES}
    for a, b in combinations_with_replacement(values_I, 2):
        key = a + b
        shape["lambda"][key] = "free" if _lambda_guard(m, key) else "zero"
        shape["gamma"][key] = "free" if _gamma_guard(m, key) else "zero"
    for a in values_I:
        for ell in sorted(set(L)):
            key = a + (ell,)
            shape["theta"][key] = "free" if _theta_guard(m, key) else "zero"
            shape["mu"][key] = "free" if _mu_guard(m, key) else "zero"
    return shape


def free_parameter_keys(m: int, I: Sequence[Pair], L: Sequence[int] = ()) -> list[tuple[str, tuple]]:
    shape = parameter_shape(m, I, L)
    out = []
    for name in _NAMES:
        for key, status in sorted(shape[name].items()):
            if status == "free":
                out.append((name, key))
    return out


@dataclass(frozen=True)
class LiftingDatum:
    """Validated parameters: ((name, key), value) per nonzero entry, under its canonical key."""

    m: int
    I: tuple[Pair, ...]
    L: tuple[int, ...]
    params: tuple[tuple[tuple[str, tuple], CycloNumber], ...]

    @staticmethod
    def build(
        m: int,
        I: Sequence[Pair],
        L: Sequence[int] = (),
        lam=None,
        gamma=None,
        theta=None,
        mu=None,
    ) -> "LiftingDatum":
        I = tuple(sorted(I))
        L = tuple(sorted(L))
        shape = parameter_shape(m, I, L)
        params = {
            (name, key): value
            for name, given in zip(_NAMES, (lam, gamma, theta, mu))
            for key, value in _normalize_family(m, name, given, shape[name]).items()
        }
        return LiftingDatum(m, I, L, tuple(sorted(params.items())))

    @staticmethod
    def zero(m: int, I: Sequence[Pair], L: Sequence[int] = ()) -> "LiftingDatum":
        return LiftingDatum.build(m, I, L)

    @cached_property
    def _values(self) -> dict:
        return dict(self.params)

    def value(self, name: str, key: tuple) -> CycloNumber:
        """The entry at `key` or at its transpose."""
        return self._values.get((name, _canonical(key)), CycloNumber.zero(self.m))

    def parameters_json(self) -> dict:
        return parameters_json((entry, format_scalar(v)) for entry, v in self.params)


def parameters_json(entries) -> dict:
    """{"lambda": {"p,q,i,k": text}, ...} from ((name, key), text) per nonzero entry, a
    lambda/gamma one under its transpose too; a name with no entry is left out."""
    out: dict[str, dict] = {}
    for (name, key), text in entries:
        table = out.setdefault(name, {})
        if len(key) == 4:
            # "%d" prints an int as str() does, in a third of the time of a join
            table["%d,%d,%d,%d" % key] = table["%d,%d,%d,%d" % _transpose(key)] = text
        else:
            table["%d,%d,%d" % key] = text
    return out


def _normalize_family(m: int, name: str, given, shape: Mapping) -> dict:
    """The nonzero entries of one name by canonical key: a broadcast value
    fills the free keys, a keyed value goes under its key's canonical key."""
    if given is None:
        return {}
    if not isinstance(given, Mapping):
        value = _scalar(m, given)
        return {key: value for key, status in shape.items() if status == "free" and value}
    explicit: dict = {}
    for key, value in given.items():
        key = tuple(int(x) for x in key)
        if key in explicit:
            raise DomainError(f"{name} parameter key {','.join(map(str, key))} is given twice")
        if _canonical(key) not in shape:
            raise DomainError(f"{name} entry {key} is not indexed by this family")
        explicit[key] = _scalar(m, value)
    for key, value in explicit.items():
        if shape[_canonical(key)] == "zero" and value:
            raise DomainError(
                f"{name}{key} must vanish (delta guard / vanishing group factor)"
            )
    out: dict = {}
    for key in sorted(explicit, key=_canonical):
        canonical = _canonical(key)
        if out.setdefault(canonical, explicit[key]) != explicit[key]:
            raise DomainError(f"{name}{canonical} violates the symmetry constraint")
    return {key: value for key, value in out.items() if value}


@dataclass(frozen=True)
class SkewGenerator:
    name: str
    partner: str  # image under conjugation by g
    h_exp: int  # h v h^-1 = w^h_exp v
    cop_exp: int  # Delta(v) = v (x) 1 + h^cop_exp (x) v


@dataclass(frozen=True)
class Relation:
    """lhs terms = rhs group combination, as one formal relation."""

    label: str
    lhs: tuple[tuple[CycloNumber, tuple[str, ...]], ...]
    rhs: tuple[tuple[CycloNumber, tuple[int, int]], ...]  # (coeff, (g_eps, h_exp))


@dataclass(frozen=True)
class Presentation:
    m: int
    kind: str  # A | B | L
    I: tuple[Pair, ...]
    L: tuple[int, ...]
    datum: LiftingDatum
    skew_generators: tuple[SkewGenerator, ...]
    relations: tuple[Relation, ...]

    def to_json_dict(self) -> dict:
        gens = [
            {"name": "g", "kind": "grouplike"},
            {"name": "h", "kind": "grouplike"},
        ]
        for v in self.skew_generators:
            gens.append(
                {
                    "name": v.name,
                    "kind": "skew",
                    "grouplike_degree": v.cop_exp,
                    "h_eigenvalue_exp": v.h_exp,
                    "g_partner": v.partner,
                }
            )
        rels = [
            {
                "label": rel.label,
                "lhs_terms": [[format_scalar(c), list(word)] for c, word in rel.lhs],
                "rhs_group_combo": [
                    [format_scalar(c), [eps, hexp]] for c, (eps, hexp) in rel.rhs
                ],
            }
            for rel in self._structural_relations() + self.relations
        ]
        return {
            "m": self.m,
            "kind": self.kind,
            "I": [list(p) for p in self.I],
            "L": list(self.L),
            "generators": gens,
            "relations": rels,
            "parameters": self.datum.parameters_json(),
        }

    def _structural_relations(self) -> tuple[Relation, ...]:
        """The group relations and g v = partner(v) g, h v = w^h_exp v h, read off the letters."""
        m, one = self.m, CycloNumber.one(self.m)
        rels = [
            Relation("group:g2", ((one, ("g", "g")),), ((one, (0, 0)),)),
            Relation("group:hm", ((one, ("h",) * m),), ((one, (0, 0)),)),
            Relation("group:ghg", ((one, ("g", "h", "g")),), ((one, (0, m - 1)),)),
        ]
        for v in self.skew_generators:
            g_terms = ((one, ("g", v.name)), (-one, (v.partner, "g")))
            h_terms = ((one, ("h", v.name)), (-CycloNumber.root(m, v.h_exp), (v.name, "h")))
            rels.append(Relation(f"comm:g:{v.name}", g_terms, ()))
            rels.append(Relation(f"comm:h:{v.name}", h_terms, ()))
        return tuple(rels)


def _occurrence_names(entries, base_names):
    """Names like x(1,6), with #2, #3 suffixes for repeated multiset entries."""
    counts: dict = {}
    out = []
    for entry in entries:
        counts[entry] = counts.get(entry, 0) + 1
        suffix = "" if counts[entry] == 1 else f"#{counts[entry]}"
        out.append([f"{base}{entry_str(entry)}{suffix}" for base in base_names])
    return out


def entry_str(entry) -> str:
    if isinstance(entry, tuple):
        return f"({entry[0]},{entry[1]})"
    return f"({entry})"


_CONJUGATE_KIND = str.maketrans("xyzw", "yxwz")


def _build(datum: LiftingDatum) -> Presentation:
    m, I, L = datum.m, datum.I, datum.L
    n = DihedralGroup(m).require_classification_modulus().n
    one = CycloNumber.one(m)

    # each x (z) letter with its g-conjugate y (w): h-exponents negated
    gens: list[SkewGenerator] = []
    xy_names = _occurrence_names(I, "xy")
    zw_names = _occurrence_names(L, "zw")
    letters = [(q, p) for p, q in I] + [(ell, n) for ell in L]
    for (h_exp, cop_exp), (a, b) in zip(letters, xy_names + zw_names):
        gens.append(SkewGenerator(a, b, h_exp % m, cop_exp % m))
        gens.append(SkewGenerator(b, a, -h_exp % m, -cop_exp % m))
    partner = {v.name: v.partner for v in gens}

    rels: list[Relation] = []
    zero = CycloNumber.zero(m)

    def relation(kind: str, a: str, b: str, value: CycloNumber, exp: int) -> Relation:
        lhs = ((one, (a, a)),) if a == b else ((one, (a, b)), (one, (b, a)))
        rhs = ((value, (0, 0)), (-value, (0, exp % m))) if value else ()
        return Relation(f"quad:{kind}:{a}|{b}", lhs, rhs)

    def quad(kind: str, a: str, b: str, value: CycloNumber = zero, exp: int = 0):
        """ab + ba (a^2 when a == b) = value (1 - h^exp), then its g-conjugate.

        The xy and zw families are closed under conjugation and come once.
        """
        rels.append(relation(kind, a, b, value, exp))
        if kind not in ("xy", "zw"):
            conjugate = kind.translate(_CONJUGATE_KIND)
            rels.append(relation(conjugate, partner[a], partner[b], value, -exp))

    xs = [names[0] for names in xy_names]
    ys = [names[1] for names in xy_names]
    zs = [names[0] for names in zw_names]
    ws = [names[1] for names in zw_names]
    # the square x^2 = lambda (1 - h^2p) is the diagonal s = t, i = p
    for s, (p, q) in enumerate(I):
        for t in range(s, len(I)):
            i, k = I[t]
            quad("xx", xs[s], xs[t], datum.value("lambda", (p, q, i, k)), p + i)
        for t, (i, k) in enumerate(I):
            quad("xy", xs[s], ys[t], datum.value("gamma", (p, q, i, k)), p - i)
    for s in range(len(L)):
        for t in range(s, len(L)):
            quad("zz", zs[s], zs[t])
        for t in range(len(L)):
            quad("zw", zs[s], ws[t])
    for s, (p, q) in enumerate(I):
        for u, ell in enumerate(L):
            quad("xz", xs[s], zs[u], datum.value("theta", (p, q, ell)), n + p)
            quad("xw", xs[s], ws[u], datum.value("mu", (p, q, ell)), n + p)

    kind = "B" if I and L else "A" if I else "L"
    return Presentation(m, kind, I, L, datum, tuple(gens), tuple(rels))


def presentation_A(m: int, I: Sequence[Pair], lam=None, gamma=None) -> Presentation:
    """The quadratic algebra on g, h, x_{p,q}, y_{p,q} with lifting datum (lambda, gamma)."""
    if not is_valid_I(m, I):
        raise DomainError(f"{tuple(I)} is not an I-family for m = {m}")
    datum = LiftingDatum.build(m, I, (), lam=lam, gamma=gamma)
    return _build(datum)


def presentation_B(
    m: int, I: Sequence[Pair], L: Sequence[int], lam=None, gamma=None, theta=None, mu=None
) -> Presentation:
    """The quadratic algebra on g, h, x, y, z, w for (I, L) in the K-family."""
    if not I or not L:
        raise DomainError("B-type presentations need |I| > 0 and |L| > 0")
    if not is_valid_K(m, I, L):
        raise DomainError(f"({tuple(I)}, {tuple(L)}) is not a K-family for m = {m}")
    datum = LiftingDatum.build(m, I, L, lam=lam, gamma=gamma, theta=theta, mu=mu)
    return _build(datum)


def presentation_L(m: int, L: Sequence[int]) -> Presentation:
    """Bosonization presentation on g, h, z_l, w_l (homogeneous relations)."""
    if not is_valid_L(m, L):
        raise DomainError(f"{tuple(L)} is not an L-family for m = {m}")
    return _build(LiftingDatum.zero(m, (), L))


FAMILIES = "abcd"

def _single_pair_k_not_n(m: int, I: Sequence[Pair]) -> bool:
    """I = {(i,k)} with k != n: family (a), never (c)."""
    return len(I) == 1 and I[0][1] % m != m // 2


def family_members(m: int, family: str, r_max: int) -> Iterator[tuple[tuple[Pair, ...], tuple[int, ...]]]:
    """The (I, L) of family (a), (b), (c) or (d) with |I| + |L| <= r_max.

    Family (a) is single pairs whatever r_max >= 1 is.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    if family == "a":
        yield from ((I, ()) for I in enumerate_I(m, 1) if _single_pair_k_not_n(m, I))
    elif family == "b":
        yield from (((), L) for L in enumerate_L(m, r_max))
    elif family == "c":
        yield from ((I, ()) for I in enumerate_I(m, r_max) if not _single_pair_k_not_n(m, I))
    elif family == "d":
        yield from enumerate_K(m, r_max)
    else:
        raise DomainError(f"unknown family {family!r}")


def family_presentation(
    m: int,
    family: str,
    I: Sequence[Pair] = (),
    L: Sequence[int] = (),
    lam=None,
    gamma=None,
    theta=None,
    mu=None,
) -> Presentation:
    """The presentation of (I, L) in family (a)-(d); DomainError if it is not a member.

    A parameter is given unless it is None or an empty mapping; a family
    without that parameter rejects it even when its value is zero.
    """
    given = {name for name, v in zip(_NAMES, (lam, gamma, theta, mu)) if v is not None and v != {}}
    if family in ("a", "b") and given:
        raise DomainError(f"family ({family}) bosonizations carry no parameters")
    if family == "a":
        if len(I) != 1 or L:
            raise DomainError("family (a) needs exactly one pair and no L part")
        if not _single_pair_k_not_n(m, I):
            raise DomainError("family (a) excludes k = n; use family (c)")
        return presentation_A(m, I)
    if family == "b":
        if I or not L:
            raise DomainError("family (b) needs an L part and no I part")
        return presentation_L(m, L)
    if family == "c":
        if given & {"theta", "mu"}:
            raise DomainError("family (c) has no theta/mu parameters")
        if not I or L:
            raise DomainError("family (c) needs an I part and no L part")
        if _single_pair_k_not_n(m, I):
            raise DomainError("family (c) excludes I = {(i,k)} with k != n; use family (a)")
        return presentation_A(m, I, lam=lam, gamma=gamma)
    if family == "d":
        return presentation_B(m, I, L, lam=lam, gamma=gamma, theta=theta, mu=mu)
    raise DomainError(f"unknown family {family!r}")
