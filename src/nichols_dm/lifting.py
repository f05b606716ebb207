"""Quadratic lifting presentations over D_m: A-type, B-type and bosonizations.

A presentation has group-likes g, h (with g^2 = 1 = h^m, ghg = h^{m-1})
and skew-primitive generators x/y per J-pair and z/w per odd l, together
with the delta-guarded quadratic relations.  Deformation parameters
(lambda, gamma, theta, mu) are keyed by index-value tuples; a
guard that never fires (or a vanishing group factor 1 - h^0) forces the
entry to zero, and the symmetry lambda_{p,m-k,i,k} = lambda_{i,k,p,m-k},
gamma_{p,k,i,k} = gamma_{i,k,p,k} identifies transposed keys.

The y-y / y-w relation families are generated by closing the displayed
relations under conjugation by g (x <-> y, z <-> w, h-exponents negated),
which reproduces the full eight-family list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .classify import (
    Pair,
    _occurrence_names,
    is_valid_I,
    is_valid_K,
    is_valid_L,
)
from .cyclo import CycloNumber, format_scalar, parse_scalar
from .dihedral import DihedralGroup
from .errors import DomainError

__all__ = [
    "LiftingDatum",
    "Presentation",
    "Relation",
    "SkewGenerator",
    "bosonization",
    "free_parameter_keys",
    "group_algebra_presentation",
    "parameter_shape",
    "presentation_A",
    "presentation_B",
    "presentation_L",
    "theorem_B_catalogue",
]

LambdaKey = tuple[int, int, int, int]  # (p, q, i, k)
ThetaKey = tuple[int, int, int]  # (p, q, l)


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


def parameter_shape(m: int, I: Sequence[Pair], L: Sequence[int] = ()) -> dict:
    """Classify every parameter entry as free, forced zero, or tied by symmetry."""
    I = tuple(sorted(I))
    L = tuple(sorted(L))
    values_I = sorted(set(I))
    shape: dict[str, dict] = {"lambda": {}, "gamma": {}, "theta": {}, "mu": {}}
    single = len(I) == 1
    for a in values_I:
        for b in values_I:
            key = a + b
            for name, guard in (("lambda", _lambda_guard), ("gamma", _gamma_guard)):
                if name == "gamma" and single:
                    shape[name][key] = "zero"
                    continue
                if not guard(m, key):
                    shape[name][key] = "zero"
                    continue
                tkey = _transpose(key)
                if tkey < key:
                    shape[name][key] = ("tied", tkey)
                else:
                    shape[name][key] = "free"
    for a in values_I:
        for ell in sorted(set(L)):
            key = a + (ell,)
            shape["theta"][key] = "free" if _theta_guard(m, key) else "zero"
            shape["mu"][key] = "free" if _mu_guard(m, key) else "zero"
    return shape


def free_parameter_keys(m: int, I: Sequence[Pair], L: Sequence[int] = ()) -> list[tuple[str, tuple]]:
    shape = parameter_shape(m, I, L)
    out = []
    for name in ("lambda", "gamma", "theta", "mu"):
        for key, status in sorted(shape[name].items()):
            if status == "free":
                out.append((name, key))
    return out


@dataclass(frozen=True)
class LiftingDatum:
    """Validated parameter families for a presentation over D_m."""

    m: int
    I: tuple[Pair, ...]
    L: tuple[int, ...]
    lam: tuple[tuple[LambdaKey, CycloNumber], ...]
    gam: tuple[tuple[LambdaKey, CycloNumber], ...]
    theta: tuple[tuple[ThetaKey, CycloNumber], ...]
    mu: tuple[tuple[ThetaKey, CycloNumber], ...]

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
        lam_map = _normalize_family(m, "lambda", lam, shape["lambda"])
        gam_map = _normalize_family(m, "gamma", gamma, shape["gamma"])
        theta_map = _normalize_family(m, "theta", theta, shape["theta"])
        mu_map = _normalize_family(m, "mu", mu, shape["mu"])
        if not L and (any(theta_map.values()) or any(mu_map.values())):
            raise DomainError("theta/mu require an L part")
        return LiftingDatum(
            m,
            I,
            L,
            tuple(sorted(lam_map.items())),
            tuple(sorted(gam_map.items())),
            tuple(sorted(theta_map.items())),
            tuple(sorted(mu_map.items())),
        )

    @staticmethod
    def zero(m: int, I: Sequence[Pair], L: Sequence[int] = ()) -> "LiftingDatum":
        return LiftingDatum.build(m, I, L)

    def lam_value(self, key: LambdaKey) -> CycloNumber:
        return dict(self.lam).get(key, CycloNumber.zero(self.m))

    def gam_value(self, key: LambdaKey) -> CycloNumber:
        return dict(self.gam).get(key, CycloNumber.zero(self.m))

    def theta_value(self, key: ThetaKey) -> CycloNumber:
        return dict(self.theta).get(key, CycloNumber.zero(self.m))

    def mu_value(self, key: ThetaKey) -> CycloNumber:
        return dict(self.mu).get(key, CycloNumber.zero(self.m))

    @property
    def is_zero(self) -> bool:
        return not any(
            v for _, v in self.lam + self.gam + self.theta + self.mu
        )


def _normalize_family(m: int, name: str, given, shape: Mapping) -> dict:
    """Expand scalar broadcast / explicit dicts into a full validated key map."""
    explicit: dict = {}
    if given is None:
        pass
    elif isinstance(given, Mapping):
        for key, value in given.items():
            key = tuple(int(x) for x in key)
            if key not in shape:
                raise DomainError(f"{name} entry {key} is not indexed by this family")
            explicit[key] = _scalar(m, value)
    else:
        broadcast = _scalar(m, given)
        for key, status in shape.items():
            if status == "free":
                explicit[key] = broadcast
    for key, value in explicit.items():
        if shape[key] == "zero" and value:
            raise DomainError(
                f"{name}{key} must vanish (delta guard / vanishing group factor)"
            )
    out: dict = {}
    for key, status in shape.items():
        if status != "free":
            continue
        tkey = _transpose(key) if len(key) == 4 else key
        sources = [k for k in ([key] if tkey == key else [key, tkey]) if k in explicit]
        vals = [explicit[k] for k in sources]
        if len(vals) == 2 and vals[0] != vals[1]:
            raise DomainError(f"{name}{key} violates the symmetry constraint")
        value = vals[0] if vals else CycloNumber.zero(m)
        if value:
            out[key] = value
            if tkey != key:
                out[tkey] = value
    return out


@dataclass(frozen=True)
class SkewGenerator:
    name: str
    kind: str  # x | y | z | w
    entry: tuple  # (p, q) or (l,)
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
    kind: str  # A | B | L | group
    I: tuple[Pair, ...]
    L: tuple[int, ...]
    datum: LiftingDatum
    skew_generators: tuple[SkewGenerator, ...]
    relations: tuple[Relation, ...]

    @property
    def generator_names(self) -> list[str]:
        return ["g", "h"] + [v.name for v in self.skew_generators]

    def skew(self, name: str) -> SkewGenerator:
        for v in self.skew_generators:
            if v.name == name:
                return v
        raise KeyError(name)

    def relation(self, label: str) -> Relation:
        for rel in self.relations:
            if rel.label == label:
                return rel
        raise KeyError(label)

    def counit_residue(self, rel: Relation) -> CycloNumber:
        """Image of the relation under the counit; zero iff counital-consistent."""
        total = CycloNumber.zero(self.m)
        skew_names = {v.name for v in self.skew_generators}
        for coeff, word in rel.lhs:
            if not any(letter in skew_names for letter in word):
                total = total + coeff
        for coeff, _ in rel.rhs:
            total = total - coeff
        return total

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
            for rel in self.relations
        ]
        params = {}
        for name, items in (
            ("lambda", self.datum.lam),
            ("gamma", self.datum.gam),
            ("theta", self.datum.theta),
            ("mu", self.datum.mu),
        ):
            params[name] = {
                ",".join(str(x) for x in key): format_scalar(v) for key, v in items
            }
        return {
            "m": self.m,
            "kind": self.kind,
            "I": [list(p) for p in self.I],
            "L": list(self.L),
            "generators": gens,
            "relations": rels,
            "parameters": params,
        }


def _build(m: int, I: Sequence[Pair], L: Sequence[int], datum: LiftingDatum) -> Presentation:
    G = DihedralGroup(m)
    G.require_classification_modulus()
    n = G.n
    I = tuple(sorted(I))
    L = tuple(sorted(L))
    one = CycloNumber.one(m)

    gens: list[SkewGenerator] = []
    xy_names = _occurrence_names(I, ("x", "y"))
    for (p, q), (xn, yn) in zip(I, xy_names):
        gens.append(SkewGenerator(xn, "x", (p, q), yn, q % m, p % m))
        gens.append(SkewGenerator(yn, "y", (p, q), xn, -q % m, -p % m))
    zw_names = _occurrence_names(L, ("z", "w"))
    for ell, (zn, wn) in zip(L, zw_names):
        gens.append(SkewGenerator(zn, "z", (ell,), wn, ell % m, n))
        gens.append(SkewGenerator(wn, "w", (ell,), zn, -ell % m, n))

    rels: list[Relation] = [
        Relation("group:g2", ((one, ("g", "g")),), ((one, (0, 0)),)),
        Relation("group:hm", ((one, tuple(["h"] * m)),), ((one, (0, 0)),)),
        Relation(
            "group:ghg",
            ((one, ("g", "h", "g")),),
            ((one, (0, m - 1)),),
        ),
    ]
    for v in gens:
        rels.append(
            Relation(
                f"comm:g:{v.name}",
                ((one, ("g", v.name)), (-one, (v.partner, "g"))),
                (),
            )
        )
        rels.append(
            Relation(
                f"comm:h:{v.name}",
                (
                    (one, ("h", v.name)),
                    (-CycloNumber.root(m, v.h_exp), (v.name, "h")),
                ),
                (),
            )
        )

    def combo(value: CycloNumber, exp: int):
        if not value:
            return ()
        return ((value, (0, 0)), (-value, (0, exp % m)))

    xs = [names[0] for names in xy_names]
    ys = [names[1] for names in xy_names]
    zs = [names[0] for names in zw_names]
    ws = [names[1] for names in zw_names]

    for s in range(len(I)):
        p, q = I[s]
        for t in range(s, len(I)):
            i, k = I[t]
            lam = datum.lam_value((p, q, i, k))
            if s == t:
                # diagonal relation emitted in square form; the stored
                # parameter is the printed square coefficient
                rels.append(
                    Relation(
                        f"quad:xx:{xs[s]}|{xs[s]}",
                        ((one, (xs[s], xs[s])),),
                        combo(lam, 2 * p),
                    )
                )
                rels.append(
                    Relation(
                        f"quad:yy:{ys[s]}|{ys[s]}",
                        ((one, (ys[s], ys[s])),),
                        combo(lam, -2 * p),
                    )
                )
            else:
                rels.append(
                    Relation(
                        f"quad:xx:{xs[s]}|{xs[t]}",
                        ((one, (xs[s], xs[t])), (one, (xs[t], xs[s]))),
                        combo(lam, p + i),
                    )
                )
                rels.append(
                    Relation(
                        f"quad:yy:{ys[s]}|{ys[t]}",
                        ((one, (ys[s], ys[t])), (one, (ys[t], ys[s]))),
                        combo(lam, -(p + i)),
                    )
                )
        for t in range(len(I)):
            i, k = I[t]
            gam = datum.gam_value((p, q, i, k))
            rels.append(
                Relation(
                    f"quad:xy:{xs[s]}|{ys[t]}",
                    ((one, (xs[s], ys[t])), (one, (ys[t], xs[s]))),
                    combo(gam, p - i),
                )
            )

    for s in range(len(L)):
        for t in range(s, len(L)):
            if s == t:
                rels.append(
                    Relation(f"quad:zz:{zs[s]}|{zs[s]}", ((one, (zs[s], zs[s])),), ())
                )
                rels.append(
                    Relation(f"quad:ww:{ws[s]}|{ws[s]}", ((one, (ws[s], ws[s])),), ())
                )
            else:
                rels.append(
                    Relation(
                        f"quad:zz:{zs[s]}|{zs[t]}",
                        ((one, (zs[s], zs[t])), (one, (zs[t], zs[s]))),
                        (),
                    )
                )
                rels.append(
                    Relation(
                        f"quad:ww:{ws[s]}|{ws[t]}",
                        ((one, (ws[s], ws[t])), (one, (ws[t], ws[s]))),
                        (),
                    )
                )
        for t in range(len(L)):
            rels.append(
                Relation(
                    f"quad:zw:{zs[s]}|{ws[t]}",
                    ((one, (zs[s], ws[t])), (one, (ws[t], zs[s]))),
                    (),
                )
            )

    for s in range(len(I)):
        p, q = I[s]
        for u in range(len(L)):
            ell = L[u]
            theta = datum.theta_value((p, q, ell))
            mu = datum.mu_value((p, q, ell))
            rels.append(
                Relation(
                    f"quad:xz:{xs[s]}|{zs[u]}",
                    ((one, (xs[s], zs[u])), (one, (zs[u], xs[s]))),
                    combo(theta, n + p),
                )
            )
            rels.append(
                Relation(
                    f"quad:yw:{ys[s]}|{ws[u]}",
                    ((one, (ys[s], ws[u])), (one, (ws[u], ys[s]))),
                    combo(theta, n - p),
                )
            )
            rels.append(
                Relation(
                    f"quad:xw:{xs[s]}|{ws[u]}",
                    ((one, (xs[s], ws[u])), (one, (ws[u], xs[s]))),
                    combo(mu, n + p),
                )
            )
            rels.append(
                Relation(
                    f"quad:yz:{ys[s]}|{zs[u]}",
                    ((one, (ys[s], zs[u])), (one, (zs[u], ys[s]))),
                    combo(mu, n - p),
                )
            )

    if I and L:
        kind = "B"
    elif I:
        kind = "A"
    elif L:
        kind = "L"
    else:
        kind = "group"
    return Presentation(m, kind, I, L, datum, tuple(gens), tuple(rels))


def presentation_A(m: int, I: Sequence[Pair], lam=None, gamma=None) -> Presentation:
    """The quadratic algebra on g, h, x_{p,q}, y_{p,q} with lifting datum (lambda, gamma)."""
    if not is_valid_I(m, I):
        raise DomainError(f"{tuple(I)} is not an I-family for m = {m}")
    datum = LiftingDatum.build(m, I, (), lam=lam, gamma=gamma)
    return _build(m, datum.I, (), datum)


def presentation_B(
    m: int, I: Sequence[Pair], L: Sequence[int], lam=None, gamma=None, theta=None, mu=None
) -> Presentation:
    """The quadratic algebra on g, h, x, y, z, w for (I, L) in the K-family."""
    if not I or not L:
        raise DomainError("B-type presentations need |I| > 0 and |L| > 0")
    if not is_valid_K(m, I, L):
        raise DomainError(f"({tuple(I)}, {tuple(L)}) is not a K-family for m = {m}")
    datum = LiftingDatum.build(m, I, L, lam=lam, gamma=gamma, theta=theta, mu=mu)
    return _build(m, datum.I, datum.L, datum)


def presentation_L(m: int, L: Sequence[int]) -> Presentation:
    """Bosonization presentation on g, h, z_l, w_l (homogeneous relations)."""
    if not is_valid_L(m, L):
        raise DomainError(f"{tuple(L)} is not an L-family for m = {m}")
    return _build(m, (), tuple(sorted(L)), LiftingDatum.zero(m, (), L))


def group_algebra_presentation(m: int) -> Presentation:
    """Just the group algebra of D_m (no skew-primitives); 2m normal words."""
    DihedralGroup(m).require_classification_modulus()
    return _build(m, (), (), LiftingDatum.zero(m, (), ()))


def bosonization(m: int, labeled) -> Presentation:
    """Bosonization of M_I (I = {(i,k)}, k != n) or of M_L; all parameters zero."""
    I, L = tuple(labeled.I), tuple(labeled.L)
    n = m // 2
    if I and not L:
        if len(I) == 1 and I[0][1] % m != n:
            return presentation_A(m, I)
        raise DomainError(
            "bosonization covers I = {(i,k)} with k != n; other I-families "
            "are presentation_A with zero datum"
        )
    if L and not I:
        return presentation_L(m, L)
    raise DomainError("bosonization covers single-pair M_I or M_L modules")


def theorem_B_catalogue(m: int, r_max: int) -> list[dict]:
    """The four lifting families with their parameter-space shapes, up to r_max."""
    from .classify import enumerate_I, enumerate_K, enumerate_L

    G = DihedralGroup(m)
    G.require_classification_modulus()
    n = G.n
    order = 2 * m

    def shape_json(I, L=()):
        shape = parameter_shape(m, I, L)
        out = {}
        for name, entries in shape.items():
            if not entries:
                continue
            out[name] = {
                ",".join(str(x) for x in key): (
                    status if isinstance(status, str) else ["tied", ",".join(str(x) for x in status[1])]
                )
                for key, status in sorted(entries.items())
            }
        return out

    catalogue = []
    a_instances = [
        {"I": [list(p) for p in I], "dimension": 4 * order}
        for I in enumerate_I(m, 1)
        if I[0][1] != n
    ]
    catalogue.append(
        {
            "family": "a",
            "description": "bosonizations of M_I, I = {(i,k)} with k != n; no parameters",
            "instances": a_instances,
        }
    )
    catalogue.append(
        {
            "family": "b",
            "description": "bosonizations of M_L, L any multiset of odd l < n; no parameters",
            "instances": [
                {"L": list(L), "dimension": 4 ** len(L) * order}
                for L in enumerate_L(m, r_max)
            ],
        }
    )
    c_instances = []
    for I in enumerate_I(m, r_max):
        if len(I) == 1 and I[0][1] != n:
            continue  # family (a) covers these; nonzero data is guard-forbidden anyway
        c_instances.append(
            {
                "I": [list(p) for p in I],
                "dimension": 4 ** len(I) * order,
                "parameters": shape_json(I),
            }
        )
    catalogue.append(
        {
            "family": "c",
            "description": "A_I(lambda, gamma) with |I| > 1 or I = {(i,n)}",
            "instances": c_instances,
        }
    )
    catalogue.append(
        {
            "family": "d",
            "description": "B_{I,L}(lambda, gamma, theta, mu) with (I, L) in the K-family",
            "instances": [
                {
                    "I": [list(p) for p in I],
                    "L": list(L),
                    "dimension": 4 ** (len(I) + len(L)) * order,
                    "parameters": shape_json(I, L),
                }
                for I, L in enumerate_K(m, r_max)
            ],
        }
    )
    return catalogue
