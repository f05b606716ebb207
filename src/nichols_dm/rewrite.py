"""Diamond-lemma verifier: confluent rewriting, dimension, Hopf checks.

Monomials are pairs (w, gamma): w a word in the skew-primitive letters,
gamma an element of D_m.  Multiplication moves group elements to the
right by the letters' rules g v g^-1 = partner(v), h v h^-1 = w^e v.
Rewrite rules have pure skew-word left-hand sides and strictly
deglex-smaller right-hand sides under the declared generator precedence,
so reduction terminates.  reduce, the only reduction, rewrites the
leftmost redex of every term in rounds, with no cache: it is linear, and
the strategy fixes the normal form of each monomial, confluent or not.
By Bergman's diamond lemma, once every ambiguity reduces to zero the
irreducible monomials form a basis, and their count, taken on the graph
of their last letters (_count_normal_words) and never by listing them,
certifies the dimension; normal_basis lists them where a caller wants
the words.

compile() is a check, not a completion.  Each relation, reduced by the
rules before it, becomes one rule, and one that reduces to zero adds
none.  compile() then checks that no left-hand side contains another, so
that the only ambiguities are overlaps, which _ambiguities finds through an
index of left-hand-side prefixes, and that every overlap resolves.  A
failed check raises CompletionError naming the pair or the ambiguity; no
rule is ever added to mend it.  _add_rule, the only writer of the rules,
also keeps lhs_lengths, the index that redex search and the count read.

A family relation is read from its integers (_family_rule), not
multiplied out, reduced and oriented: x_a x_b + x_b x_a (a != b) or x_a x_a,
each coefficient the shared 1, equal to nothing or to v - v h^e with v != 0
and e != 0 (mod m).  While every left side has length 2 and neither word is
one, reduce's redex test fails on both words and on the group terms, so
reduce would return the element unchanged; that is the guard.  The rule is
x_max x_min -> -x_min x_max + v - v h^e (no q-term when a = b), each
distinct scalar signed once.  Any other relation takes the general route.

Every rule of a family presentation reads x_a x_b -> q_ab x_b x_a + T_ab
with a >= b, the q-term at the identity group element (absent when
a = b; put q_aa = 0) and T_ab in kD_m.  When all rules have that shape and
the rule (a, c) exists, the residue of the overlap x_a x_b x_c
(a >= b >= c) is written down instead of reduced:

    q_ab q_ac (T_bc x_a) + q_ab (x_b T_ac) + T_ab x_c
      - q_bc q_ac (x_c T_ab) - q_bc (T_ac x_b) - x_a T_bc,

where x_d T = sum c_gamma x_d gamma, and T x_d moves x_d left past each
gamma as conj_word does.  The degree-3 parts q_ab q_ac q_bc x_c x_b x_a of
both sides cancel.  It follows reduce's leftmost-redex order, so it
equals reducing both sides.  _add_rule records each rule's (q, T) split
in _quadratic; with any other rule present (a hand-built rule, say)
every overlap takes the general reduction.  _settle sums this residue and
_skew_primitive_residue's: each term is s c w^e, c normalised to a sign
(1 for a root), so terms cancel as counts on (monomial, c, e mod m/2)
without a scalar product: on a family, the Andruskiewitsch-Schneider
condition chi_b chi_c(g_a) = 1 for T_bc != 0.

compile forms no residue at all when three conditions hold: every pair
a >= b of the n letters has its rule, every q_ab with a > b is exactly -1,
and every group element of every tail is a rotation r^e with
e h_exp(d) = 0 (mod m) for every letter d.  Then T x_d = x_d T, and the
residue above is

    (q_ab q_ac - 1) x_a T_bc + (q_ab - q_bc) x_b T_ac + (1 - q_bc q_ac) x_c T_ab,

which vanishes: for a > b > c each coefficient is 0; for a = b (T_ac =
T_bc) and for b = c (T_ab = T_ac) the two terms left cancel; for
a = b = c it is -1 + 1.  So the C(n+2, 3) overlaps are counted, not
formed (_commuting_overlaps); the Andruskiewitsch-Schneider condition
gives this shape to the family presentations.  Any other system, or a
budget below the count, takes the sweep, which reports as before.

hopf_check(R) checks Delta, the counit and the antipode S on the element
of each relation that compile kept, in T(V)#kD_m, the monomial model
without rewriting; each of them reduces to zero in R.  Delta(v) =
v (x) 1 + h^cop_exp(v) (x) v on a letter and Delta(gamma) = gamma (x) gamma.
S of a monomial is written in closed form on integer exponents of w and
of the int code of D_m, one scalar product per term.  S is
antimultiplicative on the model when the letters form a Yetter-Drinfeld
module, which hopf_check checks letter by letter.

The coproduct of a relation like r = x_a x_b - q x_b x_a - T with T in
kD_m needs no reduction.  Write r = r_2 + r_1 + r_0 by word length,
and let every term c (x_a x_b, gamma) of r_2 sit at one gamma0 with one
coproduct degree c_a + c_b = c (c_v = cop_exp(v), h_v = h_exp(v)); put
G = h^c gamma0.  Expanding Delta over the letters, Delta(x_a x_b, gamma) is

    (x_a x_b, gamma) (x) gamma + (h^c gamma) (x) (x_a x_b, gamma)
      + (x_a, h^c_b gamma) (x) (x_b, gamma)
      + w^(h_b c_a) (x_b, h^c_a gamma) (x) (x_a, gamma),

so in T(V)#kD_m, Delta(r) - r (x) gamma0 - G (x) r is exactly the sum of

    the two cross terms above, for each term of r_2;
    (x_v, gamma) (x) gamma + (h^c_v gamma) (x) (x_v, gamma)
      - (x_v, gamma) (x) gamma0 - G (x) (x_v, gamma), for each c (x_v, gamma) of r_1;
    gamma (x) gamma - gamma (x) gamma0 - G (x) gamma, for each c gamma of r_0,

each times its coefficient.  Every leg there is a letter or a group
element, which is normal while no rule has a left side shorter than 2.
compile has shown that r reduces to zero, so r (x) gamma0 + G (x) r does
too, and this tensor is the reduced Delta(r): the fully-left and
fully-right legs of r_2 are never reduced.  _skew_primitive_residue writes
it down, and hopf_check prints it.

When the tensor is zero, Delta(r) = r (x) gamma0 + G (x) r holds in
T(V)#kD_m.  If the letter metadata passes, the model is a Hopf algebra, so
eps(r) = 0 and S(r) = -G^-1 r gamma0^-1.  compile does not check that the
ideal is stable under the group, so left multiplication by G^-1 need not
keep r reducing to zero; but if G r G^-1 = r, then S(r) = -r G^-1 gamma0^-1,
which reduces to zero, since multiplying by a group element on the right
turns each rewrite into a rewrite.

A family relation is decided on integers (_family_relation_holds): r is
x_a x_b + x_b x_a (a != b) or x_a x_a, each coefficient 1 at the identity,
plus nothing or -v + v h^c with c = c_a + c_b != 0, so gamma0 = 1 and
G = h^c.  Mod m:

    h_b c_a = h_a c_b = m/2: the cross terms (x_a, h^c_b) (x) x_b and
      (x_b, h^c_a) (x) x_a carry 1 + w^(h_a c_b) and 1 + w^(h_b c_a), and
      the tail gives v h^c (x) 1 - v h^c (x) 1, so the tensor is zero;
    the counit of r is -v + v = 0;
    c (h_a + h_b) = 0: h^c fixes x_a x_b, x_b x_a and the tail, so S(r)
      reduces to zero.

When the metadata passes and the three hold, hopf_check forms nothing for
r.  Any other relation, and every relation when the metadata fails, has
its tensor written down and S(r) reduced.  A relation of another shape, or
a rule whose left side is shorter than 2, raises CompletionError naming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .cyclo import CycloNumber
from .dihedral import g_element, g_encode, g_inv, g_mul
from .errors import CompletionError, DomainError
from .lifting import Presentation, Relation

__all__ = [
    "RewriteSystem",
    "certificate_json",
    "compile",
    "dimension",
    "hopf_check",
    "normal_basis",
]

Word = tuple[int, ...]
Monomial = tuple[Word, int]  # (skew word, encoded group element eps*m + rot)
Element = dict  # Monomial -> CycloNumber


def _add(acc: dict, key, coeff: CycloNumber) -> None:
    """acc[key] += coeff, dropping the key when the sum is zero."""
    new = acc[key] + coeff if key in acc else coeff
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def _signed(coeff: CycloNumber) -> tuple[CycloNumber, int, int]:
    """(c, e, s) with coeff = s c w^e: c = 1 for a known root, else e = 0 and c leads positive."""
    e = coeff.root_exponent()
    if e is not None:
        return CycloNumber.one(coeff.m), e, 1
    return (-coeff, 0, -1) if next((x for x in coeff.num if x), 0) < 0 else (coeff, 0, 1)


def _settle(m: int, terms) -> dict:
    """Sum the terms (key, c, e, s), each s c w^e, per key; they cancel as counts first."""
    half, counts, out = (m // 2 if m % 2 == 0 else m), {}, {}
    for key, coeff, e, sign in terms:
        flip, e = divmod(e % m, half)  # w^(m/2) = -1 for even m
        counts.setdefault((key, e, coeff.num, coeff.den), [0, coeff])[0] += -sign if flip else sign
    for (key, e, _, _), (n, coeff) in counts.items():
        if n:
            _add(out, key, coeff * CycloNumber.root(m, e) * n)
    return out


@dataclass(frozen=True)
class CompletionCertificate:
    rule_count: int
    ambiguities_checked: int


class RewriteSystem:
    """A checked rewriting system for one presentation."""

    def __init__(self, presentation: Presentation):
        self.m = presentation.m
        self.letters = tuple(v.name for v in presentation.skew_generators)
        self.letter_index = {name: i for i, name in enumerate(self.letters)}
        self.partner = tuple(
            self.letter_index[v.partner] for v in presentation.skew_generators
        )
        self.h_exp = tuple(v.h_exp for v in presentation.skew_generators)
        self.cop_exp = tuple(v.cop_exp for v in presentation.skew_generators)
        self.rules: dict[Word, Element] = {}
        self.lhs_lengths: tuple[int, ...] = ()  # of the rules, longest first
        self.certificate: Optional[CompletionCertificate] = None
        self._quadratic: dict[Word, tuple] = {}  # (a, b) -> (q_ab or None, T_ab) per quadratic rule
        # (label, unreduced element) of each relation, kept by compile
        self.quadratic_relations: list[tuple[str, Element]] = []

    def conj_word(self, g: int, word: Word) -> tuple[int, Word]:
        """g . word = w^exp . word' . g; returns (exp, word')."""
        eps, rot = divmod(g, self.m)
        exp = 0
        out = []
        for letter in word:
            exp += self.h_exp[letter] * rot
            out.append(self.partner[letter] if eps else letter)
        return exp % self.m, tuple(out)

    # -- reduction ---------------------------------------------------------

    def _find_redex(self, word: Word):
        for pos in range(len(word)):
            for length in self.lhs_lengths:
                if pos + length <= len(word) and word[pos : pos + length] in self.rules:
                    return pos, word[pos : pos + length]
        return None

    def _apply_rule(self, word: Word, g: int, match):
        """The terms of (word, g) after one rewrite at match = (pos, lhs)."""
        pos, lhs = match
        prefix, suffix = word[:pos], word[pos + len(lhs) :]
        for (v, delta), c in self.rules[lhs].items():
            exp, moved = self.conj_word(delta, suffix)
            if exp:
                c = c * CycloNumber.root(self.m, exp)
            yield (prefix + v + moved, g_mul(self.m, delta, g)), c

    def reduce(self, el: Element) -> Element:
        """The normal form of el: each round rewrites the leftmost redex of every term."""
        out: Element = {}
        while el:
            rewritten: Element = {}
            for (word, g), coeff in el.items():
                match = self._find_redex(word)
                if match is None:
                    _add(out, (word, g), coeff)
                    continue
                for mono, c in self._apply_rule(word, g, match):
                    _add(rewritten, mono, coeff * c)
            el = rewritten
        return out

    # -- rule management ---------------------------------------------------

    def _lead_word(self, el: Element) -> Word:
        return max((word for word, _ in el), key=lambda w: (len(w), w))

    def _orient(self, el: Element) -> tuple[Word, Element]:
        lead = self._lead_word(el)
        if not lead:  # a relation inside kD_m; it says 1 = 0 only when it is one c gamma
            message = "1 = 0: the algebra is zero" if len(el) == 1 else (
                f"{_element_str(self, el)} = 0 in kD_m, which no word rule expresses")
            raise CompletionError(f"the relations give {message}", ambiguity=lead)
        lead_terms = {g: c for (w, g), c in el.items() if w == lead}
        if len(lead_terms) != 1:
            raise CompletionError(
                "leading word carries a non-invertible group combination; "
                "cannot orient as a word rewrite rule",
                ambiguity=(lead, tuple(sorted(lead_terms))),
            )
        (gamma, coeff), = lead_terms.items()
        rhs: Element = {}
        inv_gamma = g_inv(self.m, gamma)
        inv_coeff = coeff.inverse()
        for (w, g), c in el.items():
            if w == lead:
                continue
            # divide on the right by coeff * gamma
            _add(rhs, (w, g_mul(self.m, g, inv_gamma)), -(c * inv_coeff))
        return lead, rhs

    def _add_rule(self, lhs: Word, rhs: Element, split: Optional[tuple] = None) -> None:
        """Install the rule lhs -> rhs, with its _quadratic_split unless the caller has it."""
        self.rules[lhs] = rhs
        if split is None:
            split = _quadratic_split(lhs, rhs)
        if split is None:
            self._quadratic.pop(lhs, None)
        else:
            self._quadratic[lhs] = split
        if len(lhs) not in self.lhs_lengths:
            self.lhs_lengths = tuple(sorted({len(l) for l in self.rules}, reverse=True))


def _quadratic_split(lhs: Word, rhs: Element) -> Optional[tuple]:
    """(q, T) if the rule reads x_a x_b -> q x_b x_a + T with a >= b, T in kD_m; else None.

    q is _signed's (c, e, s) of the scalar, or None when the rule has no
    degree-2 term; T is a tuple of (group element, c, e, s), one per term.
    """
    if len(lhs) != 2 or lhs[0] < lhs[1]:
        return None
    q, tail = None, []
    for (word, g), coeff in rhs.items():
        if not word:
            tail.append((g, *_signed(coeff)))
        elif word == lhs[::-1] and g == 0:
            q = _signed(coeff)
        else:
            return None
    return q, tuple(tail)


def _relation_element(sys: RewriteSystem, rel: Relation) -> Element:
    """The relation as an element of the model: each term's names multiplied out on ints."""
    m = sys.m
    el: Element = {}
    for coeff, names in rel.lhs:
        g, exp, word = 0, 0, ()
        for name in names:
            if name == "g":
                g = g_mul(m, g, m)
            elif name == "h":
                g = g_mul(m, g, 1)
            else:
                e, moved = sys.conj_word(g, (sys.letter_index[name],))
                exp, word = exp + e, word + moved
        _add(el, (word, g), coeff * CycloNumber.root(m, exp) if exp % m else coeff)
    for coeff, (eps, rot) in rel.rhs:
        _add(el, ((), g_encode(m, eps, rot)), -coeff)
    return el


def _negation(scalars: dict, v: CycloNumber) -> tuple[CycloNumber, tuple]:
    """-v and _signed(-v), formed once per distinct v and kept in scalars."""
    key = (v.num, v.den)
    entry = scalars.get(key)
    if entry is None:
        neg = -v
        entry = scalars[key] = (neg, _signed(neg))
    return entry


def _family_rule(sys: RewriteSystem, rel: Relation, index: dict, scalars: dict):
    """(element, lhs, rhs, split) of a family relation, read from its integers; else None.

    Each is what _relation_element, reduce, _orient and _quadratic_split
    give, keys in the same order; the shape and the guard are in the module
    docstring.  index maps the letter names to their ints.
    """
    m, one = sys.m, CycloNumber.one(sys.m)
    words = [names for c, names in rel.lhs if c is one]
    if not words or len(words) != len(rel.lhs) or len(words[0]) != 2:
        return None
    x, y = words[0]
    a, b = index.get(x), index.get(y)
    if a is None or b is None or words != ([(x, y)] if x == y else [(x, y), (y, x)]):
        return None
    if sys.lhs_lengths not in ((), (2,)) or (a, b) in sys.rules or (b, a) in sys.rules:
        return None  # reduce would rewrite, or might
    lhs = (max(a, b), min(a, b))
    el, rhs, q, tail = {((a, b), 0): one}, {}, None, ()
    if a != b:
        minus_one, q = _negation(scalars, one)
        el[((b, a), 0)], rhs[((lhs[1], lhs[0]), 0)] = one, minus_one
    if rel.rhs:
        if len(rel.rhs) != 2:
            return None
        (v, g0), (nv, (eps, e)) = rel.rhs
        e = e % m
        if g0 != (0, 0) or eps != 0 or not e or v.m != m or not v:
            return None
        neg, s_neg = _negation(scalars, v)
        if nv != neg:
            return None
        pos, s_pos = _negation(scalars, nv)
        el[((), 0)], el[((), e)] = neg, pos
        rhs[((), 0)], rhs[((), e)] = pos, neg
        tail = ((0, *s_pos), (e, *s_neg))
    return el, lhs, rhs, (q, tail)


def _ambiguities(rules: dict) -> Iterator[tuple]:
    """Yield every overlap (l1 ends with the first c letters of l2); the rules are interreduced.

    Ordered by l1, then l2, in (length, word) order, then by c.  The
    candidates l2 for a suffix of l1 come from an index of proper prefixes.
    """
    words = sorted(rules, key=lambda w: (len(w), w))
    starting: dict[Word, list[tuple[int, Word]]] = {}  # proper prefix -> (rank, l2)
    for rank, l2 in enumerate(words):
        for c in range(1, len(l2)):
            starting.setdefault(l2[:c], []).append((rank, l2))
    for l1 in words:
        found = [
            (rank, c, l2)
            for c in range(1, len(l1))
            for rank, l2 in starting.get(l1[len(l1) - c :], ())
        ]
        yield from (("overlap", l1, l2, c) for _, c, l2 in sorted(found))


def _ambiguity_residue(sys: RewriteSystem, amb: tuple) -> Element:
    """The difference of the two reductions of the overlap word, in normal form.

    In closed form when every rule is quadratic and the rule (a, c) of the
    overlap x_a x_b x_c exists (see the module docstring).
    """
    _, l1, l2, c = amb
    if len(sys._quadratic) == len(sys.rules) and (l1[0], l2[1]) in sys._quadratic:
        return _quadratic_residue(sys, l1[0], l1[1], l2[1])
    word, residue = l1 + l2[c:], {}
    for mono, coeff in sys._apply_rule(word, 0, (0, l1)):
        _add(residue, mono, coeff)
    for mono, coeff in sys._apply_rule(word, 0, (len(l1) - c, l2)):
        _add(residue, mono, -coeff)
    return sys.reduce(residue)


def _quadratic_residue(sys: RewriteSystem, a: int, b: int, c: int) -> Element:
    """The residue of the overlap x_a x_b x_c of three quadratic rules.

    Only the terms whose tail T is nonempty are formed, so a homogeneous
    system gives {} without a scalar product.  _settle sums the terms.
    """
    quad = sys._quadratic
    (q_ab, t_ab), (q_bc, t_bc), (q_ac, t_ac) = quad[(a, b)], quad[(b, c)], quad[(a, c)]
    if not (t_ab or t_bc or t_ac):
        return {}
    one, terms = CycloNumber.one(sys.m), []
    for tail, d, qs, sign, letter_first in (
        (t_bc, a, (q_ab, q_ac), 1, False), (t_bc, a, (), -1, True),
        (t_ac, b, (q_ab,), 1, True), (t_ac, b, (q_bc,), -1, False),
        (t_ab, c, (), 1, False), (t_ab, c, (q_bc, q_ac), -1, True),
    ):
        if not tail or None in qs:
            continue
        scale, exp = one, 0
        for qc, qe, qsign in qs:
            scale, exp, sign = scale * qc, exp + qe, sign * qsign
        for g, coeff, e, s in tail:
            conj, moved = (0, (d,)) if letter_first else sys.conj_word(g, (d,))
            coeff = coeff if scale is one else coeff * scale
            terms.append(((moved, g), coeff, e + exp + conj, s * sign))
    return _settle(sys.m, terms)


def _commuting_overlaps(sys: RewriteSystem) -> Optional[int]:
    """The number of overlaps, when the identity of the module docstring makes each residue zero.

    None unless every pair a >= b has the rule x_a x_b -> -x_b x_a + T_ab
    (no q-term when a = b) and every group element of every tail is a
    rotation r^e with e h_exp(d) = 0 (mod m) for every letter d.
    """
    n, m = len(sys.letters), sys.m
    if not len(sys._quadratic) == len(sys.rules) == n * (n + 1) // 2:
        return None
    minus_one = (CycloNumber.one(m), m // 2, 1)  # _signed(-1)
    step = m // gcd(m, *sys.h_exp)  # r^e passes every letter iff step divides e
    for (a, b), (q, tail) in sys._quadratic.items():
        if q != (minus_one if a > b else None) or any(g >= m or g % step for g, *_ in tail):
            return None
    return n * (n + 1) * (n + 2) // 6


def _overlap_sweep(sys: RewriteSystem, overlap_budget: Optional[int]) -> int:
    """Reduce every overlap in _ambiguities' order; the number checked, or CompletionError."""
    checked = 0
    for amb in _ambiguities(sys.rules):
        checked += 1
        if overlap_budget is not None and checked > overlap_budget:
            raise CompletionError(f"overlap budget of {overlap_budget} exceeded; the overlap "
                                  "check did not finish", ambiguity=amb)
        residue = _ambiguity_residue(sys, amb)
        if residue:
            _, l1, l2, c = amb
            raise CompletionError(
                f"the overlap {_word_str(sys, l1 + l2[c:])} of {_word_str(sys, l1)} and "
                f"{_word_str(sys, l2)} leaves the residue {_element_str(sys, residue)}; "
                "the rules are not confluent",
                ambiguity=amb,
            )
    return checked


def _overlap_check(sys: RewriteSystem, overlap_budget: Optional[int]) -> int:
    """The number of overlaps, each resolving: counted when they commute, else swept."""
    checked = _commuting_overlaps(sys)
    if checked is None or (overlap_budget is not None and checked > overlap_budget):
        checked = _overlap_sweep(sys, overlap_budget)
    return checked


def compile(P: Presentation, overlap_budget: Optional[int] = None) -> RewriteSystem:
    """Orient each relation once and check the result: a check, not completion.

    Each relation, reduced by the rules before it, becomes one rule or
    none.  Then no left-hand side may contain another, and every overlap
    must resolve: they are counted, not formed, under the three
    conditions of the module docstring when the budget allows the count.
    A failed check or a hit budget raises CompletionError; it is never
    silent.
    """
    if overlap_budget is not None and overlap_budget < 0:
        raise DomainError(f"overlap budget must be >= 0, got {overlap_budget}")
    sys = RewriteSystem(P)
    index = {name: i for name, i in sys.letter_index.items() if name not in ("g", "h")}
    scalars: dict = {}  # for _negation, in this call only
    for rel in P.relations:
        family = _family_rule(sys, rel, index, scalars)
        if family is not None:
            el, lhs, rhs, split = family
            sys.quadratic_relations.append((rel.label, el))
            sys._add_rule(lhs, rhs, split)
            continue
        scalars.clear()  # the general route may build a root, which _signed looks up
        el = _relation_element(sys, rel)
        sys.quadratic_relations.append((rel.label, el))
        el = sys.reduce(el)
        if el:
            sys._add_rule(*sys._orient(el))
    for lhs in sys.rules:
        for i, j in combinations(range(len(lhs) + 1), 2):
            inner = lhs[i:j]
            if inner != lhs and inner in sys.rules:
                raise CompletionError(
                    f"the left side {_word_str(sys, inner)} lies inside the left side "
                    f"{_word_str(sys, lhs)}; the rules are not interreduced",
                    ambiguity=(lhs, inner),
                )
    checked = _overlap_check(sys, overlap_budget)
    sys.certificate = CompletionCertificate(rule_count=len(sys.rules), ambiguities_checked=checked)
    return sys


@dataclass(frozen=True)
class NormalBasis:
    words: tuple[Word, ...]
    m: int

    @property
    def dimension(self) -> int:
        return len(self.words) * 2 * self.m


NORMAL_WORD_LIMIT = 1 << 20  # normal_basis lists at most this many words


# read by bench/tracing.py; goes with ROADMAP item 2
def normal_basis(R: RewriteSystem) -> NormalBasis:
    """List all irreducible words; raises once more than NORMAL_WORD_LIMIT are listed.

    Hitting the limit says nothing about finiteness: the dimension is then
    simply not determined.  dimension and certificate_json count the words
    instead, with no limit.
    """
    if R.certificate is None:
        raise CompletionError("rewriting system is not certified confluent")
    words: list[Word] = []

    def extend(word: Word):
        words.append(word)
        if len(words) > NORMAL_WORD_LIMIT:
            raise CompletionError(
                f"listing normal words hit its limit of {NORMAL_WORD_LIMIT} words; "
                "the dimension was not determined"
            )
        for letter in range(len(R.letters)):
            new = word + (letter,)
            # an irreducible word extends to a reducible one only at a suffix
            if not any(new[-L:] in R.rules for L in R.lhs_lengths):
                extend(new)

    extend(())
    return NormalBasis(tuple(words), R.m)


class DimensionResult(NamedTuple):
    dimension: int
    certificate: CompletionCertificate


def _count_normal_words(R: RewriteSystem) -> int:
    """The number of irreducible words, counted on the graph of their tails.

    A state is the last max(lhs_lengths) - 1 letters of an irreducible
    word (all of it, if shorter), and it decides which letters may follow,
    by the suffix test of normal_basis.  So the words extending a word are
    counted by its state: one for the word, plus the counts of its allowed
    successors.  A state reached again while still on the path is a cycle
    whose letters repeat into irreducible words of every length, so the
    quotient is infinite-dimensional (Ufnarovskii).
    """
    if R.certificate is None:
        raise CompletionError("rewriting system is not certified confluent")
    rules, lengths = R.rules, R.lhs_lengths
    tail = max(lengths, default=1) - 1
    n = len(R.letters)
    counts: dict[Word, int] = {}
    depth = {(): 0}  # state -> its index on the path
    path = [[(), 0, 1, None]]  # [state, next letter to try, count so far, letter in]
    while True:
        frame = path[-1]
        state, letter, total, _ = frame
        if letter < n:
            frame[1] = letter + 1
            new = state + (letter,)
            if any(new[-L:] in rules for L in lengths):
                continue
            nxt = new[1:] if len(new) > tail else new
            if nxt in depth:
                steps = [f[3] for f in path[depth[nxt] + 1 :]] + [letter]
                cycle = tuple(R.letters[l] for l in steps)
                raise CompletionError(
                    f"the graph of normal words has the cycle {'*'.join(cycle)}, so "
                    "normal words of every length exist: the quotient is infinite-dimensional",
                    ambiguity=cycle,
                )
            if nxt in counts:
                frame[2] += counts[nxt]
            else:
                depth[nxt] = len(path)
                path.append([nxt, 0, 1, letter])
            continue
        path.pop()
        del depth[state]
        counts[state] = total
        if not path:
            return total
        path[-1][2] += total


def dimension(R: RewriteSystem) -> DimensionResult:
    """Dimension of the presented algebra, with the confluence certificate."""
    return DimensionResult(_count_normal_words(R) * 2 * R.m, R.certificate)


# -- Hopf structure checks ---------------------------------------------------

Tensor = dict  # (Monomial, Monomial) -> CycloNumber


def _antipode(R: RewriteSystem, el: Element) -> Element:
    """S(el) in the monomial model, not reduced.

    S(v) = -h^-cop_exp(v) v, S(gamma) = gamma^-1 and S(ab) = S(b) S(a), so
    S(v_1...v_k gamma) is the single monomial (-1)^k w^e gamma^-1 v_k'...v_1'
    h^-(cop_exp(v_1)+...+cop_exp(v_k)), each letter moved through the group
    element on its left as in conj_word.
    """
    m = R.m
    out: Element = {}
    for (word, g), coeff in el.items():
        g, exp, moved = g_inv(m, g), 0, []
        for v in reversed(word):
            exp += R.h_exp[v] * (g % m - R.cop_exp[v])
            moved.append(R.partner[v] if g >= m else v)
            g = g_mul(m, g, -R.cop_exp[v] % m)
        c = coeff * CycloNumber.root(m, exp) if exp % m else coeff
        _add(out, (tuple(moved), g), -c if len(word) % 2 else c)
    return out


@dataclass(frozen=True)
class HopfReport:
    delta_ok: bool
    counit_ok: bool
    antipode_ok: bool
    failures: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return self.delta_ok and self.counit_ok and self.antipode_ok


def _skew_primitive_residue(R: RewriteSystem, el: Element) -> Optional[Tensor]:
    """Delta(el) - el (x) gamma0 - G (x) el, written down; None for another shape.

    el must have words of length <= 2, its degree-2 terms at one group
    element gamma0 with one coproduct degree c, and G = h^c gamma0.  The
    tensor is in normal form when no rule has a left side shorter than 2,
    and it is the reduced Delta(el) when el also reduces to zero (see the
    module docstring).
    """
    m = R.m
    gamma0 = c = None
    for word, g in el:
        if len(word) > 2:
            return None
        if len(word) == 2:
            degree = (R.cop_exp[word[0]] + R.cop_exp[word[1]]) % m
            if gamma0 is None:
                gamma0, c = g, degree
            elif (g, degree) != (gamma0, c):
                return None
    if gamma0 is None:
        return None
    G = g_mul(m, c, gamma0)
    terms = []
    for (word, g), coeff in el.items():
        coeff, e, s = _signed(coeff)
        if len(word) == 2:
            a, b = word
            terms.append(((((a,), g_mul(m, R.cop_exp[b], g)), ((b,), g)), coeff, e, s))
            e_ba = e + R.h_exp[b] * R.cop_exp[a]
            terms.append(((((b,), g_mul(m, R.cop_exp[a], g)), ((a,), g)), coeff, e_ba, s))
        else:
            terms.append((((word, g), ((), g)), coeff, e, s))
            if word:
                terms.append(((((), g_mul(m, R.cop_exp[word[0]], g)), (word, g)), coeff, e, s))
            terms.append((((word, g), ((), gamma0)), coeff, e, -s))
            terms.append(((((), G), (word, g)), coeff, e, -s))
    return _settle(m, terms)


def _family_relation_holds(R: RewriteSystem, el: Element) -> bool:
    """True when el is a family relation whose three congruences hold; False declines.

    The shape and the congruences are those of the module docstring.
    False says nothing about el: hopf_check then writes its checks down.
    """
    m, h, cop = R.m, R.h_exp, R.cop_exp
    # _relation_element and _family_rule, the two writers of el, put its first word first
    word = next(iter(el), ((), 0))[0]
    if len(word) != 2:
        return False
    a, b = word
    one = CycloNumber.one(m)
    if el.get((word, 0)) != one or el.get(((b, a), 0)) != one:
        return False
    c = (cop[a] + cop[b]) % m
    tail = len(el) - (1 if a == b else 2)  # the terms not yet read
    if tail:
        u, v = el.get(((), 0)), el.get(((), c))
        if tail != 2 or not c or u is None or v is None or v != -u:
            return False
    return (m % 2 == 0 and h[b] * cop[a] % m == h[a] * cop[b] % m == m // 2
            and c * (h[a] + h[b]) % m == 0)


def hopf_check(R: RewriteSystem) -> HopfReport:
    """Verify that Delta, the counit and the antipode descend to the quotient.

    Reads the element of each relation that compile kept, each reducing to
    zero in R.  When the letter metadata passes, a family relation whose
    three congruences hold needs nothing more (module docstring).  Any
    other relation of words of length <= 2, whose degree-2 terms share one
    group element and one coproduct degree, has Delta written down
    (_skew_primitive_residue) and S reduced; the counit kills every letter
    and sends each group element to 1.  A rule whose left side is shorter
    than 2, or a relation of another shape, raises CompletionError naming
    it.
    """
    if R.certificate is None:
        raise CompletionError("hopf_check needs a certified system")
    for lhs in R.rules:
        if len(lhs) < 2:
            raise CompletionError(
                f"the left side {_word_str(R, lhs)} of a rule is shorter than 2, so hopf_check "
                "cannot write the coproduct of a relation down in normal form",
                ambiguity=lhs,
            )
    # S(ab) = S(b) S(a) in the model iff g swaps each letter with one of opposite degree
    metadata = [
        name
        for v, name in enumerate(R.letters)
        if R.partner[R.partner[v]] != v or (R.cop_exp[R.partner[v]] + R.cop_exp[v]) % R.m
    ]
    deltas, counits, antipodes = [], [], []
    for label, el in R.quadratic_relations:
        if not metadata and _family_relation_holds(R, el):
            continue
        residue = _skew_primitive_residue(R, el)
        if residue is None:
            raise CompletionError(
                f"the relation {label} is not of the shape hopf_check writes down: words of "
                "length <= 2, the degree-2 terms at one group element and one coproduct degree",
                ambiguity=label,
            )
        if residue:
            deltas.append(f"delta:{label}:{_tensor_str(R, residue)}")
        counit = sum((c for (word, _), c in el.items() if not word), CycloNumber.zero(R.m))
        if counit:
            counits.append(f"counit:{label}:{counit}")
        image = R.reduce(_antipode(R, el))
        if image:
            antipodes.append(f"antipode:{label}:{_element_str(R, image)}")
    antipodes.extend(f"antipode:metadata:{name}" for name in metadata)
    return HopfReport(not deltas, not counits, not antipodes, tuple(deltas + counits + antipodes))


def _word_str(R: RewriteSystem, word: Word) -> str:
    return "*".join(R.letters[l] for l in word)


def _element_str(R: RewriteSystem, el: Element) -> str:
    parts = []
    for (word, g), coeff in sorted(el.items()):
        name = _word_str(R, word) or "1"
        parts.append(f"({coeff})*{name}*{g_element(R.m, g)}")
    return " + ".join(parts)


def _tensor_str(R: RewriteSystem, t: Tensor) -> str:
    parts = []
    for (m1, m2), coeff in sorted(t.items()):
        parts.append(f"({coeff})*[{m1}(x){m2}]")
    return " + ".join(parts)


def certificate_json(R: RewriteSystem) -> dict:
    """Serializable confluence certificate: rules, counts, dimension."""
    from .cyclo import format_scalar

    words = _count_normal_words(R)
    rules, texts = [], {}  # texts: (num, den) -> format_scalar's text, once per coefficient
    for lhs in sorted(R.rules, key=lambda w: (len(w), w)):
        rhs = []
        for (word, g), coeff in sorted(R.rules[lhs].items()):
            text = texts.get((coeff.num, coeff.den))
            if text is None:
                text = texts[coeff.num, coeff.den] = format_scalar(coeff)
            rhs.append([text, [R.letters[l] for l in word], [g // R.m, g % R.m]])
        rules.append({"lhs": [R.letters[l] for l in lhs], "rhs": rhs})
    cert = R.certificate
    return {
        "m": R.m,
        "letters": list(R.letters),
        "rules": rules,
        "rule_count": cert.rule_count,
        "ambiguities_checked": cert.ambiguities_checked,
        "all_resolved": True,  # read by bench/checks.py; goes with ROADMAP item 2
        "normal_words": words,
        "dimension": words * 2 * R.m,
    }
