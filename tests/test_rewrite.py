import dataclasses
import functools
import itertools
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nichols_dm.cyclo import CycloNumber, parse_scalar
from nichols_dm.dihedral import DihedralGroup, GroupElement, g_element, g_encode, g_inv, g_mul
from nichols_dm import rewrite
from nichols_dm.errors import CompletionError, DomainError
from nichols_dm.lifting import (
    FAMILIES,
    LiftingDatum,
    Relation,
    _build,
    family_members,
    family_presentation,
    presentation_A,
    presentation_B,
    presentation_L,
)
from nichols_dm.rewrite import (
    CompletionCertificate,
    certificate_json,
    compile,
    dimension,
    hopf_check,
    normal_basis,
)

from oracles import delta, general_hopf_check, monomial, skew_primitives


# -- reference products and reductions ----------------------------------------


def el_add(a, b, scale=None):
    """a + scale * b in the monomial model (scale 1 when None)."""
    out = dict(a)
    for mono, coeff in b.items():
        rewrite._add(out, mono, coeff if scale is None else coeff * scale)
    return out


def el_mul(R, a, b):
    """The product of two elements of the monomial model, term by term."""
    out = {}
    for (w1, g1), c1 in a.items():
        for (w2, g2), c2 in b.items():
            exp, moved = R.conj_word(g1, w2)
            coeff = c1 * c2
            if exp:
                coeff = coeff * CycloNumber.root(R.m, exp)
            rewrite._add(out, (w1 + moved, g_mul(R.m, g1, g2)), coeff)
    return out


def _find_redex(R, word, rightmost):
    positions = range(len(word))
    if rightmost:
        positions = reversed(positions)
    for pos in positions:
        for length in R.lhs_lengths:
            if pos + length <= len(word) and word[pos : pos + length] in R.rules:
                return pos, word[pos : pos + length]
    return None


def reduce_with_strategy(R, el, rightmost):
    """Uncached single-strategy reduction; used to cross-check confluence."""
    out = {}
    work = list(el.items())
    while work:
        (word, g), coeff = work.pop()
        if not coeff:
            continue
        match = _find_redex(R, word, rightmost)
        if match is None:
            rewrite._add(out, (word, g), coeff)
            continue
        work.extend((mono, coeff * c) for mono, c in R._apply_rule(word, g, match))
    return out


def reference_reduce(R, el):
    """Reduction through the memoised, recursive normal form of each monomial.

    The normal form of a monomial is itself when it is irreducible, and
    otherwise the normal forms of the terms that rewriting its leftmost
    redex gives; each is cached for the call.
    """
    cache = {}

    def normal_form(mono):
        if mono in cache:
            return cache[mono]
        word, g = mono
        match = R._find_redex(word)
        if match is None:
            result = {mono: CycloNumber.one(R.m)}
        else:
            result = {}
            for new_mono, coeff in R._apply_rule(word, g, match):
                for m3, c3 in normal_form(new_mono).items():
                    rewrite._add(result, m3, coeff * c3)
        cache[mono] = result
        return result

    out = {}
    for mono, coeff in el.items():
        for m2, c2 in normal_form(mono).items():
            rewrite._add(out, m2, coeff * c2)
    return out


def group_algebra_presentation(m):
    """Just the group algebra of D_m (no skew-primitives); 2m normal words.

    No family has empty I and L, so the kind is set here.
    """
    return dataclasses.replace(_build(LiftingDatum.zero(m, (), ())), kind="group")


def test_group_algebra_alone():
    R = compile(group_algebra_presentation(12))
    dim, cert = dimension(R)
    assert dim == 24
    assert normal_basis(R).words == ((),)


def test_group_model_is_exact():
    # the int code of D_m that the monomial model uses is the group itself
    for m in range(3, 25):
        G = DihedralGroup(m)
        codes = {a: g_encode(m, a.eps, a.rot) for a in G.elements()}
        assert sorted(codes.values()) == list(range(2 * m))
        assert sorted(codes, key=codes.get) == sorted(codes)  # (eps, rot) order
        for a, ea in codes.items():
            assert g_element(m, ea) == a
            assert g_inv(m, ea) == codes[a.inverse()]
            for b, eb in codes.items():
                assert g_mul(m, ea, eb) == codes[a * b]


def test_compile_A16_rule_shape():
    # I = {(1,6)} at m = 12: the square rule carries the stored coefficient
    lam = CycloNumber.one(12)
    P = presentation_A(12, [(1, 6)], lam=1)
    R = compile(P)
    x = R.letter_index["x(1,6)"]
    rhs = R.rules[(x, x)]
    assert rhs == {
        ((), g_encode(12, 0, 0)): lam,
        ((), g_encode(12, 0, 2)): -lam,
    }


@pytest.mark.parametrize("lam", [0, 1, "w^2 - 1"])
def test_dimension_A16(lam):
    P = presentation_A(12, [(1, 6)], lam=lam)
    dim, cert = dimension(compile(P))
    assert dim == 96


def test_dimension_bosonization_23():
    P = presentation_A(12, [(2, 3)])
    assert dimension(compile(P)).dimension == 96


def test_dimension_B_family():
    for mu in (0, 1):
        P = presentation_B(12, [(2, 3)], [3], mu=mu)
        dim, cert = dimension(compile(P))
        assert dim == 384 == 16 * 24


def test_dimension_L_family():
    P = presentation_L(12, [1])
    assert dimension(compile(P)).dimension == 96
    P2 = presentation_L(12, [1, 5])
    assert dimension(compile(P2)).dimension == 384


def test_dimension_pair_A():
    P = presentation_A(12, [(1, 6), (5, 6)], lam=1, gamma={(1, 6, 5, 6): 1})
    dim, cert = dimension(compile(P))
    assert dim == 4**2 * 24 == 384


def test_reduction_strategy_independence():
    P = presentation_B(12, [(2, 9)], [3], theta=1)
    R = compile(P)
    rng = random.Random(7)
    letters = range(len(R.letters))
    for _ in range(40):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        g = rng.randrange(24)
        el = {(word, g): CycloNumber.one(12)}
        left = reduce_with_strategy(R, el, rightmost=False)
        right = reduce_with_strategy(R, el, rightmost=True)
        assert left == right == R.reduce(el)


def test_reduction_decreases_and_terminates():
    P = presentation_A(12, [(1, 6)], lam=1)
    R = compile(P)
    rng = random.Random(3)
    for _ in range(50):
        word = tuple(rng.choice([0, 1]) for _ in range(8))
        nf = R.reduce({(word, 0): CycloNumber.one(12)})
        for (w, _), _ in nf.items():
            assert R._find_redex(w) is None


def _clashing_system():
    """The A-system at m = 12 with the rules x*y -> 0 and x*x -> 1 put in by hand."""
    R = compile(presentation_A(12, [(1, 6)], lam=1))
    x = R.letter_index["x(1,6)"]
    y = R.letter_index["y(1,6)"]
    R._add_rule((x, y), {})
    R._add_rule((x, x), {((), g_encode(12, 0, 0)): CycloNumber.one(12)})
    return R


def test_inconsistent_system_adds_rules_loudly():
    # x*y = 0 clashes with x^2 = 1 on the overlap x*x*y, collapsing y;
    # the overlap check must see a nonzero residue
    R = _clashing_system()
    from nichols_dm.rewrite import _ambiguities, _ambiguity_residue

    residues = [
        _ambiguity_residue(R, amb) for amb in _ambiguities(R.rules)
    ]
    assert any(residues), "the deliberate clash must produce a nonzero residue"


def _with_extra_relations(P, drop_prefix, extra):
    """P without its relations labelled `drop_prefix...`, plus `extra` (coeff, word) sums = 0."""
    one = CycloNumber.one(P.m)
    kept = tuple(rel for rel in P.relations if not (drop_prefix and rel.label.startswith(drop_prefix)))
    added = tuple(
        Relation(f"extra:{n}", tuple((one, word) for word in words), ())
        for n, words in enumerate(extra)
    )
    return dataclasses.replace(P, relations=kept + added)


def test_a_left_side_inside_another_is_a_completion_error():
    # x = 0 on top of x^2 = 0, y^2 = 0, xy + yx = 0: the rule x lies inside
    # the rules x*x and y*x, and compile names the first such pair
    P = _with_extra_relations(presentation_A(12, [(1, 6)]), None, [[("x(1,6)",)]])
    with pytest.raises(CompletionError) as info:
        compile(P)
    assert str(info.value) == (
        "the left side x(1,6) lies inside the left side x(1,6)*x(1,6); "
        "the rules are not interreduced"
    )
    assert info.value.ambiguity == ((0, 0), (0,))


def test_a_nonzero_overlap_residue_is_a_completion_error():
    # xy = 0 and yx + x = 0 instead of xy + yx = 0: the overlap y*y*x
    # leaves the residue -x, which compile reports instead of adding a rule
    P = _with_extra_relations(
        presentation_A(12, [(1, 6)]),
        "quad:xy",
        [[("x(1,6)", "y(1,6)")], [("y(1,6)", "x(1,6)"), ("x(1,6)",)]],
    )
    with pytest.raises(CompletionError) as info:
        compile(P)
    assert str(info.value) == (
        "the overlap y(1,6)*y(1,6)*x(1,6) of y(1,6)*y(1,6) and y(1,6)*x(1,6) "
        "leaves the residue (-1)*x(1,6)*e; the rules are not confluent"
    )
    assert info.value.ambiguity == ("overlap", (1, 1), (1, 0), 1)


def _quadratic_families(m, values):
    """Every A-, L- and K-family of size <= 2 at m, the datum cycling through values."""
    from nichols_dm.classify import enumerate_I, enumerate_K, enumerate_L

    for n, I in enumerate(enumerate_I(m, 2)):
        value = values[n % len(values)]
        yield presentation_A(m, I, lam=value, gamma=value if len(I) > 1 else None)
    for L in enumerate_L(m, 2):
        yield presentation_L(m, L)
    for n, (I, L) in enumerate(enumerate_K(m, 2)):
        value = values[n % len(values)]
        yield presentation_B(m, I, L, lam=value, gamma=value if len(I) > 1 else None,
                             theta=value, mu=value)


def test_closed_form_residue_equals_the_reduction():
    # on every overlap x_a x_b x_c of the families, the closed form equals
    # nf(rhs(a,b) x_c) - nf(x_a rhs(b,c)), products taken by el_mul; the
    # data are zero, rational, a root and a binomial
    seen = set()  # (a > b, b > c) of overlaps with a nonzero tail
    for m in (12, 24, 36, 48):
        one = CycloNumber.one(m)
        for values in ((0,), ("3/2", "w^5", "w^2 - 1")):
            for P in _quadratic_families(m, values):
                R = compile(P)
                assert len(R._quadratic) == len(R.rules)
                for amb in rewrite._ambiguities(R.rules):
                    _, (a, b), (_, c), _ = amb
                    assert (a, c) in R._quadratic
                    general = R.reduce(el_mul(R, R.rules[(a, b)], {((c,), 0): one}))
                    for mono, coeff in R.reduce(el_mul(R, {((a,), 0): one}, R.rules[(b, c)])).items():
                        rewrite._add(general, mono, -coeff)
                    assert rewrite._quadratic_residue(R, a, b, c) == general, (P.I, P.L, amb)
                    assert rewrite._ambiguity_residue(R, amb) == general
                    if any(R._quadratic[key][1] for key in ((a, b), (b, c), (a, c))):
                        seen.add((a > b, b > c))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((12, 24, 7, 15)), st.data())
def test_settle_equals_the_naive_sum(m, data):
    # random terms s c w^e with repeated keys, c and -c, e in 0..2m and some
    # pairs that cancel; passed as drawn and through _signed
    one, w = CycloNumber.one(m), CycloNumber.root(m, 1)
    base = [one, CycloNumber.from_rational(m, Fraction(3, 2)), w - one, w * w * 2 + one, w]
    coeffs = base + [-c for c in base]
    keys = [((0,), 0), ((1,), 3), ((), 5)]
    term = st.tuples(st.sampled_from(keys), st.sampled_from(coeffs),
                     st.integers(0, 2 * m), st.sampled_from((1, -1)))
    terms = data.draw(st.lists(term, max_size=10))
    partners = st.lists(st.sampled_from(terms), max_size=4) if terms else st.just([])
    for key, c, e, s in data.draw(partners):
        # a cancelling partner: -c w^e, or c w^(e + m/2) for even m
        half = m % 2 == 0 and data.draw(st.booleans())
        terms.append((key, c, e + m // 2, s) if half else (key, -c, e + m, s))
    naive = {}
    for key, c, e, s in terms:
        rewrite._add(naive, key, c * CycloNumber.root(m, e) * s)
    assert rewrite._settle(m, terms) == naive
    signed = []
    for key, c, e, s in terms:
        c, e0, s0 = rewrite._signed(c)
        signed.append((key, c, e + e0, s * s0))
    assert rewrite._settle(m, signed) == naive


def _corrupted_tailed_systems(m):
    """Systems of tailed families at m with one rule corrupted, by kind of corruption.

    The corruptions: one tail coefficient changed; q replaced by 2 and by
    w^e (1 + w), which are not roots; a tail entry w^(n+1) h^(n+1), n = m/2.
    """
    one, n = CycloNumber.one(m), m // 2
    not_roots = (one + one, CycloNumber.root(m, n + 1) * (one + CycloNumber.root(m, 1)))
    for P in itertools.islice(_quadratic_families(m, ("3/2", "w^5", "w^2 - 1", "-w^3")), 0, None, 7):
        R = compile(P)
        tailed = [lhs for lhs, (_, tail) in R._quadratic.items() if tail]
        skewed = [lhs for lhs, (q, _) in R._quadratic.items() if q is not None]
        if not tailed or not skewed:
            continue
        lhs = tailed[len(tailed) // 2]
        rhs = dict(R.rules[lhs])
        mono = next(mono for mono in rhs if not mono[0])
        rhs[mono] = rhs[mono] * 3
        yield "coefficient", R, lhs, rhs
        lhs = skewed[len(skewed) // 2]
        for q in not_roots:
            yield "q", R, lhs, {**R.rules[lhs], (lhs[::-1], 0): q}
        lhs = tailed[0]
        yield "tail", R, lhs, {**R.rules[lhs], ((), n + 1): CycloNumber.root(m, n + 1)}


@pytest.mark.parametrize("m", [12, 24, 36, 48])
def test_closed_form_residue_equals_the_reduction_on_corrupted_systems(m):
    # the oracle above on residues that need not vanish: every overlap of a
    # tailed family with one rule corrupted against the two-sided reduction
    one = CycloNumber.one(m)
    nonzero = dict.fromkeys(("coefficient", "q", "tail"), 0)
    for kind, R, lhs, rhs in _corrupted_tailed_systems(m):
        R._add_rule(lhs, rhs)
        assert len(R._quadratic) == len(R.rules)
        for amb in rewrite._ambiguities(R.rules):
            _, (a, b), (_, c), _ = amb
            general = R.reduce(el_mul(R, R.rules[(a, b)], {((c,), 0): one}))
            for mono, coeff in R.reduce(el_mul(R, {((a,), 0): one}, R.rules[(b, c)])).items():
                rewrite._add(general, mono, -coeff)
            assert rewrite._ambiguity_residue(R, amb) == general, (kind, amb)
            nonzero[kind] += bool(general)
    # a scaled tail coefficient keeps every residue zero: each tail entry
    # cancels on its own where the group element passes the letters
    assert nonzero["coefficient"] == 0 and nonzero["q"] and nonzero["tail"], nonzero


def _outcome(check, R):
    """check(R, None), or the message and ambiguity of the CompletionError it raises."""
    try:
        return check(R, None)
    except CompletionError as exc:
        return str(exc), exc.ambiguity


@pytest.mark.parametrize("m", [12, 24, 36, 48])
def test_counted_overlaps_agree_with_the_sweep(m):
    # where every q is -1 and every tail commutes with every letter, the
    # overlaps are counted, and the sweep certifies the same count; elsewhere
    # the check raises what the sweep raises, in message and in ambiguity
    counted = dict.fromkeys(("family", "coefficient", "q", "tail"), 0)

    def agree(kind, R):
        sweep = _outcome(rewrite._overlap_sweep, R)
        count = rewrite._commuting_overlaps(R)
        assert count in (None, sweep), (kind, count, sweep)
        assert _outcome(rewrite._overlap_check, R) == sweep, kind
        counted[kind] += count is not None

    families = 0
    for values in ((0,), ("3/2", "w^5", "w^2 - 1")):
        for P in _quadratic_families(m, values):
            R = compile(P)
            assert R.certificate.ambiguities_checked == rewrite._overlap_sweep(R, None)
            agree("family", R)
            families += 1
    for kind, R, lhs, rhs in _corrupted_tailed_systems(m):
        R._add_rule(lhs, rhs)
        agree(kind, R)
    # a scaled tail coefficient still commutes; no q of 2 or w^e (1 + w), and
    # no tail entry w^(n+1) h^(n+1), does
    assert counted["family"] == families and counted["coefficient"], counted
    assert counted["q"] == counted["tail"] == 0, counted


def test_a_q_of_plus_one_is_swept():
    # q = 1 is a root, which the q-corruptions above (non-roots) do not
    # cover: every tail still commutes, but the identity needs every q = -1
    m = 12
    R = compile(presentation_A(m, [(1, 6), (5, 6)], lam=1))
    assert (R.letters[2], R.letters[0]) == ("x(5,6)", "x(1,6)")
    R._add_rule((2, 0), {**R.rules[(2, 0)], ((0, 2), 0): CycloNumber.one(m)})
    assert (2, 0) in R._quadratic
    assert rewrite._commuting_overlaps(R) is None
    with pytest.raises(CompletionError) as info:
        rewrite._overlap_check(R, None)
    assert (str(info.value), info.value.ambiguity) == (
        "the overlap x(5,6)*x(1,6)*x(1,6) of x(5,6)*x(1,6) and x(1,6)*x(1,6) leaves the "
        "residue (2)*x(1,6)*e + (-2)*x(1,6)*r^6; the rules are not confluent",
        ("overlap", (2, 0), (0, 0), 1),
    )


def _every_family(m):
    """Families a-d up to size 2 at m, with the zero datum and the data 1 and w^3 - 2 broadcast."""
    names = {"a": (), "b": (), "c": ("lam", "gamma"), "d": ("lam", "gamma", "theta", "mu")}
    for family in FAMILIES:
        for I, L in family_members(m, family, 2):
            for value in (None, 1, "w^3 - 2") if names[family] else (None,):
                data = dict.fromkeys(names[family] if value is not None else (), value)
                yield family_presentation(m, family, I, L, **data)


@pytest.mark.parametrize("m", range(12, 49, 4))
def test_compile_counts_the_overlaps_of_every_family(monkeypatch, m):
    # families a-d up to size 2, zero and broadcast nonzero data: compile
    # reduces no overlap and counts C(n+2, 3) of them for n letters
    def residue(*args):
        raise AssertionError("an overlap was reduced")

    monkeypatch.setattr(rewrite, "_ambiguity_residue", residue)
    for P in _every_family(m):
        R = compile(P)
        n = len(R.letters)
        assert R.certificate.ambiguities_checked == n * (n + 1) * (n + 2) // 6


def _random_elements(R, rng, count):
    """count elements of up to 4 terms: words of up to 6 letters, any group element."""
    m = R.m
    coeffs = [CycloNumber.one(m), CycloNumber.from_rational(m, Fraction(3, 2)),
              CycloNumber.root(m, 5), CycloNumber.root(m, 2) - CycloNumber.one(m)]
    letters = range(len(R.letters))
    for _ in range(count):
        el = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            rewrite._add(el, (word, rng.randrange(2 * m)), rng.choice(coeffs))
        yield el


def test_reduce_equals_the_recursive_normal_form_on_families():
    rng = random.Random(24)
    for m in (12, 24):
        for values in ((0,), ("3/2", "w^5", "w^2 - 1")):
            for P in _quadratic_families(m, values):
                R = compile(P)
                for el in _random_elements(R, rng, 4):
                    assert R.reduce(el) == reference_reduce(R, el), (P.I, P.L, el)


def test_reduce_equals_the_recursive_normal_form_on_non_confluent_systems():
    # the strategy decides the normal form here: leftmost redex first
    rng = random.Random(25)
    systems = [_clashing_system()]
    for m in (12, 24):
        for _, R, lhs, rhs in _corrupted_tailed_systems(m):
            R._add_rule(lhs, rhs)
            systems.append(R)
    differ = 0
    for R in systems:
        for el in _random_elements(R, rng, 30):
            assert R.reduce(el) == reference_reduce(R, el), el
            differ += reduce_with_strategy(R, el, rightmost=True) != reference_reduce(R, el)
    assert differ


def _with_relation(P, label, lhs, rhs):
    """P with the relation labelled `label` replaced by lhs = rhs."""
    relations = tuple(
        dataclasses.replace(rel, lhs=lhs, rhs=rhs) if rel.label == label else rel
        for rel in P.relations
    )
    return dataclasses.replace(P, relations=relations)


def test_a_nonzero_closed_form_residue_is_pinned():
    # two corrupted A-presentations whose first failing overlap takes the
    # closed form: the rule x(5,6) x(1,6) -> 2 x(1,6) x(5,6) + ..., whose q
    # is not a root, and a tail -w^7 h^7 in place of -h^2
    m = 12
    one, w7 = CycloNumber.one(m), CycloNumber.root(m, 7)
    P = presentation_A(m, [(1, 6), (5, 6)], lam=1, gamma={(1, 6, 5, 6): 1})
    half = (one + one).inverse()
    cases = [
        (
            _with_relation(P, "quad:xx:x(1,6)|x(5,6)",
                           ((one, ("x(1,6)", "x(5,6)")), (-half, ("x(5,6)", "x(1,6)"))),
                           ((one, (0, 0)), (-one, (0, 6)))),
            "the overlap x(5,6)*x(1,6)*x(1,6) of x(5,6)*x(1,6) and x(1,6)*x(1,6) leaves the "
            "residue (-6)*x(1,6)*e + (6)*x(1,6)*r^6 + (3)*x(5,6)*e + (-3)*x(5,6)*r^2; "
            "the rules are not confluent",
            ("overlap", (2, 0), (0, 0), 1),
        ),
        (
            _with_relation(P, "quad:xx:x(1,6)|x(1,6)", ((one, ("x(1,6)", "x(1,6)")),),
                           ((one, (0, 0)), (-w7, (0, 7)))),
            "the overlap x(1,6)*x(1,6)*x(1,6) of x(1,6)*x(1,6) and x(1,6)*x(1,6) leaves the "
            "residue (-2*w)*x(1,6)*r^7; the rules are not confluent",
            ("overlap", (0, 0), (0, 0), 1),
        ),
    ]
    for P2, message, ambiguity in cases:
        with pytest.raises(CompletionError) as info:
            compile(P2)
        assert (str(info.value), info.value.ambiguity) == (message, ambiguity)


def test_other_rule_shapes_take_the_general_route(monkeypatch):
    # a rule x*y with x < y is not quadratic in the closed form's sense:
    # its overlaps reduce
    def closed_form(*args):
        raise AssertionError("closed form used on a non-quadratic system")

    R = compile(presentation_A(12, [(1, 6)], lam=1))
    monkeypatch.setattr(rewrite, "_quadratic_residue", closed_form)
    x, y = R.letter_index["x(1,6)"], R.letter_index["y(1,6)"]
    R._add_rule((x, y), {})
    assert (x, y) not in R._quadratic
    residues = [rewrite._ambiguity_residue(R, amb) for amb in rewrite._ambiguities(R.rules)]
    assert any(residues)


def test_a_rule_replaced_by_another_shape_drops_its_split():
    # x*x -> 1 - h^2 replaced by x*x -> y, which is no (q, T) rule: the
    # overlap x*x*x must take the reduction, not the closed form of the old rule
    one = CycloNumber.one(12)
    R = compile(presentation_A(12, [(1, 6)], lam=1))
    x, y = R.letter_index["x(1,6)"], R.letter_index["y(1,6)"]
    R._add_rule((x, x), {((y,), 0): one})
    assert (x, x) not in R._quadratic
    amb = ("overlap", (x, x), (x, x), 1)
    assert amb in rewrite._ambiguities(R.rules)
    general = R.reduce(el_mul(R, R.rules[(x, x)], {((x,), 0): one}))
    for mono, coeff in R.reduce(el_mul(R, {((x,), 0): one}, R.rules[(x, x)])).items():
        rewrite._add(general, mono, -coeff)
    residue = rewrite._ambiguity_residue(R, amb)
    assert residue == general
    assert rewrite._element_str(R, residue) == "(-2)*x(1,6)*y(1,6)*e"


def _assert_interreduced(R):
    for l1 in R.rules:
        for l2 in R.rules:
            if l1 != l2:
                assert all(l1[p : p + len(l2)] != l2 for p in range(len(l1))), (l1, l2)
    assert R.lhs_lengths == tuple(sorted({len(l) for l in R.rules}, reverse=True))


def test_rules_stay_interreduced():
    # every family up to size 2
    for P in _family_presentations(12, 2, (1,)):
        _assert_interreduced(compile(P))


def test_collapse_to_zero_is_a_completion_error():
    # the relation 1 = 0: no word rule expresses it, and compile says so
    # instead of installing a rule with an empty left side
    one = CycloNumber.one(12)
    P = presentation_A(12, [(1, 6)])
    P = dataclasses.replace(P, relations=P.relations + (Relation("extra:one", ((one, ()),), ()),))
    with pytest.raises(CompletionError, match="algebra is zero"):
        compile(P)


def test_a_relation_inside_the_group_algebra_is_named():
    # 1 - h^4 = 0 leaves a nonzero quotient, so compile names the element of
    # kD_m instead of saying 1 = 0; a single term 2 h^3 still says 1 = 0
    one = CycloNumber.one(12)
    P = presentation_A(12, [(1, 6)])
    cases = [
        (((one, ()), (-one, ("h",) * 4)),
         "the relations give (1)*1*e + (-1)*1*r^4 = 0 in kD_m, which no word rule expresses"),
        (((one + one, ("h",) * 3),), "the relations give 1 = 0: the algebra is zero"),
    ]
    for lhs, message in cases:
        extra = dataclasses.replace(P, relations=P.relations + (Relation("extra:group", lhs, ()),))
        with pytest.raises(CompletionError) as info:
            compile(extra)
        assert str(info.value) == message


def _printed_structural_relations(P):
    """The group:/comm: relations of P's JSON, parsed back into Relations."""
    out = []
    for rel in P.to_json_dict()["relations"]:
        if rel["label"].startswith(("group:", "comm:")):
            lhs = tuple((parse_scalar(P.m, c), tuple(word)) for c, word in rel["lhs_terms"])
            rhs = tuple((parse_scalar(P.m, c), tuple(g)) for c, g in rel["rhs_group_combo"])
            out.append(Relation(rel["label"], lhs, rhs))
    return out


def _assert_printed_structural_relations_vanish(P):
    """Each printed group/commutation relation is zero in the model of P's letters."""
    R = rewrite.RewriteSystem(P)
    relations = _printed_structural_relations(P)
    comm = [f"comm:{x}:{v.name}" for v in P.skew_generators for x in "gh"]
    assert [rel.label for rel in relations] == ["group:g2", "group:hm", "group:ghg"] + comm
    for rel in relations:
        assert rewrite._relation_element(R, rel) == {}, (P.I, P.L, rel.label)


@pytest.mark.parametrize("m", [12, 16, 20])
def test_printed_structural_relations_vanish_in_the_monomial_model(m):
    # families (a)-(d) up to size 2, with the zero datum and, for (c) and (d),
    # every free entry set to 1
    names = {"a": (), "b": (), "c": ("lam", "gamma"), "d": ("lam", "gamma", "theta", "mu")}
    for family in FAMILIES:
        for I, L in family_members(m, family, 2):
            _assert_printed_structural_relations_vanish(family_presentation(m, family, I, L))
            if names[family]:
                data = {name: 1 for name in names[family]}
                _assert_printed_structural_relations_vanish(
                    family_presentation(m, family, I, L, **data))


def _with_letter(P, name, **fields):
    """P with the metadata `fields` of its letter `name` replaced, relations kept."""
    gens = tuple(
        dataclasses.replace(v, **fields) if v.name == name else v
        for v in P.skew_generators
    )
    return dataclasses.replace(P, skew_generators=gens)


@pytest.mark.parametrize(
    "P",
    [presentation_A(12, [(1, 6)], lam=1), presentation_B(12, [(2, 3)], [3], mu=1)],
    ids=["A", "B"],
)
def test_printed_structural_relations_follow_edited_letters(P):
    # the group and commutation relations are read off the letters, so a
    # letter whose h-eigenvalue or g-partner is edited prints relations that
    # vanish in the model of the edited letters, not the stale ones
    for v in P.skew_generators:
        for shift in (1, 6):
            bad = _with_letter(P, v.name, h_exp=(v.h_exp + shift) % 12)
            _assert_printed_structural_relations_vanish(bad)
        _assert_printed_structural_relations_vanish(_with_letter(P, v.name, partner=v.name))


def test_normal_word_limit_is_not_a_finiteness_verdict(monkeypatch):
    # 4^2 normal words for I = {(1,6),(5,6)}; a limit of 10 stops the listing
    # but not the dimension, which counts the words without listing them
    R = compile(presentation_A(12, [(1, 6), (5, 6)]))
    assert len(normal_basis(R).words) == 16
    monkeypatch.setattr(rewrite, "NORMAL_WORD_LIMIT", 10)
    assert dimension(R).dimension == 16 * 24
    with pytest.raises(CompletionError) as exc:
        normal_basis(R)
    message = str(exc.value)
    assert message == (
        "listing normal words hit its limit of 10 words; the dimension was not determined"
    )
    assert "finite" not in message


def test_dimension_and_certificate_do_not_list_the_normal_basis(monkeypatch):
    R = compile(presentation_A(12, [(1, 6), (5, 6)]))

    def listing(_):
        raise AssertionError("normal_basis was called")

    monkeypatch.setattr(rewrite, "normal_basis", listing)
    assert dimension(R).dimension == 16 * 24
    data = certificate_json(R)
    assert (data["normal_words"], data["dimension"]) == (16, 16 * 24)


@pytest.mark.parametrize(
    "dropped, cycle",
    [
        ("quad:xx", "x(1,6)"),  # x^n is irreducible for every n
        ("quad:xy", "y(1,6)*x(1,6)"),  # so is x(yx)^n; the cycle closes at x
    ],
)
def test_infinite_quotient_raises_the_cycle(dropped, cycle):
    R = compile(_with_extra_relations(presentation_A(12, [(1, 6)]), dropped, []))
    for verdict in (dimension, certificate_json):
        with pytest.raises(CompletionError) as exc:
            verdict(R)
        message = str(exc.value)
        assert f"the cycle {cycle}," in message
        assert "infinite-dimensional" in message
        assert "limit" not in message and "budget" not in message
        assert "*".join(exc.value.ambiguity) == cycle


def test_count_does_not_recurse_along_a_normal_word():
    # a^N = 0 alone: the normal words 1, a, ..., a^(N-1) sit on one path of N states
    N = sys.getrecursionlimit() + 500
    R = SimpleNamespace(
        certificate=CompletionCertificate(1, 0),
        rules={(0,) * N: {}},
        lhs_lengths=(N,),
        letters=("a",),
    )
    assert rewrite._count_normal_words(R) == N


def test_count_requires_certificate():
    R = compile(presentation_A(12, [(1, 6)]))
    R.certificate = None
    for verdict in (dimension, certificate_json):
        with pytest.raises(CompletionError, match="not certified"):
            verdict(R)


def test_certificate_json_shape():
    P = presentation_A(12, [(1, 6)], lam=1)
    R = compile(P)
    data = certificate_json(R)
    assert data["dimension"] == 96
    assert data["normal_words"] == 4
    assert data["all_resolved"] is True
    assert all(len(rule["lhs"]) >= 1 for rule in data["rules"])


def test_hopf_check_A16():
    for lam in (0, 1, "1/2"):
        P = presentation_A(12, [(1, 6)], lam=lam)
        R = compile(P)
        report = hopf_check(R)
        assert report.all_ok, report.failures


def test_hopf_check_B():
    for mu in (0, 1):
        P = presentation_B(12, [(2, 3)], [3], mu=mu)
        report = hopf_check(compile(P))
        assert report.all_ok, report.failures


def _with_rhs(P, prefix, rhs):
    """P with the right-hand side of its relation labelled `prefix...` replaced."""
    relations = tuple(
        dataclasses.replace(rel, rhs=rhs) if rel.label.startswith(prefix) else rel
        for rel in P.relations
    )
    return dataclasses.replace(P, relations=relations)


def _integer_corrupted_presentations():
    # A = presentation_A(12, [(1, 6)], lam=1) with: the h-exponent of x(1,6)
    # shifted from 6 to 0; both terms of xy + yx scaled to 2; the tail of
    # x^2 = 1 - h^2 made 1 - 2h^2
    one = CycloNumber.one(12)
    A = presentation_A(12, [(1, 6)], lam=1)
    yield _with_letter(A, "x(1,6)", h_exp=0)
    yield dataclasses.replace(A, relations=tuple(
        dataclasses.replace(rel, lhs=tuple((one + one, word) for _, word in rel.lhs))
        if rel.label.startswith("quad:xy") else rel
        for rel in A.relations
    ))
    yield _with_rhs(A, "quad:xx", ((one, (0, 0)), (-(one + one), (0, 2))))


def test_hopf_check_reports_corrupted_relations():
    # each corrupted relation still compiles; the report is pinned line by line
    one = CycloNumber.one(12)
    A = presentation_A(12, [(1, 6)], lam=1)
    B = presentation_B(12, [(2, 3)], [3], theta=1)
    cases = [
        # x^2 = 1: Delta, the counit and S all fail
        (
            _with_rhs(A, "quad:xx", ((one, (0, 0)),)),
            (False, False, False, (
                "delta:quad:xx:x(1,6)|x(1,6):(1)*[((), 2)(x)((), 0)]",
                "counit:quad:xx:x(1,6)|x(1,6):-1",
                "antipode:quad:xx:x(1,6)|x(1,6):(-1)*1*e + (-1)*1*r^10",
            )),
        ),
        # x^2 = 1 - h^4 instead of 1 - h^2: the counit still vanishes
        (
            _with_rhs(A, "quad:xx", ((one, (0, 0)), (-one, (0, 4)))),
            (False, True, False, (
                "delta:quad:xx:x(1,6)|x(1,6):(1)*[((), 2)(x)((), 0)]"
                " + (-1)*[((), 2)(x)((), 4)] + (-1)*[((), 4)(x)((), 0)]"
                " + (1)*[((), 4)(x)((), 4)]",
                "antipode:quad:xx:x(1,6)|x(1,6):(-1)*1*e + (1)*1*r^2"
                " + (1)*1*r^8 + (-1)*1*r^10",
            )),
        ),
        # xz + zx = 1 in a B-type presentation: the z/w letters
        (
            _with_rhs(B, "quad:xz", ((one, (0, 0)),)),
            (False, False, False, (
                "delta:quad:xz:x(2,3)|z(3):(1)*[((), 8)(x)((), 0)]",
                "counit:quad:xz:x(2,3)|z(3):-1",
                "antipode:quad:xz:x(2,3)|z(3):(-1)*1*e + (-1)*1*r^4",
            )),
        ),
    ]
    # corruptions that break only a congruence or a coefficient of the
    # family shape, in the order of _integer_corrupted_presentations
    expected = [
        # h_exp(x) = 0 instead of 6: w^(h_x c_x) = 1 and w^(h_x c_y) = 1, not -1
        (False, True, False, (
            "delta:quad:xx:x(1,6)|x(1,6):(2)*[((0,), 1)(x)((0,), 0)]",
            "delta:quad:xy:x(1,6)|y(1,6):(2)*[((0,), 11)(x)((1,), 0)]",
            "antipode:quad:xx:x(1,6)|x(1,6):(-2)*1*e + (2)*1*r^10",
            "antipode:quad:xy:x(1,6)|y(1,6):(2)*x(1,6)*y(1,6)*e",
        )),
        # 2xy + 2yx = 0 is not of the family shape, but it holds
        (True, True, True, ()),
        # x^2 = 1 - 2h^2: the tail is -1 + 2h^2, not -v + v h^2
        (False, False, False, (
            "delta:quad:xx:x(1,6)|x(1,6):(-1)*[((), 2)(x)((), 0)]",
            "counit:quad:xx:x(1,6)|x(1,6):1",
            "antipode:quad:xx:x(1,6)|x(1,6):(1)*1*e + (1)*1*r^10",
        )),
    ]
    cases += zip(_integer_corrupted_presentations(), expected)
    for P, pinned in cases:
        report = hopf_check(compile(P))
        assert (report.delta_ok, report.counit_ok, report.antipode_ok, report.failures) == pinned
        assert report.all_ok == (not pinned[3])


def test_hopf_check_lists_failures_by_kind_then_by_relation():
    # every relation of a two-pair A-presentation fails Delta, the counit and
    # S; the delta lines come first, then the counit, then the antipode and
    # last the letters of inconsistent metadata, each kind in relation order
    one = CycloNumber.one(12)
    A = presentation_A(12, [(1, 6), (5, 6)], lam=1, gamma={(1, 6, 5, 6): 1})
    P = _with_rhs(A, "quad:", ((one, (0, 0)),))
    for P, metadata in ((P, ()), (_with_cop_exp(P, "y(1,6)", 5), ("x(1,6)", "y(1,6)"))):
        R = compile(P)
        labels = [label for label, _ in R.quadratic_relations]
        assert len(labels) == 10
        report = hopf_check(R)
        heads = [f"{kind}:{label}:" for kind in ("delta", "counit", "antipode") for label in labels]
        heads += [f"antipode:metadata:{name}" for name in metadata]
        assert (report.delta_ok, report.counit_ok, report.antipode_ok) == (False, False, False)
        assert len(report.failures) == len(heads)
        assert all(line.startswith(head) for line, head in zip(report.failures, heads)), report.failures


def test_hopf_check_of_another_presentation_is_pinned():
    # R is compiled from A, so the relations of the corrupted copy need not
    # reduce to zero in R; hopf_check reads only the relations R was compiled
    # from, and the oracle's general route reports Delta and S reduced term
    # by term
    one = CycloNumber.one(12)
    A = presentation_A(12, [(1, 6)], lam=1)
    R = compile(A)
    cases = [
        # x^2 = 1 against the rule x^2 -> 1 - h^2
        (
            ((one, (0, 0)),),
            (False, False, False, (
                "delta:quad:xx:x(1,6)|x(1,6):(-1)*[((), 2)(x)((), 2)]",
                "counit:quad:xx:x(1,6)|x(1,6):-1",
                "antipode:quad:xx:x(1,6)|x(1,6):(-1)*1*r^10",
            )),
        ),
        # x^2 = 1 - h^4
        (
            ((one, (0, 0)), (-one, (0, 4))),
            (False, True, False, (
                "delta:quad:xx:x(1,6)|x(1,6):(-1)*[((), 2)(x)((), 2)] + (1)*[((), 4)(x)((), 4)]",
                "antipode:quad:xx:x(1,6)|x(1,6):(1)*1*r^8 + (-1)*1*r^10",
            )),
        ),
        # x^2 = 0
        (
            (),
            (False, True, False, (
                "delta:quad:xx:x(1,6)|x(1,6):(1)*[((), 0)(x)((), 0)] + (-1)*[((), 2)(x)((), 2)]",
                "antipode:quad:xx:x(1,6)|x(1,6):(1)*1*e + (-1)*1*r^10",
            )),
        ),
    ]
    for rhs, expected in cases:
        report = general_hopf_check(_with_rhs(A, "quad:xx", rhs), R)
        assert (report.delta_ok, report.counit_ok, report.antipode_ok, report.failures) == expected


def test_skew_primitives_group_algebra():
    R = compile(group_algebra_presentation(12))
    for degree in (GroupElement(12, 0, 0), GroupElement(12, 0, 2), GroupElement(12, 1, 0)):
        assert skew_primitives(R, degree) == []


def test_skew_primitives_bosonization():
    P = presentation_A(12, [(2, 3)])
    R = compile(P)
    # degree h^2: exactly the line through x(2,3)
    sols = skew_primitives(R, GroupElement(12, 0, 2))
    assert len(sols) == 1
    (mono, coeff), = sols[0].items()
    assert mono == ((R.letter_index["x(2,3)"],), g_encode(12, 0, 0))
    # degree h^-2: the line through y(2,3)
    sols_y = skew_primitives(R, GroupElement(12, 0, 10))
    assert len(sols_y) == 1
    # identity degree: nothing
    assert skew_primitives(R, GroupElement(12, 0, 0)) == []


def test_skew_primitives_do_not_list_the_normal_basis(monkeypatch):
    # only words of length 1 and 2 enter, so the normal basis is never listed
    R = compile(presentation_A(12, [(1, 6), (5, 6)]))

    def refuse(*args, **kwargs):
        raise AssertionError("the normal basis was listed")

    monkeypatch.setattr(rewrite, "normal_basis", refuse)
    assert len(skew_primitives(R, GroupElement(12, 0, 1))) == 1


def test_skew_primitives_reject_a_degree_of_another_group():
    # r^13 of D_16 is not r^1 of D_12, whose line through x(1,6) it used to find
    R = compile(presentation_A(12, [(1, 6)]))
    with pytest.raises(DomainError, match="different dihedral groups"):
        skew_primitives(R, GroupElement(16, 0, 13))
    assert len(skew_primitives(R, GroupElement(12, 0, 1))) == 1


def test_skew_primitives_deformed():
    P = presentation_A(12, [(1, 6)], lam=1)
    R = compile(P)
    assert skew_primitives(R, GroupElement(12, 0, 0)) == []
    sols = skew_primitives(R, GroupElement(12, 0, 1))
    assert len(sols) == 1


def _smallest_members_with_unit_data(m):
    """The members of families a-d of least size at m, with the zero datum and
    with every free parameter entry set to 1 (family d has no member of size 1)."""
    from nichols_dm.lifting import free_parameter_keys

    names = {"lambda": "lam", "gamma": "gamma", "theta": "theta", "mu": "mu"}
    for family in FAMILIES:
        members = list(family_members(m, family, 1)) or list(family_members(m, family, 2))
        for I, L in members:
            unit = {}
            for name, key in free_parameter_keys(m, I, L):
                unit.setdefault(names[name], {})[key] = 1
            for datum in ({}, unit) if unit else ({},):
                yield family, family_presentation(m, family, I, L, **datum)


def test_skew_primitives_of_a_lifting_are_its_letters():
    # gr H = B(V)#kD_m for a lifting H, and a Nichols algebra has no
    # primitives above degree 1: on words of length <= 2 the skew-primitives
    # of degree g_a are spanned by the letters of degree g_a.  The oracle
    # reads the coproduct, not the list of relations, so dropping the
    # quadratic relation of x_a x_b leaves a length-2 skew-primitive at g_a g_b
    m, dropped = 12, 0
    for family, P in _smallest_members_with_unit_data(m):
        R = compile(P)
        for c in sorted(set(R.cop_exp)):
            letters = {((a,), 0) for a, e in enumerate(R.cop_exp) if e == c}
            sols = skew_primitives(R, GroupElement(m, 0, c))
            assert len(sols) == len(letters), (P.I, P.L, c, sols)
            assert all(set(vec) <= letters for vec in sols), (P.I, P.L, c, sols)
        if family == "d":  # a drop breaks an overlap in 12 of 40 cases; the rest take 2.6 s
            continue
        for i, rel in enumerate(P.relations):
            Q = dataclasses.replace(P, relations=P.relations[:i] + P.relations[i + 1 :])
            R2 = compile(Q)
            a, b = (R2.letter_index[name] for name in rel.lhs[0][1])
            sols = skew_primitives(R2, GroupElement(m, 0, R2.cop_exp[a] + R2.cop_exp[b]))
            assert any(len(word) == 2 for vec in sols for word, _ in vec), (P.I, P.L, rel.label)
            dropped += 1
    assert dropped == 3 * (4 + 3 + 3 * 2)


def test_anticommutator_is_skew_primitive_in_quotient():
    # for x = x_{p,q}, y = y_{i,k}: Delta(xy + yx) = (xy+yx) (x) 1 + h^{p-i} (x) (xy+yx)
    P = presentation_A(12, [(1, 6), (5, 6)], lam=0)
    R = compile(P)
    one = CycloNumber.one(12)
    x, y = R.letter_index["x(1,6)"], R.letter_index["y(5,6)"]
    alpha = el_add(R.reduce({((x, y), 0): one}), R.reduce({((y, x), 0): one}))
    t = delta(R, {((x, y), 0): one, ((y, x), 0): one})
    unit = ((), g_encode(12, 0, 0))
    grp = ((), g_encode(12, 0, 1 - 5))  # h^{p - i}
    for mono, coeff in alpha.items():
        rewrite._add(t, (mono, unit), -coeff)
        rewrite._add(t, (grp, mono), -coeff)
    assert not t


def test_antipode_formula():
    # S(x_{p,q}) = -h^{-p} x_{p,q}
    P = presentation_A(12, [(2, 3)])
    R = compile(P)
    from nichols_dm.rewrite import _antipode

    x = R.letter_index["x(2,3)"]
    el = R.reduce(_antipode(R, monomial(R, (x,))))
    ((word, g), coeff), = el.items()
    assert word == (x,)
    assert g == g_encode(12, 0, -2)
    assert coeff == -CycloNumber.root(12, (-2) * 3)  # twist from h^-2 x = w^{-2q} x h^-2


def test_normal_basis_requires_certificate():
    P = presentation_A(12, [(1, 6)])
    R = compile(P)
    R.certificate = None
    with pytest.raises(CompletionError):
        normal_basis(R)


def _family_presentations(m, r_max, data_values):
    """Every lifting family up to r_max, with each broadcast datum value."""
    from nichols_dm.classify import enumerate_I, enumerate_K, enumerate_L

    for I in enumerate_I(m, r_max):
        for value in data_values:
            yield presentation_A(m, I, lam=value, gamma=value if len(I) > 1 else None)
    for L in enumerate_L(m, r_max):
        yield presentation_L(m, L)
    for I, L in enumerate_K(m, r_max):
        for value in data_values:
            yield presentation_B(m, I, L, lam=value, gamma=value if len(I) > 1 else None,
                                 theta=value, mu=value)


@functools.lru_cache(maxsize=None)
def _families_up_to_3(m):
    return tuple(_family_presentations(m, 3, (0, 1)))


_FAMILY_MODULI = (12, 16, 20, 24)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FAMILY_MODULI), st.data())
def test_count_equals_listing(m, data):
    P = data.draw(st.sampled_from(_families_up_to_3(m)))
    R = compile(P)
    assert rewrite._count_normal_words(R) == len(normal_basis(R).words) == 4 ** (len(P.I) + len(P.L))


def _nested_loop_ambiguities(rules):
    """Every overlap, by pairing every rule with every rule: the index's reference."""
    words = sorted(rules, key=lambda w: (len(w), w))
    out = []
    for l1 in words:
        for l2 in words:
            for c in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - c :] == l2[:c]:
                    out.append(("overlap", l1, l2, c))
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FAMILY_MODULI), st.data())
def test_ambiguity_index_matches_nested_loop_on_families(m, data):
    R = compile(data.draw(st.sampled_from(_families_up_to_3(m))))
    assert list(rewrite._ambiguities(R.rules)) == _nested_loop_ambiguities(R.rules)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple), max_size=12))
def test_ambiguity_index_matches_nested_loop_on_word_sets(words):
    # left sides of several lengths, so overlaps of length c >= 2 occur
    rules = dict.fromkeys(words, {})
    assert list(rewrite._ambiguities(rules)) == _nested_loop_ambiguities(rules)


def _family_data(m, I, L, rng):
    """A nonzero value on every free parameter entry of (I, L), drawn by rng."""
    from nichols_dm.lifting import free_parameter_keys

    data = {"lam": {}, "gamma": {}, "theta": {}, "mu": {}}
    names = {"lambda": "lam", "gamma": "gamma", "theta": "theta", "mu": "mu"}
    for name, key in free_parameter_keys(m, I, L):
        data[names[name]][key] = rng.choice(("1", "3/2", "w^5", "w^2 - 1", "-w^3"))
    return data


def test_families_compile_one_rule_per_quadratic_relation():
    # every family a-d of size <= 3, zero data and nonzero data: no relation
    # reduces to zero or to another rule's left side, and every overlap resolves
    from nichols_dm.lifting import FAMILIES, family_members, family_presentation

    rng = random.Random(21)
    for m in (12, 16, 20):
        for family in FAMILIES:
            for I, L in family_members(m, family, 3):
                data = [{}]
                if family in "cd":
                    data.append(_family_data(m, I, L, rng))
                for datum in data:
                    P = family_presentation(m, family, I, L, **datum)
                    quadratic = sum(rel.label.startswith("quad:") for rel in P.relations)
                    cert = compile(P).certificate
                    assert cert.rule_count == quadratic, (m, family, I, L, datum)


def test_dimension_equality_across_families_m12():
    # certified dimension equals 4^(|I|+|L|) * 2m for every family instance
    for P in _family_presentations(12, 2, (0,)):
        dim, cert = dimension(compile(P))
        assert dim == 4 ** (len(P.I) + len(P.L)) * 24, (P.I, P.L)


@pytest.mark.parametrize("m", [12, 16])
def test_hopf_check_sweep(m):
    # all families with |I| + |L| <= 2, datum broadcast over {0, 1}
    for P in _family_presentations(m, 2, (0, 1)):
        R = compile(P)
        dim, _ = dimension(R)
        assert dim == 4 ** (len(P.I) + len(P.L)) * 2 * m
        report = hopf_check(R)
        assert report.all_ok, (P.I, P.L, report.failures)


# -- reference routes for the Hopf check -------------------------------------


def _stepwise_tensor_mul(R, t1, t2):
    """Product of two tensors, reducing both legs after every monomial product."""
    one = CycloNumber.one(R.m)
    out = {}
    for (a1, a2), c1 in t1.items():
        for (b1, b2), c2 in t2.items():
            leg1 = R.reduce(el_mul(R, {a1: one}, {b1: one}))
            leg2 = R.reduce(el_mul(R, {a2: one}, {b2: one}))
            for m1, d1 in leg1.items():
                for m2, d2 in leg2.items():
                    rewrite._add(out, (m1, m2), c1 * c2 * d1 * d2)
    return out


def _stepwise_delta(R, el):
    """Delta(el) through the stepwise-reducing product, letter by letter."""
    one = CycloNumber.one(R.m)
    unit = ((), g_encode(R.m, 0, 0))
    out = {}
    for (word, g), coeff in el.items():
        t = {(unit, unit): coeff}
        for v in word:
            vm = ((v,), g_encode(R.m, 0, 0))
            grp = ((), g_encode(R.m, 0, R.cop_exp[v]))
            t = _stepwise_tensor_mul(R, t, {(vm, unit): one, (grp, vm): one})
        gamma = ((), g)
        for key, c in _stepwise_tensor_mul(R, t, {(gamma, gamma): one}).items():
            rewrite._add(out, key, c)
    return out


def _reference_antipode(R, el):
    """S(el) in the model, as the product gamma^-1 S(v_k) ... S(v_1) of single terms."""
    minus_one = -CycloNumber.one(R.m)
    out = {}
    for (word, g), coeff in el.items():
        term = {((), g_inv(R.m, g)): coeff}
        for v in reversed(word):
            s_v = el_mul(R, {((), g_encode(R.m, 0, -R.cop_exp[v])): minus_one}, monomial(R, (v,)))
            term = el_mul(R, term, s_v)
        for mono, c in term.items():
            rewrite._add(out, mono, c)
    return out


def _reference_relation_element(R, rel):
    """The relation in the model, each term the product of its generators' monomials."""
    el = {}
    for coeff, word in rel.lhs:
        term = monomial(R, ())
        for name in word:
            if name == "g":
                factor = monomial(R, (), eps=1)
            elif name == "h":
                factor = monomial(R, (), rot=1)
            else:
                factor = monomial(R, (R.letter_index[name],))
            term = el_mul(R, term, factor)
        el = el_add(el, term, scale=coeff)
    for coeff, (eps, rot) in rel.rhs:
        rewrite._add(el, ((), g_encode(R.m, eps, rot)), -coeff)
    return el


def _pair_loop_fails(R):
    """Whether S(ab) = S(b) S(a) fails, through normal forms, on some generator pair."""
    gens = [monomial(R, (), eps=1), monomial(R, (), rot=1)] + [
        monomial(R, (v,)) for v in range(len(R.letters))
    ]
    for a in gens:
        for b in gens:
            lhs = _reference_antipode(R, R.reduce(el_mul(R, a, b)))
            rhs = el_mul(R, _reference_antipode(R, b), _reference_antipode(R, a))
            if el_add(R.reduce(lhs), R.reduce(rhs), scale=-CycloNumber.one(R.m)):
                return True
    return False


def _sweep_presentations():
    # every family up to size 2 at m = 12, 16, 20, data broadcast over {0, 1}
    for m in (12, 16, 20):
        yield from _family_presentations(m, 2, (0, 1))


def _with_cop_exp(P, name, cop_exp):
    """P with the coproduct degree of its letter `name` replaced."""
    return _with_letter(P, name, cop_exp=cop_exp)


def _corrupted_presentations():
    # the three corrupted relations of test_hopf_check_reports_corrupted_relations
    one = CycloNumber.one(12)
    A = presentation_A(12, [(1, 6)], lam=1)
    B = presentation_B(12, [(2, 3)], [3], theta=1)
    yield _with_rhs(A, "quad:xx", ((one, (0, 0)),))
    yield _with_rhs(A, "quad:xx", ((one, (0, 0)), (-one, (0, 4))))
    yield _with_rhs(B, "quad:xz", ((one, (0, 0)),))
    # every letter of an A- and a B-presentation given a wrong coproduct degree
    for P in (A, presentation_B(12, [(2, 3)], [3], mu=1), presentation_A(12, [(2, 3)])):
        for v in P.skew_generators:
            for shift in (1, 5, 6):
                yield _with_cop_exp(P, v.name, (v.cop_exp + shift) % 12)


def _words(n, k_max):
    """Every word of length <= k_max in the letters 0..n-1, shortest first."""
    return [w for k in range(k_max + 1) for w in itertools.product(range(n), repeat=k)]


def test_relation_element_and_antipode_match_the_products():
    # the closed forms against the products of single monomials they replace
    for P in itertools.chain(_sweep_presentations(), _corrupted_presentations()):
        R = rewrite.RewriteSystem(P)
        one = CycloNumber.one(R.m)
        for rel in P.relations:
            el = rewrite._relation_element(R, rel)
            assert el == _reference_relation_element(R, rel), (P.I, P.L, rel.label)
            assert rewrite._antipode(R, el) == _reference_antipode(R, el), (P.I, P.L, rel.label)
        names = ["g", "h"] + [v.name for v in P.skew_generators]
        for w in _words(len(names), 3):
            rel = Relation("word", ((one, tuple(names[i] for i in w)),), ())
            assert rewrite._relation_element(R, rel) == _reference_relation_element(R, rel), rel
        for word in _words(len(R.letters), 3):
            for g in (0, 1, R.m, 2 * R.m - 1):
                el = {(word, g): one}
                assert rewrite._antipode(R, el) == _reference_antipode(R, el), (P.I, P.L, word, g)


def test_delta_matches_stepwise_reduction():
    # reducing each leg once equals reducing after every product, because
    # reduction onto the normal words of a confluent system is an algebra map;
    # words of length 3 exercise the subset expansion past the relations' two letters
    for P in _sweep_presentations():
        R = compile(P)
        one = CycloNumber.one(R.m)
        elements = [rewrite._relation_element(R, rel) for rel in P.relations]
        words = _words(len(R.letters), 3 if R.m == 12 else 2)
        for g in (0, 1, R.m, 2 * R.m - 1):
            elements += [{(word, g): one} for word in words]
        for el in elements:
            assert delta(R, el) == _stepwise_delta(R, el), (P.I, P.L, el)


def test_generator_pair_failures_fail_the_antipode():
    cases = [(P, compile(P)) for P in _sweep_presentations()]
    cases += [(P, compile(P)) for P in _corrupted_presentations()]
    # a g-conjugation that is not an involution: x(1,6) and y(1,6) both go to y(1,6)
    P = presentation_A(12, [(1, 6)], lam=1)
    R = compile(P)
    R.partner = (1, 1)
    cases.append((P, R))
    failing = 0
    for P, R in cases:
        if _pair_loop_fails(R):
            failing += 1
            assert not hopf_check(R).antipode_ok, (P.I, P.L, R.cop_exp, R.partner)
    # the sweep never fails the loop; every corruption does
    assert failing == 3 + 3 * (2 + 4 + 2) + 1


def test_hopf_check_flags_inconsistent_coproduct_degrees():
    # Delta and the counit hold on every relation; only the antipode notices
    A = _with_cop_exp(presentation_A(12, [(1, 6)], lam=1), "y(1,6)", 5)
    report = hopf_check(compile(A))
    assert (report.delta_ok, report.counit_ok, report.antipode_ok) == (True, True, False)
    # x(1,6) and y(1,6) are g-partners whose degrees h^1, h^5 are not inverse
    assert report.failures == ("antipode:metadata:x(1,6)", "antipode:metadata:y(1,6)")
    B = _with_cop_exp(presentation_B(12, [(2, 3)], [3], mu=1), "w(3)", 5)
    report = hopf_check(compile(B))
    assert (report.delta_ok, report.counit_ok, report.antipode_ok) == (False, True, False)
    assert report.failures[-2:] == ("antipode:metadata:z(3)", "antipode:metadata:w(3)")
    assert sum("metadata" in line for line in report.failures) == 2


def test_closed_form_delta_equals_the_general_route(monkeypatch):
    # every relation of families a-d of size <= 2 at m = 12..48, zero and
    # nonzero data, and of the corrupted presentations: the written-down
    # residue equals the oracle's delta, and each relation whose antipode
    # hopf_check does not reduce has S(el) reducing to zero
    general = []  # the elements hopf_check hands to _antipode
    antipode = rewrite._antipode
    monkeypatch.setattr(rewrite, "_antipode", lambda R, el: general.append(el) or antipode(R, el))
    presentations = [
        P
        for m in (12, 24, 36, 48)
        for values in ((0,), ("3/2", "w^5", "w^2 - 1"))
        for P in _quadratic_families(m, values)
    ]
    skipped = reduced = 0
    for P in itertools.chain(presentations, _corrupted_presentations()):
        R = compile(P)
        assert R.lhs_lengths[-1] == 2
        general.clear()
        hopf_check(R)
        for label, el in R.quadratic_relations:
            residue = rewrite._skew_primitive_residue(R, el)
            assert residue == delta(R, el), (P.I, P.L, label)
            if any(el is seen for seen in general):
                reduced += 1
            else:
                skipped += 1
                assert not residue
                assert R.reduce(antipode(R, el)) == {}, (P.I, P.L, label)
    # reduced: the three corrupted relations, and every relation of a
    # presentation with a letter of wrong degree, 3 shifts x (2 letters x 3
    # relations + 4 x 10 + 2 x 3)
    assert (skipped, reduced) == (20365, 3 + 3 * (2 * 3 + 4 * 10 + 2 * 3))


@pytest.mark.parametrize("m", (12, 24, 36, 48))
def test_hopf_check_decides_every_family_on_integers(monkeypatch, m):
    # every relation of _every_family is decided by _family_relation_holds:
    # no residue is written down and no antipode formed; the reports equal
    # the written-down route's, taken with the integer test declining, and
    # so do those of the corrupted presentations
    def written(*args):
        raise AssertionError("a relation took the written-down route")

    systems = [compile(P) for P in _every_family(m)]
    with monkeypatch.context() as patch:
        patch.setattr(rewrite, "_skew_primitive_residue", written)
        patch.setattr(rewrite, "_antipode", written)
        reports = [hopf_check(R) for R in systems]
    assert all(report.all_ok for report in reports)
    if m == 12:
        corrupted = itertools.chain(_corrupted_presentations(), _integer_corrupted_presentations())
        systems += [compile(P) for P in corrupted]
        reports += [hopf_check(R) for R in systems[len(reports):]]
    monkeypatch.setattr(rewrite, "_family_relation_holds", lambda R, el: False)
    assert [hopf_check(R) for R in systems] == reports


def _compiled(P):
    """Everything compile writes, each dict in its order, or the CompletionError it raises."""
    try:
        R = compile(P)
    except CompletionError as exc:
        return str(exc), exc.ambiguity
    return ([(lhs, list(rhs.items())) for lhs, rhs in R.rules.items()],
            list(R._quadratic.items()),
            [(label, list(el.items())) for label, el in R.quadratic_relations],
            R.lhs_lengths, R.certificate, certificate_json(R))


def _near_misses():
    """(label, P): P with its relation `label` just outside the family shape or guard."""
    A = presentation_A(12, [(1, 6), (5, 6)], lam=1, gamma="w^3 - 2")
    xx, xy = (next(r for r in A.relations if r.label.startswith(kind) and r.rhs)
              for kind in ("quad:xx", "quad:xy"))
    (v, _), (nv, _) = xy.rhs
    again = dataclasses.replace(xy, label="again")
    yield "again", dataclasses.replace(A, relations=A.relations + (again,))  # a repeated left side
    one = CycloNumber(12, [1])  # equal to the shared 1, not the same object
    yield xy.label, _with_relation(A, xy.label, tuple((one, w) for _, w in xy.lhs), xy.rhs)
    yield xx.label, _with_relation(A, xx.label, xx.lhs, ((v, (0, 0)), (nv, (0, 12))))  # e = 0
    yield xy.label, _with_relation(A, xy.label, xy.lhs, xy.rhs + ((v, (0, 4)),))  # three terms


@pytest.mark.parametrize("m", range(12, 49, 4))
def test_family_rules_equal_the_general_route(monkeypatch, m):
    # compile reads every relation of _every_family from its integers, and
    # writes the rules, splits, kept elements, lengths and certificate that
    # the general route writes, in the same order; each near miss declines
    # and agrees too
    declined, family_rule = [], rewrite._family_rule

    def spy(R, rel, *args):
        out = family_rule(R, rel, *args)
        if out is None:
            declined.append(rel.label)
        return out

    monkeypatch.setattr(rewrite, "_family_rule", spy)
    cases = [(None, P) for P in _every_family(m)] + (list(_near_misses()) if m == 12 else [])
    for label, P in cases:
        declined.clear()
        integer = _compiled(P)
        assert declined == ([label] if label else []), (P.I, P.L, label)
        with monkeypatch.context() as patch:
            patch.setattr(rewrite, "_family_rule", lambda *args: None)
            assert _compiled(P) == integer, (P.I, P.L, label)


def test_closed_form_delta_with_a_letter_term():
    # the rule y x -> -x y + 2 x h^3 + w^5 (1 - h^2) makes el = yx + xy - 2 x h^3
    # - w^5 (1 - h^2), times any group element, reduce to zero in one step;
    # its letter term sits at another group element than its degree-2 terms
    m = 12
    R = compile(presentation_A(m, [(1, 6)]))
    x, y = R.letter_index["x(1,6)"], R.letter_index["y(1,6)"]
    one, w5 = CycloNumber.one(m), CycloNumber.root(m, 5)
    two = one + one
    R._add_rule((y, x), {((x, y), 0): -one, ((x,), 3): two, ((), 0): w5, ((), 2): -w5})
    rel = {((y, x), 0): one, ((x, y), 0): one, ((x,), 3): -two, ((), 0): -w5, ((), 2): w5}
    for gamma in (0, 1, m, 2 * m - 1):
        el = {(word, g_mul(m, g, gamma)): c for (word, g), c in rel.items()}
        assert R.reduce(el) == {}
        residue = rewrite._skew_primitive_residue(R, el)
        assert residue and residue == delta(R, el), gamma


def _hand_built(relations):
    """A presentation on the letters x1, y1, x2, y2 with these relations.

    The letters have h-eigenvalue exponent and coproduct degree (1, 2) and
    (2, 8), and their g-partners the opposite ones.
    """
    from nichols_dm.lifting import Presentation, SkewGenerator

    m = 12
    gens = (
        SkewGenerator("x1", "y1", 1, 2),
        SkewGenerator("y1", "x1", 11, 10),
        SkewGenerator("x2", "y2", 2, 8),
        SkewGenerator("y2", "x2", 10, 4),
    )
    return Presentation(m, "A", (), (), LiftingDatum.zero(m, (), ()), gens, relations)


def test_a_relation_not_fixed_by_G_takes_the_general_antipode():
    # r = x1 x2 - w^4 x2 x1 - (1 - h^10) is
    # (h^10, 1)-primitive, but h^10 r h^-10 = -r - 2 (1 - h^10), so the ideal
    # is not stable under h and S(r) = -h^2 r does not reduce to zero
    one, q = CycloNumber.one(12), CycloNumber.root(12, 4)
    P = _hand_built((
        Relation("quad:x", ((one, ("x1", "x2")), (-q, ("x2", "x1"))), ((one, (0, 0)), (-one, (0, 10)))),
        Relation("quad:y", ((one, ("y1", "y2")), (-q, ("y2", "y1"))), ((one, (0, 0)), (-one, (0, 2)))),
    ))
    R = compile(P)
    h10 = g_encode(12, 0, 10)
    for _, el in R.quadratic_relations:
        assert rewrite._skew_primitive_residue(R, el) == delta(R, el) == {}
        # h^10 el h^-10: the letters pick up w^(10 h_exp), the group elements commute
        image = {}
        for (word, g), coeff in el.items():
            exp, moved = R.conj_word(h10, word)
            rewrite._add(image, (moved, g), coeff * CycloNumber.root(12, exp))
        assert image != el
    report = hopf_check(R)
    assert (report.delta_ok, report.counit_ok, report.antipode_ok, report.failures) == (
        True, True, False, (
            "antipode:quad:x:(-2)*1*e + (2)*1*r^2",
            "antipode:quad:y:(-2)*1*e + (2)*1*r^10",
        ),
    )
    # x1 x2 + x2 x1 = 1 - h^8 on letters of (h_exp, cop_exp) (1, 2) and
    # (3, 6) has the family shape, and 3*2 = 1*6 = m/2 makes Delta and the
    # counit hold; but 8*(1 + 3) = 8 (mod 12), so h^8 does not fix it, the
    # integer test declines and S(r) does not reduce to zero
    from nichols_dm.lifting import SkewGenerator

    gens = (
        SkewGenerator("x1", "y1", 1, 2), SkewGenerator("y1", "x1", 11, 10),
        SkewGenerator("x2", "y2", 3, 6), SkewGenerator("y2", "x2", 9, 6),
    )
    relation = Relation(
        "quad:x", ((one, ("x1", "x2")), (one, ("x2", "x1"))), ((one, (0, 0)), (-one, (0, 8))))
    R = compile(dataclasses.replace(_hand_built((relation,)), skew_generators=gens))
    assert not rewrite._family_relation_holds(R, R.quadratic_relations[0][1])
    report = hopf_check(R)
    assert (report.delta_ok, report.counit_ok, report.antipode_ok, report.failures) == (
        True, True, False, ("antipode:quad:x:(w^2 - 2)*1*e + (-w^2 + 2)*1*r^4",),
    )


def test_hopf_check_rejects_a_relation_it_cannot_write_down():
    # a cubic relation compiles, but its coproduct is not of the closed
    # form; hopf_check names it rather than take another route
    one = CycloNumber.one(12)
    P = _hand_built((
        Relation("quad:x", ((one, ("x1", "x1")),), ()),
        Relation("cubic:y", ((one, ("y1", "y1", "y1")),), ()),
    ))
    R = compile(P)
    with pytest.raises(CompletionError, match="the relation cubic:y is not of the shape") as err:
        hopf_check(R)
    assert err.value.ambiguity == "cubic:y"
    # the general route still reports on it: the cross terms of y1^3 carry
    # 1 + q + q^2 for q = w^(11 * 10) = w^2, which is not zero
    assert not general_hopf_check(P, R).delta_ok


def test_hopf_check_rejects_a_rule_shorter_than_two():
    # x1 = 0 gives the rule x1 -> 0, so a leg of a written-down coproduct
    # need not be normal; hopf_check names the rule
    one = CycloNumber.one(12)
    P = _hand_built((
        Relation("lin:x", ((one, ("x1",)),), ()),
        Relation("quad:y", ((one, ("y2", "y2")),), ()),
    ))
    R = compile(P)
    assert R.lhs_lengths == (2, 1)
    with pytest.raises(CompletionError, match="the left side x1 of a rule is shorter than 2") as err:
        hopf_check(R)
    assert err.value.ambiguity == (R.letter_index["x1"],)
