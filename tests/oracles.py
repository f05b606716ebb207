"""Reference routes that the tests check the package against.

No command needs these, so they live with the tests:

- ``delta`` is the general coproduct of an element of the monomial model,
  both legs reduced; it is the reference of every closed-form residue of
  ``rewrite._skew_primitive_residue``.
- ``general_hopf_check`` is the Hopf check of any presentation against any
  certified system, by ``delta`` and the antipode reduced term by term.
  ``rewrite.hopf_check`` reads only the relations its system was compiled
  from, in closed form.
- ``skew_primitives`` solves for the skew-primitive space of one degree on
  the irreducible words of length <= 2.
- ``yang_baxter_holds`` checks the braid equation of a module basis triple
  by basis triple.
"""

from nichols_dm import rewrite
from nichols_dm.cyclo import CycloNumber
from nichols_dm.dihedral import g_encode, g_mul
from nichols_dm.errors import CompletionError, DomainError
from nichols_dm.rewrite import HopfReport, _add


def monomial(R, word, eps=0, rot=0):
    """The single monomial (word, g^eps h^rot) with coefficient 1."""
    return {(tuple(word), g_encode(R.m, eps, rot)): CycloNumber.one(R.m)}


def delta(R, el):
    """Delta(el) with both legs in normal form.

    Delta is computed in T(V)#kD_m: Delta(v) = v (x) 1 + h^cop_exp(v) (x) v
    on a letter and Delta(gamma) = gamma (x) gamma on a group element.  For
    a monomial (v_1...v_k, gamma) this gives, over the subsets S of [k],
    w^e_S (v_S, h^a_S gamma) (x) (v_[k]-S, gamma) with a_S the sum of
    cop_exp(v_j) over j not in S and e_S the sum of cop_exp(v_j) h_exp(v_i)
    over j < i, j not in S, i in S.  The terms are built letter by letter on
    ints, and each leg is then reduced once.
    """
    m, one = R.m, CycloNumber.one(R.m)
    out = {}
    for (word, g), coeff in el.items():
        states = [((), 0, (), 0)]  # (left word, left rotation, right word, exponent)
        for v in word:
            hv, cv = R.h_exp[v], R.cop_exp[v]
            states = [
                new
                for left, a, right, e in states
                for new in ((left + (v,), a, right, e + hv * a), (left, a + cv, right + (v,), e))
            ]
        t = {}
        for left, a, right, e in states:
            c = coeff * CycloNumber.root(m, e) if e % m else coeff
            _add(t, ((left, g_mul(m, a % m, g)), (right, g)), c)
        for (m1, m2), c in t.items():
            right = R.reduce({m2: one})
            for n1, d1 in R.reduce({m1: c}).items():
                for n2, d2 in right.items():
                    _add(out, (n1, n2), d1 * d2)
    return out


def general_hopf_check(P, R):
    """The Hopf report of every relation of P, reduced in R, whatever their shape.

    Each relation's element is rebuilt from P, so P need not be the
    presentation R was compiled from.  Delta and S of each element are
    reduced in R, and the lines read as those of rewrite.hopf_check.
    """
    metadata = [
        name
        for v, name in enumerate(R.letters)
        if R.partner[R.partner[v]] != v or (R.cop_exp[R.partner[v]] + R.cop_exp[v]) % R.m
    ]
    deltas, counits, antipodes = [], [], []
    for rel in P.relations:
        el = rewrite._relation_element(R, rel)
        residue = delta(R, el)
        if residue:
            deltas.append(f"delta:{rel.label}:{rewrite._tensor_str(R, residue)}")
        counit = sum((c for (word, _), c in el.items() if not word), CycloNumber.zero(R.m))
        if counit:
            counits.append(f"counit:{rel.label}:{counit}")
        image = R.reduce(rewrite._antipode(R, el))
        if image:
            antipodes.append(f"antipode:{rel.label}:{rewrite._element_str(R, image)}")
    antipodes.extend(f"antipode:metadata:{name}" for name in metadata)
    return HopfReport(not deltas, not counits, not antipodes, tuple(deltas + counits + antipodes))


def skew_primitives(R, degree):
    """Basis of the (degree, 1)-skew-primitive space on words of length <= 2.

    The trivial line k(1 - degree) and all pure-group monomials are
    quotiented away, so the group algebra alone yields the zero space.
    """
    if R.certificate is None:
        raise CompletionError("skew_primitives needs a certified system")
    if degree.m != R.m:
        raise DomainError("elements of different dihedral groups")
    letters = [(a,) for a in range(len(R.letters))]
    words = letters + [a + b for a in letters for b in letters]
    unit = ((), g_encode(R.m, 0, 0))
    d_mono = ((), g_encode(R.m, degree.eps, degree.rot))
    unknowns = [  # irreducible words in the order normal_basis lists them
        (word, g) for word in sorted(words) if R._find_redex(word) is None for g in range(2 * R.m)
    ]
    columns = {}
    one = CycloNumber.one(R.m)
    for mono in unknowns:
        t = delta(R, {mono: one})
        # subtract mono (x) 1 and degree (x) mono
        _add(t, (mono, unit), -one)
        _add(t, (d_mono, mono), -one)
        columns[mono] = t
    coords = sorted({key for t in columns.values() for key in t})
    rows = [{mono: t[coord] for mono, t in columns.items() if coord in t} for coord in coords]
    return nullspace(R.m, unknowns, rows)


def nullspace(m, unknowns, rows):
    """A basis of the solutions of the sparse rows, one vector per free unknown."""
    position = {u: i for i, u in enumerate(unknowns)}
    pivots = {}  # pivot unknown -> normalized row
    for row in rows:
        row = dict(row)
        for pivot, prow in pivots.items():
            if pivot in row:
                factor = row.pop(pivot)
                for u, c in prow.items():
                    if u != pivot:
                        _add(row, u, -(factor * c))
        if not row:
            continue
        pivot = min(row, key=position.__getitem__)
        inv = row[pivot].inverse()
        row = {u: c * inv for u, c in row.items()}
        # eliminate the new pivot from previous rows
        for prow in pivots.values():
            if pivot in prow:
                factor = prow.pop(pivot)
                for u, c in row.items():
                    if u != pivot:
                        _add(prow, u, -(factor * c))
        pivots[pivot] = row
    out = []
    for f in unknowns:
        if f in pivots:
            continue
        vec = {f: CycloNumber.one(m)}
        for pivot, prow in pivots.items():
            if f in prow:
                vec[pivot] = -prow[f]
        out.append(vec)
    return out


def yang_baxter_holds(M):
    """Exact check of c1 c2 c1 = c2 c1 c2 on M (x) M (x) M."""
    d = M.dim

    def c12(state):
        (a, b, c), coeff = state
        (b2, a2), k = M.braid(a, b)
        return (b2, a2, c), coeff * k

    def c23(state):
        (a, b, c), coeff = state
        (c2, b2), k = M.braid(b, c)
        return (a, c2, b2), coeff * k

    one = CycloNumber.one(M.group.m)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                start = ((a, b, c), one)
                if c12(c23(c12(start))) != c23(c12(c23(start))):
                    return False
    return True
