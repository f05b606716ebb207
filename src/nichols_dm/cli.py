"""Command-line interface with machine-readable JSON output.

Commands: classify, nichols, liftings, verify, iso, rack, reps.  Output
is a single JSON document on stdout: the bytes of
``json.dumps(doc, sort_keys=True, indent=2, default=str)`` plus a newline,
so sorted keys, a two-space indent, ASCII with ``\\uXXXX`` escapes, and exact
scalars rendered as strings ("3/2", "w^5 - 1").  Every command rejects
``--m`` above ``M_MAX``, and ``classify`` and ``iso`` reject ``--max-size``
above ``MAX_SIZE``.  Exit codes: 0 success, 2 flag / domain validation
errors, 1 internal check failures (non-confluence, dimension mismatch,
failed Hopf axioms).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import classify as classify_mod
from . import iso as iso_mod
from . import lifting as lifting_mod
from . import rewrite as rewrite_mod
from .cyclo import _too_long, parse_scalar
from .dihedral import DihedralGroup, class_of, conjugacy_classes, irreps
from .errors import CompletionError, DomainError
from .rack import conjugation_rack, is_type_D
from .ydmod import Finite, nichols_dimension

SCHEMA = 1
# the largest --m any command accepts; `rack`'s table has (m/2)^2 entries
M_MAX = 1024
# the largest --max-size of classify and iso; `iso --m 12 --max-size 6` already
# writes 12.7 MB, and the family count grows about as |J|^size
MAX_SIZE = 6


def _list_grammar(item: str, sep: str) -> re.Pattern:
    """`item (sep item)*` with optional whitespace around every token; ASCII digits."""
    return re.compile(rf"\s*{item}(?:\s*{sep}\s*{item})*\s*", re.ASCII)


_PAIRS_RE = _list_grammar(r"\(\s*\d+\s*,\s*\d+\s*\)", r"\+")
_ELLS_RE = _list_grammar(r"\d+", r"\+")
_KEY_RE = _list_grammar(r"\d+", ",")


def _numbers(grammar: re.Pattern, text: str, what: str, form: str) -> list[int]:
    """The integers in `text`, which `grammar` must match in full."""
    if not grammar.fullmatch(text):
        raise DomainError(f"cannot parse {what} {text!r}; expected {form}")
    try:
        return [int(x) for x in re.findall(r"\d+", text, re.ASCII)]
    except ValueError:  # more digits than int() reads
        raise _too_long(what, text) from None


def _parse_pairs(m: int, text: str) -> list[tuple[int, int]]:
    if not text or not text.strip():
        return []
    nums = _numbers(_PAIRS_RE, text, "pair list", "(i,k)+(p,q)")
    pairs = list(zip(nums[::2], nums[1::2]))
    n = m // 2
    for i, k in pairs:
        if not (1 <= i <= n - 1 and 1 <= k <= m - 1):
            raise DomainError(f"pair ({i},{k}) out of range for m = {m}")
    return pairs


def _parse_ells(m: int, text: str) -> list[int]:
    if not text or not text.strip():
        return []
    ells = _numbers(_ELLS_RE, text, "l list", "l+l")
    n = m // 2
    for ell in ells:
        if not 1 <= ell < n:
            raise DomainError(f"l-label {ell} out of range [1, {n})")
    return ells


def _parse_module(m: int, text: str) -> tuple[list, list]:
    kind, sep, payload = text.partition(":")
    if not sep:
        raise DomainError(f"module spec {text!r} needs a prefix I:, L: or K:")
    kind = kind.strip().upper()
    if kind == "I":
        return _parse_pairs(m, payload), []
    if kind == "L":
        return [], _parse_ells(m, payload)
    if kind == "K":
        left, sep, right = payload.partition("|")
        if not sep:
            raise DomainError("K module spec needs the form K:<pairs>|<ells>")
        return _parse_pairs(m, left), _parse_ells(m, right)
    raise DomainError(f"unknown module prefix {kind!r}")


def _parse_param(m: int, text):
    """A parameter flag: a scalar expression, or ';'-joined key=value entries."""
    if text is None:
        return None
    if "=" not in text:
        return parse_scalar(m, text)
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key_text, sep, value_text = chunk.partition("=")
        if not sep or not value_text.strip():
            raise DomainError(f"parameter entry {chunk!r} in {text!r} has no value; "
                              "expected p,q,i,k=value")
        key = tuple(_numbers(_KEY_RE, key_text, "parameter key", "p,q,i,k=value"))
        if key in out:
            raise DomainError(f"parameter key {','.join(map(str, key))} is given twice in {text!r}")
        out[key] = parse_scalar(m, value_text)
    if not out:
        raise DomainError(f"cannot parse parameter assignment {text!r}")
    return out


# -- commands -----------------------------------------------------------------


def cmd_classify(args) -> tuple[dict, int]:
    DihedralGroup(args.m).require_classification_modulus()
    report = classify_mod.theorem_A_report(args.m, args.max_size)
    # JSON sorts int keys as ints; the output has always listed N by key text
    report["N"] = {str(i): N_i for i, N_i in report["N"].items()}
    return {"command": "classify", "report": report}, 0


def cmd_nichols(args) -> tuple[dict, int]:
    G = DihedralGroup(args.m).require_classification_modulus()
    pairs, ells = _parse_module(args.m, args.module)
    if not pairs and not ells:
        raise DomainError("module spec is empty")
    module = classify_mod.module_of(G, pairs, ells)
    result = nichols_dimension(module)
    payload = {
        "command": "nichols",
        "m": args.m,
        "module": {"I": pairs, "L": ells, "label": module.label},
    }
    if isinstance(result, Finite):
        payload["verdict"] = "finite"
        payload["dimension"] = result.dimension
    else:
        payload["verdict"] = "infinite"
        payload["certificate"] = result.rule
        payload["witness"] = result.witness
        payload["summands"] = result.summands
    return payload, 0


def _build_presentation(args):
    m = args.m
    return lifting_mod.family_presentation(
        m,
        args.family,
        _parse_pairs(m, args.I),
        _parse_ells(m, args.L),
        lam=_parse_param(m, args.lam),
        gamma=_parse_param(m, args.gamma),
        theta=_parse_param(m, args.theta),
        mu=_parse_param(m, args.mu),
    )


def cmd_liftings(args) -> tuple[dict, int]:
    DihedralGroup(args.m).require_classification_modulus()
    pres = _build_presentation(args)
    return {"command": "liftings", "presentation": pres.to_json_dict()}, 0


def cmd_verify(args) -> tuple[dict, int]:
    DihedralGroup(args.m).require_classification_modulus()
    pres = _build_presentation(args)
    system = rewrite_mod.compile(pres, overlap_budget=args.overlap_budget)
    certificate = rewrite_mod.certificate_json(system)
    dim = certificate["dimension"]
    expected = 4 ** (len(pres.I) + len(pres.L)) * 2 * args.m
    hopf = rewrite_mod.hopf_check(system)
    payload = {
        "command": "verify",
        "m": args.m,
        "family": args.family,
        "I": pres.I,
        "L": pres.L,
        "parameters": pres.datum.parameters_json(),
        "dimension": dim,
        "expected": expected,
        "dimension_matches": dim == expected,
        "hopf": {
            "delta_ok": hopf.delta_ok,
            "counit_ok": hopf.counit_ok,
            "antipode_ok": hopf.antipode_ok,
            "failures": hopf.failures,
        },
        "certificate": certificate,
    }
    code = 0 if dim == expected and hopf.all_ok else 1
    return payload, code


def cmd_iso(args) -> tuple[dict, int]:
    DihedralGroup(args.m).require_classification_modulus()
    items = [token.strip() for token in args.grid.split(",")]
    grid = [item for item in items if item]
    if grid and len(grid) < len(items):
        raise DomainError(f"item {items.index('') + 1} of the parameter grid is empty")
    orbits = iso_mod.iso_classes(
        args.m, args.max_size, parameter_grid=grid, families=args.family
    )
    return {
        "command": "iso",
        "m": args.m,
        "families": args.family,
        "grid": grid,
        "orbits": orbits,
    }, 0


def cmd_rack(args) -> tuple[dict, int]:
    G = DihedralGroup(args.m)
    text = args.cls.strip()
    if text == "e":
        rep = G.identity
    elif text == "s":
        rep = G.s()
    elif text == "sr":
        rep = G.s(1)
    else:
        match = re.fullmatch(r"r\^?(\d+)", text)
        if not match:
            raise DomainError(f"unknown class spec {text!r}; use e, s, sr or r^i")
        try:
            rep = G.r(int(match.group(1)))
        except ValueError:  # more digits than int() reads
            raise _too_long("class spec", text) from None
    cls = class_of(G, rep)
    rack = conjugation_rack(G, cls)
    verdict, witness = is_type_D(G, cls)
    payload = {
        "command": "rack",
        "m": args.m,
        "class": cls.name,
        "size": cls.size,
        "type_d": verdict,
        "witness": [witness.first, witness.second] if witness else None,
        "rack_table": rack.table,
    }
    return payload, 0


def cmd_reps(args) -> tuple[dict, int]:
    G = DihedralGroup(args.m)
    if G.m % 2:
        raise DomainError("irreducible representation tables need even m")
    reps = irreps(G)
    linear = []
    for chi in (p for p in reps if p.kind == "linear"):
        linear.append(
            {
                "name": chi.name,
                "values": {
                    str(g): chi.character(g)
                    for g in [G.identity, G.r(), G.r(G.n), G.s(), G.s(1)]
                },
            }
        )
    two_dim = []
    for rho in (p for p in reps if p.kind == "two_dim"):
        two_dim.append(
            {
                "l": rho.index,
                "rho_r": rho.evaluate(G.r()),
                "rho_s": rho.evaluate(G.s()),
            }
        )
    classes = [
        {"name": c.name, "size": c.size, "representative": c.representative}
        for c in conjugacy_classes(G)
    ]
    payload = {
        "command": "reps",
        "m": args.m,
        "linear": linear,
        "two_dim": two_dim,
        "conjugacy_classes": classes,
        "counts": {"linear": len(linear), "two_dim": len(two_dim)},
        "sum_of_squares": sum(p.degree**2 for p in reps),
    }
    return payload, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nichols-dm",
        description=(
            "Exact classification of finite-dimensional Nichols algebras and "
            "pointed Hopf algebras over dihedral groups D_m, m = 4t >= 12."
        ),
        epilog=(
            "Module/family syntax: I:(i,k)+(p,q)  L:l+l  K:(i,k)+(p,q)|l+l. "
            "Parameter flags accept a scalar (broadcast over free entries, "
            "e.g. --lambda 1 or --lambda 'w^2 - 1') or keyed assignments "
            "'p,q,i,k=value;...'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--m", type=int, required=True, help="dihedral parameter m")

    p = sub.add_parser("classify", help="full classification report for D_m")
    common(p)
    p.add_argument("--max-size", type=int, default=2, help="family size bound")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nichols", help="finite/infinite verdict for a module")
    common(p)
    p.add_argument("--module", required=True, help="module spec, e.g. I:(1,6)+(5,6)")
    p.set_defaults(func=cmd_nichols)

    def family_flags(p):
        p.add_argument("--family", required=True, choices=list(lifting_mod.FAMILIES))
        p.add_argument("--I", default=None, help="pair list, e.g. (1,6)+(5,6)")
        p.add_argument("--L", default=None, help="l list, e.g. 1+3")
        p.add_argument("--lambda", dest="lam", default=None, help="lambda parameter(s)")
        p.add_argument("--gamma", default=None, help="gamma parameter(s)")
        p.add_argument("--theta", default=None, help="theta parameter(s)")
        p.add_argument("--mu", default=None, help="mu parameter(s)")

    p = sub.add_parser("liftings", help="emit a lifting presentation as JSON")
    common(p)
    family_flags(p)
    p.set_defaults(func=cmd_liftings)

    p = sub.add_parser("verify", help="certify dimension and Hopf axioms by rewriting")
    common(p)
    family_flags(p)
    p.add_argument(
        "--overlap-budget",
        type=int,
        default=None,
        help="stop the overlap check after this many overlaps",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("iso", help="isomorphism orbits on a parameter grid")
    common(p)
    p.add_argument("--family", default="abcd", help="subset of 'abcd'")
    p.add_argument("--max-size", type=int, default=1)
    p.add_argument("--grid", default="0,1", help="comma-separated scalar values")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("rack", help="conjugation rack and type-D verdict for a class")
    common(p)
    p.add_argument("--class", dest="cls", required=True, help="e, s, sr or r^i")
    p.set_defaults(func=cmd_rack)

    p = sub.add_parser("reps", help="irreducible representation tables")
    common(p)
    p.set_defaults(func=cmd_reps)

    return parser


# parse_args builds a fresh namespace on every call, so one parser serves all jobs
_PARSER = build_parser()


# -- output -------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
# the exact scalar types the output is mostly made of, each with its C encoder
_SCALAR = {str: _encode_str, int: int.__repr__}


def _emit(o, head: str, nl: str, put) -> None:
    """Write `head`, then `o` at the indent `nl` ("\\n" + two spaces a level).

    The pieces are those of the indented stdlib encoder, but exact strings,
    exact ints and flat lists of either are encoded in C.  Any other scalar
    (bool, None, exact numbers, group elements) takes the compact encoder,
    whose output for a scalar is the same.
    """
    scalar = _SCALAR.get(type(o))
    if scalar is not None:
        put(head + scalar(o))
    elif not isinstance(o, (dict, list, tuple)):
        # default=str prints exact scalars and group elements in their printed form
        put(head + json.dumps(o, default=str))
    elif not o:
        put(head + ("{}" if isinstance(o, dict) else "[]"))
    elif isinstance(o, dict):
        inner = nl + "  "
        sep = head + "{" + inner
        # a non-str key makes _encode_str raise TypeError
        for key, value in sorted(o.items()):
            _emit(value, sep + _encode_str(key) + ": ", inner, put)
            sep = "," + inner
        put(nl + "}")
    else:
        inner = nl + "  "
        kinds = set(map(type, o))
        scalar = _SCALAR.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is not None:
            put(head + "[" + inner + ("," + inner).join(map(scalar, o)) + nl + "]")
            return
        sep = head + "[" + inner
        for item in o:
            _emit(item, sep, inner, put)
            sep = "," + inner
        put(nl + "]")


def encode(doc) -> str:
    """The text of `json.dumps(doc, sort_keys=True, indent=2, default=str)`."""
    chunks: list[str] = []
    _emit(doc, "", "\n", chunks.append)
    return "".join(chunks)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.m > M_MAX:
            raise DomainError(f"m = {args.m} exceeds the ceiling {M_MAX}")
        if getattr(args, "max_size", 0) > MAX_SIZE:
            raise DomainError(f"max-size = {args.max_size} exceeds the ceiling {MAX_SIZE}")
        payload, code = args.func(args)
    except DomainError as exc:
        payload, code = {"error": {"type": "validation", "message": str(exc)}}, 2
    except CompletionError as exc:
        error = {"type": "internal_check", "message": str(exc), "ambiguity": exc.ambiguity}
        payload, code = {"error": error}, 1
    except RuntimeError as exc:
        payload, code = {"error": {"type": "internal_check", "message": str(exc)}}, 1
    try:
        sys.stdout.write(encode({"schema": SCHEMA, **payload}) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to /dev/null at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
