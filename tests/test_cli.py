import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nichols_dm
from nichols_dm import cli
from nichols_dm.cli import M_MAX, MAX_SIZE, _parse_module, _parse_param, encode, main
from nichols_dm.cyclo import cyclotomic_polynomial, parse_scalar
from nichols_dm.dihedral import DihedralGroup
from nichols_dm.errors import DomainError

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_report(capsys):
    code, doc = run_cli(capsys, "classify", "--m", "12", "--max-size", "1")
    assert code == 0
    assert doc["schema"] == 1
    report = doc["report"]
    assert len(report["J"]) == 7
    assert report["odd_ells"] == [1, 3, 5]
    assert report["N"]["2"] == [3, 9]
    assert len(report["families"]["I"]) == 7
    assert len(report["families"]["L"]) == 3


def test_classify_rejects_bad_m(capsys):
    code, doc = run_cli(capsys, "classify", "--m", "8")
    assert code == 2
    assert doc["error"]["type"] == "validation"


def test_nichols_finite(capsys):
    code, doc = run_cli(capsys, "nichols", "--m", "12", "--module", "I:(1,6)+(5,6)")
    assert code == 0
    assert doc["verdict"] == "finite"
    assert doc["dimension"] == 16


def test_nichols_infinite_rombo(capsys):
    code, doc = run_cli(capsys, "nichols", "--m", "12", "--module", "I:(2,3)+(1,6)")
    assert code == 0
    assert doc["verdict"] == "infinite"
    assert doc["certificate"] == "RomboDiagram"


def test_nichols_mixed_module(capsys):
    code, doc = run_cli(capsys, "nichols", "--m", "12", "--module", "K:(2,3)|3")
    assert code == 0
    assert doc["verdict"] == "finite"
    assert doc["dimension"] == 16


def test_liftings_presentation(capsys):
    code, doc = run_cli(
        capsys,
        "liftings", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "1",
    )
    assert code == 0
    pres = doc["presentation"]
    assert pres["kind"] == "A"
    assert pres["parameters"]["lambda"] == {"1,6,1,6": "1"}
    labels = {r["label"] for r in pres["relations"]}
    assert "quad:xx:x(1,6)|x(1,6)" in labels


def test_liftings_family_a_rejects_k_equal_n(capsys):
    code, doc = run_cli(
        capsys, "liftings", "--m", "12", "--family", "a", "--I", "(1,6)"
    )
    assert code == 2


def test_verify_family_c(capsys):
    code, doc = run_cli(
        capsys,
        "verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "1",
    )
    assert code == 0
    assert doc["dimension"] == 96
    assert doc["expected"] == 96
    assert doc["hopf"]["delta_ok"] is True
    assert doc["hopf"]["counit_ok"] is True
    assert doc["hopf"]["antipode_ok"] is True
    assert doc["certificate"]["all_resolved"] is True
    assert doc["parameters"] == {"lambda": {"1,6,1,6": "1"}}
    assert "added_rules" not in doc["certificate"]


def test_verify_zero_datum_prints_no_parameter_names(capsys):
    code, doc = run_cli(capsys, "verify", "--m", "12", "--family", "c", "--I", "(1,6)")
    assert code == 0
    assert doc["parameters"] == {}


def test_verify_beyond_the_listing_limit(capsys):
    # 4^11 normal words, more than normal_basis lists: the dimension counts them
    code, doc = run_cli(
        capsys, "verify", "--m", "12", "--family", "c", "--I", "+".join(["(1,6)"] * 11),
    )
    assert code == 0
    assert doc["dimension"] == doc["expected"] == 4**11 * 24
    assert doc["certificate"]["normal_words"] == 4**11
    assert all(doc["hopf"][key] for key in ("delta_ok", "counit_ok", "antipode_ok"))


@pytest.mark.parametrize("command", ["liftings", "verify"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "a", "--I", "(2,3)", "--lambda", "0"], "family (a) bosonizations"),
        (["--family", "a", "--I", "(2,3)", "--lambda", "2,3,2,3=0"], "family (a) bosonizations"),
        (["--family", "b", "--L", "1", "--mu", "0"], "family (b) bosonizations"),
        (["--family", "c", "--I", "(1,6)", "--theta", "0"], "family (c) has no theta/mu"),
        (["--family", "c", "--I", "(1,6)", "--theta", "1,6,1=0"], "family (c) has no theta/mu"),
    ],
)
def test_family_rejects_a_zero_flag_it_has_no_parameter_for(capsys, command, argv, message):
    # the scalar 0 used to pass where the keyed 0 failed
    code, doc = run_cli(capsys, command, "--m", "12", *argv)
    assert code == 2
    assert doc["error"]["type"] == "validation"
    assert message in doc["error"]["message"]


@pytest.mark.parametrize("command", ["liftings", "verify"])
def test_family_c_rejects_single_pair_with_k_not_n(capsys, command):
    # I = {(2,3)} is family (a); family (c) used to accept it as well
    code, doc = run_cli(capsys, command, "--m", "12", "--family", "c", "--I", "(2,3)")
    assert code == 2
    assert doc["error"]["type"] == "validation"
    assert "family (a)" in doc["error"]["message"]


def test_verify_family_d(capsys):
    code, doc = run_cli(
        capsys,
        "verify", "--m", "12", "--family", "d",
        "--I", "(2,3)", "--L", "3", "--mu", "1",
    )
    assert code == 0
    assert doc["dimension"] == 384


def test_iso_L_orbits(capsys):
    code, doc = run_cli(capsys, "iso", "--m", "12", "--family", "b", "--max-size", "1")
    assert code == 0
    orbits = doc["orbits"]
    reps = sorted(o["representative"]["L"] for o in orbits)
    assert reps == [[1], [3]]
    assert sorted(o["orbit_size"] for o in orbits) == [1, 2]


@pytest.mark.parametrize("family", ["", "xyz", "ae"])
def test_iso_rejects_unknown_family(capsys, family):
    # "xyz" used to exit 0 with no orbits
    code, doc = run_cli(capsys, "iso", "--m", "12", "--family", family)
    assert code == 2
    assert doc["error"]["type"] == "validation"


@pytest.mark.parametrize("max_size", ["0", "-3"])
def test_iso_family_a_rejects_max_size_below_one(capsys, max_size):
    # family (a) used to ignore the bound and exit 0 with its orbits
    code, doc = run_cli(capsys, "iso", "--m", "12", "--max-size", max_size, "--family", "a")
    assert code == 2
    assert doc["error"] == {"type": "validation", "message": f"r_max must be >= 1, got {max_size}"}


@pytest.mark.parametrize("command", ["classify", "iso"])
def test_max_size_above_the_ceiling_is_rejected(capsys, command):
    # `iso --m 12 --max-size 99` used to run past 15 s with no output
    code, doc = run_cli(capsys, command, "--m", "12", "--max-size", str(MAX_SIZE + 1))
    assert code == 2
    assert doc["error"] == {
        "type": "validation",
        "message": f"max-size = {MAX_SIZE + 1} exceeds the ceiling {MAX_SIZE}",
    }


def test_verify_rejects_negative_overlap_budget(capsys):
    argv = ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--overlap-budget"]
    # -1 used to exit 1 as an exceeded budget
    code, doc = run_cli(capsys, *argv, "-1")
    assert code == 2
    assert doc["error"]["type"] == "validation"
    code, doc = run_cli(capsys, *argv, "0")
    assert code == 1
    assert doc["error"]["type"] == "internal_check"


def _budget_error(budget, l1, l2):
    """The bytes of verify's error when the overlap after `budget` is ("overlap", l1, l2, 1)."""
    pair = '[\n        {},\n        {}\n      ]'
    return (
        '{\n  "error": {\n    "ambiguity": [\n      "overlap",\n      '
        f'{pair.format(*l1)},\n      {pair.format(*l2)},\n      1\n    ],\n'
        f'    "message": "overlap budget of {budget} exceeded; the overlap check did not finish",\n'
        '    "type": "internal_check"\n  },\n  "schema": 1\n}\n'
    )


def test_verify_overlap_budget_below_the_count_names_the_next_overlap(capsys):
    # I = (1,6)+(5,6) has 20 overlaps, which compile counts without reducing
    # them; a smaller budget sweeps them in order and stops at the one after
    # it, with the bytes of the sweep, and a budget of 20 certifies
    _, _, golden = _golden("verify_m12_c_budget0")
    assert _budget_error(0, (0, 0), (0, 0)) == golden
    argv = ["verify", "--m", "12", "--family", "c", "--I", "(1,6)+(5,6)", "--lambda", "1",
            "--overlap-budget"]
    for budget, l1, l2 in ((3, (1, 1), (1, 1)), (19, (3, 3), (3, 3))):
        assert main([*argv, str(budget)]) == 1
        assert capsys.readouterr().out == _budget_error(budget, l1, l2)
    code, doc = run_cli(capsys, *argv, "20")
    assert code == 0
    assert doc["certificate"]["ambiguities_checked"] == 20


def test_rack_command(capsys):
    code, doc = run_cli(capsys, "rack", "--m", "12", "--class", "s")
    assert code == 0
    assert doc["type_d"] is True
    assert doc["size"] == 6
    assert doc["witness"] == ["s", "s r^2"]
    code, doc = run_cli(capsys, "rack", "--m", "12", "--class", "r^2")
    assert doc["type_d"] is False and doc["witness"] is None


def test_rack_any_m(capsys):
    # rack works outside the classification range
    code, doc = run_cli(capsys, "rack", "--m", "7", "--class", "s")
    assert code == 0
    assert doc["size"] == 7


def test_reps_command(capsys):
    code, doc = run_cli(capsys, "reps", "--m", "12")
    assert code == 0
    assert doc["counts"] == {"linear": 4, "two_dim": 5}
    assert doc["sum_of_squares"] == 24
    rho1 = next(r for r in doc["two_dim"] if r["l"] == 1)
    assert rho1["rho_r"][0][0] == "w"
    assert rho1["rho_s"] == [["0", "1"], ["1", "0"]]


def test_output_is_byte_deterministic(capsys):
    main(["classify", "--m", "12", "--max-size", "1"])
    out1 = capsys.readouterr().out
    main(["classify", "--m", "12", "--max-size", "1"])
    out2 = capsys.readouterr().out
    assert out1 == out2


CLOSED_PIPE_CASES = [
    (["classify", "--m", "13"], 2),
    (["nichols", "--m", "12", "--module", "I:(1,6)+(5,6)"], 0),
    (["classify", "--m", "48", "--max-size", "2"], 0),
    (
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)+(5,6)",
         "--overlap-budget", "0"],
        1,
    ),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code", CLOSED_PIPE_CASES, ids=["error", "small", "large", "budget"]
)
def test_closed_stdout_pipe_keeps_exit_code(argv, code, unbuffered):
    # a reader that has gone away must not turn the command's exit code into
    # a traceback (exit 1) or an interpreter-shutdown flush error (exit 120)
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(nichols_dm.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nichols_dm.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == code


def test_threads_flag_removed(capsys, monkeypatch):
    # --threads did nothing and is gone; argparse rejects it with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["reps", "--m", "12", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    # the environment variable it read is ignored
    monkeypatch.setenv("NICHOLS_DM_THREADS", "abc")
    code, doc = run_cli(capsys, "reps", "--m", "12")
    assert code == 0
    assert doc["counts"] == {"linear": 4, "two_dim": 5}


def test_invalid_module_spec(capsys):
    code, doc = run_cli(capsys, "nichols", "--m", "12", "--module", "(1,6)")
    assert code == 2
    code, doc = run_cli(capsys, "nichols", "--m", "12", "--module", "I:(9,6)")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # a dropped closing parenthesis used to lose the pair (dimension 4)
        ["nichols", "--m", "12", "--module", "I:(1,6)+(5,6"],
        ["nichols", "--m", "12", "--module", "I:(1,6)junk(5,6)"],
        ["nichols", "--m", "12", "--module", "L:1x3"],
        ["liftings", "--m", "12", "--family", "c", "--I", "(1,6)+(5,6)",
         "--lambda", "1,6,5,6junk=1"],
    ],
    ids=["unclosed-pair", "junk-between-pairs", "junk-between-ells", "junk-in-key"],
)
def test_malformed_spec_is_a_validation_error(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "validation"
    assert "cannot parse" in doc["error"]["message"]



@pytest.mark.parametrize(
    "argv",
    [
        # the space inside "1 1" used to be dropped, giving lambda = 11
        ["liftings", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "1 1"],
        # a zero denominator used to end in a ZeroDivisionError traceback
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "1/0"],
        ["iso", "--m", "12", "--grid", "0,1/0"],
    ],
    ids=["space-between-digits", "zero-denominator", "zero-denominator-in-grid"],
)
def test_malformed_scalar_is_a_validation_error(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "validation"


_HUGE = "9" * 5000  # more digits than int() reads by default


@pytest.mark.parametrize(
    "argv",
    [
        ["rack", "--m", "12", "--class", f"r^{_HUGE}"],
        ["nichols", "--m", "12", "--module", f"I:(1,{_HUGE})"],
        ["nichols", "--m", "12", "--module", f"L:{_HUGE}"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", f"{_HUGE},6,1,6=1"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", f"{_HUGE}*w"],
    ],
    ids=["rack-class", "nichols-pair", "nichols-ell", "verify-key", "verify-scalar"],
)
def test_oversized_integer_is_a_validation_error(capsys, argv):
    # int() refuses the digits with a ValueError, which used to end in a traceback;
    # the message names the field and the digit count, not the digits themselves
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "validation"
    message = doc["error"]["message"]
    assert message.startswith("cannot read ") and "5000 digits" in message
    assert len(message) < 200 and "sys." not in message


def test_iso_rejects_malformed_grid_that_no_member_reads(capsys):
    # family (a) has no free parameter, so "junk" used to exit 0 and be echoed
    code, doc = run_cli(capsys, "iso", "--m", "12", "--family", "a", "--max-size", "1",
                        "--grid", "0,junk")
    assert code == 2
    assert doc["error"] == {
        "type": "validation",
        "message": "cannot parse scalar 'junk'; expected e.g. 1/2*w^2 - w + 3",
    }


@pytest.mark.parametrize("grid", ["", ","])
def test_iso_rejects_empty_grid(capsys, grid):
    # it used to exit 0 and silently drop every member with a free parameter
    code, doc = run_cli(capsys, "iso", "--m", "12", "--max-size", "2", "--grid", grid)
    assert code == 2
    assert doc["error"] == {"type": "validation", "message": "the parameter grid is empty"}


@pytest.mark.parametrize(
    "grid, position", [("0,,1", 2), (" ,1", 1), ("0,1,", 3), ("0, ,1, ", 2)]
)
def test_iso_rejects_a_blank_grid_item(capsys, grid, position):
    # a blank item among nonblank ones used to be dropped, changing the members listed
    code, doc = run_cli(capsys, "iso", "--m", "12", "--max-size", "1", "--family", "c",
                        "--grid", grid)
    assert code == 2
    assert doc["error"] == {
        "type": "validation",
        "message": f"item {position} of the parameter grid is empty",
    }


def test_specs_allow_whitespace_and_lowercase_prefix():
    assert _parse_module(12, " k : ( 2 , 3 ) + (2,3) | 3 + 5 ") == ([(2, 3), (2, 3)], [3, 5])
    assert _parse_param(12, " 1 , 6 , 5 , 6 = 1 ")[(1, 6, 5, 6)] == 1


def test_repeated_parameter_key_is_rejected(capsys):
    # it used to keep the last value: lambda = 2 with exit 0
    code, doc = run_cli(capsys, "liftings", "--m", "12", "--family", "c", "--I", "(1,6)",
                        "--lambda", "1,6,1,6=1;1,6,1,6=2")
    assert code == 2
    assert doc["error"]["type"] == "validation"
    assert "1,6,1,6 is given twice" in doc["error"]["message"]
    with pytest.raises(DomainError, match="1,6,1,6 is given twice"):
        _parse_param(12, "1,6,1,6=1; 1, 6,1,6 =1")


@pytest.mark.parametrize(
    "flag", ["1,6,1,6=1;1,6,1,6", "1,6,1,6=1;5,6,1,6", "1,6,1,6=1;5,6,1,6="]
)
def test_a_keyed_entry_without_a_value_is_named(capsys, flag):
    # the first used to say "given twice", the others "cannot parse scalar ''"
    code, doc = run_cli(capsys, "liftings", "--m", "12", "--family", "c", "--I", "(1,6)+(5,6)",
                        "--lambda", flag)
    entry = flag.split(";")[1]
    assert code == 2
    assert doc["error"] == {
        "type": "validation",
        "message": f"parameter entry {entry!r} in {flag!r} has no value; expected p,q,i,k=value",
    }


def _canonical(kind, pairs, ells):
    text = "+".join(f"({i},{k})" for i, k in pairs)
    if kind == "K":
        text += "|" + "+".join(str(ell) for ell in ells)
    elif kind == "L":
        text = "+".join(str(ell) for ell in ells)
    return f"{kind}:{text}"


_KINDS = st.sampled_from(["I", "L", "K"])
_PAIR_LISTS = st.lists(st.sampled_from([(1, 6), (2, 3), (2, 9), (3, 2), (5, 6)]), max_size=3)
_ELL_LISTS = st.lists(st.sampled_from([1, 3, 5]), max_size=3)


def _spec(kind, pairs, ells):
    return _canonical(kind, pairs if kind != "L" else [], ells if kind != "I" else [])


@settings(max_examples=100, deadline=None)
@given(_KINDS, _PAIR_LISTS, _ELL_LISTS, st.sampled_from(["", " ", "  "]))
def test_generated_module_spec_parses(kind, pairs, ells, pad):
    text = _spec(kind, pairs, ells)
    spaced = pad + re.sub(r"([():+,|])", pad + r"\1" + pad, text) + pad
    assert _canonical(kind, *_parse_module(12, spaced)) == text


@settings(max_examples=300, deadline=None)
@given(
    _KINDS,
    _PAIR_LISTS,
    _ELL_LISTS,
    st.integers(0, 40),
    st.integers(0, 2),
    st.sampled_from(["(", ")", "+", ",", "|", " ", "0", "1", "3", "x", ":", "i"]),
)
def test_accepted_module_spec_round_trips(kind, pairs, ells, at, cut, token):
    # one edit of a valid spec; if the result is accepted it is the canonical
    # rendering of what it parsed to, up to whitespace, leading zeros and the
    # case of the prefix: nothing is skipped
    text = _spec(kind, pairs, ells)
    at = min(at, len(text))
    text = text[:at] + token + text[at + cut:]
    try:
        parsed = _parse_module(12, text)
    except DomainError:
        return
    normal = re.sub(r"\d+", lambda d: str(int(d.group())), re.sub(r"\s", "", text))
    kind = normal.partition(":")[0].upper()
    assert kind + normal[len(kind):] == _canonical(kind, *parsed)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["1", "6", "0", ",", " ", "x", "("]), max_size=12).map("".join))
def test_accepted_parameter_key_round_trips(key_text):
    try:
        (key,) = _parse_param(12, f"{key_text}=1")
    except DomainError:
        return
    digits = re.findall(r"\d+", key_text)
    assert re.sub(r"\s", "", key_text) == ",".join(digits)
    assert key == tuple(int(x) for x in digits)


# -- the output writer ----------------------------------------------------------


def _stdlib(doc):
    return json.dumps(doc, sort_keys=True, indent=2, default=str)


_D12 = DihedralGroup(12)
_EXACT = [
    parse_scalar(12, "w^5 - 1"),
    parse_scalar(12, "3/2"),
    parse_scalar(12, "0"),
    _D12.identity,
    _D12.r(3),
    _D12.s(1),
]
_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2603\U0001f600'), max_size=8
)
_INTS = st.integers() | st.integers(-(2**200), 2**200)
_LEAVES = _TEXT | _INTS | st.booleans() | st.none() | st.sampled_from(_EXACT)
_TREES = st.recursive(
    _LEAVES | st.lists(_TEXT) | st.lists(_INTS),
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, kids, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_writer_matches_the_stdlib_encoder(doc):
    assert encode(doc) == _stdlib(doc)


# keys from three letters: one key set recurs in other insertion orders, at
# other depths, and both as a row of a list and as the value of a key
_SHAPED = st.recursive(
    _LEAVES | st.sampled_from([{}, [], ()]) | st.lists(_INTS, max_size=3),
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(st.sampled_from("abc"), kids, max_size=3)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_SHAPED)
def test_writer_matches_the_stdlib_encoder_on_recurring_key_sets(doc):
    assert encode(doc) == _stdlib(doc)


def test_writer_keeps_nothing_between_calls():
    def snapshot():
        return {
            name: value.copy() if isinstance(value, (dict, list, set)) else value
            for name, value in vars(cli).items()
        }

    before = snapshot()
    row = {"b": 1, "a": [2, 3], "c": {}}
    first = {"a": row, "rows": [row, {"c": [], "a": (), "b": {"b": 1, "a": "x"}}]}
    # the same key tuples, one and two levels deeper
    second = [[{"b": 1, "a": [2, 3], "c": {}}], {"x": {"y": [{"b": 1, "a": "x"}]}}]
    for doc in (first, second, first):
        assert encode(doc) == _stdlib(doc)
    assert snapshot() == before


@pytest.mark.parametrize("case", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_writer_matches_the_stdlib_encoder_on_golden_payloads(case, capsys, monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "encode", lambda doc: docs.append(doc) or encode(doc))
    assert main(list(case["argv"])) == case["exit"]
    (doc,) = docs
    assert capsys.readouterr().out == _stdlib(doc) + "\n"


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{(1, 2): 3}]}, {None: 0}])
def test_writer_rejects_non_str_keys(doc):
    with pytest.raises(TypeError):
        encode(doc)


# -- one parser for every call ------------------------------------------------------


def _fresh_run(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(nichols_dm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "nichols_dm.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout


def _golden(name):
    (case,) = [c for c in COMMANDS if c["name"] == name]
    return case["argv"], case["exit"], (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_parser_keeps_no_state_between_calls(capsys):
    iso_w3 = ["iso", "--m", "12", "--max-size", "2", "--grid", "0,w^3"]
    steps = [
        (iso_w3, *_fresh_run(iso_w3)),
        _golden("iso_m12_size2"),  # the default grid comes back
        _golden("verify_m12_c_budget0"),
        _golden("verify_m12_c"),  # the budget does not stay
        _golden("nichols_m12_finite"),
        _golden("iso_m12_size2"),
    ]
    for argv, code, out in steps:
        assert main(list(argv)) == code
        assert capsys.readouterr().out == out
    # an argparse error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "12", "--family", "z", "--I", "(1,6)+(5,6)"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    argv, code, out = _golden("verify_m12_c")
    assert main(list(argv)) == code
    assert capsys.readouterr().out == out


# -- the ceiling on --m ---------------------------------------------------------------


CEILING_CASES = [
    ["classify"],
    ["nichols", "--module", "I:(1,6)"],
    ["liftings", "--family", "c", "--I", "(1,6)"],
    ["verify", "--family", "c", "--I", "(1,6)"],
    ["iso"],
    ["rack", "--class", "s"],
    ["reps"],
]


@pytest.mark.parametrize("argv", CEILING_CASES, ids=[a[0] for a in CEILING_CASES])
def test_m_above_the_ceiling_is_rejected_before_any_work(capsys, monkeypatch, argv):
    groups = []
    monkeypatch.setattr(cli, "DihedralGroup", groups.append)
    before = cyclotomic_polynomial.cache_info()
    code, doc = run_cli(capsys, argv[0], "--m", str(M_MAX + 1), *argv[1:])
    assert code == 2
    assert doc["error"] == {
        "type": "validation",
        "message": f"m = {M_MAX + 1} exceeds the ceiling {M_MAX}",
    }
    assert cyclotomic_polynomial.cache_info() == before
    assert groups == []


def test_m_at_the_ceiling_is_accepted(capsys):
    n = M_MAX // 2
    code, doc = run_cli(capsys, "liftings", "--m", str(M_MAX), "--family", "c", "--I", f"(1,{n})")
    assert code == 0
    assert doc["presentation"]["m"] == M_MAX
