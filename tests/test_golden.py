"""Golden outputs: fixed CLI commands must keep their stdout and exit code.

Each command in ``tests/golden/commands.json`` runs through ``cli.main``;
its stdout must equal ``tests/golden/<name>.out`` byte for byte and its exit
code must equal the recorded one.  The fixtures are the "same behaviour"
gate for refactors: a change that alters any of them changes behaviour.

``tests/golden/manifest.json`` adds breadth: about 1 500 more argvs (every
command, the verify families a-d at m = 12..48 with zero, broadcast and
keyed data, and malformed and out-of-range input), each with the sha256 of
its exit code and stdout.  The test names every argv whose bytes changed.

Regenerate both (only when a behaviour change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from nichols_dm import rewrite
from nichols_dm.classify import enumerate_I, enumerate_K
from nichols_dm.cli import M_MAX, MAX_SIZE, main
from nichols_dm.lifting import family_members, free_parameter_keys

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())
MANIFEST = GOLDEN / "manifest.json"


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def digest(argv) -> str:
    """The sha256 of the exit code and stdout of one command."""
    code, stdout = run(argv)
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


@pytest.mark.parametrize("case", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_golden_output(case):
    code, stdout = run(case["argv"])
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert stdout == expected
    assert code == case["exit"]


def test_manifest_output():
    entries = json.loads(MANIFEST.read_text())
    changed = [" ".join(e["argv"]) for e in entries if digest(e["argv"]) != e["sha256"]]
    assert not changed, f"{len(changed)} of {len(entries)} commands changed:\n" + "\n".join(changed)


def test_verify_compiles_every_family_relation_from_its_integers(monkeypatch):
    # no verify command of the manifest multiplies a relation out, reduces
    # it, orients it or splits its rule, and none changes its bytes
    def general(*args):
        raise AssertionError("a relation took the general route")

    monkeypatch.setattr(rewrite, "_relation_element", general)
    monkeypatch.setattr(rewrite, "_quadratic_split", general)
    monkeypatch.setattr(rewrite.RewriteSystem, "_orient", general)
    monkeypatch.setattr(rewrite.RewriteSystem, "reduce", general)
    entries = [e for e in json.loads(MANIFEST.read_text()) if e["argv"][0] == "verify"]
    assert len(entries) > 600
    assert [e["argv"] for e in entries if digest(e["argv"]) != e["sha256"]] == []


def _pairs(I) -> str:
    return "+".join(f"({i},{k})" for i, k in I)


def _spread(items, count):
    """At most `count` items, evenly spaced, the first and last included."""
    if len(items) <= count:
        return list(items)
    return [items[round(j * (len(items) - 1) / (count - 1))] for j in range(count)]


def _verify_argvs(m):
    """Families a-d up to size 2, eight members each, with the zero datum; c and d also
    with --lambda 1, with w^3 - 2 on every parameter and with a value on the first free key."""
    for family in "abcd":
        for I, L in _spread(list(family_members(m, family, 2)), 8):
            argv = ["verify", "--m", str(m), "--family", family]
            argv += ["--I", _pairs(I)] if I else []
            argv += ["--L", "+".join(map(str, L))] if L else []
            yield argv
            if family in "ab":
                continue
            yield argv + ["--lambda", "1"]
            names = ("lambda", "gamma") + (("theta", "mu") if family == "d" else ())
            yield argv + [f"--{name}=w^3 - 2" for name in names]
            free = free_parameter_keys(m, I, L)
            if free:
                name, key = free[0]
                yield argv + [f"--{name}", ",".join(map(str, key)) + "=2*w - 1/2"]


def manifest_argvs():
    """The fixed job set of the manifest, in order."""
    jobs = []
    for m in range(12, 49, 4):
        jobs += [["classify", "--m", str(m), "--max-size", str(s)] for s in (1, 2)]
        jobs.append(["reps", "--m", str(m)])
        n = m // 2
        for cls in ("e", "s", "sr", "r^1", f"r^{n}", f"r^{n - 1}", f"r^{m}"):
            jobs.append(["rack", "--m", str(m), "--class", cls])
        for family in "abcd":
            for I, L in _spread(list(family_members(m, family, 2)), 3):
                argv = ["liftings", "--m", str(m), "--family", family]
                argv += ["--I", _pairs(I)] if I else []
                argv += ["--L", "+".join(map(str, L))] if L else []
                jobs.append(argv)
                if family in "cd":
                    jobs.append(argv + ["--lambda", "1", "--gamma=-w^5"])
        jobs += list(_verify_argvs(m))
    for m in (12, 16, 20):
        n = m // 2
        jobs += [["nichols", "--m", str(m), "--module", f"I:({i},{k})"]
                 for i in range(n + 1) for k in range(m + 1)]
        jobs += [["nichols", "--m", str(m), "--module", f"L:{ell}"] for ell in range(n + 1)]
        jobs += [["nichols", "--m", str(m), "--module", f"I:{_pairs(I)}"]
                 for I in enumerate_I(m, 2) if len(I) == 2]
        jobs += [["nichols", "--m", str(m), "--module",
                  f"K:{_pairs(I)}|{'+'.join(map(str, L))}"] for I, L in enumerate_K(m, 3)]
    for m in range(12, 29, 4):
        for size in (1, 2):
            for grid in ("0,1", "0,w^3,-1"):
                jobs.append(["iso", "--m", str(m), "--max-size", str(size), "--grid", grid])
        jobs += [["iso", "--m", str(m), "--family", f, "--max-size", "2"] for f in ("ab", "cd")]
    for m in (24, 36, 48):  # the certify-deep shape: |I| + |L| = 6, zero data
        jobs.append(["verify", "--m", str(m), "--family", "c",
                     "--I", _pairs([next(enumerate_I(m, 1))[0]] * 6)])
    # the irreducible survey above m = 48, where a witness has up to phi(m) = 64 terms
    jobs += [["classify", "--m", "64", "--max-size", "3"],
             ["classify", "--m", "100", "--max-size", "1"],
             ["classify", "--m", "128", "--max-size", "1"]]
    jobs += [
        # out of range, malformed and refused input, and overlap budgets
        ["classify", "--m", "8"], ["classify", "--m", "13"], ["classify", "--m", "30"],
        ["classify", "--m", "12", "--max-size", str(MAX_SIZE + 1)],
        ["iso", "--m", "12", "--max-size", str(MAX_SIZE + 1)],
        ["reps", "--m", str(M_MAX + 1)], ["reps", "--m", "15"],
        ["rack", "--m", "7", "--class", "s"],
        ["rack", "--m", "12", "--class", "r^x"], ["rack", "--m", "12", "--class", "t"],
        ["nichols", "--m", "12", "--module", "(1,6)"],
        ["nichols", "--m", "12", "--module", "I:(9,6)"],
        ["nichols", "--m", "12", "--module", "I:(1,6)+(5,6"],
        ["nichols", "--m", "12", "--module", "I:(1,6)junk(5,6)"],
        ["nichols", "--m", "12", "--module", "L:1x3"],
        ["nichols", "--m", "12", "--module", "K:(2,3)"],
        ["nichols", "--m", "12", "--module", "Q:(2,3)"],
        ["nichols", "--m", "12", "--module", "I:"],
        ["liftings", "--m", "12", "--family", "c", "--I", "(1,6)+(5,6)",
         "--lambda", "1,6,5,6junk=1"],
        ["liftings", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "1 1"],
        ["liftings", "--m", "12", "--family", "c", "--I", "(1,6)",
         "--lambda", "1,6,1,6=1;1,6,1,6=2"],
        ["liftings", "--m", "12", "--family", "a", "--I", "(1,6)"],
        ["liftings", "--m", "12", "--family", "c", "--I", "(2,3)"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "1/0"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "99*w"],
        ["verify", "--m", "12", "--family", "a", "--I", "(2,3)", "--lambda", "0"],
        ["verify", "--m", "12", "--family", "b", "--L", "1", "--mu", "0"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--theta", "1,6,1=0"],
        ["verify", "--m", "12", "--family", "d", "--I", "(2,3)", "--L", "3", "--mu", "1"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--lambda", "5,6,5,6=1"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)+(5,6)", "--lambda", "1",
         "--overlap-budget", "3"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)+(5,6)", "--overlap-budget", "20"],
        ["verify", "--m", "12", "--family", "c", "--I", "(1,6)", "--overlap-budget", "-1"],
        ["iso", "--m", "12", "--grid", "0,1/0"], ["iso", "--m", "12", "--grid", ","],
        ["iso", "--m", "12", "--family", "c", "--grid", "0,,1"],
        ["iso", "--m", "12", "--family", "a", "--max-size", "1", "--grid", "0,junk"],
    ]
    return jobs


def regenerate():
    for case in COMMANDS:
        code, stdout = run(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_text(stdout, encoding="utf-8")
        case["exit"] = code
    lines = ",\n".join("  " + json.dumps(case) for case in COMMANDS)
    (GOLDEN / "commands.json").write_text(f"[\n{lines}\n]\n")
    entries = [{"argv": argv, "sha256": digest(argv)} for argv in manifest_argvs()]
    lines = ",\n".join("  " + json.dumps(entry) for entry in entries)
    MANIFEST.write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    regenerate()
