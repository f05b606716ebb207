import json

import pytest

from nichols_dm.cli import main


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
