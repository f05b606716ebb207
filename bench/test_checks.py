"""Each correctness check of the benchmark rejects a corrupted output.

    python3 -m pytest bench -q

The outputs are made fresh by the CLI at m = 12 and then corrupted in one
place each; the unmodified outputs must pass.
"""

import copy
import functools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import arith  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nichols_dm import cli  # noqa: E402

M = 12
JOBS = {
    "classify": {"kind": "classify", "m": M, "max_size": 2,
                 "argv": ["classify", "--m", "12", "--max-size", "2"]},
    "iso": {"kind": "iso", "m": M, "max_size": 2, "grid": ["0", "w"],
            "argv": ["iso", "--m", "12", "--max-size", "2", "--grid", "0,w"]},
    "verify": workloads._verify_job(M, "d", I=[(2, 3), (2, 9)], L=[3],
                                    params={"lambda": "w", "mu": "-1/3"}),
}


@pytest.fixture(scope="module")
def outputs():
    out = {}
    for kind, job in JOBS.items():
        code, text, _ = run.call_cli(cli.main, job["argv"])
        out[kind] = (code, json.loads(text))
    return out


def rejected(kind, code, doc):
    with pytest.raises(checks.CheckFailure):
        checks.check(JOBS[kind], code, doc)


@pytest.mark.parametrize("kind", sorted(JOBS))
def test_unmodified_output_passes(outputs, kind):
    code, doc = outputs[kind]
    checks.check(JOBS[kind], code, doc)


@pytest.mark.parametrize("field", ["dimension", "certificate.normal_words"])
def test_dimension_off_by_a_factor(outputs, field):
    code, doc = outputs["verify"]
    doc = copy.deepcopy(doc)
    owner, _, key = field.rpartition(".")
    target = doc[owner] if owner else doc
    target[key] *= 2
    rejected("verify", code, doc)


def test_failed_hopf_axiom(outputs):
    code, doc = outputs["verify"]
    doc = copy.deepcopy(doc)
    doc["hopf"]["antipode_ok"] = False
    rejected("verify", 1, doc)


@pytest.mark.parametrize("verdict", ["finite", "infinite"])
def test_flipped_survey_verdict(outputs, verdict):
    code, doc = outputs["classify"]
    doc = copy.deepcopy(doc)
    row = next(r for r in doc["report"]["irreducibles"] if r["verdict"] == verdict)
    row["verdict"] = "infinite" if verdict == "finite" else "finite"
    rejected("classify", code, doc)


def test_family_that_is_not_pairwise_related(outputs):
    code, doc = outputs["classify"]
    doc = copy.deepcopy(doc)
    unrelated = next((a, b) for a in arith.support_J(M) for b in arith.support_J(M)
                     if a < b and not arith.related(a, b, M))
    doc["report"]["families"]["I"][-1]["I"] = [list(p) for p in unrelated]
    rejected("classify", code, doc)


def _orbit(doc, family):
    return next(o for o in doc["orbits"] if o["family"] == family and o["orbit_size"] > 1)


@pytest.mark.parametrize("family", ["a", "b", "c", "d"])
@pytest.mark.parametrize("fix_size", [False, True])
def test_orbit_with_a_member_dropped(outputs, family, fix_size):
    code, doc = outputs["iso"]
    doc = copy.deepcopy(doc)
    orbit = _orbit(doc, family)
    orbit["members"].pop()
    if fix_size:
        orbit["orbit_size"] -= 1
    rejected("iso", code, doc)


@pytest.mark.parametrize("family", ["a", "c"])
def test_wrong_witness_unit(outputs, family):
    code, doc = outputs["iso"]
    doc = copy.deepcopy(doc)
    orbit = _orbit(doc, family)
    member = next(mem for mem in orbit["members"] if mem["I"] != orbit["representative"]["I"])
    rep_I = orbit["representative"]["I"]
    member["witness_unit"] = next(
        u for u in arith.units(M)
        if arith.act_I(u, rep_I, M) != tuple(sorted(map(tuple, member["I"])))
    )
    rejected("iso", code, doc)


def test_workloads_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first, rng = workloads.make(name, 7)
        again, rng_again = workloads.make(name, 7)
        assert first.jobs == again.jobs
        assert len(first.jobs) * first.min_rounds * (100 - first.tail_pct) >= 1000
        for _ in range(2):
            fresh = workloads.draw(name, rng)
            assert fresh == workloads.draw(name, rng_again)
            # a fresh round keeps the make-up of the first one
            assert len(fresh) == len(first.jobs)
            assert sorted((job["kind"], job.get("m"), job.get("family")) for job in fresh) == \
                sorted((job["kind"], job.get("m"), job.get("family")) for job in first.jobs)


def test_tracer_spans_and_restores_the_package():
    import tracing
    from nichols_dm import rewrite, ydmod

    originals = (rewrite.normal_basis, ydmod.centralizer)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ydmod.centralizer is not originals[1]
        code, _, _ = run.call_cli(functools.partial(tracer.call, "cli.main", cli.main),
                                  JOBS["verify"]["argv"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (rewrite.normal_basis, ydmod.centralizer) == originals
    calls, self_s = tracer.layer_totals()
    assert calls["cli.main"] == 1 and calls["rewrite.compile"] == 1
    assert calls["rewrite.normal_basis"] == 2
    assert tracer.counts["rewrite.normal_words"] == 2 * 4**3
    spans = {span[0]: span for span in tracer.spans}
    assert tracer.spans[spans["rewrite.compile"][3]][0] == "cli.main"
    assert all(value >= 0 for value in self_s.values())


def test_scaling_to_the_nominal_host_speed():
    nominal = run.REFERENCE_S
    assert run.scaled(0.5, nominal, nominal) == pytest.approx(0.5)
    # a host running the reference loop at half speed ran the job at half speed
    assert run.scaled(1.0, 2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert run.scaled(0.9, 2 * nominal, nominal) == pytest.approx(0.6)


def test_runner_scales_every_timed_job():
    workload, rng = workloads.make("survey", 1)
    runner = run.Runner(cli.main, workload, rng)
    runner.run_round(workload.jobs[:2])
    assert runner.attempted == 2 and runner.failed == 0 and not runner.problems
    assert len(runner.ref_times) == 3 and len(runner.scaled_times) == 2
    for k, (wall, scaled) in enumerate(zip(runner.times, runner.scaled_times)):
        assert scaled == pytest.approx(run.scaled(wall, *runner.ref_times[k:k + 2]))
