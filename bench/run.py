"""Benchmark of the nichols-dm command line, run in-process.

    python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 0

runs rounds of the workload's CLI jobs (see workloads.py) through
``nichols_dm.cli.main(argv)`` one at a time, in a closed loop with one
client, and checks every job's JSON output (checks.py).  It runs whole
rounds, each drawn afresh from the seed, until ``--seconds`` have passed
and at least enough jobs were timed for the workload's tail percentile.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
fixed host speed: every job is bracketed by a fixed reference loop of the
benchmark's own (``reference_loop``), and a job's time is its wall time
times ``REFERENCE_S`` over the mean time of the two loops beside it.  The
host of this benchmark switches between speeds about 1.8x apart for
seconds to minutes at a time; the loop slows with the job, so the scaled
time follows the program, not the host (see README.md, Noise).

``--trace 1`` runs each round twice, untraced and then with tracing.py's
spans installed, reports the per-layer metrics (per traced job, unscaled)
with the tracing overhead, and writes the spans to ``bench/out/``.  The package is imported from
``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
# seconds the reference loop takes at the nominal host speed, to which every
# end-to-end time is scaled (the faster regime of the development host)
REFERENCE_S = 0.008

# Per-layer metrics, each per traced job: the self time of every span name,
# the calls of the span names below, and the counters below.
LAYER_SPANS = [
    "cli.main", "classify.irreducible_survey", "classify.theorem_A_report",
    "classify.enumerate", "dihedral.centralizer", "dihedral.class_of",
    "rack.is_type_D", "ydmod.induce", "ydmod.nichols_dimension",
    "lifting.presentation", "lifting.datum_build", "rewrite.compile",
    "rewrite.hopf_check", "rewrite.normal_basis", "rewrite.certificate_json",
    "iso.iso_classes", "iso.is_isomorphic",
]
COUNTED_SPANS = [
    "dihedral.centralizer", "dihedral.class_of", "rack.is_type_D", "ydmod.induce",
    "ydmod.nichols_dimension", "lifting.presentation", "lifting.datum_build",
    "rewrite.compile", "rewrite.normal_basis", "iso.is_isomorphic",
]
COUNTERS = ["rewrite.ambiguities_checked", "rewrite.normal_words", "cyclo.mul.calls",
            "cyclo.inverse.calls"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="do the set-up of a run, print the monotonic clock and two "
                        "reference-loop times, and exit")
    return p.parse_args(argv)


def set_up(args):
    """Everything a run does before its first timed job: the runner it times them with."""
    from nichols_dm import cli

    workload, rng = workloads.make(args.workload, args.seed)
    code, _, _ = call_cli(cli.main, workload.warmup)
    if code != 0:
        raise SystemExit(f"warm-up job {workload.warmup} exited {code}")
    return Runner(cli.main, workload, rng)


def call_cli(main, argv):
    """One job: the exit code, stdout, and the wall time of ``main(argv)``.

    The garbage of the job is collected after the clock stops, so that each
    job starts, as a command-line call would, without the previous job's.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    gc.collect()
    return code, buf.getvalue(), elapsed


def reference_loop() -> int:
    """Fixed work of the kind the program does: tuple keys, dict updates, int arithmetic."""
    table: dict = {}
    for i in range(20000):
        key = ((i * 7919) % 1009, i & 7)
        table[key] = table.get(key, 0) + i * i % 97
    return sum(table.values())


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scaled(elapsed, ref_before, ref_after) -> float:
    """`elapsed` at the nominal host speed, from the reference loops run beside it."""
    return elapsed * REFERENCE_S * 2 / (ref_before + ref_after)


def measure_setup(args) -> list[float]:
    """Launch-to-first-job times of fresh interpreters doing this run's set-up, scaled.

    Each probe reads the clock when its set-up is done, then times the
    reference loop twice in its own process, on the CPU it ran on.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        done, *refs = map(float, proc.stdout.split()[-3:])
        samples.append(scaled(done - launched, *refs))
    return samples


class Runner:
    """Runs whole rounds of jobs, timing and checking each one.

    `times` holds the wall time of every timed job, `scaled_times` the same
    times scaled to the nominal host speed, and `ref_times` every reference
    loop, one after each job and one before the first.
    """

    def __init__(self, main, workload, rng):
        self.main, self.workload, self.rng = main, workload, rng
        self.times: list[float] = []
        self.scaled_times: list[float] = []
        self.ref_times: list[float] = []
        self.attempted = self.failed = self.rounds_drawn = 0
        self.problems: list[str] = []

    def run_round(self, jobs, tracer=None) -> float:
        """Run `jobs` in order; return the summed wall time of the timed jobs."""
        main = self.main if tracer is None else functools.partial(tracer.call, "cli.main", self.main)
        busy = 0.0
        if not self.ref_times:
            self.ref_times.append(time_reference())
        for job in jobs:
            self.attempted += 1
            if tracer is not None:
                tracer.job = self.attempted
            try:
                code, out, elapsed = call_cli(main, job["argv"])
            except (Exception, SystemExit):
                self.ref_times.append(time_reference())
                self.failed += 1
                print(f"# job failed: {job['argv']}\n{traceback.format_exc()}", file=sys.stderr)
                continue
            self.ref_times.append(time_reference())
            if code != 0:
                self.failed += 1
                print(f"# job exited {code}: {job['argv']}\n{out}", file=sys.stderr)
                continue
            busy += elapsed
            self.times.append(elapsed)
            self.scaled_times.append(scaled(elapsed, *self.ref_times[-2:]))
            try:
                checks.check(job, code, json.loads(out))
            except (checks.CheckFailure, ValueError, KeyError, TypeError) as exc:
                self.problems.append(f"{job['argv']}: {type(exc).__name__}: {exc}")
        return busy

    def run_for(self, seconds, min_rounds) -> int:
        """Whole rounds until `seconds` have passed and `min_rounds` are done."""
        start, rounds = time.perf_counter(), 0
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            self.run_round(self.next_round())
            rounds += 1
        return rounds

    def next_round(self) -> list[dict]:
        """The workload's first round, then fresh ones drawn from the seed's generator."""
        if self.rounds_drawn:
            jobs = workloads.draw(self.workload.name, self.rng)
        else:
            jobs = list(self.workload.jobs)
            self.rng.shuffle(jobs)
        self.rounds_drawn += 1
        return jobs


def tail_percentile(times, pct):
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def end_to_end(args, runner, setup_samples):
    wl = runner.workload
    rounds = runner.run_for(args.seconds, wl.min_rounds)
    times = runner.scaled_times
    beyond = len(times) - math.ceil(wl.tail_pct / 100 * len(times))
    print(f"# {wl.name} seed {args.seed}: {len(times)} timed jobs in "
          f"{rounds} rounds of {len(wl.jobs)}; "
          f"job_tail_s is p{wl.tail_pct} with {beyond} samples beyond it; "
          f"scaled setup samples {[round(s, 4) for s in setup_samples]}")
    print(f"# unscaled: job p50 {statistics.median(runner.times):.4f} s, "
          f"{len(times) / sum(runner.times):.3f} jobs/s; reference loop median "
          f"{statistics.median(runner.ref_times) * 1e3:.2f} ms (nominal "
          f"{REFERENCE_S * 1e3:g} ms)")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_percentile(times, wl.tail_pct), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(args, runner):
    wl = runner.workload
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    rounds, start = 0, time.perf_counter()
    # pairs of rounds in one order, untraced then traced, so that both see
    # the same state of the host
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        jobs = runner.next_round()
        untraced += runner.run_round(jobs)
        tracer.install()
        try:
            traced += runner.run_round(jobs, tracer)
        finally:
            tracer.uninstall()
        rounds += 1
    jobs = rounds * len(wl.jobs)
    calls, self_s = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = (self_s[name] / jobs, "s")
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = (calls[name] / jobs, "1")
    for name in COUNTERS:
        metrics[name] = (counts[name] / jobs, "1")
    verify_jobs = jobs if wl.jobs[0]["kind"] == "verify" else 0
    nb_calls, iso_calls = calls["rewrite.normal_basis"], calls["iso.is_isomorphic"]
    metrics["rewrite.normal_basis.useful_ratio"] = (verify_jobs / nb_calls if nb_calls else 0.0, "1")
    metrics["iso.is_isomorphic.hit_ratio"] = (
        counts["iso.is_isomorphic.hits"] / iso_calls if iso_calls else 0.0, "1")
    metrics["trace.overhead_s"] = ((traced - untraced) / jobs, "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.dump(path, {"workload": wl.name, "seed": args.seed, "jobs": jobs})
    print(f"# {wl.name} seed {args.seed}: {rounds} rounds ({jobs} jobs) untraced "
          f"{untraced:.3f} s, traced {traced:.3f} s, overhead "
          f"{(traced - untraced) / untraced:+.1%}; {len(tracer.spans)} spans in {path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nichols_dm" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        set_up(args)
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(repr(done), repr(time_reference()), repr(time_reference()))
        return 0
    # import once here, so that every probe finds compiled bytecode
    import nichols_dm.cli  # noqa: F401

    setup_samples = measure_setup(args) if not args.trace else []
    runner = set_up(args)
    if args.trace:
        metrics = per_layer(args, runner)
    else:
        metrics = end_to_end(args, runner, setup_samples)
    for problem in runner.problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
