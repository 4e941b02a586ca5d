"""The logres benchmark: one seeded workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seed N]

Run from anywhere; the library is imported from ``src/`` next to this
directory.  NAME is catalog_emit, torus_solve, residue_rank or point_check.
With ``--trace 0`` the run repeats rounds (each input once, in a seeded order)
for about S seconds and reports the end-to-end metrics.  With ``--trace 1``
it runs one round untraced and the same round again with span wrappers
installed, and reports per-layer metrics; that run has a fixed size, so its
counts repeat exactly for a seed.  ``--selfcheck`` traces every workload
twice with one seed and fails unless the counts and outputs are identical.
A completed run ends with one JSON line; without ``src/logres`` the command
exits with code 2 and prints none.  Times are paced (see pacing.py).  See
README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pacing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog_emit", "torus_solve", "residue_rank", "point_check")
SETUP_SAMPLES = 5  # setup_s is the median of this many set-ups, each in a fresh process
END_TO_END_UNITS = {"setup_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}
RATIOS = ("roots_per_trial", "calls_per_divisor", "kept_per_candidate", "trace.overhead")


def layer_unit(name):
    if name.endswith(RATIOS):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "B" if name.endswith("bytes") else "count"


def load_program():
    """Import the benchmark's workloads, which import logres from ``src/``."""
    if not (SRC / "logres" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no logres sources at {SRC}; run from a logres checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def make_bench(args, workdir):
    workloads = load_program()
    rng = random.Random(f"perfbench:{args.workload}:{args.seed}:inputs")
    return workloads.WORKLOADS[args.workload](workdir, rng)


def run_round(bench, args, index, tracer=None):
    """Run every input once in a seeded order.

    Returns (label, seconds, paced seconds, result, raised) per job; see
    pacing.py for the paced time.  Round ``index`` of a seed always runs
    the same jobs on the same inputs.  Jobs are prepared before the first one
    starts, so that drawing inputs happens outside the timing and any span.
    """
    rng = random.Random(f"perfbench:{args.workload}:{args.seed}:round{index}")
    jobs = [(label, bench.prepare(label, rng)) for label in rng.sample(bench.labels, len(bench.labels))]
    timed = []
    pace = pacing.loop_pace()
    for label, job in jobs:
        gc.collect()
        rec = tracer.open("perfbench.job") if tracer else None
        raised = False
        start = time.perf_counter()
        try:
            result = job()
        except Exception as exc:  # a failing job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            result, raised = exc, True
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(rec, raised, {"label": label})
        pace_after = pacing.loop_pace()
        timed.append((label, elapsed, pacing.paced(elapsed, pace, pace_after), result, raised))
        pace = pace_after
    return timed


def checked(bench, results):
    """(label, seconds, paced seconds, ok) per job; not ok if it raised or its output is wrong."""
    return [(label, elapsed, paced, not raised and bench.check(label, result))
            for label, elapsed, paced, result, raised in results]


def count_failed(bench, jobs):
    """Failed jobs, counting every job of an input whose after-the-loop oracle failed."""
    bad_inputs = bench.finish()
    return sum(1 for label, _, _, ok in jobs if not ok or label in bad_inputs)


def setup_seconds(args, first):
    """Median paced set-up time over SETUP_SAMPLES processes, this one included."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                               "--workload", args.workload, "--seed", str(args.seed)],
                              capture_output=True, text=True, cwd=ROOT, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})


def measure(args, bench, setup_first):
    loop_start = time.perf_counter()
    results = []
    round_medians = []
    rounds = 0
    while True:
        # outputs are checked and dropped round by round
        jobs = checked(bench, run_round(bench, args, rounds))
        rounds += 1
        results.extend(jobs)
        round_medians.append(statistics.median(paced for _, _, paced, _ in jobs))
        spent = time.perf_counter() - loop_start
        if spent + spent / rounds > args.seconds:
            break
    rss_mb = bench.peak_rss_kb() / 1024
    failed = count_failed(bench, results)
    latencies = [paced for _, _, paced, _ in results]
    raw = [elapsed for _, elapsed, _, _ in results]
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1] if n > 1 else latencies[0]
    metrics = {
        "setup_s": setup_seconds(args, setup_first),
        # A round runs every input once.  With an even number of inputs the
        # median of all jobs sits in the gap between two inputs and swings
        # between one's slowest and the other's fastest sample; the median
        # over rounds of each round's median sits midway between their
        # typical times.
        "job_p50_ms": statistics.median(round_medians) * 1000,
        "job_p90_ms": p90 * 1000,
        "jobs_per_s": n / sum(latencies),
        "peak_rss_mb": rss_mb,
    }
    beyond = sum(1 for x in latencies if x > p90)
    print(f"perfbench {args.workload} seed={args.seed} rounds={rounds} jobs={n} "
          f"inputs={len(bench.labels)} jobs_beyond_p90={beyond}"
          + ("" if beyond >= 10 else " (fewer than ten: the p90 is the slowest input's typical time)"))
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_frac':<14} {failed / n:12.4f} ratio ({failed} of {n} jobs)")
    print(f"  unpaced: job_p50_ms {statistics.median(raw) * 1000:.4f}, jobs_per_s {n / sum(raw):.4f}, "
          f"pace {statistics.median(elapsed / paced for elapsed, paced in zip(raw, latencies)):.3f}x reference")
    print(result_line(failed == 0, n, failed, metrics, END_TO_END_UNITS))


def traced(args, bench):
    from spans import Tracer, layer_metrics, write_jsonl

    plain = run_round(bench, args, 0)
    tracer = Tracer()
    if bench.name == "catalog_emit":
        bench.traced = tracer  # the wrappers live in each child process
    else:
        tracer.install()
    try:
        results = run_round(bench, args, 0, tracer)
    finally:
        tracer.uninstall()
    attempted = 2 * len(results)
    failed = count_failed(bench, checked(bench, plain + results))
    metrics = layer_metrics(tracer)
    plain_s = sum(r[2] for r in plain)
    traced_s = sum(r[2] for r in results)
    metrics["trace.overhead"] = traced_s / plain_s
    digest = hashlib.sha256()
    for label, _, _, result, raised in results:
        digest.update(label.encode() + b"\0" + (b"raised" if raised else bench.output_bytes(label, result)) + b"\0")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    write_jsonl(tracer.spans, spans_file)

    n = len(results)
    print(f"perfbench {args.workload} seed={args.seed} traced jobs={n} spans={len(tracer.spans)} -> {spans_file}")
    print(f"  tracing overhead: jobs_per_s {n / traced_s:.3f} traced against {n / plain_s:.3f} untraced")
    print(f"  outputs_sha256 {digest.hexdigest()}")
    for line in stress_report(args.workload, tracer.spans):
        print(f"  stress: {line}")
    units = {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"  {name:<46} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':<46} {failed / attempted:14.6g} ratio ({failed} of {attempted} jobs)")
    print(result_line(failed == 0, attempted, failed, metrics, units))


def stress_report(workload, spans):
    """Lines saying whether the workload's intended layer dominates its jobs."""
    from spans import NAME, PARENT, ATTRS, durations, largest_children, under

    incl, _ = durations(spans)

    def total(name, among=range(len(spans))):
        return sum(incl[i] for i in among if spans[i][NAME] == name)

    def top(pairs):
        return ", ".join(f"{name} {sec:.3f}s" for name, sec in pairs[:3]) or "none"

    def verdict(ok):
        return "ok" if ok else "NOT MET"

    def roots(name, keep=lambda label: True):
        """Spans called ``name`` that a job called directly, for jobs whose label passes ``keep``."""
        return [i for i, s in enumerate(spans) if s[NAME] == name and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == "perfbench.job" and keep(spans[s[PARENT]][ATTRS]["label"])]

    if workload == "torus_solve":
        kids = largest_children(spans, roots("moduli.moduli_system"))
        return [f"largest children of moduli.moduli_system: {top(kids)} -> "
                f"{verdict(bool(kids) and kids[0][0] == 'linear.rref')} (rref expected)"]
    if workload == "residue_rank":
        diagonal = set(roots("moduli.moduli_system", lambda label: not label.endswith("~conj")))
        kids = largest_children(spans, diagonal)
        charpoly = total("linear.charpoly", under(spans, diagonal.__contains__))
        ok = bool(kids) and kids[0][0] == "linear.integer_eigenvalues" and charpoly >= 0.5 * kids[0][1]
        conj = largest_children(spans, roots("moduli.moduli_system", lambda label: label.endswith("~conj")))
        return [f"diagonal jobs, largest children of moduli.moduli_system: {top(kids)}; "
                f"linear.charpoly inside them {charpoly:.3f}s -> {verdict(ok)} (charpoly expected)",
                f"conjugated jobs, largest children of moduli.moduli_system: {top(conj)} "
                "(emission matmul expected)"]
    if workload == "point_check":
        kids = largest_children(spans, roots("moduli.check_point"))
        return [f"largest children of moduli.check_point: {top(kids)} -> "
                f"{verdict(bool(kids) and kids[0][0] == 'divisor.structure_functions')} (structure_functions expected)"]
    jobs, startup, main = total("perfbench.job"), total("cli.import"), total("cli.main")
    rest = jobs - startup - main
    return [f"of {jobs:.3f}s in CLI jobs: interpreter start and exit {rest:.3f}s + cli import {startup:.3f}s "
            f"against cli.main {main:.3f}s -> {verdict(rest + startup > main)} (start-up expected)"]


def selfcheck(args):
    """Trace every workload twice with one seed; counts and outputs must match."""
    problems = []
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", "1", "--trace", "1"],
                                  capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{workload}: traced run failed: {done.stderr.strip()[-500:]}")
                break
            result = json.loads(lines[-1])
            digest = next(line.split()[-1] for line in lines if line.strip().startswith("outputs_sha256"))
            counts = {k: v["value"] for k, v in result["metrics"].items()
                      if v["unit"] != "s" and k != "trace.overhead"}
            runs.append((result["correct"], digest, counts))
        if len(runs) == 2:
            (ok1, d1, c1), (ok2, d2, c2) = runs
            differing = sorted(k for k in c1 if c1[k] != c2.get(k))
            if not (ok1 and ok2):
                problems.append(f"{workload}: outputs failed their checks")
            if d1 != d2:
                problems.append(f"{workload}: outputs differ between the two runs")
            if differing:
                problems.append(f"{workload}: counts differ: {', '.join(differing)}")
            print(f"selfcheck {workload}: {len(c1)} counts, outputs {d1[:16]} "
                  f"{'identical' if d1 == d2 and not differing else 'DIFFER'}")
    for line in problems:
        print(f"selfcheck FAILED {line}")
    ok = not problems
    print(json.dumps({"correct": ok, "attempted": 2 * len(WORKLOADS), "failed": len(problems), "metrics": {}}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="trace every workload twice and compare")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        load_program()
        return selfcheck(args)
    if args.workload is None:
        parser.error("--workload is required")
    # on SIGTERM, unwind: running children are killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One core for this process and its children, so that the pace measured
    # here is the pace the jobs see, wherever they run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pace = pacing.loop_pace()
    start = time.perf_counter()  # setup_s runs from here to the first job
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        bench = make_bench(args, workdir)
        setup_first = pacing.paced(time.perf_counter() - start, pace, pacing.loop_pace())
        if args.setup_only:
            print(f"{setup_first:.9f}")
        elif args.trace:
            traced(args, bench)
        else:
            measure(args, bench, setup_first)
    return 0


if __name__ == "__main__":
    sys.exit(main())
