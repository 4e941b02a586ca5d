"""Tests of the benchmark itself: a corrupted output or golden value must count
as a failure, and the tracer must measure and restore what it wraps.

    python3 -m pytest perfbench -q
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def one_job(bench, label):
    job = bench.prepare(label, random.Random(7))
    return job()


def test_catalog_emit_flags_corrupted_stdout_and_golden(tmp_path):
    bench = workloads.CatalogEmit(tmp_path, None)
    done = one_job(bench, "cusp/S01")
    assert bench.check("cusp/S01", done)
    flipped = SimpleNamespace(returncode=0, stdout=done.stdout.replace(b"1", b"2", 1))
    assert not bench.check("cusp/S01", flipped)
    assert not bench.check("cusp/S01", SimpleNamespace(returncode=2, stdout=done.stdout))
    bench.golden["emit"]["cusp/S01"] = "0" * 64
    assert not bench.check("cusp/S01", done)


def test_torus_solve_flags_golden_and_brute_force_mismatch(tmp_path):
    label = "normal_crossing_3/S01"
    bench = workloads.TorusSolve(tmp_path, None)
    problem = one_job(bench, label)
    assert bench.check(label, problem)
    assert bench._brute[label] == {"0": 2, "3": 1}
    bench._brute[label] = {"0": 2}
    assert not bench.check(label, problem)
    bench = workloads.TorusSolve(tmp_path, None)
    bench.golden["solve"][label]["equations"] += 1
    assert not bench.check(label, problem)


def test_residue_rank_eigenvalue_oracle_and_golden(tmp_path):
    bench = workloads.ResidueRank(tmp_path, random.Random(1))
    label = "borel2/diag(0,1,2)~conj"
    assert bench.check(label, one_job(bench, label))
    assert bench.finish() == set()
    bench.eigenvalues[label] = [0, 1, 3]
    assert bench.finish() == {label}
    bench.golden["solve"]["borel2/diag(0,1,2)"]["coordinates"] += 1
    assert not bench.check(label, one_job(bench, label))


def test_point_check_flags_wrong_verdict_and_golden(tmp_path):
    bench = workloads.PointCheck(tmp_path, None)
    label = "sekiguchi_b5/S01"
    report = one_job(bench, label)
    assert bench.check(label, report)
    wrong = SimpleNamespace(violations=report.violations[1:], in_variety=not report.violations[1:])
    assert not bench.check(label, wrong)
    bench.golden["solve"][label]["coordinates"] += 1
    assert not bench.check(label, report)


def test_a_raising_job_counts_as_failed():
    class Raising(workloads.Workload):
        name = "fake"
        labels = ["a", "b"]

        def prepare(self, label, rng):
            if label == "a":
                return lambda: 1 / 0
            return lambda: label

        def check(self, label, result):
            return result == label

        def finish(self):
            return {"b"} if self.oracle_fails else set()

    bench = Raising()
    args = SimpleNamespace(workload="fake", seed=0)
    jobs = run.checked(bench, run.run_round(bench, args, 0))
    assert sorted(ok for _, _, _, ok in jobs) == [False, True]
    bench.oracle_fails = False
    assert run.count_failed(bench, jobs) == 1
    bench.oracle_fails = True
    assert run.count_failed(bench, jobs) == 2


def test_self_time_and_restore():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    incl, own = spans.durations(tracer.spans)
    assert own[0] == pytest.approx(incl[0] - incl[1])
    assert spans.largest_children(tracer.spans, [0])[0][0] == "inner"

    import logres.linear
    import logres.moduli
    original = logres.moduli.rref
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert logres.moduli.rref is not original and logres.linear.rref is not original
        logres.moduli.rref(logres.RationalMatrix([[1, 2], [2, 4]]))
        logres.WeightedPoly.constant(3, (1,))
    finally:
        tracer.uninstall()
    assert logres.moduli.rref is original and logres.linear.rref is original
    metrics = spans.layer_metrics(tracer)
    assert metrics["linear.rref.calls"] == 1 and metrics["linear.rref.cells"] == 4
    assert metrics["polynomials.poly_init.count"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "torus_solve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
