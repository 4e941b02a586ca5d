"""Write golden.json: the expected outputs the benchmark checks every job against.

    python3 perfbench/freeze_golden.py

Records, per input, the graded dimensions, coordinate and equation counts of
``moduli_system``, and the sha256 of each ``emit-moduli --format json``
stdout.  The committed file was frozen from the commit that introduced the
benchmark; re-freeze only when the benchmark's inputs change, never to make
a changed library pass.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from workloads import CRITERION3, RANK, TORUS, catalog, matrix, moduli_system, problem_summary, residue_for  # noqa: E402


def main():
    solve = {}
    for label, (name, s, chi) in {**TORUS, **RANK, **CRITERION3}.items():
        d = catalog(name)
        solve[label] = problem_summary(moduli_system(d, residue_for(d, matrix(s), chi)))
    emit = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as workdir:
        workloads.load_golden = dict  # the file is being written, not read
        bench = workloads.CatalogEmit(workdir, None)
        for label in bench.labels:
            done = subprocess.run([sys.executable, "-m", "logres.cli"] + bench.argv(label),
                                  capture_output=True, env=bench.env, check=True)
            emit[label] = hashlib.sha256(done.stdout).hexdigest()
    (HERE / "golden.json").write_text(json.dumps({"solve": solve, "emit": emit}, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    main()
