"""Self-test of the benchmark's checker: wrong answers must fail the run.

    python3 perfbench/selftest.py

Runs every workload once at seed 0 and requires its check to pass.  Then it
corrupts each outcome in the ways a broken library could (a flipped
NONREGULAR verdict, a count off by one, a wrong witness, a missing
triangulation) and requires each corruption to mark failed units.  Last, it
runs run.py end to end against a library patched at start-up to drop one
coherent monotone path, and requires failed > 0, ``"correct": false`` and a
nonzero exit code.  Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from cyclicfiber import coherence, lp  # noqa: E402


def _first(results, kind) -> int:
    return next(i for i, r in enumerate(results) if isinstance(r, kind))


def _regularity_mutations(inputs, out):
    def witness_for_certificate(inputs, out):
        i = _first(out.results, lp.Certificate)
        out.results[i] = lp.Witness((Fraction(0),) * 9)

    def certificate_for_witness(inputs, out):
        i = _first(out.results, lp.Witness)
        rows = len(coherence.regularity_system(inputs["tris"][i], inputs["pv"]).strict)
        out.results[i] = lp.Certificate((Fraction(1),) + (Fraction(0),) * (rows - 1))

    def witness_negated(inputs, out):
        i = _first(out.results, lp.Witness)
        out.results[i] = lp.Witness(tuple(-x for x in out.results[i].x))

    def missing_triangulation(inputs, out):
        inputs["tris"] = inputs["tris"][1:]
        out.results = out.results[1:]
        out.units -= 1

    return [witness_for_certificate, certificate_for_witness, witness_negated, missing_triangulation]


def _fiber_mutations(inputs, out):
    def f_vector_off_by_one(inputs, out):
        v, e = out.results[1]
        out.results[1] = (v + 1, e)

    def euler_off_by_one(inputs, out):
        out.results[2] += 1

    def wrong_witness(inputs, out):
        report = copy.copy(out.results[0])
        report.results = list(report.results)
        i = _first(report.results, lp.Witness)
        report.results[i] = lp.Witness(tuple(x + 1 if k == 0 else x for k, x in enumerate(report.results[i].x)))
        out.results[0] = report

    return [f_vector_off_by_one, euler_off_by_one, wrong_witness]


def _paths_mutations(inputs, out):
    def coherent_count_off_by_one(inputs, out):
        coherent, monotone = out.results[0]
        out.results[0] = (coherent[:-1], monotone)

    def coherent_not_monotone(inputs, out):
        coherent, monotone = out.results[0]
        out.results[0] = (coherent + [(1, 2)], monotone)

    return [coherent_count_off_by_one, coherent_not_monotone]


def _flips_mutations(inputs, out):
    def count_off_by_one(inputs, out):
        out.results[0] = frozenset(list(out.results[0])[1:])
        out.units -= 1

    def wrong_cells(inputs, out):
        # swap one cell of every triangulation for a cell of the wrong volume
        out.results[0] = frozenset(
            frozenset(sorted(t)[1:] + [(1, 2, 3, 4)]) if (1, 2, 3, 4) not in t else t
            for t in out.results[0]
        )

    return [count_off_by_one, wrong_cells]


MUTATIONS = {
    "regularity-c94": _regularity_mutations,
    "fiber-c83": _fiber_mutations,
    "paths-ubc": _paths_mutations,
    "flips-c11": _flips_mutations,
}

# Start-up patch for the end-to-end test: the library drops one coherent path.
DROP_ONE_PATH = """
from cyclicfiber import paths
_orig = paths.coherent_paths_of_general_polytope
paths.coherent_paths_of_general_polytope = lambda p, direction: _orig(p, direction)[:-1]
"""


def main() -> int:
    problems = []
    for name, (setup, run, check) in workloads.WORKLOADS.items():
        inputs = setup(0)
        out = run(inputs)
        clean = copy.copy(out)
        clean.results = list(out.results)
        check(inputs, out, 0)
        print(f"{name}: reference run failed {out.failed_count} of {out.units}")
        if out.failed_count:
            problems.append(f"{name}: the unmodified library fails its check: {out.notes}")
        for mutate in MUTATIONS[name](inputs, clean):
            bad_inputs, bad = dict(inputs), copy.copy(clean)
            bad.results, bad.failed, bad.failed_all, bad.notes = list(clean.results), set(), False, []
            mutate(bad_inputs, bad)
            check(bad_inputs, bad, 0)
            print(f"{name}: {mutate.__name__}: failed {bad.failed_count} of {bad.units}")
            if not bad.failed_count:
                problems.append(f"{name}: {mutate.__name__} was not caught")

    with tempfile.TemporaryDirectory(dir=ROOT) as patch_dir:
        Path(patch_dir, "sitecustomize.py").write_text(DROP_ONE_PATH)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([patch_dir, str(ROOT / "src")]))
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "paths-ubc", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            env=env, capture_output=True, text=True, timeout=170,
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"end to end with one coherent path dropped: exit {proc.returncode}, {result['failed']} "
          f"of {result['attempted']} failed, correct {result['correct']}")
    if proc.returncode == 0 or result["correct"] or not result["failed"]:
        problems.append("run.py accepted a library that drops a coherent path")

    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
