"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs with the same seed give identical work counts.
2. Each kind of check can fail: a corrupted structure constant fails the
   verify check, a wrong exit code counts as a failed item, and a changed
   output fails the digest check.

Run from the root of a lie2alg checkout.  Exits 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.abspath("src")]

import run  # noqa: E402
import workloads  # noqa: E402
from lie2alg import TwoTermAlgebra, identity_morphism, quaternion_example  # noqa: E402
from lie2alg import documents  # noqa: E402

# Per-layer metrics that are counts of work, not times: they must repeat.
COUNT_UNITS = {"count", "bits", "bytes", "lines", "1/item"}
REPEATING_RATIOS = {"cohomology.delta_matrix.distinct_ratio"}


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"traced {workload} run failed: {proc.stderr[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: rec["value"] for name, rec in report["metrics"].items()
            if rec["unit"] in COUNT_UNITS or name in REPEATING_RATIOS}


def test_counts_repeat(workload: str, seed: int = 3) -> None:
    first = traced_counts(workload, seed)
    second = traced_counts(workload, seed)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert not differ, f"{workload}: counts differ between traced runs: {differ}"
    assert first.get("linalg.rref.calls", 0) > 0, f"{workload}: nothing was traced"


def test_corrupted_constant_fails_verify() -> None:
    """The classify item's verify check catches an algebra whose bracket
    breaks the Jacobi identity up to d of the Jacobiator."""
    L = quaternion_example("1+2i+3j+5k")
    b00 = [[list(row) for row in plane] for plane in L.b00]
    b00[1][2][1] += 1
    b00[2][1][1] -= 1
    bad = TwoTermAlgebra(4, 4, L.d, b00, L.b01, L.jac)
    wl = workloads.Classify()
    item = wl.deck(1, 0)[0]
    assert not wl.run_item(item).problems, "the unmodified item must pass"
    real = workloads.random_algebra, workloads.transport
    workloads.random_algebra = lambda seed: bad
    workloads.transport = lambda A, *maps: (A, identity_morphism(A))
    try:
        problems = wl.run_item(item).problems
    finally:
        workloads.random_algebra, workloads.transport = real
    assert problems[:1] == ["verify(L)"], problems


def test_wrong_exit_code_counts_as_failed(workdir: str) -> None:
    wl = workloads.Cli(workdir)
    wl.setup(1)
    call = next(c for c in wl.deck(1, 0) if c.name == "verify" and c.exit_code == 0)
    done = run.run_items(wl, [call])
    assert run.failures(done) == (0, []), done
    wrong = dataclasses.replace(call, exit_code=1)
    n_failed, unexpected = run.failures(run.run_items(wl, [call, wrong]))
    assert n_failed == 1 and len(unexpected) == 1, unexpected


def test_changed_output_fails_digest() -> None:
    wl = workloads.Classify()
    ok, note = run.check_digest(wl)
    assert ok, note
    real = documents.dumps
    documents.dumps = lambda doc: json.dumps(doc, indent=1) + "\n"
    try:
        ok, note = run.check_digest(wl)
    finally:
        documents.dumps = real
    assert not ok and "digest" in note, note


def main() -> int:
    if not os.path.isfile(os.path.join("src", "lie2alg", "__init__.py")):
        return run.fail("src/lie2alg not found: run from the root of a lie2alg checkout")
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tests = [("corrupted structure constant fails verify", test_corrupted_constant_fails_verify),
             ("wrong exit code counts as failed",
              lambda: test_wrong_exit_code_counts_as_failed(workdir)),
             ("changed output fails the digest", test_changed_output_fails_digest)]
    for name in run.WORKLOADS:
        tests.append((f"traced counts repeat: {name}", lambda name=name: test_counts_repeat(name)))
    failed = 0
    try:
        for name, test in tests:
            try:
                test()
                print(f"PASS {name}", flush=True)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
