"""lie2alg benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another

Run from the root of a lie2alg checkout; the package is imported from
``src``.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
WORKLOADS = ("classify", "transport-chain", "cohomology", "cli")
SETUP_SAMPLES = 5           # fresh processes timed for setup_s, spread over the run
INTERPRETER_SAMPLES = 5     # python -c pass / import lie2alg.cli, traced runs

# A traced run replays every n-th item of deck 0: a fixed list, so counts
# repeat.  A whole transport-chain deck takes 20 to 30 s untraced on a
# 2-vCPU Xeon guest.
TRACE_STRIDE = {"classify": 1, "transport-chain": 3, "cohomology": 1, "cli": 1}
# The functions whose calls and self time are reported one by one.
NAMED_FUNCTIONS = (
    "linalg.rref", "linalg.solve", "linalg.invert", "linalg.kernel_basis",
    "linalg.image_basis", "linalg.complement",
    "core.verify",
    "morphisms.verify_morphism", "morphisms.compose", "morphisms.inverse",
    "cohomology.delta_matrix", "cohomology.cohomology_dim",
    "cohomology.cohomology_basis", "cohomology.is_coboundary",
    "cohomology.cohomologous",
    "classify.decompose", "classify.extract_triple", "classify.normal_form",
    "classify.transport", "classify.invariants", "classify.certify_isomorphism",
    "classify.extract_quadruple_maps",
    "builders.random_algebra", "builders.normal_form_algebra",
    "documents.loads", "documents.dumps", "documents.algebra_to_document",
    "documents.algebra_from_document", "documents.morphism_to_document",
    "documents.morphism_from_document",
)
# Every end-to-end metric a run computes and prints; BENCHMARK.json gates
# the steady ones (see README.md).
E2E_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
             "item_tail_mean_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
# On a shared host the speed of small-Fraction arithmetic moves by up to a
# factor of two between runs and within one, and CPU time moves with it.  A
# fixed piece of it, timed between items and outside the timed region,
# tracks that speed.  Rates and times are reported at the speed at which
# one calibration pass takes CALIBRATION_REF_S (about the fastest
# speed seen on a 2-vCPU Xeon KVM guest).
CALIBRATION_TERMS = 400
CALIBRATION_REF_S = 0.001
CLI_SUBCOMMANDS = ("verify", "invariants", "normalize", "compare", "compare-maps",
                   "transport", "cohomology", "malformed")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join("src", "lie2alg", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "lie2alg", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": src_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: str):
    """Import the package, make the inputs, run one warm-up item.

    Returns the workload and the problems of the warm-up item.
    """
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.make(name, workdir)
    wl.setup(seed)
    warm = wl.run_item(wl.warmup_item(seed))
    return wl, warm.problems


def setup_sample(args) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its first item being ready:
    as measured, and at the reference speed of the calibrations just before
    and just after."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = calibrate()
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    seconds = float(ready[-1].split()[1]) - start
    slowness = (before + calibrate()) / 2 / CALIBRATION_REF_S
    return seconds, seconds / slowness


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for one pass of fixed Fraction arithmetic, median of three."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, CALIBRATION_TERMS):
            total += Fraction(1, i % 97 + 1)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Speed:
    """The machine's slowness over a run, weighted by the time of the items.

    Each item is charged the mean of the calibrations just before and just
    after it.  ``slowness`` is the weighted calibration time over
    CALIBRATION_REF_S: divide a time by it, multiply a rate by it.
    """

    def __init__(self):
        self.last = calibrate()
        self.items = []         # (seconds, slowness) per item

    def after_item(self, seconds: float) -> None:
        now = calibrate()
        self.items.append((seconds, (self.last + now) / 2 / CALIBRATION_REF_S))
        self.last = now

    def slowness(self) -> float:
        return sum(t * s for t, s in self.items) / sum(t for t, _ in self.items)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_items(wl, items, on_item=None, speed=None):
    """Run items one after another; returns per-item (seconds, problems)."""
    done = []
    for idx, item in enumerate(items):
        if on_item is not None:
            on_item(idx)
        start = time.perf_counter()
        try:
            problems = wl.run_item(item).problems
        except Exception as exc:  # an item that raises is a failed item
            problems = [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        done.append((item, seconds, problems))
        if speed is not None:
            speed.after_item(seconds)
    return done


def timed_loop(wl, seed: int, seconds: float, between_decks, speed):
    """Whole decks, ending on the deck boundary nearest to ``seconds``.

    Whole decks keep the mix of strata, and so of costs and of malformed
    inputs, the same in every run.  ``between_decks(elapsed)`` runs at each
    inner deck boundary, outside the timed region, as do the calibrations.
    """
    done = []
    elapsed = 0.0
    k = 0
    while True:
        deck = run_items(wl, wl.deck(seed, k), speed=speed)
        done += deck
        k += 1
        deck_s = sum(d[1] for d in deck)
        elapsed += deck_s
        if elapsed + deck_s / 2 >= seconds:
            return done, elapsed
        between_decks(elapsed)


def tail(latencies):
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def tail_mean(latencies):
    """Mean of the slowest fifth of the items (at least one), and their count."""
    count = -(-len(latencies) // 5)
    return statistics.fmean(sorted(latencies)[-count:]), count


def failures(done):
    """(failed items, problems of failed items that are not known defects)."""
    failed = [d for d in done if d[2]]
    unexpected = [p for item, _, p in failed if not getattr(item, "known_defect", False)]
    return len(failed), unexpected


def check_digest(wl) -> tuple[bool, str]:
    import workloads

    outcomes = [wl.run_item(item) for item in wl.digest_items()]
    problems = [p for o in outcomes for p in o.problems]
    digest = workloads.digest_of(outcomes)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        expected = json.load(fh).get(wl.name)
    if problems:
        return False, f"digest items failed their checks: {problems[:3]}"
    if digest != expected:
        return False, f"output digest {digest} != recorded {expected}"
    return True, digest


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def spawn_ms(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return 1000 * statistics.median(samples)


def traced_run(wl, args, spans_path):
    """Replay a fixed item list untraced, then traced.

    Returns the per-layer metrics, the outcomes of both passes and the
    traced totals.
    """
    import tracer as tracing
    import workloads

    items = wl.deck(args.seed, 0)[:: TRACE_STRIDE[wl.name]]
    plain = run_items(wl, items)
    if wl.name == "cli":
        child_dir = spans_path[: -len(".jsonl")]
        os.makedirs(child_dir, exist_ok=True)
        wl.trace_dir = child_dir
        traced = run_items(wl, items)
        wl.trace_dir = None
        parts = []
        for path in sorted(glob.glob(os.path.join(child_dir, "child-*.json"))):
            with open(path, encoding="utf-8") as fh:
                parts.append(json.load(fh))
        summary = tracing.merge_summaries(parts)
    else:
        tr = tracing.Tracer()
        tr.install(extra_modules=[workloads])
        try:
            traced = run_items(wl, items, on_item=tr.mark_item)
        finally:
            tr.uninstall()
        summary = tr.summary()
        tr.write_spans(spans_path, {"workload": wl.name, "seed": args.seed})

    plain_s = sum(d[1] for d in plain)
    traced_s = sum(d[1] for d in traced)
    m = layer_metrics(summary, len(items))
    m["trace.overhead"] = 1 - plain_s / traced_s     # relative loss of items_per_s
    interpreter = spawn_ms("pass")
    m["cli.interpreter_ms"] = interpreter
    m["cli.import_ms"] = spawn_ms("import lie2alg.cli") - interpreter
    for sub in CLI_SUBCOMMANDS:
        lat = [d[1] for d in plain if getattr(d[0], "name", None) == sub]
        m[f"cli.{sub}.p50_ms"] = 1000 * statistics.median(lat) if lat else 0.0
    m["src_lines"] = src_lines()
    return m, plain + traced, summary


def layer_metrics(summary, n_items: int) -> dict:
    import tracer as tracing

    funcs, counts = summary["functions"], summary["counts"]

    def rec(name):
        return funcs.get(name, {"calls": 0, "self_s": 0.0})

    m = {}
    for name in NAMED_FUNCTIONS:
        m[f"{name}.calls"] = rec(name)["calls"]
        m[f"{name}.self_s"] = rec(name)["self_s"]
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(r["self_s"] for n, r in funcs.items()
                                   if n.startswith(layer + "."))
    m["core.contract.calls"] = sum(rec(n)["calls"] for n in tracing.CONTRACTIONS)
    m["core.contract.self_s"] = sum(rec(n)["self_s"] for n in tracing.CONTRACTIONS)
    m["core.verify.per_item"] = rec("core.verify")["calls"] / n_items
    for key in ("linalg.rref.cells", "linalg.complement.rref_calls", "linalg.max_entry_bits",
                "core.verify.tuples", "morphisms.verify_morphism.tuples",
                "cohomology.delta_matrix.cells", "documents.bytes"):
        m[key] = counts.get(key, 0)
    calls = rec("cohomology.delta_matrix")["calls"]
    distinct = counts.get("cohomology.delta_matrix.distinct", 0)
    m["cohomology.delta_matrix.distinct_ratio"] = distinct / calls if calls else 0.0
    return m


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    spec = load_spec()
    env = environment(args)
    for tree in (os.path.join("src", "lie2alg"), HERE):
        compileall.compile_dir(tree, quiet=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        setup_samples = [] if args.trace else [setup_sample(args)]
        wl, warm_problems = set_up(args.workload, args.seed, workdir)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, done, summary = traced_run(
                wl, args, os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
            declared = spec["per_layer"]
        else:
            # set-up samples before the loop, at the first deck boundary
            # past each quarter of it and after it, so that they meet the
            # same drift of machine speed as the items do
            def sample_setup(elapsed):
                quarter = args.seconds / (SETUP_SAMPLES - 1)
                if elapsed >= len(setup_samples) * quarter:
                    setup_samples.append(setup_sample(args))

            speed = Speed()
            done, elapsed = timed_loop(wl, args.seed, args.seconds, sample_setup, speed)
            setup_samples.append(setup_sample(args))
            summary = None
            lat = [d[1] for d in done]
            value, pct = tail(lat)
            mean_value, n_tail = tail_mean(lat)
            peak_kb = wl.peak_rss_kb if args.workload == "cli" else \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            measured = {
                "items_per_s": len(done) / elapsed,
                "item_p50_ms": 1000 * statistics.median(lat),
                "item_tail_ms": 1000 * value,
                "item_tail_mean_ms": 1000 * mean_value,
                "setup_s": statistics.median(s for s, _ in setup_samples),
            }
            slowness = speed.slowness()
            metrics = {
                "items_per_s": measured["items_per_s"] * slowness,
                "item_p50_ms": measured["item_p50_ms"] / slowness,
                "item_tail_ms": measured["item_tail_ms"] / slowness,
                "item_tail_mean_ms": measured["item_tail_mean_ms"] / slowness,
                "setup_s": statistics.median(s for _, s in setup_samples),
                "peak_rss_mb": peak_kb / 1024,
            }
            env["tail_percentile"] = round(pct, 2)
            env["tail_mean_items"] = n_tail
            env["slowness"] = slowness
            env["measured"] = measured
            declared = spec["end_to_end"]
        digest_ok, digest_note = check_digest(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_failed, unexpected = failures(done)
    attempted = len(done)
    correct = digest_ok and not unexpected and not warm_problems
    env["samples"] = attempted
    if not args.trace:
        metrics["fail_ratio"] = n_failed / attempted
    env["setup_samples_s"] = [s for s, _ in setup_samples]
    env["digest"] = digest_note

    report = {"correct": correct, "attempted": attempted, "failed": n_failed,
              "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                          for d in declared}}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "report": report, "all_metrics": metrics,
                   "latencies_ms": [1000 * d[1] for d in done],
                   "item_slowness": [s for _, s in speed.items] if not args.trace else None,
                   "trace_summary": summary}, fh, indent=1)

    print("environment: " + json.dumps(env))
    for problems in unexpected[:5]:
        print(f"FAILED: {problems}", file=sys.stderr)
    for problems in warm_problems[:5]:
        print(f"FAILED (warm-up): {problems}", file=sys.stderr)
    if not digest_ok:
        print(f"FAILED: {digest_note}", file=sys.stderr)
    known = [p for item, _, p in done if p and getattr(item, "known_defect", False)]
    if known:
        print(f"known defects (ROADMAP item 4): {len(known)} of {attempted} items, "
              f"e.g. {known[0][0]}")
    if not args.trace:
        print(f"{args.workload}: {n_failed} of {attempted} items failed; item_tail_ms is "
              f"p{env['tail_percentile']} of {attempted} samples, item_tail_mean_ms "
              f"the mean of the slowest {env['tail_mean_items']}")
    units = {d["name"]: d["unit"] for d in declared} if args.trace else E2E_UNITS
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {units[name]}")
    print(json.dumps(report))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; a summary table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(OUT_DIR, f"result-{tag}.json"), encoding="utf-8") as fh:
            rows.append((name, json.load(fh)))
    print()
    for name, res in rows:
        cells = "  ".join(f"{k}={v:.6g}" for k, v in res["all_metrics"].items())
        print(f"{name:16s} correct={res['report']['correct']}  {cells}")
    return 0 if all(res["report"]["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "lie2alg", "__init__.py")):
        return fail("src/lie2alg not found: run from the root of a lie2alg checkout")
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        try:
            _, problems = set_up(args.workload, args.seed, workdir)
            print(f"ready {time.monotonic()}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 1 if problems else 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
