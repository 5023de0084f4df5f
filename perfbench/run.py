"""widthcalc benchmark: CLI jobs in a closed loop, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload thin-random --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every job is one in-process ``widthcalc.cli.main([...])`` call on a JSON
document written under the checkout, with stdout and stderr captured.  One
client runs the jobs back to back with no threads: a closed loop.  A run makes
whole passes over its workload's job pool, each in an order drawn from
``--seed``, until another pass would overrun ``--seconds`` (at least
``MIN_PASSES``).  Every job is checked against the independent reference and
against the outcomes pinned in ``pinned/``; a job that raises, exits non-zero
or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones and prints the per-layer metrics instead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("thin-random", "explore-symmetric", "analyze-large")
SETUP_REPEATS = 5
MIN_PASSES = 3
# The shared host this was written on ran one and the same pass at 12 to 24
# jobs/s from one minute to the next, and CPU time moved with wall time, so
# raw timings of separate runs are not comparable.  A short pure-Python loop
# timed between every two jobs tracks the host's speed: each job's time is
# scaled by CAL_NOMINAL_S over the mean of the loop's times on either side of
# it.  The loop takes CAL_NOMINAL_S on an idle 2.1 GHz Xeon vCPU.  Raw times
# are printed beside the scaled ones.
CAL_NOMINAL_S = 0.00025
# Rejection rules seen on the pinned pools; any other rule is counted as "other".
REJECT_RULES = (
    "boundary_reduce.strict_drop",
    "boundary_reduce.trivial_piece",
    "destabilize.profile",
    "destabilize.result_invalid",
    "destabilize.tangle",
    "elementary.pre",
    "undo_removable.result_invalid",
    "untelescope.doubly_spotted",
    "untelescope.lower_index_drop",
    "untelescope.tangle",
    "untelescope.upper_index_drop",
)


def bootstrap():
    """Import widthcalc from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "widthcalc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no widthcalc sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    os.environ.pop("WIDTHCALC_SEED", None)  # the CLI must see only the documents
    import widthcalc
    if not Path(widthcalc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported widthcalc from {widthcalc.__file__}, not {src}")


def pin_to_one_cpu() -> None:
    """Keep the jobs, the calibration loop and the set-up children on one CPU,
    so that the loop measures the speed of the CPU the work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Result:
    job: object
    seconds: float
    error: str | None
    outcome: dict | None = None
    rejects: dict | None = None
    scaled: float = math.nan  # seconds at the nominal host speed


@dataclass
class Setup:
    jobs: list
    probe: list
    pinned: dict
    digest_ok: bool


def build(workload: str, pool: str, workdir: str) -> tuple[list, list]:
    """Build the pool's jobs and write their documents under ``workdir``."""
    import workloads
    jobs, probe = workloads.WORKLOADS[workload](workloads.POOLS[pool])
    for job in jobs + probe:
        job.path = os.path.join(workdir, job.id.replace("/", "-") + ".json")
        with open(job.path, "w") as handle:
            json.dump(job.doc, handle, indent=2, sort_keys=True)
    return jobs, probe


def pinned_path(workload: str, pool: str) -> Path:
    return HERE / "pinned" / f"{workload}.{pool}.json"


def setup(workload: str, pool: str, workdir: str) -> Setup:
    """Build the pool and check its documents against the pinned digest."""
    import workloads
    jobs, probe = build(workload, pool, workdir)
    with open(pinned_path(workload, pool)) as handle:
        pinned = json.load(handle)
    digest = workloads.input_digest(jobs + probe)
    return Setup(jobs, probe, pinned, digest == pinned["input_sha256"])


def run_job(job, pinned: dict | None, tracer=None) -> Result:
    """One CLI call, timed; then its output is checked outside the timing."""
    import workloads
    from widthcalc import cli
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_job()
    gc.collect()  # each CLI call starts, as in a fresh process, with no garbage left over
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(job.argv())
    except Exception as exc:  # a crashing job is counted as failed and the run goes on
        return Result(job, perf_counter() - start, f"raised {type(exc).__name__}")
    seconds = perf_counter() - start
    rejects = dict(tracer.job_rejects) if tracer is not None else None
    if code != 0:
        return Result(job, seconds, f"exit {code}: {err.getvalue().strip()[:120]}")
    try:
        outcome = workloads.CHECKS[job.command](job, out.getvalue())
    except (workloads.Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
        return Result(job, seconds, f"output check: {exc!r}"[:200])
    if pinned is not None:
        want = pinned["jobs"].get(job.id, {})
        if outcome != want.get("outcome"):
            return Result(job, seconds, "outcome differs from the pinned one")
        if rejects is not None and rejects != want.get("rejects"):
            return Result(job, seconds, "rejection counts differ from the pinned ones")
    return Result(job, seconds, None, outcome, rejects)


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop: the host's current speed."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        table: dict[int, int] = {}
        for i in range(3000):
            table[i % 97] = table.get(i % 97, 0) + i
        best = min(best, perf_counter() - start)
    return best


def run_pass(s: Setup, rng: random.Random, tracer=None) -> list[Result]:
    order = list(s.jobs)
    rng.shuffle(order)
    results = []
    before = calibrate()
    for job in order:
        r = run_job(job, s.pinned, tracer)
        after = calibrate()
        r.scaled = r.seconds * 2 * CAL_NOMINAL_S / (before + after)
        results.append(r)
        before = after
    return results


def pass_seconds(results: list[Result], raw: bool = False) -> float:
    return sum(r.seconds if raw else r.scaled for r in results)


def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile with at least ten jobs beyond it in ``MIN_PASSES`` passes."""
    return max(50, math.floor(100 * (1 - 10 / (n_jobs * MIN_PASSES))))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_setup(args) -> tuple[float, float]:
    """Raw and scaled wall time of a fresh process that starts, imports and builds the inputs."""
    before = calibrate()
    start = perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--pool", args.pool, "--setup-only"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    seconds = perf_counter() - start
    return seconds, seconds * 2 * CAL_NOMINAL_S / (before + calibrate())


def end_to_end(args, s: Setup, lines: list[str]) -> tuple[list[Result], dict]:
    setup_samples = [time_setup(args) for _ in range(SETUP_REPEATS)]
    rng = random.Random(args.seed)
    passes: list[list[Result]] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(s, rng))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    attempted = [r for p in passes for r in p]
    # Latencies of the correct jobs; of all jobs if none was correct (then the run is not).
    done = [r.scaled for r in attempted if r.error is None] or [r.scaled for r in attempted]
    rates = [sum(r.error is None for r in p) / pass_seconds(p) for p in passes]
    raw_rates = [sum(r.error is None for r in p) / pass_seconds(p, raw=True) for p in passes]
    q = tail_percentile(len(s.jobs))
    metrics = {
        "setup_s": (statistics.median(x for _, x in setup_samples), "s"),
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "job_p50_ms": (1000 * statistics.median(done), "ms"),
        "job_tail_ms": (1000 * percentile(done, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    scale = sum(map(pass_seconds, passes)) / sum(pass_seconds(p, raw=True) for p in passes)
    lines.append(f"passes {len(passes)} of {len(s.jobs)} jobs, {perf_counter() - start:.1f} s; "
                 f"raw jobs_per_s {statistics.median(raw_rates):.4f}, raw job_p50_ms "
                 f"{1000 * statistics.median(r.seconds for r in attempted):.4f}, "
                 f"scaled/raw time {scale:.3f}")
    lines.append("setup samples raw/scaled s: "
                 + " ".join(f"{a:.3f}/{b:.3f}" for a, b in setup_samples))
    lines.append(f"job_p50_ms over n={len(done)} jobs; job_tail_ms is p{q}, "
                 f"{sum(x > metrics['job_tail_ms'][0] / 1000 for x in done)} jobs beyond it")
    lines.append(f"failed_frac {sum(r.error is not None for r in attempted) / len(attempted)} "
                 f"(of {len(attempted)} jobs)")
    return attempted, metrics


def per_layer(args, s: Setup, lines: list[str]) -> tuple[list[Result], dict, bool]:
    from tracing import TARGETS, Tracer
    rng = random.Random(args.seed)
    plain: list[list[Result]] = []
    traced: list[tuple[list[Result], Tracer]] = []
    start = perf_counter()
    while True:
        plain.append(run_pass(s, rng))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append((run_pass(s, rng, tracer), tracer))
        finally:
            tracer.uninstall()
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / len(plain)) > args.seconds:
            break
    first = traced[0][1]
    counts = first.counts()
    steady = all(t.counts() == counts for _, t in traced)
    if not steady:
        lines.append("counter determinism: traced passes disagree on their counts")
    applies = first.calls["moves.apply_move"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = (first.calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(
            t.self_s[name] * pass_seconds(p) / pass_seconds(p, raw=True) for p, t in traced), "s")
    metrics["moves.apply_move.accept_ratio"] = (first.accepted / applies if applies else 0.0,
                                               "ratio")
    for rule in REJECT_RULES:
        metrics[f"moves.reject.{rule}"] = (first.rejects[rule], "count")
    metrics["moves.reject.other"] = (sum(n for rule, n in first.rejects.items()
                                         if rule not in REJECT_RULES), "count")
    metrics["model.validate.per_apply"] = (
        first.calls["model.validate"] / applies if applies else 0.0, "calls/apply")
    metrics["complexity.complexity.per_apply"] = (
        first.calls["complexity.complexity"] / applies if applies else 0.0, "calls/apply")
    metrics["gen.enumerate_moves.candidates"] = (first.candidates, "count")
    hashes = first.calls["search.canonical_hash"]
    metrics["search.canonical_hash.repeat_ratio"] = (
        first.hash_repeats / hashes if hashes else 0.0, "ratio")
    plain_s = statistics.median(pass_seconds(p) for p in plain)
    traced_s = statistics.median(pass_seconds(p) for p, _ in traced)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    total_self = sum(first.self_s.values())
    top = sorted(TARGETS, key=lambda n: -first.self_s[n])[:4]
    lines.append(f"{len(traced)} traced and {len(plain)} untraced passes of {len(s.jobs)} jobs; "
                 f"{applies} apply_move calls are the base of the per_apply ratios")
    lines.append("largest self-time shares: " + ", ".join(
        f"{n} {first.self_s[n] / total_self:.0%}" for n in top))
    attempted = [r for p in plain for r in p] + [r for p, _ in traced for r in p]
    return attempted, metrics, steady


def probe(s: Setup, lines: list[str]) -> int:
    """Run the known-defect jobs once, outside the timing; return how many failed."""
    failed = 0
    for job in s.probe:
        r = run_job(job, None)
        failed += r.error is not None
        lines.append(f"known-defect probe {job.id}: {r.error or 'ok'}")
    return failed


def run_one(args) -> int:
    bootstrap()
    pin_to_one_cpu()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        start = perf_counter()
        s = setup(args.workload, args.pool, workdir)
        if args.setup_only:
            return 0
        # A fresh CLI process does not hold the benchmark's documents: keep them
        # out of the collections the jobs trigger.
        gc.collect()
        gc.freeze()
        lines = [f"workload {args.workload}, pool {args.pool}, seed {args.seed}: "
                 f"own setup {perf_counter() - start:.3f} s"]
        if not s.digest_ok:
            lines.append("input digest differs from the pinned one: the workload changed")
        steady = True
        if args.trace:
            attempted, metrics, steady = per_layer(args, s, lines)
        else:
            attempted, metrics = end_to_end(args, s, lines)
        probe_failed = probe(s, lines)
        if args.trace:
            metrics["probe.deep_validate.failed"] = (probe_failed, "count")
    failures = [r for r in attempted if r.error is not None]
    for r in failures[:10]:
        lines.append(f"FAILED {r.job.id}: {r.error}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": s.digest_ok and steady and not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    table: dict[str, dict] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--pool", args.pool],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = proc.returncode
            continue
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for name, result in table.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:>14.6g} {m['unit']}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="orders the jobs of each pass")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=("main", "heldout"), default="main",
                        help="input pool; heldout is for confirming a claim")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
