"""posetglue benchmark: certificate latency and trial throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of fig1-trials, build-scale and
random-gluings (see perfbench/README.md).  With --trace 0 the run measures
end-to-end metrics with tracing off; with --trace 1 it measures the
per-layer split of round 0 of the workload, traced and untraced.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3


def load_program():
    """Make the package under src/ importable, and refuse to run without it."""
    init = ROOT / "src" / "posetglue" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no posetglue source at {init.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import posetglue

    if Path(posetglue.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported posetglue from {posetglue.__file__}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- environment ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's source files, which names the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, held_out_seed) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed == held_out_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- set-up ------------------------------------------------------------------

def setup_only(args) -> None:
    """Child process: build the inputs, say so, and clean up."""
    from workloads import Inputs

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        Inputs(args.workload, args.seed, args.seconds, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    """Median seconds from process start to inputs ready, over fresh
    interpreters that import the package and build the workload's inputs:
    rescaled to the reference speed, and as measured."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    times, raw = [], []
    before = speed.factor()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            raw.append(time.perf_counter() - start)
            child.stdout.close()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        after = speed.factor()
        times.append(raw[-1] * (before + after) / 2)
        before = after
    return statistics.median(times), statistics.median(raw)


# --- the two kinds of run -------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _another(start: float, began: float, seconds: float) -> bool:
    """Whether one more round, as long as the last, still ends within
    ``seconds`` of the start."""
    now = time.perf_counter()
    return now - start + (now - began) <= seconds


def timed_run(inputs, seconds: float, digests: dict) -> dict:
    """Closed loop over whole rounds for ``seconds``, tracing off."""
    from workloads import check, recorded_digest, run_job

    samples, raw, trials, failed, compared = [], [], 0, 0, 0
    start = time.perf_counter()
    before = speed.factor()
    r = 0
    while r < inputs.rounds():
        began = time.perf_counter()
        for job in inputs.round_jobs(r):
            outcome = run_job(job, inputs.fields)
            after = speed.factor()
            raw.append(outcome.seconds)
            samples.append(outcome.seconds * (before + after) / 2)
            before = after
            recorded = recorded_digest(digests, job, inputs.seed)
            problems = check(job, outcome, recorded)
            trials += outcome.trials
            compared += recorded is not None
            if problems:
                failed += 1
                print(f"job {job.number} failed: {'; '.join(problems)}", file=sys.stderr)
        r += 1
        if not _another(start, began, seconds):
            break
    else:
        print(f"note: all {r} rounds of inputs ran before {seconds} s", file=sys.stderr)
    busy = sum(samples)
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            "cert_s_p50": (statistics.median(samples), "s"),
            "trials_per_s": (trials / busy, "1/s"),
            "certs_per_s": (len(samples) / busy, "1/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
        "samples": samples,
        "as_measured": {
            "cert_s_p50": statistics.median(raw),
            "trials_per_s": trials / sum(raw),
            "certs_per_s": len(raw) / sum(raw),
        },
        "digests_compared": compared,
    }


def traced_run(inputs, seconds: float, digests: dict, tracer, workdir: Path) -> dict:
    """Passes over round 0, each untraced and traced, for ``seconds``.

    Odd passes run the traced half first, so that a drift in machine speed
    within a pass does not fall on one side only.
    """
    import tracing
    from workloads import check, digest, recorded_digest

    jobs = inputs.round_jobs(0)
    passes, attempted, failed, compared = [], 0, 0, 0

    def untraced_half():
        nonlocal compared
        half = []
        for job in jobs:
            outcome = tracing.captured_job(job, inputs.fields)
            recorded = recorded_digest(digests, job, inputs.seed)
            compared += recorded is not None
            half.append((outcome, check(job, outcome, recorded)))
        return half

    def traced_half(reference):
        first = len(tracer.spans)
        window, counts, problems = 0.0, dict.fromkeys(tracing.COUNTS, 0), []
        for job, (outcome, known) in zip(jobs, reference):
            if known:
                problems.append([])
                continue
            tracer.cert = f"{len(passes)}/{job.number}"
            try:
                seconds_, job_counts, more = tracing.traced_job(
                    tracer, job, outcome, inputs.fields, workdir
                )
            except Exception as exc:  # the run goes on; the job is a failure
                problems.append([f"traced run raised {exc!r}"])
                continue
            window += seconds_
            problems.append(more)
            for k, v in job_counts.items():
                counts[k] += v
        totals, accounted = tracing.layer_totals(tracer, first)
        return window, counts, totals, accounted, problems

    start = time.perf_counter()
    reference = None
    while True:
        began = time.perf_counter()
        if reference is None or not len(passes) % 2:
            reference = untraced_half()
            window, counts, totals, accounted, more = traced_half(reference)
        else:
            window, counts, totals, accounted, more = traced_half(reference)
            reference = untraced_half()
        for job, (_, known), extra in zip(jobs, reference, more):
            attempted += 1
            if known or extra:
                failed += 1
                print(f"job {job.number} failed: {'; '.join(known + extra)}", file=sys.stderr)
        passes.append({
            "untraced": sum(o.seconds for o, _ in reference),
            "traced": window,
            "accounted": accounted,
            "totals": totals,
            "counts": counts,
            "digests": [o.doc and digest(o.doc) for o, _ in reference],
        })
        if not _another(start, began, seconds):
            break
    if any(p["counts"] != passes[0]["counts"] for p in passes):
        failed += 1
        print("work counts differ between passes over the same round", file=sys.stderr)
    if any(p["digests"] != passes[0]["digests"] for p in passes):
        failed += 1
        print("certificates differ between passes over the same round", file=sys.stderr)

    def med(f):
        return statistics.median(f(p) for p in passes)

    metrics = {f"{name}_s": (med(lambda p: p["totals"][name]), "s") for name in tracing.LAYERS}
    metrics.update({k: (v, "count") for k, v in passes[0]["counts"].items()})
    metrics["trace.overhead_s"] = (med(lambda p: p["traced"] - p["untraced"]), "s")
    metrics["trace.untraced_s"] = (med(lambda p: p["untraced"]), "s")
    metrics["trace.unattributed_s"] = (med(lambda p: p["traced"] - p["accounted"]), "s")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(passes),
        "sums": {k: sum(p[k] for p in passes) for k in ("untraced", "traced", "accounted")},
        "digests_compared": compared,
    }


# --- output --------------------------------------------------------------------

def report_lines(args, result) -> list:
    m = result["metrics"]
    lines = [f"posetglue benchmark: {args.workload}, seed {args.seed}, trace {args.trace}"]
    lines += [f"  {name:32s} {value:.6g} {unit}" for name, (value, unit) in m.items()]
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'failed_frac':32s} {failed / attempted:.6g} ({failed} of {attempted})")
    lines.append(f"  digests compared with the record: {result['digests_compared']}")
    if args.trace == 0:
        lines.append(f"  wall times as measured, before rescaling to the reference speed:")
        lines += [f"    {name:30s} {value:.6g}" for name, value in result["as_measured"].items()]
        samples = result["samples"]
        p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
        beyond = sum(s > p90 for s in samples)
        if beyond >= 10:
            lines.append(f"  {'cert_s_p90':32s} {p90:.6g} s ({len(samples)} samples, {beyond} beyond)")
        else:
            lines.append(
                f"  cert_s_p90: not reported, {beyond} of {len(samples)} samples lie beyond it"
            )
        return lines
    base = m["trace.untraced_s"][0]
    lines.append(f"  passes over round 0: {result['passes']}; shares of untraced {base:.4g} s:")
    for name, (value, unit) in m.items():
        if unit == "s" and not name.startswith("trace."):
            lines.append(f"    {name:30s} {100 * value / base:6.1f} %")
    sums = result["sums"]
    lines.append(
        f"  over all passes: layer self times {sums['accounted']:.4g} s, traced certificates "
        f"{sums['traced']:.4g} s ({sums['traced'] - sums['accounted']:.3g} s unattributed), "
        f"untraced {sums['untraced']:.4g} s; overhead {sums['traced'] - sums['untraced']:+.3g} s"
    )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    if args.setup_only:
        setup_only(args)
        return 0
    import tracing
    from workloads import HELD_OUT_SEED, WORKLOADS, Inputs, load_digests

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; pick one of {WORKLOADS}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_s, setup_raw = measure_setup(args) if not args.trace else (None, None)
        inputs = Inputs(args.workload, args.seed, args.seconds, workdir)
        env = environment(args, HELD_OUT_SEED)
        print(json.dumps({"environment": env}))
        digests = load_digests(DIGESTS)
        if args.trace:
            tracer = tracing.Tracer()
            result = traced_run(inputs, args.seconds, digests, tracer, workdir)
            spans = OUT / f"spans-{args.workload}-{args.seed}.json"
            spans.write_text(json.dumps({"environment": env, "spans": tracer.spans}))
        else:
            result = timed_run(inputs, args.seconds, digests)
            result["metrics"]["setup_s"] = (setup_s, "s")
            result["as_measured"]["setup_s"] = setup_raw
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report_lines(args, result):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
