"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Set-up is measured in SETUP_SAMPLES fresh processes and reported as their
median.  The timed run happens in the last of them, with the program's thread
settings at their defaults (OPENBLAS_NUM_THREADS and STEKLOV_THREADS unset);
`--threads1` sets both to 1 instead, for the single-threaded reference.
The last line of stdout is the result: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}
# Thread settings the program reads; the timed runs clear them so the
# program's defaults apply whatever the caller's environment holds.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "STEKLOV_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


class BenchmarkError(Exception):
    pass


def child_env(threads1: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads1:
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["STEKLOV_THREADS"] = "1"
    return env


def run_worker(args: list[str], env: dict, root: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, threads1: bool) -> dict:
    """Run set-up SETUP_SAMPLES times and the timed loop once; return the full record.

    A traced run saves its spans to perfbench/_out/spans-WORKLOAD-SEED.npz.
    """
    root = Path.cwd()
    if not (root / "src" / "bisteklov" / "cli.py").is_file():
        raise BenchmarkError(f"no program at {root / 'src' / 'bisteklov'}; run from a checkout root")
    workdir = BENCH_DIR / "_work" / f"{workload}-{seed}-{os.getpid()}"
    env = child_env(threads1)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
    try:
        setups = [run_worker(common + ["--setup-only"], env, root, 60)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        timed = common + ["--trace", str(int(trace))]
        if trace:
            timed += ["--spans", str(BENCH_DIR / "_out" / f"spans-{workload}-{seed}.npz")]
        record = run_worker(timed, env, root, seconds + 120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(record["setup_s"])
    if "end_to_end" not in record:
        raise BenchmarkError(f"no job of {workload} completed: {record['failures'][:3]}")
    samples = record["samples"]
    e2e = {"setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)}}
    for name, value in record["end_to_end"].items():
        e2e[name] = {"value": value, "unit": END_TO_END_UNITS[name],
                     "samples": 1 if name == "peak_rss_mb" else samples}
    record.update(workload=workload, seconds=seconds, trace=int(trace),
                  threads="single" if threads1 else "default", end_to_end=e2e, setup_samples=setups)
    if trace:
        record["per_layer"] = {name: {"value": value, "unit": tracing.LAYER_METRICS[name]}
                               for name, value in record["per_layer"].items()}
    return record


def failure_groups(record: dict) -> dict[str, list[dict]]:
    """Failed jobs grouped by known defect, or else as wrong answers, and by reason."""
    groups: dict[str, list[dict]] = {}
    for f in record["failures"]:
        tag = f"known defect ({f['defect']})" if f["defect"] else "WRONG ANSWER"
        reason = f["reason"] if f["reason"].startswith("exit") else f["reason"].split()[0]
        groups.setdefault(f"{tag}: {reason}", []).append(f)
    return groups


def summary_lines(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}, seed {record['environment']['seed']}, "
             f"{record['seconds']} s, threads {record['threads']}, trace {record['trace']}",
             "environment " + json.dumps(record["environment"])]
    for name, m in record["end_to_end"].items():
        lines.append(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    frac = record["failed"] / record["attempted"]
    lines.append(f"  {'failed_frac':<16} {frac:>14.6g} {'ratio':<6} "
                 f"({record['failed']} of {record['attempted']} jobs)")
    for group, fs in failure_groups(record).items():
        lines.append(f"    {len(fs)} failed [{group}], e.g. {fs[0]['argv']}")
    lines.append(f"  completed jobs per stratum {record['completed_per_stratum']}")
    if record["empty_strata"]:
        lines.append(f"    WRONG: strata {record['empty_strata']} completed no job; the baseline completed them")
    for name, m in record.get("per_layer", {}).items():
        lines.append(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads1", action="store_true",
                   help="single-threaded reference: OPENBLAS_NUM_THREADS=1 STEKLOV_THREADS=1")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.threads1)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary_lines(record)))
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
