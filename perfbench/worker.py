"""One benchmark process: set up, then run a workload's jobs in a closed loop.

Set-up is the import of `bisteklov.cli` from the checkout's `src/`, the
generation of the seeded inputs and one warm-up job.  The loop then calls
`bisteklov.cli.run(argv)` in this process, one job after another from a single
client thread, over the fixed job list of the run's length
(`workloads.rounds_for`).  Prints one JSON object on stdout.
Started by run.py; see there for the options.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _run_job(cli, argv, scope=None):
    """(exit code, stdout, stderr, wall s, CPU s) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with scope or contextlib.nullcontext(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.run(list(argv))
        except Exception:  # a traceback is a failed job, not the end of the run
            traceback.print_exc()
            rc = -1
        t1, c1 = time.perf_counter(), time.process_time()
    return rc, out.getvalue(), err.getvalue(), t1 - t0, c1 - c0


def timing_metrics(completed, tail_percentile: float) -> dict:
    """Throughput, latency percentiles and CPU per job over the round's mix.

    Every round position (stratum) weighs the same, as in the job list, so a
    job that failed does not shift the mix towards the other strata; a stratum
    with no completed job drops out.  Percentiles are Harrell-Davis estimates
    on the weighted sample: a beta-weighted mean of the order statistics near
    the quantile, steadier than a single order statistic at a few hundred jobs.
    """
    import numpy as np
    from scipy.special import betainc

    position, wall, cpu = (np.array(c) for c in zip(*completed))
    strata, inverse, counts = np.unique(position, return_inverse=True, return_counts=True)
    weight = 1.0 / (len(strata) * counts[inverse])
    order = np.argsort(wall)
    cdf = np.concatenate(([0.0], np.cumsum(weight[order])))
    cdf[-1] = 1.0

    def percentile(q: float) -> float:
        a, b = q / 100.0 * (len(wall) + 1), (1.0 - q / 100.0) * (len(wall) + 1)
        return float(np.diff(betainc(a, b, cdf)) @ wall[order])

    return {
        "jobs_per_s": 1.0 / float(weight @ wall),
        "job_p50_ms": percentile(50) * 1e3,
        "job_tail_ms": percentile(tail_percentile) * 1e3,
        "cpu_s_per_job": float(weight @ cpu),
    }


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        b = config["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')} ({b.get('openblas configuration', '').strip()})"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "STEKLOV_THREADS": os.environ.get("STEKLOV_THREADS", "unset"),
        "seed": seed,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--seconds", type=float, required=True, help="run length; sets the number of rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path, help="save the traced spans here (.npz)")
    args = p.parse_args()

    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    from bisteklov import cli  # the import is part of set-up time

    import bisteklov
    from bisteklov import ball_spectrum

    if not Path(bisteklov.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported bisteklov from {bisteklov.__file__}, not from {src}", file=sys.stderr)
        return 2
    n_rounds = workloads.rounds_for(args.workload, args.seconds)
    rounds, files = workloads.make_rounds(args.workload, args.seed, n_rounds, args.workdir, root)
    workloads.write_files(files, args.workdir)
    rc, _, err, _, _ = _run_job(cli, workloads.WARMUP[args.workload])
    if rc != 0:
        print(f"error: warm-up job exited {rc}: {err}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # whole rounds, so every run does the same mix of work
    completed, failures = [], []  # completed: (position in round, wall s, CPU s)
    strata = [{"completed": 0, "defects": set()} for _ in rounds[0]]
    attempted = 0
    for round_ in rounds:
        for position, job in enumerate(round_):
            rc, out, err, wall, cpu_s = _run_job(cli, job.argv, tracer.job(attempted) if tracer else None)
            attempted += 1
            reason = checks.check(job, rc, out, ball_spectrum.sorted_spectrum)
            if reason is None:
                completed.append((position, wall, cpu_s))
                strata[position]["completed"] += 1
                continue
            defect = checks.known_defect(job, reason, out, err)
            strata[position]["defects"].add(defect)
            failures.append({"argv": " ".join(job.argv), "reason": reason, "defect": defect,
                             "stderr": err[-300:]})

    empty = checks.empty_strata(strata)
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "completed_per_stratum": [s["completed"] for s in strata],
        "empty_strata": empty,
        "correct": not empty and all(f["defect"] for f in failures),
        "environment": environment(args.seed),
        "samples": len(completed),
    }
    if completed:
        result["end_to_end"] = timing_metrics(completed, workloads.TAIL_PERCENTILE[args.workload])
        result["end_to_end"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.layer_metrics(attempted)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
