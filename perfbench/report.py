"""Baseline report: every workload untraced, traced and single-threaded.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Run from the root of a checkout.  Each workload runs three times with the
same seed: default threads untraced (the gated configuration), default threads
traced, and the single-threaded reference (OPENBLAS_NUM_THREADS=1
STEKLOV_THREADS=1, not gated).  For each run it prints run.py's summary: every
end-to-end metric by name with its unit and sample count, failed_frac with the
failures by known defect and, for the traced run, the per-layer metrics.  Then
the tracing overhead, the traced-minus-untraced difference of each end-to-end
metric.  --out writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _brief(record: dict) -> dict:
    return {
        "end_to_end": record["end_to_end"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "failed_frac": record["failed"] / record["attempted"],
        "failures": {group: len(fs) for group, fs in run.failure_groups(record).items()},
        "completed_per_stratum": record["completed_per_stratum"],
        "correct": record["correct"],
        "environment": record["environment"],
    }


def report_workload(workload: str, seed: int, seconds: int) -> dict:
    default = run.measure(workload, seed, seconds, trace=False, threads1=False)
    traced = run.measure(workload, seed, seconds, trace=True, threads1=False)
    single = run.measure(workload, seed, seconds, trace=False, threads1=True)
    out = {
        "tail_percentile": workloads.TAIL_PERCENTILE[workload],
        "default": _brief(default),
        "traced": _brief(traced) | {"per_layer": traced["per_layer"]},
        "single_thread": _brief(single),
        "tracing_overhead": {
            name: traced["end_to_end"][name]["value"] - m["value"]
            for name, m in default["end_to_end"].items()
        },
    }
    print(f"== {workload} (job_tail_ms = p{out['tail_percentile']}) ==")
    for record in (default, traced, single):
        print("\n".join(run.summary_lines(record)))
    print("tracing overhead (traced - untraced):")
    for name, value in out["tracing_overhead"].items():
        print(f"  {name:<16} {value:>+14.6g} {default['end_to_end'][name]['unit']}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--out", type=Path, help="write the report as JSON here")
    args = p.parse_args(argv)
    try:
        result = {"seed": args.seed, "seconds": args.seconds,
                  "workloads": {w: report_workload(w, args.seed, args.seconds)
                                for w in workloads.WORKLOADS}}
    except run.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
