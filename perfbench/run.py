"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fed_lighttr --seed 1 --seconds 25 \\
        --trace 0 [--out results.jsonl]

``--workload all`` runs the four workloads one after another and exits 1
if any of them failed.

The workload runs in a child interpreter (one per run; ``peak_rss_mb``
is that child's own ``ru_maxrss``) with BLAS pinned to one thread and every
``REPRO_*`` forcing variable removed.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints its
per-layer metrics from traced repetitions.  Output checks run with the
timings; a failed check prints ``"correct": false`` and exits 1.  The
last line of standard output is the result object; ``--out`` also
appends it, with host details and the output digest, to a JSON-lines
file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """Run the workload in this process; print one JSON line."""
    import workloads

    spec = load_spec()
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed,
                        args.seconds, traced=bool(args.trace))
    try:
        run.execute()
        if args.trace:
            metrics = run.per_layer([m["name"] for m in spec["per_layer"]])
            notes = []
        else:
            metrics, notes = run.end_to_end()
            # Linux reports ru_maxrss in KiB.
            metrics["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    except workloads.CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        return 1
    print(json.dumps({
        "metrics": metrics, "notes": notes,
        "attempted": run.ops + run.failed, "failed": run.failed,
        "digest": sorted(run.digests)[0],
        "host": {"cal_ms": run.clock.cal_ms(), "wall_s": run.wall_s,
                 "cal_samples": len(run.clock.samples_ms),
                 "cal_ms_quartiles": statistics.quantiles(
                     run.clock.samples_ms, n=4)},
    }))
    return 0


def _child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return child_main(args)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return max(run_one(argparse.Namespace(**{**vars(args),
                                                 "workload": name}), spec)
                   for name in names)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{names} or 'all'", file=sys.stderr)
        return 2
    return run_one(args, spec)


def run_one(args: argparse.Namespace, spec: dict) -> int:
    """Run one workload in a child; print its metrics and result line."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=_child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        child = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        child = None
    if child is None or (proc.returncode != 0 and "check_failed" not in child):
        sys.stdout.write(proc.stdout)
        print(f"workload {args.workload} failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    if "check_failed" in child:
        print(f"output check failed: {child['check_failed']}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    metrics = child["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"metric set mismatch: missing {sorted(set(units) - set(metrics))}"
              f", undeclared {sorted(set(metrics) - set(units))}",
              file=sys.stderr)
        return 1
    host = child["host"]
    q1, _, q3 = host["cal_ms_quartiles"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"host.cal_ms={host['cal_ms']:.4f} (quartiles {q1:.4f}-{q3:.4f},"
          f" n={host['cal_samples']}) host.wall_s={host['wall_s']:.2f}")
    for note in child["notes"]:
        print(f"#   {note}")
    for name in units:
        print(f"{name:48s} {metrics[name]:14.6g} {units[name]}")
    result = {
        "correct": True,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "digest": child["digest"],
                "host": host, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
