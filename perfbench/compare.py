"""Compare two sets of benchmark results, or check one workload's spread.

Compare a parent's results (A) with a change's (B), both JSON-lines
files written by ``run.py --out``::

    python3 perfbench/compare.py A.jsonl B.jsonl

For every workload and end-to-end metric this prints both medians and
quartiles and one verdict under the bounds in ``BENCHMARK.json``:

* ``worse`` - B's median is worse than A's by more than the bound;
* ``better`` - B beats A in at least nine tenths of the runs paired in
  order, and the medians differ by more than A's own quartile spread;
* ``unresolved`` - either side's quartile spread exceeds the bound and
  neither side's runs all beat the other's;
* ``same`` - none of the above.

Steadiness self-check: run one workload ``k`` times (seeds 1..k) and
print each end-to-end metric's IQR/median against its bound::

    python3 perfbench/compare.py steady --workload fed_lighttr -k 5 \
        --out steady.jsonl

The exit status is 1 when a verdict is ``worse`` or a spread exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import load_spec  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """IQR as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def read_results(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [values...]}}`` of the untraced runs."""
    table: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry["trace"]:
                continue
            for name, metric in entry["result"]["metrics"].items():
                table[entry["workload"]][name].append(metric["value"])
    return table


def verdict(a: list[float], b: list[float], bound: float,
            higher_better: bool) -> str:
    sign = -1.0 if higher_better else 1.0
    q1_a, med_a, q3_a = quartiles(a)
    med_b = quartiles(b)[1]
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    b_all_better = all(sign * (x - y) < 0 for x in b for y in a)
    b_all_worse = all(sign * (x - y) > 0 for x in b for y in a)
    if max(spread(a), spread(b)) > bound and not (b_all_better
                                                  or b_all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > (q3_a - q1_a)):
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    results_a, results_b = read_results(path_a), read_results(path_b)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in results_a or workload not in results_b:
            continue
        print(f"{workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = results_a[workload][name]
            b = results_b[workload][name]
            result = verdict(a, b, metric["bound"],
                             metric["better"] == "higher")
            status |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:12s} A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  {metric['unit']:6s} {result}")
    return status


def steady(workload: str, runs: int, seconds: float, out: str) -> int:
    spec = load_spec()
    for seed in range(1, runs + 1):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--out", out]
        proc = subprocess.run(command, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"run with seed {seed} failed", file=sys.stderr)
            return 1
    values = read_results(out)[workload]
    status = 0
    print(f"{workload}: {runs} runs, {out}")
    for metric in spec["end_to_end"]:
        share = spread(values[metric["name"]])
        bound = metric["bound"]
        flag = "ok" if share <= bound / 3 else (
            "within bound" if share <= bound else "TOO NOISY")
        status |= share > bound and metric["name"] != "setup_s"
        print(f"  {metric['name']:12s} IQR/median {share:7.4f}  "
              f"bound {bound:.3f}  {flag}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "steady":
        parser = argparse.ArgumentParser(prog="compare.py steady")
        parser.add_argument("--workload", required=True)
        parser.add_argument("-k", type=int, default=5)
        parser.add_argument("--seconds", type=float,
                            default=load_spec()["run_seconds"])
        parser.add_argument("--out", required=True,
                            help="JSONL file the runs append to")
        args = parser.parse_args(argv[1:])
        return steady(args.workload, args.k, args.seconds, args.out)
    parser = argparse.ArgumentParser(prog="compare.py")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
