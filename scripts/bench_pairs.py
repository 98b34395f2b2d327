#!/usr/bin/env python3
"""Run alternating parent/change pairs of two fibbing_perf builds.

    bench_pairs.py --parent OLD/.bench_build/fibbing_perf \\
        --change NEW/.bench_build/fibbing_perf --workload surge --workload churn \\
        --seed 19 --pairs 10 --claim surge:op_ms_p90 --pr N --out BENCH_N.json

Each pair runs both binaries once on the same workload, seed and duration;
even pairs run the parent first, odd pairs the change. `--cpus 1,2,3` pins
both sides of the i-th workload to the i-th listed core and runs the
workloads' series side by side. A pair whose two `work:` lines differ (the
run count aside) aborts the run: the two builds did different work, so
their times do not compare.

The output JSON holds, per workload, every pair's results and, for each
metric of BENCHMARK.json the runs report (end-to-end untraced, per-layer
with `--trace 1`), the quartiles of each side, the change's win count and
whether the gap between the medians exceeds the parent's interquartile
range (IQR). The verdict applies the end-to-end bounds of BENCHMARK.json to
the medians and, with `--claim`, the gain rule: the change wins at least
nine pairs in ten and its median is better than the parent's by more than
the parent's IQR.

Standard library only.
"""

import argparse
import concurrent.futures
import json
import math
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_RE = re.compile(r"^# runs=\d+(?: \+ \d+ traced)? work: (.*)$", re.MULTILINE)
RUN_TIMEOUT_S = 600


def work_of(output):
    """The `work:` line of one fibbing_perf output, minus the run count."""
    match = WORK_RE.search(output)
    if match is None:
        raise ValueError("fibbing_perf printed no work: line")
    return match.group(1).strip()


def result_of(output):
    """The JSON result: fibbing_perf's last non-empty line."""
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        raise ValueError("fibbing_perf printed nothing")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a, b, direction):
    """True when `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def summarize(parent, change, direction):
    """Statistics of one metric over paired runs (lists in pair order)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("summarize needs two equally long, non-empty series")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    iqr = p_q3 - p_q1
    gain = p_med - c_med if direction == "lower" else c_med - p_med
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "change_vs_parent": (c_med - p_med) / p_med if p_med else 0.0,
        "change_wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > iqr,
        "improved": wins >= math.ceil(0.9 * len(parent)) and gain > iqr,
    }


def verdict(summary, metrics, claim=None):
    """Bounds and claim over {workload: {metric: summarize(...)}}.

    `metrics` maps each metric name to {"better": ..., "bound": ...} (the
    entries of BENCHMARK.json; only bounded ones are judged); `claim` is
    (workload, metric).
    """
    out = {"workloads": {}, "regressions": []}
    for workload, by_metric in sorted(summary.items()):
        rows = {}
        for name, stats in sorted(by_metric.items()):
            spec = metrics[name]
            if "bound" not in spec:
                continue
            worse = stats["change_vs_parent"]
            if spec["better"] == "higher":
                worse = -worse
            within = worse <= spec["bound"]
            rows[name] = {
                "change_vs_parent": round(stats["change_vs_parent"], 4),
                "bound": spec["bound"],
                "within_bound": within,
                "change_wins": f"{stats['change_wins']}/{stats['pairs']}",
                "median_gap_exceeds_parent_iqr": stats["median_gap_exceeds_parent_iqr"],
                "improved": stats["improved"],
            }
            if not within:
                out["regressions"].append(f"{workload}:{name}")
        out["workloads"][workload] = rows
    ok = not out["regressions"]
    if claim is not None:
        workload, name = claim
        met = summary[workload][name]["improved"]
        out["claim"] = {"workload": workload, "metric": name, "met": met}
        ok = ok and met
    out["pass"] = ok
    return out


def run_once(binary, workload, seed, seconds, trace, cpu):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, preexec_fn=pin, check=False)
    result = result_of(proc.stdout)
    return work_of(proc.stdout), result


class WorkMismatch(Exception):
    pass


def run_series(args, workload, cpu):
    pairs = []
    work = None
    for index in range(args.pairs):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        pair = {"pair": index, "first": order[0]}
        for side in order:
            binary = args.parent if side == "parent" else args.change
            side_work, result = run_once(binary, workload, args.seed, args.seconds,
                                         args.trace, cpu)
            if work is None:
                work = side_work
            if side_work != work:
                raise WorkMismatch(f"{workload} pair {index}: {side} did different "
                                   f"work:\n  {work}\n  {side_work}")
            pair[side] = result
        pairs.append(pair)
        print(f"{workload} pair {index}: " + " | ".join(
            f"{side} " + " ".join(f"{k}={v['value']:.4g}"
                                  for k, v in pair[side]["metrics"].items())
            for side in ("parent", "change")), file=sys.stderr, flush=True)
    return work, pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent fibbing_perf binary")
    parser.add_argument("--change", required=True, help="change fibbing_perf binary")
    parser.add_argument("--workload", required=True, action="append",
                        choices=["surge", "viewers", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cpus", default=None,
                        help="comma-separated cores, one per workload")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    parser.add_argument("--pr", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as handle:
        declared = json.load(handle)
    metrics = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    cpus = [int(c) for c in args.cpus.split(",")] if args.cpus else []
    if cpus and len(cpus) < len(args.workload):
        sys.exit("bench_pairs: --cpus needs one core per workload")

    report = {
        "pr": args.pr,
        "command": (f"fibbing_perf --workload W --seed {args.seed} "
                    f"--seconds {args.seconds} --trace {args.trace}"),
        "method": (f"{args.pairs} parent/change pairs per workload, even pairs "
                   "parent first" + (", workloads side by side, each pinned to "
                                     "its own core " + args.cpus if cpus else "")),
        "host": {"nproc": os.cpu_count()},
        "workloads": {},
    }
    summary = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(cpus) or 1) as pool:
        futures = [pool.submit(run_series, args, workload, cpus[i] if cpus else None)
                   for i, workload in enumerate(args.workload)]
        try:
            series_of = [future.result() for future in futures]
        except WorkMismatch as err:
            sys.exit(f"bench_pairs: {err}")
    for workload, (work, pairs) in zip(args.workload, series_of):
        by_metric = {}
        for name, spec in metrics.items():
            if not all(name in p[side]["metrics"] for p in pairs
                       for side in ("parent", "change")):
                continue
            series = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                      for side in ("parent", "change")}
            by_metric[name] = summarize(series["parent"], series["change"],
                                        spec["better"])
        summary[workload] = by_metric
        report["workloads"][workload] = {
            "seed": args.seed,
            "work": work,
            "pairs": pairs,
            "summary": by_metric,
            "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
        }
    report["verdict"] = verdict(summary, metrics, claim)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report["verdict"], indent=2))
    return 0 if report["verdict"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
