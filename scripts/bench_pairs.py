#!/usr/bin/env python3
"""Paired parent/change benchmark runs, summarized into a BENCH_PR<n>.json.

Two prebuilt binaries of each side are run alternately, one pair per seed
and workload (parent first on odd seeds, change first on even ones), and
every run is appended as one JSON line to a log, with the parameters it
ran under. `summarize` turns a log into the committed record: per metric
and side the median and inclusive quartiles, how many pairs the change
won (a lower value; every metric here is better lower), and whether the
digests (or graph fingerprints) of the two sides are equal on every
seed. The record's run parameters are read from the log, never assumed.

    scripts/bench_pairs.py perfbench --parent P/perfbench --change C/perfbench \\
        --workloads latency-sweep,spill-sequential --seeds 1-10 --seconds 20 \\
        --log runs.jsonl
    scripts/bench_pairs.py graph-mem --parent P/cxlg --change C/cxlg \\
        --graphs "urand 18,kron 18,urand 22" --log ladder.jsonl
    scripts/bench_pairs.py summarize --log runs.jsonl --graph-mem-log ladder.jsonl \\
        --parent-rev abc1234 --description "..." > BENCH_PR<n>.json

perfbench runs in a fresh temporary directory per side (it writes
`.perfbench-tmp` into its working directory) and reports its own host
core and worker-thread counts; graph-mem runs at RAYON_NUM_THREADS=2.
Only the standard library is used.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
PERFBENCH_METRICS = ("setup_s", "run_s", "peak_rss_mb")
GRAPH_MEM_METRICS = ("wall_ms", "bytes_per_arc", "peak_rss_kb")
GRAPH_MEM_THREADS = 2


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pair_order(seed):
    return SIDES if seed % 2 else SIDES[::-1]


def append(log, record):
    with open(log, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def run_perfbench(binary, workload, seed, seconds, cwd):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    summary = dict(kv.split("=", 1) for kv in out[-2].split()[1:] if "=" in kv)
    result = json.loads(out[-1])
    return {
        "digest": summary["sim_digest"],
        "host_cores": int(summary["host_cores"]),
        "threads": int(summary["threads"]),
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def cmd_perfbench(args):
    binaries = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        dirs = {"parent": parent_dir, "change": change_dir}
        for workload in args.workloads.split(","):
            for seed in seed_range(args.seeds):
                for side in pair_order(seed):
                    run = run_perfbench(binaries[side], workload, seed, args.seconds, dirs[side])
                    append(args.log, {"kind": "perfbench", "workload": workload,
                                      "seed": seed, "side": side, "seconds": args.seconds,
                                      **run})
                    print(f"{workload} seed {seed} {side}: {run['metrics']}", file=sys.stderr)


def run_graph_mem(binary, graph):
    env = dict(os.environ, RAYON_NUM_THREADS=str(GRAPH_MEM_THREADS))
    line = subprocess.run(
        [binary, "graph-mem", *graph.split(), "--storage=spill"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()[-1]
    fields = dict(kv.split("=", 1) for kv in line.split()[2:])
    return {
        "digest": fields["fingerprint"],
        "host_cores": os.cpu_count(),
        "threads": GRAPH_MEM_THREADS,
        "metrics": {k: float(fields[k]) for k in GRAPH_MEM_METRICS},
    }


def cmd_graph_mem(args):
    binaries = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for graph in args.graphs.split(","):
        for seed in range(1, args.pairs + 1):
            for side in pair_order(seed):
                run = run_graph_mem(binaries[side], graph)
                append(args.log, {"kind": "graph-mem", "workload": graph,
                                  "seed": seed, "side": side, **run})
                print(f"{graph} pair {seed} {side}: {run['metrics']}", file=sys.stderr)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def logged(records, field):
    """The distinct values a run parameter took across `records`."""
    return sorted({r[field] for r in records})


def summarize(records, metrics):
    """Per workload: pairs, digest equality, and per metric both sides'
    quartiles and the number of pairs in which the change was lower."""
    out = {}
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    for workload in workloads:
        runs = {(r["seed"], r["side"]): r for r in records if r["workload"] == workload}
        seeds = sorted({seed for seed, side in runs if (seed, "parent") in runs
                        and (seed, "change") in runs})
        entry = {
            "pairs": len(seeds),
            f"digest_seed{seeds[0]}": runs[(seeds[0], "parent")]["digest"],
            "digest_equal_every_seed": all(
                runs[(s, "parent")]["digest"] == runs[(s, "change")]["digest"] for s in seeds),
        }
        for metric in metrics:
            sides = {side: [runs[(s, side)]["metrics"][metric] for s in seeds] for side in SIDES}
            entry[metric] = {side: spread(sides[side]) for side in SIDES}
            entry[metric]["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(sides["parent"], sides["change"]))
        out[workload] = entry
    return out


def cmd_summarize(args):
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    records = load(args.log)
    doc = {
        "description": args.description,
        "parent": args.parent_rev,
        "method": (f"perfbench --workload <w> --seed <s> --seconds "
                   f"{'/'.join(f'{s:g}' for s in logged(records, 'seconds'))} --trace 0 "
                   f"on {'/'.join(map(str, logged(records, 'host_cores')))} host cores with "
                   f"{'/'.join(map(str, logged(records, 'threads')))} worker thread(s), "
                   "prebuilt binaries of both commits, each side in its own temporary "
                   "directory; one parent/change pair per seed and workload, parent first on "
                   "odd seeds; quartiles are the inclusive method over each side's runs; "
                   "generated by scripts/bench_pairs.py"),
        "incorrect_or_failed_runs": sum(not r["correct"] or r["failed"] > 0 for r in records),
        "workloads": summarize(records, PERFBENCH_METRICS),
    }
    if args.graph_mem_log:
        ladder = load(args.graph_mem_log)
        doc["graph_mem_spill"] = {
            "method": ("cxlg graph-mem <family> <scale> --storage=spill at RAYON_NUM_THREADS="
                       f"{'/'.join(map(str, logged(ladder, 'threads')))} on "
                       f"{'/'.join(map(str, logged(ladder, 'host_cores')))} host cores, "
                       "prebuilt binaries, alternating pairs; 'digest' is the graph "
                       "fingerprint; bytes_per_arc is peak RSS over stored arcs"),
            "graphs": summarize(ladder, GRAPH_MEM_METRICS),
        }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("perfbench", help="alternating perfbench pairs, appended to --log")
    p.add_argument("--parent", required=True, help="the parent's perfbench binary")
    p.add_argument("--change", required=True, help="the change's perfbench binary")
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_perfbench)

    g = sub.add_parser("graph-mem", help="alternating spill graph-mem pairs, appended to --log")
    g.add_argument("--parent", required=True, help="the parent's cxlg binary")
    g.add_argument("--change", required=True, help="the change's cxlg binary")
    g.add_argument("--graphs", required=True, help='comma-separated, e.g. "urand 18,kron 18"')
    g.add_argument("--pairs", type=int, default=10)
    g.add_argument("--log", required=True)
    g.set_defaults(func=cmd_graph_mem)

    s = sub.add_parser("summarize", help="write the BENCH json for a log to stdout")
    s.add_argument("--log", required=True, help="perfbench run log")
    s.add_argument("--graph-mem-log", help="graph-mem run log, optional")
    s.add_argument("--parent-rev", required=True)
    s.add_argument("--description", required=True)
    s.set_defaults(func=cmd_summarize)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
