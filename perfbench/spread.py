"""Run-to-run spread of the end-to-end metrics, and trajectory points.

    python3 perfbench/spread.py [--record FILE]
    python3 perfbench/spread.py --compare OLD.json NEW.json

Run from the root of a checkout.  Runs every workload of BENCHMARK.json once
per seed 1..10, untraced, and prints for every end-to-end metric the median,
the quartiles and the quartile distance as a share of the median, next to
the metric's bound in BENCHMARK.json.  ``--record`` writes all of it, with the
environment and every run's result, as a trajectory point.  ``--compare``
prints the change of each median between two trajectory points and refuses
points taken on different scalar backends.
"""

import argparse
import json
import statistics
import sys

from selfcheck import run

SEEDS = range(1, 11)


def measure(bench):
    point = {"run_seconds": bench["run_seconds"], "env": None, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            parsed = run(workload, seed, bench["run_seconds"], 0)
            if point["env"] not in (None, parsed["env"]):
                sys.exit(f"environment changed during the runs: {point['env']} -> {parsed['env']}")
            point["env"] = parsed["env"]
            result = dict(parsed["result"], seed=seed, notes=parsed["lines"])
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                + f" attempted={result['attempted']} failed={result['failed']}"
                + f" correct={result['correct']}", flush=True)
        point["workloads"][workload] = {"runs": runs, "summary": summarize(bench, runs)}
    return point


def summarize(bench, runs):
    out = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "bound": metric["bound"]}
    return out


def show(point):
    print(f"environment: {json.dumps(point['env'], sort_keys=True)}")
    for workload, data in point["workloads"].items():
        for name, s in data["summary"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (above bound/3)"
            print(f"{workload:11s} {name:12s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}{flag}")


def compare(old_path, new_path):
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    if old["env"]["backend"] != new["env"]["backend"]:
        print(f"refusing to compare: backend {old['env']['backend']} vs "
              f"{new['env']['backend']}", file=sys.stderr)
        return 2
    for workload in old["workloads"].keys() & new["workloads"].keys():
        for name, s in new["workloads"][workload]["summary"].items():
            before = old["workloads"][workload]["summary"][name]["median"]
            print(f"{workload:11s} {name:12s} {before:.5g} -> {s['median']:.5g} "
                  f"({(s['median'] - before) / before:+.1%}, bound {s['bound']:.0%})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    point = measure(bench)
    show(point)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
