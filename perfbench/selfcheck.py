"""Print every metric of every workload and check the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  For each workload of BENCHMARK.json it
makes one untraced run and two traced runs of seed 1, prints each
end-to-end and per-layer metric with its unit, and checks that

- every run's outputs are correct,
- reports are byte-identical between the runs for each shared input,
- kernel-level counts repeat exactly between the two traced runs,
- every layer has non-zero work on the workloads where it is predicted to,
- all runs used the same scalar backend.

Exits 1 if a check fails.
"""

import json
import os
import subprocess
import sys

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1    # on verify-q, the ROADMAP Eckardt input: its one known failure is checked


def run(workload, seed, seconds, trace):
    """One benchmark run, parsed: env, op digests, per-op layers, the
    ``metric`` and ``op`` lines, and the result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"run.py --workload {workload} --trace {trace} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    parsed = {"digests": {}, "layers": {}, "lines": []}
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "env":
            parsed["env"] = json.loads(rest)
        elif kind == "op":
            fields = rest.split()
            parsed["digests"][fields[0]] = fields[fields.index("report") + 1]
            parsed["lines"].append(line)
        elif kind == "layers":
            index, _, data = rest.partition(" ")
            parsed["layers"][index] = json.loads(data)
        elif kind == "metric":
            parsed["lines"].append(line)
    parsed["result"] = json.loads(lines[-1])
    return parsed


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    problems = []
    backends = set()
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, SEED, seconds, 0)
        traced = [run(workload, SEED, seconds, 1) for _ in range(2)]
        print(f"== {workload} (seed {SEED}, {seconds} s per run)")
        for r in [plain] + traced:
            backends.add(r["env"]["backend"])
            res = r["result"]
            print(f"   attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}")
            if not res["correct"]:
                problems.append(f"{workload}: outputs not correct")
        for name, m in plain["result"]["metrics"].items():
            print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
        for line in plain["lines"]:
            if line.startswith("metric "):
                print(f"   {line[7:]}")
        for name, m in traced[0]["result"]["metrics"].items():
            print(f"   {name:40s} {m['value']:.6g} {m['unit']}")

        for other in traced:
            for index, digest in other["digests"].items():
                if plain["digests"].get(index, digest) != digest:
                    problems.append(f"{workload}: op {index} report differs between runs")
        first, second = traced
        for index in first["layers"].keys() & second["layers"].keys():
            for name, unit in layers.UNITS.items():
                a, b = first["layers"][index][name], second["layers"][index][name]
                if unit in ("count", "bits", "ratio") and a != b:
                    problems.append(f"{workload}: op {index} {name} {a} != {b}")
        for name, where in layers.WORKS_ON.items():
            if workload in where and not first["result"]["metrics"][name]["value"]:
                problems.append(f"{workload}: {name} is zero")
    if len(backends) != 1:
        problems.append(f"runs used different scalar backends: {sorted(backends)}")
    print("\n".join(["self-check FAILED:"] + problems) if problems else "self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
