"""The cubicgeom benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client in a closed loop runs one
operation at a time: an operation is one seeded input passed through the
workload's command list, each command a fresh ``cubicgeom`` process (every
invocation pays interpreter start, import and all lazy work again, so no
cache outlives a command).  Operations run in cycles of the workload's
inputs (1 for verify-q, 3 for species-qi, 10 for quick-q); a new cycle starts
while the time used plus a typical cycle fits in S seconds, and at least one
cycle always runs.

Times are taken at a reference machine speed.  On the shared 2-vCPU VM the
trajectory was taken on, the time of one fixed job moved by up to a factor of
two within seconds, so while each command runs a client thread times
``calibrate()``, a fixed exact-arithmetic job, every 0.2 s.  A command's wall
time and set-up time are multiplied by the mean of REFERENCE_CAL_S / t over
those timings t: its mean speed relative to the reference, which stays right
when a command runs partly in a fast phase and partly in a slow one.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each operation runs untraced and then traced, the two reports
must be byte-identical, and the last line carries the per-layer metrics.
Lines before it record the environment, every input, every operation's
outcome and the metrics the last line leaves out.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import checks
import inputs
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 5        # import-only processes per run, for setup_s
RUN_LIMIT_S = 170       # a run must end within 180 s; commands are killed after this
CALIBRATION_PERIOD_S = 0.2
# Median calibrate() time while a command runs, on the 2-vCPU Xeon of
# trajectory/00-8c55acc.json (0.043 s over 102 commands in six minutes), so
# scaled times read as seconds at that machine's usual speed.
REFERENCE_CAL_S = 0.042


def calibrate():
    """Seconds taken by a fixed job like the library's own work: Gauss-Jordan
    elimination of four 10x10 matrices of Fractions in pure Python."""
    start = time.perf_counter()
    n = 10
    for shift in range(4):
        m = [[Fraction((7 * r + 3 * c + shift) % 19 - 9, (r * c + shift) % 8 + 1)
              for c in range(n)] for r in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if m[r][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            for r in range(n):
                if r != c and m[r][c]:
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - start


def verify_q_input(seed, slot):
    # Seeds ending in 0 take the README fixture, seeds ending in 1 the ROADMAP
    # Eckardt input, the rest a seeded draw; 52 of the draws for seeds 1-300
    # have Eckardt points.
    points = (inputs.README_FIXTURE if seed % 10 == 0 else inputs.ECKARDT_INPUT
              if seed % 10 == 1 else inputs.rational_draw(inputs.rng_for("verify-q", seed, slot)))
    return points, {"eckardt": inputs.eckardt_trios(points)}


def species_qi_input(seed, slot):
    # Species cycle 2, 3, 4 with the slot; the seed draws the conjugate pairs.
    k = 2 + slot % 3
    return inputs.species_draw(inputs.rng_for("species-qi", seed, slot), k), {"species": k}


def quick_q_input(seed, slot):
    points = inputs.rational_draw(inputs.rng_for("quick-q", seed, slot))
    return points, {"eckardt": inputs.eckardt_trios(points)}


# name -> (commands per operation, input maker, cycle).  Operation i runs the
# input of slot i mod cycle and runs end on a whole cycle, so every run of a
# seed measures the same inputs, however fast the program is.
WORKLOADS = {
    "verify-q": (("verify-all",), verify_q_input, 1),
    "species-qi": (("species", "determinantal"), species_qi_input, 3),
    "quick-q": (("construct", "configurations", "cayley-salmon", "hexahedral",
                 "determinantal"), quick_q_input, 10),
}


class Refused(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


class Command:
    """One finished command process; wall_s and setup_s are as measured, and
    scale turns them into seconds at reference speed."""

    def __init__(self, argv, wall_s, setup_s, scale, stamp, code, rss_mb, stdout,
                 stderr, trace):
        self.argv, self.wall_s, self.setup_s, self.scale, self.stamp = (
            argv, wall_s, setup_s, scale, stamp)
        self.code, self.rss_mb, self.stdout, self.stderr, self.trace = (
            code, rss_mb, stdout, stderr, trace)


class Runner:
    def __init__(self, root, workdir, deadline):
        self.workdir, self.deadline = workdir, deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.count = 0

    def spawn(self, argv, traced=False):
        """Run one command process to its end, sampling the machine's speed
        meanwhile; time it and read its outputs."""
        self.count += 1
        base = os.path.join(self.workdir, f"p{self.count:04d}")
        trace_path = base + ".trace.json" if traced else "-"
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            samples, stop = [], threading.Event()

            def sample():
                samples.append(calibrate())
                while not stop.wait(CALIBRATION_PERIOD_S):
                    samples.append(calibrate())

            sampler = threading.Thread(target=sample)
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, base + ".stamp", trace_path, *argv],
                                    stdout=out, stderr=err, env=self.env)
            sampler.start()
            timer = threading.Timer(max(0.0, self.deadline - spawned), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall_s = time.monotonic() - spawned
            finally:
                timer.cancel()
                stop.set()
                sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stamp = _read_json(base + ".stamp")
        with open(base + ".out", "rb") as fh:
            stdout = fh.read()
        with open(base + ".err", "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        return Command(argv, wall_s, stamp["imported"] - spawned if stamp else None,
                       statistics.fmean(REFERENCE_CAL_S / t for t in samples), stamp,
                       proc.returncode, usage.ru_maxrss / 1024, stdout, stderr,
                       _read_json(trace_path) if traced else None)

    def op(self, commands, input_path, seed, traced=False):
        """Run the command list on one input; return (seconds, commands),
        seconds being the commands' scaled wall times summed."""
        done = [self.spawn([name, "--input", input_path, "--seed", str(seed),
                            "--format", "json"], traced) for name in commands]
        return sum(c.wall_s * c.scale for c in done), done


class Op:
    """One operation: an input, its command processes and their verdict."""

    def __init__(self, index, points, facts):
        self.index, self.points, self.facts = index, points, facts
        self.failure, self.known = None, True
        self.traced_seconds, self.traced, self.layers = None, None, None

    @property
    def cost(self):
        """Unscaled seconds the operation took, to fit cycles into the run."""
        return sum(c.wall_s for c in self.done + (self.traced or []))

    def run(self, runner, commands, workdir, seed, trace):
        path = os.path.join(workdir, f"input-{self.index:03d}.json")
        with open(path, "w") as fh:
            fh.write(inputs.to_json(self.points) + "\n")
        self.seconds, self.done = runner.op(commands, path, seed)
        if trace:
            self.traced_seconds, self.traced = runner.op(commands, path, seed, traced=True)
        for k, cmd in enumerate(self.done):
            verdict = checks.check(cmd.argv[0], cmd.code, cmd.stdout.decode(errors="replace"),
                                   cmd.stderr, self.facts)
            if trace and (verdict is None or verdict[1]):
                if self.traced[k].stdout != cmd.stdout:
                    verdict = ("TraceChangedReport", False)
                elif self.traced[k].trace is None:
                    verdict = ("TraceMissing", False)
            if verdict is not None:
                self.failure, self.known = f"{cmd.argv[0]}:{verdict[0]}", verdict[1]
                break
        if trace and all(c.trace is not None for c in self.traced):
            self.layers = layers.op_metrics([c.trace for c in self.traced])

    def show(self):
        digest = hashlib.sha256(b"".join(c.stdout for c in self.done)).hexdigest()[:16]
        outcome = "ok" if self.failure is None else "FAILED " + self.failure
        if self.failure and self.known:
            outcome += f" (known: Eckardt {';'.join(self.facts['eckardt'])})"
        print(f"input {self.index} " + inputs.to_json(self.points))
        wall = sum(c.wall_s for c in self.done)
        print(f"op {self.index} {self.seconds:.4f}s wall {wall:.4f}s report {digest} {outcome}")
        if self.layers:
            print(f"layers {self.index} " + json.dumps(self.layers, sort_keys=True))


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def environment(backend):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"backend": backend, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(values) - 10) / len(values)


def probe_setup(runner, root):
    """Import-only processes: set-up samples, backend, and the package used."""
    samples, backend = [], None
    src = os.path.join(root, "src", "")
    for _ in range(SETUP_PROBES):
        probe = runner.spawn([])
        if probe.code != 0 or not probe.stamp:
            raise Refused(f"importing cubicgeom.cli failed: {probe.stderr.strip()[-500:]}")
        if not probe.stamp["package"].startswith(src):
            raise Refused(f"cubicgeom was imported from {probe.stamp['package']}, not {src}")
        samples.append(probe.setup_s * probe.scale)
        backend = probe.stamp["backend"]
    return samples, backend


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cubicgeom", "cli.py")):
        print("error: no src/cubicgeom/cli.py here; run from the root of a "
              "cubicgeom checkout", file=sys.stderr)
        return 2
    commands, make_input, cycle = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(root, workdir, begun + RUN_LIMIT_S)
    try:
        setup_samples, backend = probe_setup(runner, root)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(backend), sort_keys=True))

    ops = []
    started = time.monotonic()
    while not ops or time.monotonic() < runner.deadline and (
            len(ops) % cycle or time.monotonic() - started
            + cycle * statistics.median(o.cost for o in ops) <= args.seconds):
        op = Op(len(ops), *make_input(args.seed, len(ops) % cycle))
        op.run(runner, commands, workdir, args.seed, args.trace)
        op.show()
        setup_samples += [c.setup_s * c.scale for c in op.done if c.setup_s is not None]
        ops.append(op)
    wall = time.monotonic() - started

    failed = sum(op.failure is not None for op in ops)
    times = [op.seconds for op in ops]
    if args.trace:
        per_op = [op.layers for op in ops if op.layers] or [dict.fromkeys(layers.UNITS, 0)]
        traced_op_s = statistics.median(op.traced_seconds for op in ops)
        metrics = {name: (statistics.median(m[name] for m in per_op), unit)
                   for name, unit in layers.UNITS.items()}
        metrics["trace.op_s"] = (traced_op_s, "s")
        metrics["trace.overhead_s"] = (traced_op_s - statistics.median(times), "s")
    else:
        metrics = {"op_s": (statistics.median(times), "s"),
                   "setup_s": (statistics.median(setup_samples), "s"),
                   "peak_rss_mb": (statistics.median(max(c.rss_mb for c in op.done)
                                                     for op in ops), "MB")}
        t = tail(times)
        print("metric op_s.tail " + (f"{t[0]:.4f} s at p{t[1]:.1f}" if t else "n/a")
              + f" (samples {len(times)})")
        print(f"metric ops_per_s {(len(ops) - failed) / wall:.6f} 1/s "
              f"({len(ops) - failed} succeeded in {wall:.2f} s)")
        print(f"metric ops_failed_ratio {failed / len(ops):.4f} ratio ({failed}/{len(ops)})")
        print(f"metric setup_s samples {len(setup_samples)}")
        print(f"metric op_wall_s {statistics.median(sum(c.wall_s for c in op.done) for op in ops):.4f}"
              " s (unscaled)")
        print("metric speed_scale "
              f"{statistics.median(c.scale for op in ops for c in op.done):.4f} (median over commands)")
    print(json.dumps({"correct": all(op.failure is None or op.known for op in ops),
                      "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
