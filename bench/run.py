"""bellkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload paper|quantum|enumerate --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is the checkout's own
src/bellkit, byte-compiled before any timing.  Traced spans go to .bench_build/.
Each workload runs in a fresh interpreter with BLAS and OpenMP capped at one
thread, and no two child processes run at once.  The last line printed is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give every metric with its unit, the versions and the machine.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper", "quantum", "enumerate")

SETUP_PROBES = 5  # extra set-up-only processes; set-up is the median of these and the run's
COLD_RUNS = 9  # cold CLI processes per run
IMPORT_PROBES = 5  # fresh `import bellkit.cli` processes per traced run
TAIL_WINDOWS = 10  # op_tail_ms is the median of the tail percentile over this many windows
RUN_LIMIT_S = 170.0  # every child is killed once the run has taken this long

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class RunFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("BELLKIT_SEED", "PYTHONSTARTUP")}
    env.update({cap: "1" for cap in THREAD_CAPS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts one child at a time and kills it if the run's time is used up."""

    def __init__(self):
        self.deadline = now() + RUN_LIMIT_S
        self.env = child_env()
        self.refs: list[tuple[float, float]] = []

    def run(self, argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        """Run one child; return its start and end time and the finished process."""
        left = self.deadline - now()
        if left <= 0:
            raise RunFailed("run time limit reached")
        start = now()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"timed out: {' '.join(argv)}") from exc
        return start, now(), proc

    def reference_process(self) -> None:
        start, end, proc = self.run([sys.executable, str(BENCH / "reference.py")])
        if proc.returncode != 0:
            raise RunFailed(f"reference process failed:\n{proc.stderr.strip()}")
        self.refs.append((end, end - start))

    def at_reference_speed(self, start: float, end: float, took: float | None = None) -> float:
        """A time measured by a child that ran in [start, end] (by default the
        length of that interval), at reference speed; see reference.py."""
        scale = reference.Scale(self.refs, reference.REF_PROCESS_S, window=2.0, min_samples=1)
        return (end - start if took is None else took) * scale.factor(start, end)

    def worker(self, workload: str, seed: int, seconds: float, *flags: str) -> dict:
        argv = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *flags]
        start, _, proc = self.run(argv)
        if proc.returncode != 0:
            raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup"] = (start, out["ready"])
        return out


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def windowed_percentile(out: dict, pct: float) -> tuple[float, int]:
    """The median over up to TAIL_WINDOWS windows of consecutive whole rounds
    of the pct-th percentile within each window, and the number of windows.
    The machine slows down in bursts, and a burst that slows a tenth of a run
    moves the percentile of one window, not the median of all of them."""
    lat, size = out["latencies"], out["round_size"]
    rounds = len(lat) // size
    n = min(TAIL_WINDOWS, rounds)
    edges = [size * (rounds * i // n) for i in range(n + 1)]
    return statistics.median(percentile(lat[a:b], pct) for a, b in zip(edges, edges[1:])), n


def op_rate(out: dict) -> float:
    """Operations per second of operation time, with each operation taking the
    median latency of the operations with its key.  A run is whole rounds of
    one fixed mix, so this is the closed loop's throughput on that mix; a
    slowdown of the machine during one operation moves a median, not the sum."""
    by_key: dict[str, list[float]] = {}
    for key, dt in zip(out["keys"], out["latencies"]):
        by_key.setdefault(key, []).append(dt)
    return len(out["latencies"]) / sum(len(v) * statistics.median(v) for v in by_key.values())


def cold_cli(runner: Runner, workload, problems: list[str]) -> tuple[float, float]:
    """Start and end of one cold CLI process; a wrong output is added to problems."""
    start, end, proc = runner.run([sys.executable, "-m", "bellkit.cli", *workload.cold_argv])
    try:
        workload.check_cold(proc.returncode, proc.stdout)
    except Exception as exc:  # reported, not raised: the run still prints its result
        problems.append(f"cold {' '.join(workload.cold_argv)}: {exc}")
    return start, end


def import_time(runner: Runner) -> float:
    code = ("import time; t = time.perf_counter(); import bellkit.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    runner.reference_process()
    for _ in range(IMPORT_PROBES):
        start, end, proc = runner.run([sys.executable, "-c", code])
        runner.reference_process()
        if proc.returncode != 0:
            raise RunFailed(f"import bellkit.cli failed:\n{proc.stderr.strip()}")
        samples.append(runner.at_reference_speed(start, end, float(proc.stdout.strip())))
    return statistics.median(samples)


def machine() -> dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model}


def end_to_end(runner: Runner, spec, seed: int, seconds: float):
    # Set-up probes and cold CLI runs alternate, half before and half after the
    # measuring process, so that they sample the machine at both ends of the
    # run; a reference process runs between any two of them.
    setups, colds, problems = [], [], []

    def probes(n: int, with_setup: bool = True) -> None:
        for _ in range(n):
            if with_setup:
                setups.append(runner.worker(spec.name, seed, seconds, "--setup-only")["setup"])
                runner.reference_process()
            colds.append(cold_cli(runner, spec, problems))
            runner.reference_process()

    runner.reference_process()
    probes(SETUP_PROBES // 2)
    main = runner.worker(spec.name, seed, seconds)
    setups.append(main["setup"])
    runner.reference_process()
    probes(SETUP_PROBES - SETUP_PROBES // 2)
    probes(COLD_RUNS - SETUP_PROBES, with_setup=False)
    setups = [runner.at_reference_speed(*interval) for interval in setups]
    colds = [runner.at_reference_speed(*interval) for interval in colds]
    lat = main["latencies"]
    tail, windows = windowed_percentile(main, spec.tail_pct)
    rate = op_rate(main)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rate,
        "op_p50_ms": 1e3 * percentile(lat, 50.0),
        "op_tail_ms": 1e3 * tail,
        "items_per_s": rate * main["items"] / len(lat),
        "cli_cold_p50_s": statistics.median(colds),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = [
        f"operations {len(lat)} in {main['raw_op_time']:.3f} s of operation time, "
        f"{main['op_time']:.3f} s at reference speed; "
        f"mean rate {len(lat) / main['op_time']:.6g}/s",
        f"op_tail_ms is the median of p{spec.tail_pct:g} over {windows} windows of "
        f"{len(lat) // windows} operations; {sum(x > tail for x in lat)} of {len(lat)} "
        f"samples lie beyond it; p{spec.tail_pct:g} of the whole run is "
        f"{1e3 * percentile(lat, spec.tail_pct):.6g} ms",
        f"fail_ratio {main['failed'] / len(lat):.6g} ({main['failed']} of {len(lat)})",
        f"setup samples s: {' '.join(f'{s:.4f}' for s in setups)}",
        f"cold CLI samples s: {' '.join(f'{s:.4f}' for s in colds)}",
    ]
    return main, metrics, notes, problems


def per_layer(runner: Runner, spec, seed: int, seconds: float):
    plain = runner.worker(spec.name, seed, seconds)
    BUILD.mkdir(exist_ok=True)
    spans = BUILD / f"spans-{spec.name}.npz"
    traced = runner.worker(spec.name, seed, seconds, "--trace", "--spans", str(spans))
    metrics = dict(traced["layers"])
    metrics["cli.import_s"] = import_time(runner)
    metrics["trace_overhead_ratio"] = op_rate(traced) / op_rate(plain)
    notes = [f"traced operations {len(traced['latencies'])}, spans {traced['spans']} "
             f"written to {spans.relative_to(ROOT)}"]
    failed = plain["failed"] + traced["failed"]
    plain["latencies"] += traced["latencies"]
    plain["failed"] = failed
    plain["warmup_failed"] += traced["warmup_failed"]
    plain["errors"] += traced["errors"]
    return plain, metrics, notes, []


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "bellkit" / "__init__.py").is_file():
        print(f"bench: no bellkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("bench: bellkit sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS as SPECS

    spec = SPECS[args.workload]
    info = machine()
    # Every process of the run shares one CPU, so the reference kernel is
    # timed on the CPU the program runs on (see reference.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner()
    measure = per_layer if args.trace else end_to_end
    try:
        main_out, metrics, notes, problems = measure(runner, spec, args.seed, args.seconds)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    info = {**main_out["versions"], **info}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(info))
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for line in main_out["errors"] + problems:
        print(f"  FAILED {line}")
    attempted = len(main_out["latencies"])
    failed = main_out["failed"]
    correct = failed == 0 and main_out["warmup_failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
